//! Validate `--trace` / `--metrics-out` JSONL streams: every line must
//! parse as a JSON object and carry the `event`, `cell_seed` and `phase`
//! keys the observability contract promises (ARCHITECTURE.md,
//! "Observability"). CI runs this against a smoke-test trace.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin trace_lint -- trace.jsonl [more.jsonl ...]
//! ```
//!
//! Exits non-zero on the first malformed file; prints per-file line and
//! event-name counts otherwise.

use std::collections::BTreeMap;

const REQUIRED: [&str; 3] = ["event", "cell_seed", "phase"];

fn lint(path: &str) -> Result<(usize, BTreeMap<String, usize>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut events: BTreeMap<String, usize> = BTreeMap::new();
    let mut lines = 0usize;
    for (no, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let keys = pipa_obs::json::top_level_keys(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", no + 1))?;
        for req in REQUIRED {
            if !keys.iter().any(|k| k == req) {
                return Err(format!("{path}:{}: missing required key {req:?}", no + 1));
            }
        }
        // The event name is always the first field by construction.
        if keys.first().map(String::as_str) != Some("event") {
            return Err(format!("{path}:{}: first key must be \"event\"", no + 1));
        }
        let name = line
            .strip_prefix("{\"event\":\"")
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("?")
            .to_string();
        *events.entry(name).or_insert(0) += 1;
    }
    Ok((lines, events))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_lint FILE.jsonl [FILE.jsonl ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match lint(path) {
            Ok((lines, events)) => {
                let summary: Vec<String> = events.iter().map(|(k, v)| format!("{k}×{v}")).collect();
                println!("{path}: {lines} lines OK ({})", summary.join(", "));
            }
            Err(e) => {
                eprintln!("trace_lint: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
