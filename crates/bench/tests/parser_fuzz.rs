//! Hostile-input fuzzing of the hand-rolled parsers: the trace validator
//! (`pipa_obs::json::top_level_keys`), the cost-tape reader
//! (`Tape::from_jsonl`), the query-word parser (`pipa_qgen::parse_words`)
//! and the bench harness's criterion-line scan (`cli::median_of`).
//!
//! Text inputs are real lines, the trace and metrics of a small traced
//! grid cell and the cost tape it recorded, with bytes truncated,
//! flipped and inserted. Word inputs are random sequences, including
//! table and column ids the schema does not have, and grammatical
//! sequences with words dropped, replaced and inserted. The property:
//! a typed error or success, never a panic. A tape entry damaged inside
//! its marker or a field name is a typed error too, never a line the
//! reader skips as foreign.

use pipa_bench::cli::median_of;
use pipa_core::experiment::build_db;
use pipa_core::{run_grid_traced, CellConfig, GridSpec, InjectorKind};
use pipa_cost::{CostError, RecordingBackend, Tape};
use pipa_ia::{AdvisorKind, SpeedPreset, TrajectoryMode};
use pipa_obs::json::top_level_keys;
use pipa_obs::{MemorySink, TraceOutputs};
use pipa_qgen::token::{Kw, Op};
use pipa_qgen::{parse_words, QueryFsm, Word};
use pipa_sim::{ColumnId, TableId};
use pipa_workload::Benchmark;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// Lines of one traced grid cell and the JSONL of the tape it recorded.
struct Corpus {
    lines: Vec<String>,
    tape: String,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 2;
        cfg.injection_size = 4;
        let spec = GridSpec::new(
            vec![AdvisorKind::DbaBandit(TrajectoryMode::Best)],
            vec![InjectorKind::Pipa],
            1,
            7,
        );
        let db = build_db(&cfg);
        let rec = RecordingBackend::new(&db);
        let (trace, metrics) = (MemorySink::new(), MemorySink::new());
        let out = TraceOutputs::with_sinks(
            Some(Box::new(trace.clone())),
            Some(Box::new(metrics.clone())),
        );
        run_grid_traced(&rec, &cfg, &spec, 1, &out).expect("grid cell runs");
        out.flush();
        let mut lines = trace.lines();
        lines.extend(metrics.lines());
        let tape = rec.tape().to_jsonl();
        assert!(lines.len() > 10, "{} trace lines", lines.len());
        assert!(tape.lines().count() > 10, "tape of {} bytes", tape.len());
        for line in &lines {
            top_level_keys(line).expect("the unmutated trace validates");
        }
        assert_eq!(
            Tape::from_jsonl(&tape).expect("the unmutated tape parses"),
            rec.tape()
        );
        Corpus { lines, tape }
    })
}

/// Structural bytes that inserts and flips favour, so mutations reach
/// past the first syntax check.
const STRUCTURAL: &[u8] = b"{}[]\":,\\ -+.0123456789eEtrufalsn\n";

/// One byte edit `(kind, at, byte)`: kind 0 truncates at `at`, 1–4 flip
/// the byte at `at`, 5–7 insert `byte` before it (`at` is taken modulo
/// the length, and a `byte` below 128 picks a structural byte).
type Edit = (u8, usize, u8);

/// Between one and `max` edits.
fn edits(max: usize) -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..8, 0usize..1 << 24, 0u8..=255), 1..max + 1)
}

fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        let byte = if byte < 128 {
            STRUCTURAL[usize::from(byte) % STRUCTURAL.len()]
        } else {
            byte
        };
        match kind {
            0 => bytes.truncate(at),
            1..=4 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= byte.max(1);
                }
            }
            _ => bytes.insert(at, byte),
        }
    }
    // Invalid UTF-8 becomes U+FFFD: the parsers take `&str`.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The marker and field names of a rendered tape entry.
const ENTRY_NAMES: [&str; 5] = [
    "\"event\":\"whatif_cost\"",
    "\"kind\"",
    "\"q\"",
    "\"cfg\"",
    "\"bits\"",
];

/// Every single-byte edit inside `name` in `line`: each printable
/// replacement, each deletion, and each printable insertion between two
/// of its bytes that breaks it (inserting a copy of the first or last
/// byte next to it leaves the name whole, like an insertion outside).
fn name_edits(line: &str, name: &str) -> Vec<String> {
    let start = line
        .find(name)
        .expect("a rendered entry carries every name");
    let mut edits = Vec::new();
    for at in start..start + name.len() {
        for byte in (b' '..=b'~').filter(|&b| b != line.as_bytes()[at]) {
            let mut bytes = line.as_bytes().to_vec();
            bytes[at] = byte;
            edits.push(bytes);
        }
        let mut bytes = line.as_bytes().to_vec();
        bytes.remove(at);
        edits.push(bytes);
        for byte in (b' '..=b'~').filter(|_| at > start) {
            let mut bytes = line.as_bytes().to_vec();
            bytes.insert(at, byte);
            edits.push(bytes);
        }
    }
    edits
        .into_iter()
        .map(|bytes| String::from_utf8(bytes).expect("printable edits stay UTF-8"))
        .filter(|edit| !edit.contains(name))
        .collect()
}

#[test]
fn every_edit_of_an_entry_name_is_corrupt() {
    // The first, a middle and the last entry of the recorded tape, each
    // edited after an intact entry.
    let lines: Vec<&str> = corpus().tape.lines().collect();
    for no in [0, lines.len() / 2, lines.len() - 1] {
        let intact = lines[(no + 1) % lines.len()];
        for name in ENTRY_NAMES {
            let edits = name_edits(lines[no], name);
            assert!(
                edits.len() > 95 * name.len(),
                "{} edits of {name}",
                edits.len()
            );
            for edit in edits {
                // An error, so never a tape that lost the entry.
                match Tape::from_jsonl(&format!("{intact}\n{edit}\n")) {
                    Err(CostError::TapeCorrupt { line: 2, .. }) => {}
                    other => panic!("{edit:?} parsed as {other:?}"),
                }
            }
        }
    }
}

const KEYWORDS: [Kw; 14] = [
    Kw::From,
    Kw::Join,
    Kw::Select,
    Kw::Where,
    Kw::And,
    Kw::Sum,
    Kw::Avg,
    Kw::Min,
    Kw::Max,
    Kw::Count,
    Kw::LParen,
    Kw::RParen,
    Kw::Star,
    Kw::Idx,
];
const OPS: [Op; 4] = [Op::Eq, Op::Le, Op::Ge, Op::Between];

/// Up to `max` random `(kind, raw)` word picks for [`word`].
fn word_picks(max: usize) -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((0u8..6, 0u16..=u16::MAX), 0..max + 1)
}

/// A word from `(kind, raw)`. TPC-H has 8 tables and 61 columns, so
/// table ids up to 15 and column ids up to 95 include unknown ones, and
/// value and reward buckets up to 31 include out-of-range ones.
fn word(kind: u8, raw: u16) -> Word {
    match kind % 6 {
        0 => Word::Kw(KEYWORDS[usize::from(raw) % KEYWORDS.len()]),
        1 => Word::Op(OPS[usize::from(raw) % OPS.len()]),
        2 => Word::Table(TableId(u32::from(raw % 16))),
        3 => Word::Column(ColumnId(u32::from(raw % 96))),
        4 => Word::Value((raw % 32) as u8),
        _ => Word::Reward((raw % 32) as u8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trace_validator_never_panics(pick in 0usize..1 << 20, edits in edits(5)) {
        let lines = &corpus().lines;
        let line = mutate(&lines[pick % lines.len()], &edits);
        if let Err(e) = top_level_keys(&line) {
            prop_assert!(e.contains("offset"), "error without an offset: {}", e);
        }
    }

    #[test]
    fn tape_reader_never_panics(edits in edits(12)) {
        // `Err` is the typed `CostError::TapeCorrupt`; both outcomes pass.
        let _ = Tape::from_jsonl(&mutate(&corpus().tape, &edits));
    }

    #[test]
    fn median_scan_never_panics(
        median in 0.0f64..1e9,
        edits in edits(5),
        probe in 0u8..4,
    ) {
        let id = "whatif/session_delta";
        let text = format!(
            "{{\"id\":\"warmup\",\"median_ns\":1.0,\"mean_ns\":1.0,\"samples\":1}}\n\
             {{\"id\":\"{id}\",\"median_ns\":{median:.1},\"mean_ns\":{median:.1},\"samples\":20}}\n"
        );
        prop_assert_eq!(median_of(&text, id), Some(format!("{median:.1}").parse().unwrap()));
        let mutated = mutate(&text, &edits);
        let asked = ["", id, "warmup", "\"median_ns\":"][usize::from(probe)];
        let _ = median_of(&mutated, asked);
    }

    #[test]
    fn word_parser_never_panics(picks in word_picks(40)) {
        let schema = Benchmark::TpcH.schema();
        let words: Vec<Word> = picks.into_iter().map(|(k, raw)| word(k, raw)).collect();
        let _ = parse_words(&schema, &words);
    }

    #[test]
    fn word_parser_never_panics_on_edited_queries(
        seed in 0u64..1 << 32,
        ops in proptest::collection::vec((0u8..3, 0usize..64), 1..5),
        picks in word_picks(4),
    ) {
        let schema = Benchmark::TpcH.schema();
        let mut words = QueryFsm::generate(&schema, &mut ChaCha8Rng::seed_from_u64(seed), None);
        prop_assert!(parse_words(&schema, &words).is_ok(), "generated {:?}", words);
        // Drop, replace or insert; replacements and inserts take the
        // next random word, or a `from` once those run out.
        let mut fresh = picks.into_iter().map(|(k, raw)| word(k, raw));
        for (op, at) in ops {
            let at = at % (words.len() + 1);
            match op {
                0 => {
                    if at < words.len() {
                        words.remove(at);
                    }
                }
                1 => {
                    if let Some(w) = words.get_mut(at) {
                        *w = fresh.next().unwrap_or(Word::Kw(Kw::From));
                    }
                }
                _ => words.insert(at, fresh.next().unwrap_or(Word::Kw(Kw::From))),
            }
        }
        let _ = parse_words(&schema, &words);
    }
}
