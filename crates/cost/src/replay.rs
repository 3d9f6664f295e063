//! Record/replay cost backends.
//!
//! [`RecordingBackend`] wraps any [`CostBackend`] and captures every
//! per-query cost it answers into a [`Tape`]: a sorted map from
//! `(query fingerprint, config fingerprint)` to the cost's exact f64 bit
//! pattern. The tape serializes to JSONL (one line per entry, through any
//! `pipa-obs` sink) and [`ReplayBackend`] answers from it
//! deterministically — same bits, no simulator, no data.
//!
//! Composite operations (workload, batch, delta, session) are recorded
//! per query: the [`CostBackend`] contract fixes every composite cost as
//! the frequency-weighted sum, in workload order, of per-query costs, so
//! a tape of per-query entries replays composite calls bit-exactly
//! (`tests/cost_backend_differential.rs` pins this, including across
//! `--jobs 1` vs `--jobs N` recordings).

use crate::backend::{weighted_sum, CostBackend};
use crate::error::{CostError, CostResult};
use pipa_sim::cost::matrix::{fingerprint_config, fingerprint_query};
use pipa_sim::cost::Catalog;
use pipa_sim::{ColumnStats, IndexConfig, Query, Schema, TableStats, Workload};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Tape key: `(query fingerprint, config fingerprint)`.
type Key = (u128, u128);

/// Default size guard for [`Tape::read_jsonl_file`]: 1 GiB of JSONL
/// (≈13M entries) — far above any recorded fleet to date, low enough to
/// stop a runaway or mis-pointed file from swallowing the host.
pub const DEFAULT_TAPE_BYTE_LIMIT: u64 = 1 << 30;

/// Render one tape entry as its canonical JSONL line (no newline).
fn render_line(kind: &str, q: u128, cfg: u128, bits: u64) -> String {
    format!(
        "{{\"event\":\"whatif_cost\",\"kind\":\"{kind}\",\"q\":\"{q:032x}\",\"cfg\":\"{cfg:032x}\",\"bits\":{bits}}}"
    )
}

/// The marker that makes a line a tape entry.
const ENTRY_MARKER: &str = "\"event\":\"whatif_cost\"";

/// The fields only a tape entry carries. A line with one of them but
/// without [`ENTRY_MARKER`] is a damaged entry, not a foreign event.
const ENTRY_FIELDS: [&str; 3] = ["\"q\":\"", "\"cfg\":\"", "\"bits\":"];

/// One classified tape line.
enum ParsedLine {
    /// Empty, or a different `"event"` (tapes can live inside mixed
    /// telemetry streams) that carries none of the entry fields.
    Foreign,
    /// A `whatif_cost` entry.
    Entry {
        /// Executed-cost family (vs estimated).
        exec: bool,
        /// `(query, config)` fingerprint key.
        key: Key,
        /// Exact `f64::to_bits` cost.
        bits: u64,
    },
}

/// Parse one line of tape JSONL. `no` is the 1-based line number for
/// error reporting; malformed lines (including a truncated final line
/// with no newline, and an entry whose marker is damaged) surface as
/// [`CostError::TapeCorrupt`].
fn parse_tape_line(line: &str, no: usize) -> CostResult<ParsedLine> {
    let line = line.trim();
    let bad = || CostError::TapeCorrupt {
        line: no,
        detail: line.chars().take(160).collect(),
    };
    if !line.contains(ENTRY_MARKER) {
        return if ENTRY_FIELDS.iter().any(|f| line.contains(f)) {
            Err(bad())
        } else {
            Ok(ParsedLine::Foreign)
        };
    }
    let q = u128::from_str_radix(field(line, "\"q\":\"", '"').ok_or_else(bad)?, 16)
        .map_err(|_| bad())?;
    let cfg = u128::from_str_radix(field(line, "\"cfg\":\"", '"').ok_or_else(bad)?, 16)
        .map_err(|_| bad())?;
    let bits: u64 = field(line, "\"bits\":", '}')
        .ok_or_else(bad)?
        .parse()
        .map_err(|_| bad())?;
    let exec = match field(line, "\"kind\":\"", '"').ok_or_else(bad)? {
        "est" => false,
        "exec" => true,
        _ => return Err(bad()),
    };
    Ok(ParsedLine::Entry {
        exec,
        key: (q, cfg),
        bits,
    })
}

/// A recorded cost tape: estimated and executed per-query costs keyed by
/// structural fingerprints, values stored as exact [`f64::to_bits`]
/// patterns.
///
/// Backed by `BTreeMap`, so iteration (and therefore [`Tape::to_jsonl`])
/// is sorted by key — two tapes with the same entries serialize to
/// byte-identical JSONL regardless of the recording order or the number
/// of worker threads that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tape {
    est: BTreeMap<Key, u64>,
    exec: BTreeMap<Key, u64>,
}

impl Tape {
    /// Number of estimated-cost entries.
    pub fn est_len(&self) -> usize {
        self.est.len()
    }

    /// True if the tape holds no entries of either kind.
    pub fn is_empty(&self) -> bool {
        self.est.is_empty() && self.exec.is_empty()
    }

    /// Merge another tape's entries into this one. Overlapping keys must
    /// agree — the [`CostBackend`] bit-equality contract makes two
    /// recordings of the same `(query, config)` pair identical — and
    /// debug builds assert that per entry, so cost drift between
    /// recordings fails loudly in tests instead of being masked by a
    /// silent overwrite. Used by `pipa-serve` to accumulate one tenant
    /// tape across many recorded sessions.
    pub fn merge(&mut self, other: Tape) {
        for (dst, src) in [(&mut self.est, other.est), (&mut self.exec, other.exec)] {
            for ((q, cfg), bits) in src {
                if let Some(prev) = dst.insert((q, cfg), bits) {
                    debug_assert_eq!(
                        prev, bits,
                        "tape merge: overlapping entry disagrees at q={q:032x} cfg={cfg:032x} \
                         — the CostBackend bit-equality contract was broken upstream"
                    );
                }
            }
        }
    }

    /// Serialize to JSONL, one entry per line, sorted (estimated first,
    /// then executed), each line shaped like
    /// `{"event":"whatif_cost","kind":"est","q":"<32 hex>","cfg":"<32 hex>","bits":123}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (kind, map) in [("est", &self.est), ("exec", &self.exec)] {
            for (&(q, cfg), &bits) in map {
                out.push_str(&render_line(kind, q, cfg, bits));
                out.push('\n');
            }
        }
        out
    }

    /// Stream the tape to a file, one entry at a time through a
    /// [`BufWriter`] — the full JSONL text is never resident. Returns the
    /// number of bytes written and adds it to the `tape_bytes_streamed`
    /// obs counter (a pure function of the tape contents, so the counter
    /// stays jobs-deterministic).
    pub fn write_jsonl_file(&self, path: impl AsRef<Path>) -> CostResult<u64> {
        let path = path.as_ref();
        let io = |e: std::io::Error| CostError::Io(format!("{}: {e}", path.display()));
        let mut w = BufWriter::new(File::create(path).map_err(io)?);
        let mut bytes = 0u64;
        for (kind, map) in [("est", &self.est), ("exec", &self.exec)] {
            for (&(q, cfg), &bits) in map {
                let line = render_line(kind, q, cfg, bits);
                w.write_all(line.as_bytes()).map_err(io)?;
                w.write_all(b"\n").map_err(io)?;
                bytes += line.len() as u64 + 1;
            }
        }
        w.flush().map_err(io)?;
        pipa_obs::count("tape_bytes_streamed", bytes);
        Ok(bytes)
    }

    /// Stream a tape in from a JSONL file line by line — the whole file
    /// is never resident, so replay fleets can load multi-gigabyte tapes
    /// under a flat memory ceiling. `max_bytes` guards against runaway
    /// or mis-pointed files ([`DEFAULT_TAPE_BYTE_LIMIT`] is a sensible
    /// default); exceeding it aborts with [`CostError::TapeTooLarge`],
    /// and any malformed or truncated line surfaces as
    /// [`CostError::TapeCorrupt`] with its line number. Bytes consumed
    /// are added to the `tape_bytes_streamed` obs counter.
    pub fn read_jsonl_file(path: impl AsRef<Path>, max_bytes: u64) -> CostResult<Tape> {
        let path = path.as_ref();
        let io = |e: std::io::Error| CostError::Io(format!("{}: {e}", path.display()));
        let mut reader = BufReader::new(File::open(path).map_err(io)?);
        let mut tape = Tape::default();
        let mut buf = String::new();
        let mut bytes = 0u64;
        let mut no = 0usize;
        loop {
            buf.clear();
            let n = reader.read_line(&mut buf).map_err(io)?;
            if n == 0 {
                break;
            }
            bytes += n as u64;
            if bytes > max_bytes {
                return Err(CostError::TapeTooLarge {
                    bytes,
                    limit: max_bytes,
                });
            }
            no += 1;
            if let ParsedLine::Entry { exec, key, bits } = parse_tape_line(&buf, no)? {
                if exec {
                    tape.exec.insert(key, bits);
                } else {
                    tape.est.insert(key, bits);
                }
            }
        }
        pipa_obs::count("tape_bytes_streamed", bytes);
        Ok(tape)
    }

    /// Write the tape through a `pipa-obs` sink (e.g. a
    /// [`pipa_obs::JsonlSink`]), one line per entry.
    pub fn write_to(&self, sink: &dyn pipa_obs::Sink) {
        for line in self.to_jsonl().lines() {
            sink.write_line(line);
        }
        sink.flush();
    }

    /// Parse a tape back from the JSONL produced by [`Tape::to_jsonl`].
    /// Lines with other `"event"` values are skipped, so a tape can be
    /// recovered from a mixed telemetry stream.
    pub fn from_jsonl(text: &str) -> CostResult<Tape> {
        let mut tape = Tape::default();
        for (no, line) in text.lines().enumerate() {
            if let ParsedLine::Entry { exec, key, bits } = parse_tape_line(line, no + 1)? {
                if exec {
                    tape.exec.insert(key, bits);
                } else {
                    tape.est.insert(key, bits);
                }
            }
        }
        Ok(tape)
    }
}

/// Extract the substring between `prefix` and the next `end` character.
fn field<'a>(line: &'a str, prefix: &str, end: char) -> Option<&'a str> {
    let start = line.find(prefix)? + prefix.len();
    let rest = &line[start..];
    Some(rest[..rest.find(end)?].trim())
}

/// A recording wrapper: answers every call from the wrapped backend and
/// captures per-query costs into a [`Tape`].
///
/// Composite calls (workload/batch/delta/session) are decomposed into
/// per-query costs — bit-identical to the inner backend by the
/// [`CostBackend`] decomposition contract — so the tape covers every
/// `(query, config)` pair a replayed run will ask for.
pub struct RecordingBackend<'a> {
    inner: &'a dyn CostBackend,
    est: Mutex<BTreeMap<Key, u64>>,
    exec: Mutex<BTreeMap<Key, u64>>,
}

impl<'a> RecordingBackend<'a> {
    /// Record all cost traffic flowing into `inner`.
    pub fn new(inner: &'a dyn CostBackend) -> Self {
        RecordingBackend {
            inner,
            est: Mutex::new(BTreeMap::new()),
            exec: Mutex::new(BTreeMap::new()),
        }
    }

    /// Snapshot the tape recorded so far.
    pub fn tape(&self) -> Tape {
        Tape {
            est: self.est.lock().map(|m| m.clone()).unwrap_or_default(),
            exec: self.exec.lock().map(|m| m.clone()).unwrap_or_default(),
        }
    }

    fn record(&self, map: &Mutex<BTreeMap<Key, u64>>, q: &Query, cfg: &IndexConfig, v: f64) {
        if let Ok(mut m) = map.lock() {
            m.insert(
                (
                    fingerprint_query(q).to_u128(),
                    fingerprint_config(cfg).to_u128(),
                ),
                v.to_bits(),
            );
        }
    }
}

impl CostBackend for RecordingBackend<'_> {
    fn name(&self) -> &'static str {
        "record"
    }

    fn catalog(&self) -> Catalog<'_> {
        self.inner.catalog()
    }

    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        let v = self.inner.query_cost(q, cfg)?;
        self.record(&self.est, q, cfg, v);
        Ok(v)
    }

    fn supports_execution(&self) -> bool {
        self.inner.supports_execution()
    }

    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        // Forward so a recorded learning backend refits exactly like the
        // live one; the post-refit costs it records then replay verbatim.
        self.inner.observe_training(w)
    }

    fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        let v = self.inner.executed_query_cost(q, cfg)?;
        self.record(&self.exec, q, cfg, v);
        Ok(v)
    }

    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        weighted_sum(w, |q| self.executed_query_cost(q, cfg))
    }

    fn render_sql(&self, q: &Query) -> CostResult<String> {
        self.inner.render_sql(q)
    }

    fn explain(&self, q: &Query, cfg: &IndexConfig) -> CostResult<String> {
        self.inner.explain(q, cfg)
    }
}

/// A backend that answers every cost from a recorded [`Tape`] — no
/// simulator, no data, fully deterministic. Missing entries surface as
/// [`CostError::ReplayMiss`] rather than a fabricated number.
///
/// Owns a clone of the recording backend's catalog (schema and
/// statistics) so advisors that extract features keep working against a
/// replayed run.
pub struct ReplayBackend {
    schema: Schema,
    table_stats: Vec<TableStats>,
    column_stats: Vec<ColumnStats>,
    est: BTreeMap<Key, u64>,
    exec: BTreeMap<Key, u64>,
}

impl ReplayBackend {
    /// Build a replay backend from a recorded tape plus the catalog of
    /// the backend that recorded it (cloned into owned storage).
    pub fn new(catalog: Catalog<'_>, tape: Tape) -> Self {
        ReplayBackend {
            schema: catalog.schema.clone(),
            table_stats: catalog.table_stats.to_vec(),
            column_stats: catalog.column_stats.to_vec(),
            est: tape.est,
            exec: tape.exec,
        }
    }

    fn lookup(
        &self,
        map: &BTreeMap<Key, u64>,
        q: &Query,
        cfg: &IndexConfig,
        executed: bool,
    ) -> CostResult<f64> {
        let key = (
            fingerprint_query(q).to_u128(),
            fingerprint_config(cfg).to_u128(),
        );
        map.get(&key)
            .map(|&bits| f64::from_bits(bits))
            .ok_or_else(|| CostError::ReplayMiss {
                query: key.0,
                config: key.1,
                executed,
                detail: self.miss_detail(q, cfg, map.len()).into(),
            })
    }

    /// Render the offending `(query, config)` pair for a
    /// [`CostError::ReplayMiss`]: the query's SQL text, the configuration's
    /// index names, and the size of the tape that was searched. The owned
    /// catalog makes this possible without reaching back to the recording
    /// backend.
    fn miss_detail(&self, q: &Query, cfg: &IndexConfig, tape_len: usize) -> String {
        let cat = self.catalog();
        let sql = q.render_sql(cat.schema, |c| cat.column(c));
        let indexes: Vec<String> = cfg.indexes().iter().map(|i| i.name(cat.schema)).collect();
        format!(
            "query `{sql}` under config [{}]; tape holds {tape_len} entr{}",
            indexes.join(", "),
            if tape_len == 1 { "y" } else { "ies" }
        )
    }
}

impl CostBackend for ReplayBackend {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn catalog(&self) -> Catalog<'_> {
        Catalog {
            schema: &self.schema,
            table_stats: &self.table_stats,
            column_stats: &self.column_stats,
        }
    }

    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.lookup(&self.est, q, cfg, false)
    }

    fn supports_execution(&self) -> bool {
        !self.exec.is_empty()
    }

    fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.lookup(&self.exec, q, cfg, true)
    }

    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        weighted_sum(w, |q| self.executed_query_cost(q, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_jsonl_round_trips() {
        let mut tape = Tape::default();
        tape.est.insert((7, 9), 1.5f64.to_bits());
        tape.est.insert((1, 2), f64::NAN.to_bits());
        tape.exec.insert((7, 9), 2.25f64.to_bits());
        let text = tape.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = Tape::from_jsonl(&text).unwrap();
        assert_eq!(back, tape);
        // Sorted output: the (1,2) entry precedes (7,9) regardless of
        // insertion order.
        assert!(
            text.find("\"q\":\"00000000000000000000000000000001\"")
                .unwrap()
                < text
                    .find("\"q\":\"00000000000000000000000000000007\"")
                    .unwrap()
        );
    }

    #[test]
    fn tape_parse_skips_foreign_events_and_rejects_garbage() {
        let mixed = "{\"event\":\"metric\",\"name\":\"x\"}\n\
                     {\"event\":\"whatif_cost\",\"kind\":\"est\",\"q\":\"0a\",\"cfg\":\"01\",\"bits\":42}\n";
        let tape = Tape::from_jsonl(mixed).unwrap();
        assert_eq!(tape.est_len(), 1);
        assert_eq!(tape.est.get(&(0x0a, 0x01)), Some(&42));

        let bad =
            "{\"event\":\"whatif_cost\",\"kind\":\"est\",\"q\":\"zz\",\"cfg\":\"01\",\"bits\":42}";
        assert!(matches!(
            Tape::from_jsonl(bad),
            Err(CostError::TapeCorrupt { line: 1, .. })
        ));
        let bad_kind =
            "{\"event\":\"whatif_cost\",\"kind\":\"wat\",\"q\":\"0a\",\"cfg\":\"01\",\"bits\":1}";
        assert!(Tape::from_jsonl(bad_kind).is_err());
        // An entry whose marker lost one byte is corrupt, not a foreign
        // line the reader may skip.
        let bad_marker =
            "{\"event\":\"whatif_cosT\",\"kind\":\"est\",\"q\":\"0b\",\"cfg\":\"01\",\"bits\":7}";
        assert!(matches!(
            Tape::from_jsonl(&format!("{mixed}{bad_marker}\n")),
            Err(CostError::TapeCorrupt { line: 3, .. })
        ));
        // The error names the offending line in a mixed stream.
        let mixed_bad = format!("{mixed}{bad}\n");
        match Tape::from_jsonl(&mixed_bad) {
            Err(CostError::TapeCorrupt { line, detail }) => {
                assert_eq!(line, 3);
                assert!(detail.contains("zz"));
            }
            other => panic!("expected TapeCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip_streams_and_guards_size() {
        let dir = std::env::temp_dir().join("pipa_tape_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tape.jsonl");
        let mut tape = Tape::default();
        for i in 0..100u128 {
            tape.est.insert((i, i * 3), (i as u64) << 4);
            tape.exec.insert((i, i * 3), (i as u64) << 5);
        }
        let written = tape.write_jsonl_file(&path).unwrap();
        assert_eq!(written, tape.to_jsonl().len() as u64);
        // Streaming read matches the in-memory parse bit for bit.
        let back = Tape::read_jsonl_file(&path, DEFAULT_TAPE_BYTE_LIMIT).unwrap();
        assert_eq!(back, tape);
        // The size guard trips with the byte counts reported.
        match Tape::read_jsonl_file(&path, 256) {
            Err(CostError::TapeTooLarge { bytes, limit }) => {
                assert!(bytes > 256 && limit == 256);
            }
            other => panic!("expected TapeTooLarge, got {other:?}"),
        }
        // A truncated final line (interrupted writer) is corrupt, with
        // the line number pointing at the cut.
        let text = tape.to_jsonl();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        match Tape::read_jsonl_file(&path, DEFAULT_TAPE_BYTE_LIMIT) {
            Err(CostError::TapeCorrupt { line, .. }) => assert_eq!(line, 200),
            other => panic!("expected TapeCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_clear_io_error() {
        let err = Tape::read_jsonl_file("/nonexistent/pipa/tape.jsonl", 1024).unwrap_err();
        assert!(matches!(err, CostError::Io(_)));
        assert!(err.to_string().contains("tape.jsonl"));
    }

    #[test]
    fn tape_merge_unions_and_agreeing_overlaps_are_noops() {
        let mut a = Tape::default();
        a.est.insert((1, 1), 10);
        a.exec.insert((1, 1), 20);
        let mut b = Tape::default();
        b.est.insert((1, 1), 10); // agreeing overlap
        b.est.insert((2, 2), 30); // fresh entry
        a.merge(b);
        assert_eq!(a.est.get(&(1, 1)), Some(&10));
        assert_eq!(a.est.get(&(2, 2)), Some(&30));
        assert_eq!(a.exec.get(&(1, 1)), Some(&20));
        assert_eq!(a.est_len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tape merge: overlapping entry disagrees")]
    fn tape_merge_rejects_disagreeing_overlaps_in_debug() {
        let mut a = Tape::default();
        a.est.insert((1, 1), 10);
        let mut b = Tape::default();
        b.est.insert((1, 1), 11);
        a.merge(b);
    }

    #[test]
    fn tape_write_to_sink_matches_to_jsonl() {
        let mut tape = Tape::default();
        tape.exec.insert((3, 4), 8u64);
        let sink = pipa_obs::MemorySink::default();
        tape.write_to(&sink);
        assert_eq!(format!("{}\n", sink.contents()), tape.to_jsonl());
    }
}
