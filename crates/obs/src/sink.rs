//! Pluggable line sinks and the per-run output pair.

use crate::recorder::CellTrace;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A destination for rendered JSONL lines.
///
/// Sinks receive *whole lines* (no trailing newline) in the order the
/// flushing side hands them over; the deterministic-ordering guarantee is
/// the flusher's job ([`TraceOutputs::write_cell`] is called in input
/// order by the runner), not the sink's.
pub trait Sink: Send + Sync {
    /// Append one line.
    fn write_line(&self, line: &str);

    /// Flush buffered lines to the underlying medium.
    fn flush(&self) {}
}

/// Discards everything (the default when no `--trace`/`--metrics-out` is
/// given).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn write_line(&self, _line: &str) {}
}

/// Collects lines in memory; cloning shares the buffer. Used by the
/// golden-trace tests to compare byte streams across job counts.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all lines written so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink poisoned").clone()
    }

    /// All lines joined with `\n` (the exact bytes a [`JsonlSink`] file
    /// would contain, minus the trailing newline).
    pub fn contents(&self) -> String {
        self.lines().join("\n")
    }
}

impl Sink for MemorySink {
    fn write_line(&self, line: &str) {
        self.lines
            .lock()
            .expect("memory sink poisoned")
            .push(line.to_string());
    }
}

/// Writes one JSON object per line to a file (the `--trace <path>` /
/// `--metrics-out <path>` backend).
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        w.write_all(line.as_bytes()).expect("trace write failed");
        w.write_all(b"\n").expect("trace write failed");
    }

    fn flush(&self) {
        self.writer
            .lock()
            .expect("jsonl sink poisoned")
            .flush()
            .expect("trace flush failed");
    }
}

/// The pair of outputs one experiment run writes: the deterministic
/// trace channel and the wall-clock metrics channel. Either can be
/// absent; with both absent ([`TraceOutputs::disabled`]) recording is
/// skipped entirely and instrumentation stays on its no-op fast path.
#[derive(Default)]
pub struct TraceOutputs {
    trace: Option<Box<dyn Sink>>,
    metrics: Option<Box<dyn Sink>>,
}

impl TraceOutputs {
    /// No sinks: recording disabled.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Open JSONL files for whichever paths are given.
    pub fn create(trace: Option<&str>, metrics: Option<&str>) -> std::io::Result<Self> {
        Ok(TraceOutputs {
            trace: match trace {
                Some(p) => Some(Box::new(JsonlSink::create(p)?)),
                None => None,
            },
            metrics: match metrics {
                Some(p) => Some(Box::new(JsonlSink::create(p)?)),
                None => None,
            },
        })
    }

    /// Use explicit sinks (tests pass [`MemorySink`]s here).
    pub fn with_sinks(trace: Option<Box<dyn Sink>>, metrics: Option<Box<dyn Sink>>) -> Self {
        TraceOutputs { trace, metrics }
    }

    /// Whether any sink is attached (i.e. cells should record).
    pub fn active(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Flush one cell's buffered lines to the attached sinks. Callers
    /// must invoke this in cell *input order* — that, plus the
    /// deterministic per-cell buffers, is what makes the trace file
    /// byte-identical across `--jobs` settings.
    pub fn write_cell(&self, cell: &CellTrace) {
        if let Some(sink) = &self.trace {
            for line in &cell.trace {
                sink.write_line(line);
            }
        }
        if let Some(sink) = &self.metrics {
            for line in &cell.metrics {
                sink.write_line(line);
            }
        }
    }

    /// Write a run-level (not cell-scoped) event to the metrics channel:
    /// one that belongs to the whole run, not to any cell. Stamped with
    /// `cell_seed = 0` and phase `"global"` so every line still satisfies
    /// the lint contract. No run writes one yet; the tests pin the shape.
    #[cfg(test)]
    fn global_metric(&self, ev: crate::Event) {
        if let Some(sink) = &self.metrics {
            sink.write_line(&ev.render(&[("cell_seed", crate::Value::U64(0))], "global"));
        }
    }

    /// Flush both sinks.
    pub fn flush(&self) {
        if let Some(sink) = &self.trace {
            sink.flush();
        }
        if let Some(sink) = &self.metrics {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{emit, metric, record_cell, CellCtx};
    use crate::Event;

    fn one_cell() -> CellTrace {
        let ((), t) = record_cell(true, CellCtx::new(9), || {
            emit(Event::new("ev").field("x", 1u64));
            metric(Event::new("tm").field("y", 2u64));
        });
        t
    }

    #[test]
    fn write_cell_routes_channels_to_their_sinks() {
        let trace = MemorySink::new();
        let metrics = MemorySink::new();
        let out = TraceOutputs::with_sinks(
            Some(Box::new(trace.clone())),
            Some(Box::new(metrics.clone())),
        );
        assert!(out.active());
        out.write_cell(&one_cell());
        assert_eq!(trace.lines().len(), 1);
        assert!(trace.lines()[0].contains("\"event\":\"ev\""));
        assert_eq!(metrics.lines().len(), 1);
        assert!(metrics.lines()[0].contains("\"event\":\"tm\""));
    }

    #[test]
    fn disabled_outputs_are_inactive() {
        let out = TraceOutputs::disabled();
        assert!(!out.active());
        out.write_cell(&one_cell()); // must not panic
        out.flush();
    }

    #[test]
    fn noop_sink_records_nothing() {
        // The satellite-task guarantee: a no-op sink swallows lines and
        // has no observable state afterwards.
        let out = TraceOutputs::with_sinks(Some(Box::new(NoopSink)), Some(Box::new(NoopSink)));
        assert!(out.active());
        out.write_cell(&one_cell());
        out.global_metric(Event::new("cache_stats").field("hits", 3u64));
        out.flush();
        // NoopSink is a ZST: nothing was stored anywhere.
        assert_eq!(std::mem::size_of::<NoopSink>(), 0);
    }

    #[test]
    fn global_metric_satisfies_the_line_contract() {
        let metrics = MemorySink::new();
        let out = TraceOutputs::with_sinks(None, Some(Box::new(metrics.clone())));
        out.global_metric(Event::new("cache_stats").field("hits", 3u64));
        let lines = metrics.lines();
        assert_eq!(lines.len(), 1);
        let keys = crate::json::top_level_keys(&lines[0]).expect("valid");
        assert!(keys.contains(&"event".to_string()));
        assert!(keys.contains(&"cell_seed".to_string()));
        assert!(keys.contains(&"phase".to_string()));
        assert!(lines[0].contains("\"phase\":\"global\""));
    }

    #[test]
    fn jsonl_sink_writes_lines_to_disk() {
        let path = std::env::temp_dir().join("pipa_obs_sink_test.jsonl");
        let sink = JsonlSink::create(&path).expect("create");
        sink.write_line("{\"event\":\"a\"}");
        sink.write_line("{\"event\":\"b\"}");
        sink.flush();
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(body, "{\"event\":\"a\"}\n{\"event\":\"b\"}\n");
        let _ = std::fs::remove_file(&path);
    }
}
