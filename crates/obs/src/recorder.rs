//! The thread-local cell recorder.
//!
//! An experiment cell runs start-to-finish on one thread, so recording
//! needs no synchronization: [`record_cell`] installs a recorder in a
//! thread-local slot, the instrumented code (which never holds a handle)
//! reports through the free functions, and the buffered [`CellTrace`]
//! comes back to the caller — who flushes cell traces *in input order* to
//! keep the stream independent of scheduling.
//!
//! The fast path when nothing records is a single relaxed load of a
//! global counter, so the instrumentation can stay in release builds.

use crate::event::{Event, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of recorders currently installed anywhere in the process. The
/// instrumentation's no-sink fast path is `ACTIVE == 0`.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Context fields stamped on every line a cell records: `cell_seed`
/// first (required by the trace contract), then any extras such as
/// `advisor`, `injector`, `run`.
#[derive(Debug, Clone)]
pub struct CellCtx {
    fields: Vec<(&'static str, Value)>,
}

impl CellCtx {
    /// Context carrying the cell's seed identity.
    pub fn new(cell_seed: u64) -> Self {
        CellCtx {
            fields: vec![("cell_seed", Value::U64(cell_seed))],
        }
    }

    /// Append a context field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

/// The two rendered line buffers one cell produced: the deterministic
/// trace channel and the wall-clock metrics channel.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Deterministic event lines (byte-identical across `--jobs N`).
    pub trace: Vec<String>,
    /// Timing lines (same shape, nondeterministic values).
    pub metrics: Vec<String>,
}

struct Recorder {
    ctx: Vec<(&'static str, Value)>,
    phase: &'static str,
    out: CellTrace,
    /// Counters accumulated during the current phase, flushed as
    /// `counter` events on the next phase change (BTreeMap ⇒ name order).
    counters: BTreeMap<&'static str, u64>,
    /// Distinct-key counters (e.g. distinct what-if `(query, config)`
    /// pairs); flushed as `counter` events with a `distinct` marker.
    uniques: BTreeMap<&'static str, HashSet<u128>>,
}

impl Recorder {
    fn new(ctx: CellCtx) -> Self {
        Recorder {
            ctx: ctx.fields,
            phase: "setup",
            out: CellTrace::default(),
            counters: BTreeMap::new(),
            uniques: BTreeMap::new(),
        }
    }

    fn flush_counters(&mut self) {
        for (name, value) in std::mem::take(&mut self.counters) {
            let line = Event::new("counter")
                .field("name", name)
                .field("value", value)
                .render(&self.ctx, self.phase);
            self.out.trace.push(line);
        }
        for (name, keys) in std::mem::take(&mut self.uniques) {
            let line = Event::new("counter")
                .field("name", name)
                .field("value", keys.len() as u64)
                .field("distinct", true)
                .render(&self.ctx, self.phase);
            self.out.trace.push(line);
        }
    }
}

/// Whether a recorder is installed on *this* thread. Instrumentation
/// can use this to skip building expensive event payloads.
pub fn is_recording() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0 && RECORDER.with(|r| r.borrow().is_some())
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Enter a named phase. Counters accumulated in the previous phase are
/// flushed (in name order) and a `phase_start` event is emitted.
pub fn phase(name: &'static str) {
    with_recorder(|rec| {
        rec.flush_counters();
        rec.phase = name;
        let line = Event::new("phase_start").render(&rec.ctx, name);
        rec.out.trace.push(line);
    });
}

/// Record an event on the deterministic trace channel.
pub fn emit(ev: Event) {
    with_recorder(|rec| {
        let line = ev.render(&rec.ctx, rec.phase);
        rec.out.trace.push(line);
    });
}

/// Record an event on the metrics channel (wall-clock data lives here,
/// never on the trace channel).
pub fn metric(ev: Event) {
    with_recorder(|rec| {
        let line = ev.render(&rec.ctx, rec.phase);
        rec.out.metrics.push(line);
    });
}

/// Add `n` to a named per-phase counter (flushed on phase change).
pub fn count(name: &'static str, n: u64) {
    with_recorder(|rec| {
        *rec.counters.entry(name).or_insert(0) += n;
    });
}

/// Record `key` into a named distinct-key counter; the flushed value is
/// the number of *distinct* keys seen in the phase. The what-if
/// instrumentation uses this to expose the memoizable repeat rate of
/// cost lookups per cell — a per-cell, scheduling-independent stand-in
/// for the process-global cache hit rate.
pub fn count_unique(name: &'static str, key: u128) {
    with_recorder(|rec| {
        rec.uniques.entry(name).or_default().insert(key);
    });
}

/// A wall-clock span guard: created by [`timer`], records a `timing`
/// event with elapsed nanoseconds to the metrics channel on drop.
#[must_use = "a Timer measures until it is dropped"]
pub struct Timer {
    armed: Option<(&'static str, Instant)>,
}

/// Start a wall-clock span. Returns a disarmed guard (zero cost on drop)
/// when nothing is recording on this thread.
pub fn timer(name: &'static str) -> Timer {
    Timer {
        armed: is_recording().then(|| (name, Instant::now())),
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            metric(
                Event::new("timing")
                    .field("name", name)
                    .field("nanos", nanos),
            );
        }
    }
}

/// Run `f` with a recorder installed on this thread and return its
/// result plus the buffered [`CellTrace`].
///
/// `active == false` skips installation entirely (the no-sink path); `f`
/// still runs and the returned trace is empty. If this thread is already
/// recording (nested call), `f` runs under the *outer* recorder so its
/// events are attributed to the enclosing cell.
pub fn record_cell<T>(active: bool, ctx: CellCtx, f: impl FnOnce() -> T) -> (T, CellTrace) {
    if !active || RECORDER.with(|r| r.borrow().is_some()) {
        return (f(), CellTrace::default());
    }
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            RECORDER.with(|r| *r.borrow_mut() = None);
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(ctx)));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let guard = Guard;
    let value = f();
    let trace = RECORDER.with(|r| {
        let mut rec = r.borrow_mut().take().expect("recorder installed above");
        rec.flush_counters();
        rec.out
    });
    // The guard's cleanup is now a no-op for the slot (already taken)
    // but still decrements ACTIVE exactly once, panic or not.
    drop(guard);
    (value, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cell() -> CellTrace {
        let ((), trace) = record_cell(true, CellCtx::new(7).field("run", 0u64), || {
            phase("probe");
            count("whatif_lookups", 2);
            count_unique("whatif_distinct", 1);
            count_unique("whatif_distinct", 1);
            count_unique("whatif_distinct", 9);
            emit(Event::new("probe_epoch").field("epoch", 1u64));
            phase("measure");
            count("whatif_lookups", 5);
            let _t = timer("stage");
            metric(Event::new("note").field("k", 1u64));
        });
        trace
    }

    #[test]
    fn records_phases_counters_and_events_in_order() {
        let t = demo_cell();
        for l in &t.trace {
            let keys = crate::json::top_level_keys(l).expect("valid JSON");
            assert_eq!(&keys[..4], &["event", "cell_seed", "run", "phase"]);
        }
        // Order: probe phase_start, probe_epoch, probe counters (flushed
        // when "measure" starts), measure phase_start, then the
        // end-of-cell flush of measure counters.
        assert!(t.trace[0].contains("\"event\":\"phase_start\"") && t.trace[0].contains("probe"));
        assert!(t.trace[1].contains("probe_epoch"));
        assert!(
            t.trace[2].contains("\"name\":\"whatif_lookups\"")
                && t.trace[2].contains("\"value\":2")
        );
        assert!(
            t.trace[3].contains("\"name\":\"whatif_distinct\"")
                && t.trace[3].contains("\"value\":2")
                && t.trace[3].contains("\"distinct\":true")
        );
        assert!(t.trace[4].contains("\"event\":\"phase_start\"") && t.trace[4].contains("measure"));
        assert!(
            t.trace[5].contains("\"name\":\"whatif_lookups\"")
                && t.trace[5].contains("\"value\":5")
        );
        assert_eq!(t.trace.len(), 6);
        // Metrics channel: the explicit metric plus the timer.
        assert_eq!(t.metrics.len(), 2);
        assert!(t.metrics[0].contains("\"event\":\"note\""));
        assert!(t.metrics[1].contains("\"event\":\"timing\"") && t.metrics[1].contains("nanos"));
    }

    #[test]
    fn trace_channel_is_reproducible() {
        let a = demo_cell();
        let b = demo_cell();
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn inactive_recording_is_empty_and_cheap() {
        let (v, trace) = record_cell(false, CellCtx::new(1), || {
            phase("probe");
            count("c", 10);
            emit(Event::new("e"));
            let _t = timer("t");
            42
        });
        assert_eq!(v, 42);
        assert!(trace.trace.is_empty());
        assert!(trace.metrics.is_empty());
        assert!(!is_recording());
    }

    #[test]
    fn instrumentation_outside_any_cell_is_a_no_op() {
        phase("probe");
        count("c", 1);
        emit(Event::new("e"));
        assert!(!is_recording());
        // And a subsequent real cell is unaffected by the calls above.
        let ((), t) = record_cell(true, CellCtx::new(2), || emit(Event::new("only")));
        assert_eq!(t.trace.len(), 1);
        assert!(t.trace[0].contains("\"event\":\"only\""));
        assert!(t.trace[0].contains("\"phase\":\"setup\""));
    }

    #[test]
    fn nested_record_cell_attributes_to_the_outer_cell() {
        let ((), outer) = record_cell(true, CellCtx::new(3), || {
            emit(Event::new("outer"));
            let ((), inner) = record_cell(true, CellCtx::new(4), || emit(Event::new("inner")));
            assert!(inner.trace.is_empty());
        });
        assert_eq!(outer.trace.len(), 2);
        assert!(outer.trace[1].contains("\"event\":\"inner\""));
        assert!(outer.trace[1].contains("\"cell_seed\":3"));
    }

    #[test]
    fn panic_in_cell_uninstalls_the_recorder() {
        let result = std::panic::catch_unwind(|| {
            record_cell(true, CellCtx::new(5), || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!is_recording());
        // ACTIVE was decremented: instrumentation is back to no-op.
        count("after_panic", 1);
        let ((), t) = record_cell(true, CellCtx::new(6), || {});
        assert!(t.trace.is_empty());
    }
}
