//! The traced run's span recorder.
//!
//! A span covers one call across a layer boundary. It records its name,
//! start, end, the span it nests in, the unit it belongs to (units the
//! benchmark runs itself) and the thread it ran on (fleet sessions, which
//! the program schedules internally). Spans stay in memory until the run
//! takes them, and self times are derived from the parent links:
//! a span's self time is its duration minus its children's durations.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub unit: Option<u32>,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const NO_UNIT: u32 = u32::MAX;

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static UNIT: AtomicU32 = AtomicU32::new(NO_UNIT);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tag the spans recorded from now on with `unit` (`None` for spans
/// whose unit the benchmark cannot see, such as fleet sessions).
pub fn set_unit(unit: Option<u32>) {
    UNIT.store(unit.unwrap_or(NO_UNIT), Ordering::Relaxed);
}

/// An open span; dropping it (also during unwinding) records it.
struct Open {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    start_ns: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let unit = UNIT.load(Ordering::Relaxed);
        let span = Span {
            id: self.id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            parent: self.parent,
            unit: (unit != NO_UNIT).then_some(unit),
            thread: current_thread(),
        };
        // A poisoned lock only means another thread panicked mid-push of
        // a plain value; the vector itself is intact.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let _open = Open {
        id,
        name,
        parent,
        start_ns: now_ns(),
    };
    f()
}

/// This thread's recorder id (the `thread` field of its spans).
pub fn current_thread() -> u32 {
    THREAD.with(|t| *t)
}

/// Serializes the tests that record and take spans: the store is global.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of each span, in input order: its duration minus the
/// durations of the spans whose parent it is.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.duration_ns() - children.get(&s.id).copied().unwrap_or(0))
        .collect()
}

/// Calls and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub calls: u64,
    pub self_ns: u64,
}

/// Spans rolled up by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    pub by_name: BTreeMap<&'static str, NameTotal>,
    /// Inclusive time of advisor `recommend` calls made from inside an
    /// injector's `build` (the probing stage's use of the victim).
    pub probe_recommend_ns: u64,
}

impl Totals {
    pub fn get(&self, name: &str) -> NameTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over every name that starts with `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Self time of every span except the unit roots.
    pub fn attributed_ns(&self) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| **name != UNIT_SPAN)
            .map(|(_, t)| t.self_ns)
            .sum()
    }
}

/// Name of the root span around one traced unit.
pub const UNIT_SPAN: &str = "unit";
/// Name of the span around an injector's `build`.
pub const INJECT_SPAN: &str = "core.inject";
/// Name of the span around an advisor's `recommend`.
pub const RECOMMEND_SPAN: &str = "ia.recommend";

/// Roll spans up by name.
pub fn totals(spans: &[Span]) -> Totals {
    let selfs = self_times(spans);
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let inside_inject = |s: &Span| {
        let mut parent = s.parent;
        while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
            if p.name == INJECT_SPAN {
                return true;
            }
            parent = p.parent;
        }
        false
    };
    let mut out = Totals::default();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.by_name.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        if s.name == RECOMMEND_SPAN && inside_inject(s) {
            out.probe_recommend_ns += s.duration_ns();
        }
    }
    out
}

/// Write spans as tab-separated lines: id, parent, unit, thread, name,
/// start and end (ns). A missing parent or unit is written as `-`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tunit\tthread\tname\tstart_ns\tend_ns")?;
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            opt(s.parent),
            opt(s.unit.map(u64::from)),
            s.thread,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: Some(0),
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // unit [0,100) > inject [10,60) > recommend [20,50) > cost [25,35)
        //              > cost [70,80)
        let spans = [
            span_at(3, "cost.estimate", 25, 35, Some(2)),
            span_at(2, RECOMMEND_SPAN, 20, 50, Some(1)),
            span_at(1, INJECT_SPAN, 10, 60, Some(0)),
            span_at(4, "cost.estimate", 70, 80, Some(0)),
            span_at(0, UNIT_SPAN, 0, 100, None),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 20, 10, 40]);

        let t = totals(&spans);
        assert_eq!(
            t.get("cost.estimate"),
            NameTotal {
                calls: 2,
                self_ns: 20
            }
        );
        assert_eq!(t.get(INJECT_SPAN).self_ns, 20);
        assert_eq!(t.probe_recommend_ns, 30);
        // Attributed self time plus the root's own time is the wall time.
        assert_eq!(t.attributed_ns() + t.get(UNIT_SPAN).self_ns, 100);
        assert_eq!(t.self_ns_with_prefix("cost."), 20);
    }

    #[test]
    fn recorded_spans_nest_and_conserve_time() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let me = current_thread();
        span(UNIT_SPAN, || {
            span("ia.train", || {
                span("cost.session", || std::hint::black_box(1 + 1));
            });
            span("cost.estimate", || ());
        });
        let spans: Vec<Span> = take().into_iter().filter(|s| s.thread == me).collect();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == UNIT_SPAN).unwrap();
        let train = spans.iter().find(|s| s.name == "ia.train").unwrap();
        let inner = spans.iter().find(|s| s.name == "cost.session").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(train.parent, Some(root.id));
        assert_eq!(inner.parent, Some(train.id));
        assert!(root.start_ns <= train.start_ns && train.end_ns <= root.end_ns);
        let selfs: u64 = self_times(&spans).iter().sum();
        assert_eq!(selfs, root.duration_ns());
    }
}
