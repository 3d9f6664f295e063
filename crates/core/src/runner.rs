//! Deterministic parallel experiment runner.
//!
//! The experiment binaries fan independent cells (advisor × injector ×
//! seed) across worker threads with [`par_map`], a scoped-thread ordered
//! parallel map over a shared atomic work queue. Determinism is the
//! design constraint everything else serves:
//!
//! * **Results are written by input index**, so the output order never
//!   depends on thread scheduling.
//! * **Every cell derives its own RNG seed** from the experiment's root
//!   seed with [`derive_seed`] (a SplitMix64 mix, the same finalizer
//!   `rand` uses for `seed_from_u64`), so no cell reads another cell's
//!   stream and work-stealing order cannot leak into the numbers.
//! * **No shared mutable state** beyond memoization caches whose values
//!   are pure functions of their keys (see `pipa_sim::CostCache`).
//!
//! Together these guarantee `--jobs 1` and `--jobs N` produce
//! bit-identical artifacts — verified by `tests/determinism.rs` and
//! documented in `DESIGN.md` ("Determinism guarantees").

use pipa_obs::{record_cell, timer, CellCtx, TraceOutputs};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derive a per-cell seed from a root seed and a stream index.
///
/// This is SplitMix64: the root is advanced `stream + 1` steps of the
/// golden-ratio increment and the result is run through the SplitMix64
/// finalizer. Distinct streams give statistically independent seeds even
/// for adjacent roots (unlike `root + stream`, which makes run *r* of
/// seed *s* collide with run *r−1* of seed *s+1*).
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cell's RNG seed, as a newtype so call sites can't silently fall
/// back to hand-rolled `seed + i` arithmetic (which correlates adjacent
/// streams — see [`derive_seed`]).
///
/// Produced by [`CellSeed::derive`] (the grid runner's scheme) or, for
/// the rare call site that really wants a verbatim root seed,
/// [`CellSeed::raw`]. The wrapped value is what reaches workload
/// generation, the injector, and the `seed` field of result artifacts —
/// `CellSeed::derive(root, run)` yields the exact same numbers as the
/// pre-newtype `derive_seed(root, run)` plumbing, so existing golden
/// artifacts remain valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellSeed(u64);

impl CellSeed {
    /// Derive the seed for `stream` (usually the run index) from a root.
    pub fn derive(root: u64, stream: u64) -> Self {
        CellSeed(derive_seed(root, stream))
    }

    /// Wrap a verbatim seed (no derivation).
    pub fn raw(seed: u64) -> Self {
        CellSeed(seed)
    }

    /// The seed value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for CellSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<CellSeed> for u64 {
    fn from(s: CellSeed) -> u64 {
        s.0
    }
}

/// The worker count a `--jobs 0` / unspecified request resolves to:
/// `std::thread::available_parallelism()`, or 1 if unavailable.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `jobs` worker threads, returning results
/// in input order.
///
/// `jobs == 0` means [`default_jobs`]; `jobs == 1` runs inline on the
/// calling thread with no thread machinery at all. Workers claim indices
/// from a shared atomic counter (cheap dynamic load balancing — cells
/// have very different runtimes), and each result lands in its input
/// slot, so the returned vector is independent of scheduling. `f` must be
/// a pure function of `(index, item)` for the *values* to be
/// deterministic too; every experiment cell satisfies this by deriving
/// its RNG from its own seed.
///
/// Panics in `f` propagate: a panicking worker poisons nothing (each slot
/// has its own mutex and is written once), and `std::thread::scope`
/// re-raises the panic after all workers stop.
pub fn par_map<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("each index claimed once");
                let out = f(i, item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// [`par_map`] with per-cell observability: each item runs inside a
/// `pipa-obs` recording scope (context from `ctx`, which must include
/// the cell's seed identity) wrapped in a `"cell"` wall-clock span, and
/// the buffered cell traces are flushed to `out` **in input order** —
/// never in completion order. That ordering rule is what keeps the trace
/// file byte-identical across `--jobs` settings while the cells
/// themselves run on whatever thread claims them.
///
/// With no sink attached (`out.active() == false`) this is exactly
/// [`par_map`]: recording is skipped, not buffered-and-dropped.
pub fn par_map_traced<T, U, F, C>(
    jobs: usize,
    items: Vec<T>,
    out: &TraceOutputs,
    ctx: C,
    f: F,
) -> Vec<U>
where
    T: Send,
    U: Send,
    C: Fn(usize, &T) -> CellCtx + Sync,
    F: Fn(usize, T) -> U + Sync,
{
    let active = out.active();
    let results = par_map(jobs, items, |i, item| {
        let cell_ctx = ctx(i, &item);
        record_cell(active, cell_ctx, || {
            let _cell_span = timer("cell");
            f(i, item)
        })
    });
    results
        .into_iter()
        .map(|(value, trace)| {
            out.write_cell(&trace);
            value
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_obs::MemorySink;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, items.clone(), |i, x| (i as u64) * 1000 + x * x);
        let parallel = par_map(4, items, |i, x| (i as u64) * 1000 + x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 3009);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, empty, |_, x| x).is_empty());
        assert_eq!(par_map(4, vec![7], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_more_jobs_than_items() {
        let out = par_map(16, vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(default_jobs() >= 1);
        let out = par_map(0, vec![5u8, 6], |_, x| x);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        // Distinct (root, stream) pairs that would collide under
        // root + stream must not collide here.
        assert_ne!(derive_seed(10, 1), derive_seed(11, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        // And the derivation is a pure function.
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn derive_seed_matches_splitmix_reference() {
        // SplitMix64 of seed 0, first output (reference value from the
        // published algorithm): 0xE220A8397B1DCDAF.
        assert_eq!(derive_seed(0, 0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn cell_seed_preserves_the_derivation_scheme() {
        assert_eq!(CellSeed::derive(0, 0).get(), derive_seed(0, 0));
        assert_eq!(CellSeed::derive(99, 3).get(), derive_seed(99, 3));
        assert_eq!(CellSeed::raw(42).get(), 42);
        assert_eq!(u64::from(CellSeed::raw(7)), 7);
        assert_eq!(CellSeed::raw(7).to_string(), "7");
    }

    #[test]
    fn par_map_traced_flushes_in_input_order() {
        let trace = MemorySink::new();
        let out = TraceOutputs::with_sinks(Some(Box::new(trace.clone())), None);
        let results = par_map_traced(
            4,
            (0u64..8).collect(),
            &out,
            |_, &x| CellCtx::new(x),
            |_, x| {
                pipa_obs::emit(pipa_obs::Event::new("item").field("x", x));
                x * 2
            },
        );
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let lines = trace.lines();
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.contains(&format!("\"cell_seed\":{i}")),
                "line {i} out of order: {line}"
            );
        }
    }

    #[test]
    fn par_map_traced_without_sinks_matches_par_map() {
        let out = TraceOutputs::disabled();
        let a = par_map_traced(4, vec![1, 2, 3], &out, |_, _| CellCtx::new(0), |_, x| x * 3);
        assert_eq!(a, vec![3, 6, 9]);
    }
}
