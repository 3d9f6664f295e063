//! Scale-hardening properties: a byte budget on the benefit matrix is
//! invisible to cost bits and bounds what the matrix stores, traffic
//! generation is a pure function of its seed, and the whole traffic
//! layer is `--jobs`-independent.
//!
//! These pin the contracts the `scale` bench relies on:
//!
//! * a byte-budgeted benefit matrix (ANY budget, including the
//!   degenerate 0 and one cell) returns f64-bit-identical costs to the
//!   unbudgeted matrix — compaction is presence-only;
//! * one backend kept across many traffic windows under a budget stays
//!   within it, cells and query shapes alike;
//! * `TrafficModel` window pools, samples, and aggregated workloads are
//!   byte-identical across rebuilds from the same seed, and differ
//!   across seeds;
//! * sampling traffic windows under `par_map` with `--jobs 1/4/8`
//!   serializes byte-identically.

use pipa::core::runner::par_map;
use pipa::core::traffic::sampled_window_workload;
use pipa::cost::SimBackend;
use pipa::sim::{Database, Index, IndexConfig, MatrixStats};
use pipa::workload::{Arrivals, Benchmark, Diurnal, Popularity, TrafficModel, WorkloadGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn generator() -> WorkloadGenerator {
    WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    )
}

/// Bytes the matrix charges one cell (its key, cost and bucket share).
const CELL_BYTES: usize = 48;

/// The least the matrix charges one query shape; join shapes also pay
/// for their plan.
const MIN_SHAPE_BYTES: usize = 64;

/// Single-column indexes on the first six candidate columns of the
/// window-0 pool: a non-empty config, so the stream stores cells.
fn pool_config(traffic: &pipa::workload::WindowTraffic) -> IndexConfig {
    let w = pipa::sim::Workload::from_queries(
        (0..traffic.distinct_queries()).map(|i| (traffic.query(i).clone(), 1)),
    );
    IndexConfig::from_indexes(w.candidate_columns().into_iter().take(6).map(Index::single))
}

/// Cost every pool query under a matrix `byte_budget`, returning the raw
/// bit patterns (order-sensitive; two passes so the second pass replays
/// hits against survivors) and the matrix counters.
fn costs_at_budget(byte_budget: usize, seed: u64) -> (Vec<u64>, MatrixStats) {
    let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let db = cost.database();
    db.set_whatif_matrix_byte_budget(byte_budget);
    let model = TrafficModel::zipf(1.2, 4);
    let traffic = model
        .window_traffic(&generator(), 0, seed)
        .expect("pool instantiates");
    let cfg = pool_config(&traffic);
    let mut bits = Vec::new();
    for _pass in 0..2 {
        for i in 0..traffic.distinct_queries() {
            bits.push(db.estimated_query_cost(traffic.query(i), &cfg).to_bits());
        }
    }
    (bits, db.whatif_matrix_stats())
}

/// Stream `n` draws of window `w`'s traffic through `db` under `cfg`,
/// returning each cost's bits.
fn stream_window(
    db: &Database,
    model: &TrafficModel,
    cfg: &IndexConfig,
    w: u64,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    let traffic = model.window_traffic(&generator(), w, seed).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ w);
    (0..n)
        .map(|_| {
            let q = traffic.query(traffic.sample(&mut rng));
            db.estimated_query_cost(q, cfg).to_bits()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ANY byte budget — 0 (store nothing), one cell, small, above the
    /// stream's footprint — yields the same cost bits as the unbudgeted
    /// matrix on the same query stream.
    #[test]
    fn any_capacity_is_bit_identical_to_unbounded(
        budget_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        let (unbounded, full) = costs_at_budget(usize::MAX, seed);
        prop_assert!(full.entries + full.nl_entries > 0, "the config stored no cell");
        // Degenerate budgets (0: store nothing; one cell) are in the
        // table, not left to sampling luck.
        let budget = [
            0,
            CELL_BYTES,
            3 * CELL_BYTES,
            full.peak_bytes / 8,
            full.peak_bytes / 2,
            2 * full.peak_bytes,
        ][budget_idx];
        let (bounded, stats) = costs_at_budget(budget, seed);
        prop_assert_eq!(bounded, unbounded);
        prop_assert!(stats.approx_bytes <= budget, "{} B over {budget}", stats.approx_bytes);
    }

    /// One backend kept across ≥ 8 traffic windows under a byte budget:
    /// after every window the matrix is within its budget, its resident
    /// shapes are bounded by it, and every cost equals an unbudgeted
    /// backend's bits.
    #[test]
    fn budgeted_backend_stays_bounded_across_windows(
        budget in 2_000usize..40_000,
        seed in 0u64..1000,
    ) {
        let budgeted = SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let reference = SimBackend::new(Benchmark::TpcH.database(1.0, None));
        budgeted.database().set_whatif_matrix_byte_budget(budget);
        let mut model = TrafficModel::zipf(1.1, 6);
        model.diurnal = Diurnal::business();
        let cfg = pool_config(&model.window_traffic(&generator(), 0, seed).unwrap());
        for w in 0..10 {
            let got = stream_window(budgeted.database(), &model, &cfg, w, 300, seed);
            let want = stream_window(reference.database(), &model, &cfg, w, 300, seed);
            prop_assert_eq!(got, want, "window {}", w);
            let s = budgeted.database().whatif_matrix_stats();
            prop_assert!(s.approx_bytes <= budget, "window {w}: {} B over {budget}", s.approx_bytes);
            prop_assert!(
                s.shapes * MIN_SHAPE_BYTES <= budget,
                "window {w}: {} shapes resident under {budget} B",
                s.shapes
            );
        }
        // The budget did bind: the unbudgeted backend outgrew it.
        let s = budgeted.database().whatif_matrix_stats();
        let full = reference.database().whatif_matrix_stats();
        prop_assert!(s.compactions > 0 && full.approx_bytes > budget);
        prop_assert!(s.shapes < full.shapes);
    }

    /// The traffic layer is a pure function of `(model, window, seed)`:
    /// the sampled, frequency-aggregated workload serializes
    /// byte-identically across rebuilds and differs across seeds.
    #[test]
    fn window_sampling_is_seed_stable(seed in 0u64..10_000, window in 0u64..48) {
        let gen = generator();
        let model = TrafficModel::zipf(1.1, 3);
        let (a, load_a) = sampled_window_workload(&model, &gen, window, 200, seed).unwrap();
        let (b, load_b) = sampled_window_workload(&model, &gen, window, 200, seed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(load_a, load_b);
        let (c, _) = sampled_window_workload(&model, &gen, window, 200, seed ^ 0xdead_beef).unwrap();
        prop_assert_ne!(&a, &c);
    }
}

/// Zipf/diurnal/bursty generators produce byte-identical pools across
/// repeated construction — the contract the bench's unbounded replay
/// leg depends on.
#[test]
fn traffic_pools_rebuild_byte_identically() {
    let gen = generator();
    let mut model = TrafficModel::zipf(1.3, 5);
    model.diurnal = Diurnal::business();
    model.arrivals = Arrivals::Bursty {
        tenants: 4,
        burst_every: 6,
        burst_len: 2,
        burst_mult: 2.5,
    };
    for window in [0u64, 7, 23] {
        let a = model.window_traffic(&gen, window, 42).unwrap();
        let b = model.window_traffic(&gen, window, 42).unwrap();
        assert_eq!(a.distinct_queries(), b.distinct_queries());
        for i in 0..a.distinct_queries() {
            assert_eq!(a.query(i), b.query(i), "pool slot {i} diverged");
        }
        // And the draw sequence on top of the pool is seed-stable too.
        let mut ra = ChaCha8Rng::seed_from_u64(9);
        let mut rb = ChaCha8Rng::seed_from_u64(9);
        let da: Vec<usize> = (0..500).map(|_| a.sample(&mut ra)).collect();
        let db: Vec<usize> = (0..500).map(|_| b.sample(&mut rb)).collect();
        assert_eq!(da, db);
    }
}

/// Sampling a day of traffic windows through `par_map` is byte-identical
/// for `--jobs` 1, 4, and 8: parallelism must leave no trace.
#[test]
fn traffic_windows_are_jobs_independent() {
    let run = |jobs: usize| -> Vec<String> {
        let gen = generator();
        let mut model = TrafficModel::zipf(1.1, 4);
        model.diurnal = Diurnal::business();
        par_map(jobs, (0u64..12).collect(), |_, w| {
            let (workload, load) = sampled_window_workload(&model, &gen, w, 300, 7).unwrap();
            let queries: Vec<String> = workload
                .iter()
                .map(|wq| format!("{}x{:?}", wq.frequency, wq.query))
                .collect();
            format!("w{w} load{load} {}", queries.join("|"))
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "jobs=4 diverged from jobs=1");
    assert_eq!(serial, run(8), "jobs=8 diverged from jobs=1");
}

/// The Zipf head concentrates draws: under a byte-budgeted matrix the
/// hot cells stay resident, which is the entire premise of the bench's
/// hit-rate comparison. Pin the direction at unit scale.
#[test]
fn zipf_beats_uniform_hit_rate_at_equal_capacity() {
    let hit_rate = |pop: Popularity| -> f64 {
        let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let db = cost.database();
        db.set_whatif_matrix_byte_budget(4096);
        let mut model = TrafficModel::uniform(8);
        model.popularity = pop;
        let traffic = model.window_traffic(&generator(), 0, 3).unwrap();
        let cfg = pool_config(&traffic);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..4000 {
            db.estimated_query_cost(traffic.query(traffic.sample(&mut rng)), &cfg);
        }
        let s = db.whatif_matrix_stats();
        assert!(s.compactions > 0, "the budget never bound");
        s.hit_rate()
    };
    let zipf = hit_rate(Popularity::Zipf { exponent: 1.2 });
    let uniform = hit_rate(Popularity::Uniform);
    assert!(
        zipf > uniform,
        "skew must raise the bounded hit rate: zipf {zipf:.3} vs uniform {uniform:.3}"
    );
}
