//! Advisor-hot-path what-if throughput: the benefit matrix versus the
//! scalar full recompute it replaced.
//!
//! Cells (each measured cold — matrix and cost cache cleared inside
//! every iteration, so no state survives from the previous sample):
//!
//! * `whatif/greedy_single_*` — AutoAdmin greedy candidate scoring over
//!   a single-table workload: the shape of PIPA's probing and injection
//!   phases (generated toxic queries are single-table by construction),
//!   and the cell where every evaluation is matrix-answerable;
//! * `whatif/greedy_mixed_*` — the same loop over a normal TPC-H
//!   template workload (~80 % join-shaped): since the join-aware
//!   decomposition, join queries are answered from per-join-step matrix
//!   cells rather than the full-model fallback, so this measures the
//!   matrix win on realistic workloads;
//! * `whatif/join_mix_{pct}_*` — a grid over the join fraction of the
//!   workload (0 %, 25 %, 50 %, 75 %, 100 % join-shaped queries): how
//!   the matrix win scales as joins displace single-table probes;
//! * `whatif/train_single_*` — DQN training (`Test` preset) on the
//!   single-table workload: every env step re-costs the workload under
//!   the episode's grown configuration.
//!
//! The `_scalar` variants disable the matrix (`set_whatif_matrix_enabled
//! (false)`), routing every evaluation through the full analytical
//! model; `_matrix` variants answer decomposable queries from the
//! per-(query, index) benefit matrix. The differential suite
//! (`tests/whatif_differential.rs`) proves both return bit-identical
//! costs, so this is a pure speed comparison.
//!
//! A custom `main` (the `[[bench]]` is `harness = false`) re-reads the
//! criterion JSON lines and writes `results/BENCH_whatif.json` with the
//! speedups and the matrix/join/delta/full-fallback counter rates.
//! `WHATIF_BENCH_SMOKE=1` shrinks every dimension and skips the
//! artifact write (CI smoke).

use criterion::Criterion;
use pipa_cost::CostBackend;
use pipa_ia::{AdvisorKind, AutoAdminGreedy, BuildCtx, IndexAdvisor, SpeedPreset, TrajectoryMode};
use pipa_sim::{Aggregate, ColumnId, Database, Index, IndexConfig, Predicate, QueryBuilder, Workload};
use pipa_workload::{Benchmark, WorkloadGenerator};
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct Medians {
    greedy_single_scalar: Option<f64>,
    greedy_single_matrix: Option<f64>,
    greedy_mixed_scalar: Option<f64>,
    greedy_mixed_matrix: Option<f64>,
    train_single_scalar: Option<f64>,
    train_single_matrix: Option<f64>,
    dispatch_direct: Option<f64>,
    dispatch_trait: Option<f64>,
}

#[derive(Serialize)]
struct MatrixCounters {
    matrix_evals: u64,
    join_evals: u64,
    full_fallbacks: u64,
    delta_evals: u64,
    matrix_rate: f64,
    fallback_rate: f64,
    entries: usize,
    nl_entries: usize,
}

/// One cell of the join-mix grid: greedy scoring over a workload whose
/// join-shaped fraction is controlled, scalar vs matrix.
#[derive(Serialize)]
struct JoinMixCell {
    /// Fraction of the workload's queries that are join-shaped.
    join_fraction: f64,
    scalar_ns: Option<f64>,
    matrix_ns: Option<f64>,
    speedup: Option<f64>,
    /// Counters observed during the matrix variant of this cell.
    counters: MatrixCounters,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    single_workload_queries: usize,
    mixed_workload_queries: usize,
    greedy_budget: usize,
    median_ns: Medians,
    greedy_single_speedup: Option<f64>,
    greedy_mixed_speedup: Option<f64>,
    train_single_speedup: Option<f64>,
    /// `dispatch_trait / dispatch_direct`: the cost of routing every
    /// what-if through `&dyn CostBackend` instead of calling the
    /// simulator directly. The boundary-lint budget allows ≤ 1.05.
    trait_dispatch_overhead: Option<f64>,
    matrix_single: MatrixCounters,
    matrix_mixed: MatrixCounters,
    /// Matrix win as a function of the workload's join fraction.
    join_mix: Vec<JoinMixCell>,
}

/// A single-table workload in the image of PIPA's probing/injection
/// phases: range/point predicates spread over many indexable columns,
/// so greedy scoring has a wide candidate set.
fn single_table_workload(db: &Database, n: usize) -> Workload {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let ncols = db.schema().num_columns() as u32;
    let mut w = Workload::new();
    for i in 0..n {
        let anchor = ColumnId((i as u32 * 7) % ncols);
        let table = db.schema().column(anchor).table;
        let cols: Vec<ColumnId> = (0..ncols)
            .map(ColumnId)
            .filter(|&c| db.schema().column(c).table == table)
            .collect();
        let mut b = QueryBuilder::new();
        for _ in 0..rng.gen_range(1..=2usize) {
            let col = cols[rng.gen_range(0..cols.len())];
            let lo: f64 = rng.gen_range(0.0..0.6);
            b = b.filter(db.schema(), Predicate::between(col, lo, lo + 0.3));
        }
        let q = b
            .aggregate(Aggregate::CountStar)
            .build(db.schema())
            .unwrap();
        w.push(q, rng.gen_range(1..=5));
    }
    w
}

/// A workload of `n` queries where `frac` of them are join-shaped
/// (instantiated from the benchmark's join templates, cycled) and the
/// rest are single-table probes in the shape of
/// [`single_table_workload`].
fn join_mix_workload(
    db: &Database,
    g: &WorkloadGenerator,
    frac: f64,
    n: usize,
) -> Workload {
    let join_templates: Vec<_> = g
        .templates()
        .iter()
        .filter(|t| !t.joins.is_empty())
        .collect();
    let n_join = (frac * n as f64).round() as usize;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29 + (frac * 100.0) as u64);
    let mut w = Workload::new();
    for wq in single_table_workload(db, n - n_join).iter() {
        w.push(wq.query.clone(), wq.frequency);
    }
    for i in 0..n_join {
        let q = join_templates[i % join_templates.len()]
            .instantiate(db.schema(), &mut rng)
            .expect("join template instantiates");
        w.push(q, rng.gen_range(1..=5));
    }
    w
}

fn counters(db: &Database) -> MatrixCounters {
    let stats = db.whatif_matrix_stats();
    MatrixCounters {
        matrix_evals: stats.matrix_evals,
        join_evals: stats.join_evals,
        full_fallbacks: stats.full_fallbacks,
        delta_evals: stats.delta_evals,
        matrix_rate: stats.matrix_rate(),
        fallback_rate: stats.fallback_rate(),
        entries: stats.entries,
        nl_entries: stats.nl_entries,
    }
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("whatif");
    let smoke = bench.smoke;

    let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let wl_n = if smoke { 8 } else { 24 };
    let single = single_table_workload(cost.database(), wl_n);
    let g = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let mixed = g
        .of_size(wl_n, &mut rand_chacha::ChaCha8Rng::seed_from_u64(7))
        .unwrap();
    let budget = 4;
    let mut c = bench.criterion(10);

    let bench_greedy = |c: &mut Criterion, name: &str, w: &Workload, matrix_on: bool| {
        cost.database().set_whatif_matrix_enabled(matrix_on);
        c.bench_function(name, |b| {
            b.iter(|| {
                cost.database().clear_whatif_matrix();
                cost.database().clear_whatif_cache();
                let mut adv = AutoAdminGreedy::new(budget);
                black_box(adv.recommend(&cost, w).expect("greedy recommend"))
            })
        });
    };

    // --- greedy candidate scoring, single-table (matrix-answerable) ---
    bench_greedy(&mut c, "whatif/greedy_single_scalar", &single, false);
    bench_greedy(&mut c, "whatif/greedy_single_matrix", &single, true);
    let matrix_single = counters(cost.database());

    // --- greedy candidate scoring, mixed/join-heavy (fallback-bound) --
    bench_greedy(&mut c, "whatif/greedy_mixed_scalar", &mixed, false);
    bench_greedy(&mut c, "whatif/greedy_mixed_matrix", &mixed, true);
    let matrix_mixed = counters(cost.database());

    // --- join-mix grid: matrix win vs join fraction -------------------
    let fractions: &[f64] = if smoke {
        &[0.0, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let mut join_mix_counters = Vec::new();
    for &frac in fractions {
        let w = join_mix_workload(cost.database(), &g, frac, wl_n);
        let pct = (frac * 100.0).round() as u32;
        bench_greedy(&mut c, &format!("whatif/join_mix_{pct}_scalar"), &w, false);
        bench_greedy(&mut c, &format!("whatif/join_mix_{pct}_matrix"), &w, true);
        join_mix_counters.push((frac, pct, counters(cost.database())));
    }

    // --- DQN training (env-step what-ifs), single-table ---------------
    let bench_train = |c: &mut Criterion, name: &str, matrix_on: bool| {
        cost.database().set_whatif_matrix_enabled(matrix_on);
        c.bench_function(name, |b| {
            b.iter(|| {
                cost.database().clear_whatif_matrix();
                cost.database().clear_whatif_cache();
                let mut adv = AdvisorKind::Dqn(TrajectoryMode::Best)
                    .build_with(BuildCtx::new(SpeedPreset::Test, 7));
                adv.train(&cost, &single).expect("train");
                black_box(adv.budget())
            })
        });
    };
    bench_train(&mut c, "whatif/train_single_scalar", false);
    bench_train(&mut c, "whatif/train_single_matrix", true);
    cost.database().set_whatif_matrix_enabled(true);

    // --- trait-dispatch overhead: identical scalar work, direct call vs
    // `&dyn CostBackend` virtual call. Cache and matrix stay off so each
    // evaluation pays the full analytical model — the object-safe seam
    // must disappear into that work.
    cost.database().set_whatif_matrix_enabled(false);
    cost.database().set_whatif_cache_enabled(false);
    let dispatch_cfgs: Vec<IndexConfig> = single
        .candidate_columns()
        .into_iter()
        .take(4)
        .map(|col| IndexConfig::from_indexes([Index::single(col)]))
        .collect();
    c.bench_function("whatif/dispatch_direct", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cfg in &dispatch_cfgs {
                acc += cost.database().estimated_workload_cost(&single, cfg);
            }
            black_box(acc)
        })
    });
    let dyn_cost: &dyn CostBackend = &cost;
    c.bench_function("whatif/dispatch_trait", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cfg in &dispatch_cfgs {
                acc += dyn_cost.workload_cost(&single, cfg).expect("workload cost");
            }
            black_box(acc)
        })
    });
    cost.database().set_whatif_matrix_enabled(true);
    cost.database().set_whatif_cache_enabled(true);

    let lines = bench.lines();
    let med = |id: &str| pipa_bench::cli::median_of(&lines, id);
    let ratio = pipa_bench::cli::ratio;
    let medians = Medians {
        greedy_single_scalar: med("whatif/greedy_single_scalar"),
        greedy_single_matrix: med("whatif/greedy_single_matrix"),
        greedy_mixed_scalar: med("whatif/greedy_mixed_scalar"),
        greedy_mixed_matrix: med("whatif/greedy_mixed_matrix"),
        train_single_scalar: med("whatif/train_single_scalar"),
        train_single_matrix: med("whatif/train_single_matrix"),
        dispatch_direct: med("whatif/dispatch_direct"),
        dispatch_trait: med("whatif/dispatch_trait"),
    };
    let greedy_single_speedup = ratio(medians.greedy_single_scalar, medians.greedy_single_matrix);
    let greedy_mixed_speedup = ratio(medians.greedy_mixed_scalar, medians.greedy_mixed_matrix);
    let train_single_speedup = ratio(medians.train_single_scalar, medians.train_single_matrix);
    let trait_dispatch_overhead = ratio(medians.dispatch_trait, medians.dispatch_direct);

    let join_mix: Vec<JoinMixCell> = join_mix_counters
        .into_iter()
        .map(|(frac, pct, counters)| {
            let scalar_ns = med(&format!("whatif/join_mix_{pct}_scalar"));
            let matrix_ns = med(&format!("whatif/join_mix_{pct}_matrix"));
            JoinMixCell {
                join_fraction: frac,
                scalar_ns,
                matrix_ns,
                speedup: ratio(scalar_ns, matrix_ns),
                counters,
            }
        })
        .collect();

    for (label, s) in [
        ("greedy single-table", greedy_single_speedup),
        ("greedy mixed       ", greedy_mixed_speedup),
        ("DQN train single   ", train_single_speedup),
    ] {
        if let Some(s) = s {
            println!("{label}: matrix speedup {s:.2}x");
        }
    }
    for cell in &join_mix {
        println!(
            "join mix {:>3.0}%: speedup {}, fallback rate {:.3}, {} join evals",
            cell.join_fraction * 100.0,
            cell.speedup
                .map_or("n/a".to_string(), |s| format!("{s:.2}x")),
            cell.counters.fallback_rate,
            cell.counters.join_evals,
        );
    }
    if let Some(o) = trait_dispatch_overhead {
        println!("trait dispatch overhead    : {o:.3}x (budget 1.05x)");
    }
    println!(
        "single-table counters: {} matrix evals, {} fallbacks, {} deltas (matrix rate {:.3})",
        matrix_single.matrix_evals,
        matrix_single.full_fallbacks,
        matrix_single.delta_evals,
        matrix_single.matrix_rate,
    );

    let artifact = BenchArtifact {
        id: "BENCH_whatif".to_string(),
        description: "benefit-matrix what-if vs scalar recompute on advisor hot paths \
                      (greedy candidate scoring and DQN training; cold per iteration; \
                      single-table = probing/injection shape, mixed = join-heavy TPC-H \
                      templates answered via join-aware decomposition, join_mix = win \
                      vs join fraction)"
            .to_string(),
        single_workload_queries: single.len(),
        mixed_workload_queries: mixed.len(),
        greedy_budget: budget,
        median_ns: medians,
        greedy_single_speedup,
        greedy_mixed_speedup,
        train_single_speedup,
        trait_dispatch_overhead,
        matrix_single,
        matrix_mixed,
        join_mix,
    };
    bench.write_artifact(&artifact);
}
