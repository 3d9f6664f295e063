//! Differential suite for the [`CostBackend`] seam (proptest).
//!
//! Two families of guarantees:
//!
//! 1. **Trait ≡ direct**: every cost answered through the object-safe
//!    seam (`query_cost`, `workload_cost`, `batch_workload_cost`,
//!    `delta_workload_cost`, the incremental sessions) must be
//!    **bit-identical** (`f64::to_bits`) to calling the underlying
//!    [`Database`] directly — on proptest-generated TPC-H workloads and
//!    on every default template of both benchmarks, through the
//!    simulator and through a record-then-replay pair, and on the empty
//!    workload. Dynamic dispatch may cost cycles, never ulps.
//!
//! 2. **Record ≡ replay**: a [`RecordingBackend`] tape captured at
//!    `--jobs 1` must equal (PartialEq *and* byte-identical JSONL) the
//!    tape captured at `--jobs N`, and a [`ReplayBackend`] built from
//!    that tape must reproduce the full stress-test grid bit-for-bit
//!    with no simulator behind it.

use pipa::core::experiment::{build_db, run_grid, CellConfig, GridSpec, InjectorKind};
use pipa::core::harness::StressOutcome;
use pipa::core::GridCell;
use pipa::cost::{CostBackend, CostError, RecordingBackend, ReplayBackend, SimBackend, Tape};
use pipa::ia::{AdvisorSpec, AutoAdminGreedy, IndexAdvisor, SpeedPreset};
use pipa::sim::{
    Aggregate, ColumnId, ConfigDelta, Database, Index, IndexConfig, Predicate, QueryBuilder,
    Workload,
};
use pipa::workload::Benchmark;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A scalar-reference database: matrix off, so every direct call walks
/// the full analytical model from scratch, uncached.
fn scalar_reference(bench: Benchmark) -> Database {
    let db = bench.database(1.0, None);
    db.set_whatif_matrix_enabled(false);
    db
}

fn mk_pred(col: ColumnId, kind: u8, a: f64, b: f64) -> Predicate {
    match kind {
        0 => Predicate::eq(col, a),
        1 => Predicate::le(col, a),
        2 => Predicate::ge(col, a),
        _ => Predicate::between(col, a.min(b), a.max(b)),
    }
}

/// Single-table query snapped onto the anchor column's table.
fn build_query(db: &Database, anchor: u32, preds: &[(u32, u8, f64, f64)]) -> pipa::sim::Query {
    let schema = db.schema();
    let table = schema
        .column(ColumnId(anchor % schema.num_columns() as u32))
        .table;
    let cols: Vec<ColumnId> = (0..schema.num_columns() as u32)
        .map(ColumnId)
        .filter(|&c| schema.column(c).table == table)
        .collect();
    let mut b = QueryBuilder::new();
    for &(c, kind, x, y) in preds {
        let col = cols[c as usize % cols.len()];
        b = b.filter(schema, mk_pred(col, kind, x, y));
    }
    b.aggregate(Aggregate::CountStar).build(schema).unwrap()
}

fn assert_bits(label: &str, direct: f64, via_trait: f64) {
    assert_eq!(
        direct.to_bits(),
        via_trait.to_bits(),
        "{label}: direct {direct} != trait {via_trait}"
    );
}

/// Batch, delta and an add-only session over `w`, one index column per
/// entry of `adds`, each checked against the scalar reference.
fn assert_batch_delta_and_sessions(
    backend: &str,
    cost: &dyn CostBackend,
    reference: &Database,
    w: &Workload,
    adds: &[u32],
) {
    let configs: Vec<IndexConfig> = adds
        .iter()
        .map(|&c| IndexConfig::from_indexes([Index::single(ColumnId(c % 61))]))
        .collect();
    let batch = cost.batch_workload_cost(w, &configs).unwrap();
    for (i, cfg) in configs.iter().enumerate() {
        assert_bits(
            &format!("{backend} batch"),
            reference.estimated_workload_cost(w, cfg),
            batch[i],
        );
    }

    let mut cfg = IndexConfig::empty();
    let mut session = cost.session_begin(w).unwrap();
    assert_bits(
        &format!("{backend} session begin"),
        reference.estimated_workload_cost(w, &cfg),
        cost.session_total(w, &session).unwrap(),
    );
    for &c in adds {
        let idx = Index::single(ColumnId(c % 61));
        let delta = ConfigDelta::Add(idx.clone());
        let after = delta.apply(&cfg);
        let scalar = reference.estimated_workload_cost(w, &after);
        assert_bits(
            &format!("{backend} delta"),
            scalar,
            cost.delta_workload_cost(w, &cfg, &delta).unwrap(),
        );
        if !cfg.indexes().contains(&idx) {
            assert_bits(
                &format!("{backend} session preview"),
                scalar,
                cost.session_preview_add(w, &session, &after, &idx).unwrap(),
            );
            assert_bits(
                &format!("{backend} session add"),
                scalar,
                cost.session_add(w, &mut session, &after, &idx).unwrap(),
            );
        }
        cfg = after;
    }
}

// ---- trait ≡ direct -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scalar and workload costs through `&dyn CostBackend` are
    /// bit-identical to the `Database` methods they route to.
    #[test]
    fn trait_scalar_and_workload_costs_match_direct_bitwise(
        anchor in 0u32..61,
        preds in proptest::collection::vec((0u32..61, 0u8..4, 0.0f64..1.0, 0.0f64..1.0), 1..3),
        idx_cols in proptest::collection::vec(0u32..61, 1..4),
        freq in 1u32..5,
    ) {
        let reference = scalar_reference(Benchmark::TpcH);
        let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let dyn_cost: &dyn CostBackend = &cost;
        let q = build_query(&reference, anchor, &preds);
        let w = Workload::from_queries([(q.clone(), freq)]);
        let cfg: IndexConfig = idx_cols
            .iter()
            .map(|&c| Index::single(ColumnId(c % 61)))
            .collect();

        assert_bits(
            "query_cost",
            reference.estimated_query_cost(&q, &cfg),
            dyn_cost.query_cost(&q, &cfg).unwrap(),
        );
        assert_bits(
            "workload_cost",
            reference.estimated_workload_cost(&w, &cfg),
            dyn_cost.workload_cost(&w, &cfg).unwrap(),
        );
    }

    /// Batch, delta and session evaluation through the trait are
    /// bit-identical to a scalar full recompute: on the simulator, on a
    /// recording over it, and on a replay of that recording's tape.
    #[test]
    fn trait_batch_delta_and_sessions_match_direct_bitwise(
        anchor in 0u32..61,
        preds in proptest::collection::vec((0u32..61, 0u8..4, 0.0f64..1.0, 0.0f64..1.0), 1..3),
        adds in proptest::collection::vec(0u32..61, 1..4),
    ) {
        let reference = scalar_reference(Benchmark::TpcH);
        let sim = SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let q = build_query(&reference, anchor, &preds);
        let w = Workload::from_queries([(q, 2)]);
        assert_batch_delta_and_sessions("sim", &sim, &reference, &w, &adds);

        let rec = RecordingBackend::new(&sim);
        assert_batch_delta_and_sessions("record", &rec, &reference, &w, &adds);
        let replay = ReplayBackend::new(sim.catalog(), rec.tape());
        assert_batch_delta_and_sessions("replay", &replay, &reference, &w, &adds);

        // The simulator's sessions are its own: a replay session is not.
        let foreign = replay.session_begin(&w).unwrap();
        assert!(matches!(
            sim.session_total(&w, &foreign),
            Err(CostError::SessionMismatch { backend: "sim" })
        ));
    }
}

/// The empty workload costs the same bits on the simulator, a recording
/// over it and a replay of the tape: estimated, as a session total and
/// executed. Every composite sum starts from `-0.0`, as `Iterator::sum`
/// does, so all of them are `-0.0`.
#[test]
fn empty_workload_costs_the_same_bits_on_every_backend() {
    let sim = SimBackend::new(Benchmark::TpcH.database(1.0, Some((1, 2_000))));
    assert!(sim.supports_execution());
    let w = Workload::default();
    let cfg = IndexConfig::empty();
    let costs = |cost: &dyn CostBackend| -> [f64; 3] {
        let session = cost.session_begin(&w).unwrap();
        [
            cost.workload_cost(&w, &cfg).unwrap(),
            cost.session_total(&w, &session).unwrap(),
            cost.executed_workload_cost(&w, &cfg).unwrap(),
        ]
    };
    let direct = costs(&sim);
    let rec = RecordingBackend::new(&sim);
    let recorded = costs(&rec);
    let replayed = costs(&ReplayBackend::new(sim.catalog(), rec.tape()));
    for (i, what) in ["estimate", "session total", "executed"].iter().enumerate() {
        assert_bits(&format!("sim {what}"), -0.0, direct[i]);
        assert_bits(&format!("record {what}"), direct[i], recorded[i]);
        assert_bits(&format!("replay {what}"), direct[i], replayed[i]);
    }
}

/// Every default template of both benchmarks: the trait answers the same
/// bits as the direct estimated path, estimated *and* executed.
#[test]
fn all_templates_of_both_benchmarks_match_direct_through_the_trait() {
    for bench in [Benchmark::TpcH, Benchmark::TpcDs] {
        let cost = SimBackend::new(bench.database(1.0, None));
        let dyn_cost: &dyn CostBackend = &cost;
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        let mut w = Workload::new();
        for t in bench.default_templates() {
            w.push(
                t.instantiate(cost.database().schema(), &mut rng).unwrap(),
                2,
            );
        }
        let configs: Vec<IndexConfig> = w
            .candidate_columns()
            .into_iter()
            .take(8)
            .map(|c| IndexConfig::from_indexes([Index::single(c)]))
            .collect();
        for cfg in &configs {
            assert_bits(
                "template workload",
                cost.database().estimated_workload_cost(&w, cfg),
                dyn_cost.workload_cost(&w, cfg).unwrap(),
            );
            for wq in w.iter() {
                assert_bits(
                    "template query",
                    cost.database().estimated_query_cost(&wq.query, cfg),
                    dyn_cost.query_cost(&wq.query, cfg).unwrap(),
                );
                assert_bits(
                    "template executed",
                    cost.database().actual_query_cost(&wq.query, cfg).unwrap(),
                    dyn_cost.executed_query_cost(&wq.query, cfg).unwrap(),
                );
            }
        }
    }
}

// ---- record ≡ replay ------------------------------------------------------

fn replay_grid_cfg() -> (CellConfig, GridSpec) {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 6;
    let spec = GridSpec {
        advisors: vec![AdvisorSpec::new("dbabandit")],
        injectors: vec![InjectorKind::Pipa, InjectorKind::Fsm],
        runs: 1,
        root_seed: 77,
    };
    (cfg, spec)
}

fn record_grid(jobs: usize) -> (Tape, Vec<(GridCell, StressOutcome)>) {
    let (cfg, spec) = replay_grid_cfg();
    let sim = build_db(&cfg);
    let rec = RecordingBackend::new(&sim);
    let out = run_grid(&rec, &cfg, &spec, jobs).expect("recorded grid");
    (rec.tape(), out)
}

fn assert_outcomes_bit_identical(
    label: &str,
    a: &[(GridCell, StressOutcome)],
    b: &[(GridCell, StressOutcome)],
) {
    assert_eq!(a.len(), b.len(), "{label}: cell count");
    for ((ca, oa), (cb, ob)) in a.iter().zip(b) {
        assert_eq!(ca.seed.get(), cb.seed.get(), "{label}: cell order");
        assert_eq!(oa.advisor, ob.advisor, "{label}");
        assert_eq!(oa.injector, ob.injector, "{label}");
        assert_eq!(
            oa.baseline_cost.to_bits(),
            ob.baseline_cost.to_bits(),
            "{label}: baseline_cost {} vs {}",
            oa.baseline_cost,
            ob.baseline_cost
        );
        assert_eq!(
            oa.poisoned_cost.to_bits(),
            ob.poisoned_cost.to_bits(),
            "{label}: poisoned_cost {} vs {}",
            oa.poisoned_cost,
            ob.poisoned_cost
        );
        assert_eq!(oa.ad.to_bits(), ob.ad.to_bits(), "{label}: ad");
        assert_eq!(oa.toxic, ob.toxic, "{label}: toxicity verdict");
        assert_eq!(oa.baseline_indexes, ob.baseline_indexes, "{label}");
        assert_eq!(oa.poisoned_indexes, ob.poisoned_indexes, "{label}");
    }
}

/// The tape is independent of worker parallelism: recording the same
/// grid at `--jobs 1` and `--jobs 4` produces equal tapes, byte-identical
/// JSONL, and bit-identical outcomes.
#[test]
fn recorded_tapes_agree_across_jobs_1_and_n() {
    let (tape_seq, out_seq) = record_grid(1);
    let (tape_par, out_par) = record_grid(4);
    assert!(!tape_seq.is_empty(), "grid must record cost traffic");
    assert_eq!(tape_seq, tape_par, "tapes diverge across --jobs");
    assert_eq!(
        tape_seq.to_jsonl(),
        tape_par.to_jsonl(),
        "tape JSONL must be byte-identical across --jobs"
    );
    assert_outcomes_bit_identical("jobs 1 vs 4", &out_seq, &out_par);
}

/// A replayed grid — the same spec run against a [`ReplayBackend`] with
/// no simulator behind it — reproduces every outcome bit-for-bit, and
/// the tape round-trips through its JSONL wire format first.
#[test]
fn replayed_grid_is_bit_identical_to_the_recorded_run() {
    let (cfg, spec) = replay_grid_cfg();
    let sim = build_db(&cfg);
    let rec = RecordingBackend::new(&sim);
    let recorded = run_grid(&rec, &cfg, &spec, 2).expect("recorded grid");

    // Serialize → parse: the replay runs from the wire format, as a
    // CI replay-smoke run would.
    let tape = Tape::from_jsonl(&rec.tape().to_jsonl()).expect("tape round-trip");
    let replay = ReplayBackend::new(sim.catalog(), tape);
    let replayed = run_grid(&replay, &cfg, &spec, 2).expect("replayed grid");
    assert_outcomes_bit_identical("record vs replay", &recorded, &replayed);
}

/// Greedy recommendation through a replay tape: same config, same costs,
/// answered without the simulator.
#[test]
fn greedy_recommendation_replays_from_tape() {
    let sim = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g.normal(&mut ChaCha8Rng::seed_from_u64(9)).unwrap();

    let rec = RecordingBackend::new(&sim);
    let live_cfg = AutoAdminGreedy::new(4).recommend(&rec, &w).unwrap();
    let live_cost = rec.workload_cost(&w, &live_cfg).unwrap();

    let replay = ReplayBackend::new(sim.catalog(), rec.tape());
    let replay_cfg = AutoAdminGreedy::new(4).recommend(&replay, &w).unwrap();
    assert_eq!(live_cfg, replay_cfg, "replayed greedy picked other indexes");
    assert_bits(
        "replayed workload cost",
        live_cost,
        replay.workload_cost(&w, &live_cfg).unwrap(),
    );

    // A config the tape never saw is a hard miss, not a fabricated cost —
    // and the error names the offending query/config in human terms, not
    // just fingerprints.
    let unseen: IndexConfig = cost_unseen_config(&sim);
    let miss = replay.workload_cost(&w, &unseen).unwrap_err();
    assert!(matches!(miss, pipa::cost::CostError::ReplayMiss { .. }));
    let msg = miss.to_string();
    assert!(msg.contains("select"), "miss must render the SQL: {msg}");
    let first_index = unseen.indexes()[0].name(sim.catalog().schema);
    assert!(
        msg.contains(&first_index),
        "miss must name the config's indexes ({first_index}): {msg}"
    );
    assert!(
        msg.contains("tape holds"),
        "miss must report the searched tape size: {msg}"
    );
}

/// A config of every indexable column — far larger than anything the
/// budget-4 greedy run ever evaluated.
fn cost_unseen_config(sim: &SimBackend) -> IndexConfig {
    sim.database()
        .schema()
        .indexable_columns()
        .into_iter()
        .map(Index::single)
        .collect()
}
