//! Cross-crate integration tests: the full stress-test pipeline and the
//! paper's definitional invariants.

use pipa::core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa::core::harness::StressTest;
use pipa::core::injectors::TpInjector;
use pipa::core::metrics::absolute_degradation;
use pipa::core::CellSeed;
use pipa::ia::{AdvisorSpec, AutoAdminGreedy, BuildCtx, IndexAdvisor, SpeedPreset};
use pipa::workload::Benchmark;

fn test_cfg() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 3;
    cfg.injection_size = 8;
    cfg
}

#[test]
fn every_advisor_survives_the_full_pipeline() {
    let cfg = test_cfg();
    let db = build_db(&cfg);
    let normal = normal_workload(&cfg, 11);
    for spec in AdvisorSpec::paper_variants() {
        let label = spec.label();
        let out = run_cell(
            &db,
            &normal,
            spec,
            InjectorKind::Pipa,
            &cfg,
            CellSeed::raw(11),
        )
        .expect("stress test against the simulator backend");
        assert!(out.baseline_cost > 0.0, "{label}");
        assert!(out.poisoned_cost > 0.0, "{label}");
        assert!(!out.baseline_indexes.is_empty(), "{label}");
        assert!(out.ad.is_finite(), "{label}");
        // Definition 2.3 consistency.
        let expect = absolute_degradation(out.poisoned_cost, out.baseline_cost);
        assert!((out.ad - expect).abs() < 1e-12);
    }
}

#[test]
fn heuristic_advisors_have_zero_ad_by_construction() {
    // Paper §2.1: "For heuristic IAs, the AD score is always zero."
    let cfg = test_cfg();
    let db = build_db(&cfg);
    let normal = normal_workload(&cfg, 13);

    struct HeuristicClearBox(AutoAdminGreedy);
    impl IndexAdvisor for HeuristicClearBox {
        fn name(&self) -> String {
            self.0.name()
        }
        fn train(
            &mut self,
            cost: &dyn pipa::cost::CostBackend,
            w: &pipa::sim::Workload,
        ) -> pipa::cost::CostResult<()> {
            self.0.train(cost, w)
        }
        fn retrain(
            &mut self,
            cost: &dyn pipa::cost::CostBackend,
            w: &pipa::sim::Workload,
        ) -> pipa::cost::CostResult<()> {
            self.0.retrain(cost, w)
        }
        fn recommend(
            &mut self,
            cost: &dyn pipa::cost::CostBackend,
            w: &pipa::sim::Workload,
        ) -> pipa::cost::CostResult<pipa::sim::IndexConfig> {
            self.0.recommend(cost, w)
        }
        fn budget(&self) -> usize {
            self.0.budget()
        }
        fn is_trial_based(&self) -> bool {
            false
        }
    }
    impl pipa::ia::ClearBoxAdvisor for HeuristicClearBox {
        fn column_preferences(
            &self,
            _cost: &dyn pipa::cost::CostBackend,
        ) -> Vec<(pipa::sim::ColumnId, f64)> {
            Vec::new()
        }
    }

    let mut advisor = HeuristicClearBox(AutoAdminGreedy::new(4));
    let mut injector = TpInjector::new(Benchmark::TpcH.default_templates());
    let out = StressTest::new(&db, &normal)
        .injection_size(8)
        .actual_cost(false)
        .seed(CellSeed::raw(13))
        .run(&mut advisor, &mut injector)
        .expect("stress test against the simulator backend");
    assert!(
        out.ad.abs() < 1e-12,
        "heuristic AD must be exactly zero, got {}",
        out.ad
    );
    assert!(!out.toxic);
}

#[test]
fn injection_workloads_are_extraneous() {
    // Definition: Ŵ ∩ W = ∅ for every injector.
    let cfg = test_cfg();
    let db = build_db(&cfg);
    let normal = normal_workload(&cfg, 17);
    let mut advisor = AdvisorSpec::new("dbabandit")
        .build_with(BuildCtx::new(SpeedPreset::Test, 17))
        .unwrap();
    advisor.train(&db, &normal).expect("train");
    for kind in InjectorKind::all() {
        let mut injector = pipa::core::experiment::make_injector(kind, &cfg, CellSeed::raw(17));
        let w = injector
            .build(advisor.as_mut(), &db, 8, 17)
            .expect("injection build");
        assert!(
            w.is_disjoint_from(&normal),
            "{} produced overlapping queries",
            kind.label()
        );
        assert!(!w.is_empty(), "{} produced no queries", kind.label());
    }
}

#[test]
fn stress_outcome_serializes_to_json() {
    let cfg = test_cfg();
    let db = build_db(&cfg);
    let normal = normal_workload(&cfg, 19);
    let out = run_cell(
        &db,
        &normal,
        AdvisorSpec::new("dbabandit"),
        InjectorKind::Fsm,
        &cfg,
        CellSeed::raw(19),
    )
    .expect("stress test against the simulator backend");
    let json = serde_json::to_string(&out).expect("serializable");
    assert!(json.contains("\"advisor\""));
    assert!(json.contains("\"ad\""));
}

#[test]
fn tpcds_pipeline_works_too() {
    let mut cfg = CellConfig::quick(Benchmark::TpcDs);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 6;
    let db = build_db(&cfg);
    assert_eq!(db.database().schema().num_columns(), 425);
    let normal = normal_workload(&cfg, 23);
    assert_eq!(normal.len(), 90);
    let out = run_cell(
        &db,
        &normal,
        AdvisorSpec::new("dbabandit"),
        InjectorKind::Pipa,
        &cfg,
        CellSeed::raw(23),
    )
    .expect("stress test against the simulator backend");
    assert!(out.baseline_cost > 0.0);
    assert!(out.ad.is_finite());
}

#[test]
fn tpcds_materializes_and_executes() {
    // The executor path over the 24-table schema (row cap keeps this a
    // smoke test).
    let db = Benchmark::TpcDs.database(1.0, Some((5, 20_000)));
    assert!(db.has_data());
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcDs.schema(),
        Benchmark::TpcDs.default_templates(),
    );
    use rand::SeedableRng;
    let w = g
        .normal(&mut rand_chacha::ChaCha8Rng::seed_from_u64(5))
        .unwrap();
    // Execute a handful of queries for real.
    let subset =
        pipa::sim::Workload::from_queries(w.entries().iter().take(6).map(|e| (e.query.clone(), 1)));
    let cost = db
        .actual_workload_cost(&subset, &pipa::sim::IndexConfig::empty())
        .unwrap();
    assert!(cost > 0.0);
    // An index on a fact date key should not hurt.
    let date_sk = db.schema().column_id("ss_sold_date_sk").unwrap();
    let cfg = pipa::sim::IndexConfig::from_indexes([pipa::sim::Index::single(date_sk)]);
    let with = db.actual_workload_cost(&subset, &cfg).unwrap();
    assert!(with <= cost * 1.05, "with={with} base={cost}");
}

#[test]
fn actual_cost_measurement_path_works() {
    // Materialized database: final costs come from the executor.
    let mut cfg = test_cfg();
    cfg.materialize = Some((7, 30_000));
    let db = build_db(&cfg);
    assert!(db.database().has_data());
    let normal = normal_workload(&cfg, 29);
    let out = run_cell(
        &db,
        &normal,
        AdvisorSpec::new("dbabandit"),
        InjectorKind::Fsm,
        &cfg,
        CellSeed::raw(29),
    )
    .expect("stress test against the simulator backend");
    assert!(out.baseline_cost > 0.0);
    assert!(out.ad.is_finite());
}
