//! One victim pipeline: every sequence that trains, poisons and retrains
//! a victim goes through the harness's update step, so the cost backend
//! observes exactly what the victim trains on.
//!
//! * On a fresh `LearnedIndexBackend`, `poisoning_economics` and a
//!   canary-defended `StressTest` refit the learned index exactly as a
//!   plain `StressTest` does.
//! * `run_stream` shows the backend the bootstrap window and each victim
//!   training batch, never the clean twin's.

use pipa::core::experiment::{build_db, make_injector, normal_workload, CellConfig, InjectorKind};
use pipa::core::stream::{run_stream, AttackerStrategy, Cadence, DefensePolicy, StreamSpec};
use pipa::core::{poisoning_economics, CellSeed, StressTest};
use pipa::cost::{
    Catalog, CostBackend, CostResult, CostSession, LearnedIndexBackend, LearnedIndexConfig,
};
use pipa::ia::{AdvisorSpec, BuildCtx, SpeedPreset};
use pipa::sim::{Index, IndexConfig, Query, Workload};
use pipa::workload::{Benchmark, DriftSchedule, WorkloadGenerator};
use std::sync::Mutex;

fn victim() -> AdvisorSpec {
    AdvisorSpec::new("dbabandit")
}

fn cfg() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 6;
    cfg
}

fn learned_backend(cfg: &CellConfig) -> LearnedIndexBackend {
    LearnedIndexBackend::new(build_db(cfg).catalog(), LearnedIndexConfig::fast())
}

/// Refit counts a fresh learned index ends with after one stress test.
fn stress_refits(cfg: &CellConfig, seed: CellSeed, defense: DefensePolicy) -> Vec<u32> {
    let cost = learned_backend(cfg);
    let normal = normal_workload(cfg, seed.get());
    let mut advisor = victim()
        .build_with(BuildCtx::new(cfg.preset, seed.get()))
        .unwrap();
    let mut injector = make_injector(InjectorKind::Pipa, cfg, seed);
    StressTest::new(&cost, &normal)
        .injection_size(cfg.injection_size)
        .actual_cost(false)
        .seed(seed)
        .defense(defense)
        .run(advisor.as_mut(), injector.as_mut())
        .expect("stress test on the learned index");
    cost.refit_counts()
}

#[test]
fn every_pipeline_refits_the_learned_index_like_the_plain_stress_test() {
    let cfg = cfg();
    let seed = CellSeed::raw(7);
    let plain = stress_refits(&cfg, seed, DefensePolicy::None);
    assert!(
        plain.iter().any(|&n| n > 0),
        "the stress test must refit: {plain:?}"
    );

    let canary = stress_refits(&cfg, seed, DefensePolicy::Canary { tolerance: 0.02 });
    assert_eq!(canary, plain, "canary-defended stress test");

    let cost = learned_backend(&cfg);
    poisoning_economics(&cost, &cfg, victim(), InjectorKind::Pipa, 1.1, seed)
        .expect("economics on the learned index");
    assert_eq!(cost.refit_counts(), plain, "poisoning_economics");
}

/// A transparent backend that records every training set it observes.
struct Observing<'a> {
    inner: &'a dyn CostBackend,
    seen: Mutex<Vec<Workload>>,
}

impl CostBackend for Observing<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn catalog(&self) -> Catalog<'_> {
        self.inner.catalog()
    }
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.inner.query_cost(q, cfg)
    }
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.inner.workload_cost(w, cfg)
    }
    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        self.inner.session_begin(w)
    }
    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        self.inner.session_total(w, session)
    }
    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_preview_add(w, session, cfg_after, idx)
    }
    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_add(w, session, cfg_after, idx)
    }
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        self.seen.lock().unwrap().push(w.clone());
        self.inner.observe_training(w)
    }
}

#[test]
fn the_stream_observes_the_victims_training_sets_never_the_twins() {
    let cfg = cfg();
    let sim = build_db(&cfg);
    let cost = Observing {
        inner: &sim,
        seen: Mutex::new(Vec::new()),
    };
    let spec = StreamSpec {
        windows: 3,
        drift: DriftSchedule::Resample,
        cadence: Cadence::Every(1),
        attacker: AttackerStrategy::Spread(InjectorKind::Tp),
        budget: 4,
        defense: DefensePolicy::None,
    };
    let seed = CellSeed::raw(31);
    let out = run_stream(&cost, &cfg, victim(), &spec, seed).expect("stream runs");
    let seen = cost.seen.into_inner().unwrap();
    assert_eq!(out.retrains, 3);
    assert_eq!(seen.len(), 1 + 3, "bootstrap plus one set per retrain");

    // Window w's clean traffic, by `run_stream`'s documented seed
    // convention. The twin trains on exactly these.
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let clean = |w: u64| {
        spec.drift
            .window_workload(&gen, w, seed.get() ^ 0x4021)
            .expect("window instantiates")
    };
    assert_eq!(seen[0], clean(0), "the bootstrap window");
    for (report, observed) in out.windows.iter().zip(&seen[1..]) {
        let clean = clean(report.window as u64);
        assert!(report.injected > 0, "{report:?}");
        assert_ne!(
            observed, &clean,
            "window {} observed the twin's set",
            report.window
        );
        assert_eq!(observed.len(), clean.len() + report.injected);
        assert_eq!(&observed.entries()[..clean.len()], clean.entries());
    }
}
