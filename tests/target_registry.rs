//! The acceptance test for the open target seam: a target class that
//! lives *outside* every workspace crate — defined right here in an
//! integration test — registers itself with one `register_target` call
//! and then runs through the stress harness and a multi-tenant serve
//! fleet **without a single edit** to `pipa-core`, `pipa-serve`, or
//! `pipa-bench` match sites. If any consumer still switched on a closed
//! enum, this file could not compile or these cells would fail to build
//! their advisor.

use pipa_core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa_core::CellSeed;
use pipa_cost::{CostBackend, CostError, CostResult};
use pipa_ia::{
    register_target, registered_ids, AdvisorSpec, AutoAdminGreedy, ClearBoxAdvisor, IndexAdvisor,
    SpeedPreset,
};
use pipa_serve::{FleetSpec, SessionRequest, TenantSpec};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use pipa_workload::Benchmark;

/// A toy advisor: the greedy heuristic inside, under a name only this
/// test knows, so any surviving closed-enum match site would fail here.
struct Toy {
    inner: AutoAdminGreedy,
}

impl IndexAdvisor for Toy {
    fn name(&self) -> String {
        "ToyE2E".to_string()
    }
    fn train(&mut self, cost: &dyn CostBackend, w: &Workload) -> CostResult<()> {
        self.inner.train(cost, w)
    }
    fn retrain(&mut self, cost: &dyn CostBackend, w: &Workload) -> CostResult<()> {
        self.inner.retrain(cost, w)
    }
    fn recommend(&mut self, cost: &dyn CostBackend, w: &Workload) -> CostResult<IndexConfig> {
        self.inner.recommend(cost, w)
    }
    fn budget(&self) -> usize {
        self.inner.budget()
    }
    fn is_trial_based(&self) -> bool {
        false
    }
}

impl ClearBoxAdvisor for Toy {
    fn column_preferences(&self, _cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        Vec::new()
    }
}

fn register_toy() {
    register_target(
        "toy-e2e",
        |_| "ToyE2E".to_string(),
        |_| {
            Box::new(Toy {
                inner: AutoAdminGreedy::new(3),
            })
        },
    );
}

fn cfg() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 6;
    cfg
}

#[test]
fn a_test_registered_advisor_runs_the_full_stress_pipeline() {
    register_toy();
    assert!(registered_ids().contains(&"toy-e2e".to_string()));

    let cfg = cfg();
    let cost = build_db(&cfg);
    let seed = CellSeed::derive(0, 0);
    let normal = normal_workload(&cfg, seed.get());
    let out = run_cell(
        &cost,
        &normal,
        AdvisorSpec::new("toy-e2e"),
        InjectorKind::Tp,
        &cfg,
        seed,
    )
    .expect("the registered kind runs through StressTest untouched");
    assert_eq!(out.advisor, "ToyE2E");
    assert!(out.ad.is_finite());
    assert!(out.baseline_cost > 0.0);
}

#[test]
fn a_test_registered_advisor_serves_a_fleet_tenant() {
    register_toy();

    let run = FleetSpec::new(11)
        .workers(2)
        .tenant(
            TenantSpec::new("custom", Benchmark::TpcH)
                .advisor(AdvisorSpec::new("toy-e2e"))
                .session(SessionRequest::Recommend)
                .session(SessionRequest::WhatIf { configs: 2 }),
        )
        .run(&pipa_obs::TraceOutputs::disabled());
    assert_eq!(run.report.completed_sessions(), 2);
    assert_eq!(run.report.degraded_tenants(), 0);
}

#[test]
fn an_unknown_kind_degrades_only_its_own_tenant() {
    // The fleet must not panic on an unregistered id: the tenant
    // degrades at its first session with the typed UnknownTarget error
    // and siblings keep serving.
    let run = FleetSpec::new(12)
        .workers(2)
        .tenant(
            TenantSpec::new("ghost", Benchmark::TpcH)
                .advisor(AdvisorSpec::new("no-such-kind"))
                .session(SessionRequest::Recommend),
        )
        .tenant(
            TenantSpec::new("ok", Benchmark::TpcH).session(SessionRequest::WhatIf { configs: 2 }),
        )
        .run(&pipa_obs::TraceOutputs::disabled());
    assert_eq!(run.report.degraded_tenants(), 1);
    let ghost = &run.report.tenants[0];
    let msg = format!("{:?}", ghost.degraded);
    assert!(
        msg.contains("no-such-kind"),
        "degradation must name the unknown kind (got {msg})"
    );
    let ok = &run.report.tenants[1];
    assert!(
        ok.degraded.is_none(),
        "the sibling tenant must be untouched"
    );
    assert_eq!(ok.sessions.len(), 1);
}

#[test]
fn an_unknown_kind_is_a_typed_error_from_the_spec() {
    let err = match AdvisorSpec::new("definitely-not-registered").build() {
        Ok(_) => panic!("unregistered kind must not build"),
        Err(e) => e,
    };
    assert_eq!(err.kind, "definitely-not-registered");
    assert!(err.registered.contains(&"dqn".to_string()));
    let cost: CostError = err.into();
    assert!(format!("{cost}").contains("definitely-not-registered"));
}
