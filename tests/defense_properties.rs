//! Property tests for `pipa-core`'s defenses (proptest).
//!
//! The streaming arms race leans on two invariants that must hold for
//! *every* tolerance, seed, and injection mix — not just the tuned bench
//! points:
//!
//! * [`CanaryGuard::retrain_guarded`] never leaves a deployed
//!   configuration whose canary cost regresses beyond the tolerance, and
//!   a rollback reinstates the *exact* pre-update `IndexConfig`;
//! * [`ProvenanceFilter::screen`] passes clean workloads through
//!   bit-unchanged (the defense must be free when there is no attack).

use pipa::core::experiment::{build_db, make_injector, normal_workload, CellConfig, InjectorKind};
use pipa::core::{CanaryGuard, CellSeed, ProvenanceFilter};
use pipa::cost::CostBackend;
use pipa::ia::{AdvisorSpec, BuildCtx, SpeedPreset};
use pipa::workload::{Benchmark, WorkloadGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cfg() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg
}

/// Train an advisor, build a (possibly poisoned) training set, and run
/// one guarded retrain. Returns (outcome, canary, cost backend).
fn guarded_retrain(
    seed: u64,
    injector: InjectorKind,
    injection_size: usize,
    tolerance: f64,
) -> (
    pipa::core::defense::GuardedOutcome,
    pipa::sim::Workload,
    pipa::cost::SimBackend,
) {
    let cfg = cfg();
    let cost = build_db(&cfg);
    let normal = normal_workload(&cfg, seed);
    let mut advisor = AdvisorSpec::new("dbabandit")
        .build_with(BuildCtx::new(cfg.preset, seed))
        .unwrap();
    advisor.train(&cost, &normal).expect("training succeeds");
    let mut inj = make_injector(injector, &cfg, CellSeed::raw(seed));
    let injection = inj
        .build(advisor.as_mut(), &cost, injection_size, seed)
        .expect("injection builds");
    let training = normal.union(&injection);
    let outcome = CanaryGuard::new(tolerance)
        .retrain_guarded(advisor.as_mut(), &cost, &training, &normal)
        .expect("guarded retrain succeeds");
    (outcome, normal, cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The guard's deployment contract: whatever it decides, the canary
    /// cost of the configuration left in force never exceeds the
    /// pre-update cost by more than the tolerance.
    #[test]
    fn canary_guard_never_deploys_beyond_tolerance(
        seed in 0u64..10_000,
        tolerance in 0.0f64..0.25,
        injection_size in 4usize..14,
    ) {
        let (outcome, canary, cost) =
            guarded_retrain(seed, InjectorKind::Pipa, injection_size, tolerance);
        let deployed_cost = cost
            .executed_workload_cost(&canary, &outcome.final_config)
            .expect("canary costs");
        prop_assert!(
            deployed_cost <= outcome.cost_before * (1.0 + tolerance) + 1e-9,
            "deployed canary cost {deployed_cost} breaches {} * (1 + {tolerance}) \
             (rolled_back: {})",
            outcome.cost_before,
            outcome.rolled_back,
        );
        // The decision itself is consistent with the measured costs.
        prop_assert_eq!(
            outcome.rolled_back,
            outcome.cost_after > outcome.cost_before * (1.0 + tolerance),
        );
    }

    /// A rollback reinstates the exact pre-update `IndexConfig` — the
    /// same object the guard measured `cost_before` on, bit for bit.
    /// Tolerance −1.0 forces every update to "regress" (any positive
    /// cost exceeds `cost_before * 0`), so each case exercises the
    /// rollback arm.
    #[test]
    fn rollback_reinstates_the_exact_pre_update_config(
        seed in 0u64..10_000,
        injection_size in 4usize..14,
    ) {
        let (outcome, canary, cost) =
            guarded_retrain(seed, InjectorKind::Tp, injection_size, -1.0);
        prop_assert!(outcome.rolled_back, "tolerance -1.0 must force rollback");
        prop_assert_eq!(&outcome.final_config, &outcome.previous_config);
        // previous_config really is the configuration cost_before was
        // measured on: re-measuring reproduces it bit-exactly.
        let re_measured = cost
            .executed_workload_cost(&canary, &outcome.previous_config)
            .expect("canary costs");
        prop_assert_eq!(re_measured, outcome.cost_before);
    }

    /// Screening a clean workload against its own profile is the
    /// identity: nothing dropped, queries and frequencies bit-unchanged,
    /// for every screening threshold.
    #[test]
    fn provenance_filter_passes_clean_workloads_bit_unchanged(
        seed in 0u64..1_000_000,
        max_novel_fraction in 0.0f64..1.0,
    ) {
        for benchmark in [Benchmark::TpcH, Benchmark::TpcDs] {
            let gen = WorkloadGenerator::new(benchmark.schema(), benchmark.default_templates());
            let clean = gen
                .normal(&mut ChaCha8Rng::seed_from_u64(seed))
                .expect("templates instantiate");
            let filter = ProvenanceFilter { max_novel_fraction };
            let num_columns = benchmark.schema().num_columns();
            let (kept, dropped) = filter.screen(&clean, &clean, num_columns);
            prop_assert_eq!(dropped, 0, "{:?}: clean queries dropped", benchmark);
            prop_assert_eq!(&kept, &clean, "{:?}: workload not bit-unchanged", benchmark);
        }
    }
}

/// Deterministic companion to the proptest cases: at a sane tolerance a
/// PIPA injection that would regress the canary gets rolled back, and
/// the report exposes both configurations.
#[test]
fn guard_outcome_exposes_both_sides_of_the_decision() {
    let (outcome, _, _) = guarded_retrain(51, InjectorKind::Pipa, 10, 0.02);
    if outcome.rolled_back {
        assert_eq!(outcome.final_config, outcome.previous_config);
    } else {
        assert!(outcome.cost_after <= outcome.cost_before * 1.02 + 1e-9);
    }
    assert!(outcome.cost_before > 0.0);
    assert!(outcome.cost_after > 0.0);
}
