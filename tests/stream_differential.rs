//! The stream mode strictly generalizes the paper's static pipeline.
//!
//! A streaming run with `retrain_cadence = ∞` ([`Cadence::EndOnly`]: one
//! retrain, after all traffic has arrived) and zero drift
//! ([`DriftSchedule::Static`]) performs the exact victim-path call
//! sequence of [`StressTest`] — train, recommend, measure, build the
//! injection, retrain on clean ∪ injection, recommend, measure. These
//! tests pin the two reports bit-identical, through JSON serialization.

use pipa::core::experiment::{build_db, make_injector, normal_workload, CellConfig, InjectorKind};
use pipa::core::harness::StressTest;
use pipa::core::stream::{run_stream, AttackerStrategy, Cadence, DefensePolicy, StreamSpec};
use pipa::core::{derive_seed, CellSeed};
use pipa::ia::{AdvisorSpec, BuildCtx, SpeedPreset};
use pipa::workload::{Benchmark, DriftSchedule};

fn cfg() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 3;
    cfg.injection_size = 10;
    cfg
}

/// The differential spec: one attack window, no drift, one end-of-stream
/// retrain, no defense, full budget in the single strike.
fn static_equivalent_spec(injector: InjectorKind, budget: usize) -> StreamSpec {
    StreamSpec {
        windows: 1,
        drift: DriftSchedule::Static,
        cadence: Cadence::EndOnly,
        attacker: AttackerStrategy::Spread(injector),
        budget,
        defense: DefensePolicy::None,
    }
}

/// Run the equivalent static cell: same workload (the stream's zero-drift
/// window), same advisor build seed, and the stream's window-1 attack
/// seed (`derive_seed(cell_seed, 1)`) for the injector.
fn static_outcome(
    cfg: &CellConfig,
    cost: &pipa::cost::SimBackend,
    injector: InjectorKind,
    cell_seed: CellSeed,
) -> pipa::core::StressOutcome {
    let normal = normal_workload(cfg, cell_seed.get());
    let attack_seed = CellSeed::raw(derive_seed(cell_seed.get(), 1));
    let mut advisor = AdvisorSpec::new("dbabandit")
        .build_with(BuildCtx::new(cfg.preset, cell_seed.get()))
        .unwrap();
    let mut inj = make_injector(injector, cfg, attack_seed);
    StressTest::new(cost, &normal)
        .injection_size(cfg.injection_size)
        .actual_cost(false)
        .seed(attack_seed)
        .run(advisor.as_mut(), inj.as_mut())
        .expect("static pipeline runs")
}

#[test]
fn no_drift_end_only_stream_is_bit_identical_to_the_static_pipeline() {
    let cfg = cfg();
    for (injector, root) in [(InjectorKind::Pipa, 77u64), (InjectorKind::Tp, 78u64)] {
        let cell_seed = CellSeed::derive(root, 0);
        let cost = build_db(&cfg);
        let spec = static_equivalent_spec(injector, cfg.injection_size);
        let stream = run_stream(&cost, &cfg, AdvisorSpec::new("dbabandit"), &spec, cell_seed)
            .expect("stream runs");
        let projected = stream
            .as_stress_outcome()
            .expect("attacked stream projects");

        // Fresh database for the static side so memoization warmth can't
        // mask (or cause) a difference.
        let cost = build_db(&cfg);
        let expected = static_outcome(&cfg, &cost, injector, cell_seed);

        // Bit-exact on every field (StressOutcome's PartialEq compares
        // the f64 costs exactly), and byte-identical as JSON — the form
        // the results artifacts take.
        assert_eq!(
            projected, expected,
            "stream/static drifted for {injector:?}"
        );
        assert_eq!(
            serde_json::to_string_pretty(&projected).unwrap(),
            serde_json::to_string_pretty(&expected).unwrap(),
        );
    }
}

#[test]
fn the_differential_cell_reports_the_static_call_shape() {
    // Cross-checks that the stream really did what the static pipeline
    // does: a single window, a single retrain, a single strike of the
    // full budget, and a baseline equal to the bootstrap measurement.
    let cfg = cfg();
    let cost = build_db(&cfg);
    let cell_seed = CellSeed::derive(77, 0);
    let spec = static_equivalent_spec(InjectorKind::Pipa, cfg.injection_size);
    let stream = run_stream(&cost, &cfg, AdvisorSpec::new("dbabandit"), &spec, cell_seed).unwrap();
    assert_eq!(stream.windows.len(), 1);
    assert_eq!(stream.retrains, 1);
    assert_eq!(stream.rollbacks, 0);
    let w = &stream.windows[0];
    assert!(w.retrained);
    assert_eq!(w.injected, stream.total_injected);
    // Zero drift: window 1's clean traffic is the bootstrap workload, so
    // its pre-retrain cost is exactly the baseline.
    assert_eq!(w.deployed_cost, stream.baseline_cost);
    assert_eq!(w.clean_cost, stream.baseline_cost);
    assert_eq!(w.post_retrain_cost, Some(stream.final_cost));
    assert_eq!(
        stream.first_attack_seed,
        Some(derive_seed(cell_seed.get(), 1))
    );
}

#[test]
fn drift_and_cadence_actually_generalize() {
    // Sanity that the differential configuration is a special point, not
    // the general behavior: with drift and a real cadence the stream
    // produces multiple retrains over distinct windows.
    let cfg = cfg();
    let cost = build_db(&cfg);
    let spec = StreamSpec {
        windows: 3,
        drift: DriftSchedule::Resample,
        cadence: Cadence::Every(1),
        attacker: AttackerStrategy::Spread(InjectorKind::Tp),
        budget: 4,
        defense: DefensePolicy::None,
    };
    let stream = run_stream(
        &cost,
        &cfg,
        AdvisorSpec::new("dbabandit"),
        &spec,
        CellSeed::derive(77, 0),
    )
    .unwrap();
    assert_eq!(stream.retrains, 3);
    // Resampled windows have different clean costs (different traffic).
    let costs: Vec<f64> = stream.windows.iter().map(|w| w.clean_cost).collect();
    assert!(
        costs.windows(2).any(|p| p[0] != p[1]),
        "drifting windows should not all cost the same: {costs:?}"
    );
}
