//! The tentpole guarantee: a parallel grid run is bit-identical to a
//! serial one, all the way through JSON serialization (the form the
//! `results/*.json` artifacts take).

use pipa_core::experiment::{build_db, CellConfig, GridSpec, InjectorKind};
use pipa_core::stream::{
    run_stream_grid, run_stream_grid_traced, AttackerStrategy, Cadence, DefensePolicy,
    StreamGridSpec,
};
use pipa_core::{run_grid, run_grid_traced, CellSeed};
use pipa_ia::{AdvisorSpec, SpeedPreset};
use pipa_obs::{MemorySink, TraceOutputs};
use pipa_workload::{Benchmark, DriftSchedule};

fn small_spec() -> (CellConfig, GridSpec) {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 4;
    let spec = GridSpec::new(
        vec![AdvisorSpec::new("dbabandit"), AdvisorSpec::new("swirl")],
        vec![InjectorKind::Fsm, InjectorKind::Pipa],
        1,
        7,
    );
    (cfg, spec)
}

#[test]
fn parallel_grid_is_bit_identical_to_serial() {
    let (cfg, spec) = small_spec();
    assert!(spec.len() >= 4, "grid must exercise several cells");

    // Fresh database per mode so the what-if caches start cold in both.
    let serial = {
        let db = build_db(&cfg);
        run_grid(&db, &cfg, &spec, 1).unwrap()
    };
    let parallel = {
        let db = build_db(&cfg);
        run_grid(&db, &cfg, &spec, 4).unwrap()
    };

    let ser = |rs: &[(pipa_core::GridCell, pipa_core::StressOutcome)]| {
        let outcomes: Vec<&pipa_core::StressOutcome> = rs.iter().map(|(_, o)| o).collect();
        serde_json::to_string_pretty(&outcomes).expect("serializable")
    };
    assert_eq!(
        ser(&serial),
        ser(&parallel),
        "--jobs 1 and --jobs 4 must serialize identically"
    );

    // Cells come back in spec order regardless of scheduling.
    for ((a, _), (b, _)) in serial.iter().zip(&parallel) {
        assert_eq!(a, b);
    }
    let cells = spec.cells();
    for (got, want) in parallel.iter().map(|(c, _)| c).zip(&cells) {
        assert_eq!(got, want);
    }
}

#[test]
fn executed_costs_are_bit_identical_across_job_counts() {
    // Materialized data makes every baseline and poisoned cost an
    // executed one, built from the physical-index cache that all of a
    // grid's threads share.
    let (mut cfg, spec) = small_spec();
    cfg.materialize = Some((7, 20_000));
    let run = |jobs| {
        let db = build_db(&cfg);
        assert!(db.database().has_data());
        let results = run_grid(&db, &cfg, &spec, jobs).unwrap();
        let outcomes: Vec<&pipa_core::StressOutcome> = results.iter().map(|(_, o)| o).collect();
        serde_json::to_string_pretty(&outcomes).expect("serializable")
    };
    assert_eq!(
        run(1),
        run(4),
        "--jobs 1 and --jobs 4 must serialize identically"
    );
}

#[test]
fn grid_reruns_reproduce_and_caching_is_observable() {
    let (cfg, spec) = small_spec();
    let db = build_db(&cfg);
    let first = run_grid(&db, &cfg, &spec, 2).unwrap();
    // Since the join-aware benefit matrix, every decomposable probe is
    // answered from matrix cells (the scalar cost cache only serves
    // non-decomposable fallbacks), so cell hits are where re-issued
    // what-if probes become observable.
    let stats = db.database().whatif_matrix_stats();
    assert!(
        stats.entry_hits > 0,
        "a grid re-issues what-if probes; hits: {stats:?}"
    );

    // Re-running the same grid on the now-warm database changes nothing:
    // cached costs are bit-identical to computed ones.
    let second = run_grid(&db, &cfg, &spec, 2).unwrap();
    let ads = |rs: &[(pipa_core::GridCell, pipa_core::StressOutcome)]| -> Vec<f64> {
        rs.iter().map(|(_, o)| o.ad).collect()
    };
    assert_eq!(ads(&first), ads(&second));
    assert!(db.database().whatif_matrix_stats().entry_hits > stats.entry_hits);
}

#[test]
fn seeds_pair_cells_within_a_run() {
    let spec = GridSpec::new(
        vec![AdvisorSpec::new("swirl")],
        vec![InjectorKind::Fsm, InjectorKind::Pipa],
        2,
        99,
    );
    let cells = spec.cells();
    // Same run, different injector → same seed (RD pairing).
    assert_eq!(cells[0].seed, cells[2].seed);
    assert_eq!(cells[1].seed, cells[3].seed);
    // Different runs → different seeds.
    assert_ne!(cells[0].seed, cells[1].seed);
    assert_eq!(cells[0].seed, CellSeed::derive(99, 0));
    assert_eq!(cells[0].seed.get(), pipa_core::derive_seed(99, 0));
}

/// The PR-2 golden-trace guarantee: with a trace sink attached, the JSONL
/// event stream is byte-identical between `--jobs 1` and `--jobs 4`, and
/// the outcomes match the untraced run (observing a cell never perturbs
/// it).
#[test]
fn trace_stream_is_bit_identical_across_job_counts() {
    let (cfg, spec) = small_spec();

    let traced = |jobs: usize| {
        let db = build_db(&cfg);
        let sink = MemorySink::new();
        let out = TraceOutputs::with_sinks(Some(Box::new(sink.clone())), None);
        let results = run_grid_traced(&db, &cfg, &spec, jobs, &out).unwrap();
        (results, sink.contents())
    };
    let (serial, serial_trace) = traced(1);
    let (parallel, parallel_trace) = traced(4);

    assert!(!serial_trace.is_empty(), "trace must capture events");
    assert_eq!(
        serial_trace, parallel_trace,
        "--jobs 1 and --jobs 4 traces must be byte-identical"
    );
    // Every cell contributes its phase walk and outcome.
    assert_eq!(
        serial_trace.matches("\"event\":\"stress_outcome\"").count(),
        spec.len()
    );
    for line in serial_trace.lines() {
        let keys = pipa_obs::json::top_level_keys(line).expect("valid JSON line");
        for req in ["event", "cell_seed", "phase"] {
            assert!(keys.iter().any(|k| k == req), "missing {req} in {line}");
        }
    }

    // Tracing does not perturb the experiment itself.
    let untraced = {
        let db = build_db(&cfg);
        run_grid(&db, &cfg, &spec, 1).unwrap()
    };
    let ads = |rs: &[(pipa_core::GridCell, pipa_core::StressOutcome)]| -> Vec<f64> {
        rs.iter().map(|(_, o)| o.ad).collect()
    };
    assert_eq!(ads(&serial), ads(&parallel));
    assert_eq!(ads(&serial), ads(&untraced));
}

fn small_stream_spec() -> (CellConfig, StreamGridSpec) {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    let spec = StreamGridSpec {
        advisor: AdvisorSpec::new("dbabandit"),
        attackers: vec![
            AttackerStrategy::Spread(InjectorKind::Pipa),
            AttackerStrategy::Burst(InjectorKind::Pipa),
        ],
        defenses: vec![
            DefensePolicy::None,
            DefensePolicy::Canary { tolerance: 0.02 },
        ],
        cadences: vec![Cadence::Every(1), Cadence::EndOnly],
        windows: 2,
        drift: DriftSchedule::Resample,
        budget: 3,
        runs: 1,
        root_seed: 13,
    };
    (cfg, spec)
}

/// The streaming arms race inherits the grid guarantees: results and the
/// serialized artifact form are bit-identical across `--jobs 1/4/8`.
#[test]
fn stream_grid_is_bit_identical_across_job_counts() {
    let (cfg, spec) = small_stream_spec();
    assert!(spec.len() >= 8, "grid must exercise several cells");

    let run = |jobs: usize| {
        let db = build_db(&cfg);
        run_stream_grid(&db, &cfg, &spec, jobs).unwrap()
    };
    let serial = run(1);
    let ser = |rs: &[(pipa_core::StreamCell, pipa_core::StreamOutcome)]| {
        let outcomes: Vec<&pipa_core::StreamOutcome> = rs.iter().map(|(_, o)| o).collect();
        serde_json::to_string_pretty(&outcomes).expect("serializable")
    };
    let golden = ser(&serial);
    for jobs in [4, 8] {
        let parallel = run(jobs);
        assert_eq!(
            golden,
            ser(&parallel),
            "--jobs 1 and --jobs {jobs} must serialize identically"
        );
        for ((a, _), (b, _)) in serial.iter().zip(&parallel) {
            assert_eq!(a, b);
        }
    }
    // Cells come back in spec order regardless of scheduling.
    for (got, want) in serial.iter().map(|(c, _)| c).zip(&spec.cells()) {
        assert_eq!(got, want);
    }
}

/// Golden-trace determinism for the stream grid: the merged JSONL event
/// stream is byte-identical across `--jobs 1/4/8`, every line carries the
/// cell context, and tracing never perturbs the outcomes.
#[test]
fn stream_trace_is_bit_identical_across_job_counts() {
    let (cfg, spec) = small_stream_spec();

    let traced = |jobs: usize| {
        let db = build_db(&cfg);
        let sink = MemorySink::new();
        let out = TraceOutputs::with_sinks(Some(Box::new(sink.clone())), None);
        let results = run_stream_grid_traced(&db, &cfg, &spec, jobs, &out).unwrap();
        (results, sink.contents())
    };
    let (serial, golden_trace) = traced(1);
    assert!(!golden_trace.is_empty(), "trace must capture events");
    for jobs in [4, 8] {
        let (parallel, trace) = traced(jobs);
        assert_eq!(
            golden_trace, trace,
            "--jobs 1 and --jobs {jobs} traces must be byte-identical"
        );
        let ads = |rs: &[(pipa_core::StreamCell, pipa_core::StreamOutcome)]| -> Vec<f64> {
            rs.iter().map(|(_, o)| o.mean_ad).collect()
        };
        assert_eq!(ads(&serial), ads(&parallel));
    }

    // Every cell contributes its windows and closing outcome, each line
    // tagged with the full arms-race context.
    assert_eq!(
        golden_trace.matches("\"event\":\"stream_outcome\"").count(),
        spec.len()
    );
    assert_eq!(
        golden_trace.matches("\"event\":\"stream_window\"").count(),
        spec.len() * spec.windows
    );
    for line in golden_trace.lines() {
        let keys = pipa_obs::json::top_level_keys(line).expect("valid JSON line");
        for req in [
            "event",
            "cell_seed",
            "attacker",
            "defense",
            "cadence",
            "run",
        ] {
            assert!(keys.iter().any(|k| k == req), "missing {req} in {line}");
        }
    }

    // Tracing does not perturb the scenarios.
    let untraced = {
        let db = build_db(&cfg);
        run_stream_grid(&db, &cfg, &spec, 1).unwrap()
    };
    for ((a, x), (b, y)) in serial.iter().zip(&untraced) {
        assert_eq!(a, b);
        assert_eq!(x, y);
    }
}

/// The registry-opened target classes inherit the determinism
/// guarantee: a grid mixing a built-in advisor with the in-context
/// kind, and learned-index-backend cells mapped with fresh per-cell
/// backends (a learned backend mutates under `observe_training`, so
/// sharing one across cells would leak refits), all serialize
/// bit-identically across worker counts.
#[test]
fn mixed_target_classes_stay_bit_identical_across_job_counts() {
    use pipa_core::experiment::{normal_workload, run_cell};
    use pipa_core::runner::par_map;
    use pipa_cost::{CostBackend, LearnedIndexBackend, LearnedIndexConfig};

    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 4;

    // Built-in + in-context through the shared-simulator grid.
    let spec = GridSpec::new(
        vec![AdvisorSpec::new("dbabandit"), AdvisorSpec::new("incontext")],
        vec![InjectorKind::Pipa],
        1,
        21,
    );
    let grid = |jobs: usize| {
        let db = build_db(&cfg);
        run_grid(&db, &cfg, &spec, jobs).unwrap()
    };
    let ser = |rs: &[(pipa_core::GridCell, pipa_core::StressOutcome)]| {
        let outcomes: Vec<&pipa_core::StressOutcome> = rs.iter().map(|(_, o)| o).collect();
        serde_json::to_string_pretty(&outcomes).expect("serializable")
    };
    let serial = grid(1);
    assert_eq!(
        ser(&serial),
        ser(&grid(4)),
        "the mixed advisor grid must serialize identically across --jobs"
    );
    assert!(serial.iter().any(|(_, o)| o.advisor == "InContext"));

    // Learned-index cells: one fresh bulk-loaded backend per cell.
    let learned = |jobs: usize| -> Vec<pipa_core::StressOutcome> {
        par_map(jobs, vec![0u64, 1], |_, run| {
            let seed = CellSeed::derive(21, run);
            let sim = build_db(&cfg);
            let backend = LearnedIndexBackend::new(
                sim.catalog(),
                LearnedIndexConfig {
                    seed: seed.get(),
                    ..LearnedIndexConfig::fast()
                },
            );
            let normal = normal_workload(&cfg, seed.get());
            run_cell(
                &backend,
                &normal,
                AdvisorSpec::new("dbabandit"),
                InjectorKind::Pipa,
                &cfg,
                seed,
            )
            .unwrap()
        })
    };
    let learned_serial = learned(1);
    let ser_cells = |outs: &[pipa_core::StressOutcome]| {
        serde_json::to_string_pretty(&outs.iter().collect::<Vec<_>>()).expect("serializable")
    };
    assert_eq!(
        ser_cells(&learned_serial),
        ser_cells(&learned(4)),
        "learned-index cells must serialize identically across worker counts"
    );
    assert!(learned_serial.iter().all(|o| o.ad.is_finite()));
}

/// The in-context advisor runs the streaming arms race under the same
/// cross-jobs guarantee as the built-ins.
#[test]
fn incontext_stream_grid_is_bit_identical_across_job_counts() {
    let (cfg, mut spec) = small_stream_spec();
    spec.advisor = AdvisorSpec::new("incontext");
    spec.attackers = vec![AttackerStrategy::Spread(InjectorKind::Pipa)];
    spec.cadences = vec![Cadence::Every(1)];

    let run = |jobs: usize| {
        let db = build_db(&cfg);
        run_stream_grid(&db, &cfg, &spec, jobs).unwrap()
    };
    let ser = |rs: &[(pipa_core::StreamCell, pipa_core::StreamOutcome)]| {
        let outcomes: Vec<&pipa_core::StreamOutcome> = rs.iter().map(|(_, o)| o).collect();
        serde_json::to_string_pretty(&outcomes).expect("serializable")
    };
    let serial = run(1);
    assert_eq!(
        ser(&serial),
        ser(&run(4)),
        "the in-context stream grid must serialize identically across --jobs"
    );
    assert!(serial.iter().all(|(_, o)| o.advisor == "InContext"));
}

/// With no sink attached the recorder never switches on: the traced entry
/// point degrades to exactly the plain one.
#[test]
fn disabled_outputs_record_nothing_and_match_the_plain_path() {
    let (cfg, spec) = small_spec();
    assert!(!pipa_obs::is_recording());
    let db = build_db(&cfg);
    let disabled = TraceOutputs::disabled();
    let via_traced = run_grid_traced(&db, &cfg, &spec, 2, &disabled).unwrap();
    assert!(!pipa_obs::is_recording());
    let plain = run_grid(&db, &cfg, &spec, 2).unwrap();
    for ((a, x), (b, y)) in via_traced.iter().zip(&plain) {
        assert_eq!(a, b);
        assert_eq!(x.ad, y.ad);
        assert_eq!(x.baseline_cost, y.baseline_cost);
    }
}
