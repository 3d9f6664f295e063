//! Multi-tenant session-fleet throughput over the replay backend: the
//! serving-layer perf datapoint for the `results/BENCH_*.json` series.
//!
//! Setup (once, outside criterion): a mixed TPC-H / TPC-DS roster is run
//! with [`BackendSpec::SimRecording`] so every per-query cost lands on a
//! per-tenant tape; the benched fleets then replay those tapes with no
//! simulator behind the `CostBackend` seam, isolating scheduler and
//! service-API overhead from the analytical cost model.
//!
//! Cells:
//!
//! * `serve/replay_fleet_w{N}` — a medium replay fleet (what-if traffic
//!   only) end to end at `N` workers: materialization, scheduling, every
//!   session, report assembly. On a single-core container the worker
//!   grid is expected flat (it still proves the scheduler adds no
//!   superlinear overhead when oversubscribed);
//!
//! plus one big ≥1000-session replay fleet run once at service
//! parallelism for the committed p50/p99 session latencies and aggregate
//! what-if throughput, cross-checked bit-for-bit against a single-worker
//! run (the determinism contract `crates/serve/tests/fleet.rs` owns).
//!
//! A custom `main` (the `[[bench]]` is `harness = false`) writes
//! `results/BENCH_serve.json`. `SERVE_BENCH_SMOKE=1` shrinks every
//! dimension and skips the artifact write (CI smoke).

use pipa_obs::TraceOutputs;
use pipa_serve::{BackendSpec, FleetSpec, SessionRequest, TenantSpec};
use pipa_workload::Benchmark;
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct Medians {
    replay_fleet_w1: Option<f64>,
    replay_fleet_w2: Option<f64>,
    replay_fleet_w4: Option<f64>,
    replay_fleet_w8: Option<f64>,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    /// Roster size of the big (latency/QPS) fleet.
    tenants: usize,
    /// Sessions completed by the big fleet (the >= 1000 floor).
    sessions_total: usize,
    /// Per-query what-if evaluations the big fleet answered.
    whatif_evals_total: u64,
    /// Roster/session size of the criterion (worker-grid) fleet.
    bench_fleet_tenants: usize,
    bench_fleet_sessions: usize,
    cores_available: usize,
    median_fleet_ns: Medians,
    /// Session-latency percentiles from the big fleet (nearest-rank).
    p50_session_ns: u64,
    p99_session_ns: u64,
    /// Aggregate what-if evaluations per second over the big fleet's
    /// wall time (replay backend: scheduler + seam + tape lookups).
    whatif_qps: f64,
    degraded_tenants: usize,
    /// The big fleet's report was bit-identical at 1 worker and at
    /// service parallelism (asserted before the artifact is written).
    deterministic_across_workers: bool,
}

/// A mixed-benchmark roster of what-if tenants: `sessions` sessions
/// each, candidate-count cycled 3..=5 so the tapes cover single- and
/// two-column configurations.
fn roster(
    n_tenants: usize,
    sessions: usize,
    root_seed: u64,
    backend: &dyn Fn(usize) -> BackendSpec,
) -> FleetSpec {
    let mut fleet = FleetSpec::new(root_seed);
    for i in 0..n_tenants {
        let benchmark = if i % 2 == 0 {
            Benchmark::TpcH
        } else {
            Benchmark::TpcDs
        };
        let mut tenant = TenantSpec::new(format!("tenant-{i:03}"), benchmark).backend(backend(i));
        for s in 0..sessions {
            tenant = tenant.session(SessionRequest::WhatIf {
                configs: 3 + (i + s) % 3,
            });
        }
        fleet = fleet.tenant(tenant);
    }
    fleet
}

/// Record a roster's tapes, then rebuild the same roster over
/// [`BackendSpec::Replay`].
fn record_then_replay(n_tenants: usize, sessions: usize, root_seed: u64) -> FleetSpec {
    let recorded = roster(n_tenants, sessions, root_seed, &|_| {
        BackendSpec::SimRecording
    })
    .workers(0)
    .run(&TraceOutputs::disabled());
    assert_eq!(
        recorded.report.degraded_tenants(),
        0,
        "recording fleet must complete cleanly"
    );
    let tapes = recorded.tapes;
    roster(n_tenants, sessions, root_seed, &|i| {
        BackendSpec::Replay(
            tapes[i]
                .clone()
                .expect("every recording tenant produced a tape"),
        )
    })
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("serve");
    let smoke = bench.smoke;
    let mut c = bench.criterion(10);

    // --- criterion worker grid over a medium replay fleet -------------
    let (grid_tenants, grid_sessions) = if smoke { (3, 2) } else { (16, 4) };
    let workers_grid: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    eprintln!("[setup] recording the worker-grid fleet's tapes...");
    let grid_fleet = record_then_replay(grid_tenants, grid_sessions, 97);
    for &workers in workers_grid {
        let fleet = grid_fleet.clone().workers(workers);
        c.bench_function(&format!("serve/replay_fleet_w{workers}"), |b| {
            b.iter(|| {
                let run = fleet.run(&TraceOutputs::disabled());
                assert_eq!(run.report.degraded_tenants(), 0);
                black_box(run.report.whatif_evals())
            })
        });
    }

    // --- the big fleet: >= 1000 sessions, replayed without a simulator
    let (big_tenants, big_sessions) = if smoke { (4, 3) } else { (128, 8) };
    eprintln!(
        "[setup] recording the {big_tenants}-tenant / {}-session fleet...",
        big_tenants * big_sessions
    );
    let big_fleet = record_then_replay(big_tenants, big_sessions, 131);
    eprintln!("[run] replaying at service parallelism...");
    let service = big_fleet.clone().workers(0).run(&TraceOutputs::disabled());
    eprintln!("[run] replaying at 1 worker (determinism cross-check)...");
    let serial = big_fleet.clone().workers(1).run(&TraceOutputs::disabled());
    let deterministic = service.report == serial.report;
    assert!(
        deterministic,
        "fleet report drifted between 1 worker and service parallelism"
    );
    assert_eq!(service.report.degraded_tenants(), 0);
    let sessions_total = service.report.completed_sessions();
    let whatif_evals_total = service.report.whatif_evals();
    let p50 = service.timing.percentile_nanos(0.50);
    let p99 = service.timing.percentile_nanos(0.99);
    let wall_secs = service.timing.wall_nanos as f64 / 1e9;
    let whatif_qps = if wall_secs > 0.0 {
        whatif_evals_total as f64 / wall_secs
    } else {
        0.0
    };

    let cores = pipa_bench::cli::cores_available();
    println!("\ncores available: {cores}");
    println!(
        "big fleet: {big_tenants} tenants, {sessions_total} sessions, {whatif_evals_total} what-if evals"
    );
    println!("session latency: p50 {p50} ns, p99 {p99} ns");
    println!("aggregate what-if throughput: {whatif_qps:.0} evals/s");
    println!("deterministic across workers: {deterministic}");

    let lines = bench.lines();
    let med = |id: &str| pipa_bench::cli::median_of(&lines, id);
    let artifact = BenchArtifact {
        id: "BENCH_serve".to_string(),
        description: "multi-tenant session-fleet throughput over the replay backend: \
                      criterion worker grid on a medium fleet plus a >=1000-session \
                      fleet for p50/p99 session latency and aggregate what-if QPS, \
                      bit-identical across worker counts"
            .to_string(),
        tenants: big_tenants,
        sessions_total,
        whatif_evals_total,
        bench_fleet_tenants: grid_tenants,
        bench_fleet_sessions: grid_fleet.total_sessions(),
        cores_available: cores,
        median_fleet_ns: Medians {
            replay_fleet_w1: med("serve/replay_fleet_w1"),
            replay_fleet_w2: med("serve/replay_fleet_w2"),
            replay_fleet_w4: med("serve/replay_fleet_w4"),
            replay_fleet_w8: med("serve/replay_fleet_w8"),
        },
        p50_session_ns: p50,
        p99_session_ns: p99,
        whatif_qps,
        degraded_tenants: service.report.degraded_tenants(),
        deterministic_across_workers: deterministic,
    };
    bench.write_artifact(&artifact);
}
