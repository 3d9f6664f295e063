//! Record a tenant fleet's costs once, then serve the same fleet with
//! no simulator at all: every cost answered bit-for-bit from the tape.
//!
//! Phase 1 runs a small mixed fleet over
//! [`BackendSpec::SimRecording`], capturing one tape per tenant. Phase 2
//! rebuilds the identical roster over [`BackendSpec::Replay`] and runs
//! it again — the deterministic session reports must match exactly,
//! and the replay pass is typically much faster because the analytical
//! cost model is out of the loop.
//!
//! ```text
//! cargo run --release --example fleet_replay
//! ```

use pipa::obs::TraceOutputs;
use pipa::serve::{BackendSpec, FleetSpec, SessionRequest, TenantSpec};
use pipa::workload::Benchmark;

/// The shared roster shape: only the backend differs between phases.
fn fleet(backend: &dyn Fn(usize) -> BackendSpec) -> FleetSpec {
    let mut fleet = FleetSpec::new(42).workers(0);
    for i in 0..6 {
        let benchmark = if i % 2 == 0 {
            Benchmark::TpcH
        } else {
            Benchmark::TpcDs
        };
        fleet = fleet.tenant(
            TenantSpec::new(format!("tenant-{i}"), benchmark)
                .backend(backend(i))
                .repeat_session(SessionRequest::WhatIf { configs: 5 }, 4),
        );
    }
    fleet
}

fn main() {
    // Phase 1: record. The simulator answers every cost and a
    // per-tenant tape captures each (query, config) → cost pair.
    println!("phase 1: recording fleet (simulator + tape)...");
    let recorded = fleet(&|_| BackendSpec::SimRecording).run(&TraceOutputs::disabled());
    assert_eq!(recorded.report.degraded_tenants(), 0);
    let entries: usize = recorded.tapes.iter().flatten().map(|t| t.est_len()).sum();
    println!(
        "  {} sessions, {} tape entries captured in {:.1} ms",
        recorded.report.completed_sessions(),
        entries,
        recorded.timing.wall_nanos as f64 / 1e6
    );

    // Phase 2: replay. Same roster, but the backend is the tape — no
    // simulator behind the `CostBackend` seam. A lookup miss would
    // degrade the tenant rather than fabricate a cost.
    println!("phase 2: replay fleet (tape only, simulator-free)...");
    let tapes = recorded.tapes;
    let replayed =
        fleet(&|i| BackendSpec::Replay(tapes[i].clone().expect("recording tenants produce tapes")))
            .run(&TraceOutputs::disabled());
    assert_eq!(replayed.report.degraded_tenants(), 0);
    println!(
        "  {} sessions replayed in {:.1} ms",
        replayed.report.completed_sessions(),
        replayed.timing.wall_nanos as f64 / 1e6
    );

    // The deterministic payloads are identical, bit for bit — only the
    // backend label differs.
    for (r, b) in replayed.report.tenants.iter().zip(&recorded.report.tenants) {
        assert_eq!(
            r.sessions, b.sessions,
            "tenant {} drifted in replay",
            r.tenant
        );
    }
    let per_session =
        replayed.timing.wall_nanos as f64 / 1e3 / replayed.report.completed_sessions() as f64;
    println!(
        "\nreplay reports are bit-identical to the recorded run\n\
         ({:.1} µs/session over the tape; p99 session latency {:.1} µs)",
        per_session,
        replayed.timing.percentile_nanos(0.99) as f64 / 1e3
    );
}
