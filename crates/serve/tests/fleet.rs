//! Fleet-level guarantees, in the style of `pipa-core`'s
//! `tests/determinism.rs`: worker-count invariance of reports and merged
//! traces, record→replay bit-equality, and failure isolation.

use pipa_obs::{MemorySink, TraceOutputs};
use pipa_serve::{BackendSpec, FleetSpec, InjectorKind, SessionRequest, TenantSpec};
use pipa_workload::Benchmark;

/// A small mixed fleet: TPC-H and TPC-DS tenants, what-if traffic plus a
/// recommendation and one full stress test.
fn mixed_fleet(workers: usize) -> FleetSpec {
    let mut fleet = FleetSpec::new(42).workers(workers);
    for (i, name) in ["acme", "globex", "initech", "umbrella"].iter().enumerate() {
        let benchmark = if i % 2 == 0 {
            Benchmark::TpcH
        } else {
            Benchmark::TpcDs
        };
        let mut tenant = TenantSpec::new(*name, benchmark)
            .session(SessionRequest::WhatIf { configs: 6 })
            .session(SessionRequest::Recommend)
            .session(SessionRequest::WhatIf { configs: 3 });
        if i == 0 {
            tenant = tenant.session(SessionRequest::Stress {
                injector: InjectorKind::Tp,
                injection_size: 4,
            });
        }
        fleet = fleet.tenant(tenant);
    }
    fleet
}

fn traced_run(fleet: &FleetSpec) -> (pipa_serve::FleetRun, String) {
    let sink = MemorySink::new();
    let out = TraceOutputs::with_sinks(Some(Box::new(sink.clone())), None);
    let run = fleet.run(&out);
    (run, sink.contents())
}

#[test]
fn fleet_report_and_trace_are_worker_count_invariant() {
    let (base, base_trace) = traced_run(&mixed_fleet(1));
    assert_eq!(base.report.degraded_tenants(), 0);
    assert_eq!(base.report.completed_sessions(), 13);
    assert!(base.report.whatif_evals() > 0);
    for workers in [2, 8] {
        let (run, trace) = traced_run(&mixed_fleet(workers));
        assert_eq!(
            run.report, base.report,
            "report drifted at workers={workers}"
        );
        assert_eq!(trace, base_trace, "trace drifted at workers={workers}");
    }
    // The timing channel has the right shape even though its values are
    // wall-clock: one latency per completed session.
    assert_eq!(base.timing.session_nanos.len(), 13);
    assert!(base.timing.wall_nanos > 0);
}

/// The registry-opened target classes serve like the built-ins: a fleet
/// mixing a built-in advisor on the simulator, the in-context advisor,
/// and a tenant whose backend is the learned-index structure produces a
/// report and merged trace that are byte-identical across worker counts.
#[test]
fn mixed_target_fleet_is_worker_count_invariant() {
    use pipa_ia::AdvisorSpec;

    let mixed = |workers| {
        FleetSpec::new(29)
            .workers(workers)
            .tenant(
                TenantSpec::new("builtin-sim", Benchmark::TpcH)
                    .session(SessionRequest::WhatIf { configs: 4 })
                    .session(SessionRequest::Recommend),
            )
            .tenant(
                TenantSpec::new("incontext-sim", Benchmark::TpcH)
                    .advisor(AdvisorSpec::new("incontext"))
                    .session(SessionRequest::Recommend)
                    .session(SessionRequest::Stress {
                        injector: InjectorKind::Tp,
                        injection_size: 4,
                    }),
            )
            .tenant(
                TenantSpec::new("learned-backend", Benchmark::TpcH)
                    .backend(BackendSpec::LearnedIndex)
                    .session(SessionRequest::WhatIf { configs: 3 })
                    .session(SessionRequest::Recommend),
            )
    };
    let (base, base_trace) = traced_run(&mixed(1));
    assert_eq!(base.report.degraded_tenants(), 0);
    assert_eq!(base.report.completed_sessions(), 6);
    assert_eq!(base.report.tenants[1].advisor, "InContext");
    assert_eq!(base.report.tenants[2].backend, "learned");
    for workers in [2, 8] {
        let (run, trace) = traced_run(&mixed(workers));
        assert_eq!(
            run.report, base.report,
            "report drifted at workers={workers}"
        );
        assert_eq!(trace, base_trace, "trace drifted at workers={workers}");
    }
}

#[test]
fn recorded_fleet_replays_bit_exactly_without_a_simulator() {
    // Phase 1: record. Same roster as phase 2, but costs answered by the
    // simulator with a per-tenant tape capturing every per-query cost.
    let record = |spec: BackendSpec| {
        FleetSpec::new(7)
            .workers(2)
            .tenant(
                TenantSpec::new("tape-h", Benchmark::TpcH)
                    .backend(spec.clone())
                    .session(SessionRequest::WhatIf { configs: 5 })
                    .session(SessionRequest::WhatIf { configs: 2 }),
            )
            .tenant(
                TenantSpec::new("tape-ds", Benchmark::TpcDs)
                    .backend(spec)
                    .session(SessionRequest::WhatIf { configs: 4 }),
            )
    };
    let recorded = record(BackendSpec::SimRecording).run(&TraceOutputs::disabled());
    assert_eq!(recorded.report.degraded_tenants(), 0);
    let tapes: Vec<_> = recorded
        .tapes
        .iter()
        .map(|t| t.clone().expect("recording tenants produce tapes"))
        .collect();
    assert!(tapes.iter().all(|t| t.est_len() > 0));

    // Phase 2: replay. No simulator behind the seam; every cost comes
    // from the tape, bit-for-bit.
    let mut replay = FleetSpec::new(7).workers(8);
    let rec = record(BackendSpec::Sim); // roster template for names/sessions
    for (tenant, tape) in rec.tenants.iter().zip(tapes) {
        replay = replay.tenant(tenant.clone().backend(BackendSpec::Replay(tape)));
    }
    let replayed = replay.run(&TraceOutputs::disabled());
    assert_eq!(replayed.report.degraded_tenants(), 0);
    for (r, b) in replayed.report.tenants.iter().zip(&recorded.report.tenants) {
        assert_eq!(
            r.sessions, b.sessions,
            "tenant {} drifted in replay",
            r.tenant
        );
        assert_eq!(r.backend, "replay");
    }
}

#[test]
fn a_poisoned_tenants_cost_error_never_perturbs_siblings() {
    let honest = |fleet: FleetSpec| {
        fleet
            .tenant(
                TenantSpec::new("honest-h", Benchmark::TpcH)
                    .session(SessionRequest::WhatIf { configs: 4 })
                    .session(SessionRequest::Recommend),
            )
            .tenant(
                TenantSpec::new("honest-ds", Benchmark::TpcDs)
                    .session(SessionRequest::WhatIf { configs: 4 }),
            )
    };
    // Baseline: the honest tenants alone.
    let baseline = honest(FleetSpec::new(3).workers(2)).run(&TraceOutputs::disabled());
    assert_eq!(baseline.report.degraded_tenants(), 0);

    // Same fleet plus a tenant whose empty replay tape fails every
    // lookup with a `ReplayMiss` on its first session.
    let poisoned_spec = |workers| {
        honest(FleetSpec::new(3).workers(workers)).tenant(
            TenantSpec::new("mallory", Benchmark::TpcH)
                .backend(BackendSpec::Replay(pipa_cost::Tape::default()))
                .session(SessionRequest::WhatIf { configs: 4 })
                .session(SessionRequest::WhatIf { configs: 4 }),
        )
    };
    let (poisoned, poisoned_trace) = traced_run(&poisoned_spec(2));

    // The failing tenant is degraded at its first session, with the
    // replay miss recorded verbatim — and nothing else.
    let mallory = &poisoned.report.tenants[2];
    let degraded = mallory.degraded.as_ref().expect("mallory degrades");
    assert_eq!(degraded.session, 0);
    assert!(degraded.error.contains("replay"), "{}", degraded.error);
    assert!(mallory.sessions.is_empty());
    assert_eq!(poisoned.report.degraded_tenants(), 1);

    // Sibling tenants' reports are bit-exactly the baseline's. (Their
    // seeds derive from the fleet root by tenant index, and mallory was
    // appended after them, so the derivations line up.)
    assert_eq!(poisoned.report.tenants[0], baseline.report.tenants[0]);
    assert_eq!(poisoned.report.tenants[1], baseline.report.tenants[1]);

    // The failing session's partial trace is not dropped — its events up
    // to the replay miss are flushed after mallory's (zero) completed
    // sessions — and the merged trace stays worker-count invariant even
    // with a degraded tenant in the roster.
    assert!(
        poisoned_trace.contains("mallory"),
        "degraded session left no trace:\n{poisoned_trace}"
    );
    for workers in [1, 8] {
        let (_, trace) = traced_run(&poisoned_spec(workers));
        assert_eq!(
            trace, poisoned_trace,
            "degraded trace drifted at workers={workers}"
        );
    }
}

#[test]
fn a_panicking_session_keeps_its_partial_trace() {
    // PR 7 shipped with a known gap: an `Err` session parked its trace
    // for flushing, but a *panicking* session unwound straight through
    // the recorder and lost every event it had emitted. The session body
    // now runs under catch_unwind inside the recording scope, so the
    // buffer recorded before the unwind survives as the degraded
    // session's trace.
    let chaotic = |workers| {
        FleetSpec::new(11)
            .workers(workers)
            .tenant(
                TenantSpec::new("steady", Benchmark::TpcH)
                    .session(SessionRequest::WhatIf { configs: 4 })
                    .session(SessionRequest::WhatIf { configs: 2 }),
            )
            .tenant(
                TenantSpec::new("kaboom", Benchmark::TpcDs)
                    .session(SessionRequest::WhatIf { configs: 3 })
                    .session(SessionRequest::ChaosPanic {
                        message: "induced fault".to_string(),
                    })
                    .session(SessionRequest::WhatIf { configs: 3 }),
            )
    };
    let (run, trace) = traced_run(&chaotic(2));

    // The panicking tenant degrades at its panic session with the
    // scheduler's canonical rendering; its earlier session completed and
    // its later session never ran.
    let kaboom = &run.report.tenants[1];
    let degraded = kaboom.degraded.as_ref().expect("kaboom degrades");
    assert_eq!(degraded.session, 1);
    assert_eq!(degraded.error, "session panicked: induced fault");
    assert_eq!(kaboom.sessions.len(), 1);
    assert_eq!(run.report.degraded_tenants(), 1);

    // The sibling tenant is untouched.
    assert!(run.report.tenants[0].degraded.is_none());
    assert_eq!(run.report.tenants[0].sessions.len(), 2);

    // The partial trace survived the unwind: the event emitted just
    // before the panic is in the merged stream, attributed to the
    // panicking session's context.
    let chaos_line = trace
        .lines()
        .find(|l| l.contains("\"event\":\"chaos_panic\""))
        .unwrap_or_else(|| panic!("panicking session left no trace:\n{trace}"));
    assert!(chaos_line.contains("\"tenant\":\"kaboom\""), "{chaos_line}");
    assert!(chaos_line.contains("\"session\":1"), "{chaos_line}");
    assert!(chaos_line.contains("induced fault"), "{chaos_line}");

    // And the merged stream stays byte-identical across worker counts,
    // degraded trace included.
    for workers in [1, 8] {
        let (rerun, retrace) = traced_run(&chaotic(workers));
        assert_eq!(
            rerun.report, run.report,
            "report drifted at workers={workers}"
        );
        assert_eq!(
            retrace, trace,
            "degraded trace drifted at workers={workers}"
        );
    }
}

#[test]
fn fleet_report_serializes_with_degraded_markers() {
    let run = FleetSpec::new(1)
        .tenant(
            TenantSpec::new("t", Benchmark::TpcH)
                .backend(BackendSpec::Replay(pipa_cost::Tape::default()))
                .session(SessionRequest::WhatIf { configs: 1 }),
        )
        .run(&TraceOutputs::disabled());
    let text = serde_json::to_string_pretty(&run.report).expect("serializes");
    assert!(text.contains("\"degraded\""));
    assert!(text.contains("replay"));
}
