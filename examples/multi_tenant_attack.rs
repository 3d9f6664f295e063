//! The paper's motivating scenario (§1) on the serving layer: a
//! multi-tenant cloud database where one tenant runs a PIPA poisoning
//! attack — expressed through `pipa-serve`'s typed fleet API.
//!
//! Three honest tenants (each with their *own* advisor, schema
//! statistics, and seed stream) serve what-if and recommendation
//! traffic. A fourth tenant, "mallory", runs the full probe → inject →
//! retrain → measure stress pipeline against her advisor. The fleet
//! report shows the attack degrading mallory's recommendations while
//! the honest tenants' numbers are untouched — per-tenant advisors
//! contain the blast radius that a *shared* advisor (the paper's threat
//! model) cannot. A fifth tenant with a corrupt replay tape then
//! demonstrates failure isolation: it degrades, the fleet survives.
//!
//! ```text
//! cargo run --release --example multi_tenant_attack
//! ```

use pipa::ia::AdvisorSpec;
use pipa::obs::TraceOutputs;
use pipa::serve::{
    BackendSpec, FleetSpec, InjectorKind, SessionReport, SessionRequest, TenantSpec,
};
use pipa::workload::Benchmark;

fn main() {
    // The roster: honest tenants on their own benchmarks and advisors,
    // each serving a morning of what-if traffic plus a recommendation.
    let honest = [
        ("acme", Benchmark::TpcH, "dbabandit"),
        ("globex", Benchmark::TpcDs, "swirl"),
        ("initech", Benchmark::TpcH, "dqn"),
    ];
    let mut fleet = FleetSpec::new(7).workers(0);
    for (name, benchmark, advisor) in honest {
        fleet = fleet.tenant(
            TenantSpec::new(name, benchmark)
                .advisor(AdvisorSpec::new(advisor))
                .session(SessionRequest::WhatIf { configs: 6 })
                .session(SessionRequest::Recommend),
        );
    }
    // Mallory attacks *her own* advisor with PIPA (N̂ = 18, §6.1) — in
    // the shared-advisor world of the paper this injection would poison
    // everyone's recommendations.
    fleet = fleet.tenant(TenantSpec::new("mallory", Benchmark::TpcH).session(
        SessionRequest::Stress {
            injector: InjectorKind::Pipa,
            injection_size: 18,
        },
    ));
    // And one tenant whose recorded tape is corrupt (empty): every
    // lookup misses, the tenant degrades, the fleet keeps serving.
    fleet = fleet.tenant(
        TenantSpec::new("corrupt-tape", Benchmark::TpcH)
            .backend(BackendSpec::Replay(pipa::cost::Tape::default()))
            .session(SessionRequest::WhatIf { configs: 4 }),
    );

    println!(
        "fleet: {} tenants, {} sessions queued\n",
        fleet.tenants.len(),
        fleet.total_sessions()
    );
    let run = fleet.run(&TraceOutputs::disabled());

    for tenant in &run.report.tenants {
        println!(
            "tenant {:12} [{} / {}]",
            tenant.tenant, tenant.advisor, tenant.backend
        );
        for (s, session) in tenant.sessions.iter().enumerate() {
            match session {
                SessionReport::WhatIf {
                    evals, best_cost, ..
                } => println!("  session {s}: what-if  {evals:5} evals, best cost {best_cost:.0}"),
                SessionReport::Recommend { indexes, cost } => {
                    println!("  session {s}: recommend cost {cost:.0} via {indexes:?}")
                }
                SessionReport::Stress(o) => {
                    println!(
                        "  session {s}: stress   AD {:+.3} (toxic: {}) — {:.0} → {:.0}",
                        o.ad, o.toxic, o.baseline_cost, o.poisoned_cost
                    );
                    println!("             clean indexes:    {:?}", o.baseline_indexes);
                    println!("             poisoned indexes: {:?}", o.poisoned_indexes);
                }
            }
        }
        if let Some(d) = &tenant.degraded {
            println!("  DEGRADED at session {}: {}", d.session, d.error);
        }
        println!();
    }

    println!(
        "{} of {} tenants degraded; {} sessions completed.",
        run.report.degraded_tenants(),
        run.report.tenants.len(),
        run.report.completed_sessions()
    );
    println!(
        "\nMallory's poisoning lands entirely inside her own tenant, and the\n\
         corrupt tape takes down one tenant, not the fleet: per-tenant\n\
         advisors and per-session failure isolation contain exactly the\n\
         blast radius the paper's shared-advisor threat model exposes."
    );
}
