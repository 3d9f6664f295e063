//! Figure 8: learning-curve analysis of the local-optimum trap.
//!
//! For a trial-based victim, the per-trial reward trace during inference
//! shows the mechanism: after a PIPA injection the reward settles at a
//! *positive but sub-optimal* plateau (no incentive to explore), while
//! after an I-L injection the near-zero rewards push the advisor to
//! explore/regenerate and it recovers. Panel (d) re-trains SWIRL on the
//! clean workload after poisoning and shows recovery.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin fig8_local_optimum
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, make_injector, normal_workload, InjectorKind};
use pipa_core::harness::{strike, update, Update};
use pipa_core::par_map_traced;
use pipa_core::report::ExperimentArtifact;
use pipa_core::CellSeed;
use pipa_cost::workload_benefit;
use pipa_ia::{AdvisorSpec, BuildCtx};
use pipa_obs::CellCtx;
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    panel: String,
    advisor: String,
    injector: String,
    /// Per-trial returns at inference time (after poisoning).
    trace: Vec<f64>,
    /// Workload benefit of the baseline (clean) recommendation.
    clean_benefit: f64,
    /// Workload benefit of the post-poisoning recommendation.
    poisoned_benefit: f64,
    /// Benefit after an additional clean re-training (panel d only).
    retrained_benefit: Option<f64>,
}

fn summarize(trace: &[f64], take: usize) -> String {
    let window = trace.len().min(take).max(1);
    let head: f64 = trace.iter().take(window).sum::<f64>() / window as f64;
    let tail: f64 = trace.iter().rev().take(window).sum::<f64>() / window as f64;
    format!("head {head:+.2} → tail {tail:+.2} (len {})", trace.len())
}

fn main() {
    let args = ExpArgs::parse(1);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let normal = normal_workload(&cfg, args.seed);
    let mut curves = Vec::new();

    // Panels (a)-(c): trial-based victims, PIPA vs I-L. Panel (d): SWIRL
    // — one-off prediction after poisoning, then a full clean re-training
    // restores the optimal indexes ("three training stages").
    // The eight (panel, victim, injector) cells are independent; run them
    // on the worker pool and print in panel order afterwards.
    let victims = [
        ("a", "dqn"),
        ("b", "dbabandit"),
        ("c", "drlindex"),
        ("d", "swirl"),
    ];
    let grid: Vec<(&str, AdvisorSpec, InjectorKind)> = victims
        .iter()
        .flat_map(|&(panel, kind)| {
            [InjectorKind::Pipa, InjectorKind::IL]
                .into_iter()
                .map(move |inj| (panel, AdvisorSpec::new(kind), inj))
        })
        .collect();
    let out = args.trace_outputs();
    let cells = par_map_traced(
        args.jobs,
        grid,
        &out,
        |_, (panel, kind, injector_kind)| {
            CellCtx::new(args.seed)
                .field("panel", *panel)
                .field("advisor", kind.label())
                .field("injector", injector_kind.label())
        },
        |_, (panel, kind, injector_kind)| {
            let mut advisor = kind
                .build_with(BuildCtx::new(cfg.preset, args.seed))
                .expect("built-in advisor kind");
            update(advisor.as_mut(), &db, &normal, Update::Train).expect("train");
            let clean = advisor.recommend(&db, &normal).expect("recommend");
            let clean_benefit = workload_benefit(&db, &normal, &clean).expect("benefit");
            let mut injector = make_injector(injector_kind, &cfg, CellSeed::raw(args.seed));
            let struck = strike(
                advisor.as_mut(),
                &db,
                Some(injector.as_mut()),
                cfg.injection_size,
                args.seed,
                &normal,
                None,
            )
            .expect("injection build");
            update(advisor.as_mut(), &db, &struck.observed, Update::Retrain).expect("retrain");
            let poisoned = advisor.recommend(&db, &normal).expect("recommend");
            let poisoned_benefit = workload_benefit(&db, &normal, &poisoned).expect("benefit");
            let retrained_benefit = (panel == "d").then(|| {
                update(advisor.as_mut(), &db, &normal, Update::Retrain).expect("retrain");
                let recovered = advisor.recommend(&db, &normal).expect("recommend");
                workload_benefit(&db, &normal, &recovered).expect("benefit")
            });
            Curve {
                panel: panel.to_string(),
                advisor: kind.label(),
                injector: injector_kind.label().to_string(),
                trace: advisor.reward_trace().to_vec(),
                clean_benefit,
                poisoned_benefit,
                retrained_benefit,
            }
        },
    );
    out.flush();
    for c in cells {
        match c.retrained_benefit {
            None => println!(
                "panel ({}) {} after {:5}: clean benefit {:.3} → poisoned {:.3} | inference trace: {}",
                c.panel,
                c.advisor,
                c.injector,
                c.clean_benefit,
                c.poisoned_benefit,
                summarize(&c.trace, 10)
            ),
            Some(retrained) => println!(
                "panel (d) SWIRL after {:5}: clean {:.3} → poisoned {:.3} → clean-retrained {:.3}",
                c.injector, c.clean_benefit, c.poisoned_benefit, retrained
            ),
        }
        curves.push(c);
    }

    println!(
        "\nShape: PIPA leaves a positive-but-suboptimal plateau (the trap);\n\
         I-L collapses rewards toward zero, which triggers exploration /\n\
         arm updates and lets trial-based advisors escape; SWIRL recovers\n\
         only after a full clean re-training."
    );

    let artifact = ExperimentArtifact {
        id: "fig8_local_optimum".to_string(),
        description: "Inference reward traces after PIPA vs I-L poisoning".to_string(),
        params: args.summary(),
        results: curves,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
