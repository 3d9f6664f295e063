//! Defense ablation (extension beyond the paper): how much of PIPA's
//! degradation do deployment-side mitigations remove?
//!
//! Compares, on the same victims and seeds:
//! * no defense (the paper's setting);
//! * a retraining canary with 2% / 10% tolerances (roll back deployments
//!   that regress a held-out canary workload);
//! * provenance screening of the training set before retraining.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin ablation_defense -- --runs 5
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::defense::ProvenanceFilter;
use pipa_core::experiment::{build_db, make_injector, normal_workload, InjectorKind};
use pipa_core::harness::StressTest;
use pipa_core::metrics::Stats;
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_core::stream::DefensePolicy;
use pipa_ia::{AdvisorKind, BuildCtx, TrajectoryMode};
use pipa_obs::CellCtx;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    advisor: String,
    defense: String,
    mean_ad: f64,
    rolled_back_or_dropped: f64,
}

fn main() {
    let args = ExpArgs::parse(5);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let victims = [
        AdvisorKind::Dqn(TrajectoryMode::Best),
        AdvisorKind::DbaBandit(TrajectoryMode::Best),
        AdvisorKind::Swirl,
    ];
    // The screen is the default filter against `W` alone: a one-shot
    // stress test has no history to slide.
    let screen = DefensePolicy::Provenance {
        max_novel_fraction: ProvenanceFilter::default().max_novel_fraction,
        history: 1,
    };
    let defenses = [
        ("none", DefensePolicy::None),
        ("canary_2pct", DefensePolicy::Canary { tolerance: 0.02 }),
        ("canary_10pct", DefensePolicy::Canary { tolerance: 0.10 }),
        ("provenance", screen),
    ];

    println!(
        "Defense ablation — PIPA vs mitigations on {} ({} runs)",
        args.benchmark.name(),
        args.runs
    );

    let runs: Vec<u64> = (0..args.runs as u64).collect();
    let trace_out = args.trace_outputs();
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for victim in victims {
        for (trace_label, defense) in defenses {
            let outs = par_map_traced(
                args.jobs,
                runs.clone(),
                &trace_out,
                |_, run| {
                    CellCtx::new(args.cell_seed(*run).get())
                        .field("advisor", victim.label())
                        .field("defense", trace_label)
                        .field("run", *run)
                },
                |_, run| {
                    let seed = args.cell_seed(run);
                    let normal = normal_workload(&cfg, seed.get());
                    let mut advisor = victim.build_with(BuildCtx::new(cfg.preset, seed.get()));
                    let mut injector = make_injector(InjectorKind::Pipa, &cfg, seed);
                    StressTest::new(&db, &normal)
                        .injection_size(cfg.injection_size)
                        .actual_cost(cfg.materialize.is_some())
                        .seed(seed)
                        .defense(defense)
                        .run_detailed(advisor.as_mut(), injector.as_mut())
                        .expect("stress test against the simulator backend")
                },
            );
            let ads: Vec<f64> = outs.iter().map(|r| r.outcome.ad).collect();
            let s = Stats::from_samples(&ads);
            let rollbacks: usize = outs.iter().map(|r| usize::from(r.rolled_back)).sum();
            let dropped: usize = outs.iter().map(|r| r.screened_out).sum();
            // (artifact label, table label, table action, actions taken)
            let (label, shown, action, actions) = match defense {
                DefensePolicy::None => ("none".into(), "none".into(), "-".into(), 0),
                DefensePolicy::Canary { tolerance } => (
                    format!("canary_{tolerance}"),
                    format!("canary ±{:.0}%", tolerance * 100.0),
                    format!("{rollbacks}/{} rollbacks", args.runs),
                    rollbacks,
                ),
                DefensePolicy::Provenance { .. } => (
                    "provenance".into(),
                    "provenance screen".into(),
                    format!("{dropped} queries dropped"),
                    dropped,
                ),
            };
            rows.push(vec![
                victim.label(),
                shown,
                format!("{:+.3}", s.mean),
                action,
            ]);
            payload.push(Row {
                advisor: victim.label(),
                defense: label,
                mean_ad: s.mean,
                rolled_back_or_dropped: actions as f64 / args.runs as f64,
            });
        }
    }

    args.finish_trace(&trace_out, &db);
    println!(
        "{}",
        render_table(&["advisor", "defense", "mean AD", "actions"], &rows)
    );
    println!(
        "\nReading: the canary bounds *deployed* degradation by construction;\n\
         provenance screening removes the attack at its source when the\n\
         injection's column fingerprint diverges from history."
    );

    let artifact = ExperimentArtifact {
        id: "ablation_defense".to_string(),
        description: "Residual PIPA degradation under defenses".to_string(),
        params: args.summary(),
        results: payload,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
