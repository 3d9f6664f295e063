//! Figure 12: the probing-sampler hyperparameters (Eq. 9).
//!
//! Panel (a): AD as a function of α — larger α moves the sampling
//! distribution more aggressively per observation, raising variance; the
//! sweet spot sits near α = 0.1.
//!
//! Panel (b): β = 1/(i + n) trade-off — larger β (smaller i) retires
//! unproductive columns sooner, so the estimate *converges* in fewer
//! epochs but its segment assignment drifts from the β = 0 reference
//! (the error rate). We report convergence epochs and segment error.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin fig12_alpha_beta -- --runs 5
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, normal_workload, InjectorKind};
use pipa_core::harness::{update, StressTest, Update};
use pipa_core::metrics::Stats;
use pipa_core::par_map_traced;
use pipa_core::preference::{segment, SegmentConfig};
use pipa_core::probe::{probe, ProbeConfig};
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_core::TargetedInjector;
use pipa_ia::{AdvisorSpec, BuildCtx};
use pipa_obs::CellCtx;
use serde::Serialize;

const ALPHAS: [f64; 6] = [0.01, 0.05, 0.1, 0.5, 1.0, 10.0];
const BETA_IS: [f64; 5] = [20.0, 10.0, 5.0, 2.0, 4.0 / 3.0];

#[derive(Serialize)]
struct AlphaPoint {
    alpha: f64,
    mean_ad: f64,
    std_ad: f64,
}

#[derive(Serialize)]
struct BetaPoint {
    beta_i: f64,
    beta: f64,
    convergence_epochs: f64,
    segment_error: f64,
}

fn main() {
    let args = ExpArgs::parse(5);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let victim = AdvisorSpec::new("dqn");
    let l = db.database().schema().num_columns();

    // Panel (a): α sweep via full stress tests.
    println!("Figure 12(a) — AD vs α (victim DQN-b, {} runs)", args.runs);
    let grid: Vec<(usize, u64)> = (0..ALPHAS.len())
        .flat_map(|ai| (0..args.runs as u64).map(move |r| (ai, r)))
        .collect();
    let trace_out = args.trace_outputs();
    let alpha_outs = par_map_traced(
        args.jobs,
        grid,
        &trace_out,
        |_, &(ai, run)| {
            CellCtx::new(args.cell_seed(run).get())
                .field("panel", "a")
                .field("alpha", ALPHAS[ai])
                .field("run", run)
        },
        |_, (ai, run)| {
            let seed = args.cell_seed(run);
            let normal = normal_workload(&cfg, seed.get());
            let mut advisor = victim
                .build_with(BuildCtx::new(cfg.preset, seed.get()))
                .expect("built-in advisor kind");
            let mut injector = TargetedInjector::pipa(cfg.backend.generator(seed.get()));
            injector.probe_cfg = ProbeConfig {
                epochs: cfg.probe_epochs,
                queries_per_epoch: cfg.benchmark.default_workload_size(),
                alpha: ALPHAS[ai],
                seed: seed.get(),
                ..Default::default()
            };
            let out = StressTest::new(&db, &normal)
                .injection_size(cfg.injection_size)
                .actual_cost(cfg.materialize.is_some())
                .seed(seed)
                .run(advisor.as_mut(), &mut injector)
                .expect("stress test against the simulator backend");
            (ai, out.ad)
        },
    );
    let mut alpha_points = Vec::new();
    let mut rows = Vec::new();
    for (ai, &alpha) in ALPHAS.iter().enumerate() {
        let ads: Vec<f64> = alpha_outs
            .iter()
            .filter(|(i, _)| *i == ai)
            .map(|(_, ad)| *ad)
            .collect();
        let s = Stats::from_samples(&ads);
        rows.push(vec![
            format!("{alpha}"),
            format!("{:+.3}", s.mean),
            format!("{:.3}", s.std),
        ]);
        alpha_points.push(AlphaPoint {
            alpha,
            mean_ad: s.mean,
            std_ad: s.std,
        });
    }
    println!("{}", render_table(&["alpha", "mean AD", "std"], &rows));

    // Panel (b): β trade-off measured on the probing estimate itself,
    // against a β→0 (i = 1000) reference ranking.
    println!("\nFigure 12(b) — β = 1/(i+n) trade-off (probing on a trained DQN)");
    let mut beta_points = Vec::new();
    let mut rows = Vec::new();
    let _ = InjectorKind::Pipa;
    let grid: Vec<(usize, u64)> = (0..BETA_IS.len())
        .flat_map(|bi| (0..args.runs as u64).map(move |r| (bi, r)))
        .collect();
    let beta_outs = par_map_traced(
        args.jobs,
        grid,
        &trace_out,
        |_, &(bi, run)| {
            CellCtx::new(args.cell_seed(run).get())
                .field("panel", "b")
                .field("beta_i", BETA_IS[bi])
                .field("run", run)
        },
        |_, (bi, run)| {
            let beta_i = BETA_IS[bi];
            let seed = args.cell_seed(run);
            let normal = normal_workload(&cfg, seed.get());
            let mut advisor = victim
                .build_with(BuildCtx::new(cfg.preset, seed.get()))
                .expect("built-in advisor kind");
            update(advisor.as_mut(), &db, &normal, Update::Train).expect("train");
            let reference = {
                let mut gen = cfg.backend.generator(seed.get());
                let pcfg = ProbeConfig {
                    epochs: cfg.probe_epochs,
                    queries_per_epoch: cfg.benchmark.default_workload_size(),
                    beta_i: 1000.0,
                    seed: seed.get(),
                    ..Default::default()
                };
                probe(advisor.as_mut(), &db, gen.as_mut(), &pcfg).expect("probe")
            };
            let res = {
                let mut gen = cfg.backend.generator(seed.get());
                let pcfg = ProbeConfig {
                    epochs: cfg.probe_epochs,
                    queries_per_epoch: cfg.benchmark.default_workload_size(),
                    beta_i,
                    seed: seed.get(),
                    ..Default::default()
                };
                probe(advisor.as_mut(), &db, gen.as_mut(), &pcfg).expect("probe")
            };
            // Convergence: epochs until the running best column stops
            // changing.
            let best_final = *res.best_trace.last().expect("trace");
            let converged_at = res
                .best_trace
                .iter()
                .rposition(|&c| c != best_final)
                .map(|i| i + 2)
                .unwrap_or(1);
            // Error rate: fraction of columns assigned to a different
            // segment than the reference.
            let seg_cfg = SegmentConfig::default();
            let seg_a = segment(&res.preference, db.database().schema(), &seg_cfg);
            let seg_b = segment(&reference.preference, db.database().schema(), &seg_cfg);
            let seg_of = |segs: &pipa_core::Segments, c: pipa_sim::ColumnId| {
                if segs.top.contains(&c) {
                    0
                } else if segs.mid.contains(&c) {
                    1
                } else {
                    2
                }
            };
            let mismatches = db
                .database()
                .schema()
                .indexable_columns()
                .into_iter()
                .filter(|&c| seg_of(&seg_a, c) != seg_of(&seg_b, c))
                .count();
            (bi, converged_at as f64, mismatches as f64 / l as f64)
        },
    );
    trace_out.flush();
    for (bi, &beta_i) in BETA_IS.iter().enumerate() {
        let conv: Vec<f64> = beta_outs
            .iter()
            .filter(|(i, _, _)| *i == bi)
            .map(|(_, c, _)| *c)
            .collect();
        let err: Vec<f64> = beta_outs
            .iter()
            .filter(|(i, _, _)| *i == bi)
            .map(|(_, _, e)| *e)
            .collect();
        let cs = Stats::from_samples(&conv);
        let es = Stats::from_samples(&err);
        rows.push(vec![
            format!("{beta_i:.2}"),
            format!("{:.4}", 1.0 / (beta_i + l as f64)),
            format!("{:.1}", cs.mean),
            format!("{:.3}", es.mean),
        ]);
        beta_points.push(BetaPoint {
            beta_i,
            beta: 1.0 / (beta_i + l as f64),
            convergence_epochs: cs.mean,
            segment_error: es.mean,
        });
    }
    println!(
        "{}",
        render_table(&["i", "beta", "convergence epochs", "segment error"], &rows)
    );
    println!(
        "\nShape: very large α destabilizes AD; larger β converges in fewer\n\
         epochs at the price of a larger segment error (the paper picks\n\
         α = 0.1, β = 1/(10 + n))."
    );

    let artifact = ExperimentArtifact {
        id: "fig12_alpha_beta".to_string(),
        description: "Probing hyperparameter sweeps".to_string(),
        params: args.summary(),
        results: (alpha_points, beta_points),
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
