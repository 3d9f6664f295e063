//! Figure 1 (motivating example): a small proportion of extraneous toxic
//! workload noticeably degrades a learned advisor, while non-targeted
//! generators (the paper contrasts SQLsmith-style random SQL) do not
//! expose the weakness.
//!
//! Paper claim: "with only 1% extraneous toxic workloads, the execution
//! cost of the same testing workloads by IAs' indexes is increased by
//! 20%" (DQN victim).
//!
//! ```text
//! cargo run --release -p pipa-bench --bin fig1_motivation -- --runs 3
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, normal_workload, run_cell, InjectorKind};
use pipa_core::metrics::Stats;
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::AdvisorSpec;
use pipa_obs::CellCtx;

fn main() {
    let args = ExpArgs::parse(3);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let victim = AdvisorSpec::new("dqn");

    // Small injection: ~10% of the normal workload's query count (the
    // cost mass of 18 normal queries dwarfs a couple of injected ones;
    // the paper's "1%" is measured in query-mass proportion on far larger
    // training sets).
    let inj_size = (cfg.injection_size / 8).max(2);

    let mut cell_cfg = cfg.clone();
    cell_cfg.injection_size = inj_size;
    let grid: Vec<(InjectorKind, u64)> = [InjectorKind::Fsm, InjectorKind::Pipa]
        .iter()
        .flat_map(|&k| (0..args.runs as u64).map(move |r| (k, r)))
        .collect();
    let out = args.trace_outputs();
    let outs = par_map_traced(
        args.jobs,
        grid,
        &out,
        |_, &(kind, run)| {
            CellCtx::new(args.cell_seed(run).get())
                .field("injector", kind.label())
                .field("run", run)
        },
        |_, (kind, run)| {
            let seed = args.cell_seed(run);
            let normal = normal_workload(&cfg, seed.get());
            (
                kind,
                run_cell(&db, &normal, victim.clone(), kind, &cell_cfg, seed)
                    .expect("stress test against the simulator backend")
                    .ad,
            )
        },
    );
    out.flush();

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for kind in [InjectorKind::Fsm, InjectorKind::Pipa] {
        let ads: Vec<f64> = outs
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ad)| *ad)
            .collect();
        let s = Stats::from_samples(&ads);
        rows.push(vec![
            kind.label().to_string(),
            format!("{inj_size}"),
            format!("{:+.3}", s.mean),
            format!("{:+.3}", s.max),
            format!("{}", ads.iter().filter(|&&a| a > 0.0).count()),
        ]);
        payload.push((kind.label().to_string(), ads));
    }

    println!(
        "Figure 1 — motivating example (victim: DQN-b, {} runs)",
        args.runs
    );
    println!(
        "{}",
        render_table(&["injector", "N̂", "mean AD", "max AD", "toxic runs"], &rows)
    );
    println!(
        "Paper shape: the random generator cannot expose the weakness; the\n\
         targeted toxic injection increases the testing workload's cost by\n\
         a double-digit percentage even at a small injection size."
    );

    let artifact = ExperimentArtifact {
        id: "fig1_motivation".to_string(),
        description: "Small toxic injection vs random injection on DQN-b".to_string(),
        params: args.summary(),
        results: payload,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
