//! Figure 11: impact of the probing budget `P` (number of probing
//! epochs) on the attack, for a trial-based victim (DQN) and a one-off
//! victim (SWIRL).
//!
//! Paper shape claims: AD improves with more probing epochs because the
//! preference estimate sharpens, but only a few epochs already suffice
//! (P ≈ 4 for DQN, P ≈ 2 for SWIRL on TPC-H).
//!
//! ```text
//! cargo run --release -p pipa-bench --bin fig11_probing_epochs -- --runs 5
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa_core::metrics::Stats;
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::AdvisorSpec;
use pipa_obs::CellCtx;
use serde::Serialize;

const EPOCHS: [usize; 6] = [0, 1, 2, 4, 8, 16];

#[derive(Serialize)]
struct Point {
    advisor: String,
    probe_epochs: usize,
    mean_ad: f64,
    std_ad: f64,
}

fn main() {
    let args = ExpArgs::parse(3);
    let cfg = args.cell_config();
    let db = build_db(&cfg);

    println!(
        "Figure 11 — AD vs probing epochs P on {} ({} runs)",
        args.benchmark.name(),
        args.runs
    );

    let victims = [AdvisorSpec::new("dqn"), AdvisorSpec::new("swirl")];
    let epoch_cfgs: Vec<CellConfig> = EPOCHS
        .iter()
        .map(|&p| {
            let mut c = cfg.clone();
            c.probe_epochs = p;
            c
        })
        .collect();
    let grid: Vec<(AdvisorSpec, usize, u64)> = victims
        .iter()
        .flat_map(|v| {
            (0..EPOCHS.len())
                .flat_map(move |pi| (0..args.runs as u64).map(move |r| (v.clone(), pi, r)))
        })
        .collect();
    let out = args.trace_outputs();
    let outs = par_map_traced(
        args.jobs,
        grid,
        &out,
        |_, (victim, pi, run)| {
            CellCtx::new(args.cell_seed(*run).get())
                .field("advisor", victim.label())
                .field("probe_epochs", EPOCHS[*pi])
                .field("run", *run)
        },
        |_, (victim, pi, run)| {
            let seed = args.cell_seed(run);
            let normal = normal_workload(&cfg, seed.get());
            let out = run_cell(
                &db,
                &normal,
                victim.clone(),
                InjectorKind::Pipa,
                &epoch_cfgs[pi],
                seed,
            )
            .expect("stress test against the simulator backend");
            (victim, pi, out.ad)
        },
    );
    out.flush();

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for victim in victims {
        let mut row = vec![victim.label()];
        for (pi, &p) in EPOCHS.iter().enumerate() {
            let ads: Vec<f64> = outs
                .iter()
                .filter(|(v, i, _)| *v == victim && *i == pi)
                .map(|(_, _, ad)| *ad)
                .collect();
            let s = Stats::from_samples(&ads);
            row.push(format!("{:+.3}", s.mean));
            points.push(Point {
                advisor: victim.label(),
                probe_epochs: p,
                mean_ad: s.mean,
                std_ad: s.std,
            });
        }
        rows.push(row);
    }

    let mut headers: Vec<String> = vec!["advisor".to_string()];
    headers.extend(EPOCHS.iter().map(|p| format!("P={p}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&headers_ref, &rows));
    println!(
        "\nShape: AD with a handful of probing epochs already approaches the\n\
         AD of the largest budget (the paper's 'only a few probing epochs\n\
         are enough')."
    );

    let artifact = ExperimentArtifact {
        id: format!("fig11_probing_epochs_{}", args.benchmark.name()),
        description: "AD vs probing budget".to_string(),
        params: args.summary(),
        results: points,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
