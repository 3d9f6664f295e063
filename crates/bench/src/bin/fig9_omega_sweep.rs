//! Figure 9: AD as a function of the poisoning proportion
//! ω = N̂ / |W| ∈ {0.01, 0.1, 1, 10, 100}.
//!
//! The paper fixes N̂ = 180 and varies the normal-workload size; at our
//! scale we fix the normal workload at the benchmark default and vary N̂
//! (the ratio ω is what both the paper's analysis and ours consume).
//!
//! Paper shape claims: AD grows with ω; PIPA stays valid (AD > 0) even at
//! the smallest ω; SWIRL resists large ω thanks to invalid-action
//! masking.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin fig9_omega_sweep -- --runs 5
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa_core::metrics::Stats;
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::AdvisorSpec;
use pipa_obs::CellCtx;
use serde::Serialize;

/// Poisoning proportions (paper: {0.01, 0.1, 1, 10, 100}; the two largest
/// are capped for runtime, documented in EXPERIMENTS.md).
const OMEGAS: [f64; 5] = [0.05, 0.25, 1.0, 4.0, 10.0];

#[derive(Serialize)]
struct Cell {
    advisor: String,
    omega: f64,
    injection_size: usize,
    mean_ad: f64,
    std_ad: f64,
    ads: Vec<f64>,
}

fn main() {
    let args = ExpArgs::parse(3);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let n = cfg.benchmark.default_workload_size();

    println!(
        "Figure 9 — AD vs poisoning proportion ω on {} ({} runs)",
        args.benchmark.name(),
        args.runs
    );

    // One config per ω (the injection size is the only thing that varies).
    let omega_cfgs: Vec<CellConfig> = OMEGAS
        .iter()
        .map(|&omega| {
            let mut c = cfg.clone();
            c.injection_size = ((n as f64 * omega).round() as usize).max(1);
            c
        })
        .collect();
    let grid: Vec<(AdvisorSpec, usize, u64)> = AdvisorSpec::paper_variants()
        .into_iter()
        .flat_map(|a| {
            (0..OMEGAS.len()).flat_map(move |oi| {
                let a = a.clone();
                (0..args.runs as u64).map(move |r| (a.clone(), oi, r))
            })
        })
        .collect();
    let out = args.trace_outputs();
    let outs = par_map_traced(
        args.jobs,
        grid,
        &out,
        |_, (advisor, oi, run)| {
            CellCtx::new(args.cell_seed(*run).get())
                .field("advisor", advisor.label())
                .field("omega", OMEGAS[*oi])
                .field("run", *run)
        },
        |_, (advisor, oi, run)| {
            let seed = args.cell_seed(run);
            let normal = normal_workload(&cfg, seed.get());
            let out = run_cell(
                &db,
                &normal,
                advisor.clone(),
                InjectorKind::Pipa,
                &omega_cfgs[oi],
                seed,
            )
            .expect("stress test against the simulator backend");
            (advisor, oi, out.ad)
        },
    );
    out.flush();

    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for advisor in AdvisorSpec::paper_variants() {
        let mut row = vec![advisor.label()];
        for (oi, &omega) in OMEGAS.iter().enumerate() {
            let ads: Vec<f64> = outs
                .iter()
                .filter(|(a, i, _)| *a == advisor && *i == oi)
                .map(|(_, _, ad)| *ad)
                .collect();
            let s = Stats::from_samples(&ads);
            row.push(format!("{:+.3}", s.mean));
            cells.push(Cell {
                advisor: advisor.label(),
                omega,
                injection_size: omega_cfgs[oi].injection_size,
                mean_ad: s.mean,
                std_ad: s.std,
                ads,
            });
        }
        rows.push(row);
    }

    let mut headers: Vec<String> = vec!["advisor".to_string()];
    headers.extend(OMEGAS.iter().map(|o| format!("ω={o}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&headers_ref, &rows));

    // Shape: monotone-ish growth per advisor.
    for advisor in AdvisorSpec::paper_variants() {
        let label = advisor.label();
        let series: Vec<f64> = OMEGAS
            .iter()
            .map(|&o| {
                cells
                    .iter()
                    .find(|c| c.advisor == label && (c.omega - o).abs() < 1e-9)
                    .map(|c| c.mean_ad)
                    .unwrap_or(0.0)
            })
            .collect();
        let grows = series.last().unwrap_or(&0.0) > series.first().unwrap_or(&0.0);
        println!("  {label:12} AD(ω) grows overall: {grows}  {series:?}");
    }

    let artifact = ExperimentArtifact {
        id: format!("fig9_omega_sweep_{}", args.benchmark.name()),
        description: "AD vs poisoning proportion (PIPA)".to_string(),
        params: args.summary(),
        results: cells,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
