//! Table 2: RD as a function of the poisoning proportion ω on TPC-H.
//!
//! Paper shape claims: PIPA yields positive RD across ω; RD generally
//! grows with ω for most advisors (DQN peaks before the largest ω because
//! extreme distribution shifts degrade it under random injections too,
//! shrinking the *relative* gap).
//!
//! ```text
//! cargo run --release -p pipa-bench --bin table2_rd_omega -- --runs 3
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa_core::metrics::{relative_degradation, Stats};
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::AdvisorSpec;
use pipa_obs::CellCtx;
use serde::Serialize;

const OMEGAS: [f64; 4] = [0.05, 0.25, 1.0, 4.0];

#[derive(Serialize)]
struct Cell {
    advisor: String,
    omega: f64,
    rd: f64,
    ad_pipa: f64,
    ad_random: f64,
}

fn main() {
    let args = ExpArgs::parse(3);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let n = cfg.benchmark.default_workload_size();
    // One random baseline (FSM) keeps the sweep tractable; Table 1 uses
    // the full random set.
    let random = InjectorKind::Fsm;

    println!(
        "Table 2 — RD vs ω on {} ({} runs per cell)",
        args.benchmark.name(),
        args.runs
    );

    let omega_cfgs: Vec<CellConfig> = OMEGAS
        .iter()
        .map(|&omega| {
            let mut c = cfg.clone();
            c.injection_size = ((n as f64 * omega).round() as usize).max(1);
            c
        })
        .collect();
    // Tuples (advisor, ω index, injector, run); PIPA and the FSM baseline
    // share each run's seed (and thus normal workload) for RD pairing.
    let grid: Vec<(AdvisorSpec, usize, InjectorKind, u64)> = AdvisorSpec::paper_variants()
        .into_iter()
        .flat_map(|a| {
            (0..OMEGAS.len()).flat_map(move |oi| {
                let a = a.clone();
                [InjectorKind::Pipa, random]
                    .into_iter()
                    .flat_map(move |inj| {
                        let a = a.clone();
                        (0..args.runs as u64).map(move |r| (a.clone(), oi, inj, r))
                    })
            })
        })
        .collect();
    let out = args.trace_outputs();
    let outs = par_map_traced(
        args.jobs,
        grid,
        &out,
        |_, (advisor, oi, inj, run)| {
            CellCtx::new(args.cell_seed(*run).get())
                .field("advisor", advisor.label())
                .field("injector", inj.label())
                .field("omega", OMEGAS[*oi])
                .field("run", *run)
        },
        |_, (advisor, oi, inj, run)| {
            let seed = args.cell_seed(run);
            let normal = normal_workload(&cfg, seed.get());
            let out = run_cell(&db, &normal, advisor.clone(), inj, &omega_cfgs[oi], seed)
                .expect("stress test against the simulator backend");
            (advisor, oi, inj, out.ad)
        },
    );
    out.flush();

    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for advisor in AdvisorSpec::paper_variants() {
        let mut row = vec![advisor.label()];
        for (oi, &omega) in OMEGAS.iter().enumerate() {
            let mean_ad = |want: InjectorKind| -> f64 {
                let ads: Vec<f64> = outs
                    .iter()
                    .filter(|(a, i, inj, _)| *a == advisor && *i == oi && *inj == want)
                    .map(|(_, _, _, ad)| *ad)
                    .collect();
                Stats::from_samples(&ads).mean
            };
            let ad_pipa = mean_ad(InjectorKind::Pipa);
            let ad_random = mean_ad(random);
            let rd = relative_degradation(ad_pipa, ad_random);
            row.push(format!("{rd:+.3}"));
            cells.push(Cell {
                advisor: advisor.label(),
                omega,
                rd,
                ad_pipa,
                ad_random,
            });
        }
        rows.push(row);
    }

    let mut headers: Vec<String> = vec!["advisor".to_string()];
    headers.extend(OMEGAS.iter().map(|o| format!("ω={o}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&headers_ref, &rows));

    let positive = cells.iter().filter(|c| c.rd > 0.0).count();
    println!(
        "\nShape: {positive}/{} cells have positive RD (paper: all).",
        cells.len()
    );

    let artifact = ExperimentArtifact {
        id: format!("table2_rd_omega_{}", args.benchmark.name()),
        description: "RD vs poisoning proportion".to_string(),
        params: args.summary(),
        results: cells,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
