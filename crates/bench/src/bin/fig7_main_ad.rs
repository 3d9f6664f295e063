//! Figure 7 (main result): Absolute performance Degradation of every
//! injector × every advisor variant, as box-plot statistics over repeated
//! runs.
//!
//! Paper shape claims this regenerates:
//! * only PIPA and the clear-box P-C achieve positive AD on every
//!   advisor; TP/FSM/I-R can go negative (they sometimes *help*);
//! * PIPA and P-C have the highest mean AD; PIPA usually has the least
//!   variance.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin fig7_main_ad -- --runs 10
//! cargo run --release -p pipa-bench --bin fig7_main_ad -- --benchmark tpcds --scale 1
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, run_grid_traced, GridSpec, InjectorKind};
use pipa_core::metrics::Stats;
use pipa_core::report::{format_stats, render_table, ExperimentArtifact};
use pipa_ia::AdvisorSpec;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    advisor: String,
    injector: String,
    ads: Vec<f64>,
    mean: f64,
    std: f64,
    always_positive: bool,
}

fn main() {
    let args = ExpArgs::parse(5);
    let cfg = args.cell_config();
    let db = build_db(&cfg);

    println!(
        "Figure 7 — AD of 6 injectors × 7 advisors on {} (scale {}, {} runs)",
        args.benchmark.name(),
        args.scale,
        args.runs
    );

    // One grid over the full cross product; cells run on `--jobs` workers
    // and come back in spec order with per-run derived seeds.
    let spec = GridSpec::new(
        AdvisorSpec::paper_variants(),
        InjectorKind::all(),
        args.runs as u64,
        args.seed,
    );
    let out = args.trace_outputs();
    let outcomes = run_grid_traced(&db, &cfg, &spec, args.jobs, &out)
        .expect("stress test against the simulator backend");
    out.flush();

    let mut cells: Vec<Cell> = Vec::new();
    for advisor in AdvisorSpec::paper_variants() {
        let mut rows = Vec::new();
        for injector in InjectorKind::all() {
            let ads: Vec<f64> = outcomes
                .iter()
                .filter(|(c, _)| c.advisor == advisor && c.injector == injector)
                .map(|(_, o)| o.ad)
                .collect();
            let s = Stats::from_samples(&ads);
            rows.push(vec![injector.label().to_string(), format_stats(&s)]);
            cells.push(Cell {
                advisor: advisor.label(),
                injector: injector.label().to_string(),
                mean: s.mean,
                std: s.std,
                always_positive: ads.iter().all(|&a| a > 0.0),
                ads,
            });
        }
        println!("\n=== {} ===", advisor.label());
        println!(
            "{}",
            render_table(&["injector", "AD mean ± std [box]"], &rows)
        );
    }

    // Shape summary.
    println!("\nShape summary:");
    for advisor in AdvisorSpec::paper_variants() {
        let label = advisor.label();
        let get = |inj: &str| {
            cells
                .iter()
                .find(|c| c.advisor == label && c.injector == inj)
                .expect("cell")
        };
        let pipa = get("PIPA");
        let pc = get("P-C");
        let best_random = ["TP", "FSM", "I-R"]
            .iter()
            .map(|i| get(i).mean)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {label:12} PIPA {:+.3}{} | P-C {:+.3} | best random {:+.3} | PIPA beats random: {}",
            pipa.mean,
            if pipa.always_positive {
                " (always>0)"
            } else {
                ""
            },
            pc.mean,
            best_random,
            pipa.mean > best_random
        );
    }

    let artifact = ExperimentArtifact {
        id: format!("fig7_main_ad_{}", args.benchmark.name()),
        description: "AD box statistics per injector × advisor".to_string(),
        params: args.summary(),
        results: cells,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
