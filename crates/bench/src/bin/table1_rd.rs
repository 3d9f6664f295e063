//! Table 1: Relative performance Degradation of every advisor variant —
//! how much PIPA's degradation exceeds the mean degradation of random
//! injections (TP / FSM / I-R), per Definition 2.5.
//!
//! Paper shape: RD is positive for every advisor; DRLindex-b is usually
//! the highest (most vulnerable), SWIRL among the lowest.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin table1_rd -- --runs 10
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, run_grid_traced, GridSpec, InjectorKind};
use pipa_core::metrics::{relative_degradation, Stats};
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::AdvisorSpec;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    advisor: String,
    rd: f64,
    ad_pipa: f64,
    ad_random: f64,
}

fn main() {
    let args = ExpArgs::parse(5);
    let cfg = args.cell_config();
    let db = build_db(&cfg);

    println!(
        "Table 1 — RD per advisor on {} (scale {}, {} runs)",
        args.benchmark.name(),
        args.scale,
        args.runs
    );

    // PIPA plus the three random baselines in one grid: all cells of a
    // run share a derived seed, so PIPA and the baselines see the *same*
    // normal workload — the pairing Definition 2.5 requires.
    let mut injectors = vec![InjectorKind::Pipa];
    injectors.extend(
        InjectorKind::all()
            .into_iter()
            .filter(|k| k.is_random_baseline()),
    );
    let spec = GridSpec::new(
        AdvisorSpec::paper_variants(),
        injectors,
        args.runs as u64,
        args.seed,
    );
    let out = args.trace_outputs();
    let outcomes = run_grid_traced(&db, &cfg, &spec, args.jobs, &out)
        .expect("stress test against the simulator backend");
    out.flush();

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for advisor in AdvisorSpec::paper_variants() {
        let ads = |want_pipa: bool| -> Vec<f64> {
            outcomes
                .iter()
                .filter(|(c, _)| {
                    c.advisor == advisor && (c.injector == InjectorKind::Pipa) == want_pipa
                })
                .map(|(_, o)| o.ad)
                .collect()
        };
        let ad_pipa = Stats::from_samples(&ads(true)).mean;
        let ad_random = Stats::from_samples(&ads(false)).mean;
        let rd = relative_degradation(ad_pipa, ad_random);
        rows.push(vec![
            advisor.label(),
            format!("{rd:+.3}"),
            format!("{ad_pipa:+.3}"),
            format!("{ad_random:+.3}"),
        ]);
        payload.push(Row {
            advisor: advisor.label(),
            rd,
            ad_pipa,
            ad_random,
        });
    }

    println!(
        "{}",
        render_table(&["advisor", "RD", "AD(PIPA)", "AD(random)"], &rows)
    );
    let positive = payload.iter().filter(|r| r.rd > 0.0).count();
    println!(
        "\nShape: RD positive for {positive}/{} advisors (paper: all).",
        payload.len()
    );

    let artifact = ExperimentArtifact {
        id: format!("table1_rd_{}", args.benchmark.name()),
        description: "Relative performance degradation per advisor".to_string(),
        params: args.summary(),
        results: payload,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
