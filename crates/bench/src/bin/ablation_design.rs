//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **toxicity filter** (Algorithm 2 line 4) — PIPA with vs without the
//!    "mid columns must beat the top index" acceptance check;
//! 2. **generator backend** — ST construction vs a trained IABART behind
//!    the same PIPA pipeline;
//! 3. **injection frequencies** — injected queries carrying normal-like
//!    frequencies vs unit frequencies (poison mass dilution).
//!
//! ```text
//! cargo run --release -p pipa-bench --bin ablation_design -- --runs 5
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::experiment::{build_db, normal_workload, GenBackend};
use pipa_core::harness::StressTest;
use pipa_core::metrics::Stats;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_core::{par_map_traced, InjectConfig, ProbeConfig, TargetedInjector};
use pipa_ia::{AdvisorSpec, BuildCtx};
use pipa_obs::{CellCtx, TraceOutputs};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    mean_ad: f64,
    std_ad: f64,
}

/// One ablation arm: the trace label plus the two design knobs it flips.
struct Variant {
    label: &'static str,
    filter_on: bool,
    unit_frequencies: bool,
}

fn run_variant(
    args: &ExpArgs,
    cfg: &pipa_core::CellConfig,
    db: &pipa_cost::SimBackend,
    out: &TraceOutputs,
    backend: &GenBackend,
    variant: Variant,
) -> Stats {
    let victim = AdvisorSpec::new("dqn");
    let runs: Vec<u64> = (0..args.runs as u64).collect();
    let ads = par_map_traced(
        args.jobs,
        runs,
        out,
        |_, &run| {
            CellCtx::new(args.cell_seed(run).get())
                .field("variant", variant.label)
                .field("run", run)
        },
        |_, run| {
            let seed = args.cell_seed(run);
            let normal = normal_workload(cfg, seed.get());
            let mut advisor = victim
                .build_with(BuildCtx::new(cfg.preset, seed.get()))
                .expect("built-in advisor kind");
            let mut injector = TargetedInjector::pipa(backend.generator(seed.get()));
            injector.probe_cfg = ProbeConfig {
                epochs: cfg.probe_epochs,
                queries_per_epoch: cfg.benchmark.default_workload_size(),
                seed: seed.get(),
                ..Default::default()
            };
            injector.inject_cfg = InjectConfig {
                // Disabling the filter: accept every generated query by
                // making the attempt budget exactly one pass and skipping the
                // cost check via a zero-wide segment trick is intrusive, so
                // the config exposes it directly.
                skip_toxicity_filter: !variant.filter_on,
                unit_frequencies: variant.unit_frequencies,
                ..InjectConfig::default()
            };
            StressTest::new(db, &normal)
                .injection_size(cfg.injection_size)
                .actual_cost(cfg.materialize.is_some())
                .seed(seed)
                .run(advisor.as_mut(), &mut injector)
                .expect("stress test against the simulator backend")
                .ad
        },
    );
    Stats::from_samples(&ads)
}

fn main() {
    let args = ExpArgs::parse(5);
    let cfg = args.cell_config();
    let db = build_db(&cfg);

    println!(
        "Design ablations — victim DQN-b on {} ({} runs)",
        args.benchmark.name(),
        args.runs
    );

    let st = GenBackend::St;
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let record = |name: &str, s: Stats, rows: &mut Vec<Vec<String>>, payload: &mut Vec<Row>| {
        eprintln!("[ablation] {name}: AD {:+.3} ± {:.3}", s.mean, s.std);
        rows.push(vec![
            name.to_string(),
            format!("{:+.3}", s.mean),
            format!("{:.3}", s.std),
        ]);
        payload.push(Row {
            variant: name.to_string(),
            mean_ad: s.mean,
            std_ad: s.std,
        });
    };

    let out = args.trace_outputs();
    let variant = |label, filter_on, unit_frequencies| Variant {
        label,
        filter_on,
        unit_frequencies,
    };
    let full = run_variant(&args, &cfg, &db, &out, &st, variant("full", true, false));
    record("PIPA (full)", full, &mut rows, &mut payload);
    let nofilter = run_variant(
        &args,
        &cfg,
        &db,
        &out,
        &st,
        variant("no_filter", false, false),
    );
    record("w/o toxicity filter", nofilter, &mut rows, &mut payload);
    let unitfreq = run_variant(
        &args,
        &cfg,
        &db,
        &out,
        &st,
        variant("unit_freq", true, true),
    );
    record(
        "unit injection frequencies",
        unitfreq,
        &mut rows,
        &mut payload,
    );

    if args.use_iabart {
        let iabart = cfg.backend.clone();
        let s = run_variant(
            &args,
            &cfg,
            &db,
            &out,
            &iabart,
            variant("iabart", true, false),
        );
        record("IABART generator", s, &mut rows, &mut payload);
    } else {
        eprintln!("[ablation] pass --iabart to include the IABART-generator variant");
    }
    out.flush();

    println!("{}", render_table(&["variant", "mean AD", "std"], &rows));
    println!(
        "\nReading: dropping the Algorithm-2 acceptance filter admits queries\n\
         the top index can still serve (weaker attack); unit frequencies\n\
         dilute the poisoned training mass ~5× (the effective ω shrinks)."
    );

    let artifact = ExperimentArtifact {
        id: "ablation_design".to_string(),
        description: "PIPA design-choice ablations".to_string(),
        params: args.summary(),
        results: payload,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
