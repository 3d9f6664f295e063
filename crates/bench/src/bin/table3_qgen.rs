//! Table 3: query-generation quality — GAC / IAC / RMSE / Distinct for
//! every generator, including the IABART progressive-training ablations.
//!
//! Paper shape claims: IABART reaches GAC = 1.00 (FSM-constrained
//! decoding guarantees grammar), the best IAC, competitive RMSE, and the
//! highest Distinct; dropping Task 1 / Task 2 degrades IAC and RMSE.
//! The GPT rows are represented by calibrated LLM-like stand-ins
//! (closed APIs are unavailable offline; see DESIGN.md).
//!
//! ```text
//! cargo run --release -p pipa-bench --bin table3_qgen -- --runs 200
//! cargo run --release -p pipa-bench --bin table3_qgen -- --runs 1000 --paper
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::SpeedPreset;
use pipa_obs::CellCtx;
use pipa_qgen::{
    build_corpus, evaluate_generator, DtGenerator, FsmGenerator, Iabart, IabartConfig,
    IabartGenerator, LlmLikeGenerator, ProgressiveTasks, QueryGenerator, StGenerator,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    method: String,
    gac: f64,
    iac: f64,
    rmse: f64,
    distinct: f64,
}

fn main() {
    let args = ExpArgs::parse(200);
    let db = pipa_cost::SimBackend::new(args.benchmark.database(args.scale, None));
    let n_tests = args.runs;
    let k_targets = 3; // the paper randomly selects three indexes

    let (corpus_size, epochs) = match args.preset {
        SpeedPreset::Paper => (2000usize, 4usize),
        _ => (900, 4),
    };
    eprintln!("[table3] corpus {corpus_size}, {epochs} epochs/task, {n_tests} test queries");
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x7ab1e3);
    let corpus = build_corpus(&db, corpus_size, &mut rng).expect("corpus generation");

    let train_variant = |tasks: ProgressiveTasks| -> IabartGenerator {
        let mut model = Iabart::new(
            db.database().schema().clone(),
            IabartConfig {
                epochs_per_task: epochs,
                tasks,
                seed: args.seed,
                ..IabartConfig::default()
            },
        );
        model.train(&corpus);
        IabartGenerator::new(model)
    };

    // The nine generator evaluations share nothing mutable (each clones
    // the evaluation RNG), so they run as independent cells. Each IABART
    // ablation trains its own model inside its cell.
    const METHODS: [&str; 9] = [
        "ST",
        "DT",
        "FSM",
        "GPT-3.5-like",
        "GPT-4-like",
        "IABART w/o Task1&2",
        "IABART w/o Task1",
        "IABART w/o Task2",
        "IABART",
    ];
    let eval_rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0xe7a1);
    let trace_out = args.trace_outputs();
    let qualities = par_map_traced(
        args.jobs,
        (0..METHODS.len()).collect(),
        &trace_out,
        |_, &vi| CellCtx::new(args.seed).field("method", METHODS[vi]),
        |_, vi| {
            let mut rng = eval_rng.clone();
            let mut gen: Box<dyn QueryGenerator> = match vi {
                0 => Box::new(StGenerator::new(args.seed)),
                1 => Box::new(DtGenerator::new(
                    args.benchmark.default_templates(),
                    args.seed,
                )),
                2 => Box::new(FsmGenerator::new(args.seed)),
                3 => Box::new(LlmLikeGenerator::gpt35_like(args.seed)),
                4 => Box::new(LlmLikeGenerator::gpt4_like(args.seed)),
                5 => Box::new(train_variant(ProgressiveTasks {
                    task1: false,
                    task2: false,
                })),
                6 => Box::new(train_variant(ProgressiveTasks {
                    task1: false,
                    task2: true,
                })),
                7 => Box::new(train_variant(ProgressiveTasks {
                    task1: true,
                    task2: false,
                })),
                _ => Box::new(train_variant(ProgressiveTasks::default())),
            };
            evaluate_generator(gen.as_mut(), &db, n_tests, k_targets, &mut rng)
                .expect("generator evaluation")
        },
    );
    trace_out.flush();

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Vec::new();
    for (name, q) in METHODS.iter().zip(&qualities) {
        eprintln!(
            "[table3] {name}: GAC {:.2} IAC {:.2} RMSE {:.3} Distinct {:.3}",
            q.gac, q.iac, q.rmse, q.distinct
        );
        table.push(vec![
            name.to_string(),
            format!("{:.2}", q.gac),
            format!("{:.2}", q.iac),
            format!("{:.3}", q.rmse),
            format!("{:.3}", q.distinct),
        ]);
        rows.push(Row {
            method: name.to_string(),
            gac: q.gac,
            iac: q.iac,
            rmse: q.rmse,
            distinct: q.distinct,
        });
    }

    println!(
        "Table 3 — query-generation quality ({} test queries, {} targets each)",
        n_tests, k_targets
    );
    println!(
        "{}",
        render_table(&["method", "GAC", "IAC", "RMSE", "Distinct"], &table)
    );
    println!(
        "Note: RMSE is in relative-benefit units ([0,1]); the paper reports\n\
         an estimated-cost scale — compare orderings, not magnitudes."
    );

    let artifact = ExperimentArtifact {
        id: "table3_qgen".to_string(),
        description: "Query-generation quality (Table 3)".to_string(),
        params: args.summary(),
        results: rows,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
