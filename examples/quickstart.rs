//! Quickstart: stress-test one learned index advisor with PIPA.
//!
//! Builds the TPC-H database, trains a DQN advisor on a normal workload,
//! runs the full probe → inject → retrain → measure pipeline, and prints
//! the Absolute performance Degradation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pipa::core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa::core::CellSeed;
use pipa::ia::{AdvisorSpec, SpeedPreset, TrajectoryMode};
use pipa::workload::Benchmark;

fn main() {
    // 1. The environment: TPC-H at scale factor 1 with the paper's
    //    defaults (N = 18 queries, budget B = 4 indexes).
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Quick;
    let cost = build_db(&cfg);
    println!(
        "database: {} tables, {} indexable columns",
        cost.database().schema().num_tables(),
        cost.database().schema().num_columns()
    );

    // 2. A normal workload W (every benchmark template once, uniform
    //    random frequencies — §6.1).
    let normal = normal_workload(&cfg, 11);
    println!("normal workload: {} queries", normal.len());

    // 3. Stress-test: train DQN on W, probe its indexing preference,
    //    inject a toxic workload aimed at mid-ranked columns, retrain on
    //    {W, Ŵ}, and re-measure on W.
    let outcome = run_cell(
        &cost,
        &normal,
        AdvisorSpec::new("dqn").mode(TrajectoryMode::Best),
        InjectorKind::Pipa,
        &cfg,
        CellSeed::raw(11),
    )
    .expect("stress test against the simulator backend");

    println!("\n--- stress-test outcome ---");
    println!("advisor:            {}", outcome.advisor);
    println!("injector:           {}", outcome.injector);
    println!("baseline cost c_b:  {:.0}", outcome.baseline_cost);
    println!("poisoned cost:      {:.0}", outcome.poisoned_cost);
    println!("AD:                 {:+.3}", outcome.ad);
    println!("toxic injection:    {}", outcome.toxic);
    println!("clean indexes:      {:?}", outcome.baseline_indexes);
    println!("poisoned indexes:   {:?}", outcome.poisoned_indexes);

    // What the optimizer actually does with those indexes on one query:
    let sample = &normal.entries()[5].query;
    println!("\nEXPLAIN of one workload query under the clean indexes:");
    let clean_cfg: pipa::sim::IndexConfig = outcome
        .baseline_indexes
        .iter()
        .filter_map(|name| {
            cost.database().schema().columns().iter().find_map(|c| {
                name.ends_with(&c.name)
                    .then(|| pipa::sim::Index::single(c.id))
            })
        })
        .collect();
    use pipa::cost::CostBackend;
    print!("{}", cost.explain(sample, &clean_cfg).expect("explain"));

    if outcome.toxic {
        println!(
            "\nThe advisor is NOT robust: retraining on the polluted workload\n\
             degraded its recommendations for the *unchanged* target workload."
        );
    } else {
        println!(
            "\nThis seed did not produce a toxic injection — run a few seeds\n\
             (the paper reports statistics over 10 runs)."
        );
    }
}
