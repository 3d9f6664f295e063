//! What is a poisoning attack *worth* under skewed traffic?
//!
//! The paper prices an attack with every template weighted equally.
//! Real traffic is Zipf-skewed: a handful of hot templates carry most
//! of the load. This example runs ONE equal-budget PIPA attack (probe →
//! inject → retrain) and prices the *same* poisoned recommendation
//! three ways:
//!
//! * uniform — the paper's traffic-blind AD;
//! * hot — the degraded templates carry the largest Zipf shares (the
//!   attacker aimed at the dashboard queries);
//! * cold — the degraded templates carry the smallest shares (the
//!   attack landed on the quarterly reports).
//!
//! The hot/cold gap is pure traffic alignment — the advisor, the
//! injection budget, and the poisoned configuration are identical.
//! A defender ranking retraining anomalies by traffic share, not
//! template count, is defending against the hot number.
//!
//! ```text
//! cargo run --release --example skewed_attack
//! ```

use pipa::core::experiment::{build_db, CellConfig, InjectorKind};
use pipa::core::runner::CellSeed;
use pipa::core::traffic::poisoning_economics;
use pipa::ia::AdvisorSpec;
use pipa::workload::{Benchmark, Popularity};

fn main() {
    let cfg = CellConfig::quick(Benchmark::TpcH);
    let cost = build_db(&cfg);
    let advisor = AdvisorSpec::new("dbabandit");

    println!("one PIPA attack, priced under three traffic profiles");
    println!("(advisor: DBA bandit, quick preset, equal injection budget)\n");

    let econ = poisoning_economics(
        &cost,
        &cfg,
        advisor,
        InjectorKind::Pipa,
        1.1,
        CellSeed::derive(0x5CA1E, 0),
    )
    .expect("economics pipeline");

    // Which templates did the attack actually damage?
    let mut hit: Vec<(usize, f64)> = econ
        .per_template_ad
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, r)| r > 0.0)
        .collect();
    hit.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "damaged templates: {} of {} (equal-weight AD {:+.4})",
        hit.len(),
        econ.templates,
        econ.ad_uniform
    );
    let pop = Popularity::Zipf {
        exponent: econ.exponent,
    };
    for (rank, (t, r)) in hit.iter().enumerate() {
        println!(
            "  template {t:>2}: per-query degradation {:+.3}  \
             (hot share {:.3} vs cold share {:.3})",
            r,
            pop.share(rank, econ.templates),
            pop.share(econ.templates - 1 - rank, econ.templates),
        );
    }

    println!("\ntraffic-weighted AD of the same poisoned configuration:");
    println!("  uniform (paper) : {:+.4}", econ.ad_uniform);
    println!("  hot-aligned     : {:+.4}", econ.ad_hot);
    println!("  cold-aligned    : {:+.4}", econ.ad_cold);
    println!("  hot premium     : {:+.4}", econ.hot_premium());
    assert!(
        econ.ad_hot >= econ.ad_cold,
        "exchange argument: hot alignment dominates"
    );

    let ratio = if econ.ad_cold.abs() > 1e-12 {
        format!("{:.1}x", econ.ad_hot / econ.ad_cold)
    } else {
        "∞".to_string()
    };
    println!(
        "\nthe identical attack is {ratio} more expensive when it lands on hot \
         templates:\nbudget buys traffic share, not template count."
    );
}
