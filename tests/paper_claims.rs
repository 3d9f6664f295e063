//! Tests pinning paper-specific *claims* (as opposed to code invariants):
//! statements from the paper's analysis that our substrate must also
//! exhibit, since the attack's design rests on them.

use pipa::cost::{CostEngine, SimBackend};
use pipa::ia::IndexEnv;
use pipa::sim::{Aggregate, Index, IndexConfig, Predicate, QueryBuilder};
use pipa::workload::Benchmark;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// §4.1: "the indexing performance of a multi-column index is primarily
/// related to the first single-column index" — the justification for
/// probing only single-column preferences.
#[test]
fn multicolumn_benefit_is_driven_by_the_leading_column() {
    let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let engine = CostEngine::new(&cost);
    let schema = cost.database().schema();
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let mut close = 0usize;
    let mut total = 0usize;
    for t in schema.tables() {
        let cols = schema.columns_of(t.id);
        if cols.len() < 2 {
            continue;
        }
        for _ in 0..4 {
            // Random leading + secondary column of the same table.
            let a = cols[rng.gen_range(0..cols.len())];
            let b = cols[rng.gen_range(0..cols.len())];
            if a == b {
                continue;
            }
            let q = QueryBuilder::new()
                .filter(schema, Predicate::eq(a, 0.4))
                .filter(schema, Predicate::eq(b, 0.6))
                .aggregate(Aggregate::CountStar)
                .build(schema)
                .unwrap();
            let single = engine
                .query_benefit(&q, &IndexConfig::from_indexes([Index::single(a)]))
                .unwrap();
            let multi = engine
                .query_benefit(
                    &q,
                    &IndexConfig::from_indexes([Index::multi(schema, vec![a, b]).unwrap()]),
                )
                .unwrap();
            total += 1;
            // The multi-column index is at least as good, and the single
            // leading column captures most of its benefit.
            assert!(multi >= single - 1e-9);
            if single >= multi * 0.6 || multi < 0.05 {
                close += 1;
            }
        }
    }
    assert!(total >= 20, "enough samples: {total}");
    assert!(
        close * 4 >= total * 3,
        "leading column should capture most multi-column benefit: {close}/{total}"
    );
}

/// §5: low-ranked columns make bad injection targets because queries
/// "optimized" by them are effectively non-sargable — an index on a
/// low-selectivity column earns ~zero reward for ordinary (non-covering)
/// access. (A bare `count(*)` is excluded deliberately: there, *any*
/// index is covering and an index-only scan wins regardless of
/// selectivity — a real PostgreSQL behaviour our model reproduces.)
#[test]
fn low_selectivity_columns_yield_no_index_reward() {
    let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let engine = CostEngine::new(&cost);
    let schema = cost.database().schema();
    for (name, agg) in [
        ("l_linestatus", "l_extendedprice"),
        ("l_returnflag", "l_extendedprice"),
        ("o_shippriority", "o_totalprice"),
    ] {
        let c = schema.column_id(name).unwrap();
        let payload = schema.column_id(agg).unwrap();
        let q = QueryBuilder::new()
            .filter(schema, Predicate::eq(c, 0.5))
            .aggregate(Aggregate::Sum(payload))
            .build(schema)
            .unwrap();
        let benefit = engine
            .query_benefit(&q, &IndexConfig::from_indexes([Index::single(c)]))
            .unwrap();
        assert!(
            benefit < 0.1,
            "{name} (ndv {}) should be a useless index: benefit {benefit}",
            cost.database().column_stat(c).ndv
        );
    }
}

/// Companion to the above: for a covering `count(*)`, even a low-NDV
/// index wins via an index-only scan — the nuance that makes Algorithm
/// 2's explicit cost filter (rather than an NDV heuristic) necessary.
#[test]
fn count_star_makes_any_index_covering() {
    let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let schema = cost.database().schema();
    let c = schema.column_id("l_linestatus").unwrap();
    let q = QueryBuilder::new()
        .filter(schema, Predicate::eq(c, 0.5))
        .aggregate(Aggregate::CountStar)
        .build(schema)
        .unwrap();
    let benefit = CostEngine::new(&cost)
        .query_benefit(&q, &IndexConfig::from_indexes([Index::single(c)]))
        .unwrap();
    assert!(benefit > 0.2, "index-only scan should win: {benefit}");
}

/// §2.1 footing: an IA's benefit is bounded by the budget — more indexes
/// never hurt under the what-if model, and the budgeted greedy captures a
/// large share of the unbudgeted optimum.
#[test]
fn budget_curve_is_monotone_with_diminishing_returns() {
    use pipa::ia::{AutoAdminGreedy, IndexAdvisor};
    let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g.normal(&mut ChaCha8Rng::seed_from_u64(67)).unwrap();
    let mut prev = 0.0;
    let mut gains = Vec::new();
    for b in 1..=8 {
        let cfg = AutoAdminGreedy::new(b).recommend(&cost, &w).unwrap();
        let benefit = CostEngine::new(&cost).workload_benefit(&w, &cfg).unwrap();
        assert!(benefit + 1e-9 >= prev, "budget {b}: {benefit} < {prev}");
        gains.push(benefit - prev);
        prev = benefit;
    }
    // Diminishing returns: the first index gains more than the last.
    assert!(
        gains[0] > *gains.last().unwrap(),
        "first gain {} vs last {}",
        gains[0],
        gains.last().unwrap()
    );
}

/// §6.2 (comparison across advisors): the what-if single-column benefit —
/// the quantity every advisor learns to approximate — must rank join keys
/// and selective date columns above text/flag columns on TPC-H.
#[test]
fn benefit_landscape_has_the_expected_head() {
    let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g.normal(&mut ChaCha8Rng::seed_from_u64(71)).unwrap();
    let env = IndexEnv::new(&cost, &w, Vec::new(), 0).unwrap();
    let b = |n: &str| {
        env.single_column_benefit(cost.database().schema().column_id(n).unwrap())
            .unwrap()
    };
    assert!(b("l_shipdate") > 0.05, "l_shipdate {}", b("l_shipdate"));
    assert!(b("l_orderkey") > 0.02, "l_orderkey {}", b("l_orderkey"));
    assert!(b("l_comment") < 1e-6);
    assert!(b("r_name") < 1e-6);
    assert!(b("l_shipdate") > b("l_quantity"));
}
