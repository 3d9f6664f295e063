//! Query-generation quality metrics (paper §6.7, Table 3).
//!
//! * **GAC** — grammar accuracy: fraction of attempts yielding a valid,
//!   executable query;
//! * **IAC** — index accuracy (Eq. 10): overlap between the index set a
//!   reference advisor recommends for the generated query and the
//!   specified target set;
//! * **RMSE** — between the requested indexing benefit and the benefit
//!   the generated query actually achieves under the recommended indexes
//!   (our rewards are relative benefits in `[0,1]`; the paper's unit is
//!   an estimated-cost scale — shapes, not magnitudes, are comparable);
//! * **Distinct** — mean ratio of unique tokens within each query's
//!   rendered SQL (diversity, after \[22\]).

use crate::baselines::QueryGenerator;
use crate::corpus::label_indexes;
use pipa_cost::{query_benefit, CostBackend, CostResult};
use pipa_sim::{ColumnId, Index, IndexConfig};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use std::collections::HashSet;

/// Draw a realistic target-index set: columns of one anchor table and its
/// FK neighbourhood, restricted to plausibly indexable columns
/// (NDV ≥ 20). The paper "randomly select\[s\] three indexes" — indexes,
/// not arbitrary columns, so unindexable text/flag columns are excluded.
pub fn sample_target_set<R: RngCore>(
    cost: &dyn CostBackend,
    k: usize,
    rng: &mut R,
) -> CostResult<Vec<ColumnId>> {
    let schema = cost.catalog().schema;
    let tables = schema.tables();
    for _ in 0..64 {
        let anchor = &tables[rng.gen_range(0..tables.len())];
        // Candidate pool: anchor columns + FK-neighbour columns.
        let mut pool: Vec<ColumnId> = anchor.columns.clone();
        for fk in schema.foreign_keys() {
            let (tf, tt) = (schema.table_of(fk.from), schema.table_of(fk.to));
            if tf == anchor.id {
                pool.extend(schema.columns_of(tt));
            } else if tt == anchor.id {
                pool.extend(schema.columns_of(tf));
            }
        }
        let mut plausible = Vec::with_capacity(pool.len());
        for &c in &pool {
            if is_plausible_index(cost, c)? {
                plausible.push(c);
            }
        }
        plausible.sort_unstable();
        plausible.dedup();
        if plausible.len() >= k {
            return Ok(plausible.choose_multiple(rng, k).copied().collect());
        }
    }
    // Degenerate schema fallback: any indexable columns.
    let mut out = Vec::with_capacity(k);
    for c in schema.indexable_columns() {
        if out.len() >= k {
            break;
        }
        if is_plausible_index(cost, c)? {
            out.push(c);
        }
    }
    Ok(out)
}

/// A column is a plausible index target when an equality probe on it
/// benefits substantially from a single-column index (the same
/// evaluator-side judgement the probing stage uses).
pub fn is_plausible_index(cost: &dyn CostBackend, c: ColumnId) -> CostResult<bool> {
    use pipa_sim::{Aggregate, Predicate, QueryBuilder};
    let cat = cost.catalog();
    if cat.column(c).ndv < 20 {
        return Ok(false);
    }
    let q = QueryBuilder::new()
        .filter(cat.schema, Predicate::eq(c, 0.5))
        .aggregate(Aggregate::CountStar)
        .build(cat.schema)
        .expect("probe query");
    let benefit = query_benefit(cost, &q, &IndexConfig::from_indexes([Index::single(c)]))?;
    Ok(benefit > 0.2)
}

/// Aggregate generation-quality metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenQuality {
    /// Grammar accuracy in `[0,1]`.
    pub gac: f64,
    /// Index accuracy in `[0,1]`.
    pub iac: f64,
    /// Reward RMSE in `[0,1]` benefit units.
    pub rmse: f64,
    /// Token diversity in `[0,1]`.
    pub distinct: f64,
}

/// Evaluate a generator over `n` trials: each trial draws `k` random
/// target columns and a reward threshold, then scores the output.
pub fn evaluate_generator<G: QueryGenerator + ?Sized, R: RngCore>(
    gen: &mut G,
    cost: &dyn CostBackend,
    n: usize,
    k: usize,
    rng: &mut R,
) -> CostResult<GenQuality> {
    let mut correct = 0usize;
    let mut iac_sum = 0.0;
    let mut sq_err_sum = 0.0;
    let mut distinct_sum = 0.0;
    for _ in 0..n {
        let targets: Vec<ColumnId> = sample_target_set(cost, k, rng)?;
        let reward = rng.gen_range(0.05..0.95);
        let Some(q) = gen.generate(cost, &targets, reward)? else {
            continue;
        };
        if q.validate(cost.catalog().schema).is_err() {
            continue;
        }
        correct += 1;
        // IAC: overlap between the reference advisor's picks for q and
        // the requested targets.
        let rec = label_indexes(cost, &q, k)?;
        let overlap = rec.iter().filter(|c| targets.contains(c)).count();
        iac_sum += overlap as f64 / k as f64;
        // RMSE: achieved benefit under recommended indexes vs requested.
        let cfg: IndexConfig = rec.into_iter().map(Index::single).collect();
        let achieved = query_benefit(cost, &q, &cfg)?.clamp(0.0, 1.0);
        sq_err_sum += (achieved - reward) * (achieved - reward);
        // Distinct: unique-token ratio of the rendered SQL.
        distinct_sum += distinct_ratio(&cost.render_sql(&q)?);
    }
    let c = correct.max(1) as f64;
    Ok(GenQuality {
        gac: correct as f64 / n.max(1) as f64,
        iac: iac_sum / c,
        rmse: (sq_err_sum / c).sqrt(),
        distinct: distinct_sum / c,
    })
}

/// Ratio of unique whitespace tokens in a rendered SQL string.
pub fn distinct_ratio(sql: &str) -> f64 {
    let tokens: Vec<&str> = sql.split_whitespace().collect();
    if tokens.is_empty() {
        return 0.0;
    }
    let unique: HashSet<&str> = tokens.iter().copied().collect();
    unique.len() as f64 / tokens.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{FsmGenerator, LlmLikeGenerator, StGenerator};
    use pipa_cost::SimBackend;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cost() -> SimBackend {
        SimBackend::new(Benchmark::TpcH.database(1.0, None))
    }

    #[test]
    fn st_has_perfect_gac_and_decent_iac() {
        let cost = cost();
        let mut g = StGenerator::new(1);
        let q =
            evaluate_generator(&mut g, &cost, 60, 3, &mut ChaCha8Rng::seed_from_u64(2)).unwrap();
        assert!((q.gac - 1.0).abs() < 1e-9, "ST GAC {}", q.gac);
        assert!(q.iac > 0.3, "ST IAC {}", q.iac);
        assert!(q.distinct > 0.0 && q.distinct <= 1.0);
    }

    #[test]
    fn llm_like_gac_below_st() {
        let cost = cost();
        let mut st = StGenerator::new(1);
        let mut llm = LlmLikeGenerator::gpt35_like(1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let qs = evaluate_generator(&mut st, &cost, 80, 3, &mut rng).unwrap();
        let ql = evaluate_generator(&mut llm, &cost, 80, 3, &mut rng).unwrap();
        assert!(ql.gac < qs.gac, "LLM GAC {} < ST GAC {}", ql.gac, qs.gac);
        assert!(ql.iac < qs.iac + 0.05, "infidelity lowers IAC");
    }

    #[test]
    fn fsm_iac_is_low() {
        // Random queries rarely hit three requested columns.
        let cost = cost();
        let mut g = FsmGenerator::new(9);
        let q =
            evaluate_generator(&mut g, &cost, 60, 3, &mut ChaCha8Rng::seed_from_u64(4)).unwrap();
        assert!(q.iac < 0.2, "FSM IAC {}", q.iac);
    }

    #[test]
    fn distinct_ratio_behaviour() {
        assert_eq!(distinct_ratio(""), 0.0);
        assert_eq!(distinct_ratio("a b c"), 1.0);
        assert!((distinct_ratio("a a b") - 2.0 / 3.0).abs() < 1e-9);
    }
}
