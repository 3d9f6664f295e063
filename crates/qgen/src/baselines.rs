//! Competitor query generators (paper §6.7 and the injection baselines of
//! §6.2).
//!
//! * [`StGenerator`] — "SQL that contains only WHERE filter clauses and
//!   only the specified indexes in the WHERE clauses";
//! * [`DtGenerator`] — pick the benchmark template whose filter surface
//!   overlaps the given columns most, then instantiate it;
//! * [`FsmGenerator`] — plain random FSM queries (ignores the targets);
//! * [`LlmLikeGenerator`] — the stand-in for the GPT-3.5/4 baselines
//!   (closed APIs are unavailable offline): an ST-style constructor with
//!   calibrated syntax-error and column-infidelity rates matching the
//!   paper's reported GAC/IAC for GPT-4.

use crate::fsm::QueryFsm;
use crate::parser::parse_words;
use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{Aggregate, ColumnId, Predicate, Query, QueryBuilder, Schema};
use pipa_workload::TemplateSpec;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A query generator with index-aware intent: given target columns and a
/// desired benefit, produce a query (or fail — failures count against
/// GAC).
pub trait QueryGenerator {
    /// Short display name (paper table rows).
    fn name(&self) -> &str;

    /// Generate one query aimed at the target columns/reward. `Ok(None)`
    /// means the generator declined or produced unparseable output (counts
    /// against GAC); `Err` means the cost backend itself failed.
    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        targets: &[ColumnId],
        reward: f64,
    ) -> CostResult<Option<Query>>;
}

/// Build an ST-style query: filters on exactly the target columns (those
/// reachable through foreign-key joins from the first target's table),
/// selective operators so the index is attractive.
pub fn build_st_query<R: Rng + ?Sized>(
    schema: &Schema,
    targets: &[ColumnId],
    reward: f64,
    rng: &mut R,
) -> Option<Query> {
    let first = *targets.first()?;
    let mut b = QueryBuilder::new().table(schema.table_of(first));
    let mut in_scope = vec![schema.table_of(first)];
    let mut used = Vec::new();
    for &c in targets {
        let t = schema.table_of(c);
        if !in_scope.contains(&t) {
            // Join in via a foreign key if possible; skip otherwise.
            let edge = schema.foreign_keys().iter().find(|fk| {
                let (tf, tt) = (schema.table_of(fk.from), schema.table_of(fk.to));
                (tf == t && in_scope.contains(&tt)) || (tt == t && in_scope.contains(&tf))
            });
            match edge {
                Some(fk) => {
                    b = b.join(schema, fk.from, fk.to);
                    in_scope.push(t);
                }
                None => continue,
            }
        }
        // Selectivity targeting: a higher requested reward wants a more
        // selective predicate.
        let width = (1.0 - reward).clamp(0.02, 0.6) * 0.2;
        let pred = if rng.gen_bool(0.5) {
            Predicate::eq(c, rng.gen())
        } else {
            let lo = rng.gen_range(0.0..(1.0 - width));
            Predicate::between(c, lo, lo + width)
        };
        b = b.filter(schema, pred);
        used.push(c);
    }
    if used.is_empty() {
        return None;
    }
    b.aggregate(Aggregate::CountStar).build(schema).ok()
}

/// ST: filters on exactly the specified columns.
pub struct StGenerator {
    rng: ChaCha8Rng,
}

impl StGenerator {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        StGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x57),
        }
    }
}

impl QueryGenerator for StGenerator {
    fn name(&self) -> &str {
        "ST"
    }

    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        targets: &[ColumnId],
        reward: f64,
    ) -> CostResult<Option<Query>> {
        Ok(build_st_query(
            cost.catalog().schema,
            targets,
            reward,
            &mut self.rng,
        ))
    }
}

/// DT: instantiate the benchmark template covering the targets best.
pub struct DtGenerator {
    templates: Vec<TemplateSpec>,
    rng: ChaCha8Rng,
}

impl DtGenerator {
    /// Seeded constructor over a template pool.
    pub fn new(templates: Vec<TemplateSpec>, seed: u64) -> Self {
        DtGenerator {
            templates,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xd7),
        }
    }
}

impl QueryGenerator for DtGenerator {
    fn name(&self) -> &str {
        "DT"
    }

    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        targets: &[ColumnId],
        _reward: f64,
    ) -> CostResult<Option<Query>> {
        let schema = cost.catalog().schema;
        let target_names: Vec<&str> = targets
            .iter()
            .map(|&c| schema.column(c).name.as_str())
            .collect();
        let Some(best) = self.templates.iter().max_by_key(|t| {
            t.filter_column_names()
                .iter()
                .filter(|n| target_names.contains(n))
                .count()
        }) else {
            return Ok(None);
        };
        Ok(best.instantiate(schema, &mut self.rng).ok())
    }
}

/// FSM: random grammatical query, targets ignored (the paper's FSM
/// injection baseline assigns each query unit frequency).
pub struct FsmGenerator {
    rng: ChaCha8Rng,
}

impl FsmGenerator {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        FsmGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xf5),
        }
    }
}

impl QueryGenerator for FsmGenerator {
    fn name(&self) -> &str {
        "FSM"
    }

    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        _targets: &[ColumnId],
        _reward: f64,
    ) -> CostResult<Option<Query>> {
        let schema = cost.catalog().schema;
        let words = QueryFsm::generate(schema, &mut self.rng, None);
        Ok(parse_words(schema, &words).ok())
    }
}

/// LLM stand-in: ST construction degraded by calibrated error rates.
pub struct LlmLikeGenerator {
    /// Probability of an unparseable output (1 − GAC).
    pub syntax_error_rate: f64,
    /// Probability each target column is swapped for a random column.
    pub column_infidelity: f64,
    name: String,
    rng: ChaCha8Rng,
}

impl LlmLikeGenerator {
    /// Calibrated to the paper's GPT-4 row (GAC 0.92, IAC 0.63).
    pub fn gpt4_like(seed: u64) -> Self {
        LlmLikeGenerator {
            syntax_error_rate: 0.08,
            column_infidelity: 0.30,
            name: "GPT-4-like".to_string(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x69),
        }
    }

    /// Calibrated to the paper's GPT-3.5-turbo row (GAC 0.82, IAC 0.60).
    pub fn gpt35_like(seed: u64) -> Self {
        LlmLikeGenerator {
            syntax_error_rate: 0.18,
            column_infidelity: 0.33,
            name: "GPT-3.5-like".to_string(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x35),
        }
    }
}

impl QueryGenerator for LlmLikeGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        targets: &[ColumnId],
        reward: f64,
    ) -> CostResult<Option<Query>> {
        if self.rng.gen::<f64>() < self.syntax_error_rate {
            return Ok(None); // hallucinated / non-executable SQL
        }
        let schema = cost.catalog().schema;
        let all = schema.indexable_columns();
        let noisy: Vec<ColumnId> = targets
            .iter()
            .map(|&c| {
                if self.rng.gen::<f64>() < self.column_infidelity {
                    *all.choose(&mut self.rng).expect("nonempty")
                } else {
                    c
                }
            })
            .collect();
        Ok(build_st_query(schema, &noisy, reward, &mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::SimBackend;
    use pipa_workload::Benchmark;

    fn cost() -> SimBackend {
        SimBackend::new(Benchmark::TpcH.database(1.0, None))
    }

    fn targets(cost: &SimBackend) -> Vec<ColumnId> {
        let schema = cost.database().schema();
        vec![
            schema.column_id("l_shipdate").unwrap(),
            schema.column_id("o_orderdate").unwrap(),
        ]
    }

    #[test]
    fn st_filters_exactly_the_targets() {
        let cost = cost();
        let t = targets(&cost);
        let mut g = StGenerator::new(1);
        let q = g.generate(&cost, &t, 0.7).unwrap().unwrap();
        let fc = q.filter_columns();
        assert!(fc.iter().all(|c| t.contains(c)));
        assert!(!fc.is_empty());
        assert!(q.validate(cost.database().schema()).is_ok());
    }

    #[test]
    fn st_joins_across_tables() {
        let cost = cost();
        let t = targets(&cost); // lineitem + orders → needs a join
        let mut g = StGenerator::new(2);
        let q = g.generate(&cost, &t, 0.5).unwrap().unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
    }

    #[test]
    fn dt_picks_overlapping_template() {
        let cost = cost();
        let mut g = DtGenerator::new(Benchmark::TpcH.default_templates(), 3);
        let ship = cost.database().schema().column_id("l_shipdate").unwrap();
        let q = g.generate(&cost, &[ship], 0.5).unwrap().unwrap();
        assert!(
            q.filter_columns().contains(&ship),
            "template containing l_shipdate expected"
        );
    }

    #[test]
    fn fsm_generates_valid_ignoring_targets() {
        let cost = cost();
        let mut g = FsmGenerator::new(4);
        for _ in 0..20 {
            let q = g.generate(&cost, &[], 0.0).unwrap().unwrap();
            assert!(q.validate(cost.database().schema()).is_ok());
        }
    }

    #[test]
    fn llm_like_has_calibrated_failure_rate() {
        let cost = cost();
        let t = targets(&cost);
        let mut g = LlmLikeGenerator::gpt35_like(5);
        let mut fails = 0;
        for _ in 0..200 {
            if g.generate(&cost, &t, 0.5).unwrap().is_none() {
                fails += 1;
            }
        }
        let rate = f64::from(fails) / 200.0;
        assert!(
            (rate - 0.18).abs() < 0.08,
            "syntax error rate {rate} vs calibrated 0.18"
        );
    }
}
