//! The injecting stage (paper §5, Algorithm 2).
//!
//! Generates the toxic injection workload `Ŵ`: queries that (1) can be
//! optimized by indexes on *mid-ranked* columns and (2) can **not** be
//! optimized by the top-ranked index — so retraining demotes the victim's
//! best columns and promotes mid-ranked ones, trapping trial-based
//! advisors in a local optimum and directly degrading one-off advisors.

use crate::preference::Segments;
use pipa_cost::{finite_cost, CostBackend, CostResult};
use pipa_qgen::QueryGenerator;
use pipa_sim::{ColumnId, Index, IndexConfig, Query, Workload};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Injection hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct InjectConfig {
    /// Toxic workload size `N_a` (paper: the normal-workload size).
    pub workload_size: usize,
    /// Columns specified per generated query `|{c}|` (paper default: 4,
    /// capped by the mid segment's width).
    pub columns_per_query: usize,
    /// Requested benefit for generated queries.
    pub target_reward: f64,
    /// Generation attempts per accepted query before giving up.
    pub max_attempts_factor: usize,
    /// Ablation switch: accept every generated query, skipping the
    /// Algorithm-2 line-4 toxicity check.
    pub skip_toxicity_filter: bool,
    /// Ablation switch: give injected queries unit frequency instead of
    /// normal-workload-like uniform frequencies.
    pub unit_frequencies: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InjectConfig {
    fn default() -> Self {
        InjectConfig {
            workload_size: 18,
            columns_per_query: 4,
            target_reward: 0.6,
            max_attempts_factor: 6,
            skip_toxicity_filter: false,
            unit_frequencies: false,
            seed: 0,
        }
    }
}

/// Injection outcome with acceptance diagnostics.
#[derive(Debug, Clone)]
pub struct InjectResult {
    /// The toxic injection workload.
    pub workload: Workload,
    /// Queries rejected by the line-4 filter.
    pub rejected: usize,
    /// Distinct mid-ranked columns covered by accepted queries.
    pub columns_covered: usize,
}

/// Algorithm 2: build the toxic injection workload from the estimated
/// segments.
pub fn inject(
    cost: &dyn CostBackend,
    generator: &mut dyn QueryGenerator,
    segments: &Segments,
    cfg: &InjectConfig,
) -> CostResult<InjectResult> {
    pipa_obs::phase("inject");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x1286);
    let mut w = Workload::new();
    let mut rejected = 0usize;
    let mut covered: Vec<ColumnId> = Vec::new();
    let top1 = segments.top.first().copied();
    let mid = if segments.mid.is_empty() {
        // Degenerate segmentation: fall back to everything but the top.
        &segments.low
    } else {
        &segments.mid
    };
    if mid.is_empty() {
        return Ok(InjectResult {
            workload: w,
            rejected,
            columns_covered: 0,
        });
    }

    let max_attempts = cfg.workload_size * cfg.max_attempts_factor;
    let mut attempts = 0;
    while w.len() < cfg.workload_size && attempts < max_attempts {
        attempts += 1;
        // Line 2: sample target columns from the mid segment.
        let k = cfg.columns_per_query.min(mid.len()).max(1);
        let cols: Vec<ColumnId> = mid.choose_multiple(&mut rng, k).copied().collect();
        // Line 3: generate a query optimized by those columns.
        let Some(q) = generator.generate(cost, &cols, cfg.target_reward)? else {
            rejected += 1;
            continue;
        };
        // Line 4: accept only if the mid columns beat the top index.
        if cfg.skip_toxicity_filter || passes_toxicity_filter(cost, &q, &cols, top1)? {
            for c in q.filter_columns() {
                if mid.contains(&c) && !covered.contains(&c) {
                    covered.push(c);
                }
            }
            // Injected queries mimic normal workload frequencies so the
            // poisoned training mass matches ω (the FSM baseline keeps
            // unit frequencies per §6.2).
            use rand::Rng as _;
            let freq = if cfg.unit_frequencies {
                1
            } else {
                rng.gen_range(1..=10)
            };
            w.push(q, freq);
        } else {
            rejected += 1;
        }
    }
    if pipa_obs::is_recording() {
        pipa_obs::emit(
            pipa_obs::Event::new("inject_done")
                .field("accepted", w.len())
                .field("rejected", rejected)
                .field("columns_covered", covered.len())
                .field("attempts", attempts),
        );
    }
    Ok(InjectResult {
        workload: w,
        rejected,
        columns_covered: covered.len(),
    })
}

/// The paper's line-4 condition: `c(q̂, d, {c}) < c(q̂, d, l_1)` — the
/// sampled mid columns must optimize the query strictly better than the
/// victim's top-ranked index does.
pub fn passes_toxicity_filter(
    cost: &dyn CostBackend,
    q: &Query,
    cols: &[ColumnId],
    top1: Option<ColumnId>,
) -> CostResult<bool> {
    // Generated queries are single-table, so under the simulator backend
    // both sides of the comparison come from the same benefit-matrix row;
    // join-shaped queries fall back to the full model.
    let mid_cfg: IndexConfig = cols.iter().map(|&c| Index::single(c)).collect();
    let c_mid = finite_cost(cost.name(), cost.query_cost(q, &mid_cfg)?)?;
    let top_cfg = match top1 {
        Some(t) => IndexConfig::from_indexes([Index::single(t)]),
        None => IndexConfig::empty(),
    };
    let c_top = finite_cost(cost.name(), cost.query_cost(q, &top_cfg)?)?;
    Ok(c_mid < c_top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::{oracle_preference, segment, SegmentConfig};
    use pipa_qgen::StGenerator;
    use pipa_workload::Benchmark;

    fn setup() -> (pipa_cost::SimBackend, Segments) {
        let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        use rand::SeedableRng;
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        let pref = oracle_preference(&cost, &w).unwrap();
        let seg = segment(&pref, cost.database().schema(), &SegmentConfig::default());
        (cost, seg)
    }

    #[test]
    fn injection_fills_workload_with_mid_targeting_queries() {
        let (cost, seg) = setup();
        let mut generator = StGenerator::new(5);
        let cfg = InjectConfig {
            workload_size: 10,
            ..Default::default()
        };
        let res = inject(&cost, &mut generator, &seg, &cfg).unwrap();
        assert!(
            res.workload.len() >= 7,
            "accepted {} of 10 (rejected {})",
            res.workload.len(),
            res.rejected
        );
        // Accepted queries avoid filtering on the top column.
        let top1 = seg.top[0];
        for wq in res.workload.iter() {
            let fc = wq.query.filter_columns();
            assert!(!fc.contains(&top1), "query filters on the top index");
        }
        assert!(res.columns_covered >= 2, "covered {}", res.columns_covered);
    }

    #[test]
    fn toxicity_filter_rejects_top_optimized_queries() {
        let (cost, seg) = setup();
        let schema = cost.database().schema();
        let top1 = seg.top[0];
        // A query filtered on the top column is optimized by it.
        let q = pipa_sim::QueryBuilder::new()
            .filter(schema, pipa_sim::Predicate::eq(top1, 0.3))
            .aggregate(pipa_sim::Aggregate::CountStar)
            .build(schema)
            .unwrap();
        assert!(
            !passes_toxicity_filter(&cost, &q, &seg.mid[..2.min(seg.mid.len())], Some(top1))
                .unwrap()
        );
    }

    #[test]
    fn invalid_toxicity_filter_costs_are_typed_errors() {
        use crate::testing::{assert_non_finite, BadCosts, Seam, BAD_COSTS};
        let (sim, seg) = setup();
        let schema = sim.database().schema();
        let top1 = seg.top[0];
        let q = pipa_sim::QueryBuilder::new()
            .filter(schema, pipa_sim::Predicate::eq(top1, 0.3))
            .aggregate(pipa_sim::Aggregate::CountStar)
            .build(schema)
            .unwrap();
        for bad in BAD_COSTS {
            // The mid configuration's cost, then the top index's.
            for ok in 0..2 {
                let cost = BadCosts::new(&sim, Seam::Query, ok, bad);
                let got = passes_toxicity_filter(&cost, &q, &seg.mid[..1], Some(top1));
                assert_non_finite(got, bad, &format!("toxicity cost {ok}"));
            }
        }
    }

    #[test]
    fn toxicity_filter_accepts_mid_optimized_queries() {
        let (cost, seg) = setup();
        let cat = cost.catalog();
        let selective: Vec<ColumnId> = seg
            .mid
            .iter()
            .copied()
            .filter(|&c| cat.column(c).ndv > 100)
            .collect();
        let Some(&first) = selective.first() else {
            return; // segmentation produced no selective mid columns
        };
        // Stay on one table so the probe query needs no join edges.
        let schema = cat.schema;
        let table = schema.column(first).table;
        let mid: Vec<ColumnId> = selective
            .into_iter()
            .filter(|&c| schema.column(c).table == table)
            .take(2)
            .collect();
        let mut b = pipa_sim::QueryBuilder::new();
        for &c in &mid {
            b = b.filter(schema, pipa_sim::Predicate::eq(c, 0.4));
        }
        let q = b
            .aggregate(pipa_sim::Aggregate::CountStar)
            .build(schema)
            .unwrap();
        assert!(passes_toxicity_filter(&cost, &q, &mid, Some(seg.top[0])).unwrap());
    }

    #[test]
    fn injection_workload_is_disjoint_from_normal() {
        let (cost, seg) = setup();
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let normal = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        let mut generator = StGenerator::new(6);
        let res = inject(
            &cost,
            &mut generator,
            &seg,
            &InjectConfig {
                workload_size: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.workload.is_disjoint_from(&normal), "Ŵ ∩ W = ∅");
    }

    #[test]
    fn empty_mid_segment_handled() {
        let (cost, mut seg) = setup();
        seg.mid.clear();
        seg.low.clear();
        let mut generator = StGenerator::new(7);
        let res = inject(&cost, &mut generator, &seg, &InjectConfig::default()).unwrap();
        assert!(res.workload.is_empty());
    }
}
