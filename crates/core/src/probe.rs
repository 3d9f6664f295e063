//! The probing stage (paper §4, Algorithm 1).
//!
//! Each epoch samples a column set from the probability vector `μ`, asks
//! the query generator for a probing workload that those columns would
//! optimize, submits it to the opaque-box advisor, observes the
//! recommended configuration's benefit, and updates the per-column `K`
//! accumulators (Eq. 8) plus `μ` (Eq. 9).
//!
//! Equation 9 as printed in the paper is partly garbled; this module
//! implements the mechanism its surrounding text describes precisely:
//!
//! * a column whose average observed reward is high gets *less* probing
//!   probability (its rank is already established);
//! * a column that was probed repeatedly and never produced any reward is
//!   *retired* (`μ = 0`) — the `β` sparsity rule, operationalized as a
//!   dead-probe threshold derived from `β = 1/(i + n)`;
//! * everything else keeps exploring, with `α` scaling how strongly new
//!   observations move the distribution.

use crate::preference::IndexingPreference;
use pipa_cost::{finite_cost, CostBackend, CostResult};
use pipa_ia::IndexAdvisor;
use pipa_qgen::QueryGenerator;
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Probing hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Probing epochs `P` (paper default: 20).
    pub epochs: usize,
    /// Queries per probing workload `N_p` (paper: the normal-workload
    /// size).
    pub queries_per_epoch: usize,
    /// Columns specified per generated query `|{c}|` (paper default: 4).
    pub columns_per_query: usize,
    /// Learning rate `α` (paper default: 0.1 after reward normalization).
    pub alpha: f64,
    /// Sparsity parameter `β = 1/(i + n)`; this stores `i` (paper default:
    /// `i = 10`).
    pub beta_i: f64,
    /// Requested benefit for generated probing queries.
    pub target_reward: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            epochs: 20,
            queries_per_epoch: 18,
            columns_per_query: 4,
            alpha: 0.1,
            beta_i: 10.0,
            target_reward: 0.6,
            seed: 0,
        }
    }
}

impl ProbeConfig {
    /// `β` itself, given the number of indexable columns.
    pub fn beta(&self, num_columns: usize) -> f64 {
        1.0 / (self.beta_i + num_columns as f64)
    }

    /// Dead-probe threshold derived from `β`: larger `β` (smaller `i`)
    /// retires unproductive columns sooner — reproducing Figure 12b's
    /// speed/accuracy trade-off.
    pub fn dead_probe_threshold(&self) -> usize {
        ((self.beta_i / 3.0).ceil() as usize + 1).max(2)
    }
}

/// Probing outcome.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// The estimated indexing preference.
    pub preference: IndexingPreference,
    /// Final sampling distribution `μ`.
    pub mu: Vec<f64>,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Per-epoch history of the top-ranked column (convergence analysis).
    pub best_trace: Vec<ColumnId>,
    /// Number of retired (dead) columns.
    pub retired: usize,
}

/// Run the probing stage (Algorithm 1).
pub fn probe(
    advisor: &mut dyn IndexAdvisor,
    cost: &dyn CostBackend,
    generator: &mut dyn QueryGenerator,
    cfg: &ProbeConfig,
) -> CostResult<ProbeResult> {
    pipa_obs::phase("probe");
    let l = cost.catalog().schema.num_columns();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9806);
    let mut mu = vec![1.0 / l as f64; l];
    let mut k_sum = vec![0.0f64; l];
    let mut reward_sum = vec![0.0f64; l];
    let mut reward_count = vec![0u32; l];
    let mut zero_probes = vec![0u32; l];
    let dead_threshold = cfg.dead_probe_threshold() as u32;
    let mut best_trace = Vec::with_capacity(cfg.epochs);

    for p in 1..=cfg.epochs {
        // Build the probing workload PW^p.
        let mut pw = Workload::new();
        let mut targeted: Vec<ColumnId> = Vec::new();
        for _ in 0..cfg.queries_per_epoch {
            let cols = sample_columns(&mu, cfg.columns_per_query, &mut rng);
            if cols.is_empty() {
                break;
            }
            if let Some(q) = generator.generate(cost, &cols, cfg.target_reward)? {
                // Probing queries carry unit frequency (§6.5).
                pw.push(q, 1);
                targeted.extend(cols);
            }
        }
        if pw.is_empty() {
            break;
        }
        targeted.sort_unstable();
        targeted.dedup();

        // Observe the advisor's output on PW (opaque-box interaction).
        // Both configs are costed in one matrix-backed batch: the benefit
        // rows built here are the same ones the advisor's own candidate
        // scoring warmed during `recommend`.
        let rec: IndexConfig = advisor.recommend(cost, &pw)?;
        let costs = cost.batch_workload_cost(&pw, &[IndexConfig::empty(), rec.clone()])?;
        let base = finite_cost(cost.name(), costs[0])?;
        let with = finite_cost(cost.name(), costs[1])?;
        let benefit = if base > 0.0 {
            ((base - with) / base).max(0.0)
        } else {
            0.0
        };
        let leading = rec.leading_columns();
        let share = if leading.is_empty() {
            0.0
        } else {
            benefit / leading.len() as f64
        };

        // Eq. 8: accumulate K for recommended leading columns.
        for &c in &leading {
            k_sum[c.0 as usize] += share;
            reward_sum[c.0 as usize] += share;
            reward_count[c.0 as usize] += 1;
        }
        // Targeted-but-unrewarded columns move toward retirement.
        for &c in &targeted {
            if !leading.contains(&c) {
                zero_probes[c.0 as usize] += 1;
            } else {
                zero_probes[c.0 as usize] = 0;
            }
        }

        // Eq. 9 (as described): damp well-observed columns, retire dead
        // ones, renormalize.
        for j in 0..l {
            if zero_probes[j] >= dead_threshold {
                mu[j] = 0.0;
                continue;
            }
            if mu[j] == 0.0 {
                continue;
            }
            let avg_r = if reward_count[j] > 0 {
                reward_sum[j] / f64::from(reward_count[j])
            } else {
                0.0
            };
            // Higher observed reward → lower future probing probability.
            mu[j] = (mu[j] * (1.0 - cfg.alpha * avg_r.clamp(0.0, 1.0))).max(1e-12);
        }
        let total: f64 = mu.iter().sum();
        if total <= 0.0 {
            // Everything retired: stop early.
            let best = current_best(&k_sum);
            best_trace.push(best);
            emit_epoch(p, pw.len(), benefit, best);
            return finish(cost, k_sum, mu, p, best_trace, &zero_probes, dead_threshold);
        }
        for m in &mut mu {
            *m /= total;
        }
        let best = current_best(&k_sum);
        best_trace.push(best);
        emit_epoch(p, pw.len(), benefit, best);
    }

    let epochs_run = best_trace.len();
    finish(
        cost,
        k_sum,
        mu,
        epochs_run,
        best_trace,
        &zero_probes,
        dead_threshold,
    )
}

/// One `probe_epoch` trace event: the epoch index, probing-workload
/// size, observed benefit, and the currently top-ranked column.
fn emit_epoch(epoch: usize, queries: usize, benefit: f64, best: ColumnId) {
    if pipa_obs::is_recording() {
        pipa_obs::emit(
            pipa_obs::Event::new("probe_epoch")
                .field("epoch", epoch)
                .field("queries", queries)
                .field("benefit", benefit)
                .field("best_col", u64::from(best.0)),
        );
    }
}

fn finish(
    cost: &dyn CostBackend,
    mut k_sum: Vec<f64>,
    mu: Vec<f64>,
    epochs_run: usize,
    best_trace: Vec<ColumnId>,
    zero_probes: &[u32],
    dead_threshold: u32,
) -> CostResult<ProbeResult> {
    // Normalize K by epochs (Eq. 8's 1/P factor; ordering-invariant).
    if epochs_run > 0 {
        for k in &mut k_sum {
            *k /= epochs_run as f64;
        }
    }
    // Columns the probing budget never observed are ranked below every
    // observed column, ordered by the *evaluator-side* indexability
    // prior: the evaluator owns replica tables (§3 trains IABART on "the
    // evaluator's own data tables d"), so it can judge which unobserved
    // columns are plausible indexes. This breaks the K = 0 ties the way
    // the paper's denser probing does, instead of by column id.
    let retired = zero_probes.iter().filter(|&&z| z >= dead_threshold).count();
    Ok(ProbeResult {
        preference: crate::preference::preference_with_prior(cost, k_sum)?,
        mu,
        epochs_run,
        best_trace,
        retired,
    })
}

/// Evaluator-side indexability of each column: the what-if benefit of a
/// single-column index for an equality probe on that column, weighted by
/// the table's absolute scan cost (expensive tables matter more to a
/// training set).
pub fn indexability_prior(cost: &dyn CostBackend) -> CostResult<Vec<f64>> {
    use pipa_sim::{Aggregate, Index, Predicate, QueryBuilder};
    let schema = cost.catalog().schema;
    let cols = schema.indexable_columns();
    let mut out = Vec::with_capacity(cols.len());
    for c in cols {
        let q = QueryBuilder::new()
            .filter(schema, Predicate::eq(c, 0.5))
            .aggregate(Aggregate::CountStar)
            .build(schema)
            .expect("probe query");
        // Single-table equality probes: the simulator backend answers
        // them from the benefit matrix (one row per column, shared with
        // later phases).
        let base = finite_cost(cost.name(), cost.query_cost(&q, &IndexConfig::empty())?)?;
        let with = finite_cost(
            cost.name(),
            cost.query_cost(&q, &IndexConfig::from_indexes([Index::single(c)]))?,
        )?;
        out.push((base - with).max(0.0));
    }
    Ok(out)
}

fn current_best(k_sum: &[f64]) -> ColumnId {
    let mut best = 0usize;
    for (i, &v) in k_sum.iter().enumerate() {
        if v > k_sum[best] {
            best = i;
        }
    }
    ColumnId(best as u32)
}

/// Sample `k` distinct columns from `μ` (without replacement).
fn sample_columns<R: Rng>(mu: &[f64], k: usize, rng: &mut R) -> Vec<ColumnId> {
    let mut weights: Vec<f64> = mu.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut r = rng.gen::<f64>() * total;
        let mut pick = weights.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            r -= w;
            if r <= 0.0 {
                pick = i;
                break;
            }
        }
        out.push(ColumnId(pick as u32));
        weights[pick] = 0.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_non_finite, BadCosts, Seam, BAD_COSTS};
    use pipa_ia::{AutoAdminGreedy, SpeedPreset};
    use pipa_qgen::StGenerator;
    use pipa_workload::Benchmark;

    fn setup() -> (pipa_cost::SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (pipa_cost::SimBackend::new(db), w)
    }

    #[test]
    fn sample_columns_respects_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mu = vec![0.0, 0.0, 1.0, 0.0];
        let cols = sample_columns(&mu, 1, &mut rng);
        assert_eq!(cols, vec![ColumnId(2)]);
        // Without replacement; zero-weight columns are never drawn, so
        // only the two positive-weight columns come back.
        let mu = vec![0.5, 0.5, 0.0, 0.0];
        let cols = sample_columns(&mu, 3, &mut rng);
        let mut dedup = cols.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup, vec![ColumnId(0), ColumnId(1)]);
    }

    #[test]
    fn probing_a_greedy_advisor_finds_its_preferences() {
        // AutoAdmin recommends purely by what-if benefit, so probing it
        // must surface genuinely selective columns at the top.
        let (cost, _) = setup();
        let mut advisor = AutoAdminGreedy::new(4);
        let mut generator = StGenerator::new(3);
        let cfg = ProbeConfig {
            epochs: 8,
            queries_per_epoch: 6,
            ..Default::default()
        };
        let res = probe(&mut advisor, &cost, &mut generator, &cfg).unwrap();
        assert!(res.epochs_run >= 1);
        assert!(res.preference.num_positive() >= 3, "saw some columns");
        // The top column must have actually been rewarded.
        let best = res.preference.best();
        assert!(res.preference.k_values[best.0 as usize] > 0.0);
    }

    #[test]
    fn probing_is_deterministic_under_seed() {
        let (cost, _) = setup();
        let run = |seed| {
            let mut advisor = AutoAdminGreedy::new(4);
            let mut generator = StGenerator::new(77);
            let cfg = ProbeConfig {
                epochs: 4,
                queries_per_epoch: 4,
                seed,
                ..Default::default()
            };
            probe(&mut advisor, &cost, &mut generator, &cfg)
                .unwrap()
                .preference
                .ranking
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn dead_probe_threshold_tracks_beta() {
        let tight = ProbeConfig {
            beta_i: 4.0 / 3.0,
            ..Default::default()
        };
        let loose = ProbeConfig {
            beta_i: 20.0,
            ..Default::default()
        };
        assert!(tight.dead_probe_threshold() < loose.dead_probe_threshold());
        assert!(tight.beta(61) > loose.beta(61));
    }

    #[test]
    fn probing_respects_learned_advisors_too() {
        // Smoke test against a learned advisor (opaque-box path).
        let (cost, w) = setup();
        let mut advisor = pipa_ia::AdvisorSpec::new("dbabandit")
            .build_with(pipa_ia::BuildCtx::new(SpeedPreset::Test, 1))
            .unwrap();
        advisor.train(&cost, &w).unwrap();
        let mut generator = StGenerator::new(4);
        let cfg = ProbeConfig {
            epochs: 3,
            queries_per_epoch: 4,
            ..Default::default()
        };
        let res = probe(advisor.as_mut(), &cost, &mut generator, &cfg).unwrap();
        assert_eq!(res.mu.len(), 61);
        assert!(res.epochs_run >= 1);
    }

    #[test]
    fn invalid_probe_batch_costs_are_typed_errors() {
        let (sim, _) = setup();
        for bad in BAD_COSTS {
            // The empty-config cost, then the recommendation's.
            for ok in 0..2 {
                let cost = BadCosts::new(&sim, Seam::Batch, ok, bad);
                let cfg = ProbeConfig {
                    epochs: 2,
                    queries_per_epoch: 4,
                    ..Default::default()
                };
                let got = probe(
                    &mut AutoAdminGreedy::new(4),
                    &cost,
                    &mut StGenerator::new(3),
                    &cfg,
                );
                assert_non_finite(got, bad, &format!("probe batch cost {ok}"));
            }
        }
    }

    #[test]
    fn invalid_indexability_prior_costs_are_typed_errors() {
        let (sim, _) = setup();
        for bad in BAD_COSTS {
            // The first column's base cost, then its indexed cost.
            for ok in 0..2 {
                let cost = BadCosts::new(&sim, Seam::Query, ok, bad);
                assert_non_finite(indexability_prior(&cost), bad, &format!("prior cost {ok}"));
            }
        }
    }
}
