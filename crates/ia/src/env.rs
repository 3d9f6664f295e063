//! The index-selection environment shared by the RL advisors.
//!
//! An episode ("trajectory" in the paper) starts from the empty index
//! configuration and adds one single-column index per step until the
//! budget `B` is exhausted. The reward is the *relative cost reduction*
//! of the workload, the quantity most learned IAs optimize (paper Eq. 7);
//! DRLindex plugs in its own `1/cost` reward.
//!
//! Costs flow through the [`CostBackend`] seam: each step advances an
//! opaque [`CostSession`], which the simulator backend maps onto its
//! benefit-matrix incremental evaluator (bit-identical to re-costing the
//! whole workload). The environment prices the empty configuration once:
//! it begins one session at construction, every episode starts from a
//! clone of it, and single-column benefits are previews from it.
//!
//! Rewards are scaled by [`REWARD_SCALE`] so learning curves land in the
//! 0–20 range the paper's Figure 8 plots.
//!
//! Every cost the environment reads (the base cost, a step's cost, a
//! preview) must be finite and non-negative; anything else is a
//! [`pipa_cost::CostError::NonFinite`]. Rewards and benefits are
//! therefore always finite.

use pipa_cost::{finite_cost, CostBackend, CostResult, CostSession};
use pipa_sim::{ColumnId, Index, IndexConfig, Workload};

/// Reward multiplier (presentation only; affects no ordering).
pub const REWARD_SCALE: f64 = 20.0;

/// The environment for one workload.
pub struct IndexEnv<'a> {
    cost: &'a dyn CostBackend,
    workload: &'a Workload,
    /// Action space: candidate columns for single-column indexes.
    pub candidates: Vec<ColumnId>,
    /// Index-count budget.
    pub budget: usize,
    base_cost: f64,
    /// Session at the empty configuration; episodes start from clones.
    empty: CostSession,
}

/// State of an in-progress episode.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Indexes chosen so far.
    pub config: IndexConfig,
    /// Actions (candidate positions) already taken.
    pub taken: Vec<usize>,
    /// Cost of the workload under the current config.
    pub current_cost: f64,
    /// Incremental what-if session tracking `config`; the backend decides
    /// what state it carries (the simulator updates one benefit-matrix
    /// cell per query per step).
    pub session: CostSession,
}

impl<'a> IndexEnv<'a> {
    /// New environment over a candidate set.
    pub fn new(
        cost: &'a dyn CostBackend,
        workload: &'a Workload,
        candidates: Vec<ColumnId>,
        budget: usize,
    ) -> CostResult<Self> {
        let base_cost = finite_cost(
            cost.name(),
            cost.workload_cost(workload, &IndexConfig::empty())?,
        )?;
        let empty = cost.session_begin(workload)?;
        Ok(IndexEnv {
            cost,
            workload,
            candidates,
            budget,
            base_cost,
            empty,
        })
    }

    /// The cost backend.
    pub fn cost(&self) -> &'a dyn CostBackend {
        self.cost
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        self.workload
    }

    /// Workload cost with no indexes.
    pub fn base_cost(&self) -> f64 {
        self.base_cost
    }

    /// Relative workload cost reduction from one single-column index on
    /// `col`, previewed from the empty session: bit-equal to
    /// `pipa_cost::workload_benefit(cost, w, {col})` at one preview instead
    /// of two workload costs.
    pub fn single_column_benefit(&self, col: ColumnId) -> CostResult<f64> {
        if self.base_cost <= 0.0 {
            return Ok(0.0);
        }
        let idx = Index::single(col);
        let cfg = IndexConfig::from_indexes([idx.clone()]);
        let cost = self
            .cost
            .session_preview_add(self.workload, &self.empty, &cfg, &idx)?;
        Ok(1.0 - finite_cost(self.cost.name(), cost)? / self.base_cost)
    }

    /// Start an episode from the empty configuration.
    pub fn reset(&self) -> Episode {
        Episode {
            config: IndexConfig::empty(),
            taken: Vec::new(),
            current_cost: self.base_cost,
            session: self.empty.clone(),
        }
    }

    /// Whether the episode is finished (budget used or no actions left).
    pub fn done(&self, ep: &Episode) -> bool {
        ep.taken.len() >= self.budget || ep.taken.len() >= self.candidates.len()
    }

    /// Apply action `a` (an index into `candidates`). Returns the step
    /// reward: the scaled relative cost reduction this index added.
    pub fn step(&self, ep: &mut Episode, a: usize) -> CostResult<f64> {
        debug_assert!(!ep.taken.contains(&a), "action repeated");
        let col = self.candidates[a];
        let idx = Index::single(col);
        ep.config.add(idx.clone());
        ep.taken.push(a);
        let new_cost = self
            .cost
            .session_add(self.workload, &mut ep.session, &ep.config, &idx)?;
        let new_cost = finite_cost(self.cost.name(), new_cost)?;
        let reward = if self.base_cost > 0.0 {
            (ep.current_cost - new_cost) / self.base_cost * REWARD_SCALE
        } else {
            0.0
        };
        ep.current_cost = new_cost;
        Ok(reward)
    }

    /// Total scaled benefit of an episode's final configuration.
    pub fn episode_return(&self, ep: &Episode) -> f64 {
        if self.base_cost > 0.0 {
            (self.base_cost - ep.current_cost) / self.base_cost * REWARD_SCALE
        } else {
            0.0
        }
    }

    /// Valid (not yet taken) actions.
    pub fn valid_actions(&self, ep: &Episode) -> Vec<usize> {
        (0..self.candidates.len())
            .filter(|a| !ep.taken.contains(a))
            .collect()
    }

    /// Greedy rollout; used for decoding a configuration from learned
    /// parameters. `scores` maps an episode state to one score per
    /// candidate, and each step takes the valid action that scores
    /// highest (the last of equals).
    pub fn greedy_rollout(
        &self,
        mut scores: impl FnMut(&Episode) -> Vec<f64>,
    ) -> CostResult<Episode> {
        let mut ep = self.reset();
        while !self.done(&ep) {
            let s = scores(&ep);
            let Some(best) = self
                .valid_actions(&ep)
                .into_iter()
                .max_by(|&x, &y| s[x].total_cmp(&s[y]))
            else {
                break;
            };
            self.step(&mut ep, best)?;
        }
        Ok(ep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::{workload_benefit, SimBackend};
    use pipa_sim::Workload;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup_on(b: Benchmark) -> (SimBackend, Workload) {
        let db = b.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(b.schema(), b.default_templates());
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (SimBackend::new(db), w)
    }

    fn setup() -> (SimBackend, Workload) {
        setup_on(Benchmark::TpcH)
    }

    #[test]
    fn single_column_benefit_matches_workload_benefit_bit_for_bit() {
        for b in [Benchmark::TpcH, Benchmark::TpcDs] {
            let (cost, w) = setup_on(b);
            let env = IndexEnv::new(&cost, &w, Vec::new(), 0).unwrap();
            for c in cost.database().schema().indexable_columns() {
                let cfg = IndexConfig::from_indexes([Index::single(c)]);
                assert_eq!(
                    env.single_column_benefit(c).unwrap().to_bits(),
                    workload_benefit(&cost, &w, &cfg).unwrap().to_bits(),
                    "{} column {c:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn single_column_benefit_highlights_useful_columns() {
        let (cost, w) = setup();
        let env = IndexEnv::new(&cost, &w, Vec::new(), 0).unwrap();
        // l_shipdate is filtered by several templates with tight ranges —
        // its index benefit must be positive.
        let schema = cost.database().schema();
        let ship = schema.column_id("l_shipdate").unwrap();
        assert!(env.single_column_benefit(ship).unwrap() > 0.0);
        // A never-filtered comment column has no benefit.
        let comment = schema.column_id("l_comment").unwrap();
        assert_eq!(env.single_column_benefit(comment).unwrap(), 0.0);
    }

    #[test]
    fn episode_runs_to_budget() {
        let (cost, w) = setup();
        let cands = cost.database().schema().indexable_columns();
        let env = IndexEnv::new(&cost, &w, cands, 4).unwrap();
        let mut ep = env.reset();
        let mut steps = 0;
        while !env.done(&ep) {
            let a = env.valid_actions(&ep)[0];
            env.step(&mut ep, a).unwrap();
            steps += 1;
        }
        assert_eq!(steps, 4);
        assert_eq!(ep.config.len(), 4);
    }

    #[test]
    fn rewards_sum_to_episode_return() {
        let (cost, w) = setup();
        let cands = cost.database().schema().indexable_columns();
        let env = IndexEnv::new(&cost, &w, cands, 4).unwrap();
        let mut ep = env.reset();
        let mut total = 0.0;
        for a in [5, 10, 40, 50] {
            total += env.step(&mut ep, a).unwrap();
        }
        assert!((total - env.episode_return(&ep)).abs() < 1e-9);
    }

    #[test]
    fn useful_index_gives_positive_reward() {
        let (cost, w) = setup();
        let ship = cost.database().schema().column_id("l_shipdate").unwrap();
        let comment = cost.database().schema().column_id("l_comment").unwrap();
        let env = IndexEnv::new(&cost, &w, vec![ship, comment], 2).unwrap();
        let mut ep = env.reset();
        let r_good = env.step(&mut ep, 0).unwrap();
        let r_useless = env.step(&mut ep, 1).unwrap();
        assert!(r_good > 0.0, "l_shipdate reward {r_good}");
        assert!(r_useless.abs() < 1e-9, "l_comment reward {r_useless}");
    }

    #[test]
    fn greedy_rollout_with_oracle_score_beats_random() {
        let (cost, w) = setup();
        let cands = cost.database().schema().indexable_columns();
        let env = IndexEnv::new(&cost, &w, cands.clone(), 4).unwrap();
        // Oracle: score by true marginal benefit.
        let oracle = env
            .greedy_rollout(|ep| {
                (0..env.candidates.len())
                    .map(|a| {
                        let mut cfg = ep.config.clone();
                        cfg.add(Index::single(env.candidates[a]));
                        -cost.workload_cost(&w, &cfg).unwrap()
                    })
                    .collect()
            })
            .unwrap();
        // Random: first four candidates.
        let mut random = env.reset();
        for a in 0..4 {
            env.step(&mut random, a).unwrap();
        }
        assert!(
            env.episode_return(&oracle) > env.episode_return(&random),
            "oracle {} vs random {}",
            env.episode_return(&oracle),
            env.episode_return(&random)
        );
        assert!(env.episode_return(&oracle) > 0.5);
    }

    #[test]
    fn incremental_step_costs_match_full_recompute_bit_for_bit() {
        let (cost, w) = setup();
        let cands = cost.database().schema().indexable_columns();
        let env = IndexEnv::new(&cost, &w, cands, 5).unwrap();
        let mut ep = env.reset();
        assert_eq!(
            ep.current_cost.to_bits(),
            cost.workload_cost(&w, &IndexConfig::empty())
                .unwrap()
                .to_bits()
        );
        for a in [3, 9, 17, 25, 31] {
            env.step(&mut ep, a).unwrap();
            assert_eq!(
                ep.current_cost.to_bits(),
                cost.workload_cost(&w, &ep.config).unwrap().to_bits(),
                "incremental episode cost diverged after adding action {a}"
            );
        }
    }

    #[test]
    fn valid_actions_shrink() {
        let (cost, w) = setup();
        let cands: Vec<ColumnId> = cost
            .database()
            .schema()
            .indexable_columns()
            .into_iter()
            .take(6)
            .collect();
        let env = IndexEnv::new(&cost, &w, cands, 3).unwrap();
        let mut ep = env.reset();
        assert_eq!(env.valid_actions(&ep).len(), 6);
        env.step(&mut ep, 2).unwrap();
        let v = env.valid_actions(&ep);
        assert_eq!(v.len(), 5);
        assert!(!v.contains(&2));
    }
}
