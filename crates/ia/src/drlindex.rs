//! DRLindex advisor (after [29, 30]): a Deep Q-Network whose state is a
//! sparse query×column occurrence matrix and whose reward is `1/cost`.
//!
//! The paper singles out two design choices as the source of DRLindex's
//! vulnerability (§6.2), and both are reproduced here:
//!
//! * **sparse state representation** — the state is the flattened
//!   query×column matrix (queries hashed into a fixed number of rows), so
//!   an injection workload operating on a different column set changes a
//!   large part of the input surface and drags the parameters with it;
//! * **over-sensitive reward** — `1/c(W, d, I)` (scaled), so small
//!   absolute cost changes move the loss a lot.
//!
//! The Q-learning loop is the crate-private `qlearn` module's, shared
//! with DQN. DRLindex has no target network: it bootstraps its learning
//! targets from the online net.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::features::query_column_matrix;
use crate::qlearn::{learner_for, QLearner, QSpec};
use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, IndexConfig, Workload};

/// DRLindex hyperparameters.
#[derive(Debug, Clone)]
pub struct DrlIndexConfig {
    /// Index budget `B`.
    pub budget: usize,
    /// Training trajectories (paper: 400).
    pub train_trajectories: usize,
    /// Inference trial trajectories (paper: 400).
    pub trial_trajectories: usize,
    /// Query hash buckets for the state matrix.
    pub state_buckets: usize,
    /// Replay minibatch size.
    pub batch_size: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Fixed exploration rate after warm-up.
    pub eps_end: f64,
    /// Exploration rate during inference trials. DRLindex's trials are
    /// near-greedy: with its sparse state a poisoned initialization
    /// dominates what the trials can see (the paper's most vulnerable
    /// victim).
    pub trial_eps: f64,
    /// Q-network hidden width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Learning-rate multiplier during inference trials (see DQN).
    pub trial_lr_scale: f32,
    /// Reward multiplier applied to `base_cost · Δ(1/cost)` — the 1/cost
    /// *shape* is DRLindex's (the paper notes it "vibrates" with small
    /// cost changes); scaling by the workload's base cost keeps the
    /// magnitude learnable across cost regimes.
    pub reward_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DrlIndexConfig {
    fn default() -> Self {
        DrlIndexConfig {
            budget: 4,
            train_trajectories: 400,
            trial_trajectories: 400,
            state_buckets: 8,
            batch_size: 16,
            gamma: 0.9,
            eps_end: 0.05,
            trial_eps: 0.01,
            hidden: 64,
            lr: 3e-3,
            trial_lr_scale: 0.05,
            reward_scale: 20.0,
            seed: 0,
        }
    }
}

impl DrlIndexConfig {
    /// Small preset for unit tests.
    pub fn fast() -> Self {
        DrlIndexConfig {
            train_trajectories: 50,
            trial_trajectories: 30,
            batch_size: 8,
            ..Default::default()
        }
    }

    fn q_spec(&self, mode: TrajectoryMode, cost: &dyn CostBackend) -> QSpec {
        let l = cost.catalog().schema.num_columns();
        let (buckets, scale) = (self.state_buckets, self.reward_scale);
        QSpec {
            mode,
            budget: self.budget,
            layers: [buckets * l + l, self.hidden, l], // matrix + config bitmap
            init_seed: self.seed ^ 0x515,
            rng_seed: self.seed ^ 0x0d12_71de,
            train_trajectories: self.train_trajectories,
            trial_trajectories: self.trial_trajectories,
            batch_size: self.batch_size,
            gamma: self.gamma,
            lr: self.lr,
            trial_lr_scale: self.trial_lr_scale,
            features: Box::new(move |cost, w| query_column_matrix(cost, w, buckets)),
            reward: Box::new(move |env, ep, a| {
                let prev = ep.current_cost;
                env.step(ep, a)?;
                Ok(step_reward(scale, env.base_cost(), prev, ep.current_cost))
            }),
            eps_end: self.eps_end,
            trial_eps: self.trial_eps,
            target_sync: None,
        }
    }
}

/// DRLindex reward: scaled `1/cost` improvement of the step.
/// `base_cost` normalizes units; the hyperbolic shape (and its
/// over-sensitivity near low costs) is preserved.
fn step_reward(scale: f64, base_cost: f64, prev_cost: f64, new_cost: f64) -> f64 {
    scale * base_cost * (1.0 / new_cost.max(1.0) - 1.0 / prev_cost.max(1.0))
}

/// The DRLindex advisor.
pub struct DrlIndexAdvisor {
    cfg: DrlIndexConfig,
    mode: TrajectoryMode,
    learner: Option<QLearner>,
}

impl DrlIndexAdvisor {
    /// New advisor.
    pub fn new(mode: TrajectoryMode, cfg: DrlIndexConfig) -> Self {
        DrlIndexAdvisor {
            cfg,
            mode,
            learner: None,
        }
    }
}

impl IndexAdvisor for DrlIndexAdvisor {
    fn name(&self) -> String {
        format!("DRLindex-{}", self.mode.suffix())
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        // DRLindex considers every column referenced by the workload (no
        // NDV filter — the paper contrasts this with DQN's filtering).
        let spec = self.cfg.q_spec(self.mode, cost);
        self.learner
            .insert(QLearner::new(spec))
            .train(cost, workload, workload.candidate_columns())
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        match &mut self.learner {
            Some(learner) => learner.retrain(cost, workload, workload.candidate_columns()),
            None => self.train(cost, workload),
        }
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        learner_for(&mut self.learner, cost, || self.cfg.q_spec(self.mode, cost))
            .recommend(cost, workload)
    }

    fn budget(&self) -> usize {
        self.cfg.budget
    }

    fn is_trial_based(&self) -> bool {
        true
    }

    fn reward_trace(&self) -> &[f64] {
        self.learner.as_ref().map_or(&[], QLearner::reward_trace)
    }
}

impl ClearBoxAdvisor for DrlIndexAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        let Some(learner) = &self.learner else {
            return Vec::new();
        };
        let q = learner.empty_config_q(cost);
        cost.catalog()
            .schema
            .indexable_columns()
            .into_iter()
            .map(|c| (c, f64::from(q[c.0 as usize])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::{workload_benefit, SimBackend};
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(2)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn trains_and_recommends() {
        let (cost, w) = setup();
        let mut ia = DrlIndexAdvisor::new(TrajectoryMode::Best, DrlIndexConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(!cfg.is_empty() && cfg.len() <= 4);
        assert!(workload_benefit(&cost, &w, &cfg).unwrap() > 0.0);
    }

    #[test]
    fn reward_is_one_over_cost_shaped() {
        let reward =
            |base, prev, new| step_reward(DrlIndexConfig::fast().reward_scale, base, prev, new);
        // Cost halved → positive reward; cost doubled → negative.
        assert!(reward(1000.0, 1000.0, 500.0) > 0.0);
        assert!(reward(1000.0, 500.0, 1000.0) < 0.0);
        // Same absolute cost change at lower cost levels → much larger
        // reward magnitude (the "over-sensitive" property).
        let small = reward(2000.0, 2000.0, 1900.0).abs();
        let big = reward(2000.0, 20_000.0, 19_900.0).abs();
        assert!(small > big);
    }

    #[test]
    fn candidates_unfiltered() {
        let (cost, w) = setup();
        let mut ia = DrlIndexAdvisor::new(TrajectoryMode::Best, DrlIndexConfig::fast());
        ia.train(&cost, &w).unwrap();
        assert_eq!(ia.learner.unwrap().candidates(), w.candidate_columns());
    }

    #[test]
    fn clear_box_dense_preferences() {
        let (cost, w) = setup();
        let mut ia = DrlIndexAdvisor::new(TrajectoryMode::MeanLast(10), DrlIndexConfig::fast());
        ia.train(&cost, &w).unwrap();
        let prefs = ia.column_preferences(&cost);
        // Dense: most entries nonzero (contrast with DQN's sparsity).
        let nonzero = prefs.iter().filter(|(_, p)| *p != 0.0).count();
        assert!(nonzero > 50, "dense prefs, got {nonzero}");
    }
}
