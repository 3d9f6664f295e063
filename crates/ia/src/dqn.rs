//! DQN index advisor (after \[20\], "An index advisor using deep
//! reinforcement learning"): an MLP Q-network over workload-frequency +
//! index-bitmap state, ε-greedy exploration, an experience-replay buffer,
//! and a periodically synced target network.
//!
//! Design details the paper's analysis leans on and which are therefore
//! reproduced here:
//!
//! * **heuristic index-candidate filtering** — only columns appearing in
//!   the training workload's predicates with sufficient NDV become
//!   actions, which is why low-ranked injections (I-L) partly bounce off
//!   (§6.2);
//! * **trial-based inference** — `recommend` keeps learning on the target
//!   workload for a bounded number of trial trajectories with a small ε,
//!   so a poisoned initialization can trap it in a local optimum
//!   (Figure 8a);
//! * **weak workload representation** — the state summarizes the workload
//!   as a frequency vector, which the paper blames for DQN's sharp
//!   degradation under large distribution shifts (§6.3).
//!
//! The Q-learning loop is the crate-private `qlearn` module's, shared
//! with DRLindex.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::features::{column_frequency_features, heuristic_candidates};
use crate::qlearn::{learner_for, QLearner, QSpec};
use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, IndexConfig, Workload};

/// DQN hyperparameters.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Index budget `B`.
    pub budget: usize,
    /// Training trajectories per `train`/`retrain` (paper: 400).
    pub train_trajectories: usize,
    /// Inference trial trajectories (paper: 400).
    pub trial_trajectories: usize,
    /// Replay minibatch size.
    pub batch_size: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Final exploration rate of training's anneal from 1.0, and the
    /// fixed ε of retraining and inference.
    pub eps_end: f64,
    /// Target-network sync period (trajectories).
    pub target_sync: usize,
    /// Q-network hidden width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Learning-rate multiplier during inference trials: trial-based
    /// advisors keep learning at recommendation time, but slowly — which
    /// is exactly what lets a poisoned initialization trap them
    /// (Figure 8a: DQN needed 320 trial epochs to escape).
    pub trial_lr_scale: f32,
    /// Minimum NDV for the heuristic candidate filter.
    pub min_candidate_ndv: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            budget: 4,
            train_trajectories: 400,
            trial_trajectories: 400,
            batch_size: 16,
            gamma: 0.9,
            eps_end: 0.05,
            target_sync: 20,
            hidden: 64,
            lr: 3e-3,
            trial_lr_scale: 0.05,
            min_candidate_ndv: 50,
            seed: 0,
        }
    }
}

impl DqnConfig {
    /// Small preset for unit tests and quick runs.
    pub fn fast() -> Self {
        DqnConfig {
            train_trajectories: 60,
            trial_trajectories: 40,
            batch_size: 8,
            ..Default::default()
        }
    }

    fn q_spec(&self, mode: TrajectoryMode, cost: &dyn CostBackend) -> QSpec {
        let l = cost.catalog().schema.num_columns();
        QSpec {
            mode,
            budget: self.budget,
            layers: [2 * l, self.hidden, l],
            init_seed: self.seed ^ 0x9e37,
            rng_seed: self.seed ^ 0x000d_9417,
            train_trajectories: self.train_trajectories,
            trial_trajectories: self.trial_trajectories,
            batch_size: self.batch_size,
            gamma: self.gamma,
            lr: self.lr,
            trial_lr_scale: self.trial_lr_scale,
            features: Box::new(column_frequency_features),
            reward: Box::new(|env, ep, a| env.step(ep, a)),
            eps_end: self.eps_end,
            trial_eps: self.eps_end,
            target_sync: Some(self.target_sync),
        }
    }
}

/// The DQN advisor.
pub struct DqnAdvisor {
    cfg: DqnConfig,
    mode: TrajectoryMode,
    learner: Option<QLearner>,
}

impl DqnAdvisor {
    /// New advisor with the given trajectory mode and config.
    pub fn new(mode: TrajectoryMode, cfg: DqnConfig) -> Self {
        DqnAdvisor {
            cfg,
            mode,
            learner: None,
        }
    }

    /// The workload's columns that pass the NDV filter, or all of them
    /// when none does.
    fn candidates(&self, cost: &dyn CostBackend, workload: &Workload) -> Vec<ColumnId> {
        let filtered = heuristic_candidates(cost, workload, self.cfg.min_candidate_ndv);
        if filtered.is_empty() {
            workload.candidate_columns()
        } else {
            filtered
        }
    }
}

impl IndexAdvisor for DqnAdvisor {
    fn name(&self) -> String {
        format!("DQN-{}", self.mode.suffix())
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        let candidates = self.candidates(cost, workload);
        let spec = self.cfg.q_spec(self.mode, cost);
        self.learner
            .insert(QLearner::new(spec))
            .train(cost, workload, candidates)
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        // Keep parameters; refresh candidates from the new training set.
        let candidates = self.candidates(cost, workload);
        match &mut self.learner {
            Some(learner) => learner.retrain(cost, workload, candidates),
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

impl ClearBoxAdvisor for DqnAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        let Some(learner) = &self.learner else {
            return Vec::new();
        };
        let q = learner.empty_config_q(cost);
        cost.catalog()
            .schema
            .indexable_columns()
            .into_iter()
            .map(|c| {
                let pref = if learner.candidates().contains(&c) {
                    f64::from(q[c.0 as usize])
                } else {
                    // Filtered-out candidates carry zero weight — the
                    // paper notes DQN's internal parameters are
                    // "excessively sparse".
                    0.0
                };
                (c, pref)
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn trains_and_recommends_within_budget() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(cfg.len() <= 4 && !cfg.is_empty());
        assert_eq!(
            ia.reward_trace().len(),
            DqnConfig::fast().trial_trajectories
        );
    }

    #[test]
    fn learned_config_beats_no_index() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        let benefit = workload_benefit(&cost, &w, &cfg).unwrap();
        assert!(benefit > 0.05, "benefit {benefit}");
    }

    #[test]
    fn recommend_does_not_mutate_parameters() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let snap = ia.learner.as_ref().unwrap().params();
        let _ = ia.recommend(&cost, &w).unwrap();
        assert_eq!(ia.learner.as_ref().unwrap().params(), snap);
    }

    #[test]
    fn candidates_come_from_workload() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let candidates = ia.learner.as_ref().unwrap().candidates();
        let wcols = w.candidate_columns();
        assert!(candidates.iter().all(|c| wcols.contains(c)));
        assert!(!candidates.is_empty());
        // Join keys are candidates too (l_orderkey never appears in a
        // filter, only in joins).
        let lok = cost.database().schema().column_id("l_orderkey").unwrap();
        assert!(candidates.contains(&lok));
    }

    #[test]
    fn clear_box_preferences_are_sparse_outside_candidates() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let prefs = ia.column_preferences(&cost);
        assert_eq!(prefs.len(), 61);
        let comment = cost.database().schema().column_id("l_comment").unwrap();
        let pref = prefs.iter().find(|(c, _)| *c == comment).unwrap().1;
        assert_eq!(pref, 0.0, "non-candidate columns have zero weight");
    }

    #[test]
    fn mean_mode_recommends_too() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::MeanLast(10), DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(!cfg.is_empty());
        assert_eq!(ia.name(), "DQN-m");
    }

    #[test]
    fn mean_mode_without_trajectories_keeps_its_parameters() {
        let (cost, w) = setup();
        let mode = TrajectoryMode::MeanLast(10);
        let cfg = DqnConfig {
            train_trajectories: 0,
            trial_trajectories: 0,
            ..DqnConfig::fast()
        };
        let initial = QLearner::new(cfg.q_spec(mode, &cost)).params();
        let mut ia = DqnAdvisor::new(mode, cfg);
        ia.train(&cost, &w).unwrap();
        assert_eq!(ia.learner.as_ref().unwrap().params(), initial);
        assert!(ia.recommend(&cost, &w).unwrap().len() <= 4);
    }

    /// Where a [`Faulty`] backend misbehaves.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) enum Seam {
        /// `workload_cost`: an environment's base cost.
        Base,
        /// `session_total`: a session's starting total.
        Total,
        /// `session_preview_add`: a single-column benefit.
        Preview,
        /// `session_add`: an episode step.
        Step,
    }

    /// A simulator backend that misbehaves at one seam after `ok` good
    /// answers there: it fails with `Unsupported` (`bad` is `None`) or
    /// answers the cost `bad`.
    pub(crate) struct Faulty {
        pub(crate) inner: SimBackend,
        seam: Seam,
        ok: usize,
        bad: Option<f64>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Faulty {
        pub(crate) fn new(inner: SimBackend, seam: Seam, ok: usize, bad: Option<f64>) -> Self {
            Faulty {
                inner,
                seam,
                ok,
                bad,
                calls: Default::default(),
            }
        }

        /// `good` until this seam has answered `ok` times, then the fault.
        fn answer(&self, seam: Seam, op: &'static str, good: CostResult<f64>) -> CostResult<f64> {
            if seam != self.seam
                || self
                    .calls
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    < self.ok
            {
                return good;
            }
            self.bad.ok_or(pipa_cost::CostError::Unsupported {
                backend: self.name(),
                op,
            })
        }
    }

    impl CostBackend for Faulty {
        fn name(&self) -> &'static str {
            "faulty"
        }
        fn catalog(&self) -> pipa_sim::cost::Catalog<'_> {
            self.inner.catalog()
        }
        fn query_cost(&self, q: &pipa_sim::Query, cfg: &IndexConfig) -> CostResult<f64> {
            self.inner.query_cost(q, cfg)
        }
        fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
            let good = self.inner.workload_cost(w, cfg);
            self.answer(Seam::Base, "workload_cost", good)
        }
        fn session_begin(&self, w: &Workload) -> CostResult<pipa_cost::CostSession> {
            self.inner.session_begin(w)
        }
        fn session_total(&self, w: &Workload, s: &pipa_cost::CostSession) -> CostResult<f64> {
            let good = self.inner.session_total(w, s);
            self.answer(Seam::Total, "session_total", good)
        }
        fn session_preview_add(
            &self,
            w: &Workload,
            s: &pipa_cost::CostSession,
            cfg_after: &IndexConfig,
            idx: &pipa_sim::Index,
        ) -> CostResult<f64> {
            let good = self.inner.session_preview_add(w, s, cfg_after, idx);
            self.answer(Seam::Preview, "session_preview_add", good)
        }
        fn session_add(
            &self,
            w: &Workload,
            s: &mut pipa_cost::CostSession,
            cfg_after: &IndexConfig,
            idx: &pipa_sim::Index,
        ) -> CostResult<f64> {
            let good = self.inner.session_add(w, s, cfg_after, idx);
            self.answer(Seam::Step, "session_add", good)
        }
        fn hypo_create(&self, idx: &pipa_sim::Index) -> CostResult<()> {
            self.inner.hypo_create(idx)
        }
        fn hypo_drop(&self, idx: &pipa_sim::Index) -> CostResult<()> {
            self.inner.hypo_drop(idx)
        }
        fn hypo_clear(&self) -> CostResult<()> {
            self.inner.hypo_clear()
        }
        fn hypo_config(&self) -> CostResult<IndexConfig> {
            self.inner.hypo_config()
        }
    }

    /// Asserts `result` is the `NonFinite` error for `bad`.
    pub(crate) fn assert_non_finite<T: std::fmt::Debug>(
        result: CostResult<T>,
        bad: f64,
        what: &str,
    ) {
        match result {
            Err(pipa_cost::CostError::NonFinite { backend, value }) => {
                assert_eq!(backend, "faulty", "{what}");
                assert_eq!(value.to_bits(), bad.to_bits(), "{what}");
            }
            other => panic!("{what} with cost {bad}: expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn invalid_costs_at_the_seam_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let (sim, w) = setup();
            let base = Faulty::new(sim, Seam::Base, 0, Some(bad));
            let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
            assert_non_finite(ia.train(&base, &w), bad, "DQN train, base cost");

            let mut bandit = crate::bandit::BanditAdvisor::new(
                TrajectoryMode::Best,
                crate::bandit::BanditConfig::fast(),
            );
            let preview = Faulty::new(base.inner, Seam::Preview, 3, Some(bad));
            assert_non_finite(bandit.train(&preview, &w), bad, "DBAbandit train, preview");

            let step = Faulty::new(preview.inner, Seam::Step, 0, Some(bad));
            assert_non_finite(ia.train(&step, &w), bad, "DQN train, step");
            // Train on good costs, then fail halfway through the trials.
            ia.train(&step.inner, &w).unwrap();
            let snap = ia.learner.as_ref().unwrap().params();
            let step = Faulty::new(step.inner, Seam::Step, 80, Some(bad));
            assert_non_finite(ia.recommend(&step, &w), bad, "DQN recommend, step");
            assert_eq!(ia.learner.as_ref().unwrap().params(), snap);
        }
    }

    #[test]
    fn recommend_restores_parameters_when_a_trial_fails() {
        let (sim, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&sim, &w).unwrap();
        let snap = ia.learner.as_ref().unwrap().params();
        // 40 trials of 4 steps each: fail halfway, after 80 learn steps.
        let failing = Faulty::new(sim, Seam::Step, 80, None);
        assert!(ia.recommend(&failing, &w).is_err());
        assert_eq!(ia.learner.as_ref().unwrap().params(), snap);
    }
}
