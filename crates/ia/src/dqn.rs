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

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::env::IndexEnv;
use crate::features::{column_frequency_features, config_bitmap, heuristic_candidates};
use pipa_nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

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
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Initial exploration rate (training).
    pub eps_start: f64,
    /// Final exploration rate (training) and the fixed inference ε.
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
            replay_capacity: 4096,
            gamma: 0.9,
            eps_start: 1.0,
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
}

#[derive(Clone)]
struct Transition {
    state: Vec<f32>,
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
    next_valid: Vec<usize>,
    done: bool,
}

/// The DQN advisor.
pub struct DqnAdvisor {
    cfg: DqnConfig,
    mode: TrajectoryMode,
    store: Option<ParamStore>,
    qnet: Option<Mlp>,
    target_snap: Vec<f32>,
    /// Materialized target network, rebuilt lazily when `target_snap`
    /// changes. Replaces the previous clone-the-whole-store-per-
    /// transition target evaluation, which dominated `learn_step`.
    target_store: Option<ParamStore>,
    candidates: Vec<ColumnId>,
    replay: VecDeque<Transition>,
    rng: ChaCha8Rng,
    reward_trace: Vec<f64>,
    last_workload_features: Vec<f32>,
    num_columns: usize,
}

impl DqnAdvisor {
    /// New advisor with the given trajectory mode and config.
    pub fn new(mode: TrajectoryMode, cfg: DqnConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x000d_9417);
        DqnAdvisor {
            cfg,
            mode,
            store: None,
            qnet: None,
            target_snap: Vec::new(),
            target_store: None,
            candidates: Vec::new(),
            replay: VecDeque::new(),
            rng,
            reward_trace: Vec::new(),
            last_workload_features: Vec::new(),
            num_columns: 0,
        }
    }

    fn ensure_net(&mut self, cost: &dyn CostBackend) {
        let l = cost.catalog().schema.num_columns();
        if self.qnet.is_some() && self.num_columns == l {
            return;
        }
        self.num_columns = l;
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x9e37);
        let qnet = Mlp::new(
            &mut store,
            "q",
            &[2 * l, self.cfg.hidden, l],
            pipa_nn::mlp::Activation::Relu,
            &mut rng,
        );
        self.target_snap = store.snapshot();
        self.target_store = None;
        self.store = Some(store);
        self.qnet = Some(qnet);
    }

    fn state_vec(&self, cost: &dyn CostBackend, wfeat: &[f32], cfg: &IndexConfig) -> Vec<f32> {
        let mut s = wfeat.to_vec();
        s.extend(config_bitmap(cost, cfg));
        s
    }

    fn q_values(&self, store: &ParamStore, state: &[f32]) -> Vec<f32> {
        let qnet = self.qnet.as_ref().expect("net built");
        qnet.infer(store, &Tensor::row(state.to_vec())).data
    }

    /// Run trajectories with learning. Returns per-trajectory returns and
    /// the best (return, config, snapshot).
    #[allow(clippy::type_complexity)]
    fn run_trajectories(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        n: usize,
        eps_schedule: bool,
        snapshots_window: usize,
        lr: f32,
    ) -> CostResult<(Vec<f64>, f64, IndexConfig, Vec<f32>, VecDeque<Vec<f32>>)> {
        let wfeat = column_frequency_features(cost, workload);
        self.last_workload_features = wfeat.clone();
        let env = IndexEnv::new(cost, workload, self.candidates.clone(), self.cfg.budget)?;
        let mut opt = Adam::new(lr);
        let mut returns = Vec::with_capacity(n);
        let mut best_return = f64::NEG_INFINITY;
        let mut best_config = IndexConfig::empty();
        let mut best_snap = self.store.as_ref().expect("store").snapshot();
        let mut recent: VecDeque<Vec<f32>> = VecDeque::new();
        // One tape for the whole run: action selection and learn steps
        // recycle the same activation/gradient buffers.
        let mut tape = Tape::new();

        for traj in 0..n {
            let eps = if eps_schedule {
                let frac = traj as f64 / n.max(1) as f64;
                self.cfg.eps_start + (self.cfg.eps_end - self.cfg.eps_start) * frac
            } else {
                self.cfg.eps_end
            };
            let mut ep = env.reset();
            while !env.done(&ep) {
                let state = self.state_vec(cost, &wfeat, &ep.config);
                let valid = env.valid_actions(&ep);
                let action = if self.rng.gen::<f64>() < eps {
                    valid[self.rng.gen_range(0..valid.len())]
                } else {
                    let qnet = self.qnet.as_ref().expect("net");
                    let store = self.store.as_ref().expect("store");
                    let qv = qnet.forward_reuse(&mut tape, store, Tensor::row(state.clone()));
                    let q = &tape.value(qv).data;
                    *valid
                        .iter()
                        .max_by(|&&a, &&b| {
                            let ca = self.candidates[a].0 as usize;
                            let cb = self.candidates[b].0 as usize;
                            q[ca].total_cmp(&q[cb])
                        })
                        .expect("nonempty valid set")
                };
                let reward = env.step(&mut ep, action)? as f32;
                let next_state = self.state_vec(cost, &wfeat, &ep.config);
                let done = env.done(&ep);
                let next_valid = env.valid_actions(&ep);
                self.replay.push_back(Transition {
                    state,
                    action: self.candidates[action].0 as usize,
                    reward,
                    next_state,
                    next_valid: next_valid
                        .iter()
                        .map(|&a| self.candidates[a].0 as usize)
                        .collect(),
                    done,
                });
                if self.replay.len() > self.cfg.replay_capacity {
                    self.replay.pop_front();
                }
                self.learn_step(&mut opt, &mut tape);
            }
            let ret = env.episode_return(&ep);
            returns.push(ret);
            if ret > best_return {
                best_return = ret;
                best_config = ep.config.clone();
                best_snap = self.store.as_ref().expect("store").snapshot();
            }
            recent.push_back(self.store.as_ref().expect("store").snapshot());
            if recent.len() > snapshots_window {
                recent.pop_front();
            }
            if (traj + 1) % self.cfg.target_sync == 0 {
                self.target_snap = self.store.as_ref().expect("store").snapshot();
                self.target_store = None;
            }
        }
        Ok((returns, best_return, best_config, best_snap, recent))
    }

    fn learn_step(&mut self, opt: &mut Adam, tape: &mut Tape) {
        if self.replay.len() < self.cfg.batch_size {
            return;
        }
        // Sample a minibatch (rng draw order matches the old
        // per-transition implementation exactly).
        let mut batch = Vec::with_capacity(self.cfg.batch_size);
        for _ in 0..self.cfg.batch_size {
            let i = self.rng.gen_range(0..self.replay.len());
            batch.push(self.replay[i].clone());
        }
        // Targets from the target network: every non-terminal next-state
        // goes through ONE batched forward pass. Row r of a batched
        // matmul runs the same per-element accumulation chain as a
        // single-row forward, so the targets are bit-identical to the
        // old one-row-per-transition evaluation.
        let need: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, t)| !(t.done || t.next_valid.is_empty()))
            .map(|(i, _)| i)
            .collect();
        let mut maxq = vec![0.0f32; batch.len()];
        if !need.is_empty() {
            if self.target_store.is_none() {
                let mut ts = self.store.as_ref().expect("store").clone();
                ts.restore(&self.target_snap);
                self.target_store = Some(ts);
            }
            let target_store = self.target_store.as_ref().expect("target store");
            let qnet = self.qnet.as_ref().expect("net");
            let w = batch[need[0]].next_state.len();
            let mut next_rows = Vec::with_capacity(need.len() * w);
            for &i in &need {
                next_rows.extend_from_slice(&batch[i].next_state);
            }
            let qv = qnet.forward_reuse(
                tape,
                target_store,
                Tensor::from_vec(need.len(), w, next_rows),
            );
            let qn = tape.value(qv);
            for (r, &i) in need.iter().enumerate() {
                let row = qn.row_slice(r);
                maxq[i] = batch[i]
                    .next_valid
                    .iter()
                    .map(|&c| row[c])
                    .fold(f32::NEG_INFINITY, f32::max);
            }
        }
        let mut rows = Vec::with_capacity(batch.len());
        let mut targets = Vec::with_capacity(batch.len());
        for (r, t) in batch.iter().enumerate() {
            let y = if t.done || t.next_valid.is_empty() {
                t.reward
            } else {
                t.reward + self.cfg.gamma * maxq[r]
            };
            rows.extend_from_slice(&t.state);
            targets.push((r, t.action, y));
        }
        let store = self.store.as_mut().expect("store");
        let qnet = self.qnet.as_ref().expect("net");
        store.zero_grads();
        tape.reset();
        let x = tape.constant(Tensor::from_vec(
            batch.len(),
            rows.len() / batch.len(),
            rows,
        ));
        let q = qnet.forward(tape, store, x);
        let loss = tape.mse_selected(q, &targets);
        tape.backward(loss, store);
        opt.step(store);
    }

    /// Per-trajectory returns of the most recent `recommend` call (the
    /// Figure 8 inference learning curve).
    pub fn trial_trace(&self) -> &[f64] {
        &self.reward_trace
    }
}

impl IndexAdvisor for DqnAdvisor {
    fn name(&self) -> String {
        format!("DQN-{}", self.mode.suffix())
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.store = None;
        self.qnet = None;
        self.replay.clear();
        self.rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x000d_9417);
        self.ensure_net(cost);
        self.candidates = heuristic_candidates(cost, workload, self.cfg.min_candidate_ndv);
        if self.candidates.is_empty() {
            self.candidates = workload.candidate_columns();
        }
        let n = self.cfg.train_trajectories;
        let window = match self.mode {
            TrajectoryMode::Best => 1,
            TrajectoryMode::MeanLast(k) => k,
        };
        let (returns, _, _, best_snap, recent) =
            self.run_trajectories(cost, workload, n, true, window, self.cfg.lr)?;
        self.reward_trace = returns;
        match self.mode {
            TrajectoryMode::Best => {
                self.store.as_mut().expect("store").restore(&best_snap);
            }
            TrajectoryMode::MeanLast(_) => {
                let snaps: Vec<Vec<f32>> = recent.into_iter().collect();
                let avg = ParamStore::average(&snaps);
                self.store.as_mut().expect("store").restore(&avg);
            }
        }
        self.target_snap = self.store.as_ref().expect("store").snapshot();
        self.target_store = None;
        Ok(())
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        if self.store.is_none() {
            return self.train(cost, workload);
        }
        // Keep parameters; refresh candidates from the new training set.
        self.candidates = heuristic_candidates(cost, workload, self.cfg.min_candidate_ndv);
        if self.candidates.is_empty() {
            self.candidates = workload.candidate_columns();
        }
        let n = self.cfg.train_trajectories;
        let window = match self.mode {
            TrajectoryMode::Best => 1,
            TrajectoryMode::MeanLast(k) => k,
        };
        let (returns, _, _, best_snap, recent) =
            self.run_trajectories(cost, workload, n, false, window, self.cfg.lr)?;
        self.reward_trace = returns;
        match self.mode {
            TrajectoryMode::Best => {
                self.store.as_mut().expect("store").restore(&best_snap);
            }
            TrajectoryMode::MeanLast(_) => {
                let snaps: Vec<Vec<f32>> = recent.into_iter().collect();
                let avg = ParamStore::average(&snaps);
                self.store.as_mut().expect("store").restore(&avg);
            }
        }
        self.target_snap = self.store.as_ref().expect("store").snapshot();
        self.target_store = None;
        Ok(())
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        self.ensure_net(cost);
        if self.candidates.is_empty() {
            self.candidates = workload.candidate_columns();
        }
        // Trials must not permanently change the advisor: snapshot+restore.
        let saved = self.store.as_ref().expect("store").snapshot();
        let saved_replay = self.replay.clone();
        let window = match self.mode {
            TrajectoryMode::Best => 1,
            TrajectoryMode::MeanLast(k) => k,
        };
        let (returns, _, best_config, _, recent) = self.run_trajectories(
            cost,
            workload,
            self.cfg.trial_trajectories,
            false,
            window,
            self.cfg.lr * self.cfg.trial_lr_scale,
        )?;
        self.reward_trace = returns;
        let result = match self.mode {
            TrajectoryMode::Best => best_config,
            TrajectoryMode::MeanLast(_) => {
                // Average the recent trial parameters and greedily decode.
                let snaps: Vec<Vec<f32>> = recent.into_iter().collect();
                let avg = ParamStore::average(&snaps);
                let mut store = self.store.as_ref().expect("store").clone();
                store.restore(&avg);
                let wfeat = column_frequency_features(cost, workload);
                let env =
                    IndexEnv::new(cost, workload, self.candidates.clone(), self.cfg.budget)?;
                let ep = env.greedy_rollout(|ep, a| {
                    let state = self.state_vec(cost, &wfeat, &ep.config);
                    let q = self.q_values(&store, &state);
                    f64::from(q[env.candidates[a].0 as usize])
                })?;
                ep.config
            }
        };
        self.store.as_mut().expect("store").restore(&saved);
        self.replay = saved_replay;
        Ok(result)
    }

    fn budget(&self) -> usize {
        self.cfg.budget
    }

    fn is_trial_based(&self) -> bool {
        true
    }

    fn reward_trace(&self) -> &[f64] {
        &self.reward_trace
    }
}

impl ClearBoxAdvisor for DqnAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        let Some(store) = &self.store else {
            return Vec::new();
        };
        let wfeat = if self.last_workload_features.is_empty() {
            vec![0.0; cost.catalog().schema.num_columns()]
        } else {
            self.last_workload_features.clone()
        };
        let state = self.state_vec(cost, &wfeat, &IndexConfig::empty());
        let q = self.q_values(store, &state);
        cost.catalog()
            .schema
            .indexable_columns()
            .into_iter()
            .map(|c| {
                let pref = if self.candidates.contains(&c) {
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
mod tests {
    use super::*;
    use pipa_cost::{CostEngine, SimBackend};
    use pipa_workload::Benchmark;

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
        let benefit = CostEngine::new(&cost).workload_benefit(&w, &cfg).unwrap();
        assert!(benefit > 0.05, "benefit {benefit}");
    }

    #[test]
    fn recommend_does_not_mutate_parameters() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let snap = ia.store.as_ref().unwrap().snapshot();
        let _ = ia.recommend(&cost, &w).unwrap();
        assert_eq!(ia.store.as_ref().unwrap().snapshot(), snap);
    }

    #[test]
    fn candidates_come_from_workload() {
        let (cost, w) = setup();
        let mut ia = DqnAdvisor::new(TrajectoryMode::Best, DqnConfig::fast());
        ia.train(&cost, &w).unwrap();
        let wcols = w.candidate_columns();
        assert!(ia.candidates.iter().all(|c| wcols.contains(c)));
        assert!(!ia.candidates.is_empty());
        // Join keys are candidates too (l_orderkey never appears in a
        // filter, only in joins).
        let lok = cost.database().schema().column_id("l_orderkey").unwrap();
        assert!(ia.candidates.contains(&lok));
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
}
