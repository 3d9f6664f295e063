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

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::env::IndexEnv;
use crate::features::query_column_matrix;
use pipa_nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

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

/// The DRLindex advisor.
pub struct DrlIndexAdvisor {
    cfg: DrlIndexConfig,
    mode: TrajectoryMode,
    store: Option<ParamStore>,
    qnet: Option<Mlp>,
    candidates: Vec<ColumnId>,
    replay: VecDeque<Transition>,
    rng: ChaCha8Rng,
    reward_trace: Vec<f64>,
    last_state_matrix: Vec<f32>,
    num_columns: usize,
}

impl DrlIndexAdvisor {
    /// New advisor.
    pub fn new(mode: TrajectoryMode, cfg: DrlIndexConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0d12_71de);
        DrlIndexAdvisor {
            cfg,
            mode,
            store: None,
            qnet: None,
            candidates: Vec::new(),
            replay: VecDeque::new(),
            rng,
            reward_trace: Vec::new(),
            last_state_matrix: Vec::new(),
            num_columns: 0,
        }
    }

    fn ensure_net(&mut self, cost: &dyn CostBackend) {
        let l = cost.catalog().schema.num_columns();
        if self.qnet.is_some() && self.num_columns == l {
            return;
        }
        self.num_columns = l;
        let input = self.cfg.state_buckets * l + l; // matrix + config bitmap
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x515);
        let qnet = Mlp::new(
            &mut store,
            "q",
            &[input, self.cfg.hidden, l],
            pipa_nn::mlp::Activation::Relu,
            &mut rng,
        );
        self.store = Some(store);
        self.qnet = Some(qnet);
    }

    fn state_vec(&self, cost: &dyn CostBackend, matrix: &[f32], cfg: &IndexConfig) -> Vec<f32> {
        let mut s = matrix.to_vec();
        s.extend(crate::features::config_bitmap(cost, cfg));
        s
    }

    /// DRLindex reward: scaled `1/cost` improvement of the step.
    /// `base_cost` normalizes units; the hyperbolic shape (and its
    /// over-sensitivity near low costs) is preserved.
    fn step_reward(&self, base_cost: f64, prev_cost: f64, new_cost: f64) -> f64 {
        self.cfg.reward_scale * base_cost * (1.0 / new_cost.max(1.0) - 1.0 / prev_cost.max(1.0))
    }

    #[allow(clippy::type_complexity)]
    fn run_trajectories(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        n: usize,
        eps_schedule: bool,
        fixed_eps: f64,
        lr: f32,
    ) -> CostResult<(Vec<f64>, IndexConfig, Vec<f32>, VecDeque<Vec<f32>>)> {
        let matrix = query_column_matrix(cost, workload, self.cfg.state_buckets);
        self.last_state_matrix = matrix.clone();
        let env = IndexEnv::new(cost, workload, self.candidates.clone(), self.cfg.budget)?;
        let mut opt = Adam::new(lr);
        let window = match self.mode {
            TrajectoryMode::Best => 1,
            TrajectoryMode::MeanLast(k) => k,
        };
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
                1.0 + (self.cfg.eps_end - 1.0) * frac
            } else {
                fixed_eps
            };
            let mut ep = env.reset();
            let mut prev_cost = env.base_cost();
            while !env.done(&ep) {
                let state = self.state_vec(cost, &matrix, &ep.config);
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
                            q[self.candidates[a].0 as usize]
                                .total_cmp(&q[self.candidates[b].0 as usize])
                        })
                        .expect("nonempty")
                };
                env.step(&mut ep, action)?;
                let reward = self.step_reward(env.base_cost(), prev_cost, ep.current_cost) as f32;
                prev_cost = ep.current_cost;
                let next_state = self.state_vec(cost, &matrix, &ep.config);
                let done = env.done(&ep);
                self.replay.push_back(Transition {
                    state,
                    action: self.candidates[action].0 as usize,
                    reward,
                    next_state,
                    next_valid: env
                        .valid_actions(&ep)
                        .iter()
                        .map(|&a| self.candidates[a].0 as usize)
                        .collect(),
                    done,
                });
                if self.replay.len() > 4096 {
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
            if recent.len() > window {
                recent.pop_front();
            }
        }
        Ok((returns, best_config, best_snap, recent))
    }

    fn learn_step(&mut self, opt: &mut Adam, tape: &mut Tape) {
        if self.replay.len() < self.cfg.batch_size {
            return;
        }
        let mut batch = Vec::with_capacity(self.cfg.batch_size);
        for _ in 0..self.cfg.batch_size {
            let i = self.rng.gen_range(0..self.replay.len());
            batch.push(self.replay[i].clone());
        }
        // Bootstrap targets (DRLindex uses the online net — no target
        // network): every non-terminal next-state goes through ONE
        // batched forward pass. Each row of a batched matmul runs the
        // same accumulation chain as a single-row forward, so the
        // targets are bit-identical to per-transition inference.
        let store_ref = self.store.as_ref().expect("store");
        let qnet = self.qnet.as_ref().expect("net");
        let need: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, t)| !(t.done || t.next_valid.is_empty()))
            .map(|(i, _)| i)
            .collect();
        let mut maxq = vec![0.0f32; batch.len()];
        if !need.is_empty() {
            let w = batch[need[0]].next_state.len();
            let mut next_rows = Vec::with_capacity(need.len() * w);
            for &i in &need {
                next_rows.extend_from_slice(&batch[i].next_state);
            }
            let qv =
                qnet.forward_reuse(tape, store_ref, Tensor::from_vec(need.len(), w, next_rows));
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
        let mut rows = Vec::new();
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
        let width = rows.len() / batch.len();
        let store = self.store.as_mut().expect("store");
        store.zero_grads();
        tape.reset();
        let x = tape.constant(Tensor::from_vec(batch.len(), width, rows));
        let q = self
            .qnet
            .as_ref()
            .expect("net")
            .forward(tape, store, x);
        let loss = tape.mse_selected(q, &targets);
        tape.backward(loss, store);
        opt.step(store);
    }

    fn finish(&mut self, best_snap: Vec<f32>, recent: VecDeque<Vec<f32>>) {
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
    }
}

impl IndexAdvisor for DrlIndexAdvisor {
    fn name(&self) -> String {
        format!("DRLindex-{}", self.mode.suffix())
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.store = None;
        self.qnet = None;
        self.replay.clear();
        self.rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x0d12_71de);
        self.ensure_net(cost);
        // DRLindex considers every column referenced by the workload (no
        // NDV filter — the paper contrasts this with DQN's filtering).
        self.candidates = workload.candidate_columns();
        let (returns, _best_cfg, best_snap, recent) = self.run_trajectories(
            cost,
            workload,
            self.cfg.train_trajectories,
            true,
            self.cfg.eps_end,
            self.cfg.lr,
        )?;
        self.reward_trace = returns;
        self.finish(best_snap, recent);
        Ok(())
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        if self.store.is_none() {
            return self.train(cost, workload);
        }
        self.candidates = workload.candidate_columns();
        let (returns, _best_cfg, best_snap, recent) = self.run_trajectories(
            cost,
            workload,
            self.cfg.train_trajectories,
            false,
            self.cfg.eps_end,
            self.cfg.lr,
        )?;
        self.reward_trace = returns;
        self.finish(best_snap, recent);
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
        let saved = self.store.as_ref().expect("store").snapshot();
        let saved_replay = self.replay.clone();
        let (returns, best_config, _best_snap, recent) = self.run_trajectories(
            cost,
            workload,
            self.cfg.trial_trajectories,
            false,
            self.cfg.trial_eps,
            self.cfg.lr * self.cfg.trial_lr_scale,
        )?;
        self.reward_trace = returns;
        let result = match self.mode {
            TrajectoryMode::Best => best_config,
            TrajectoryMode::MeanLast(_) => {
                let snaps: Vec<Vec<f32>> = recent.into_iter().collect();
                let avg = ParamStore::average(&snaps);
                let mut store = self.store.as_ref().expect("store").clone();
                store.restore(&avg);
                let matrix = query_column_matrix(cost, workload, self.cfg.state_buckets);
                let env =
                    IndexEnv::new(cost, workload, self.candidates.clone(), self.cfg.budget)?;
                let qnet = self.qnet.as_ref().expect("net");
                let ep = env.greedy_rollout(|ep, a| {
                    let state = self.state_vec(cost, &matrix, &ep.config);
                    let q = qnet.infer(&store, &Tensor::row(state)).data;
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

impl ClearBoxAdvisor for DrlIndexAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        let Some(store) = &self.store else {
            return Vec::new();
        };
        let l = cost.catalog().schema.num_columns();
        let matrix = if self.last_state_matrix.is_empty() {
            vec![0.0; self.cfg.state_buckets * l]
        } else {
            self.last_state_matrix.clone()
        };
        let state = self.state_vec(cost, &matrix, &IndexConfig::empty());
        let q = self
            .qnet
            .as_ref()
            .expect("net")
            .infer(store, &Tensor::row(state))
            .data;
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
    use pipa_cost::{CostEngine, SimBackend};
    use pipa_workload::Benchmark;

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
        assert!(CostEngine::new(&cost).workload_benefit(&w, &cfg).unwrap() > 0.0);
    }

    #[test]
    fn reward_is_one_over_cost_shaped() {
        let ia = DrlIndexAdvisor::new(TrajectoryMode::Best, DrlIndexConfig::fast());
        // Cost halved → positive reward; cost doubled → negative.
        assert!(ia.step_reward(1000.0, 1000.0, 500.0) > 0.0);
        assert!(ia.step_reward(1000.0, 500.0, 1000.0) < 0.0);
        // Same absolute cost change at lower cost levels → much larger
        // reward magnitude (the "over-sensitive" property).
        let small = ia.step_reward(2000.0, 2000.0, 1900.0).abs();
        let big = ia.step_reward(2000.0, 20_000.0, 19_900.0).abs();
        assert!(small > big);
    }

    #[test]
    fn candidates_unfiltered() {
        let (cost, w) = setup();
        let mut ia = DrlIndexAdvisor::new(TrajectoryMode::Best, DrlIndexConfig::fast());
        ia.train(&cost, &w).unwrap();
        assert_eq!(ia.candidates, w.candidate_columns());
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
