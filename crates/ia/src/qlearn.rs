//! The deep Q-learner behind [`crate::dqn::DqnAdvisor`] and
//! [`crate::drlindex::DrlIndexAdvisor`].
//!
//! Both advisors learn one Q-value per column with an MLP, explore
//! ε-greedily over [`IndexEnv`] trajectories, learn after every step from
//! a replay buffer, keep the best trajectory's parameters (`-b`) or the
//! mean of the last ones (`-m`), and recommend by running trial
//! trajectories that leave the parameters as they found them. This
//! module is that shared loop. An advisor hands it a [`QSpec`], which
//! carries the hyperparameters and the four things the advisors do
//! differently:
//!
//! * the **workload features** the state starts with (the bitmap of the
//!   current configuration follows them);
//! * the **reward** of a step;
//! * the **ε of each phase**: training anneals from 1.0 to `eps_end`,
//!   retraining explores at `eps_end`, and recommend's trials at
//!   `trial_eps`;
//! * the **bootstrap net**: a target network synced every `target_sync`
//!   trajectories, or the online net itself.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use crate::advisor::TrajectoryMode;
use crate::env::{Episode, IndexEnv};
use crate::features::config_bitmap;
use pipa_cost::{CostBackend, CostResult};
use pipa_nn::mlp::Activation;
use pipa_nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Replay buffer capacity; the oldest transition leaves first.
const REPLAY_CAPACITY: usize = 4096;

/// The workload part of the state.
type Features = Box<dyn Fn(&dyn CostBackend, &Workload) -> Vec<f32> + Send>;

/// Takes action `a` in the episode and returns the step's reward.
type Reward = Box<dyn Fn(&IndexEnv<'_>, &mut Episode, usize) -> CostResult<f64> + Send>;

/// One advisor's Q-learning setup.
pub(crate) struct QSpec {
    pub mode: TrajectoryMode,
    pub budget: usize,
    /// Q-network widths: the state, the hidden layer, one Q-value per
    /// column.
    pub layers: [usize; 3],
    /// Seed of the network's initial weights.
    pub init_seed: u64,
    /// Seed of the exploration and replay-sampling RNG.
    pub rng_seed: u64,
    pub train_trajectories: usize,
    pub trial_trajectories: usize,
    pub batch_size: usize,
    pub gamma: f32,
    pub lr: f32,
    pub trial_lr_scale: f32,
    pub features: Features,
    pub reward: Reward,
    /// Where training's ε anneal from 1.0 ends, and retraining's ε.
    pub eps_end: f64,
    /// ε of recommend's trials.
    pub trial_eps: f64,
    /// Target-network sync period in trajectories; `None` bootstraps
    /// the learning targets from the online net.
    pub target_sync: Option<usize>,
}

#[derive(Clone)]
struct Transition {
    state: Vec<f32>,
    /// Column (Q-network output) of the action taken.
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
    /// Columns still open after the step.
    next_valid: Vec<usize>,
    done: bool,
}

impl Transition {
    /// Whether the learning target adds the discounted next-state value.
    fn bootstraps(&self) -> bool {
        !(self.done || self.next_valid.is_empty())
    }
}

/// A Q-network with its replay buffer, RNG and last reward trace.
///
/// Known fault, kept so outcomes stay bit-identical: [`Self::recommend`]
/// restores the online parameters and the replay buffer after its
/// trials, but not the target network. The trials re-sync the target
/// every `target_sync` trajectories, so after a recommend the target can
/// hold trial weights, and the next retrain or recommend bootstraps its
/// first `target_sync` trajectories from them. Fixing it changes the
/// DQN outcomes the benchmark digests pin.
pub(crate) struct QLearner {
    spec: QSpec,
    qnet: Mlp,
    store: ParamStore,
    /// Target-network weights; `None` bootstraps from `store`.
    target: Option<ParamStore>,
    replay: VecDeque<Transition>,
    rng: ChaCha8Rng,
    candidates: Vec<ColumnId>,
    /// Features of the workload last learned or recommended on.
    features: Vec<f32>,
    reward_trace: Vec<f64>,
}

impl QLearner {
    /// A learner at its initial weights, with an empty replay buffer.
    pub(crate) fn new(spec: QSpec) -> Self {
        let mut store = ParamStore::new();
        let mut init = ChaCha8Rng::seed_from_u64(spec.init_seed);
        let qnet = Mlp::new(&mut store, "q", &spec.layers, Activation::Relu, &mut init);
        QLearner {
            target: spec.target_sync.map(|_| store.clone()),
            rng: ChaCha8Rng::seed_from_u64(spec.rng_seed),
            features: vec![0.0; spec.layers[0] - spec.layers[2]],
            spec,
            qnet,
            store,
            replay: VecDeque::new(),
            candidates: Vec::new(),
            reward_trace: Vec::new(),
        }
    }

    /// Action space of the last call.
    pub(crate) fn candidates(&self) -> &[ColumnId] {
        &self.candidates
    }

    /// Per-trajectory returns of the last call.
    pub(crate) fn reward_trace(&self) -> &[f64] {
        &self.reward_trace
    }

    /// Q-values at the empty configuration under the last workload's
    /// features.
    pub(crate) fn empty_config_q(&self, cost: &dyn CostBackend) -> Vec<f32> {
        self.q_values(cost, &IndexConfig::empty())
    }

    /// Train on `workload` with ε annealed from 1.0 to `eps_end`.
    pub(crate) fn train(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        candidates: Vec<ColumnId>,
    ) -> CostResult<()> {
        self.fit(cost, workload, candidates, true)
    }

    /// Fine-tune on `workload` at ε `eps_end`.
    pub(crate) fn retrain(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        candidates: Vec<ColumnId>,
    ) -> CostResult<()> {
        self.fit(cost, workload, candidates, false)
    }

    /// Run `trial_trajectories` trials on `workload` at ε `trial_eps` and
    /// the learning rate scaled by `trial_lr_scale`, then return the best
    /// trial's configuration (`-b`) or a greedy decode under the mean of
    /// the last trials' parameters (`-m`). The online parameters and the
    /// replay buffer are restored afterwards, also on error.
    pub(crate) fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        // Recommend before train: every workload column is an action.
        if self.candidates.is_empty() {
            self.candidates = workload.candidate_columns();
        }
        let saved = self.store.snapshot();
        let saved_replay = self.replay.clone();
        let result = self.trials(cost, workload);
        self.store.restore(&saved);
        self.replay = saved_replay;
        result
    }

    fn fit(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        candidates: Vec<ColumnId>,
        anneal: bool,
    ) -> CostResult<()> {
        self.candidates = candidates;
        let (n, eps_end) = (self.spec.train_trajectories, self.spec.eps_end);
        let eps = |traj: usize| {
            if anneal {
                1.0 + (eps_end - 1.0) * (traj as f64 / n.max(1) as f64)
            } else {
                eps_end
            }
        };
        let (_, kept) = self.run(cost, workload, n, eps, self.spec.lr)?;
        self.store.restore(&kept);
        self.sync_target();
        Ok(())
    }

    fn trials(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<IndexConfig> {
        let eps = self.spec.trial_eps;
        let lr = self.spec.lr * self.spec.trial_lr_scale;
        let (best_config, kept) =
            self.run(cost, workload, self.spec.trial_trajectories, |_| eps, lr)?;
        if self.spec.mode == TrajectoryMode::Best {
            return Ok(best_config);
        }
        self.store.restore(&kept);
        let env = IndexEnv::new(cost, workload, self.candidates.clone(), self.spec.budget)?;
        let ep = env.greedy_rollout(|ep, a| {
            f64::from(self.q_values(cost, &ep.config)[env.candidates[a].0 as usize])
        })?;
        Ok(ep.config)
    }

    /// Run `n` ε-greedy trajectories on `workload`, learning after every
    /// step, and record their returns as the reward trace. Returns the
    /// best trajectory's configuration and the parameters the mode keeps:
    /// the best trajectory's (`-b`) or the mean of the last ones (`-m`).
    fn run(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        n: usize,
        eps: impl Fn(usize) -> f64,
        lr: f32,
    ) -> CostResult<(IndexConfig, Vec<f32>)> {
        self.features = (self.spec.features)(cost, workload);
        let env = IndexEnv::new(cost, workload, self.candidates.clone(), self.spec.budget)?;
        let column = |a: usize| env.candidates[a].0 as usize;
        let mut opt = Adam::new(lr);
        let mut returns = Vec::with_capacity(n);
        let mut best_return = f64::NEG_INFINITY;
        let mut best_config = IndexConfig::empty();
        let mut best_snap = self.store.snapshot();
        let mut recent = VecDeque::new();
        // One tape for the whole run: action selection and learn steps
        // recycle the same activation/gradient buffers.
        let mut tape = Tape::new();

        for traj in 0..n {
            let eps = eps(traj);
            let mut ep = env.reset();
            while !env.done(&ep) {
                let state = self.state(cost, &ep.config);
                let valid = env.valid_actions(&ep);
                let action = if self.rng.gen::<f64>() < eps {
                    valid.get(self.rng.gen_range(0..valid.len())).copied()
                } else {
                    let qv =
                        self.qnet
                            .forward_reuse(&mut tape, &self.store, Tensor::row(state.clone()));
                    let q = &tape.value(qv).data;
                    valid
                        .iter()
                        .copied()
                        .max_by(|&a, &b| q[column(a)].total_cmp(&q[column(b)]))
                };
                // Unreachable: an unfinished episode has a valid action.
                let Some(action) = action else { break };
                let reward = (self.spec.reward)(&env, &mut ep, action)? as f32;
                let next_state = self.state(cost, &ep.config);
                let next_valid = env.valid_actions(&ep).into_iter().map(column).collect();
                self.replay.push_back(Transition {
                    state,
                    action: column(action),
                    reward,
                    next_state,
                    next_valid,
                    done: env.done(&ep),
                });
                if self.replay.len() > REPLAY_CAPACITY {
                    self.replay.pop_front();
                }
                self.learn_step(&mut opt, &mut tape);
            }
            let ret = env.episode_return(&ep);
            returns.push(ret);
            if ret > best_return {
                best_return = ret;
                best_config = ep.config;
                best_snap = self.store.snapshot();
            }
            if let TrajectoryMode::MeanLast(k) = self.spec.mode {
                recent.push_back(self.store.snapshot());
                if recent.len() > k {
                    recent.pop_front();
                }
            }
            if self
                .spec
                .target_sync
                .is_some_and(|every| (traj + 1) % every == 0)
            {
                self.sync_target();
            }
        }
        self.reward_trace = returns;
        let kept = if recent.is_empty() {
            best_snap
        } else {
            ParamStore::average(recent.make_contiguous())
        };
        Ok((best_config, kept))
    }

    /// One minibatch step on the squared TD error of the actions taken.
    fn learn_step(&mut self, opt: &mut Adam, tape: &mut Tape) {
        let n = self.spec.batch_size;
        if self.replay.len() < n {
            return;
        }
        let (replay, rng) = (&self.replay, &mut self.rng);
        let batch: Vec<&Transition> = (0..n)
            .map(|_| &replay[rng.gen_range(0..replay.len())])
            .collect();
        let width = self.spec.layers[0];
        // Every bootstrapping next state goes through ONE batched forward
        // pass. Row r of a batched matmul runs the same per-element
        // accumulation chain as a single-row forward, so the targets are
        // bit-identical to one forward per transition.
        let need: Vec<usize> = (0..n).filter(|&i| batch[i].bootstraps()).collect();
        let mut maxq = vec![0.0f32; n];
        if !need.is_empty() {
            let mut next_rows = Vec::with_capacity(need.len() * width);
            for &i in &need {
                next_rows.extend_from_slice(&batch[i].next_state);
            }
            let bootstrap_net = self.target.as_ref().unwrap_or(&self.store);
            let qv = self.qnet.forward_reuse(
                tape,
                bootstrap_net,
                Tensor::from_vec(need.len(), width, next_rows),
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
        let mut rows = Vec::with_capacity(n * width);
        let mut targets = Vec::with_capacity(n);
        for (r, t) in batch.iter().enumerate() {
            let y = if t.bootstraps() {
                t.reward + self.spec.gamma * maxq[r]
            } else {
                t.reward
            };
            rows.extend_from_slice(&t.state);
            targets.push((r, t.action, y));
        }
        self.store.zero_grads();
        tape.reset();
        let x = tape.constant(Tensor::from_vec(n, width, rows));
        let q = self.qnet.forward(tape, &self.store, x);
        let loss = tape.mse_selected(q, &targets);
        tape.backward(loss, &mut self.store);
        opt.step(&mut self.store);
    }

    fn sync_target(&mut self) {
        if let Some(target) = &mut self.target {
            target.restore(&self.store.snapshot());
        }
    }

    /// The workload features, then the configuration's bitmap.
    fn state(&self, cost: &dyn CostBackend, config: &IndexConfig) -> Vec<f32> {
        let mut s = self.features.clone();
        s.extend(config_bitmap(cost, config));
        s
    }

    fn q_values(&self, cost: &dyn CostBackend, config: &IndexConfig) -> Vec<f32> {
        let state = Tensor::row(self.state(cost, config));
        self.qnet.infer(&self.store, &state).data
    }

    #[cfg(test)]
    pub(crate) fn params(&self) -> Vec<f32> {
        self.store.snapshot()
    }
}

/// `slot`'s learner, built from `spec` on first use and rebuilt when the
/// catalog's column count no longer matches the network.
pub(crate) fn learner_for<'a>(
    slot: &'a mut Option<QLearner>,
    cost: &dyn CostBackend,
    spec: impl FnOnce() -> QSpec,
) -> &'a mut QLearner {
    let columns = cost.catalog().schema.num_columns();
    if slot.as_ref().is_some_and(|l| l.spec.layers[2] != columns) {
        *slot = None;
    }
    slot.get_or_insert_with(|| QLearner::new(spec()))
}
