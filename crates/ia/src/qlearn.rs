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
//!
//! The learn step skips work whose result it already knows. A target
//! network changes only when it is synced, so each stored transition
//! keeps its bootstrap max with the target version it was computed
//! under, and a sampled transition whose version is current reuses it.
//! Only the others go through the batched target forward; row `r` of a
//! batched product runs the same chain whatever the other rows are, so
//! the reused and the recomputed maxima have the same bits. The online
//! net changes every step, so a learner that bootstraps from it (no
//! target network) memoizes nothing.
//!
//! When a `pipa-obs` recorder is installed, each `train`, `retrain` and
//! `recommend` call reports the learn step's wall time per phase as one
//! `timing` metric each: `qlearn_bootstrap` (sampling, the bootstrap
//! target and the minibatch), `qlearn_forward`, `qlearn_backward` and
//! `qlearn_adam`.

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
use pipa_obs::Event;
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::time::Instant;

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
    /// The bootstrap max over `next_valid` at `next_state`, with the
    /// target version it was computed under.
    maxq: Option<(u64, f32)>,
}

impl Transition {
    /// Whether the learning target adds the discounted next-state value.
    fn bootstraps(&self) -> bool {
        !(self.done || self.next_valid.is_empty())
    }
}

/// A target network and the number of syncs it has taken.
struct Target {
    net: ParamStore,
    /// Bumped by every sync and never rewound: a transition's memoized
    /// bootstrap max is current only while its version equals this one.
    version: u64,
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
///
/// The bootstrap memo keeps this behaviour exactly. The restored replay
/// buffer brings back the maxima memoized before the trials, under the
/// versions of that time; if the trials synced the target, the version
/// has moved on and those maxima are recomputed from the trial weights
/// the target now holds.
pub(crate) struct QLearner {
    spec: QSpec,
    qnet: Mlp,
    store: ParamStore,
    /// `None` bootstraps from `store`.
    target: Option<Target>,
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
            target: spec.target_sync.map(|_| Target {
                net: store.clone(),
                version: 0,
            }),
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
        let state = Tensor::row(self.state(cost, &IndexConfig::empty()));
        self.qnet.infer(&self.store, &state).data
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
        let columns: Vec<usize> = env.candidates.iter().map(|c| c.0 as usize).collect();
        let mut tape = Tape::new();
        let ep = env.greedy_rollout(|ep| {
            let state = Tensor::row(self.state(cost, &ep.config));
            let q = self
                .qnet
                .infer_cols(&mut tape, &self.store, state, &columns);
            tape.value(q).data.iter().map(|&v| f64::from(v)).collect()
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
        let mut clock = PhaseClock::new();

        for traj in 0..n {
            let eps = eps(traj);
            let mut ep = env.reset();
            while !env.done(&ep) {
                let state = self.state(cost, &ep.config);
                let valid = env.valid_actions(&ep);
                let action = if self.rng.gen::<f64>() < eps {
                    valid.get(self.rng.gen_range(0..valid.len())).copied()
                } else {
                    let columns: Vec<usize> = valid.iter().map(|&a| column(a)).collect();
                    let row = Tensor::row(state.clone());
                    let qv = self.qnet.infer_cols(&mut tape, &self.store, row, &columns);
                    valid
                        .iter()
                        .zip(&tape.value(qv).data)
                        .max_by(|(_, x), (_, y)| x.total_cmp(y))
                        .map(|(&a, _)| a)
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
                    maxq: None,
                });
                if self.replay.len() > REPLAY_CAPACITY {
                    self.replay.pop_front();
                }
                self.learn_step(&mut opt, &mut tape, &mut clock);
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
        clock.emit();
        self.reward_trace = returns;
        let kept = if recent.is_empty() {
            best_snap
        } else {
            ParamStore::average(recent.make_contiguous())
        };
        Ok((best_config, kept))
    }

    /// One minibatch step on the squared TD error of the actions taken.
    ///
    /// Both passes compute only the Q-values they read, with the bits of
    /// the full forward: the bootstrap target evaluates the head at the
    /// columns still open in some next state ([`Mlp::infer_cols`]), and
    /// the loss trains the head at the action each row took
    /// ([`pipa_nn::Linear::forward_at`]). The inputs are finite, as the
    /// picked head requires: the state's features lie in [0, 1], and the
    /// rewards come from costs the environment checks.
    fn learn_step(&mut self, opt: &mut Adam, tape: &mut Tape, clock: &mut PhaseClock) {
        let n = self.spec.batch_size;
        if self.replay.len() < n {
            return;
        }
        clock.start();
        let (replay, rng) = (&self.replay, &mut self.rng);
        let batch: Vec<usize> = (0..n).map(|_| rng.gen_range(0..replay.len())).collect();
        let maxq = self.bootstrap_maxima(&batch, tape);
        let [width, _, _] = self.spec.layers;
        let mut rows = Vec::with_capacity(n * width);
        let mut actions = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for (r, (&i, &maxq)) in batch.iter().zip(&maxq).enumerate() {
            let t = &self.replay[i];
            let y = if t.bootstraps() {
                t.reward + self.spec.gamma * maxq
            } else {
                t.reward
            };
            rows.extend_from_slice(&t.state);
            actions.push(t.action);
            targets.push((r, 0, y));
        }
        clock.lap(Phase::Bootstrap);
        self.store.zero_grads();
        tape.reset();
        let x = tape.constant(Tensor::from_vec(n, width, rows));
        let h = self.qnet.forward_hidden(tape, &self.store, x);
        let q = self.qnet.head().forward_at(tape, &self.store, h, &actions);
        let loss = tape.mse_selected(q, &targets);
        clock.lap(Phase::Forward);
        tape.backward(loss, &mut self.store);
        clock.lap(Phase::Backward);
        opt.step(&mut self.store);
        clock.lap(Phase::Adam);
    }

    /// The bootstrap max of each sampled transition (`0.0` for those that
    /// do not bootstrap). A memoized max under the current target version
    /// is reused. Every other bootstrapping next state goes through ONE
    /// batched forward pass, and the maxima it yields are memoized when
    /// a target network computed them. Row `r` of a batched product runs
    /// the same accumulation chain whatever the other rows are, and
    /// column `j` of [`Mlp::infer_cols`] that of column `cols[j]` whatever
    /// the other columns are, so every max has the bits of one full
    /// forward per transition.
    fn bootstrap_maxima(&mut self, batch: &[usize], tape: &mut Tape) -> Vec<f32> {
        let [width, _, outputs] = self.spec.layers;
        let version = self.target.as_ref().map(|t| t.version);
        let mut maxq = vec![0.0f32; batch.len()];
        let mut need = Vec::new();
        for (r, &i) in batch.iter().enumerate() {
            let t = &self.replay[i];
            if !t.bootstraps() {
                continue;
            }
            match t.maxq {
                Some((v, q)) if Some(v) == version => maxq[r] = q,
                _ => need.push(r),
            }
        }
        if need.is_empty() {
            return maxq;
        }
        let mut next_rows = Vec::with_capacity(need.len() * width);
        let mut open = vec![false; outputs];
        for &r in &need {
            let t = &self.replay[batch[r]];
            next_rows.extend_from_slice(&t.next_state);
            for &c in &t.next_valid {
                open[c] = true;
            }
        }
        // The columns some next state has open, and `at[c]`, the
        // position of column `c` among them.
        let columns: Vec<usize> = (0..outputs).filter(|&c| open[c]).collect();
        let mut at = vec![0; outputs];
        for (j, &c) in columns.iter().enumerate() {
            at[c] = j;
        }
        let bootstrap_net = self.target.as_ref().map_or(&self.store, |t| &t.net);
        let qv = self.qnet.infer_cols(
            tape,
            bootstrap_net,
            Tensor::from_vec(need.len(), width, next_rows),
            &columns,
        );
        let qn = tape.value(qv);
        for (row, &r) in need.iter().enumerate() {
            let q = qn.row_slice(row);
            let t = &mut self.replay[batch[r]];
            maxq[r] = t
                .next_valid
                .iter()
                .map(|&c| q[at[c]])
                .fold(f32::NEG_INFINITY, f32::max);
            if let Some(v) = version {
                t.maxq = Some((v, maxq[r]));
            }
        }
        maxq
    }

    fn sync_target(&mut self) {
        if let Some(target) = &mut self.target {
            target.net.restore(&self.store.snapshot());
            target.version += 1;
        }
    }

    /// The workload features, then the configuration's bitmap.
    fn state(&self, cost: &dyn CostBackend, config: &IndexConfig) -> Vec<f32> {
        let mut s = self.features.clone();
        s.extend(config_bitmap(cost, config));
        s
    }

    #[cfg(test)]
    pub(crate) fn params(&self) -> Vec<f32> {
        self.store.snapshot()
    }
}

/// The learn step's phases, in [`PhaseClock`]'s order.
#[derive(Clone, Copy)]
enum Phase {
    Bootstrap,
    Forward,
    Backward,
    Adam,
}

/// The `timing` metric name of each [`Phase`].
const PHASE_NAMES: [&str; 4] = [
    "qlearn_bootstrap",
    "qlearn_forward",
    "qlearn_backward",
    "qlearn_adam",
];

/// Wall time per learn-step phase, summed over one call. It reads the
/// clock only when a `pipa-obs` recorder was installed at its creation.
struct PhaseClock {
    /// The nanoseconds per phase, and when the current phase began;
    /// `None` when nothing records.
    armed: Option<([u64; 4], Instant)>,
}

impl PhaseClock {
    fn new() -> Self {
        PhaseClock {
            armed: pipa_obs::is_recording().then(|| ([0; 4], Instant::now())),
        }
    }

    /// Begin the first phase of a learn step.
    fn start(&mut self) {
        if let Some((_, mark)) = &mut self.armed {
            *mark = Instant::now();
        }
    }

    /// End `phase` and begin the next one.
    fn lap(&mut self, phase: Phase) {
        if let Some((nanos, mark)) = &mut self.armed {
            let now = Instant::now();
            nanos[phase as usize] += now.duration_since(*mark).as_nanos() as u64;
            *mark = now;
        }
    }

    /// One `timing` metric per phase.
    fn emit(&self) {
        let Some((nanos, _)) = self.armed else { return };
        for (name, ns) in PHASE_NAMES.into_iter().zip(nanos) {
            pipa_obs::metric(Event::new("timing").field("name", name).field("nanos", ns));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdvisorSpec, BuildCtx, SpeedPreset};
    use pipa_cost::SimBackend;
    use pipa_obs::{record_cell, CellCtx};
    use pipa_workload::generator::WorkloadGenerator;
    use pipa_workload::Benchmark;

    #[test]
    fn a_recorded_call_reports_each_learn_step_phase_once() {
        let cost = SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let gen = WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = gen.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        let mut dqn = AdvisorSpec::new("dqn")
            .build_with(BuildCtx::new(SpeedPreset::Test, 1))
            .unwrap();
        let (trained, cell) = record_cell(true, CellCtx::new(1), || dqn.train(&cost, &w));
        trained.unwrap();
        for name in PHASE_NAMES {
            let tag = format!("\"name\":\"{name}\"");
            let timings = cell.metrics.iter().filter(|l| l.contains(&tag));
            assert_eq!(timings.count(), 1, "{name} on the metrics channel");
            assert!(
                cell.trace.iter().all(|l| !l.contains(name)),
                "{name} traced"
            );
        }

        // Unrecorded, the clock is never read and nothing is emitted.
        let mut clock = PhaseClock::new();
        clock.start();
        clock.lap(Phase::Bootstrap);
        assert!(clock.armed.is_none());
        let (trained, cell) = record_cell(false, CellCtx::new(1), || dqn.train(&cost, &w));
        trained.unwrap();
        assert!(cell.metrics.is_empty() && cell.trace.is_empty());
    }
}
