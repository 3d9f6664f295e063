//! SWIRL advisor (after \[19\], "SWIRL: Selection of Workload-aware Indexes
//! using Reinforcement Learning"): a PPO-style policy network over
//! workload features with **invalid action masking**, trained across many
//! workload episodes so that inference is **one-off** — given a new
//! workload it predicts an index configuration directly, without trial
//! trajectories.
//!
//! Design details the paper's analysis leans on:
//!
//! * **invalid action masking** — actions on columns absent from the
//!   training workloads' predicate surface are masked out, which is why
//!   SWIRL resists very large injection proportions ω (§6.3): extraneous
//!   columns that never enter the training surface simply cannot be
//!   recommended, but conversely columns that *do* enter via the
//!   injection become unmasked and compete for the budget;
//! * **one-off inference** — no trial loop at recommendation time, so a
//!   poisoned policy cannot recover (Figure 8d shows it only recovers
//!   after a full re-training on clean workloads).

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor};
use crate::env::IndexEnv;
use crate::features::{column_frequency_features, config_bitmap};
use pipa_cost::{CostBackend, CostResult};
use pipa_nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SWIRL hyperparameters.
#[derive(Debug, Clone)]
pub struct SwirlConfig {
    /// Index budget `B`.
    pub budget: usize,
    /// Training episodes (paper: 400 trajectories).
    pub train_episodes: usize,
    /// PPO clip ratio.
    pub clip: f32,
    /// Policy updates per episode batch.
    pub epochs_per_batch: usize,
    /// Episodes per policy-update batch.
    pub batch_episodes: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Entropy bonus coefficient (keeps exploration alive).
    pub entropy_coef: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SwirlConfig {
    fn default() -> Self {
        SwirlConfig {
            budget: 4,
            train_episodes: 400,
            clip: 0.2,
            epochs_per_batch: 2,
            batch_episodes: 8,
            hidden: 64,
            lr: 3e-3,
            entropy_coef: 0.01,
            seed: 0,
        }
    }
}

impl SwirlConfig {
    /// Small preset for unit tests.
    pub fn fast() -> Self {
        SwirlConfig {
            train_episodes: 80,
            batch_episodes: 4,
            ..Default::default()
        }
    }
}

/// The SWIRL advisor.
pub struct SwirlAdvisor {
    cfg: SwirlConfig,
    store: Option<ParamStore>,
    policy: Option<Mlp>,
    /// Invalid-action mask: `true` = action allowed. Built from the
    /// training workloads' filter-column surface.
    action_mask: Vec<bool>,
    rng: ChaCha8Rng,
    reward_trace: Vec<f64>,
    last_workload_features: Vec<f32>,
    num_columns: usize,
}

impl SwirlAdvisor {
    /// New advisor.
    pub fn new(cfg: SwirlConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0053_1171);
        SwirlAdvisor {
            cfg,
            store: None,
            policy: None,
            action_mask: Vec::new(),
            rng,
            reward_trace: Vec::new(),
            last_workload_features: Vec::new(),
            num_columns: 0,
        }
    }

    fn ensure_net(&mut self, cost: &dyn CostBackend) {
        let l = cost.catalog().schema.num_columns();
        if self.policy.is_some() && self.num_columns == l {
            return;
        }
        self.num_columns = l;
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x1985);
        let policy = Mlp::new(
            &mut store,
            "pi",
            &[2 * l, self.cfg.hidden, l],
            pipa_nn::mlp::Activation::Tanh,
            &mut rng,
        );
        self.store = Some(store);
        self.policy = Some(policy);
        self.action_mask = vec![false; l];
    }

    fn state_vec(&self, cost: &dyn CostBackend, wfeat: &[f32], cfg: &IndexConfig) -> Vec<f32> {
        let mut s = wfeat.to_vec();
        s.extend(config_bitmap(cost, cfg));
        s
    }

    /// Masked action probabilities for a state. The forward pass runs on
    /// the caller's tape so consecutive calls recycle activation buffers
    /// (bit-identical to a fresh-tape `infer`).
    fn masked_probs(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        state: &[f32],
        taken: &[usize],
    ) -> Vec<f64> {
        let lv = self.policy.as_ref().expect("net").forward_reuse(
            tape,
            store,
            Tensor::row(state.to_vec()),
        );
        let logits = &tape.value(lv).data;
        let mut masked: Vec<f64> = logits
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if self.action_mask[i] && !taken.contains(&i) {
                    f64::from(v)
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        // Softmax over allowed actions.
        let max = masked.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            // No allowed actions: uniform over non-taken columns.
            let n = masked.len();
            for (i, m) in masked.iter_mut().enumerate() {
                *m = if taken.contains(&i) {
                    0.0
                } else {
                    1.0 / n as f64
                };
            }
            return masked;
        }
        let mut sum = 0.0;
        for m in masked.iter_mut() {
            *m = (*m - max).exp();
            sum += *m;
        }
        for m in masked.iter_mut() {
            *m /= sum;
        }
        masked
    }

    fn sample_from(&mut self, probs: &[f64]) -> usize {
        let r: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if r <= acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// PPO training on one workload. Episodes collect (state, action,
    /// advantage, old-prob) tuples; the clipped surrogate is maximized.
    fn train_on(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        episodes: usize,
    ) -> CostResult<()> {
        let wfeat = column_frequency_features(cost, workload);
        self.last_workload_features = wfeat.clone();
        // Action space: every indexable column, masked by the training
        // surface.
        let all: Vec<ColumnId> = cost.catalog().schema.indexable_columns();
        let env = IndexEnv::new(cost, workload, all.clone(), self.cfg.budget)?;
        let mut opt = Adam::new(self.cfg.lr);
        self.reward_trace.clear();
        // One tape for the whole run: action sampling and policy updates
        // recycle the same activation/gradient buffers.
        let mut tape = Tape::new();

        let mut batch: Vec<(Vec<f32>, usize, f64, f64)> = Vec::new();
        let mut episodes_in_batch = 0usize;
        for _ in 0..episodes {
            let mut ep = env.reset();
            let mut steps: Vec<(Vec<f32>, usize, f64, f64)> = Vec::new();
            while !env.done(&ep) {
                let state = self.state_vec(cost, &wfeat, &ep.config);
                let taken: Vec<usize> = ep
                    .config
                    .leading_columns()
                    .iter()
                    .map(|c| c.0 as usize)
                    .collect();
                let probs = self.masked_probs(
                    &mut tape,
                    self.store.as_ref().expect("store"),
                    &state,
                    &taken,
                );
                let col_idx = self.sample_from(&probs);
                let action = all
                    .iter()
                    .position(|c| c.0 as usize == col_idx)
                    .expect("column exists");
                let r = env.step(&mut ep, action)?;
                steps.push((state, col_idx, r, probs[col_idx]));
            }
            let ret = env.episode_return(&ep);
            self.reward_trace.push(ret);
            // Reward-to-go advantages (no value baseline at this scale;
            // the batch mean acts as the baseline).
            let mut g = 0.0;
            let mut advs: Vec<f64> = steps
                .iter()
                .rev()
                .map(|s| {
                    g += s.2;
                    g
                })
                .collect();
            advs.reverse();
            for ((state, a, _, oldp), adv) in steps.into_iter().zip(advs) {
                batch.push((state, a, adv, oldp));
            }
            episodes_in_batch += 1;
            if episodes_in_batch >= self.cfg.batch_episodes {
                self.update_policy(&mut opt, &mut batch, &mut tape);
                episodes_in_batch = 0;
            }
        }
        if !batch.is_empty() {
            self.update_policy(&mut opt, &mut batch, &mut tape);
        }
        Ok(())
    }

    fn update_policy(
        &mut self,
        opt: &mut Adam,
        batch: &mut Vec<(Vec<f32>, usize, f64, f64)>,
        tape: &mut Tape,
    ) {
        if batch.is_empty() {
            return;
        }
        // Normalize advantages.
        let mean: f64 = batch.iter().map(|b| b.2).sum::<f64>() / batch.len() as f64;
        let std: f64 = (batch
            .iter()
            .map(|b| (b.2 - mean) * (b.2 - mean))
            .sum::<f64>()
            / batch.len() as f64)
            .sqrt()
            .max(1e-6);
        for _ in 0..self.cfg.epochs_per_batch {
            let store = self.store.as_mut().expect("store");
            store.zero_grads();
            let policy = self.policy.as_ref().expect("net");
            tape.reset();
            // One big forward over the batch.
            let width = batch[0].0.len();
            let rows: Vec<f32> = batch.iter().flat_map(|b| b.0.iter().copied()).collect();
            let x = tape.constant(Tensor::from_vec(batch.len(), width, rows));
            let logits = policy.forward(tape, store, x);
            let probs = tape.softmax_rows(logits);
            // PPO clipped surrogate via a weighted log-likelihood: weight
            // each (state, action) by the clipped advantage ratio factor.
            // With tiny models one inner epoch ≈ vanilla PG; the clip
            // guards the second epoch.
            let p = tape.value(probs).clone();
            let mut targets = Vec::with_capacity(batch.len());
            let mut weights = Vec::with_capacity(batch.len());
            for (r, (_, a, adv, oldp)) in batch.iter().enumerate() {
                let adv_n = (adv - mean) / std;
                let ratio = f64::from(p.get(r, *a)) / oldp.max(1e-9);
                let clipped = ratio.clamp(
                    1.0 - f64::from(self.cfg.clip),
                    1.0 + f64::from(self.cfg.clip),
                );
                // If the update would exceed the clip in the advantage
                // direction, zero the weight (gradient stopped).
                let active = if adv_n >= 0.0 {
                    ratio <= clipped + 1e-9
                } else {
                    ratio >= clipped - 1e-9
                };
                targets.push(*a);
                weights.push(if active { adv_n as f32 } else { 0.0 });
            }
            // Maximize Σ w log π(a|s): weighted NLL with signed weights
            // (negative advantages push the action probability down).
            let loss = tape.weighted_nll_rows(probs, &targets, &weights);
            tape.backward(loss, store);
            opt.step(store);
        }
        batch.clear();
    }

    /// Greedy one-off decode for a workload (no sampling, no learning).
    fn decode(&self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<IndexConfig> {
        let wfeat = column_frequency_features(cost, workload);
        let all: Vec<ColumnId> = cost.catalog().schema.indexable_columns();
        let env = IndexEnv::new(cost, workload, all.clone(), self.cfg.budget)?;
        let store = self.store.as_ref().expect("trained");
        let mut ep = env.reset();
        let mut tape = Tape::new();
        while !env.done(&ep) {
            let state = self.state_vec(cost, &wfeat, &ep.config);
            let taken: Vec<usize> = ep
                .config
                .leading_columns()
                .iter()
                .map(|c| c.0 as usize)
                .collect();
            let probs = self.masked_probs(&mut tape, store, &state, &taken);
            let Some((col_idx, _)) = probs
                .iter()
                .enumerate()
                .filter(|(i, _)| !taken.contains(i))
                .max_by(|a, b| a.1.total_cmp(b.1))
            else {
                break;
            };
            let action = all
                .iter()
                .position(|c| c.0 as usize == col_idx)
                .expect("column exists");
            env.step(&mut ep, action)?;
        }
        Ok(ep.config)
    }

    /// The action mask (exposed for tests and the ω-sweep analysis).
    pub fn action_mask(&self) -> &[bool] {
        &self.action_mask
    }
}

impl IndexAdvisor for SwirlAdvisor {
    fn name(&self) -> String {
        "SWIRL".to_string()
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.store = None;
        self.policy = None;
        self.rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x0053_1171);
        self.ensure_net(cost);
        // Build the invalid-action mask from the training surface
        // (filter and join columns — SWIRL's action space covers both).
        self.action_mask = vec![false; cost.catalog().schema.num_columns()];
        for c in workload.candidate_columns() {
            self.action_mask[c.0 as usize] = true;
        }
        self.train_on(cost, workload, self.cfg.train_episodes)
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        if self.store.is_none() {
            return self.train(cost, workload);
        }
        // Extend the mask with the new training surface (newly seen
        // columns become valid actions; previously valid ones stay).
        for c in workload.candidate_columns() {
            self.action_mask[c.0 as usize] = true;
        }
        self.train_on(cost, workload, self.cfg.train_episodes)
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        self.ensure_net(cost);
        self.decode(cost, workload)
    }

    fn budget(&self) -> usize {
        self.cfg.budget
    }

    fn is_trial_based(&self) -> bool {
        false
    }

    fn reward_trace(&self) -> &[f64] {
        &self.reward_trace
    }
}

impl ClearBoxAdvisor for SwirlAdvisor {
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
        let logits = self
            .policy
            .as_ref()
            .expect("net")
            .infer(store, &Tensor::row(state))
            .data;
        cost.catalog()
            .schema
            .indexable_columns()
            .into_iter()
            .map(|c| {
                let i = c.0 as usize;
                let pref = if self.action_mask[i] {
                    f64::from(logits[i])
                } else {
                    f64::NEG_INFINITY
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
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(4)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn trains_and_recommends_one_off() {
        let (cost, w) = setup();
        let mut ia = SwirlAdvisor::new(SwirlConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(!cfg.is_empty() && cfg.len() <= 4);
        assert!(!ia.is_trial_based());
        assert!(CostEngine::new(&cost).workload_benefit(&w, &cfg).unwrap() > 0.0);
    }

    #[test]
    fn mask_blocks_unseen_columns() {
        let (cost, w) = setup();
        let mut ia = SwirlAdvisor::new(SwirlConfig::fast());
        ia.train(&cost, &w).unwrap();
        // Comment columns never appear in predicates → masked.
        let comment = cost.database().schema().column_id("l_comment").unwrap();
        assert!(!ia.action_mask()[comment.0 as usize]);
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(cfg
            .leading_columns()
            .iter()
            .all(|c| ia.action_mask()[c.0 as usize]));
    }

    #[test]
    fn retrain_extends_mask() {
        let (cost, w) = setup();
        let schema = cost.database().schema();
        let mut ia = SwirlAdvisor::new(SwirlConfig::fast());
        ia.train(&cost, &w).unwrap();
        let masked_before: usize = ia.action_mask().iter().filter(|&&m| m).count();
        // Retrain on a workload with one extra column.
        let extra = schema.column_id("p_retailprice").unwrap();
        let mut w2 = w.clone();
        let q = pipa_sim::QueryBuilder::new()
            .filter(schema, pipa_sim::Predicate::eq(extra, 0.5))
            .select(extra)
            .build(schema)
            .unwrap();
        w2.push(q, 1);
        ia.retrain(&cost, &w2).unwrap();
        let masked_after: usize = ia.action_mask().iter().filter(|&&m| m).count();
        assert!(masked_after > masked_before);
        assert!(ia.action_mask()[extra.0 as usize]);
    }

    #[test]
    fn learning_improves_reward() {
        let (cost, w) = setup();
        let mut ia = SwirlAdvisor::new(SwirlConfig::fast());
        ia.train(&cost, &w).unwrap();
        let trace = ia.reward_trace().to_vec();
        let early: f64 = trace.iter().take(10).sum::<f64>() / 10.0;
        let late: f64 = trace.iter().rev().take(10).sum::<f64>() / 10.0;
        assert!(
            late >= early,
            "policy should not get worse: early {early:.3} late {late:.3}"
        );
    }
}
