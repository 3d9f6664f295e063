//! Optimizers: SGD (with optional momentum) and Adam, both with global
//! gradient-norm clipping.

use crate::params::ParamStore;

/// An optimizer consumes accumulated gradients and updates parameters.
pub trait Optimizer {
    /// Apply one update step from the store's current gradients.
    /// Gradients are left untouched; call [`ParamStore::zero_grads`]
    /// before the next accumulation.
    fn step(&mut self, store: &mut ParamStore);
}

/// Stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Global gradient-norm clip (0 disables clipping).
    pub clip: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            clip: 0.0,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        let scale = clip_scale(store, self.clip);
        let ids: Vec<_> = store.ids().collect();
        if self.momentum > 0.0 && self.velocity.is_empty() {
            self.velocity = ids
                .iter()
                .map(|&id| vec![0.0; store.value(id).len()])
                .collect();
        }
        for (k, id) in ids.into_iter().enumerate() {
            let grad: Vec<f32> = store.grad(id).data.iter().map(|&g| g * scale).collect();
            let value = store.value_mut(id);
            if self.momentum > 0.0 {
                let vel = &mut self.velocity[k];
                for ((v, w), g) in vel.iter_mut().zip(&mut value.data).zip(&grad) {
                    *v = self.momentum * *v + g;
                    *w -= self.lr * *v;
                }
            } else {
                for (w, g) in value.data.iter_mut().zip(&grad) {
                    *w -= self.lr * g;
                }
            }
        }
    }
}

/// Adam optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 1.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

/// Elements [`Adam::step`] tests at once for moments that never moved.
const IDLE_RUN: usize = 64;

impl Optimizer for Adam {
    /// One fused pass per parameter over its value, gradient and both
    /// moments. Each element runs the operations of an indexed loop in
    /// the same order; Rust never contracts them into FMAs, and division
    /// and `sqrt` round per lane, so the pass may vectorize without
    /// changing a bit.
    ///
    /// The pass walks each parameter in runs of 64 elements and skips a
    /// run whose gradient and both moments are all `+0.0` (bit pattern 0)
    /// when this step's arithmetic maps such an element to `+0.0` moments
    /// and a `+0.0` weight delta: the element's update would leave `m`
    /// and `v` at `+0.0` and the weight at `w − (+0.0) = w`. Whether it
    /// does depends only on the step's coefficients, so
    /// `Coeffs::zero_is_idle` checks it once per step. It fails, e.g.,
    /// for `eps = 0` (the delta is `0/0`) or `lr < 0` (the delta is
    /// `−0.0`, which turns a `−0.0` weight into `+0.0`). Every moment
    /// starts at `+0.0`, so a weight run that no step's gradient has
    /// reached since the optimizer began is never touched. This is not a
    /// skip of zero gradients: once a run's moments have moved, they
    /// decay every step.
    fn step(&mut self, store: &mut ParamStore) {
        let scale = clip_scale(store, self.clip);
        if self.m.is_empty() {
            self.m = store
                .ids()
                .map(|id| vec![0.0; store.value(id).len()])
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let k = Coeffs {
            scale,
            beta1: self.beta1,
            beta2: self.beta2,
            lr: self.lr,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let skip_idle = k.zero_is_idle();
        let moments = self.m.iter_mut().zip(&mut self.v);
        for (p, (m, v)) in store.params_mut().iter_mut().zip(moments) {
            let (w, g) = (&mut p.value.data, &p.grad.data);
            let runs = w.chunks_mut(IDLE_RUN).zip(g.chunks(IDLE_RUN));
            let runs = runs.zip(m.chunks_mut(IDLE_RUN).zip(v.chunks_mut(IDLE_RUN)));
            for ((w, g), (m, v)) in runs {
                if skip_idle && positive_zeros(g) && positive_zeros(m) && positive_zeros(v) {
                    continue;
                }
                for (((w, &g), m), v) in w.iter_mut().zip(g).zip(m).zip(v) {
                    let (new_m, new_v, delta) = k.lane(g, *m, *v);
                    *m = new_m;
                    *v = new_v;
                    *w -= delta;
                }
            }
        }
    }
}

/// The coefficients of one Adam step.
struct Coeffs {
    /// Gradient clip scale.
    scale: f32,
    beta1: f32,
    beta2: f32,
    lr: f32,
    eps: f32,
    /// Bias corrections `1 − βᵗ`.
    bc1: f32,
    bc2: f32,
}

impl Coeffs {
    /// One element's update from its gradient and moments: the new
    /// moments, and the delta the weight is decreased by.
    #[inline(always)]
    fn lane(&self, g: f32, m: f32, v: f32) -> (f32, f32, f32) {
        let g = g * self.scale;
        let m = self.beta1 * m + (1.0 - self.beta1) * g;
        let v = self.beta2 * v + (1.0 - self.beta2) * g * g;
        let mh = m / self.bc1;
        let vh = v / self.bc2;
        (m, v, self.lr * mh / (vh.sqrt() + self.eps))
    }

    /// Whether an element whose gradient and moments are `+0.0` keeps
    /// `+0.0` moments and moves its weight by `+0.0`.
    fn zero_is_idle(&self) -> bool {
        let (m, v, delta) = self.lane(0.0, 0.0, 0.0);
        m.to_bits() | v.to_bits() | delta.to_bits() == 0
    }
}

/// Whether every value of `xs` is `+0.0`.
fn positive_zeros(xs: &[f32]) -> bool {
    xs.iter().fold(0u32, |bits, &x| bits | x.to_bits()) == 0
}

fn clip_scale(store: &ParamStore, clip: f32) -> f32 {
    if clip <= 0.0 {
        return 1.0;
    }
    let norm = store.grad_norm();
    if norm > clip {
        clip / norm
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Minimize f(w) = (w - 3)^2 starting from 0.
    fn quadratic_descends(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 1, vec![0.0]));
        for _ in 0..iters {
            store.zero_grads();
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let loss = tape.mse_selected(w, &[(0, 0, 3.0)]);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        store.value(id).data[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = quadratic_descends(&mut Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-3, "w={w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = quadratic_descends(
            &mut Sgd {
                momentum: 0.9,
                ..Sgd::new(0.05)
            },
            200,
        );
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = quadratic_descends(&mut Adam::new(0.1), 300);
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 1, vec![0.0]));
        // Huge handmade gradient.
        store.accumulate_grad(id, &Tensor::from_vec(1, 1, vec![1e6]));
        let mut opt = Sgd {
            clip: 1.0,
            ..Sgd::new(1.0)
        };
        opt.step(&mut store);
        assert!(
            store.value(id).data[0].abs() <= 1.0 + 1e-6,
            "clipped update should be ≤ lr·clip"
        );
    }

    /// The indexed Adam loop that the fused pass replaced, kept as its
    /// oracle: a per-parameter copy of the scaled gradient, then one
    /// indexed update per element.
    fn indexed_adam_step(opt: &mut Adam, store: &mut ParamStore) {
        let scale = clip_scale(store, opt.clip);
        let ids: Vec<_> = store.ids().collect();
        if opt.m.is_empty() {
            opt.m = ids
                .iter()
                .map(|&id| vec![0.0; store.value(id).len()])
                .collect();
            opt.v = opt.m.clone();
        }
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for (k, id) in ids.into_iter().enumerate() {
            let grad: Vec<f32> = store.grad(id).data.iter().map(|&g| g * scale).collect();
            let (m, v) = (&mut opt.m[k], &mut opt.v[k]);
            let value = store.value_mut(id);
            for i in 0..grad.len() {
                let g = grad[i];
                m[i] = opt.beta1 * m[i] + (1.0 - opt.beta1) * g;
                v[i] = opt.beta2 * v[i] + (1.0 - opt.beta2) * g * g;
                let mh = m[i] / bc1;
                let vh = v[i] / bc2;
                value.data[i] -= opt.lr * mh / (vh.sqrt() + opt.eps);
            }
        }
    }

    /// A value from the classes the update treats differently: exact
    /// `+0.0` and `-0.0`, subnormals of either sign, and normal values
    /// of `big` magnitude (which pushes the global norm over the clip).
    fn edge_value(rng: &mut ChaCha8Rng, big: f32) -> f32 {
        match rng.gen_range(0..5) {
            0 => 0.0,
            1 => -0.0,
            2 => {
                let sign = if rng.gen::<bool>() { 0x8000_0000 } else { 0 };
                f32::from_bits(rng.gen_range(1u32..0x0080_0000) | sign)
            }
            3 => rng.gen_range(-1e-3f32..1e-3),
            _ => rng.gen_range(-big..big),
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The optimizers the fused pass is checked with: the standard one,
    /// one without clipping, and two whose update of a zero element is
    /// not `+0.0`, so that idle runs must not be skipped: `eps = 0` makes
    /// the delta `0/0`, and `lr < 0` makes it `−0.0`, which turns a
    /// `−0.0` weight into `+0.0`.
    fn adam_variant(which: u8) -> Adam {
        match which % 4 {
            0 => Adam::new(0.01),
            1 => Adam {
                clip: 0.0,
                ..Adam::new(0.01)
            },
            2 => Adam {
                eps: 0.0,
                ..Adam::new(0.01)
            },
            _ => Adam::new(-0.01),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fused_adam_matches_indexed_loop_bit_for_bit(
            seed in 0u64..1 << 40,
            lens in proptest::collection::vec((0usize..6, 1usize..200), 1..5),
            steps in 1usize..9,
            which in 0u8..4,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            // The step at which each 64-value run of each parameter first
            // gets gradients (`steps` and above: never); until then its
            // gradient is a run of `+0.0`.
            let mut wake = Vec::new();
            for (i, &(pick, len)) in lens.iter().enumerate() {
                // Half the parameters end one value before, at or
                // after the end of their first run.
                let len = [63, 64, 65].get(pick).copied().unwrap_or(len);
                let data = (0..len).map(|_| edge_value(&mut rng, 2.0)).collect();
                store.add(&format!("p{i}"), Tensor::from_vec(1, len, data));
                let runs = len.div_ceil(IDLE_RUN);
                wake.push((0..runs).map(|_| rng.gen_range(0..steps + 2)).collect::<Vec<_>>());
            }
            let mut oracle_store = store.clone();
            let (mut fused, mut oracle) = (adam_variant(which), adam_variant(which));
            for step in 0..steps {
                // Alternate steps whose gradient norm stays under the 1.0
                // clip with steps far above it.
                let big = if rng.gen::<bool>() { 8.0 } else { 1e-2 };
                for (p, wake) in store.params_mut().iter_mut().zip(&wake) {
                    for (g, &wake) in p.grad.data.chunks_mut(IDLE_RUN).zip(wake) {
                        for g in g {
                            *g = if step < wake { 0.0 } else { edge_value(&mut rng, big) };
                        }
                    }
                }
                for (o, p) in oracle_store.params_mut().iter_mut().zip(store.params_mut()) {
                    o.grad.data.copy_from_slice(&p.grad.data);
                }
                fused.step(&mut store);
                indexed_adam_step(&mut oracle, &mut oracle_store);
                for id in store.ids() {
                    prop_assert_eq!(
                        bits(&store.value(id).data),
                        bits(&oracle_store.value(id).data),
                        "step {} param {:?}",
                        step,
                        id
                    );
                }
                for k in 0..fused.m.len() {
                    prop_assert_eq!(bits(&fused.m[k]), bits(&oracle.m[k]));
                    prop_assert_eq!(bits(&fused.v[k]), bits(&oracle.v[k]));
                }
            }
        }
    }
}
