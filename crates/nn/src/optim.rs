//! Optimizers: SGD (with optional momentum) and Adam, both with global
//! gradient-norm clipping.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

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

    /// SGD with momentum and clipping.
    pub fn with_options(lr: f32, momentum: f32, clip: f32) -> Self {
        Sgd {
            lr,
            momentum,
            clip,
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

impl Optimizer for Adam {
    /// One fused pass per parameter over its value, gradient and both
    /// moments. Each element runs the operations of an indexed loop in
    /// the same order; Rust never contracts them into FMAs, and division
    /// and `sqrt` round per lane, so the pass may vectorize without
    /// changing a bit.
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
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let moments = self.m.iter_mut().zip(&mut self.v);
        for (p, (m, v)) in store.params_mut().iter_mut().zip(moments) {
            let lanes = p.value.data.iter_mut().zip(&p.grad.data).zip(m).zip(v);
            for (((w, &g), m), v) in lanes {
                let g = g * scale;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mh = *m / bc1;
                let vh = *v / bc2;
                *w -= lr * mh / (vh.sqrt() + eps);
            }
        }
    }
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
        let w = quadratic_descends(&mut Sgd::with_options(0.05, 0.9, 0.0), 200);
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
        let mut opt = Sgd::with_options(1.0, 0.0, 1.0);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fused_adam_matches_indexed_loop_bit_for_bit(
            seed in 0u64..1 << 40,
            shapes in proptest::collection::vec((1usize..5, 1usize..24), 1..5),
            steps in 1usize..9,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            for (i, &(rows, cols)) in shapes.iter().enumerate() {
                let data = (0..rows * cols).map(|_| edge_value(&mut rng, 2.0)).collect();
                store.add(&format!("p{i}"), Tensor::from_vec(rows, cols, data));
            }
            let mut oracle_store = store.clone();
            let (mut fused, mut oracle) = (Adam::new(0.01), Adam::new(0.01));
            for step in 0..steps {
                // Alternate steps whose gradient norm stays under the 1.0
                // clip with steps far above it.
                let big = if rng.gen::<bool>() { 8.0 } else { 1e-2 };
                for p in store.params_mut() {
                    for g in &mut p.grad.data {
                        *g = edge_value(&mut rng, big);
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
