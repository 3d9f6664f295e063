//! Parameter storage: named tensors with gradients, snapshots, and
//! averaging.
//!
//! Index advisors need more than plain training: the paper's `-b` variant
//! keeps the parameters of the *best* trajectory and the `-m` variant
//! averages the parameters of the last trajectories, so the store supports
//! cheap [`ParamStore::snapshot`] / [`ParamStore::restore`] /
//! [`ParamStore::average`] operations over flat `Vec<f32>` images.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use crate::tensor::Tensor;
use rand::Rng;

/// Handle to one parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// One named parameter and its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Diagnostic name (e.g. `enc0.attn.wq`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

/// A set of model parameters.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with explicit initial value.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows, value.cols);
        self.params.push(Param {
            name: name.to_string(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Register a parameter with Xavier-uniform init.
    pub fn add_xavier<R: Rng + ?Sized>(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        self.add(name, Tensor::from_vec(rows, cols, data))
    }

    /// Register a zero-initialized parameter (biases).
    pub fn add_zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add(name, Tensor::zeros(rows, cols))
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable value (for optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Accumulate into a parameter's gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        let grad = &mut self.params[id.0].grad;
        debug_assert_eq!((grad.rows, grad.cols), (g.rows, g.cols));
        for (a, &b) in grad.data.iter_mut().zip(&g.data) {
            *a += b;
        }
    }

    /// Zero every gradient.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.data.fill(0.0);
        }
    }

    /// Every parameter in id order, for an optimizer's fused update.
    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    /// Iterate ids (stable order).
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Global L2 norm of all gradients (for clipping).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.data.iter().map(|&x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Flat snapshot of every parameter value.
    pub fn snapshot(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for p in &self.params {
            out.extend_from_slice(&p.value.data);
        }
        out
    }

    /// Restore from a snapshot produced by [`Self::snapshot`].
    pub fn restore(&mut self, snap: &[f32]) {
        assert_eq!(snap.len(), self.num_scalars(), "snapshot size mismatch");
        let mut off = 0;
        for p in &mut self.params {
            let n = p.value.len();
            p.value.data.copy_from_slice(&snap[off..off + n]);
            off += n;
        }
    }

    /// Element-wise average of several snapshots (the `-m` variant).
    pub fn average(snaps: &[Vec<f32>]) -> Vec<f32> {
        assert!(!snaps.is_empty(), "cannot average zero snapshots");
        let n = snaps[0].len();
        let mut out = vec![0.0f32; n];
        for s in snaps {
            assert_eq!(s.len(), n);
            for (o, &v) in out.iter_mut().zip(s) {
                *o += v;
            }
        }
        let k = snaps.len() as f32;
        for o in &mut out {
            *o /= k;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(s.value(id).get(1, 1), 4.0);
        assert_eq!(s.num_scalars(), 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut s = ParamStore::new();
        let id = s.add_zeros("b", 1, 3);
        s.accumulate_grad(id, &Tensor::row(vec![1.0, 1.0, 1.0]));
        s.accumulate_grad(id, &Tensor::row(vec![0.5, 0.5, 0.5]));
        assert_eq!(s.grad(id).data, vec![1.5, 1.5, 1.5]);
        assert!((s.grad_norm() - (3.0f32 * 1.5 * 1.5).sqrt()).abs() < 1e-6);
        s.zero_grads();
        assert_eq!(s.grad(id).data, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut s = ParamStore::new();
        s.add_xavier("w1", 4, 4, &mut rng);
        s.add_xavier("w2", 2, 8, &mut rng);
        let snap = s.snapshot();
        let before = s.value(ParamId(0)).clone();
        // Perturb, then restore.
        s.value_mut(ParamId(0)).data[0] += 10.0;
        assert_ne!(s.value(ParamId(0)).data, before.data);
        s.restore(&snap);
        assert_eq!(s.value(ParamId(0)).data, before.data);
    }

    #[test]
    fn average_of_snapshots() {
        let a = vec![0.0, 2.0];
        let b = vec![4.0, 6.0];
        assert_eq!(ParamStore::average(&[a, b]), vec![2.0, 4.0]);
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut s = ParamStore::new();
        let id = s.add_xavier("w", 10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(s.value(id).data.iter().all(|v| v.abs() <= bound));
    }
}
