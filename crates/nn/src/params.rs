//! Parameter storage: named tensors with gradients, snapshots, and
//! averaging.
//!
//! Index advisors need more than plain training: the paper's `-b` variant
//! keeps the parameters of the *best* trajectory and the `-m` variant
//! averages the parameters of the last trajectories, so the store supports
//! cheap [`ParamStore::snapshot`] / [`ParamStore::restore`] /
//! [`ParamStore::average`] operations over flat `Vec<f32>` images.

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

    /// Global L2 norm of all gradients (for clipping): per parameter the
    /// sequential `Iterator::sum` of the squares, then the sum of those.
    /// All-zero runs of 64 gradients are skipped, which leaves every bit
    /// unchanged (the private `sum_squares` gives the argument).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| sum_squares(&p.grad.data))
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

/// Gradient values [`sum_squares`] tests for all zeros at once.
const ZERO_RUN: usize = 64;

/// `xs.iter().map(|&x| x * x).sum::<f32>()`, bit for bit, without adding
/// the all-zero runs of `xs`. The sum's fold starts at `-0.0`, and a
/// square is never `-0.0`, so the first term turns the start into `+0.0`
/// or a positive value: a nonempty sum may start at `+0.0`. Such a sum
/// is never `-0.0`, and the square of a zero is `+0.0`, which leaves it
/// unchanged. An empty `xs` keeps the fold's `-0.0`.
fn sum_squares(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return -0.0;
    }
    let mut sum = 0.0f32;
    for run in xs.chunks(ZERO_RUN) {
        // Shifting out the sign bit maps both zeros, and only them, to 0.
        if run.iter().fold(0u32, |bits, &x| bits | (x.to_bits() << 1)) == 0 {
            continue;
        }
        for &x in run {
            sum += x * x;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
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

    /// The clip norm before the zero-run skip: every square, in order.
    fn dense_norm(grads: &[Vec<f32>]) -> f32 {
        grads
            .iter()
            .map(|g| g.iter().map(|&x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// A gradient of `len` values: zeros of both signs, with nonzeros
    /// (subnormals, ordinary and huge values) at a density picked by
    /// `density`, 0 being none.
    fn sparse_grad(len: usize, density: u8, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let odds = [0.0, 0.01, 0.1, 0.9][usize::from(density % 4)];
        (0..len)
            .map(|_| {
                let sign = if rng.gen::<bool>() { -1.0f32 } else { 1.0 };
                if !rng.gen_bool(odds) {
                    return sign * 0.0;
                }
                sign * match rng.gen_range(0u8..4) {
                    0 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                    1 => rng.gen_range(1e18f32..1e22),
                    _ => rng.gen_range(1e-3f32..2.0),
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn grad_norm_matches_the_dense_fold(
            params in proptest::collection::vec((0usize..300, 0u8..4, 0u64..1 << 48), 0..6),
        ) {
            // Lengths up to 260 straddle the 64-value runs, one draw in
            // eight is an empty parameter, and density 0 is an all-zero one.
            let grads: Vec<Vec<f32>> = params
                .iter()
                .map(|&(len, density, seed)| {
                    sparse_grad(if len < 260 { len } else { 0 }, density, seed)
                })
                .collect();
            let mut store = ParamStore::new();
            for (i, g) in grads.iter().enumerate() {
                store.add_zeros(&format!("p{i}"), 1, g.len());
            }
            for (p, g) in store.params_mut().iter_mut().zip(&grads) {
                p.grad.data.clone_from(g);
            }
            proptest::prop_assert_eq!(store.grad_norm().to_bits(), dense_norm(&grads).to_bits());
        }
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
