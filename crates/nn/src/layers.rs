//! Parameter-holding layers: linear, embedding, layer norm.
//!
//! Layers register their parameters in a shared [`ParamStore`] at
//! construction and replay themselves onto a [`Tape`] each forward pass.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input features.
    pub in_dim: usize,
    /// Output features.
    pub out_dim: usize,
}

impl Linear {
    /// Register a linear layer's parameters.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add_xavier(&format!("{name}.w"), in_dim, out_dim, rng);
        let b = store.add_zeros(&format!("{name}.b"), 1, out_dim);
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let h = tape.matmul(x, w);
        tape.add_bias(h, b)
    }

    /// [`Linear::forward`] at one output column per row, `cols[r]` for
    /// row `r`: an `(m, 1)` result with the dense path's bits
    /// ([`Tape::linear_at`]). A loss that reads one column per row
    /// trains through this instead of computing every column.
    pub fn forward_at(&self, tape: &mut Tape, store: &ParamStore, x: Var, cols: &[usize]) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.linear_at(x, w, b, cols)
    }

    /// The weight parameter id (tape-less inference paths read the
    /// store value directly, e.g. to pre-pack it).
    pub fn weight_id(&self) -> ParamId {
        self.w
    }

    /// The bias parameter id.
    pub fn bias_id(&self) -> ParamId {
        self.b
    }
}

/// Token embedding table.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    w: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Register an embedding table.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add_xavier(name, vocab, dim, rng);
        Embedding { w, vocab, dim }
    }

    /// Look up token ids.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, ids: &[usize]) -> Var {
        let w = tape.param(store, self.w);
        tape.embedding(w, ids)
    }

    /// The underlying weight parameter (shared with an output projection
    /// when weight tying is wanted).
    pub fn weight(&self) -> ParamId {
        self.w
    }
}

/// Layer normalization with learned gain and bias.
#[derive(Debug, Clone, Copy)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    /// Normalized width.
    pub dim: usize,
}

impl LayerNorm {
    /// Register layer-norm parameters (γ=1, β=0).
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(
            &format!("{name}.gamma"),
            crate::tensor::Tensor::full(1, dim, 1.0),
        );
        let beta = store.add_zeros(&format!("{name}.beta"), 1, dim);
        LayerNorm { gamma, beta, dim }
    }

    /// Forward pass.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let g = tape.param(store, self.gamma);
        let b = tape.param(store, self.beta);
        tape.layer_norm(x, g, b, 1e-5)
    }

    /// The gain parameter id.
    pub fn gamma_id(&self) -> ParamId {
        self.gamma
    }

    /// The bias parameter id.
    pub fn beta_id(&self) -> ParamId {
        self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 3));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).rows, 2);
        assert_eq!(tape.value(y).cols, 4);
        // Zero input → output equals bias (zeros initially).
        assert!(tape.value(y).data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn embedding_returns_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut tape = Tape::new();
        let e = emb.forward(&mut tape, &store, &[3, 3, 7]);
        let v = tape.value(e);
        assert_eq!(v.rows, 3);
        assert_eq!(v.row_slice(0), v.row_slice(1));
        assert_ne!(v.row_slice(0), v.row_slice(2));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 4, vec![10.0, 20.0, 30.0, 40.0]));
        let y = ln.forward(&mut tape, &store, x);
        let row = tape.value(y).row_slice(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-4, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-2, "var {var}");
    }

    #[test]
    fn training_a_linear_layer_reduces_loss() {
        // End-to-end sanity: fit y = [sum(x), -sum(x)] with SGD.
        use crate::optim::{Optimizer, Sgd};
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 2, 2, &mut rng);
        let mut opt = Sgd::new(0.1);
        let data = [
            ([0.5f32, 0.2], (0.7, -0.7)),
            ([-0.3, 0.9], (0.6, -0.6)),
            ([1.0, -1.0], (0.0, 0.0)),
        ];
        let loss_at = |store: &ParamStore| {
            let mut total = 0.0;
            for (x, (t0, t1)) in &data {
                let mut tape = Tape::new();
                let xv = tape.constant(Tensor::row(x.to_vec()));
                let y = lin.forward(&mut tape, store, xv);
                let l = tape.mse_selected(y, &[(0, 0, *t0), (0, 1, *t1)]);
                total += tape.value(l).data[0];
            }
            total
        };
        let before = loss_at(&store);
        for _ in 0..200 {
            store.zero_grads();
            for (x, (t0, t1)) in &data {
                let mut tape = Tape::new();
                let xv = tape.constant(Tensor::row(x.to_vec()));
                let y = lin.forward(&mut tape, &store, xv);
                let l = tape.mse_selected(y, &[(0, 0, *t0), (0, 1, *t1)]);
                tape.backward(l, &mut store);
            }
            opt.step(&mut store);
        }
        let after = loss_at(&store);
        assert!(after < before / 10.0, "before={before} after={after}");
    }
}
