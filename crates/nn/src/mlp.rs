//! Multilayer perceptrons — the function approximators behind DQN,
//! DRLindex, and SWIRL.
//!
//! Training runs [`Mlp::forward`], whose parameter leaves carry the
//! gradients. Inference ([`Mlp::infer`], [`Mlp::infer_cols`]) runs every
//! layer as one constant-leaf [`Tape::linear`] against the store's
//! values, so it copies no parameter into the tape; the op runs the
//! forward's product and bias add, so the bits are the forward's.

use crate::layers::Linear;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

/// A feed-forward network with uniform hidden activations and a linear
/// output head.
#[derive(Debug, Clone)]
pub struct Mlp {
    hidden: Vec<Linear>,
    head: Linear,
    activation: Activation,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `&[in, h1, h2, out]`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let last = sizes.len() - 2;
        let hidden = sizes[..=last]
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        let head = Linear::new(
            store,
            &format!("{name}.l{last}"),
            sizes[last],
            sizes[last + 1],
            rng,
        );
        Mlp {
            hidden,
            head,
            activation,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.hidden.first().unwrap_or(&self.head).in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.head.out_dim
    }

    /// The linear output layer.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Every layer but the output head, each followed by the activation:
    /// the input of [`Mlp::head`].
    pub fn forward_hidden(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for l in &self.hidden {
            h = l.forward(tape, store, h);
            h = self.activate(tape, h);
        }
        h
    }

    /// [`Mlp::forward_hidden`] for inference, each layer a [`Tape::linear`].
    fn infer_hidden(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for l in &self.hidden {
            h = tape.linear(h, store.value(l.weight_id()), store.value(l.bias_id()));
            h = self.activate(tape, h);
        }
        h
    }

    fn activate(&self, tape: &mut Tape, h: Var) -> Var {
        match self.activation {
            Activation::Relu => tape.relu(h),
            Activation::Tanh => tape.tanh(h),
        }
    }

    /// Forward pass on the tape: [`Mlp::forward_hidden`], then the head.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.forward_hidden(tape, store, x);
        self.head.forward(tape, store, h)
    }

    /// Inference-only forward pass on a throwaway tape, without copying
    /// the parameters into it. Bit-identical to [`Mlp::forward`].
    pub fn infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let h = self.infer_hidden(&mut tape, store, xv);
        let (w, b) = (self.head.weight_id(), self.head.bias_id());
        let y = tape.linear(h, store.value(w), store.value(b));
        tape.value(y).clone()
    }

    /// The training forward pass on a caller-held tape: resets it
    /// (recycling the previous step's buffers through the tape pool) and
    /// runs [`Mlp::forward`]. Hot loops use this to stop reallocating
    /// activations on every call. The returned [`Var`]'s value lives
    /// until the next reset.
    pub fn forward_reuse(&self, tape: &mut Tape, store: &ParamStore, x: Tensor) -> Var {
        tape.reset();
        let xv = tape.constant(x);
        self.forward(tape, store, xv)
    }

    /// [`Mlp::infer`] on a caller-held tape, which it resets, at the
    /// output columns `cols` only: the head multiplies the hidden rows by
    /// those columns of its weight ([`Tape::linear_cols`]). Column `j` of
    /// the `(m, cols.len())` value is column `cols[j]` of the full
    /// forward, bit for bit.
    pub fn infer_cols(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Tensor,
        cols: &[usize],
    ) -> Var {
        tape.reset();
        let xv = tape.constant(x);
        let h = self.infer_hidden(tape, store, xv);
        let (w, b) = (self.head.weight_id(), self.head.bias_id());
        tape.linear_cols(h, store.value(w), store.value(b), cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shapes_flow_through() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[5, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        let y = mlp.infer(&store, &Tensor::zeros(4, 5));
        assert_eq!((y.rows, y.cols), (4, 3));
    }

    #[test]
    fn learns_xor() {
        // XOR is the classic nonlinear sanity check: a linear model cannot
        // fit it, an MLP with one hidden layer can.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[2, 8, 1], Activation::Tanh, &mut rng);
        let data = [
            ([0.0f32, 0.0], 0.0f32),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut opt = Adam::new(0.02);
        for _ in 0..800 {
            store.zero_grads();
            for (x, t) in &data {
                let mut tape = Tape::new();
                let xv = tape.constant(Tensor::row(x.to_vec()));
                let y = mlp.forward(&mut tape, &store, xv);
                let l = tape.mse_selected(y, &[(0, 0, *t)]);
                tape.backward(l, &mut store);
            }
            opt.step(&mut store);
        }
        for (x, t) in &data {
            let y = mlp.infer(&store, &Tensor::row(x.to_vec())).data[0];
            assert!((y - t).abs() < 0.25, "xor({x:?}) = {y}, want {t}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let mut store = ParamStore::new();
            let mlp = Mlp::new(&mut store, "m", &[3, 4, 2], Activation::Relu, &mut rng);
            mlp.infer(&store, &Tensor::row(vec![0.1, 0.2, 0.3])).data
        };
        assert_eq!(build(), build());
    }

    /// A value of a class the product and the activations treat apart:
    /// `+0.0`, `-0.0`, a subnormal, or an ordinary value of either sign.
    fn edge(kind: u8, raw: u32) -> f32 {
        match kind % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits((raw % 0x0080_0000) | (raw & 0x8000_0000)),
            _ => (raw % 4001) as f32 / 1000.0 - 2.0,
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn inference_matches_the_training_forward_bit_for_bit(
            (seed, tanh) in (0u64..1 << 40, 0u8..2),
            hidden in proptest::collection::vec(1usize..24, 1..3),
            (rows, input, output) in (1usize..40, 1usize..16, 1usize..12),
            x_draws in proptest::collection::vec((0u8..6, 0u32..=u32::MAX), 1..48),
            p_draws in proptest::collection::vec((0u8..12, 0u32..=u32::MAX), 1..48),
            cols in proptest::collection::vec(0usize..64, 0..16),
        ) {
            let activation = if tanh == 1 { Activation::Tanh } else { Activation::Relu };
            let sizes: Vec<usize> = [input].into_iter().chain(hidden).chain([output]).collect();
            let mut store = ParamStore::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mlp = Mlp::new(&mut store, "m", &sizes, activation, &mut rng);
            // Set about half the weights, and every bias, from the draws:
            // zeros of both signs among them make the products skip terms.
            let mut i = 0;
            for p in store.params_mut() {
                for w in &mut p.value.data {
                    let (kind, raw) = p_draws[i % p_draws.len()];
                    if kind < 6 || p.name.ends_with(".b") {
                        *w = edge(kind, raw);
                    }
                    i += 1;
                }
            }
            let x = (0..rows * input).map(|i| {
                let (kind, raw) = x_draws[i % x_draws.len()];
                edge(kind.wrapping_add((i / x_draws.len()) as u8), raw)
            });
            let x = Tensor::from_vec(rows, input, x.collect());

            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = mlp.forward(&mut tape, &store, xv);
            let dense = tape.value(y).clone();
            prop_assert_eq!(bits(&mlp.infer(&store, &x).data), bits(&dense.data));

            let cols: Vec<usize> = cols.iter().map(|&c| c % output).collect();
            let q = mlp.infer_cols(&mut tape, &store, x, &cols);
            let want: Vec<f32> = (0..rows)
                .flat_map(|r| cols.iter().map(move |&c| (r, c)))
                .map(|(r, c)| dense.get(r, c))
                .collect();
            prop_assert_eq!(bits(&tape.value(q).data), bits(&want));
        }
    }
}
