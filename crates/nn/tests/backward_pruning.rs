//! Differential proof for the pruned backward pass.
//!
//! [`Tape::backward`] computes no gradient toward a node that no
//! parameter leaf feeds, and `matmul`/`matmul_t` skip the product toward
//! a constant operand. Each test builds one loss twice: once with the
//! input as `tape.constant`, and once with the same input as an extra
//! parameter leaf, which forces every product the pruning skips. The
//! gradient of every real parameter must be bit-equal between the two.

use pipa_nn::mlp::Activation;
use pipa_nn::{Embedding, LayerNorm, Linear, Mlp, ParamId, ParamStore, Tape, Tensor, Var};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Gradient bits of every parameter of `store` after one backward of the
/// loss `build` makes from the input `x`, with `x` a constant or (when
/// `x_is_param`) an extra parameter leaf whose own gradient is ignored.
fn real_grads(
    store: &ParamStore,
    x: &Tensor,
    x_is_param: bool,
    build: &dyn Fn(&mut Tape, &ParamStore, Var) -> Var,
) -> Vec<Vec<u32>> {
    let mut store = store.clone();
    let real: Vec<ParamId> = store.ids().collect();
    let x_id = x_is_param.then(|| store.add("x", x.clone()));
    store.zero_grads();
    let mut tape = Tape::new();
    let xv = match x_id {
        Some(id) => tape.param(&store, id),
        None => tape.constant(x.clone()),
    };
    let loss = build(&mut tape, &store, xv);
    tape.backward(loss, &mut store);
    real.iter()
        .map(|&id| store.grad(id).data.iter().map(|g| g.to_bits()).collect())
        .collect()
}

fn assert_pruning_keeps_grads(
    store: &ParamStore,
    x: &Tensor,
    build: &dyn Fn(&mut Tape, &ParamStore, Var) -> Var,
) {
    let pruned = real_grads(store, x, false, build);
    let forced = real_grads(store, x, true, build);
    for (k, (p, f)) in pruned.iter().zip(&forced).enumerate() {
        assert_eq!(p, f, "gradient of parameter {k} differs");
    }
    assert!(
        pruned.iter().flatten().any(|&g| g != 0),
        "the loss should reach some parameter"
    );
}

/// A mostly-zero input with exact `+0.0` and `-0.0` entries, like the
/// advisors' state rows.
fn sparse_input(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..8) {
            0 => rng.gen_range(-2.0f32..2.0),
            1 => 1.0,
            2 => -0.0,
            _ => 0.0,
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Squared error on one column per row, as the Q-learner's loss.
fn selected_targets(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Vec<(usize, usize, f32)> {
    (0..rows)
        .map(|r| (r, rng.gen_range(0..cols), rng.gen_range(-1.0f32..1.0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mlp_grads_match_with_input_as_param(
        seed in 0u64..1 << 40,
        rows in 1usize..40,
        width in 1usize..24,
        hidden in 1usize..20,
        out in 1usize..8,
        relu in 0u8..2,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let activation = if relu == 1 { Activation::Relu } else { Activation::Tanh };
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[width, hidden, hidden, out], activation, &mut rng);
        let x = sparse_input(&mut rng, rows, width);
        let targets = selected_targets(&mut rng, rows, out);
        assert_pruning_keeps_grads(&store, &x, &|tape, store, xv| {
            let q = mlp.forward(tape, store, xv);
            tape.mse_selected(q, &targets)
        });
    }

    #[test]
    fn embedding_layer_norm_concat_grads_match_with_input_as_param(
        seed in 0u64..1 << 40,
        rows in 1usize..12,
        width in 1usize..10,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (vocab, dim) = (7, 4);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", vocab, dim, &mut rng);
        let norm = LayerNorm::new(&mut store, "ln", dim + width);
        let lin = Linear::new(&mut store, "lin", dim + width, width, &mut rng);
        let proj = Linear::new(&mut store, "proj", width, width, &mut rng);
        let ids: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..vocab)).collect();
        let x = sparse_input(&mut rng, rows, width);
        let targets = selected_targets(&mut rng, rows, width);
        assert_pruning_keeps_grads(&store, &x, &|tape, store, xv| {
            // A constant subtree of more than one node feeds the graph.
            let squashed = tape.tanh(xv);
            let scaled = tape.scale(squashed, 0.5);
            let e = emb.forward(tape, store, &ids);
            let cat = tape.concat_cols(e, scaled);
            let h = norm.forward(tape, store, cat);
            let h = lin.forward(tape, store, h);
            // The constant as each operand of `matmul_t` and `matmul`.
            let s1 = tape.matmul_t(h, xv);
            let s2 = tape.matmul_t(xv, h);
            let s = tape.add(s1, s2);
            let mixed = tape.matmul(s, xv);
            let direct = proj.forward(tape, store, xv);
            let out = tape.add(mixed, direct);
            tape.mse_selected(out, &targets)
        });
    }
}
