//! Differential suite for the NN matmul kernels (proptest).
//!
//! The blocked kernels must be **bit-identical**
//! (`f32::to_bits`) to the naive reference loops — for `matmul`,
//! `matmul_t`, and `t_matmul`, on proptest-generated shapes (including
//! 1×1, tall/skinny, and non-multiples of the 16-wide panel) and on
//! inputs salted with exact `+0.0`/`-0.0` (the naive `matmul`/`t_matmul`
//! loops skip `a == 0.0` terms, so zeros are part of the reference
//! semantics, not an optimization the fast kernels may take
//! differently). Any divergence, even in the last ulp, is a bug:
//! training trajectories make `total_cmp` decisions on these numbers,
//! so "close enough" can flip an action and desynchronize a seeded run.
//!
//! The train-step tests close the loop end-to-end: N Adam steps under
//! each kernel mode — and on a pooled (reused) tape versus fresh tapes —
//! must leave bit-identical parameters.

use pipa::nn::kernels::{matmul_t_with_mode, matmul_with_mode, t_matmul_with_mode};
use pipa::nn::mlp::Activation;
use pipa::nn::{
    kernel_mode, set_kernel_mode, Adam, KernelMode, Mlp, Optimizer, ParamStore, Tape, Tensor,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Max proptest dimension; data pools are sliced to the drawn shape.
const DMAX: usize = 33;

/// Salt a raw sample into the adversarial value domain: values near zero
/// collapse to *exact* signed zeros so the zero-skip path is exercised.
fn salt(v: f32) -> f32 {
    if v.abs() < 0.3 {
        if v < 0.0 {
            -0.0
        } else {
            0.0
        }
    } else {
        v
    }
}

fn tensor_from(pool: &[f32], rows: usize, cols: usize) -> Tensor {
    let data = pool[..rows * cols].iter().copied().map(salt).collect();
    Tensor::from_vec(rows, cols, data)
}

fn assert_bits_eq(label: &str, reference: &Tensor, fast: &Tensor) {
    assert_eq!(
        (reference.rows, reference.cols),
        (fast.rows, fast.cols),
        "{label}: shape"
    );
    for (i, (x, y)) in reference.data.iter().zip(&fast.data).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} diverges ({x} vs {y})"
        );
    }
}

/// All three products, both modes, one shape.
fn check_all_products(a_pool: &[f32], b_pool: &[f32], m: usize, k: usize, n: usize) {
    {
        let a = tensor_from(a_pool, m, k);
        let b = tensor_from(b_pool, k, n);
        let naive = matmul_with_mode(&a, &b, KernelMode::Naive);
        let fast = matmul_with_mode(&a, &b, KernelMode::Blocked);
        assert_bits_eq(&format!("matmul {m}x{k}x{n}"), &naive, &fast);
    }
    {
        let a = tensor_from(a_pool, m, k);
        let bt = tensor_from(b_pool, n, k);
        let naive = matmul_t_with_mode(&a, &bt, KernelMode::Naive);
        let fast = matmul_t_with_mode(&a, &bt, KernelMode::Blocked);
        assert_bits_eq(&format!("matmul_t {m}x{k}x{n}"), &naive, &fast);
    }
    {
        let at = tensor_from(a_pool, k, m);
        let b = tensor_from(b_pool, k, n);
        let naive = t_matmul_with_mode(&at, &b, KernelMode::Naive);
        let fast = t_matmul_with_mode(&at, &b, KernelMode::Blocked);
        assert_bits_eq(&format!("t_matmul {m}x{k}x{n}"), &naive, &fast);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_kernels_bit_equal_naive(
        m in 1usize..=DMAX,
        k in 1usize..=DMAX,
        n in 1usize..=DMAX,
        a_pool in proptest::collection::vec(-2.0f32..2.0, DMAX * DMAX),
        b_pool in proptest::collection::vec(-2.0f32..2.0, DMAX * DMAX),
    ) {
        check_all_products(&a_pool, &b_pool, m, k, n);
    }
}

#[test]
fn adversarial_shapes_bit_equal() {
    // Shapes straddling every kernel boundary: unit, degenerate-thin,
    // tall/skinny, exact panel multiples, one-off-panel, sub-panel.
    let shapes = [
        (1, 1, 1),
        (1, 17, 1),
        (33, 1, 5),
        (5, 16, 16),
        (16, 5, 33),
        (2, 33, 31),
        (7, 29, 16),
        (32, 3, 2),
        (1, 1, 33),
        (17, 17, 17),
    ];
    // Deterministic pool with negatives, zeros, and magnitude spread.
    let pool: Vec<f32> = (0..DMAX * DMAX)
        .map(|i| {
            let v = ((i * 2_654_435_761) % 4001) as f32 / 1000.0 - 2.0;
            salt(v)
        })
        .collect();
    for (m, k, n) in shapes {
        check_all_products(&pool, &pool, m, k, n);
    }
}

/// N Adam steps on a small MLP; returns the final parameter snapshot.
/// Everything (init, data, targets) derives from fixed seeds, so two
/// runs may differ only through kernel arithmetic.
fn train_snapshot(reuse_tape: bool) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "m", &[11, 19, 7], Activation::Relu, &mut rng);
    let mut data_rng = ChaCha8Rng::seed_from_u64(0xda7a);
    let mut opt = Adam::new(5e-3);
    let mut pooled = Tape::new();
    for step in 0..8 {
        let batch = 5;
        let x = Tensor::from_vec(
            batch,
            11,
            (0..batch * 11)
                .map(|_| data_rng.gen_range(-1.0f32..1.0))
                .collect(),
        );
        let targets: Vec<(usize, usize, f32)> = (0..batch)
            .map(|r| (r, (r + step) % 7, if r % 2 == 0 { 0.5 } else { -0.25 }))
            .collect();
        store.zero_grads();
        if reuse_tape {
            pooled.reset();
            let xv = pooled.constant(x);
            let y = mlp.forward(&mut pooled, &store, xv);
            let loss = pooled.mse_selected(y, &targets);
            pooled.backward(loss, &mut store);
        } else {
            let mut tape = Tape::new();
            let xv = tape.constant(x);
            let y = mlp.forward(&mut tape, &store, xv);
            let loss = tape.mse_selected(y, &targets);
            tape.backward(loss, &mut store);
        }
        opt.step(&mut store);
    }
    store.snapshot()
}

fn assert_params_bit_eq(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: param count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: param {i} diverges ({x} vs {y})"
        );
    }
}

/// The only test in the suite that touches the process-global kernel
/// mode (the `*_with_mode` tests above use explicit-mode entry points
/// precisely so parallel test threads don't race on it).
#[test]
fn train_steps_bit_identical_across_modes_and_tape_reuse() {
    let initial = kernel_mode();
    let mut snaps = Vec::new();
    for mode in [KernelMode::Naive, KernelMode::Blocked] {
        set_kernel_mode(mode);
        snaps.push((format!("{mode:?} fresh"), train_snapshot(false)));
        snaps.push((format!("{mode:?} pooled"), train_snapshot(true)));
    }
    set_kernel_mode(initial);
    let (ref_label, reference) = &snaps[0];
    for (label, snap) in &snaps[1..] {
        assert_params_bit_eq(&format!("{ref_label} vs {label}"), reference, snap);
    }
}
