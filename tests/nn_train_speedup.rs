//! Evidence that the fast NN kernels change *time*, not *results*: a
//! DRLindex advisor retrained under [`KernelMode::Naive`] and under
//! [`KernelMode::Blocked`] must produce exactly the same reward
//! trajectory (`f64` equality — the advisor's decisions are a
//! deterministic function of seeded rng + kernel arithmetic, and the
//! kernels are bit-identical), while the blocked kernel runs the
//! retrain's blocked product faster than the naive loop.
//!
//! The config widens the Q-network (hidden 256, batch 32). Under the
//! global mode, products on sparse or few-row operands stay on the
//! naive loops (`auto_mode_skip` / `auto_mode_mt`), and the learn step
//! computes no input-layer gradient, so the product each learn step
//! sends to the blocked core is the hidden-layer gradient
//! `dH = dQ·W₂ᵀ` (`matmul_t`, batch × actions × hidden). That product
//! is a small share of the retrain, so the whole retrain's time moves
//! by about as much as the host's run-to-run noise; the test times the
//! product itself.
//!
//! This is the only test in this binary: it flips the process-global
//! kernel mode, so it cannot share a test process with anything that
//! dispatches matmuls concurrently.

use pipa::ia::{DrlIndexAdvisor, DrlIndexConfig, IndexAdvisor, TrajectoryMode};
use pipa::nn::kernels::matmul_t_with_mode;
use pipa::nn::{kernel_mode, set_kernel_mode, KernelMode, Tensor};
use pipa::workload::Benchmark;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn nn_heavy_cfg() -> DrlIndexConfig {
    DrlIndexConfig {
        hidden: 256,
        batch_size: 32,
        train_trajectories: 25,
        trial_trajectories: 10,
        seed: 7,
        ..DrlIndexConfig::default()
    }
}

/// Train a fresh seeded DRLindex advisor, then retrain it; returns the
/// post-retrain reward trace.
fn retrain_rewards(mode: KernelMode) -> Vec<f64> {
    set_kernel_mode(mode);
    let db = pipa::cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g.normal(&mut ChaCha8Rng::seed_from_u64(5)).unwrap();
    let mut ia = DrlIndexAdvisor::new(TrajectoryMode::Best, nn_heavy_cfg());
    ia.train(&db, &w).expect("train");
    ia.retrain(&db, &w).expect("retrain");
    ia.reward_trace().to_vec()
}

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[test]
fn fast_kernels_shrink_retrain_time_without_changing_rewards() {
    let initial = kernel_mode();
    let naive_a = retrain_rewards(KernelMode::Naive);
    let fast_a = retrain_rewards(KernelMode::Blocked);
    let naive_b = retrain_rewards(KernelMode::Naive);
    let fast_b = retrain_rewards(KernelMode::Blocked);
    set_kernel_mode(initial);

    // Determinism within a mode (same seeds, same arithmetic)…
    assert_eq!(naive_a, naive_b, "naive reruns must be deterministic");
    assert_eq!(fast_a, fast_b, "fast reruns must be deterministic");
    // …and across modes: the fast kernels are bit-identical to naive,
    // so every trajectory reward matches exactly.
    assert_eq!(
        naive_a, fast_a,
        "kernel mode must not change the reward trajectory"
    );
    assert!(!naive_a.is_empty(), "retrain must extend the reward trace");

    // The retrain's blocked product: dQ (batch × actions) against W₂
    // (hidden × actions), one action per TPC-H column. Alternate the
    // kernels and compare the fastest of several rounds of each, so a
    // single scheduler hiccup can't flip the comparison.
    let cfg = nn_heavy_cfg();
    let actions = Benchmark::TpcH.schema().columns().len();
    let dq = random_tensor(cfg.batch_size, actions, 1);
    let w2 = random_tensor(cfg.hidden, actions, 2);
    let time = |mode| {
        let start = Instant::now();
        for _ in 0..20 {
            black_box(matmul_t_with_mode(&dq, &w2, mode));
        }
        start.elapsed()
    };
    let (mut naive, mut fast) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        naive = naive.min(time(KernelMode::Naive));
        fast = fast.min(time(KernelMode::Blocked));
    }
    assert!(
        fast < naive,
        "blocked dH product ({fast:?}) should beat naive ({naive:?})"
    );
}
