//! The NN training path's work, pinned as dispatched kernel products.
//!
//! Backward skips the input-layer gradient `dX = dH·Wᵀ` of a constant
//! input, the learned-index fit runs each epoch as one batched tape
//! instead of one tape per key, and the Q-learner evaluates its output
//! layer only at the columns it reads. Each cut shows up as exact
//! product counts or flops here.
//!
//! The kernel counters are process-global, so this binary holds one test
//! and measures each count in turn.

use pipa::cost::{CostBackend, LearnedIndexBackend, LearnedIndexConfig, SimBackend};
use pipa::ia::{AdvisorSpec, BuildCtx, SpeedPreset};
use pipa::nn::kernels::{reset_stats, stats};
use pipa::nn::mlp::Activation;
use pipa::nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa::workload::{Benchmark, WorkloadGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Products dispatched by one Linear→ReLU→Linear train step, with the
/// input a constant or a parameter leaf.
fn train_step_products(input_is_param: bool) -> u64 {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mlp = Mlp::new(&mut store, "m", &[6, 8, 3], Activation::Relu, &mut rng);
    let x = Tensor::from_vec(4, 6, (0..24).map(|i| (i % 5) as f32 * 0.25).collect());
    let x_id = input_is_param.then(|| store.add("x", x.clone()));
    let mut opt = Adam::new(0.01);
    reset_stats();
    let mut tape = Tape::new();
    let xv = match x_id {
        Some(id) => tape.param(&store, id),
        None => tape.constant(x),
    };
    let q = mlp.forward(&mut tape, &store, xv);
    let loss = tape.mse_selected(q, &[(0, 1, 0.5), (2, 0, -0.5)]);
    tape.backward(loss, &mut store);
    opt.step(&mut store);
    stats().matmuls
}

#[test]
fn training_dispatches_only_products_its_result_uses() {
    // Two forward products; backward's two weight gradients and the
    // hidden-layer gradient. A parameter input adds its own gradient.
    assert_eq!(train_step_products(false), 5);
    assert_eq!(train_step_products(true), 6);

    // Bulk-loading the learned index fits one CDF model per TPC-H table:
    // five products per epoch for the whole key sample, then a two-layer
    // inference over it for the error bound. 8 tables × (25 epochs × 5 + 2).
    let sim = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    reset_stats();
    let _ = LearnedIndexBackend::new(sim.catalog(), LearnedIndexConfig::fast());
    assert_eq!(stats().matmuls, 1_016);

    // A DQN `train`. Every product of the 61-wide output layer runs at
    // the columns its result is read at: action selection and the
    // bootstrap target at the open columns, the learn step at the one
    // action per row.
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = gen
        .normal(&mut ChaCha8Rng::seed_from_u64(1))
        .expect("normal workload");
    let mut dqn = AdvisorSpec::new("dqn")
        .build_with(BuildCtx::new(SpeedPreset::Test, 1))
        .unwrap();
    reset_stats();
    dqn.train(&sim, &w).expect("train");
    let s = stats();
    // Seven products per learn step (the target's two, the online
    // forward's two, backward's three) and two per greedy step. With the
    // head at full width the same products cost 137,694,080 flops.
    assert_eq!((s.matmuls, s.flops), (1_859, 86_504_448));
}
