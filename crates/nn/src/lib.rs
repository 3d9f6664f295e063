//! # pipa-nn — a tiny deterministic neural-network library
//!
//! From-scratch, CPU-only, dependency-free (beyond `rand`) neural nets:
//! exactly what the reproduction needs and nothing more.
//!
//! * [`tensor`] — dense 2-D `f32` tensors with the handful of kernels the
//!   models use (matmul, transpose-matmul, row softmax, ...);
//! * [`kernels`] — cache-blocked matmul implementations
//!   that are **bit-identical** to the naive loops (see the module docs
//!   for the equality argument), selectable via [`kernels::set_kernel_mode`];
//! * [`pool`] — a buffer pool the tape uses to recycle forward/gradient
//!   allocations across steps;
//! * [`tape`] — reverse-mode autodiff over a per-forward-pass tape;
//! * [`layers`] — parameter containers (linear, embedding, layer norm)
//!   over a [`params::ParamStore`];
//! * [`optim`] — SGD and Adam with gradient clipping;
//! * [`transformer`] — encoder/decoder blocks and a small seq2seq model
//!   (the IABART backbone);
//! * [`mlp`] — plain multilayer perceptrons (the DQN/SWIRL backbones).
//!
//! Everything is seeded and single-threaded, so training runs are
//! bit-reproducible — a property the paper's AD/RD measurements rely on
//! when comparing runs.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

pub mod kernels;
pub mod layers;
pub mod mlp;
pub mod optim;
pub mod params;
pub mod pool;
pub mod tape;
pub mod tensor;
pub mod transformer;

pub use kernels::{kernel_mode, set_kernel_mode, KernelMode, KernelStats, PackedB};
pub use layers::{Embedding, LayerNorm, Linear};
pub use mlp::Mlp;
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use pool::BufferPool;
pub use tape::{Tape, Var};
pub use tensor::Tensor;
pub use transformer::{DecodeSession, Seq2SeqTransformer, TransformerConfig};
