//! # pipa-cost — the cost-backend seam
//!
//! Every component of the PIPA reproduction — the learned index advisors,
//! the probing/injection attack loop, the stress-test harness, the
//! experiment grid — consumes exactly one thing from the database:
//! `c(W, d, I)`, the (what-if) cost of a workload under an index
//! configuration. This crate turns that contract into an object-safe
//! trait, [`CostBackend`], so consumers are written against
//! `&dyn CostBackend` instead of the concrete in-memory simulator:
//!
//! * [`SimBackend`] — wraps [`pipa_sim::Database`] and routes through its
//!   benefit-matrix/cost-cache machinery, bit-identical to direct calls
//!   (pinned by `tests/cost_backend_differential.rs`);
//! * [`RecordingBackend`] / [`ReplayBackend`] — a record/replay pair that
//!   captures `(query, config) → cost` tapes as JSONL (written through
//!   `pipa-obs` sinks) and replays them deterministically, proving the
//!   seam is real and enabling a future PostgreSQL/what-if-server backend
//!   without touching consumers;
//! * [`LearnedIndexBackend`] — an RMI/ALEX-style learned index structure
//!   whose per-table CDF models refit on the observed workload
//!   ([`CostBackend::observe_training`]), making the index *structure*
//!   itself a poisoning target.
//!
//! The [`CostEngine`] facade adds the composed helpers every consumer
//! wants (benefits, best-single-index, estimated-vs-executed dispatch)
//! on top of any backend.
//!
//! Errors are typed ([`CostError`]) instead of panics: a poisoned lock,
//! missing materialized data, or a replay-tape miss surfaces as a value
//! the experiment harness can report.

#![warn(missing_docs)]

mod backend;
mod engine;
mod error;
mod learned;
mod replay;
mod sim;

pub use backend::{CostBackend, CostSession};
pub use engine::CostEngine;
pub use error::{finite_cost, CostError, CostResult, ReplayMissDetail};
pub use learned::{LearnedIndexBackend, LearnedIndexConfig};
pub use replay::{RecordingBackend, ReplayBackend, Tape, DEFAULT_TAPE_BYTE_LIMIT};
pub use sim::SimBackend;

// The vocabulary types every backend signature speaks, re-exported so
// consumer crates can depend on `pipa-cost` alone for the seam.
pub use pipa_sim::cost::{Catalog, ConfigDelta};
