//! # pipa-ia — learning-based index advisors
//!
//! From-scratch re-implementations of the four learned index advisors the
//! paper stress-tests, behind one opaque-box [`advisor::IndexAdvisor`]
//! trait:
//!
//! * [`dqn::DqnAdvisor`] — Deep Q-Network with heuristic candidate
//!   filtering and trial-based inference;
//! * [`drlindex::DrlIndexAdvisor`] — DQN over a sparse query×column state
//!   with the over-sensitive `1/cost` reward;
//! * [`bandit::BanditAdvisor`] — C²UCB combinatorial bandit with the
//!   arm-update trigger;
//! * [`swirl::SwirlAdvisor`] — PPO-style policy with invalid-action
//!   masking and one-off inference;
//!
//! plus heuristic baselines ([`heuristic::AutoAdminGreedy`],
//! [`heuristic::DropHeuristic`]) whose AD is zero by construction, and
//! the retraining-free [`incontext::InContextAdvisor`] (nearest-exemplar
//! matching over an IABART-encoded corpus).
//!
//! Construction goes through the open **target registry**
//! ([`registry::AdvisorSpec`] → [`registry::TargetRegistry`]): built-in
//! kinds are pre-registered, and new target classes slot in with one
//! [`registry::register_target`] call — no enum edits anywhere.
//! [`AdvisorKind::build_with`] remains as a thin alias over that seam
//! for the paper's seven advisor variants.

#![warn(missing_docs)]

pub mod advisor;
pub mod bandit;
pub mod dqn;
pub mod drlindex;
pub mod env;
pub mod factory;
pub mod features;
pub mod heuristic;
pub mod incontext;
pub mod instrument;
pub mod registry;
pub mod swirl;

pub use advisor::{AdvisorKind, ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
pub use bandit::{BanditAdvisor, BanditConfig};
pub use dqn::{DqnAdvisor, DqnConfig};
pub use drlindex::{DrlIndexAdvisor, DrlIndexConfig};
pub use env::IndexEnv;
pub use factory::{BuildCtx, SpeedPreset};
pub use heuristic::{AutoAdminGreedy, DropHeuristic};
pub use incontext::{InContextAdvisor, InContextConfig};
pub use instrument::Instrumented;
pub use registry::{
    register_target, registered_ids, AdvisorSpec, TargetEntry, TargetRegistry, UnknownTarget,
};
pub use swirl::{SwirlAdvisor, SwirlConfig};
