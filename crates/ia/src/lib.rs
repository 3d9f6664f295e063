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
//! DQN and DRLindex run one crate-private Q-learner (`qlearn`: the
//! replay buffer, ε-greedy trajectories, the batched-target learn step,
//! `-b`/`-m` snapshot selection and recommend's trials). Each hands it
//! only the four things it does differently: its workload features, its
//! step reward, its ε per phase and its target net.
//!
//! An advisor is named by one [`registry::AdvisorSpec`] and built by
//! [`registry::AdvisorSpec::build`], which resolves its kind id through
//! the open **target registry**: built-in kinds are pre-registered, and
//! new target classes slot in with one [`registry::register_target`]
//! call. [`registry::AdvisorSpec::paper_variants`] lists the paper's
//! seven advisor variants.

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
mod qlearn;
pub mod registry;
pub mod swirl;

pub use advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
pub use bandit::{BanditAdvisor, BanditConfig};
pub use dqn::{DqnAdvisor, DqnConfig};
pub use drlindex::{DrlIndexAdvisor, DrlIndexConfig};
pub use env::IndexEnv;
pub use factory::{BuildCtx, SpeedPreset};
pub use heuristic::{AutoAdminGreedy, DropHeuristic};
pub use incontext::{InContextAdvisor, InContextConfig};
pub use instrument::Instrumented;
pub use registry::{register_target, registered_ids, AdvisorSpec, UnknownTarget};
pub use swirl::{SwirlAdvisor, SwirlConfig};
