//! # pipa — facade crate for the PIPA reproduction
//!
//! Re-exports every sub-crate of the workspace under one roof so examples
//! and downstream users can depend on a single crate:
//!
//! * [`sim`] — the database substrate (schema, statistics, cost model,
//!   executor, what-if interface);
//! * [`cost`] — the object-safe [`cost::CostBackend`] seam every consumer
//!   routes cost access through (with three free helpers:
//!   [`cost::workload_benefit`], [`cost::query_benefit`],
//!   [`cost::measured_workload_cost`]), plus record/replay backends and
//!   the learned-index backend (a poisoning target in its own right);
//! * [`workload`] — TPC-H / TPC-DS schemas, templates, workload generation;
//! * [`nn`] — the tiny neural-network library backing the learned advisors
//!   and the IABART query generator;
//! * [`ia`] — learning-based index advisors (DQN, DRLindex, DBABandit,
//!   SWIRL, InContext) plus heuristic baselines, each named by one
//!   [`ia::AdvisorSpec`] and built by `AdvisorSpec::build` through the
//!   open target registry (new kinds via [`ia::register_target`]);
//! * [`qgen`] — query generators (FSM, templates, IABART);
//! * [`core`] — PIPA itself: probing, injecting, AD/RD metrics, and the
//!   stress-test harness;
//! * [`serve`] — the multi-tenant session fleet (typed
//!   `TenantSpec`/`FleetSpec` API over a work-stealing scheduler);
//! * [`obs`] — zero-dependency observability (event channels, timers,
//!   per-cell recording).

pub use pipa_core as core;
pub use pipa_cost as cost;
pub use pipa_ia as ia;
pub use pipa_nn as nn;
pub use pipa_obs as obs;
pub use pipa_qgen as qgen;
pub use pipa_serve as serve;
pub use pipa_sim as sim;
pub use pipa_workload as workload;
