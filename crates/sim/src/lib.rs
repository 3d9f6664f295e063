//! # pipa-sim — analytic database substrate for the PIPA reproduction
//!
//! This crate replaces the PostgreSQL 12.5 instance used by the original
//! PIPA paper (SIGMOD 2024). It provides everything the index advisors and
//! the stress-test framework need from a database:
//!
//! * a [`schema::Schema`] describing tables, columns, and foreign keys;
//! * per-column [`stats::ColumnStats`] (cardinality, NDV, value range,
//!   null fraction, width, correlation, equi-depth histogram);
//! * a [`query::Query`] AST for analytic SQL (joins, sargable filters,
//!   aggregates, ordering) with SQL rendering;
//! * [`index::Index`] definitions (single- and multi-column) with storage
//!   estimation and a budgeted [`index::IndexConfig`];
//! * a PostgreSQL-style analytical [`cost`] model with hypothetical-index
//!   ("what-if") evaluation;
//! * a row-store [`exec`] executor over synthetic data that counts simulated
//!   page accesses, giving "actual" execution costs that are independent of
//!   the analytical estimates;
//! * a [`db::Database`] facade tying it all together and a [`workload`]
//!   abstraction (queries with frequencies).
//!
//! All randomness is seeded (`rand_chacha`) so experiments are reproducible
//! run-to-run.

#![warn(missing_docs)]

pub mod cost;
pub mod datagen;
pub mod db;
pub mod error;
pub mod exec;
pub mod index;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod stats;
pub mod storage;
pub mod value;
pub mod workload;

pub use cost::{
    AnalyticalCostModel, BenefitMatrix, ConfigDelta, CostParams, IncrementalEval, MatrixStats,
};
pub use db::{Database, DatabaseBuilder};
pub use error::{SimError, SimResult};
pub use index::{Index, IndexConfig};
pub use predicate::{PredOp, Predicate};
pub use query::{Aggregate, JoinEdge, Query, QueryBuilder};
pub use schema::{Column, ColumnId, DataType, ForeignKey, Schema, Table, TableId};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use value::Value;
pub use workload::{Workload, WorkloadQuery};
