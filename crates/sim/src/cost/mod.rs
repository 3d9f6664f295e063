//! Cost estimation: PostgreSQL-style analytical model plus the what-if
//! (hypothetical index) interface every index advisor consumes.
//!
//! The advisors in `pipa-ia` and the PIPA framework in `pipa-core` never
//! look inside this module; they only issue `c(W, d, I)` requests through
//! [`crate::db::Database`] (behind the `pipa-cost` seam), exactly as the
//! paper's components only issue them to PostgreSQL's hypothetical-index
//! extension.

mod cache;
pub mod matrix;
pub(crate) mod model;

pub use matrix::{BenefitMatrix, ConfigDelta, IncrementalEval, MatrixStats};
pub use model::AnalyticalCostModel;

use crate::schema::{ColumnId, Schema, TableId};
use crate::stats::{ColumnStats, TableStats};

/// Simulated page size in bytes (PostgreSQL default).
pub const PAGE_SIZE: u64 = 8192;

/// Optimizer cost constants (PostgreSQL defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of a sequentially fetched page.
    pub seq_page_cost: f64,
    /// Cost of a randomly fetched page.
    pub random_page_cost: f64,
    /// CPU cost of processing one tuple.
    pub cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple_cost: f64,
    /// CPU cost of evaluating one operator.
    pub cpu_operator_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            // 2.5 rather than PostgreSQL's spinning-disk 4.0: the paper's
            // testbed (and every modern deployment) runs on SSDs, and
            // index-scan viability at moderate selectivities is central
            // to the experiments.
            random_page_cost: 2.5,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
        }
    }
}

/// Read-only catalog view handed to cost models: schema plus statistics.
/// [`crate::db::Database`] constructs this; keeping it a plain struct
/// avoids a dependency cycle between `cost` and `db`.
#[derive(Clone, Copy)]
pub struct Catalog<'a> {
    /// The relational schema.
    pub schema: &'a Schema,
    /// Per-table statistics, indexed by `TableId.0`.
    pub table_stats: &'a [TableStats],
    /// Per-column statistics, indexed by `ColumnId.0`.
    pub column_stats: &'a [ColumnStats],
}

impl<'a> Catalog<'a> {
    /// Table statistics lookup.
    pub fn table(&self, t: TableId) -> &'a TableStats {
        &self.table_stats[t.0 as usize]
    }

    /// Column statistics lookup.
    pub fn column(&self, c: ColumnId) -> &'a ColumnStats {
        &self.column_stats[c.0 as usize]
    }
}
