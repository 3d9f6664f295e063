//! # pipa-workload — benchmark schemas, statistics, and workload generation
//!
//! Encodes the two analytic benchmarks the paper evaluates on:
//!
//! * [`tpch`] — the full 8-table / 61-column TPC-H schema, per-column
//!   statistics scaled by scale factor, and structural equivalents of the
//!   22 query templates (18 used by default, as in SWIRL);
//! * [`tpcds`] — the 24-table / 425-column TPC-DS schema with a
//!   deterministic pool of 99 derived templates (90 used by default).
//!
//! [`generator`] produces *normal workloads* the way the paper does:
//! every template is instantiated once and assigned a uniformly random
//! frequency. [`Benchmark`] bundles everything behind one enum.

#![warn(missing_docs)]

pub mod drift;
pub mod generator;
pub mod templates;
pub mod tpcds;
pub mod tpch;
pub mod traffic;

pub use drift::DriftSchedule;
pub use generator::{generate_normal_workload, WorkloadGenerator};
pub use templates::{AggSpec, ParamKind, ParamPredicate, TemplateSpec};
pub use traffic::{
    column_usage, Arrivals, ColumnUsage, Diurnal, Popularity, TrafficModel, WindowTraffic,
};

use pipa_sim::{Database, Schema};

/// The benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// TPC-H (8 tables, 61 columns, N = 18).
    TpcH,
    /// TPC-DS (24 tables, 425 columns, N = 90).
    TpcDs,
}

impl Benchmark {
    /// The benchmark's schema.
    pub fn schema(self) -> Schema {
        match self {
            Benchmark::TpcH => tpch::schema(),
            Benchmark::TpcDs => tpcds::schema(),
        }
    }

    /// Query templates (full pool).
    pub fn templates(self) -> Vec<TemplateSpec> {
        match self {
            Benchmark::TpcH => tpch::templates(),
            Benchmark::TpcDs => tpcds::templates(),
        }
    }

    /// Default template subset used for normal workloads (the paper's
    /// `N = 18` / `N = 90`).
    pub fn default_templates(self) -> Vec<TemplateSpec> {
        match self {
            Benchmark::TpcH => tpch::default_templates(),
            Benchmark::TpcDs => tpcds::default_templates(),
        }
    }

    /// Default normal-workload size.
    pub fn default_workload_size(self) -> usize {
        match self {
            Benchmark::TpcH => tpch::DEFAULT_WORKLOAD_SIZE,
            Benchmark::TpcDs => tpcds::DEFAULT_WORKLOAD_SIZE,
        }
    }

    /// Short name (`"tpch"` / `"tpcds"`).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::TpcH => "tpch",
            Benchmark::TpcDs => "tpcds",
        }
    }

    /// Build a [`Database`] for this benchmark at a scale factor, with
    /// statistics matched to the benchmark's data characteristics.
    ///
    /// `materialize` optionally provides `(seed, row_cap)` to generate
    /// synthetic data for actual execution. The paper's "1GB" and "10GB"
    /// configurations correspond to `scale = 1.0` and `scale = 10.0`.
    pub fn database(self, scale: f64, materialize: Option<(u64, u32)>) -> Database {
        let schema = self.schema();
        let stats = match self {
            Benchmark::TpcH => tpch::column_stats(&schema, scale),
            Benchmark::TpcDs => tpcds::column_stats(&schema, scale),
        };
        let mut b = Database::builder(schema).scale(scale).column_stats(stats);
        if let Some((seed, cap)) = materialize {
            b = b.materialize(seed, cap);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_benchmarks_build_databases() {
        for b in [Benchmark::TpcH, Benchmark::TpcDs] {
            let db = b.database(1.0, None);
            assert!(db.schema().num_columns() > 50, "{}", b.name());
            assert_eq!(db.column_stats().len(), db.schema().num_columns());
        }
    }

    #[test]
    fn default_sizes_match_paper() {
        assert_eq!(Benchmark::TpcH.default_workload_size(), 18);
        assert_eq!(Benchmark::TpcDs.default_workload_size(), 90);
        assert_eq!(Benchmark::TpcH.default_templates().len(), 18);
        assert_eq!(Benchmark::TpcDs.default_templates().len(), 90);
    }
}
