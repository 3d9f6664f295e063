//! [`CostEngine`]: composed helpers on top of any [`CostBackend`].

use crate::backend::{CostBackend, CostSession};
use crate::error::{finite_cost, CostResult};
use pipa_sim::cost::{Catalog, ConfigDelta};
use pipa_sim::{ColumnId, ColumnStats, Index, IndexConfig, Query, Schema, TableStats, Workload};

/// A thin, copyable facade over a `&dyn CostBackend` that adds the
/// composed helpers every consumer wants — benefits relative to the
/// empty configuration, best-single-index selection,
/// estimated-vs-executed dispatch — plus ergonomic catalog accessors, so
/// call sites read like the old concrete `Database` API while staying
/// backend-agnostic.
///
/// Every helper is a pure composition of trait calls: identical cost
/// bits flow through regardless of which backend sits behind the seam.
#[derive(Clone, Copy)]
pub struct CostEngine<'a> {
    backend: &'a dyn CostBackend,
}

impl<'a> CostEngine<'a> {
    /// Wrap a backend.
    pub fn new(backend: &'a dyn CostBackend) -> Self {
        CostEngine { backend }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &'a dyn CostBackend {
        self.backend
    }

    // ---- Catalog accessors -------------------------------------------

    /// The backend's catalog view.
    pub fn catalog(&self) -> Catalog<'a> {
        self.backend.catalog()
    }

    /// The schema.
    pub fn schema(&self) -> &'a Schema {
        self.backend.catalog().schema
    }

    /// Per-column statistics for `c`.
    pub fn column_stat(&self, c: ColumnId) -> &'a ColumnStats {
        self.backend.catalog().column(c)
    }

    /// All per-column statistics, indexed by [`ColumnId`].
    pub fn column_stats(&self) -> &'a [ColumnStats] {
        self.backend.catalog().column_stats
    }

    /// All per-table statistics, indexed by `TableId`.
    pub fn table_stats(&self) -> &'a [TableStats] {
        self.backend.catalog().table_stats
    }

    /// Columns eligible for indexing under the schema's rules.
    pub fn indexable_columns(&self) -> Vec<ColumnId> {
        self.backend.catalog().schema.indexable_columns()
    }

    // ---- Cost passthroughs -------------------------------------------

    /// `c(q, d, I)`.
    pub fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.backend.query_cost(q, cfg)
    }

    /// `c(W, d, I)`.
    pub fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.backend.workload_cost(w, cfg)
    }

    /// Workload costs for a batch of configurations.
    pub fn batch_workload_cost(
        &self,
        w: &Workload,
        configs: &[IndexConfig],
    ) -> CostResult<Vec<f64>> {
        self.backend.batch_workload_cost(w, configs)
    }

    /// Workload cost of `base ± index`.
    pub fn delta_workload_cost(
        &self,
        w: &Workload,
        base: &IndexConfig,
        delta: &ConfigDelta,
    ) -> CostResult<f64> {
        self.backend.delta_workload_cost(w, base, delta)
    }

    /// Begin an incremental evaluation session.
    pub fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        self.backend.session_begin(w)
    }

    /// Current session total.
    pub fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        self.backend.session_total(w, session)
    }

    /// Preview adding `idx` to the session configuration.
    pub fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.backend.session_preview_add(w, session, cfg_after, idx)
    }

    /// Commit `idx` into the session configuration.
    pub fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.backend.session_add(w, session, cfg_after, idx)
    }

    /// Executed (actual) cost of one query; estimate where unsupported.
    pub fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.backend.executed_query_cost(q, cfg)
    }

    /// Executed (actual) workload cost; estimate where unsupported.
    pub fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.backend.executed_workload_cost(w, cfg)
    }

    // ---- Composed helpers (formerly `Database` conveniences) ---------

    /// Relative cost reduction of `cfg` vs no indexes for one query:
    /// `1 - c(q, I)/c(q, ∅)`, or `0` when the base cost is non-positive.
    pub fn query_benefit(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        let base = self.backend.query_cost(q, &IndexConfig::empty())?;
        if base <= 0.0 {
            return Ok(0.0);
        }
        Ok(1.0 - self.backend.query_cost(q, cfg)? / base)
    }

    /// Relative cost reduction of `cfg` vs no indexes for a workload.
    pub fn workload_benefit(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        let base = self.backend.workload_cost(w, &IndexConfig::empty())?;
        if base <= 0.0 {
            return Ok(0.0);
        }
        Ok(1.0 - self.backend.workload_cost(w, cfg)? / base)
    }

    /// The single candidate index minimizing a query's estimated cost.
    pub fn best_single_index(&self, q: &Query, candidates: &[Index]) -> CostResult<Option<Index>> {
        let mut best: Option<(f64, &Index)> = None;
        for i in candidates {
            let cfg = IndexConfig::from_indexes([i.clone()]);
            let cost = self.backend.query_cost(q, &cfg)?;
            // `<=` so ties resolve to the later candidate, exactly like the
            // `Iterator::min_by` this helper replaces.
            if best.is_none_or(|(b, _)| cost.total_cmp(&b).is_le()) {
                best = Some((cost, i));
            }
        }
        Ok(best.map(|(_, i)| i.clone()))
    }

    /// Workload cost measured the way the caller asked for: executed
    /// (actual) when `use_actual`, estimated otherwise. A NaN, infinite or
    /// negative cost is a [`crate::CostError::NonFinite`], so degradation
    /// ratios built from measurements are always finite.
    pub fn measured_workload_cost(
        &self,
        w: &Workload,
        cfg: &IndexConfig,
        use_actual: bool,
    ) -> CostResult<f64> {
        let value = if use_actual {
            self.backend.executed_workload_cost(w, cfg)?
        } else {
            self.backend.workload_cost(w, cfg)?
        };
        finite_cost(self.backend.name(), value)
    }
}

impl std::fmt::Debug for CostEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CostEngine({})", self.backend.name())
    }
}
