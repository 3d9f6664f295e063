//! [`SimBackend`]: the in-memory simulator behind the seam.

use crate::backend::{CostBackend, CostSession};
use crate::error::{CostError, CostResult};
use pipa_sim::cost::Catalog;
use pipa_sim::{Database, IncrementalEval, Index, IndexConfig, Query, Workload};

/// The analytic-simulator cost backend.
///
/// Owns a [`pipa_sim::Database`] and answers from its benefit matrix
/// (estimates, workload sums and incremental sessions), its executor
/// (executed costs) and its plan model (`explain`), so trait-object
/// dispatch is **bit-identical** to direct `Database` calls (pinned by
/// `tests/cost_backend_differential.rs`). Batch, delta and SQL
/// rendering take the trait defaults. Its sessions hold the matrix's
/// per-query state and answer only on the backend that created them.
pub struct SimBackend {
    db: Database,
}

impl SimBackend {
    /// Wrap a database.
    pub fn new(db: Database) -> Self {
        SimBackend { db }
    }

    /// The wrapped database (schema/statistics access, and the matrix
    /// toggles and statistics for benchmarks).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Unwrap into the database.
    pub fn into_inner(self) -> Database {
        self.db
    }

    /// Downcast a session handle, or report whose session it isn't.
    fn eval<'s>(&self, session: &'s CostSession, w: &Workload) -> CostResult<&'s IncrementalEval> {
        let eval: &IncrementalEval = session
            .downcast_ref()
            .ok_or(CostError::SessionMismatch { backend: "sim" })?;
        if eval.len() != w.len() {
            return Err(CostError::SessionMismatch { backend: "sim" });
        }
        Ok(eval)
    }
}

impl From<Database> for SimBackend {
    fn from(db: Database) -> Self {
        SimBackend::new(db)
    }
}

impl CostBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn catalog(&self) -> Catalog<'_> {
        self.db.catalog()
    }

    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        Ok(self.db.estimated_query_cost(q, cfg))
    }

    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        Ok(self.db.estimated_workload_cost(w, cfg))
    }

    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        Ok(CostSession::new(self.db.whatif_eval_begin(w)))
    }

    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        let eval = self.eval(session, w)?;
        Ok(self.db.whatif_eval_total(w, eval))
    }

    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        let eval = self.eval(session, w)?;
        Ok(self.db.whatif_eval_preview_add(w, eval, cfg_after, idx))
    }

    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.eval(session, w)?;
        let eval: &mut IncrementalEval = session
            .downcast_mut()
            .ok_or(CostError::SessionMismatch { backend: "sim" })?;
        Ok(self.db.whatif_eval_add(w, eval, cfg_after, idx))
    }

    fn supports_execution(&self) -> bool {
        self.db.has_data()
    }

    fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        Ok(self.db.actual_query_cost(q, cfg)?)
    }

    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        Ok(self.db.actual_workload_cost(w, cfg)?)
    }

    fn explain(&self, q: &Query, cfg: &IndexConfig) -> CostResult<String> {
        Ok(self.db.explain(q, cfg))
    }
}
