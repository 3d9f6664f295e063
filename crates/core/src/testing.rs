//! Test-only cost backends shared by the crate's unit tests.

use pipa_cost::{CostBackend, CostError, CostResult, CostSession, SimBackend};
use pipa_sim::{Index, IndexConfig, Query, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The invalid costs every cost seam must reject.
pub(crate) const BAD_COSTS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

/// Where a [`BadCosts`] backend misbehaves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Seam {
    /// `query_cost`.
    Query,
    /// `batch_workload_cost`, each configuration of a batch counting as
    /// one cost.
    Batch,
    /// `executed_workload_cost`.
    Executed,
}

/// A simulator backend whose costs at one seam turn `bad` after `ok`
/// good ones there; every other answer is the simulator's.
pub(crate) struct BadCosts<'a> {
    inner: &'a SimBackend,
    seam: Seam,
    ok: usize,
    bad: f64,
    calls: AtomicUsize,
}

impl<'a> BadCosts<'a> {
    pub(crate) fn new(inner: &'a SimBackend, seam: Seam, ok: usize, bad: f64) -> Self {
        BadCosts {
            inner,
            seam,
            ok,
            bad,
            calls: AtomicUsize::new(0),
        }
    }

    fn answer(&self, seam: Seam, good: f64) -> f64 {
        if seam != self.seam || self.calls.fetch_add(1, Ordering::Relaxed) < self.ok {
            good
        } else {
            self.bad
        }
    }
}

impl CostBackend for BadCosts<'_> {
    fn name(&self) -> &'static str {
        "bad-costs"
    }
    fn catalog(&self) -> pipa_cost::Catalog<'_> {
        self.inner.catalog()
    }
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        Ok(self.answer(Seam::Query, self.inner.query_cost(q, cfg)?))
    }
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.inner.workload_cost(w, cfg)
    }
    fn batch_workload_cost(&self, w: &Workload, cfgs: &[IndexConfig]) -> CostResult<Vec<f64>> {
        let good = self.inner.batch_workload_cost(w, cfgs)?;
        Ok(good
            .into_iter()
            .map(|c| self.answer(Seam::Batch, c))
            .collect())
    }
    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        self.inner.session_begin(w)
    }
    fn session_total(&self, w: &Workload, s: &CostSession) -> CostResult<f64> {
        self.inner.session_total(w, s)
    }
    fn session_preview_add(
        &self,
        w: &Workload,
        s: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_preview_add(w, s, cfg_after, idx)
    }
    fn session_add(
        &self,
        w: &Workload,
        s: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_add(w, s, cfg_after, idx)
    }
    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        let good = self.inner.executed_workload_cost(w, cfg)?;
        Ok(self.answer(Seam::Executed, good))
    }
}

/// Asserts `got` is [`BadCosts`]' `NonFinite` error for `bad`.
pub(crate) fn assert_non_finite<T: std::fmt::Debug>(got: CostResult<T>, bad: f64, what: &str) {
    match got {
        Err(CostError::NonFinite { backend, value }) => {
            assert_eq!(backend, "bad-costs", "{what}");
            assert_eq!(value.to_bits(), bad.to_bits(), "{what}");
        }
        other => panic!("{what} with cost {bad}: expected NonFinite, got {other:?}"),
    }
}
