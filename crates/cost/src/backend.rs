//! The object-safe [`CostBackend`] trait and its type-erased session
//! handle.

use crate::error::{CostError, CostResult};
use pipa_sim::cost::{Catalog, ConfigDelta};
use pipa_sim::{Index, IndexConfig, Query, Workload};
use std::any::Any;

/// Backend-private state of an incremental evaluation session, boxed and
/// type-erased so [`CostSession`] stays a plain value consumers can store
/// (and clone) without naming the backend's concrete state type.
trait SessionState: Any + Send {
    fn clone_box(&self) -> Box<dyn SessionState>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + Send + Clone> SessionState for T {
    fn clone_box(&self) -> Box<dyn SessionState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An incremental what-if evaluation session, created by
/// [`CostBackend::session_begin`] and advanced by `session_add`.
///
/// The handle is opaque: consumers store it (advisors keep one per
/// episode), clone it (episodes are `Clone`), and hand it back to the
/// backend that created it. A default session is only a configuration,
/// so every backend that keeps the default session methods answers it
/// correctly; [`crate::SimBackend`]'s sessions are its own. Any other
/// pairing yields [`CostError::SessionMismatch`], not a panic.
pub struct CostSession(Box<dyn SessionState>);

impl CostSession {
    /// Wrap backend-private session state. Only backends call this.
    pub fn new<T: Any + Send + Clone>(state: T) -> Self {
        CostSession(Box::new(state))
    }

    /// Borrow the state as `T`, if this session was created with `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref()
    }

    /// Mutably borrow the state as `T`.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.0.as_any_mut().downcast_mut()
    }
}

impl Clone for CostSession {
    fn clone(&self) -> Self {
        CostSession(self.0.clone_box())
    }
}

impl std::fmt::Debug for CostSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CostSession(..)")
    }
}

/// The state of a default session: the committed configuration. Every
/// call re-costs it through [`CostBackend::workload_cost`].
#[derive(Clone)]
struct ConfigSession {
    cfg: IndexConfig,
}

/// The frequency-weighted sum, in workload order, of per-query costs,
/// folded from `-0.0` like the simulator's `Iterator::sum`.
pub(crate) fn weighted_sum(
    w: &Workload,
    mut query_cost: impl FnMut(&Query) -> CostResult<f64>,
) -> CostResult<f64> {
    w.iter()
        .map(|wq| Ok(wq.frequency as f64 * query_cost(&wq.query)?))
        .sum()
}

fn session_mismatch(backend: &'static str) -> CostError {
    CostError::SessionMismatch { backend }
}

fn unsupported<T>(backend: &'static str, op: &'static str) -> CostResult<T> {
    Err(CostError::Unsupported { backend, op })
}

/// The cost oracle every PIPA component consumes: `c(q, d, I)` /
/// `c(W, d, I)` with batched, delta, and session-based evaluation, and
/// executed (actual) costs where the backend has data.
///
/// The trait is **object-safe** — consumers hold `&dyn CostBackend` — and
/// total: every method returns [`CostResult`] instead of panicking.
/// Method names are deliberately distinct from the concrete
/// `pipa_sim::Database` entry points (`estimated_*`, `whatif_eval_*`,
/// `actual_*`) so the CI boundary lint can forbid direct simulator calls
/// in consumer crates by name.
///
/// A backend supplies [`name`](Self::name), [`catalog`](Self::catalog)
/// and [`query_cost`](Self::query_cost); every other method has a
/// default built on those, overridden only where a backend answers
/// differently.
///
/// # Contract
///
/// **Bit-equality.** Costs are deterministic pure functions of
/// `(catalog, query, config)`: repeated calls return the same `f64`
/// bit-for-bit, regardless of which route answered them (benefit-matrix
/// cells, decomposed join plans, memoized scalar model, or a replay
/// tape) and regardless of thread count. Composite results decompose:
/// `workload_cost` is the frequency-weighted sum, in workload order, of
/// the per-query `query_cost` values, and `batch_workload_cost` /
/// `delta_workload_cost` / session totals must all equal the
/// corresponding sequence of `workload_cost` calls bit-for-bit. This is
/// what makes per-query tapes sufficient to replay whole grids (see
/// [`crate::RecordingBackend`] / [`crate::ReplayBackend`]); it is pinned
/// by `tests/cost_backend_differential.rs`.
///
/// **Sum convention.** Every composite sum, estimated or executed,
/// folds its terms like `Iterator::sum`: left to right from `-0.0`, so
/// an empty workload costs `-0.0` on every backend.
///
/// **Session lifecycle.** [`session_begin`](Self::session_begin) starts
/// a session at the **empty configuration**; the returned
/// [`CostSession`] is an opaque value the consumer stores and hands
/// back to the backend that created it.
/// [`session_preview_add`](Self::session_preview_add) costs
/// `session config + idx` without mutating the session;
/// [`session_add`](Self::session_add) commits it.
/// Both take `cfg_after`, which **must** equal the session's current
/// configuration with `idx` added — backends may trust it (the matrix
/// paths re-cost only what `idx` touches) or recompute from it, but
/// they never diff it. Sessions are `Clone`: cloning forks the
/// configuration state, and both forks remain valid against the
/// creating backend. The default session holds only the committed
/// configuration and re-costs it through `workload_cost`, so every
/// backend that keeps the defaults answers it. [`crate::SimBackend`]
/// overrides the four methods: its sessions carry per-query matrix
/// state and are private to the backend that created them.
///
/// **Error semantics.** Every method is total: failures surface as
/// [`CostError`] values, never panics. Handing a session to a backend
/// that cannot answer it (see above) yields
/// [`CostError::SessionMismatch`]. A replay tape with no entry for a
/// requested `(query, config)` pair yields [`CostError::ReplayMiss`] —
/// carrying both fingerprints and a rendered description of the pair —
/// never a fabricated cost. Operations a backend cannot perform yield
/// [`CostError::Unsupported`] (e.g. `explain` on a tape) rather than a
/// silent approximation; the only sanctioned fallback is `executed_*`
/// degrading to the estimate when
/// [`supports_execution`](Self::supports_execution) is false, mirroring
/// `Database::actual_query_cost`.
pub trait CostBackend: Send + Sync {
    /// Short stable name (used in errors, traces, and result artifacts).
    fn name(&self) -> &'static str;

    /// Read-only catalog view: schema plus table/column statistics.
    /// Advisors use this for feature extraction and candidate
    /// enumeration; it is the only non-cost surface consumers need.
    fn catalog(&self) -> Catalog<'_>;

    /// `c(q, d, I)`: estimated cost of one query under a hypothetical
    /// index configuration.
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64>;

    /// `c(W, d, I)`: the frequency-weighted sum, in workload order, of
    /// [`query_cost`](Self::query_cost) terms.
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        weighted_sum(w, |q| self.query_cost(q, cfg))
    }

    /// Workload costs for a batch of configurations (the probing stage's
    /// bulk what-if call). Backends with shared per-query state answer
    /// this cheaper than `configs.len()` independent workload costings.
    fn batch_workload_cost(&self, w: &Workload, configs: &[IndexConfig]) -> CostResult<Vec<f64>> {
        configs
            .iter()
            .map(|cfg| self.workload_cost(w, cfg))
            .collect()
    }

    /// Workload cost of `base ± index` (one [`ConfigDelta`]).
    fn delta_workload_cost(
        &self,
        w: &Workload,
        base: &IndexConfig,
        delta: &ConfigDelta,
    ) -> CostResult<f64> {
        let cfg = delta.apply(base);
        self.workload_cost(w, &cfg)
    }

    /// Start an incremental evaluation session for `w` at the empty
    /// configuration.
    fn session_begin(&self, _w: &Workload) -> CostResult<CostSession> {
        Ok(CostSession::new(ConfigSession {
            cfg: IndexConfig::empty(),
        }))
    }

    /// Current total workload cost of a session.
    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        let s: &ConfigSession = session
            .downcast_ref()
            .ok_or_else(|| session_mismatch(self.name()))?;
        self.workload_cost(w, &s.cfg)
    }

    /// Total workload cost of `session config + idx` without committing.
    /// `cfg_after` must be the session's configuration with `idx` added.
    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        _idx: &Index,
    ) -> CostResult<f64> {
        session
            .downcast_ref::<ConfigSession>()
            .ok_or_else(|| session_mismatch(self.name()))?;
        self.workload_cost(w, cfg_after)
    }

    /// Commit `idx` into the session's configuration and return the new
    /// total. `cfg_after` must be the session's configuration with `idx`
    /// already added.
    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        _idx: &Index,
    ) -> CostResult<f64> {
        let s: &mut ConfigSession = session
            .downcast_mut()
            .ok_or_else(|| session_mismatch(self.name()))?;
        s.cfg = cfg_after.clone();
        self.workload_cost(w, cfg_after)
    }

    /// Whether this backend can produce executed (actual) costs that are
    /// independent of its estimates.
    fn supports_execution(&self) -> bool {
        false
    }

    /// Executed (actual) cost of one query. Backends without execution
    /// fall back to the estimate, mirroring `Database::actual_query_cost`.
    fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.query_cost(q, cfg)
    }

    /// Executed (actual) cost of a workload, frequency-weighted.
    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.workload_cost(w, cfg)
    }

    /// Render a query to SQL using the backend's statistics.
    fn render_sql(&self, q: &Query) -> CostResult<String> {
        let cat = self.catalog();
        Ok(q.render_sql(cat.schema, |c| cat.column(c)))
    }

    /// EXPLAIN-style access-path summary, where the backend has a plan
    /// model to describe.
    fn explain(&self, _q: &Query, _cfg: &IndexConfig) -> CostResult<String> {
        unsupported(self.name(), "explain")
    }

    // ---- Hypothetical-index set: `Unsupported` placeholders ----------
    //
    // No backend keeps a HypoPG-style set (every cost call names its
    // configuration). The six stay only while e2ebench's `TimedCost`
    // wrapper forwards them.

    /// Create a hypothetical index: [`CostError::Unsupported`].
    fn hypo_create(&self, _idx: &Index) -> CostResult<()> {
        unsupported(self.name(), "hypo_create")
    }

    /// Drop a hypothetical index: [`CostError::Unsupported`].
    fn hypo_drop(&self, _idx: &Index) -> CostResult<()> {
        unsupported(self.name(), "hypo_drop")
    }

    /// Drop all hypothetical indexes: [`CostError::Unsupported`].
    fn hypo_clear(&self) -> CostResult<()> {
        unsupported(self.name(), "hypo_clear")
    }

    /// The hypothetical configuration: [`CostError::Unsupported`].
    fn hypo_config(&self) -> CostResult<IndexConfig> {
        unsupported(self.name(), "hypo_config")
    }

    /// `c(q, d, H)` under the hypothetical configuration, so
    /// [`CostError::Unsupported`] unless `hypo_config` answers.
    fn hypo_query_cost(&self, q: &Query) -> CostResult<f64> {
        let cfg = self.hypo_config()?;
        self.query_cost(q, &cfg)
    }

    /// `c(W, d, H)` under the hypothetical configuration, so
    /// [`CostError::Unsupported`] unless `hypo_config` answers.
    fn hypo_workload_cost(&self, w: &Workload) -> CostResult<f64> {
        let cfg = self.hypo_config()?;
        self.workload_cost(w, &cfg)
    }

    // ---- Training-time observation -----------------------------------

    /// The harness is about to (re)train the target on `w`: backends
    /// whose cost model is itself *learned from the observed workload*
    /// (the [`crate::LearnedIndexBackend`] refits its per-table CDF
    /// models on the workload's key fractions) update their structures
    /// here, making the index structure a poisoning target in its own
    /// right. Stateless backends ignore it (the default), so the
    /// bit-equality contract above is untouched for them; for learning
    /// backends, costs are pure functions of `(catalog, query, config)`
    /// *between* `observe_training` calls, and the call sequence is part
    /// of the deterministic replayable state.
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        let _ = w;
        Ok(())
    }
}
