//! Incremental what-if evaluation: the per-(query, index) benefit matrix,
//! the simulator's one what-if memo.
//!
//! Every advisor action loop evaluates thousands of index configurations
//! that differ by a single index. Full re-costing treats each
//! configuration as opaque, paying `O(|W| · |I|)` model work per
//! evaluation, and memoizing whole `(query, config)` costs would store
//! the combinatorial `(query, config)` space. This module exploits the
//! cost model's structure instead:
//!
//! * For a **single-table query** the model's plan is
//!   `surcharges(min(seq_scan, index_scan(i) for i in config))` where the
//!   surcharges depend only on the (config-independent) filtered
//!   cardinality. The per-index access costs are a *matrix* indexed by
//!   `(query, index)` — `O(|W| · L)` entries, not `O(|W| · 2^L)` — and a
//!   config cost is a running `min` over the row.
//! * For a **join query** the greedy left-deep skeleton — join order,
//!   per-step cardinalities, join columns, and the final result
//!   cardinality — is itself config-independent (the order sorts by
//!   filtered cardinalities, which no index changes). The model exposes
//!   it as a `JoinPlan`, and the per-step costs decompose into the
//!   same `(query, index)` access cells plus a second family of
//!   `(query, index)` *nested-loop* cells (the probe cost of an index
//!   that leads on the step's join key, for the step's fixed outer
//!   cardinality). A config cost is per-step running `min`s folded by
//!   `AnalyticalCostModel::join_cost_from_steps`, and a config *edit*
//!   re-costs only the step whose table the index touches.
//! * Only **genuinely non-decomposable** shapes — a table scanned twice
//!   in one query (raw self-join), where `(query, index)` cell keys
//!   would collide across steps — call the full model, uncached.
//!
//! Equality contract: matrix answers are **bit-identical** to the scalar
//! model. Both paths call the same crate-internal `table_access` /
//! `index_access_cost` / `index_nl_cost` / `join_cost_from_steps` /
//! `apply_surcharges` helpers on the same `JoinPlan` skeleton, the
//! `min` runs over the same values, and "index not applicable" is
//! answered as `+∞` so the `e < best` comparison skips it exactly like the
//! scalar path's `continue`. That answer comes from metadata (the index's
//! table and leading column) before any lookup, so inapplicable pairs
//! never occupy a cell. `tests/whatif_differential.rs` pins this with
//! proptest-generated workloads and edit sequences.
//!
//! Keys are 128-bit structural fingerprints (two FNV-1a streams) of the
//! query and the index. Cells and memoized query shapes live in the
//! sharded `RwLock` maps of the `cost::cache` module: misses compute
//! outside locks, and racy inserts are idempotent because the model is
//! pure. An optional byte budget ([`BenefitMatrix::set_byte_budget`])
//! covers everything the matrix stores, cells and shapes alike; whatever
//! the compactor drops recomputes bit-identically on the next touch.

use super::cache::{Cells, MatrixCache};
use super::model::{AnalyticalCostModel, JoinPlan, JoinStep, JoinStepState, TableAccess};
use super::Catalog;
use crate::index::{Index, IndexConfig};
use crate::predicate::PredOp;
use crate::query::{Aggregate, Query};
use crate::schema::{ColumnId, TableId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A 128-bit structural fingerprint (two independent FNV-1a streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    /// The fingerprint as one 128-bit value (observability keys).
    pub fn to_u128(self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }

    /// The low stream, whose low bits pick a cache shard.
    pub(super) fn low(self) -> u64 {
        self.b
    }
}

/// Incremental FNV-1a × 2 hasher over canonical byte encodings.
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    fn new() -> Self {
        // Standard FNV-1a offset for stream A; an arbitrary odd constant
        // (pi fraction) decorrelates stream B.
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x2437_54c8_10f8_6cb5,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_0197);
        }
    }

    fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn finish(self) -> Fingerprint {
        Fingerprint {
            a: self.a,
            b: self.b,
        }
    }
}

/// Structural fingerprint of a query: every field that can influence its
/// cost, tagged and length-prefixed so distinct structures cannot
/// collide by concatenation.
pub fn fingerprint_query(q: &Query) -> Fingerprint {
    let mut h = Fnv2::new();
    h.u32(q.tables.len() as u32);
    for t in &q.tables {
        h.u32(t.0);
    }
    h.u32(q.joins.len() as u32);
    for j in &q.joins {
        h.u32(j.left.0);
        h.u32(j.right.0);
    }
    h.u32(q.predicates.len() as u32);
    for p in &q.predicates {
        h.u32(p.col.0);
        match &p.op {
            PredOp::Eq(v) => {
                h.u32(1);
                h.f64(*v);
            }
            PredOp::Le(v) => {
                h.u32(2);
                h.f64(*v);
            }
            PredOp::Ge(v) => {
                h.u32(3);
                h.f64(*v);
            }
            PredOp::Between(lo, hi) => {
                h.u32(4);
                h.f64(*lo);
                h.f64(*hi);
            }
            PredOp::In(vs) => {
                h.u32(5);
                h.u32(vs.len() as u32);
                for v in vs {
                    h.f64(*v);
                }
            }
        }
    }
    h.u32(q.projection.len() as u32);
    for c in &q.projection {
        h.u32(c.0);
    }
    h.u32(q.aggregates.len() as u32);
    for a in &q.aggregates {
        match a {
            Aggregate::CountStar => h.u32(0xffff_ffff),
            Aggregate::Sum(c) => {
                h.u32(1);
                h.u32(c.0);
            }
            Aggregate::Avg(c) => {
                h.u32(2);
                h.u32(c.0);
            }
            Aggregate::Min(c) => {
                h.u32(3);
                h.u32(c.0);
            }
            Aggregate::Max(c) => {
                h.u32(4);
                h.u32(c.0);
            }
        }
    }
    h.u32(q.group_by.len() as u32);
    for c in &q.group_by {
        h.u32(c.0);
    }
    h.u32(q.order_by.len() as u32);
    for c in &q.order_by {
        h.u32(c.0);
    }
    h.u64(q.limit.map_or(u64::MAX, |l| l.wrapping_add(1)));
    h.finish()
}

/// Structural fingerprint of a single index (its column list): the
/// index half of every cell key.
pub fn fingerprint_index(idx: &Index) -> Fingerprint {
    let mut h = Fnv2::new();
    h.u32(idx.columns.len() as u32);
    for c in &idx.columns {
        h.u32(c.0);
    }
    h.finish()
}

/// Structural fingerprint of an index configuration (order-sensitive).
/// The matrix never keys on whole configurations; this is the config
/// half of a recorded what-if tape's `(query, config)` key
/// (`pipa_cost::Tape`), kept here beside the hasher it shares.
pub fn fingerprint_config(cfg: &IndexConfig) -> Fingerprint {
    let mut h = Fnv2::new();
    h.u32(cfg.len() as u32);
    for idx in cfg.indexes() {
        h.u32(idx.columns.len() as u32);
        for c in &idx.columns {
            h.u32(c.0);
        }
    }
    h.finish()
}

/// How a query's cost depends on the index configuration.
///
/// Classification decision (memoized per query fingerprint):
///
/// ```text
/// tables = 0 ─────────────────────────────► Trivial
/// tables = 1 ─────────────────────────────► Decomposable
/// tables ≥ 2, all tables distinct ────────► JoinDecomposable
/// tables ≥ 2, some table scanned twice ───► JoinCoupled (full model)
/// ```
///
/// Duplicate scans of one table are the genuinely non-decomposable case:
/// the matrix keys cells by `(query, index)` and resolves the step an
/// index belongs to via the index's table, which is ambiguous when two
/// steps scan the same table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QueryShape {
    /// No tables: cost is 0 under every configuration.
    Trivial,
    /// Single table: cost decomposes into a per-index matrix row.
    Decomposable {
        /// The query's only table.
        table: TableId,
        /// Sequential-scan baseline (the row's "no index" entry).
        seq_cost: f64,
        /// Filtered output cardinality (surcharge input).
        rows_out: f64,
    },
    /// Multi-table with distinct tables: the config-independent
    /// [`JoinPlan`] skeleton decomposes the cost into per-step access
    /// and nested-loop matrix cells.
    JoinDecomposable {
        /// The memoized plan skeleton (shared with session states).
        plan: Arc<JoinPlan>,
    },
    /// A table is scanned more than once: `(query, index)` cell keys
    /// would be ambiguous across steps, so only the full model is
    /// correct.
    JoinCoupled,
}

/// Counter snapshot of a [`BenefitMatrix`], as returned by
/// [`BenefitMatrix::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixStats {
    /// Per-query config evaluations answered from the single-table
    /// matrix rows (decomposable shape, including trivial queries).
    pub matrix_evals: u64,
    /// Per-query config evaluations answered from a decomposed join
    /// plan (join-decomposable shape).
    pub join_evals: u64,
    /// Per-query evaluations that fell back to the full model
    /// (join-coupled shape).
    pub full_fallbacks: u64,
    /// Delta operations (`what_if_delta`, incremental-eval previews and
    /// commits).
    pub delta_evals: u64,
    /// Matrix-cell lookups answered from the resident matrix (access and
    /// nested-loop cells).
    pub entry_hits: u64,
    /// Matrix-cell lookups that computed a fresh cost (access and
    /// nested-loop cells).
    pub entry_misses: u64,
    /// `(query, index)` access cells currently resident.
    pub entries: usize,
    /// `(query, index)` nested-loop cells currently resident.
    pub nl_entries: usize,
    /// Query shapes currently resident.
    pub shapes: usize,
    /// Approximate resident footprint in bytes: `(entries + nl_entries)
    /// × 48` plus every resident shape's entry and join plan.
    pub approx_bytes: usize,
    /// High-water mark of [`Self::approx_bytes`] since the last clear.
    pub peak_bytes: usize,
    /// Shard-clear compactions run by the byte budget (0 while
    /// unbudgeted).
    pub compactions: u64,
    /// Configured byte budget (`usize::MAX` = unbounded).
    pub byte_budget: usize,
}

impl MatrixStats {
    /// All per-query evaluations counted (matrix, join, fallback).
    fn evals(&self) -> u64 {
        self.matrix_evals + self.join_evals + self.full_fallbacks
    }

    /// Full-model fallbacks as a fraction of all per-query evaluations
    /// (0 when nothing was evaluated).
    pub fn fallback_rate(&self) -> f64 {
        let total = self.evals();
        if total == 0 {
            0.0
        } else {
            self.full_fallbacks as f64 / total as f64
        }
    }

    /// Cell lookups answered from the resident matrix as a fraction of
    /// all cell lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.entry_hits + self.entry_misses;
        if total == 0 {
            0.0
        } else {
            self.entry_hits as f64 / total as f64
        }
    }

    /// Matrix-answered evaluations (single-table rows and decomposed
    /// joins) as a fraction of all per-query evaluations (0 when nothing
    /// was evaluated).
    pub fn matrix_rate(&self) -> f64 {
        let total = self.evals();
        if total == 0 {
            0.0
        } else {
            (self.matrix_evals + self.join_evals) as f64 / total as f64
        }
    }
}

/// A single-index edit against a base configuration, for
/// [`crate::db::Database::what_if_delta`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigDelta {
    /// Add this index to the base configuration.
    Add(Index),
    /// Remove this index from the base configuration.
    Remove(Index),
}

impl ConfigDelta {
    /// The edited configuration (`base ± index`).
    pub fn apply(&self, base: &IndexConfig) -> IndexConfig {
        let mut cfg = base.clone();
        match self {
            ConfigDelta::Add(idx) => {
                cfg.add(idx.clone());
            }
            ConfigDelta::Remove(idx) => {
                cfg.remove(idx);
            }
        }
        cfg
    }
}

/// Per-query state of an [`IncrementalEval`] session.
#[derive(Debug, Clone)]
pub(crate) enum QueryState {
    /// No tables: cost pinned at 0.
    Trivial,
    /// Decomposable: the running `min` over applied matrix entries plus
    /// the finalized (surcharged) per-query cost.
    Raw {
        /// The query's table (matrix-row key material).
        table: TableId,
        /// Filtered cardinality (surcharge input).
        rows_out: f64,
        /// `min(seq_cost, entries of the indexes applied so far)`.
        raw: f64,
        /// `apply_surcharges(raw)` — the per-query cost under the
        /// session's current configuration.
        cost: f64,
    },
    /// Join-decomposable: the memoized plan skeleton plus per-step
    /// running minima. Adding an index re-costs only the step whose
    /// table the index covers; every other step's state is untouched.
    Join {
        /// The plan skeleton (shared with the matrix's shape entry).
        plan: Arc<JoinPlan>,
        /// Per-step `(raw access, best nested loop)` minima over the
        /// indexes applied so far, in plan order.
        steps: Vec<JoinStepState>,
        /// `join_cost_from_steps(steps)` — the per-query cost under the
        /// session's current configuration.
        cost: f64,
    },
    /// Join-coupled (or matrix disabled): full per-query cost under the
    /// session's current configuration.
    Full(f64),
}

impl QueryState {
    /// The per-query cost under the session's current configuration.
    pub(crate) fn cost(&self) -> f64 {
        match self {
            QueryState::Trivial => 0.0,
            QueryState::Raw { cost, .. } => *cost,
            QueryState::Join { cost, .. } => *cost,
            QueryState::Full(c) => *c,
        }
    }
}

/// Per-workload-entry evaluation state.
#[derive(Debug, Clone)]
pub(crate) struct EvalState {
    /// Fingerprint of the entry's query (computed once per session).
    pub(crate) qf: Fingerprint,
    /// Current cost state.
    pub(crate) kind: QueryState,
}

/// An incremental what-if evaluation session: per-query cost state for
/// one workload under a configuration built up one index at a time.
///
/// Created by [`crate::db::Database::whatif_eval_begin`] (empty
/// configuration), advanced by `whatif_eval_add`, previewed without
/// commitment by `whatif_eval_preview_add`. Plain data (no borrows), so
/// advisors can store one per episode. Totals are always recomputed as a
/// fresh frequency-weighted sum in workload order — never maintained via
/// `+= diff` — so they stay bit-identical to a scalar recompute.
#[derive(Debug, Clone)]
pub struct IncrementalEval {
    /// One state per workload entry, in workload order.
    pub(crate) states: Vec<EvalState>,
}

impl IncrementalEval {
    /// Number of workload entries tracked.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the session tracks an empty workload.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// The per-(query, index) benefit matrix with shape classification and
/// counters. Owned by [`crate::db::Database`]; its cells and shapes live
/// in a `MatrixCache`.
pub struct BenefitMatrix {
    /// Query shapes (lazily classified) and the two families of
    /// `(query, index)` cells: raw access costs, for applicable indexes
    /// only (an inapplicable one is answered `+∞` without a cell), and
    /// index nested-loop probe costs into the step the index's table
    /// identifies, for that step's fixed outer cardinality. For
    /// join-decomposable queries the index's table resolves which plan
    /// step a cell belongs to (tables are distinct by shape
    /// classification, so the key is unambiguous).
    cache: MatrixCache,
    enabled: AtomicBool,
    matrix_evals: AtomicU64,
    join_evals: AtomicU64,
    full_fallbacks: AtomicU64,
    delta_evals: AtomicU64,
}

impl Default for BenefitMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl BenefitMatrix {
    /// An empty, enabled matrix.
    pub fn new() -> Self {
        BenefitMatrix {
            cache: MatrixCache::new(),
            enabled: AtomicBool::new(true),
            matrix_evals: AtomicU64::new(0),
            join_evals: AtomicU64::new(0),
            full_fallbacks: AtomicU64::new(0),
            delta_evals: AtomicU64::new(0),
        }
    }

    /// Bound the matrix's approximate footprint (`usize::MAX` =
    /// unbounded, the default). The budget covers everything the matrix
    /// stores: access and nested-loop cells, and each query's memoized
    /// shape with its join plan. When an insert pushes the footprint past
    /// the budget, the compactor clears whole shards in rotation until
    /// back under; cleared cells recompute and cleared shapes reclassify
    /// bit-identically on the next touch, and open sessions keep their
    /// own `Arc<JoinPlan>`, so the budget trades recompute work for
    /// memory, never correctness.
    pub fn set_byte_budget(&self, bytes: usize) {
        self.cache.set_byte_budget(bytes);
    }

    /// Enable or disable the matrix (evaluations call the full model,
    /// uncached, when disabled; resident cells are kept). Benchmarks and
    /// the differential suites use this to reach the scalar reference;
    /// results are identical either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the matrix is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drop all cells and shapes and zero the counters.
    pub fn clear(&self) {
        self.cache.clear();
        self.matrix_evals.store(0, Ordering::Relaxed);
        self.join_evals.store(0, Ordering::Relaxed);
        self.full_fallbacks.store(0, Ordering::Relaxed);
        self.delta_evals.store(0, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MatrixStats {
        MatrixStats {
            matrix_evals: self.matrix_evals.load(Ordering::Relaxed),
            join_evals: self.join_evals.load(Ordering::Relaxed),
            full_fallbacks: self.full_fallbacks.load(Ordering::Relaxed),
            delta_evals: self.delta_evals.load(Ordering::Relaxed),
            ..self.cache.stats()
        }
    }

    /// The cost held in every resident access cell, in no particular
    /// order.
    pub(crate) fn access_costs(&self) -> Vec<f64> {
        self.cache.access_costs()
    }

    /// One per-query evaluation was answered from the matrix.
    pub(crate) fn note_matrix_eval(&self) {
        self.matrix_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// One per-query evaluation was answered from a decomposed join plan.
    pub(crate) fn note_join_eval(&self) {
        self.join_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// One per-query evaluation fell back to the full model.
    pub(crate) fn note_fallback(&self) {
        self.full_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// One delta operation was requested.
    pub(crate) fn note_delta(&self) {
        self.delta_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// Classify `q` (memoized by fingerprint).
    pub(crate) fn shape(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        qf: Fingerprint,
    ) -> QueryShape {
        self.cache.shape(qf, || {
            if q.tables.is_empty() {
                QueryShape::Trivial
            } else if q.tables.len() == 1 {
                let acc = model.table_access(cat, q, q.tables[0]);
                QueryShape::Decomposable {
                    table: acc.table,
                    seq_cost: acc.seq_cost,
                    rows_out: acc.rows_out,
                }
            } else if q
                .tables
                .iter()
                .enumerate()
                .any(|(i, t)| q.tables[..i].contains(t))
            {
                // A table scanned twice: `(query, index)` cell keys can't
                // tell the two steps apart, so only the full model is
                // correct.
                QueryShape::JoinCoupled
            } else {
                QueryShape::JoinDecomposable {
                    plan: Arc::new(model.join_plan(cat, q)),
                }
            }
        })
    }

    /// One matrix cell: the raw access cost of scanning the query's
    /// table through `index` (`+∞` when the index is on another table or
    /// unusable). `acc` is a lazily-built [`TableAccess`] shared across a
    /// row's lookups so a cold row costs one `table_access` total.
    ///
    /// Inapplicable indexes are answered `+∞` from metadata before any
    /// lookup, so only applicable cells are ever stored.
    fn cell<'q>(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        key: &QueryKey<'q>,
        idxf: Fingerprint,
        index: &Index,
        acc: &mut Option<TableAccess<'q>>,
    ) -> f64 {
        if !model.index_applies(cat, key.q, key.table, index) {
            return f64::INFINITY;
        }
        self.cache.cell(Cells::Access, (key.qf, idxf), || {
            let a = acc.get_or_insert_with(|| model.table_access(cat, key.q, key.table));
            model
                .index_access_cost(cat, a, index)
                .unwrap_or(f64::INFINITY)
        })
    }

    /// `min(seq_cost, matrix row entries for the keyed indexes)` — the
    /// raw (pre-surcharge) best access cost of a decomposable query.
    /// Bit-identical to the scalar `best_access_path` because
    /// inapplicable indexes are `+∞` and `+∞ < best` never fires, exactly
    /// like the scalar path's `continue`.
    pub(crate) fn best_raw(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        key: &QueryKey<'_>,
        seq_cost: f64,
        keyed: &[(Fingerprint, &Index)],
    ) -> f64 {
        let mut acc = None;
        let mut best = seq_cost;
        for &(idxf, index) in keyed {
            let e = self.cell(model, cat, key, idxf, index, &mut acc);
            if e < best {
                best = e;
            }
        }
        best
    }

    /// One matrix cell for a single index (the delta hot path).
    pub(crate) fn index_cell(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        key: &QueryKey<'_>,
        idxf: Fingerprint,
        index: &Index,
    ) -> f64 {
        let mut acc = None;
        self.cell(model, cat, key, idxf, index, &mut acc)
    }

    /// One nested-loop cell: the probe cost of driving `index` on the
    /// step's join key for the step's fixed outer cardinality. Callers
    /// pass only applicable candidates (index on the step's table,
    /// leading on the step's join column — a pure metadata check), so
    /// unlike access cells there is no `+∞` encoding here.
    #[allow(clippy::too_many_arguments)]
    fn nl_cell(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        qf: Fingerprint,
        step: &JoinStep,
        idxf: Fingerprint,
        index: &Index,
        col: ColumnId,
    ) -> f64 {
        self.cache.cell(Cells::NestedLoop, (qf, idxf), || {
            model.index_nl_cost(cat, step.table, index, col, step.outer_rows)
        })
    }

    /// Per-step [`JoinStepState`]s of a decomposed join under the keyed
    /// configuration: for each step, `raw = min(seq_cost, access cells
    /// of the config's indexes on that table)` and `nl = min(nested-loop
    /// cells of indexes leading on the step's join key)`. Bit-identical
    /// to [`AnalyticalCostModel::join_step_state`] because both paths
    /// take the `min` of the same `index_access_cost` / `index_nl_cost`
    /// values over the same applicable candidates.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_states(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        qf: Fingerprint,
        plan: &JoinPlan,
        keyed: &[(Fingerprint, &Index)],
    ) -> Vec<JoinStepState> {
        plan.steps
            .iter()
            .map(|step| {
                let key = QueryKey {
                    q,
                    qf,
                    table: step.table,
                };
                // Indexes on other steps' tables are `+∞` without a cell.
                let raw = self.best_raw(model, cat, &key, step.seq_cost, keyed);
                let mut nl = f64::INFINITY;
                if let Some(col) = step.inner_col {
                    for &(idxf, index) in keyed {
                        if index.table(cat.schema) == step.table && index.leading() == col {
                            let c = self.nl_cell(model, cat, qf, step, idxf, index, col);
                            if c < nl {
                                nl = c;
                            }
                        }
                    }
                }
                JoinStepState { raw, nl }
            })
            .collect()
    }

    /// Full-config cost of a decomposed join: per-step minima from the
    /// matrix cells folded through the model's shared accumulation loop.
    pub(crate) fn join_eval(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        qf: Fingerprint,
        plan: &JoinPlan,
        keyed: &[(Fingerprint, &Index)],
    ) -> f64 {
        let states = self.join_states(model, cat, q, qf, plan, keyed);
        model.join_cost_from_steps(q, plan, &states)
    }

    /// One step's state with `index` folded into its minima (access cell
    /// always; nested-loop cell only when the index leads on the step's
    /// join column).
    #[allow(clippy::too_many_arguments)]
    fn step_with_index(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        qf: Fingerprint,
        step: &JoinStep,
        mut st: JoinStepState,
        idxf: Fingerprint,
        index: &Index,
    ) -> JoinStepState {
        let key = QueryKey {
            q,
            qf,
            table: step.table,
        };
        let e = self.index_cell(model, cat, &key, idxf, index);
        if e < st.raw {
            st.raw = e;
        }
        if let Some(col) = step.inner_col {
            if index.leading() == col {
                let c = self.nl_cell(model, cat, qf, step, idxf, index, col);
                if c < st.nl {
                    st.nl = c;
                }
            }
        }
        st
    }

    /// Apply one added index to a join session's per-step states,
    /// re-costing only the step whose table the index covers (tables are
    /// distinct by shape classification, so at most one step matches; an
    /// index on a table the query never scans touches nothing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_apply_add(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        qf: Fingerprint,
        plan: &JoinPlan,
        steps: &mut [JoinStepState],
        idxf: Fingerprint,
        index: &Index,
    ) {
        let t = index.table(cat.schema);
        if let Some(k) = plan.steps.iter().position(|s| s.table == t) {
            steps[k] =
                self.step_with_index(model, cat, q, qf, &plan.steps[k], steps[k], idxf, index);
        }
    }

    /// Cost of a join session's configuration plus one index, without
    /// committing: the touched step's minima are recomputed (one or two
    /// cell probes) and substituted into the shared accumulation loop;
    /// untouched steps are read as-is.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_preview_add(
        &self,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        qf: Fingerprint,
        plan: &JoinPlan,
        steps: &[JoinStepState],
        idxf: Fingerprint,
        index: &Index,
    ) -> f64 {
        let t = index.table(cat.schema);
        let replace = plan.steps.iter().position(|s| s.table == t).map(|k| {
            (
                k,
                self.step_with_index(model, cat, q, qf, &plan.steps[k], steps[k], idxf, index),
            )
        });
        model.join_cost_substituted(q, plan, steps, replace)
    }
}

/// Identity of a decomposable query inside the matrix: the query, its
/// structural fingerprint, and its single table.
pub(crate) struct QueryKey<'q> {
    pub(crate) q: &'q Query,
    pub(crate) qf: Fingerprint,
    pub(crate) table: TableId,
}

/// Fingerprint every index of a configuration once (hoisted out of the
/// per-query loops).
pub(crate) fn keyed_indexes(cfg: &IndexConfig) -> Vec<(Fingerprint, &Index)> {
    cfg.indexes()
        .iter()
        .map(|i| (fingerprint_index(i), i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cache::{CELL_BYTES, SHAPE_BYTES};
    use crate::cost::PAGE_SIZE;
    use crate::predicate::Predicate;
    use crate::query::QueryBuilder;
    use crate::schema::{ColumnId, DataType, Schema};
    use crate::stats::{ColumnStats, TableStats};

    struct Fixture {
        schema: Schema,
        tstats: Vec<TableStats>,
        cstats: Vec<ColumnStats>,
    }

    impl Fixture {
        fn new() -> Self {
            let mut schema = Schema::new();
            schema.add_table(
                "fact",
                500_000,
                &[
                    ("f_id", DataType::BigInt),
                    ("f_dim", DataType::Int),
                    ("f_price", DataType::Decimal),
                ],
            );
            schema.add_table(
                "dim",
                1000,
                &[("d_id", DataType::Int), ("d_cat", DataType::Int)],
            );
            let tstats = schema
                .tables()
                .iter()
                .map(|t| {
                    let rows = t.base_rows;
                    let width = schema.row_width(t.id) as u64;
                    TableStats {
                        rows,
                        pages: (rows * width).div_ceil(PAGE_SIZE).max(1),
                    }
                })
                .collect();
            let cstats = schema
                .columns()
                .iter()
                .map(|c| {
                    let rows = schema.table(c.table).base_rows;
                    let ndv = match c.name.as_str() {
                        "f_id" => rows,
                        "f_dim" | "d_id" => 1000,
                        "f_price" => 10_000,
                        "d_cat" => 10,
                        _ => unreachable!(),
                    };
                    ColumnStats::uniform(c.id, c.ty, ndv, 0, ndv as i64 - 1)
                })
                .collect();
            Fixture {
                schema,
                tstats,
                cstats,
            }
        }

        fn cat(&self) -> Catalog<'_> {
            Catalog {
                schema: &self.schema,
                table_stats: &self.tstats,
                column_stats: &self.cstats,
            }
        }

        fn col(&self, n: &str) -> ColumnId {
            self.schema.column_id(n).unwrap()
        }
    }

    fn eval_decomposable(
        m: &BenefitMatrix,
        model: &AnalyticalCostModel,
        cat: Catalog<'_>,
        q: &Query,
        cfg: &IndexConfig,
    ) -> f64 {
        let qf = fingerprint_query(q);
        match m.shape(model, cat, q, qf) {
            QueryShape::Decomposable {
                table,
                seq_cost,
                rows_out,
            } => {
                let keyed = keyed_indexes(cfg);
                let raw = m.best_raw(model, cat, &QueryKey { q, qf, table }, seq_cost, &keyed);
                model.apply_surcharges(q, raw, rows_out)
            }
            s => panic!("expected decomposable shape, got {s:?}"),
        }
    }

    #[test]
    fn single_table_costs_match_the_scalar_model_bit_for_bit() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_dim"), 0.4))
            .filter(&fx.schema, Predicate::between(fx.col("f_price"), 0.1, 0.3))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let configs = [
            IndexConfig::empty(),
            IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]),
            IndexConfig::from_indexes([Index::single(fx.col("d_cat"))]),
            IndexConfig::from_indexes([
                Index::single(fx.col("f_price")),
                Index::single(fx.col("f_dim")),
                Index::multi(&fx.schema, vec![fx.col("f_dim"), fx.col("f_price")]).unwrap(),
            ]),
        ];
        for cfg in &configs {
            let scalar = model.query_cost(fx.cat(), &q, cfg);
            // Cold then warm: both must be bit-identical to the scalar path.
            let cold = eval_decomposable(&m, &model, fx.cat(), &q, cfg);
            let warm = eval_decomposable(&m, &model, fx.cat(), &q, cfg);
            assert_eq!(scalar.to_bits(), cold.to_bits());
            assert_eq!(scalar.to_bits(), warm.to_bits());
        }
        let s = m.stats();
        assert!(s.entry_hits > 0, "warm pass must hit resident cells");
        assert!(s.entries > 0 && s.shapes == 1);
    }

    #[test]
    fn join_queries_classify_as_join_decomposable() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .filter(&fx.schema, Predicate::eq(fx.col("d_id"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let qf = fingerprint_query(&q);
        match m.shape(&model, fx.cat(), &q, qf) {
            QueryShape::JoinDecomposable { plan } => {
                assert_eq!(plan.steps.len(), 2);
                // Every later step carries the join column it probes on.
                assert!(plan.steps[1].inner_col.is_some());
            }
            s => panic!("expected join-decomposable shape, got {s:?}"),
        }
    }

    #[test]
    fn duplicate_table_scans_classify_as_join_coupled() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        // A raw self-join scanning `fact` twice: the builder dedupes
        // tables, so construct the query directly.
        let mut q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let fact = fx.schema.table_of(fx.col("f_id"));
        q.tables.push(fact);
        let qf = fingerprint_query(&q);
        assert_eq!(m.shape(&model, fx.cat(), &q, qf), QueryShape::JoinCoupled);
    }

    #[test]
    fn join_matrix_costs_match_the_scalar_model_bit_for_bit() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .filter(&fx.schema, Predicate::eq(fx.col("d_cat"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let qf = fingerprint_query(&q);
        let QueryShape::JoinDecomposable { plan } = m.shape(&model, fx.cat(), &q, qf) else {
            panic!("expected join-decomposable shape");
        };
        let configs = [
            IndexConfig::empty(),
            // Leads on the fact join key: enables the nested loop.
            IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]),
            // Dimension-side filter index plus the join-key index.
            IndexConfig::from_indexes([
                Index::single(fx.col("d_cat")),
                Index::single(fx.col("f_dim")),
                Index::multi(&fx.schema, vec![fx.col("f_dim"), fx.col("f_price")]).unwrap(),
            ]),
        ];
        for cfg in &configs {
            let scalar = model.query_cost(fx.cat(), &q, cfg);
            let keyed = keyed_indexes(cfg);
            let cold = m.join_eval(&model, fx.cat(), &q, qf, &plan, &keyed);
            let warm = m.join_eval(&model, fx.cat(), &q, qf, &plan, &keyed);
            assert_eq!(scalar.to_bits(), cold.to_bits());
            assert_eq!(scalar.to_bits(), warm.to_bits());
        }
        let s = m.stats();
        assert!(s.entry_hits > 0, "warm pass must hit resident cells");
        assert!(
            s.nl_entries > 0,
            "join-key index must own a nested-loop cell"
        );
    }

    #[test]
    fn join_apply_add_recosts_only_the_touched_step() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let qf = fingerprint_query(&q);
        let QueryShape::JoinDecomposable { plan } = m.shape(&model, fx.cat(), &q, qf) else {
            panic!("expected join-decomposable shape");
        };
        // Start from the empty config: per-step (seq, +inf).
        let mut steps: Vec<JoinStepState> = plan
            .steps
            .iter()
            .map(|s| JoinStepState {
                raw: s.seq_cost,
                nl: f64::INFINITY,
            })
            .collect();
        let before = steps.clone();
        let idx = Index::single(fx.col("f_dim"));
        let idxf = fingerprint_index(&idx);
        m.join_apply_add(&model, fx.cat(), &q, qf, &plan, &mut steps, idxf, &idx);
        let fact = fx.schema.table_of(fx.col("f_dim"));
        for (k, step) in plan.steps.iter().enumerate() {
            if step.table == fact {
                assert!(
                    steps[k].nl.is_finite(),
                    "join-key index must open the nested-loop alternative"
                );
            } else {
                assert_eq!(steps[k].raw.to_bits(), before[k].raw.to_bits());
                assert_eq!(steps[k].nl.to_bits(), before[k].nl.to_bits());
            }
        }
        // The updated states must equal a from-scratch evaluation.
        let keyed = [(idxf, &idx)];
        let fresh = m.join_states(&model, fx.cat(), &q, qf, &plan, &keyed);
        let incr = model.join_cost_from_steps(&q, &plan, &steps);
        let full = model.join_cost_from_steps(&q, &plan, &fresh);
        assert_eq!(incr.to_bits(), full.to_bits());
        let scalar = model.query_cost(fx.cat(), &q, &IndexConfig::from_indexes([idx]));
        assert_eq!(incr.to_bits(), scalar.to_bits());
    }

    #[test]
    fn inapplicable_index_is_infinity_and_never_wins() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_id"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let qf = fingerprint_query(&q);
        let other = Index::single(fx.col("d_cat"));
        let cell = m.index_cell(
            &model,
            fx.cat(),
            &QueryKey {
                q: &q,
                qf,
                table: q.tables[0],
            },
            fingerprint_index(&other),
            &other,
        );
        assert!(cell.is_infinite());
        let with = eval_decomposable(
            &m,
            &model,
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([other]),
        );
        let base = model.query_cost(fx.cat(), &q, &IndexConfig::empty());
        assert_eq!(with.to_bits(), base.to_bits());
    }

    #[test]
    fn inapplicable_indexes_are_answered_without_a_cell() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_id"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        // Another table, and the query's table led by an unfiltered
        // column (the filtered `f_id` is only second).
        let cfg = IndexConfig::from_indexes([
            Index::single(fx.col("d_cat")),
            Index::multi(&fx.schema, vec![fx.col("f_dim"), fx.col("f_id")]).unwrap(),
        ]);
        for _ in 0..2 {
            let got = eval_decomposable(&m, &model, fx.cat(), &q, &cfg);
            let want = model.query_cost(fx.cat(), &q, &cfg);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let s = m.stats();
        // The query's shape is the only resident entry.
        assert_eq!(s.entries, 0);
        assert_eq!((s.approx_bytes, s.peak_bytes), (SHAPE_BYTES, SHAPE_BYTES));
        assert_eq!(s.entry_hits + s.entry_misses, 0, "no lookup was made");
    }

    /// Queries over both tables, each filtering every column of its
    /// table, so every single-column index of that table owns a cell.
    fn sweep_queries(fx: &Fixture) -> Vec<Query> {
        let mut qs = Vec::new();
        for (i, v) in [0.1, 0.3, 0.5, 0.7].into_iter().enumerate() {
            let mut b = QueryBuilder::new();
            for c in ["f_id", "f_dim", "f_price"] {
                b = b.filter(&fx.schema, Predicate::le(fx.col(c), v));
            }
            qs.push(b.select(fx.col("f_price")).build(&fx.schema).unwrap());
            let mut b = QueryBuilder::new();
            for c in ["d_id", "d_cat"] {
                b = b.filter(&fx.schema, Predicate::eq(fx.col(c), v + i as f64 / 100.0));
            }
            qs.push(b.select(fx.col("d_cat")).build(&fx.schema).unwrap());
        }
        qs
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let qs = sweep_queries(&fx);
        let cfg = IndexConfig::from_indexes(
            ["f_id", "f_dim", "f_price", "d_id", "d_cat"].map(|c| Index::single(fx.col(c))),
        );
        let want: Vec<u64> = qs
            .iter()
            .map(|q| model.query_cost(fx.cat(), q, &cfg).to_bits())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (q, w) in qs.iter().zip(&want) {
                        let got = eval_decomposable(&m, &model, fx.cat(), q, &cfg);
                        assert_eq!(got.to_bits(), *w);
                    }
                });
            }
        });
        // Racing inserts of one key count once: the tracked footprint is
        // exactly what is resident.
        let s = m.stats();
        assert_eq!((s.shapes, s.entries), (qs.len(), 4 * 3 + 4 * 2));
        assert_eq!(
            s.approx_bytes,
            s.entries * CELL_BYTES + s.shapes * SHAPE_BYTES
        );
    }

    #[test]
    fn shrinking_budget_compacts_immediately() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let cfg = IndexConfig::from_indexes(
            ["f_id", "f_dim", "f_price", "d_id", "d_cat"].map(|c| Index::single(fx.col(c))),
        );
        for q in &sweep_queries(&fx) {
            let _ = eval_decomposable(&m, &model, fx.cat(), q, &cfg);
        }
        let full = m.stats().approx_bytes;
        m.set_byte_budget(full / 3);
        let s = m.stats();
        assert!(
            s.approx_bytes <= full / 3,
            "{} B after shrinking",
            s.approx_bytes
        );
        assert!(s.compactions > 0);
        assert_eq!(
            s.approx_bytes,
            (s.entries + s.nl_entries) * CELL_BYTES + s.shapes * SHAPE_BYTES
        );
    }

    #[test]
    fn clear_resets_cells_shapes_and_counters() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_id"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(fx.col("f_id"))]);
        let _ = eval_decomposable(&m, &model, fx.cat(), &q, &cfg);
        m.note_matrix_eval();
        m.note_delta();
        m.clear();
        let s = m.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.shapes, 0);
        assert_eq!((s.matrix_evals, s.delta_evals, s.entry_misses), (0, 0, 0));
        assert_eq!(s.fallback_rate(), 0.0);
    }

    #[test]
    fn config_delta_applies_both_directions() {
        let fx = Fixture::new();
        let a = Index::single(fx.col("f_id"));
        let b = Index::single(fx.col("f_dim"));
        let base = IndexConfig::from_indexes([a.clone()]);
        let added = ConfigDelta::Add(b.clone()).apply(&base);
        assert_eq!(added.len(), 2);
        let removed = ConfigDelta::Remove(a).apply(&added);
        assert_eq!(removed.indexes(), &[b]);
    }

    #[test]
    fn byte_budget_compacts_but_never_changes_costs() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        // Budget of 4 cells' worth: a stream of distinct queries ×
        // indexes must trigger rotating shard clears.
        m.set_byte_budget(4 * CELL_BYTES);
        let cols = ["f_id", "f_dim", "f_price"];
        let mut scalars = Vec::new();
        for round in 0..3 {
            for (i, fc) in cols.iter().enumerate() {
                for ic in &cols {
                    // Every query filters all three columns, so each of
                    // the 9 (query, index) pairs is an applicable cell
                    // the budget has to hold.
                    let mut b = QueryBuilder::new()
                        .filter(&fx.schema, Predicate::eq(fx.col(fc), 0.1 + i as f64 / 10.0));
                    for other in cols.iter().filter(|c| *c != fc) {
                        b = b.filter(&fx.schema, Predicate::le(fx.col(other), 0.5));
                    }
                    let q = b.select(fx.col("f_price")).build(&fx.schema).unwrap();
                    let cfg = IndexConfig::from_indexes([Index::single(fx.col(ic))]);
                    let got = eval_decomposable(&m, &model, fx.cat(), &q, &cfg);
                    if round == 0 {
                        scalars.push(model.query_cost(fx.cat(), &q, &cfg));
                    }
                    let want = scalars[i * cols.len() + cols.iter().position(|c| c == ic).unwrap()];
                    assert_eq!(got.to_bits(), want.to_bits(), "round {round} {fc}/{ic}");
                }
            }
        }
        let s = m.stats();
        assert!(s.compactions > 0, "budget must have forced compactions");
        // One entry of slack: the largest one here is a single-table
        // shape.
        assert!(
            s.peak_bytes <= 4 * CELL_BYTES + SHAPE_BYTES,
            "footprint peaked at {} over budget",
            s.peak_bytes
        );
        assert!(s.peak_bytes >= s.approx_bytes);
        assert_eq!(s.byte_budget, 4 * CELL_BYTES);
    }

    #[test]
    fn unbudgeted_matrix_never_compacts() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_id"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(fx.col("f_id"))]);
        let _ = eval_decomposable(&m, &model, fx.cat(), &q, &cfg);
        let s = m.stats();
        assert_eq!(s.compactions, 0);
        assert_eq!(s.byte_budget, usize::MAX);
        // Cells plus one single-table shape, which holds no join plan.
        assert_eq!(s.shapes, 1);
        assert_eq!(
            s.approx_bytes,
            (s.entries + s.nl_entries) * CELL_BYTES + SHAPE_BYTES
        );
        assert_eq!(s.peak_bytes, s.approx_bytes);
    }

    #[test]
    fn compacted_join_shape_reclassifies_and_open_sessions_keep_their_plan() {
        let fx = Fixture::new();
        let model = AnalyticalCostModel::new();
        let m = BenefitMatrix::new();
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .filter(&fx.schema, Predicate::eq(fx.col("d_cat"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let qf = fingerprint_query(&q);
        let shape = m.shape(&model, fx.cat(), &q, qf);
        let QueryShape::JoinDecomposable { plan } = shape.clone() else {
            panic!("expected join-decomposable shape");
        };
        // The shape's bytes, plan included, are on the books.
        let s = m.stats();
        assert_eq!((s.shapes, s.approx_bytes), (1, shape.approx_bytes()));
        assert!(shape.approx_bytes() > SHAPE_BYTES + plan.steps.len() * 8);

        // A session opened before the clear holds the plan and its
        // empty-config per-step minima.
        let mut steps: Vec<JoinStepState> = plan
            .steps
            .iter()
            .map(|s| JoinStepState {
                raw: s.seq_cost,
                nl: f64::INFINITY,
            })
            .collect();
        // Budget 0: the compactor clears every shard, the shape included,
        // and every later insert is cleared again.
        m.set_byte_budget(0);
        let s = m.stats();
        assert_eq!((s.shapes, s.approx_bytes), (0, 0));
        assert!(s.compactions > 0);

        // The dropped shape reclassifies to an equal shape (a new plan).
        let again = m.shape(&model, fx.cat(), &q, qf);
        assert_eq!(again, shape);
        let QueryShape::JoinDecomposable { plan: rebuilt } = &again else {
            panic!("expected join-decomposable shape");
        };
        assert!(!Arc::ptr_eq(&plan, rebuilt), "the shape was rebuilt");

        // The open session previews and commits bit-identically to the
        // scalar model on its own plan.
        let mut cfg = IndexConfig::empty();
        for col in ["f_dim", "d_cat"] {
            let idx = Index::single(fx.col(col));
            let idxf = fingerprint_index(&idx);
            cfg.add(idx.clone());
            let want = model.query_cost(fx.cat(), &q, &cfg);
            let preview = m.join_preview_add(&model, fx.cat(), &q, qf, &plan, &steps, idxf, &idx);
            m.join_apply_add(&model, fx.cat(), &q, qf, &plan, &mut steps, idxf, &idx);
            let commit = model.join_cost_from_steps(&q, &plan, &steps);
            assert_eq!(preview.to_bits(), want.to_bits(), "preview +{col}");
            assert_eq!(commit.to_bits(), want.to_bits(), "commit +{col}");
        }
        assert!(m.stats().approx_bytes == 0, "budget 0 keeps nothing");
    }

    fn point(frac: f64) -> Query {
        Query {
            tables: vec![TableId(0)],
            joins: vec![],
            predicates: vec![Predicate::eq(ColumnId(0), frac)],
            projection: vec![ColumnId(0)],
            aggregates: vec![],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn distinct_structures_get_distinct_fingerprints() {
        assert_ne!(
            fingerprint_query(&point(0.25)),
            fingerprint_query(&point(0.75))
        );
        let c1 = fingerprint_config(&IndexConfig::empty());
        let c2 = fingerprint_config(&IndexConfig::from_indexes([Index::single(ColumnId(1))]));
        assert_ne!(c1, c2);
        assert_ne!(
            fingerprint_index(&Index::single(ColumnId(1))),
            fingerprint_index(&Index::single(ColumnId(2)))
        );
    }

    #[test]
    fn fingerprints_are_stable() {
        assert_eq!(
            fingerprint_query(&point(0.5)),
            fingerprint_query(&point(0.5))
        );
    }

    #[test]
    fn stats_rates_partition_evaluations() {
        let m = BenefitMatrix::new();
        for _ in 0..3 {
            m.note_matrix_eval();
        }
        m.note_fallback();
        let s = m.stats();
        assert!((s.matrix_rate() - 0.75).abs() < 1e-12);
        assert!((s.fallback_rate() - 0.25).abs() < 1e-12);
    }
}
