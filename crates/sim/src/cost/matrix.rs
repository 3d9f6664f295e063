//! Incremental what-if evaluation: the per-(query, index) benefit matrix.
//!
//! Every advisor action loop evaluates thousands of index configurations
//! that differ by a single index. Full re-costing treats each
//! configuration as opaque, paying `O(|W| · |I|)` model work per
//! evaluation; the per-(query, config) [`super::CostCache`] removes exact
//! repeats but still stores the combinatorial `(query, config)` space.
//! This module exploits the cost model's structure instead:
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
//!   would collide across steps — take the full-model fallback,
//!   memoized by the [`super::CostCache`].
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
//! Concurrency mirrors [`super::CostCache`]: sharded `RwLock` maps,
//! misses compute outside locks, racy inserts are idempotent because the
//! model is pure.

use super::cache::{fingerprint_index, Fingerprint};
use super::model::{AnalyticalCostModel, JoinPlan, JoinStep, JoinStepState, TableAccess};
use super::Catalog;
use crate::index::{Index, IndexConfig};
use crate::query::Query;
use crate::schema::{ColumnId, TableId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Shard count (power of two, same rationale as the cost cache).
const SHARDS: usize = 16;

/// Approximate resident footprint of one matrix cell: the 32-byte
/// `(Fingerprint, Fingerprint)` key, the 8-byte cost, and amortized
/// hash-table bucket overhead. Used for the `matrix_bytes` accounting —
/// an estimate, deliberately conservative rather than allocator-exact,
/// so the byte budget bounds real memory.
const CELL_BYTES: usize = 48;

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
    /// Query shapes classified so far.
    pub shapes: usize,
    /// Approximate resident cell footprint in bytes
    /// (`(entries + nl_entries) × 48`).
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
/// counters. Owned by [`crate::db::Database`] next to its
/// [`super::CostCache`].
pub struct BenefitMatrix {
    /// Query fingerprint → shape (lazily classified).
    shapes: RwLock<HashMap<Fingerprint, QueryShape>>,
    /// `(query, index)` → raw access cost, for applicable indexes only
    /// (an inapplicable one is answered `+∞` without a cell). For
    /// join-decomposable queries the index's table resolves which plan
    /// step the cell belongs to (tables are distinct by shape
    /// classification, so the key is unambiguous).
    entries: Vec<RwLock<HashMap<(Fingerprint, Fingerprint), f64>>>,
    /// `(query, index)` → index nested-loop probe cost into the step the
    /// index's table identifies, for that step's fixed outer
    /// cardinality. Kept separate from `entries` because an index on a
    /// join key owns cells in *both* families under the same key.
    nl_entries: Vec<RwLock<HashMap<(Fingerprint, Fingerprint), f64>>>,
    enabled: AtomicBool,
    matrix_evals: AtomicU64,
    join_evals: AtomicU64,
    full_fallbacks: AtomicU64,
    delta_evals: AtomicU64,
    entry_hits: AtomicU64,
    entry_misses: AtomicU64,
    /// Resident cell count across both families (maintained on insert so
    /// the byte check is one atomic load, not 32 shard locks).
    cells: AtomicUsize,
    /// High-water mark of `cells × CELL_BYTES`.
    peak_bytes: AtomicUsize,
    /// Approximate byte budget; `usize::MAX` = unbounded (default).
    byte_budget: AtomicUsize,
    /// Next shard the rotating compactor clears (mod `2 × SHARDS`).
    compact_cursor: AtomicUsize,
    compactions: AtomicU64,
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
            shapes: RwLock::new(HashMap::new()),
            entries: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            nl_entries: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            enabled: AtomicBool::new(true),
            matrix_evals: AtomicU64::new(0),
            join_evals: AtomicU64::new(0),
            full_fallbacks: AtomicU64::new(0),
            delta_evals: AtomicU64::new(0),
            entry_hits: AtomicU64::new(0),
            entry_misses: AtomicU64::new(0),
            cells: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            byte_budget: AtomicUsize::new(usize::MAX),
            compact_cursor: AtomicUsize::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Approximate resident cell footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.cells.load(Ordering::Relaxed) * CELL_BYTES
    }

    /// Bound the matrix's approximate cell footprint (`usize::MAX` =
    /// unbounded, the default). When an insert pushes the footprint past
    /// the budget, the compactor clears whole cell shards in rotation
    /// until back under; cleared cells recompute bit-identically on the
    /// next touch, so the budget trades recompute work for memory, never
    /// correctness. Shape classifications are tiny (one per distinct
    /// query) and are not subject to the budget.
    pub fn set_byte_budget(&self, bytes: usize) {
        self.byte_budget.store(bytes, Ordering::Relaxed);
        if self.approx_bytes() > bytes {
            self.compact(bytes);
        }
    }

    /// One fresh cell landed in a shard: maintain the footprint
    /// accounting and run the compactor if the budget is exceeded.
    fn note_insert(&self) {
        let cells = self.cells.fetch_add(1, Ordering::Relaxed) + 1;
        let bytes = cells * CELL_BYTES;
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
        let budget = self.byte_budget.load(Ordering::Relaxed);
        if budget != usize::MAX {
            pipa_obs::count("matrix_bytes", CELL_BYTES as u64);
            if bytes > budget {
                self.compact(budget);
            }
        }
    }

    /// Clear cell shards in rotation (access shards `0..SHARDS`, then
    /// nested-loop shards) until the footprint is back under `budget` or
    /// every shard was swept once.
    fn compact(&self, budget: usize) {
        for _ in 0..(2 * SHARDS) {
            if self.approx_bytes() <= budget {
                break;
            }
            let k = self.compact_cursor.fetch_add(1, Ordering::Relaxed) % (2 * SHARDS);
            let shard = if k < SHARDS {
                &self.entries[k]
            } else {
                &self.nl_entries[k - SHARDS]
            };
            let dropped = {
                let mut w = shard.write().expect("matrix shard poisoned");
                let n = w.len();
                w.clear();
                w.shrink_to_fit();
                n
            };
            if dropped > 0 {
                self.cells.fetch_sub(dropped, Ordering::Relaxed);
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Enable or disable the matrix (evaluations route to the full model
    /// when disabled; resident cells are kept). Benchmarks use this to
    /// measure the scalar path; results are identical either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the matrix is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drop all cells and shapes and zero the counters.
    pub fn clear(&self) {
        self.shapes.write().expect("matrix shapes poisoned").clear();
        for s in self.entries.iter().chain(&self.nl_entries) {
            s.write().expect("matrix shard poisoned").clear();
        }
        self.matrix_evals.store(0, Ordering::Relaxed);
        self.join_evals.store(0, Ordering::Relaxed);
        self.full_fallbacks.store(0, Ordering::Relaxed);
        self.delta_evals.store(0, Ordering::Relaxed);
        self.entry_hits.store(0, Ordering::Relaxed);
        self.entry_misses.store(0, Ordering::Relaxed);
        self.cells.store(0, Ordering::Relaxed);
        self.peak_bytes.store(0, Ordering::Relaxed);
        self.compactions.store(0, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MatrixStats {
        MatrixStats {
            matrix_evals: self.matrix_evals.load(Ordering::Relaxed),
            join_evals: self.join_evals.load(Ordering::Relaxed),
            full_fallbacks: self.full_fallbacks.load(Ordering::Relaxed),
            delta_evals: self.delta_evals.load(Ordering::Relaxed),
            entry_hits: self.entry_hits.load(Ordering::Relaxed),
            entry_misses: self.entry_misses.load(Ordering::Relaxed),
            entries: self
                .entries
                .iter()
                .map(|s| s.read().expect("matrix shard poisoned").len())
                .sum(),
            nl_entries: self
                .nl_entries
                .iter()
                .map(|s| s.read().expect("matrix shard poisoned").len())
                .sum(),
            shapes: self.shapes.read().expect("matrix shapes poisoned").len(),
            approx_bytes: self.approx_bytes(),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            byte_budget: self.byte_budget.load(Ordering::Relaxed),
        }
    }

    /// The cost held in every resident access cell, in no particular
    /// order.
    pub(crate) fn access_costs(&self) -> Vec<f64> {
        self.entries
            .iter()
            .flat_map(|s| {
                let r = s.read().expect("matrix shard poisoned");
                r.values().copied().collect::<Vec<_>>()
            })
            .collect()
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
        if let Some(s) = self.shapes.read().expect("matrix shapes poisoned").get(&qf) {
            return s.clone();
        }
        let s = if q.tables.is_empty() {
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
        };
        self.shapes
            .write()
            .expect("matrix shapes poisoned")
            .entry(qf)
            .or_insert(s)
            .clone()
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
        let cell_key = (key.qf, idxf);
        let shard = &self.entries
            [(key.qf.to_u128() as u64 ^ idxf.to_u128() as u64) as usize & (SHARDS - 1)];
        if let Some(&v) = shard.read().expect("matrix shard poisoned").get(&cell_key) {
            self.entry_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.entry_misses.fetch_add(1, Ordering::Relaxed);
        let a = acc.get_or_insert_with(|| model.table_access(cat, key.q, key.table));
        let v = model
            .index_access_cost(cat, a, index)
            .unwrap_or(f64::INFINITY);
        let inserted = {
            let mut w = shard.write().expect("matrix shard poisoned");
            let before = w.len();
            w.entry(cell_key).or_insert(v);
            w.len() > before
        };
        if inserted {
            self.note_insert();
        }
        v
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
        let cell_key = (qf, idxf);
        let shard =
            &self.nl_entries[(qf.to_u128() as u64 ^ idxf.to_u128() as u64) as usize & (SHARDS - 1)];
        if let Some(&v) = shard.read().expect("matrix shard poisoned").get(&cell_key) {
            self.entry_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.entry_misses.fetch_add(1, Ordering::Relaxed);
        let v = model.index_nl_cost(cat, step.table, index, col, step.outer_rows);
        let inserted = {
            let mut w = shard.write().expect("matrix shard poisoned");
            let before = w.len();
            w.entry(cell_key).or_insert(v);
            w.len() > before
        };
        if inserted {
            self.note_insert();
        }
        v
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
    use crate::cost::cache::fingerprint_query;
    use crate::cost::{CostModel, PAGE_SIZE};
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
        assert_eq!((s.entries, s.approx_bytes, s.peak_bytes), (0, 0, 0));
        assert_eq!(s.entry_hits + s.entry_misses, 0, "no lookup was made");
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
        m.set_byte_budget(4 * super::CELL_BYTES);
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
        assert!(
            s.approx_bytes <= 4 * super::CELL_BYTES + super::CELL_BYTES,
            "footprint {} over budget",
            s.approx_bytes
        );
        assert!(s.peak_bytes >= s.approx_bytes);
        assert_eq!(s.byte_budget, 4 * super::CELL_BYTES);
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
        assert_eq!(
            s.approx_bytes,
            (s.entries + s.nl_entries) * super::CELL_BYTES
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
