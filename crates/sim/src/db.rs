//! The `Database` facade: schema + statistics + (optionally) materialized
//! data, exposing exactly the interface the paper assumes of the DBMS:
//! estimated costs via hypothetical indexes, and actual execution costs.
//!
//! Estimates go through one memo, the byte-budgetable benefit matrix
//! ([`BenefitMatrix`]). Its switch and its byte budget are the only
//! settable what-if values; with the matrix off every estimate is the
//! plain analytical model, uncached.

use crate::cost::matrix::{
    fingerprint_index, fingerprint_query, keyed_indexes, EvalState, Fingerprint, QueryKey,
    QueryShape, QueryState,
};
use crate::cost::model::JoinStepState;
use crate::cost::{
    AnalyticalCostModel, BenefitMatrix, Catalog, IncrementalEval, MatrixStats, PAGE_SIZE,
};
use crate::datagen::generate_table;
use crate::error::{SimError, SimResult};
use crate::exec::Executor;
use crate::index::{Index, IndexConfig};
use crate::query::Query;
use crate::schema::{ColumnId, DataType, Schema, TableId};
use crate::stats::{ColumnStats, TableStats};
use crate::storage::{PhysicalIndex, Storage};
use crate::workload::Workload;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A simulated database instance.
pub struct Database {
    schema: Schema,
    table_stats: Vec<TableStats>,
    column_stats: Vec<ColumnStats>,
    model: AnalyticalCostModel,
    storage: Option<Storage>,
    /// Physical indexes are config-independent; cache them per definition
    /// and share them with every execution.
    phys_cache: Mutex<HashMap<Index, Arc<PhysicalIndex>>>,
    /// Per-(query, index) benefit matrix for incremental what-if
    /// evaluation; join-coupled queries call the full model.
    whatif_matrix: BenefitMatrix,
    scale: f64,
}

impl Database {
    /// Start building a database for a schema.
    pub fn builder(schema: Schema) -> DatabaseBuilder {
        DatabaseBuilder::new(schema)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The scale factor the statistics were generated at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Per-column statistics, indexed by `ColumnId.0`.
    pub fn column_stats(&self) -> &[ColumnStats] {
        &self.column_stats
    }

    /// Statistics for one column.
    pub fn column_stat(&self, c: ColumnId) -> &ColumnStats {
        &self.column_stats[c.0 as usize]
    }

    /// Per-table statistics.
    pub fn table_stats(&self) -> &[TableStats] {
        &self.table_stats
    }

    /// A read-only catalog view for cost models.
    pub fn catalog(&self) -> Catalog<'_> {
        Catalog {
            schema: &self.schema,
            table_stats: &self.table_stats,
            column_stats: &self.column_stats,
        }
    }

    /// All indexable columns (`0..L`).
    pub fn indexable_columns(&self) -> Vec<ColumnId> {
        self.schema.indexable_columns()
    }

    /// Whether data is materialized (actual execution available).
    pub fn has_data(&self) -> bool {
        self.storage.as_ref().is_some_and(|s| s.is_complete())
    }

    /// Estimated cost of a query under a hypothetical configuration:
    /// `c(q, d, I)`, the single what-if entry point.
    ///
    /// Dispatch is internal: single-table queries are answered from the
    /// per-(query, index) benefit matrix, join queries over distinct
    /// tables from the decomposed join plan (per-step access and
    /// nested-loop cells over the config-independent skeleton), and only
    /// genuinely non-decomposable shapes — a table scanned twice — call
    /// the full analytical model, uncached (as do all calls with the
    /// matrix disabled). Every path is bit-identical (pinned by
    /// `tests/whatif_differential.rs`), so the dispatch choice never
    /// changes results.
    pub fn estimated_query_cost(&self, q: &Query, cfg: &IndexConfig) -> f64 {
        if !self.whatif_matrix.is_enabled() {
            return self.scalar_query_cost(q, cfg);
        }
        let keyed = keyed_indexes(cfg);
        self.matrix_query_cost_keyed(q, cfg, &keyed)
    }

    /// Estimated cost of a workload: the frequency-weighted sum, in
    /// workload order, of [`Self::estimated_query_cost`] terms.
    pub fn estimated_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> f64 {
        if !self.whatif_matrix.is_enabled() {
            return self.scalar_workload_cost(w, cfg);
        }
        let keyed = keyed_indexes(cfg);
        w.iter()
            .map(|wq| wq.frequency as f64 * self.matrix_query_cost_keyed(&wq.query, cfg, &keyed))
            .sum()
    }

    /// The scalar reference: the full analytical model, uncached. The
    /// benefit matrix must stay bit-identical to it; it is public (but
    /// hidden) so the differential suites can compare against it
    /// directly.
    #[doc(hidden)]
    pub fn scalar_query_cost(&self, q: &Query, cfg: &IndexConfig) -> f64 {
        self.model.query_cost(self.catalog(), q, cfg)
    }

    /// Scalar-reference workload cost: the frequency-weighted sum, in
    /// workload order, of [`Self::scalar_query_cost`] terms.
    #[doc(hidden)]
    pub fn scalar_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> f64 {
        self.model.workload_cost(self.catalog(), w, cfg)
    }

    /// Always zero: the what-if cost cache these counted is gone, and the
    /// benefit matrix reports through [`Self::whatif_matrix_stats`]. Kept
    /// only because the end-to-end benchmark still reads it; the next
    /// change to that benchmark drops its `sim.cache_*` metrics and this
    /// stub with them.
    #[doc(hidden)]
    pub fn whatif_cache_stats(&self) -> CacheStats {
        CacheStats { hits: 0, misses: 0 }
    }

    // ---- Incremental what-if evaluation (the benefit matrix) ----------

    /// Start an incremental evaluation session for `w` at the empty
    /// configuration. The session holds plain per-query state (no
    /// borrows), so advisors can keep one per episode. Toggling the
    /// matrix enable flag mid-session invalidates open sessions.
    pub fn whatif_eval_begin(&self, w: &Workload) -> IncrementalEval {
        let empty = IndexConfig::empty();
        let states = w
            .iter()
            .map(|wq| {
                let q = &wq.query;
                let qf = fingerprint_query(q);
                let kind = if !self.whatif_matrix.is_enabled() {
                    QueryState::Full(self.scalar_query_cost(q, &empty))
                } else {
                    match self.whatif_matrix.shape(&self.model, self.catalog(), q, qf) {
                        QueryShape::Trivial => {
                            self.whatif_matrix.note_matrix_eval();
                            pipa_obs::count("whatif_matrix", 1);
                            QueryState::Trivial
                        }
                        QueryShape::Decomposable {
                            table,
                            seq_cost,
                            rows_out,
                        } => {
                            self.whatif_matrix.note_matrix_eval();
                            pipa_obs::count("whatif_matrix", 1);
                            QueryState::Raw {
                                table,
                                rows_out,
                                raw: seq_cost,
                                cost: self.model.apply_surcharges(q, seq_cost, rows_out),
                            }
                        }
                        QueryShape::JoinDecomposable { plan } => {
                            self.whatif_matrix.note_join_eval();
                            pipa_obs::count("whatif_join_matrix", 1);
                            // Empty configuration: every step starts at
                            // its seq-scan baseline with no nested-loop
                            // alternative.
                            let steps: Vec<JoinStepState> = plan
                                .steps
                                .iter()
                                .map(|s| JoinStepState {
                                    raw: s.seq_cost,
                                    nl: f64::INFINITY,
                                })
                                .collect();
                            let cost = self.model.join_cost_from_steps(q, &plan, &steps);
                            QueryState::Join { plan, steps, cost }
                        }
                        QueryShape::JoinCoupled => {
                            self.whatif_matrix.note_fallback();
                            pipa_obs::count("whatif_full_fallback", 1);
                            QueryState::Full(self.scalar_query_cost(q, &empty))
                        }
                    }
                };
                EvalState { qf, kind }
            })
            .collect();
        IncrementalEval { states }
    }

    /// Current total workload cost of a session: a fresh
    /// frequency-weighted sum in workload order (never maintained via
    /// `+= diff`, which would accumulate float error and break
    /// bit-equality with a scalar recompute).
    pub fn whatif_eval_total(&self, w: &Workload, eval: &IncrementalEval) -> f64 {
        debug_assert_eq!(w.len(), eval.len(), "session built for another workload");
        w.iter()
            .zip(&eval.states)
            .map(|(wq, st)| wq.frequency as f64 * st.kind.cost())
            .sum()
    }

    /// Total workload cost of `session config + idx` without committing:
    /// one matrix-cell probe per decomposable query that scans `idx`'s
    /// table; every other matrix-backed query keeps its stored cost.
    /// `cfg_after` must be the session's configuration with `idx` added
    /// (join-coupled entries re-cost against it with the full model).
    pub fn whatif_eval_preview_add(
        &self,
        w: &Workload,
        eval: &IncrementalEval,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> f64 {
        self.whatif_matrix.note_delta();
        pipa_obs::count("whatif_delta", 1);
        debug_assert_eq!(w.len(), eval.len(), "session built for another workload");
        let idxf = fingerprint_index(idx);
        let t = idx.table(&self.schema);
        w.iter()
            .zip(&eval.states)
            .map(|(wq, st)| {
                wq.frequency as f64
                    * match &st.kind {
                        QueryState::Full(_) => self.scalar_query_cost(&wq.query, cfg_after),
                        // No cell of a query that never scans `t` can
                        // change: the arms below would recompute the
                        // stored cost from the same inputs.
                        kind if !wq.query.tables.contains(&t) => kind.cost(),
                        QueryState::Trivial => 0.0,
                        QueryState::Raw {
                            table,
                            rows_out,
                            raw,
                            ..
                        } => {
                            let e = self.whatif_matrix.index_cell(
                                &self.model,
                                self.catalog(),
                                &QueryKey {
                                    q: &wq.query,
                                    qf: st.qf,
                                    table: *table,
                                },
                                idxf,
                                idx,
                            );
                            let raw2 = if e < *raw { e } else { *raw };
                            self.model.apply_surcharges(&wq.query, raw2, *rows_out)
                        }
                        QueryState::Join { plan, steps, .. } => {
                            self.whatif_matrix.join_preview_add(
                                &self.model,
                                self.catalog(),
                                &wq.query,
                                st.qf,
                                plan,
                                steps,
                                idxf,
                                idx,
                            )
                        }
                    }
            })
            .sum()
    }

    /// Commit `idx` into the session's configuration and return the new
    /// total. `cfg_after` must be the session's configuration with `idx`
    /// already added.
    pub fn whatif_eval_add(
        &self,
        w: &Workload,
        eval: &mut IncrementalEval,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> f64 {
        self.whatif_matrix.note_delta();
        pipa_obs::count("whatif_delta", 1);
        debug_assert_eq!(w.len(), eval.len(), "session built for another workload");
        let idxf = fingerprint_index(idx);
        let t = idx.table(&self.schema);
        for (wq, st) in w.iter().zip(&mut eval.states) {
            let qf = st.qf;
            match &mut st.kind {
                QueryState::Full(c) => {
                    *c = self.scalar_query_cost(&wq.query, cfg_after);
                }
                // A query that never scans `t` keeps its state as it is.
                _ if !wq.query.tables.contains(&t) => {}
                QueryState::Trivial => {}
                QueryState::Raw {
                    table,
                    rows_out,
                    raw,
                    cost,
                } => {
                    let e = self.whatif_matrix.index_cell(
                        &self.model,
                        self.catalog(),
                        &QueryKey {
                            q: &wq.query,
                            qf,
                            table: *table,
                        },
                        idxf,
                        idx,
                    );
                    if e < *raw {
                        *raw = e;
                    }
                    *cost = self.model.apply_surcharges(&wq.query, *raw, *rows_out);
                }
                QueryState::Join { plan, steps, cost } => {
                    self.whatif_matrix.join_apply_add(
                        &self.model,
                        self.catalog(),
                        &wq.query,
                        qf,
                        plan,
                        steps,
                        idxf,
                        idx,
                    );
                    *cost = self.model.join_cost_from_steps(&wq.query, plan, steps);
                }
            }
        }
        self.whatif_eval_total(w, eval)
    }

    /// Counter snapshot of the benefit matrix.
    pub fn whatif_matrix_stats(&self) -> MatrixStats {
        self.whatif_matrix.stats()
    }

    /// The cost held in every resident access cell of the benefit
    /// matrix. Public (but hidden) so the differential suite can check
    /// that only applicable indexes own a cell.
    #[doc(hidden)]
    pub fn whatif_matrix_access_costs(&self) -> Vec<f64> {
        self.whatif_matrix.access_costs()
    }

    /// Enable or disable the benefit matrix (evaluations call the full
    /// model, uncached, when disabled; results are identical either way).
    /// The whatif bench's scalar baselines and the differential suites
    /// use this to reach the scalar reference.
    pub fn set_whatif_matrix_enabled(&self, on: bool) {
        self.whatif_matrix.set_enabled(on);
    }

    /// Bound the benefit matrix's approximate footprint in bytes, cells
    /// and memoized query shapes alike (`usize::MAX` = unbounded, the
    /// default). Over-budget inserts trigger rotating shard-clear
    /// compaction; whatever it drops recomputes bit-identically on the
    /// next touch.
    pub fn set_whatif_matrix_byte_budget(&self, bytes: usize) {
        self.whatif_matrix.set_byte_budget(bytes);
    }

    /// Drop all matrix cells and shapes and zero its counters.
    pub fn clear_whatif_matrix(&self) {
        self.whatif_matrix.clear();
    }

    /// Per-query evaluation through the matrix with the config's index
    /// fingerprints hoisted out of the per-query loop.
    fn matrix_query_cost_keyed(
        &self,
        q: &Query,
        cfg: &IndexConfig,
        keyed: &[(Fingerprint, &Index)],
    ) -> f64 {
        let qf = fingerprint_query(q);
        match self.whatif_matrix.shape(&self.model, self.catalog(), q, qf) {
            QueryShape::Trivial => {
                self.whatif_matrix.note_matrix_eval();
                pipa_obs::count("whatif_matrix", 1);
                0.0
            }
            QueryShape::Decomposable {
                table,
                seq_cost,
                rows_out,
            } => {
                self.whatif_matrix.note_matrix_eval();
                pipa_obs::count("whatif_matrix", 1);
                let raw = self.whatif_matrix.best_raw(
                    &self.model,
                    self.catalog(),
                    &QueryKey { q, qf, table },
                    seq_cost,
                    keyed,
                );
                self.model.apply_surcharges(q, raw, rows_out)
            }
            QueryShape::JoinDecomposable { plan } => {
                self.whatif_matrix.note_join_eval();
                pipa_obs::count("whatif_join_matrix", 1);
                self.whatif_matrix
                    .join_eval(&self.model, self.catalog(), q, qf, &plan, keyed)
            }
            QueryShape::JoinCoupled => {
                self.whatif_matrix.note_fallback();
                pipa_obs::count("whatif_full_fallback", 1);
                self.scalar_query_cost(q, cfg)
            }
        }
    }

    /// Actual (executed) cost of a query; falls back to the estimate when
    /// no data is materialized.
    pub fn actual_query_cost(&self, q: &Query, cfg: &IndexConfig) -> SimResult<f64> {
        let Some(storage) = &self.storage else {
            return Ok(self.estimated_query_cost(q, cfg));
        };
        let phys = self.physical_for(cfg, storage)?;
        let ex = Executor::new(self.catalog(), storage);
        ex.execute_cost(q, cfg, &phys)
    }

    /// Actual (executed) cost of a workload, frequency-weighted.
    pub fn actual_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> SimResult<f64> {
        let Some(storage) = &self.storage else {
            return Ok(self.estimated_workload_cost(w, cfg));
        };
        let phys = self.physical_for(cfg, storage)?;
        let ex = Executor::new(self.catalog(), storage);
        w.iter()
            .map(|wq| Ok(wq.frequency as f64 * ex.execute_cost(&wq.query, cfg, &phys)?))
            .sum()
    }

    /// EXPLAIN-style access-path summary of a query under a hypothetical
    /// configuration.
    pub fn explain(&self, q: &Query, cfg: &IndexConfig) -> String {
        self.model.explain(self.catalog(), q, cfg)
    }

    fn physical_for(
        &self,
        cfg: &IndexConfig,
        storage: &Storage,
    ) -> SimResult<HashMap<Index, Arc<PhysicalIndex>>> {
        let mut cache = self
            .phys_cache
            .lock()
            .map_err(|_| SimError::Poisoned("physical index cache"))?;
        let mut out = HashMap::with_capacity(cfg.len());
        for idx in cfg.indexes() {
            let phys = match cache.entry(idx.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let t = idx.table(&self.schema);
                    let data = storage
                        .table(t)
                        .ok_or_else(|| SimError::MissingData(self.schema.table(t).name.clone()))?;
                    let phys = PhysicalIndex::build(&self.schema, data, idx.clone());
                    e.insert(Arc::new(phys))
                }
            };
            out.insert(idx.clone(), Arc::clone(phys));
        }
        Ok(out)
    }
}

/// Builder for [`Database`].
pub struct DatabaseBuilder {
    schema: Schema,
    column_stats: Option<Vec<ColumnStats>>,
    scale: f64,
    materialize: Option<MaterializeOpts>,
}

/// Data-materialization options.
#[derive(Debug, Clone, Copy)]
struct MaterializeOpts {
    seed: u64,
    row_cap: u32,
}

impl DatabaseBuilder {
    /// New builder with scale 1.0 and no data.
    pub fn new(schema: Schema) -> Self {
        DatabaseBuilder {
            schema,
            column_stats: None,
            scale: 1.0,
            materialize: None,
        }
    }

    /// Scale factor applied to every table's base row count.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Provide explicit column statistics (indexed by `ColumnId.0`,
    /// covering every column). When omitted, default statistics are
    /// derived from column types (see [`default_column_stats`]).
    pub fn column_stats(mut self, stats: Vec<ColumnStats>) -> Self {
        self.column_stats = Some(stats);
        self
    }

    /// Materialize synthetic data (capped at `row_cap` rows per table so
    /// large scale factors stay laptop-sized; costs are page-based so the
    /// cap only coarsens, never reorders, actual costs).
    pub fn materialize(mut self, seed: u64, row_cap: u32) -> Self {
        self.materialize = Some(MaterializeOpts { seed, row_cap });
        self
    }

    /// Build the database.
    pub fn build(self) -> Database {
        let scaled_rows = |t: &crate::schema::Table| -> u64 {
            ((t.base_rows as f64 * self.scale).round() as u64).max(1)
        };
        let column_stats = self
            .column_stats
            .unwrap_or_else(|| default_column_stats(&self.schema, self.scale));
        assert_eq!(
            column_stats.len(),
            self.schema.num_columns(),
            "stats must cover every column"
        );

        let mut storage = None;
        let mut table_stats = Vec::with_capacity(self.schema.num_tables());
        if let Some(opts) = self.materialize {
            let mut st = Storage::new(self.schema.num_tables());
            for t in self.schema.tables() {
                let rows = scaled_rows(t).min(u64::from(opts.row_cap)) as u32;
                st.set_table(generate_table(
                    &self.schema,
                    &column_stats,
                    t.id,
                    rows,
                    opts.seed,
                ));
            }
            // Table stats reflect the materialized heap so that estimates
            // and actual execution describe the same physical database.
            for t in self.schema.tables() {
                let data = st.table(t.id).expect("just set");
                table_stats.push(TableStats {
                    rows: u64::from(data.rows),
                    pages: data.pages(),
                });
            }
            storage = Some(st);
        } else {
            for t in self.schema.tables() {
                let rows = scaled_rows(t);
                let width = u64::from(self.schema.row_width(t.id));
                table_stats.push(TableStats {
                    rows,
                    pages: (rows * width).div_ceil(PAGE_SIZE).max(1),
                });
            }
        }

        Database {
            schema: self.schema,
            table_stats,
            column_stats,
            model: AnalyticalCostModel::new(),
            storage,
            phys_cache: Mutex::new(HashMap::new()),
            whatif_matrix: BenefitMatrix::new(),
            scale: self.scale,
        }
    }
}

/// What [`Database::whatif_cache_stats`] returns: always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// Default column statistics derived from types alone: keys (`*_id`,
/// `*key`) get NDV = rows, dates span seven years, numerics get moderate
/// NDV, short text gets low NDV. Benchmark crates provide real statistics;
/// this default keeps toy schemas convenient.
pub fn default_column_stats(schema: &Schema, scale: f64) -> Vec<ColumnStats> {
    schema
        .columns()
        .iter()
        .map(|c| {
            let rows = ((schema.table(c.table).base_rows as f64 * scale) as u64).max(1);
            let name = c.name.as_str();
            let ndv: u64 = if name.ends_with("key") || name.ends_with("_id") {
                rows
            } else {
                match c.ty {
                    DataType::Date => 2556,
                    DataType::Decimal => 10_000.min(rows),
                    DataType::Int | DataType::BigInt => 1000.min(rows),
                    DataType::Char(_) => 50.min(rows),
                    DataType::Varchar(_) => 1000.min(rows),
                }
            }
            .max(1);
            ColumnStats::uniform(c.id, c.ty, ndv, 0, ndv as i64 - 1)
        })
        .collect()
}

/// Identify the table with the most rows (used by tests and examples).
pub fn largest_table(db: &Database) -> TableId {
    db.schema()
        .tables()
        .iter()
        .max_by_key(|t| db.table_stats()[t.id.0 as usize].rows)
        .expect("nonempty schema")
        .id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::query::QueryBuilder;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(
            "orders",
            50_000,
            &[
                ("o_orderkey", DataType::BigInt),
                ("o_custkey", DataType::Int),
                ("o_totalprice", DataType::Decimal),
            ],
        );
        s.add_table("customer", 5000, &[("c_custkey", DataType::Int)]);
        s
    }

    #[test]
    fn builder_without_data_estimates_only() {
        let db = Database::builder(schema()).scale(2.0).build();
        assert!(!db.has_data());
        assert_eq!(db.table_stats()[0].rows, 100_000);
        let q = QueryBuilder::new()
            .filter(
                db.schema(),
                Predicate::eq(db.schema().column_id("o_orderkey").unwrap(), 0.5),
            )
            .select(db.schema().column_id("o_totalprice").unwrap())
            .build(db.schema())
            .unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(
            db.schema().column_id("o_orderkey").unwrap(),
        )]);
        // actual falls back to estimated
        assert_eq!(
            db.actual_query_cost(&q, &cfg).unwrap(),
            db.estimated_query_cost(&q, &cfg)
        );
        let base = db.estimated_query_cost(&q, &IndexConfig::empty());
        let benefit = 1.0 - db.estimated_query_cost(&q, &cfg) / base;
        assert!(benefit > 0.5);
    }

    #[test]
    fn materialized_db_executes() {
        let db = Database::builder(schema()).materialize(7, 20_000).build();
        assert!(db.has_data());
        let key = db.schema().column_id("o_orderkey").unwrap();
        let q = QueryBuilder::new()
            .filter(db.schema(), Predicate::eq(key, 0.5))
            .select(db.schema().column_id("o_totalprice").unwrap())
            .build(db.schema())
            .unwrap();
        let none = db.actual_query_cost(&q, &IndexConfig::empty()).unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(key)]);
        let with = db.actual_query_cost(&q, &cfg).unwrap();
        assert!(with < none, "with={with} none={none}");
    }

    #[test]
    fn row_cap_bounds_materialization() {
        let db = Database::builder(schema())
            .scale(10.0)
            .materialize(7, 1000)
            .build();
        assert_eq!(db.table_stats()[0].rows, 1000);
    }

    #[test]
    fn phys_cache_reuses_indexes() {
        let db = Database::builder(schema()).materialize(7, 5000).build();
        let key = db.schema().column_id("o_custkey").unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(key)]);
        let q = QueryBuilder::new()
            .filter(db.schema(), Predicate::eq(key, 0.5))
            .select(key)
            .build(db.schema())
            .unwrap();
        let a = db.actual_query_cost(&q, &cfg).unwrap();
        let b = db.actual_query_cost(&q, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(db.phys_cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn default_stats_treat_keys_as_unique() {
        let s = schema();
        let stats = default_column_stats(&s, 1.0);
        let key = s.column_id("o_orderkey").unwrap();
        assert_eq!(stats[key.0 as usize].ndv, 50_000);
    }

    #[test]
    fn render_sql_uses_stats() {
        let db = Database::builder(schema()).build();
        let key = db.schema().column_id("o_custkey").unwrap();
        let q = QueryBuilder::new()
            .filter(db.schema(), Predicate::eq(key, 0.0))
            .select(key)
            .build(db.schema())
            .unwrap();
        let cat = db.catalog();
        assert_eq!(
            q.render_sql(cat.schema, |c| cat.column(c)),
            "select o_custkey from orders where o_custkey = 0;"
        );
    }

    #[test]
    fn explain_reports_the_chosen_path() {
        let db = Database::builder(schema()).build();
        let key = db.schema().column_id("o_orderkey").unwrap();
        let q = QueryBuilder::new()
            .filter(db.schema(), Predicate::eq(key, 0.5))
            .select(db.schema().column_id("o_totalprice").unwrap())
            .build(db.schema())
            .unwrap();
        let none = db.explain(&q, &IndexConfig::empty());
        assert!(none.contains("seq scan"), "{none}");
        let cfg = IndexConfig::from_indexes([Index::single(key)]);
        let with = db.explain(&q, &cfg);
        assert!(with.contains("idx_orders_o_orderkey"), "{with}");
        assert!(with.contains("index"), "{with}");
    }

    #[test]
    fn largest_table_is_orders() {
        let db = Database::builder(schema()).build();
        assert_eq!(largest_table(&db), TableId(0));
    }
}
