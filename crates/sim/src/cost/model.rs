//! The analytical cost model: access-path selection per table, greedy
//! left-deep join ordering, and aggregation/sort surcharges.
//!
//! The model follows PostgreSQL's shape without its full complexity:
//!
//! * **Seq scan** — `seq_page_cost · pages + cpu` over all rows;
//! * **Index scan** — B+-tree descent + leaf traversal + correlation-
//!   interpolated heap fetches over the matched selectivity;
//! * **Index-only scan** — as above but heap fetches mostly elided when
//!   the index covers every referenced column of the table;
//! * **Joins** — greedy left-deep order by filtered cardinality; each join
//!   costed as the cheaper of a hash join and an index nested-loop join
//!   (the latter only when the inner table has an index whose leading
//!   column is the join key).
//!
//! What matters for reproducing the paper is *ordinal fidelity*: a good
//! index must beat a bad one, a covering index must beat a partial one, and
//! index benefit must scale with selectivity. The tests pin those
//! properties down.

use super::{Catalog, CostParams};
use crate::index::{Index, IndexConfig};
use crate::predicate::Predicate;
use crate::query::Query;
use crate::schema::{ColumnId, TableId};
use crate::workload::Workload;

/// Fraction of heap fetches an index-only scan still pays (visibility map
/// misses).
const INDEX_ONLY_HEAP_FRACTION: f64 = 0.05;

/// Config-independent access data for one table of a query: the
/// predicates that land on it, the columns it must produce (for
/// index-only detection), the sequential-scan baseline, and the filtered
/// output cardinality.
///
/// Both the scalar path ([`AnalyticalCostModel::query_cost`]) and the
/// incremental benefit matrix ([`super::matrix::BenefitMatrix`]) derive
/// per-index access costs from this same struct via
/// [`AnalyticalCostModel::index_access_cost`], which is what makes the
/// two paths bit-identical: they execute the same float operations on
/// the same inputs.
#[derive(Debug, Clone)]
pub(crate) struct TableAccess<'q> {
    /// The table.
    pub table: TableId,
    /// Predicates of the query that filter this table.
    pub preds: Vec<&'q Predicate>,
    /// Referenced columns of this table.
    pub referenced: Vec<ColumnId>,
    /// Sequential-scan cost (the index-free baseline).
    pub seq_cost: f64,
    /// Filtered output cardinality.
    pub rows_out: f64,
}

/// One step of a [`JoinPlan`]: a table attached to the greedy left-deep
/// prefix, together with every **config-independent** quantity the model
/// needs to cost that step under an arbitrary index configuration.
///
/// Step 0 is the driver table (its cost is just its access path); every
/// later step pays `min(hash join, index nested-loop)` where
///
/// * the hash-join cost is `access_cost + f(rows_out, outer_rows)` (see
///   [`AnalyticalCostModel::hash_join_cost`]), and
/// * the nested-loop alternatives exist only when [`Self::inner_col`] is
///   `Some` and an index on this table leads on that column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JoinStep {
    /// The table attached at this step.
    pub table: TableId,
    /// Sequential-scan baseline for this table (the "no index" access).
    pub seq_cost: f64,
    /// Filtered cardinality of this table (the scalar path's `t_rows`).
    pub rows_out: f64,
    /// Result cardinality of the join prefix *before* this step (the
    /// scalar path's `result_rows`; `0.0` and unused for step 0).
    pub outer_rows: f64,
    /// Join column on this table linking it to the prefix, or `None`
    /// when the step is a cross join (no index nested-loop alternative).
    pub inner_col: Option<ColumnId>,
}

/// The config-independent skeleton of a multi-table query's plan: the
/// greedy left-deep join order, per-step cardinalities and join edges,
/// and the final result cardinality for surcharges.
///
/// The skeleton depends only on the catalog and the query — the greedy
/// order sorts by filtered cardinalities (`rows_out`), which no index
/// can change, and the containment-assumption cardinality chain uses
/// only column NDVs. Index configurations influence *only* the per-step
/// access costs and nested-loop alternatives, which is exactly what
/// makes join queries decomposable into per-(query, index) matrix cells
/// (see `super::matrix`). Built by [`AnalyticalCostModel::join_plan`];
/// both the scalar path and the benefit matrix evaluate it through
/// [`AnalyticalCostModel::join_cost_from_steps`], so the two paths
/// execute literally identical float operations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinPlan {
    /// Steps in greedy left-deep order; step 0 is the driver table.
    pub steps: Vec<JoinStep>,
    /// Final result cardinality (surcharge input).
    pub result_rows: f64,
}

/// Config-dependent state of one [`JoinStep`] under a concrete index
/// configuration: the running minima an evaluation (or an incremental
/// session) maintains per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JoinStepState {
    /// `min(seq_cost, applicable index access costs)` for this step's
    /// table.
    pub raw: f64,
    /// `min(index nested-loop alternatives)`, `+∞` when none apply.
    pub nl: f64,
}

/// PostgreSQL-style analytical cost model.
#[derive(Debug, Clone, Default)]
pub struct AnalyticalCostModel {
    params: CostParams,
}

impl AnalyticalCostModel {
    /// Model with default (PostgreSQL) constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Combined selectivity of a conjunctive predicate list (independence
    /// assumption).
    fn combined_selectivity(&self, cat: Catalog<'_>, preds: &[&Predicate]) -> f64 {
        preds
            .iter()
            .map(|p| p.selectivity(cat.column(p.col)))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Cost of a sequential scan of `table` applying `n_preds` filters.
    fn seq_scan_cost(&self, cat: Catalog<'_>, table: TableId, n_preds: usize) -> f64 {
        let ts = cat.table(table);
        let p = &self.params;
        p.seq_page_cost * ts.pages as f64
            + p.cpu_tuple_cost * ts.rows as f64
            + p.cpu_operator_cost * ts.rows as f64 * n_preds.max(1) as f64
    }

    /// How much of the index key prefix the predicates can use, and the
    /// resulting matched selectivity. Returns `None` when the leading
    /// column has no sargable predicate (B+-tree unusable).
    fn index_match(&self, cat: Catalog<'_>, index: &Index, preds: &[&Predicate]) -> Option<f64> {
        let mut sel = 1.0f64;
        let mut matched_any = false;
        for (depth, &col) in index.columns.iter().enumerate() {
            let matching: Vec<&&Predicate> = preds.iter().filter(|p| p.col == col).collect();
            if matching.is_empty() {
                break;
            }
            matched_any = true;
            let mut all_eq = true;
            for p in &matching {
                sel *= p.selectivity(cat.column(p.col));
                all_eq &= p.is_equality();
            }
            // A range predicate at this depth consumes the prefix: deeper
            // columns can only be used as filter (ignored here).
            if !all_eq {
                let _ = depth;
                break;
            }
        }
        matched_any.then_some(sel.clamp(0.0, 1.0))
    }

    /// Cost of scanning `table` through `index` with matched selectivity
    /// `sel`; `covering` marks index-only eligibility, `n_resid` counts
    /// residual predicates re-checked per fetched row.
    fn index_scan_cost(
        &self,
        cat: Catalog<'_>,
        table: TableId,
        index: &Index,
        sel: f64,
        covering: bool,
        n_resid: usize,
    ) -> f64 {
        let ts = cat.table(table);
        let p = &self.params;
        let rows = ts.rows as f64;
        let tuples = (sel * rows).max(1.0);
        let leaf_pages = index.leaf_pages(cat.schema, ts) as f64;
        let descent = f64::from(index.height(cat.schema, ts)) * p.random_page_cost;
        let leaf_cost = p.seq_page_cost * (sel * leaf_pages).max(1.0);

        // Heap fetches: interpolate between perfectly correlated
        // (sequential, sel·pages) and uncorrelated (one random page per
        // tuple, capped at 2·pages) by correlation².
        let corr = cat.column(index.leading()).correlation;
        let c2 = corr * corr;
        let heap_pages_corr = sel * ts.pages as f64;
        let heap_pages_rand = tuples.min(2.0 * ts.pages as f64);
        let mut heap = c2 * heap_pages_corr + (1.0 - c2) * heap_pages_rand;
        let mut heap_cost_per_page = p.random_page_cost;
        if c2 > 0.5 {
            heap_cost_per_page =
                p.seq_page_cost + (p.random_page_cost - p.seq_page_cost) * (1.0 - c2);
        }
        if covering {
            heap *= INDEX_ONLY_HEAP_FRACTION;
        }
        descent
            + leaf_cost
            + heap * heap_cost_per_page
            + p.cpu_index_tuple_cost * tuples
            + p.cpu_tuple_cost * tuples
            + p.cpu_operator_cost * tuples * n_resid as f64
    }

    /// Config-independent access data for one table of the query (the
    /// seq-scan baseline and everything [`Self::index_access_cost`]
    /// needs to cost an index against it).
    pub(crate) fn table_access<'q>(
        &self,
        cat: Catalog<'_>,
        q: &'q Query,
        table: TableId,
    ) -> TableAccess<'q> {
        let preds = q.predicates_on(cat.schema, table);
        let sel_all = self.combined_selectivity(cat, &preds);
        let rows_out = (cat.table(table).rows as f64 * sel_all).max(1.0);
        let seq_cost = self.seq_scan_cost(cat, table, preds.len());
        // Referenced columns of this table (for index-only detection).
        let referenced: Vec<ColumnId> = q
            .referenced_columns()
            .into_iter()
            .filter(|&c| cat.schema.table_of(c) == table)
            .collect();
        TableAccess {
            table,
            preds,
            referenced,
            seq_cost,
            rows_out,
        }
    }

    /// Whether [`Self::index_access_cost`] is `Some` for `table` of `q`:
    /// the index is on that table and some predicate of the query is on
    /// its leading column. Metadata only, no [`TableAccess`] is built.
    /// The two agree exactly because `index_access_cost` is `None` only
    /// on another table or when `index_match` finds no predicate at
    /// depth 0, and on the index's own table `acc.preds` holds every
    /// predicate of the query on the leading column.
    pub(crate) fn index_applies(
        &self,
        cat: Catalog<'_>,
        q: &Query,
        table: TableId,
        index: &Index,
    ) -> bool {
        index.table(cat.schema) == table && q.predicates.iter().any(|p| p.col == index.leading())
    }

    /// Cost of scanning `acc`'s table through `index`, or `None` when the
    /// index lives on another table or its leading column has no sargable
    /// predicate.
    pub(crate) fn index_access_cost(
        &self,
        cat: Catalog<'_>,
        acc: &TableAccess<'_>,
        index: &Index,
    ) -> Option<f64> {
        if index.table(cat.schema) != acc.table {
            return None;
        }
        let sel = self.index_match(cat, index, &acc.preds)?;
        let covering = acc.referenced.iter().all(|c| index.columns.contains(c));
        let n_resid = acc
            .preds
            .iter()
            .filter(|p| !index.columns.contains(&p.col))
            .count();
        Some(self.index_scan_cost(cat, acc.table, index, sel, covering, n_resid))
    }

    /// Aggregation / grouping / sorting surcharges applied on top of the
    /// join-tree cost. Depends only on `result_rows` (config-independent),
    /// never on which access paths were chosen.
    pub(crate) fn apply_surcharges(&self, q: &Query, mut total: f64, result_rows: f64) -> f64 {
        let p = &self.params;
        if !q.aggregates.is_empty() || !q.group_by.is_empty() {
            total += p.cpu_operator_cost
                * result_rows
                * (q.aggregates.len() + q.group_by.len()).max(1) as f64;
        }
        if !q.order_by.is_empty() && result_rows > 1.0 {
            total += 2.0 * p.cpu_operator_cost * result_rows * result_rows.log2().max(1.0);
        }
        total
    }

    /// Best access path for a single table of the query. Returns
    /// `(cost, filtered_rows)`.
    fn best_access_path(
        &self,
        cat: Catalog<'_>,
        q: &Query,
        table: TableId,
        cfg: &IndexConfig,
    ) -> (f64, f64) {
        let acc = self.table_access(cat, q, table);
        let mut best = acc.seq_cost;
        for index in cfg.indexes() {
            let Some(cost) = self.index_access_cost(cat, &acc, index) else {
                continue;
            };
            if cost < best {
                best = cost;
            }
        }
        (best, acc.rows_out)
    }

    /// EXPLAIN-style access-path summary: for each table of the query,
    /// which path the model would choose under `cfg` and at what cost.
    /// (Join strategy selection happens inside [`Self::query_cost`];
    /// this view covers the per-table decisions that index advisors act
    /// on.)
    pub fn explain(&self, cat: Catalog<'_>, q: &Query, cfg: &IndexConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan (total cost {:.0}):",
            self.query_cost(cat, q, cfg)
        );
        for &t in &q.tables {
            let acc = self.table_access(cat, q, t);
            let seq = acc.seq_cost;
            let mut choice = format!("seq scan (cost {seq:.0})");
            let mut best = seq;
            for index in cfg.indexes() {
                let Some(cost) = self.index_access_cost(cat, &acc, index) else {
                    continue;
                };
                if cost < best {
                    best = cost;
                    let sel = self
                        .index_match(cat, index, &acc.preds)
                        .expect("costed index matched");
                    let covering = acc.referenced.iter().all(|c| index.columns.contains(c));
                    let kind = if covering { "index-only" } else { "index" };
                    choice = format!(
                        "{kind} scan via {} (sel {sel:.4}, cost {cost:.0})",
                        index.name(cat.schema)
                    );
                }
            }
            let _ = writeln!(
                out,
                "  {:<12} rows {:>10}  -> {choice}",
                cat.schema.table(t).name,
                cat.table(t).rows
            );
        }
        out
    }

    /// Index nested-loop probe cost into `table` via an index whose leading
    /// column is `join_col`, for `outer_rows` probes. Heap fetches per
    /// probe shrink with the join column's physical correlation: matches
    /// of a clustered key (e.g. `l_orderkey`) share heap pages.
    pub(crate) fn index_nl_cost(
        &self,
        cat: Catalog<'_>,
        table: TableId,
        index: &Index,
        join_col: ColumnId,
        outer_rows: f64,
    ) -> f64 {
        let ts = cat.table(table);
        let p = &self.params;
        let ndv = cat.column(join_col).ndv.max(1) as f64;
        let matches = (ts.rows as f64 / ndv).max(1.0);
        let corr = cat.column(join_col).correlation;
        let c2 = corr * corr;
        let heap_pages = (matches * (1.0 - c2)).max(1.0).min(ts.pages as f64);
        let descent = f64::from(index.height(cat.schema, ts)) * p.random_page_cost;
        let per_probe = descent
            + p.cpu_index_tuple_cost * matches
            + p.random_page_cost * heap_pages
            + p.cpu_tuple_cost * matches;
        outer_rows * per_probe
    }

    /// Derive the config-independent [`JoinPlan`] skeleton of a
    /// multi-table query: greedy left-deep order (smallest filtered
    /// cardinality first, then repeatedly attach a join-connected table,
    /// falling back to the smallest remaining for cross joins), per-step
    /// cardinalities, join columns, and the containment-assumption
    /// result-cardinality chain.
    ///
    /// This is the *only* implementation of the join-order heuristic in
    /// the workspace; [`Self::query_cost`] and the benefit matrix
    /// both consume its output, so they cannot drift.
    pub(crate) fn join_plan(&self, cat: Catalog<'_>, q: &Query) -> JoinPlan {
        debug_assert!(q.tables.len() >= 2, "join_plan needs a multi-table query");
        let accs: Vec<TableAccess<'_>> = q
            .tables
            .iter()
            .map(|&t| self.table_access(cat, q, t))
            .collect();

        let mut steps: Vec<JoinStep> = Vec::with_capacity(accs.len());
        let mut order: Vec<usize> = Vec::with_capacity(accs.len());
        let mut remaining: Vec<usize> = (0..accs.len()).collect();
        remaining.sort_by(|&a, &b| accs[a].rows_out.total_cmp(&accs[b].rows_out));
        order.push(remaining.remove(0));
        let first = &accs[order[0]];
        let mut result_rows = first.rows_out;
        steps.push(JoinStep {
            table: first.table,
            seq_cost: first.seq_cost,
            rows_out: first.rows_out,
            outer_rows: 0.0,
            inner_col: None,
        });

        while !remaining.is_empty() {
            // Prefer a table connected to the current prefix by a join
            // edge; fall back to the smallest remaining (cross join).
            let connected_pos = remaining.iter().position(|&i| {
                q.joins.iter().any(|j| {
                    let lt = cat.schema.table_of(j.left);
                    let rt = cat.schema.table_of(j.right);
                    let in_prefix = |t: TableId| order.iter().any(|&o| accs[o].table == t);
                    (accs[i].table == lt && in_prefix(rt)) || (accs[i].table == rt && in_prefix(lt))
                })
            });
            let next = remaining.remove(connected_pos.unwrap_or(0));
            let t = accs[next].table;

            // Join edge linking `t` to the prefix (if any).
            let edge = q.joins.iter().find(|j| {
                let lt = cat.schema.table_of(j.left);
                let rt = cat.schema.table_of(j.right);
                (lt == t) != (rt == t)
                    && (order.iter().any(|&o| accs[o].table == lt)
                        || order.iter().any(|&o| accs[o].table == rt))
            });
            let inner_col = edge.map(|j| {
                if cat.schema.table_of(j.left) == t {
                    j.left
                } else {
                    j.right
                }
            });
            steps.push(JoinStep {
                table: t,
                seq_cost: accs[next].seq_cost,
                rows_out: accs[next].rows_out,
                outer_rows: result_rows,
                inner_col,
            });

            // Output cardinality via containment assumption.
            result_rows = if let Some(j) = edge {
                let ndv_l = cat.column(j.left).ndv.max(1) as f64;
                let ndv_r = cat.column(j.right).ndv.max(1) as f64;
                (result_rows * accs[next].rows_out / ndv_l.max(ndv_r)).max(1.0)
            } else {
                result_rows * accs[next].rows_out
            };
            order.push(next);
        }

        JoinPlan { steps, result_rows }
    }

    /// Hash-join cost of one [`JoinStep`] given the chosen inner access
    /// path: inner access + build/probe CPU. Kept as the single shared
    /// expression (left-associative, in this exact operand order) so the
    /// scalar path and the benefit matrix produce bit-identical sums.
    pub(crate) fn hash_join_cost(&self, access_cost: f64, step: &JoinStep) -> f64 {
        let p = &self.params;
        access_cost
            + 2.0 * p.cpu_tuple_cost * step.rows_out
            + p.cpu_operator_cost * (step.outer_rows + step.rows_out)
    }

    /// Config-dependent state of one [`JoinStep`] under `cfg`: the best
    /// raw access path for the step's table and the best index
    /// nested-loop alternative (`+∞` when none applies).
    pub(crate) fn join_step_state(
        &self,
        cat: Catalog<'_>,
        q: &Query,
        step: &JoinStep,
        cfg: &IndexConfig,
    ) -> JoinStepState {
        let (raw, _) = self.best_access_path(cat, q, step.table, cfg);
        let mut nl = f64::INFINITY;
        if let Some(col) = step.inner_col {
            // Index nested loop: only if an index leads on t's join key.
            for index in cfg.indexes() {
                if index.table(cat.schema) == step.table && index.leading() == col {
                    let c = self.index_nl_cost(cat, step.table, index, col, step.outer_rows);
                    if c < nl {
                        nl = c;
                    }
                }
            }
        }
        JoinStepState { raw, nl }
    }

    /// Total query cost from a [`JoinPlan`] plus per-step
    /// [`JoinStepState`]s: step 0 pays its access path, every later step
    /// pays `min(hash join, best nested loop)`, accumulated in plan
    /// order, then surcharges on the final cardinality.
    ///
    /// This is the single accumulation loop both cost paths share. The
    /// scalar path feeds it states computed directly from `cfg`; the
    /// benefit matrix feeds it states assembled from memoized cells. The
    /// sum is evaluated left-associatively in plan order either way,
    /// which is what makes the two paths bit-identical despite float
    /// addition being non-associative.
    pub(crate) fn join_cost_from_steps(
        &self,
        q: &Query,
        plan: &JoinPlan,
        states: &[JoinStepState],
    ) -> f64 {
        self.join_cost_substituted(q, plan, states, None)
    }

    /// [`Self::join_cost_from_steps`] with one step's state substituted
    /// (allocation-free preview of a single-index edit: the caller
    /// computes the touched step's updated minima and folds them in
    /// without cloning the session's state vector).
    pub(crate) fn join_cost_substituted(
        &self,
        q: &Query,
        plan: &JoinPlan,
        states: &[JoinStepState],
        replace: Option<(usize, JoinStepState)>,
    ) -> f64 {
        let mut total = 0.0;
        for (k, step) in plan.steps.iter().enumerate() {
            let st = match replace {
                Some((i, s)) if i == k => s,
                _ => states[k],
            };
            if k == 0 {
                total = st.raw;
                continue;
            }
            let hash_cost = self.hash_join_cost(st.raw, step);
            // Strict `<` so ties keep the hash join, exactly like the
            // pre-decomposition scalar loop.
            let best_join = if st.nl < hash_cost { st.nl } else { hash_cost };
            total += best_join;
        }
        self.apply_surcharges(q, total, plan.result_rows)
    }

    /// Estimated cost of one query under a (possibly hypothetical) index
    /// configuration: `c(q, d, I)`, in PostgreSQL-style "page fetch
    /// equivalents" (lower is better).
    pub fn query_cost(&self, cat: Catalog<'_>, q: &Query, cfg: &IndexConfig) -> f64 {
        if q.tables.is_empty() {
            return 0.0;
        }

        if q.tables.len() == 1 {
            let (total, result_rows) = self.best_access_path(cat, q, q.tables[0], cfg);
            return self.apply_surcharges(q, total, result_rows);
        }

        // Multi-table: derive the config-independent skeleton, then cost
        // each step under `cfg` and accumulate in plan order.
        let plan = self.join_plan(cat, q);
        let states: Vec<JoinStepState> = plan
            .steps
            .iter()
            .map(|s| self.join_step_state(cat, q, s, cfg))
            .collect();
        self.join_cost_from_steps(q, &plan, &states)
    }

    /// Frequency-weighted cost of a workload: `c(W, d, I)`, summed in
    /// workload order.
    pub fn workload_cost(
        &self,
        cat: Catalog<'_>,
        workload: &Workload,
        config: &IndexConfig,
    ) -> f64 {
        workload
            .iter()
            .map(|wq| wq.frequency as f64 * self.query_cost(cat, &wq.query, config))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PAGE_SIZE;
    use crate::query::QueryBuilder;
    use crate::schema::{DataType, Schema};
    use crate::stats::{ColumnStats, TableStats};

    /// A toy catalog: one big `fact` table and one small `dim` table.
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
                1_000_000,
                &[
                    ("f_id", DataType::BigInt),
                    ("f_dim", DataType::Int),
                    ("f_price", DataType::Decimal),
                    ("f_qty", DataType::Int),
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
                        "f_qty" => 50,
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

    fn point_query(fx: &Fixture, col: &str) -> Query {
        QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col(col), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap()
    }

    #[test]
    fn selective_index_beats_seq_scan() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let q = point_query(&fx, "f_id");
        let no_idx = m.query_cost(fx.cat(), &q, &IndexConfig::empty());
        let with_idx = m.query_cost(
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([Index::single(fx.col("f_id"))]),
        );
        assert!(
            with_idx < no_idx / 100.0,
            "point lookup must be far cheaper: {with_idx} vs {no_idx}"
        );
    }

    #[test]
    fn irrelevant_index_changes_nothing() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let q = point_query(&fx, "f_id");
        let base = m.query_cost(fx.cat(), &q, &IndexConfig::empty());
        let other = m.query_cost(
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([Index::single(fx.col("d_cat"))]),
        );
        assert_eq!(base, other);
    }

    #[test]
    fn benefit_scales_with_selectivity() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        // `1 - c(q,d,I)/c(q,d,∅)`: the reward most learned IAs optimize.
        let benefit = |q: &Query, col: &str| {
            let cfg = IndexConfig::from_indexes([Index::single(fx.col(col))]);
            1.0 - m.query_cost(fx.cat(), q, &cfg) / m.query_cost(fx.cat(), q, &IndexConfig::empty())
        };
        // High-NDV column (very selective eq) vs low-NDV column.
        let b_hi = benefit(&point_query(&fx, "f_id"), "f_id");
        let b_lo = benefit(&point_query(&fx, "f_qty"), "f_qty");
        assert!(b_hi > b_lo, "b_hi={b_hi} b_lo={b_lo}");
        assert!(b_hi > 0.9);
    }

    #[test]
    fn unselective_range_prefers_seq_scan() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::between(fx.col("f_price"), 0.0, 0.95))
            .select(fx.col("f_qty"))
            .build(&fx.schema)
            .unwrap();
        let base = m.query_cost(fx.cat(), &q, &IndexConfig::empty());
        let idx = m.query_cost(
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([Index::single(fx.col("f_price"))]),
        );
        // The optimizer should not pick the index (cost identical to seq).
        assert_eq!(base, idx);
    }

    #[test]
    fn covering_index_beats_non_covering() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::between(fx.col("f_dim"), 0.4, 0.42))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let partial = m.query_cost(
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]),
        );
        let covering = m.query_cost(
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([Index::multi(
                &fx.schema,
                vec![fx.col("f_dim"), fx.col("f_price")],
            )
            .unwrap()]),
        );
        assert!(covering < partial, "covering={covering} partial={partial}");
    }

    #[test]
    fn multicolumn_prefix_rule() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let idx = Index::multi(&fx.schema, vec![fx.col("f_dim"), fx.col("f_qty")]).unwrap();
        // Predicate only on the second column: index unusable.
        let q = point_query(&fx, "f_qty");
        let base = m.query_cost(fx.cat(), &q, &IndexConfig::empty());
        let with = m.query_cost(fx.cat(), &q, &IndexConfig::from_indexes([idx.clone()]));
        assert_eq!(base, with);
        // Predicates on both: better than leading-only match.
        let q2 = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_dim"), 0.3))
            .filter(&fx.schema, Predicate::eq(fx.col("f_qty"), 0.3))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let both = m.query_cost(fx.cat(), &q2, &IndexConfig::from_indexes([idx]));
        let lead_only = m.query_cost(
            fx.cat(),
            &q2,
            &IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]),
        );
        assert!(both < lead_only);
    }

    #[test]
    fn join_index_on_join_key_helps() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        // One dim row selected → one probe into fact: the classic case
        // where an index nested loop beats scanning the fact table.
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .filter(&fx.schema, Predicate::eq(fx.col("d_id"), 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let base = m.query_cost(fx.cat(), &q, &IndexConfig::empty());
        let with = m.query_cost(
            fx.cat(),
            &q,
            &IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]),
        );
        assert!(with < base, "with={with} base={base}");
    }

    #[test]
    fn correlation_cheapens_range_scans() {
        let fx = Fixture::new();
        let mut fx2 = Fixture::new();
        let price_idx = fx2.col("f_price").0 as usize;
        fx2.cstats[price_idx].correlation = 1.0;
        let m = AnalyticalCostModel::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::between(fx.col("f_price"), 0.1, 0.25))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(fx.col("f_price"))]);
        let uncorr = m.query_cost(fx.cat(), &q, &cfg);
        let corr = m.query_cost(fx2.cat(), &q, &cfg);
        assert!(corr < uncorr, "corr={corr} uncorr={uncorr}");
    }

    #[test]
    fn workload_cost_weights_frequencies() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let q = point_query(&fx, "f_id");
        let single = crate::workload::Workload::from_queries([(q.clone(), 1)]);
        let triple = crate::workload::Workload::from_queries([(q, 3)]);
        let cat = fx.cat();
        let c1 = m.workload_cost(cat, &single, &IndexConfig::empty());
        let c3 = m.workload_cost(cat, &triple, &IndexConfig::empty());
        assert!((c3 - 3.0 * c1).abs() < 1e-6);
    }

    #[test]
    fn order_by_adds_sort_cost() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let base = QueryBuilder::new()
            .filter(&fx.schema, Predicate::between(fx.col("f_price"), 0.0, 0.5))
            .select(fx.col("f_price"))
            .build(&fx.schema)
            .unwrap();
        let mut sorted = base.clone();
        sorted.order_by.push(fx.col("f_price"));
        let c_base = m.query_cost(fx.cat(), &base, &IndexConfig::empty());
        let c_sorted = m.query_cost(fx.cat(), &sorted, &IndexConfig::empty());
        assert!(c_sorted > c_base);
    }

    #[test]
    fn best_single_index_picks_the_filter_column() {
        let fx = Fixture::new();
        let m = AnalyticalCostModel::new();
        let q = point_query(&fx, "f_id");
        let cands = [
            Index::single(fx.col("f_qty")),
            Index::single(fx.col("f_id")),
            Index::single(fx.col("f_price")),
        ];
        // The single index with the lowest query cost (ties: first).
        let best = cands
            .iter()
            .min_by(|a, b| {
                let cost =
                    |i: &Index| m.query_cost(fx.cat(), &q, &IndexConfig::from_indexes([i.clone()]));
                cost(a).total_cmp(&cost(b))
            })
            .unwrap();
        assert_eq!(best.leading(), fx.col("f_id"));
    }
}
