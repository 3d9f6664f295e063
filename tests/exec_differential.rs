//! Differential suite for the row-store executor.
//!
//! The oracle below is the executor as it stood before its flat-index
//! rewrite: a `BTreeMap` composite-key index, per-row predicate and
//! column lookups, and SipHash key sets, with the same plan choice,
//! join order and reduction passes. Both executors run every query over
//! the same materialized storage, and every [`ExecStats`] field and
//! every executed cost (by `to_bits`) must match.
//!
//! Inputs: TPC-H and TPC-DS at a 20k-row cap under several normal
//! workloads, and a synthetic star schema whose filter and join columns
//! hold NULLs (neither benchmark has any). Configurations: none,
//! single-column filter indexes, four-index join-key configurations and
//! a composite index. The oracle records which access path each table
//! access took, and the suite checks that sequential scans, index scans
//! and index probes all occur.

use pipa::sim::cost::{Catalog, CostParams, PAGE_SIZE};
use pipa::sim::datagen::{generate_table, NULL_POSITION};
use pipa::sim::exec::{build_physical, ExecStats, Executor};
use pipa::sim::storage::{Storage, TableData};
use pipa::sim::{
    ColumnId, ColumnStats, DataType, Index, IndexConfig, Predicate, Query, QueryBuilder, Schema,
    SimError, SimResult, TableId, TableStats, Workload,
};
use pipa::workload::generator::WorkloadGenerator;
use pipa::workload::Benchmark;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The pre-rewrite executor, kept as the reference. Its trace counters
/// are left out; everything that decides a count is as it was.
mod oracle {
    use super::*;

    /// Composite key positions → row ids, in a B-tree.
    pub struct TreeIndex {
        map: BTreeMap<Vec<i64>, Vec<u32>>,
        entries_per_leaf: u32,
        height: u32,
    }

    impl TreeIndex {
        pub fn build(schema: &Schema, data: &TableData, def: &Index) -> Self {
            let table = schema.table(data.table);
            let ordinals: Vec<usize> = def
                .columns
                .iter()
                .map(|c| {
                    table
                        .columns
                        .iter()
                        .position(|tc| tc == c)
                        .expect("index column belongs to table")
                })
                .collect();
            let mut map: BTreeMap<Vec<i64>, Vec<u32>> = BTreeMap::new();
            for row in 0..data.rows {
                let key: Vec<i64> = ordinals
                    .iter()
                    .map(|&o| data.columns[o][row as usize])
                    .collect();
                map.entry(key).or_default().push(row);
            }
            let key_width: u32 = def
                .columns
                .iter()
                .map(|&c| schema.column(c).ty.width())
                .sum::<u32>()
                + 12;
            let entries_per_leaf = (PAGE_SIZE as u32 / key_width).max(1);
            let leaves = u64::from(data.rows)
                .div_ceil(u64::from(entries_per_leaf))
                .max(1);
            let mut height = 1u32;
            let mut pages = leaves;
            while pages > 1 {
                pages = pages.div_ceil(200);
                height += 1;
            }
            TreeIndex {
                map,
                entries_per_leaf,
                height,
            }
        }

        fn range_leading(&self, lo: Option<i64>, hi: Option<i64>) -> (Vec<u32>, u64) {
            let mut rows = Vec::new();
            let mut entries = 0u64;
            let lo_key = lo.map(|v| vec![v]).unwrap_or_default();
            for (key, ids) in self.map.range(lo_key..) {
                if let Some(hi) = hi {
                    if key[0] > hi {
                        break;
                    }
                }
                entries += ids.len() as u64;
                rows.extend_from_slice(ids);
            }
            (rows, entries)
        }

        fn lookup_leading(&self, v: i64) -> (Vec<u32>, u64) {
            self.range_leading(Some(v), Some(v))
        }

        fn leaf_pages_for(&self, entries: u64) -> u64 {
            entries.div_ceil(u64::from(self.entries_per_leaf)).max(1)
        }
    }

    pub fn build_tree_physical(
        cat: Catalog<'_>,
        storage: &Storage,
        cfg: &IndexConfig,
    ) -> HashMap<Index, TreeIndex> {
        cfg.indexes()
            .iter()
            .filter_map(|i| {
                let data = storage.table(i.table(cat.schema))?;
                Some((i.clone(), TreeIndex::build(cat.schema, data, i)))
            })
            .collect()
    }

    /// Access paths taken, tallied across every execution.
    #[derive(Debug, Default)]
    pub struct PlanTally {
        seq: Cell<u64>,
        index_scan: Cell<u64>,
        index_probe: Cell<u64>,
    }

    impl PlanTally {
        /// Sequential scans, index scans and index probes, in that order.
        pub fn counts(&self) -> [u64; 3] {
            [
                self.seq.get(),
                self.index_scan.get(),
                self.index_probe.get(),
            ]
        }
    }

    pub struct TreeExecutor<'a> {
        cat: Catalog<'a>,
        storage: &'a Storage,
        params: CostParams,
        pub plans: PlanTally,
    }

    impl<'a> TreeExecutor<'a> {
        pub fn new(cat: Catalog<'a>, storage: &'a Storage) -> Self {
            TreeExecutor {
                cat,
                storage,
                params: CostParams::default(),
                plans: PlanTally::default(),
            }
        }

        pub fn execute(
            &self,
            q: &Query,
            cfg: &IndexConfig,
            physical: &HashMap<Index, TreeIndex>,
        ) -> SimResult<ExecStats> {
            let mut st = ExecStats::default();
            if q.tables.is_empty() {
                return Ok(st);
            }
            let est_rows = |t: TableId| -> f64 {
                let preds = q.predicates_on(self.cat.schema, t);
                let sel: f64 = preds
                    .iter()
                    .map(|p| p.selectivity(self.cat.column(p.col)))
                    .product();
                (self.cat.table(t).rows as f64 * sel).max(1.0)
            };
            let mut order: Vec<TableId> = q.tables.clone();
            order.sort_by(|&a, &b| est_rows(a).total_cmp(&est_rows(b)));

            let mut matched: HashMap<TableId, Vec<u32>> = HashMap::new();
            for &t in &order {
                let edge = q.joins.iter().find(|j| {
                    let lt = self.cat.schema.table_of(j.left);
                    let rt = self.cat.schema.table_of(j.right);
                    (lt == t && matched.contains_key(&rt) && rt != t)
                        || (rt == t && matched.contains_key(&lt) && lt != t)
                });
                let rows = if let Some(j) = edge {
                    let (my_col, other_col) = if self.cat.schema.table_of(j.left) == t {
                        (j.left, j.right)
                    } else {
                        (j.right, j.left)
                    };
                    let other_t = self.cat.schema.table_of(other_col);
                    let outer_keys = self.column_values(other_t, other_col, &matched[&other_t])?;
                    self.access_table(q, t, cfg, physical, Some((my_col, &outer_keys)), &mut st)?
                } else {
                    self.access_table(q, t, cfg, physical, None, &mut st)?
                };
                matched.insert(t, rows);
            }
            for _ in 0..2 {
                for j in &q.joins {
                    self.reduce_edge(j.left, j.right, &mut matched, &mut st)?;
                    self.reduce_edge(j.right, j.left, &mut matched, &mut st)?;
                }
            }
            let fact = q
                .tables
                .iter()
                .copied()
                .max_by_key(|&t| self.cat.table(t).rows)
                .ok_or(SimError::Internal("query with tables lost them"))?;
            st.rows_out = matched
                .get(&fact)
                .ok_or(SimError::Internal("fact table never accessed"))?
                .len() as u64;
            Ok(st)
        }

        /// The executed cost, returned with the counters it came from.
        pub fn execute_cost(
            &self,
            q: &Query,
            cfg: &IndexConfig,
            physical: &HashMap<Index, TreeIndex>,
        ) -> SimResult<(ExecStats, f64)> {
            let st = self.execute(q, cfg, physical)?;
            let mut cost = st.cost(&self.params);
            let rows = st.rows_out as f64;
            if !q.aggregates.is_empty() || !q.group_by.is_empty() {
                cost += self.params.cpu_operator_cost
                    * rows
                    * (q.aggregates.len() + q.group_by.len()).max(1) as f64;
            }
            if !q.order_by.is_empty() && rows > 1.0 {
                cost += 2.0 * self.params.cpu_operator_cost * rows * rows.log2().max(1.0);
            }
            Ok((st, cost))
        }

        fn column_values(
            &self,
            t: TableId,
            col: ColumnId,
            rows: &[u32],
        ) -> SimResult<HashSet<i64>> {
            let data = self.table_data(t)?;
            let ord = Storage::ordinal(self.cat.schema, col);
            let col_data = data.column(ord);
            Ok(rows
                .iter()
                .map(|&r| col_data[r as usize])
                .filter(|&v| v != NULL_POSITION)
                .collect())
        }

        fn table_data(&self, t: TableId) -> SimResult<&'a TableData> {
            self.storage
                .table(t)
                .ok_or_else(|| SimError::MissingData(self.cat.schema.table(t).name.clone()))
        }

        fn reduce_edge(
            &self,
            keep_col: ColumnId,
            by_col: ColumnId,
            matched: &mut HashMap<TableId, Vec<u32>>,
            st: &mut ExecStats,
        ) -> SimResult<()> {
            let keep_t = self.cat.schema.table_of(keep_col);
            let by_t = self.cat.schema.table_of(by_col);
            if keep_t == by_t || !matched.contains_key(&keep_t) || !matched.contains_key(&by_t) {
                return Ok(());
            }
            let keys = self.column_values(by_t, by_col, &matched[&by_t])?;
            let data = self.table_data(keep_t)?;
            let ord = Storage::ordinal(self.cat.schema, keep_col);
            let col = data.column(ord);
            let rows = matched
                .get_mut(&keep_t)
                .ok_or(SimError::Internal("matched set vanished"))?;
            st.tuples += rows.len() as u64;
            rows.retain(|&r| {
                let v = col[r as usize];
                v != NULL_POSITION && keys.contains(&v)
            });
            Ok(())
        }

        fn access_table(
            &self,
            q: &Query,
            t: TableId,
            cfg: &IndexConfig,
            physical: &HashMap<Index, TreeIndex>,
            probe: Option<(ColumnId, &HashSet<i64>)>,
            st: &mut ExecStats,
        ) -> SimResult<Vec<u32>> {
            let data = self.table_data(t)?;
            let preds = q.predicates_on(self.cat.schema, t);
            let p = &self.params;

            enum Plan<'x> {
                Seq,
                IndexScan(&'x TreeIndex, &'x Predicate),
                IndexProbe(&'x TreeIndex, &'x HashSet<i64>),
            }
            let seq_est =
                p.seq_page_cost * data.pages() as f64 + p.cpu_tuple_cost * f64::from(data.rows);
            let mut best_est = seq_est;
            let mut plan = Plan::Seq;

            for idx in cfg.indexes() {
                if idx.table(self.cat.schema) != t {
                    continue;
                }
                let Some(phys) = physical.get(idx) else {
                    continue;
                };
                if let Some(pred) = preds.iter().find(|pr| pr.col == idx.leading()) {
                    let sel = pred.selectivity(self.cat.column(pred.col));
                    let tuples = sel * f64::from(data.rows);
                    let est = f64::from(phys.height) * p.random_page_cost
                        + p.seq_page_cost * phys.leaf_pages_for(tuples.ceil() as u64) as f64
                        + p.random_page_cost * tuples.min(2.0 * data.pages() as f64)
                        + p.cpu_tuple_cost * tuples;
                    if est < best_est {
                        best_est = est;
                        plan = Plan::IndexScan(phys, pred);
                    }
                }
                if let Some((join_col, keys)) = probe {
                    if idx.leading() == join_col {
                        let per_key =
                            f64::from(data.rows) / self.cat.column(join_col).ndv.max(1) as f64;
                        let est = keys.len() as f64
                            * (f64::from(phys.height) * p.random_page_cost
                                + p.random_page_cost * per_key.max(1.0)
                                + p.cpu_tuple_cost * per_key.max(1.0));
                        if est < best_est {
                            best_est = est;
                            plan = Plan::IndexProbe(phys, keys);
                        }
                    }
                }
            }

            let tally = match plan {
                Plan::Seq => &self.plans.seq,
                Plan::IndexScan(..) => &self.plans.index_scan,
                Plan::IndexProbe(..) => &self.plans.index_probe,
            };
            tally.set(tally.get() + 1);

            let candidates: Vec<u32> = match plan {
                Plan::Seq => {
                    st.seq_pages += data.pages();
                    st.tuples += u64::from(data.rows);
                    (0..data.rows).collect()
                }
                Plan::IndexScan(phys, pred) => {
                    let (lo, hi) = pred.position_bounds(self.cat.column(pred.col));
                    let (rows, entries) = phys.range_leading(lo, hi);
                    st.random_pages += u64::from(phys.height);
                    st.seq_pages += phys.leaf_pages_for(entries);
                    st.tuples += entries;
                    let pages: HashSet<u32> = rows.iter().map(|&r| data.page_of(r)).collect();
                    st.random_pages += pages.len() as u64;
                    rows
                }
                Plan::IndexProbe(phys, keys) => {
                    let mut rows = Vec::new();
                    let mut pages: HashSet<u32> = HashSet::new();
                    for &k in keys {
                        let (hit, entries) = phys.lookup_leading(k);
                        st.random_pages += u64::from(phys.height);
                        st.tuples += entries;
                        for &r in &hit {
                            pages.insert(data.page_of(r));
                        }
                        rows.extend(hit);
                    }
                    st.random_pages += pages.len() as u64;
                    rows
                }
            };

            let mut out = Vec::with_capacity(candidates.len());
            'rows: for r in candidates {
                for pred in &preds {
                    let ord = Storage::ordinal(self.cat.schema, pred.col);
                    let v = data.column(ord)[r as usize];
                    if v == NULL_POSITION || !reference_matches(pred, v, self.cat.column(pred.col))
                    {
                        continue 'rows;
                    }
                }
                if let Some((join_col, keys)) = probe {
                    let ord = Storage::ordinal(self.cat.schema, join_col);
                    let v = data.column(ord)[r as usize];
                    if v == NULL_POSITION || !keys.contains(&v) {
                        continue 'rows;
                    }
                }
                out.push(r);
            }
            Ok(out)
        }
    }

    /// The row check as written before predicates gained a resolved
    /// form: `position_at` per row and operand.
    fn reference_matches(pred: &Predicate, pos: i64, stats: &ColumnStats) -> bool {
        use pipa::sim::PredOp;
        match &pred.op {
            PredOp::Eq(f) => pos == stats.position_at(*f),
            PredOp::Le(f) => pos <= stats.position_at(*f),
            PredOp::Ge(f) => pos >= stats.position_at(*f),
            PredOp::Between(lo, hi) => {
                pos >= stats.position_at(*lo) && pos <= stats.position_at(*hi)
            }
            PredOp::In(fs) => fs.iter().any(|f| pos == stats.position_at(*f)),
        }
    }
}

use oracle::{build_tree_physical, TreeExecutor};

/// Schema, statistics and materialized storage, built the way
/// `DatabaseBuilder::build` materializes a database at scale 1.
struct Materialized {
    schema: Schema,
    cstats: Vec<ColumnStats>,
    tstats: Vec<TableStats>,
    storage: Storage,
}

impl Materialized {
    fn new(schema: Schema, cstats: Vec<ColumnStats>, seed: u64, row_cap: u32) -> Self {
        let mut storage = Storage::new(schema.num_tables());
        for t in schema.tables() {
            let rows = t.base_rows.max(1).min(u64::from(row_cap)) as u32;
            storage.set_table(generate_table(&schema, &cstats, t.id, rows, seed));
        }
        let tstats = schema
            .tables()
            .iter()
            .map(|t| {
                let data = storage.table(t.id).expect("every table materialized");
                TableStats {
                    rows: u64::from(data.rows),
                    pages: data.pages(),
                }
            })
            .collect();
        Materialized {
            schema,
            cstats,
            tstats,
            storage,
        }
    }

    fn cat(&self) -> Catalog<'_> {
        Catalog {
            schema: &self.schema,
            table_stats: &self.tstats,
            column_stats: &self.cstats,
        }
    }
}

/// Runs both executors side by side and tallies what was compared.
struct Differential<'a> {
    mat: &'a Materialized,
    new: Executor<'a>,
    old: TreeExecutor<'a>,
    queries: u64,
}

impl<'a> Differential<'a> {
    fn new(mat: &'a Materialized) -> Self {
        Differential {
            mat,
            new: Executor::new(mat.cat(), &mat.storage),
            old: TreeExecutor::new(mat.cat(), &mat.storage),
            queries: 0,
        }
    }

    /// Compare every query of `w` under `cfg`; returns the oracle's
    /// frequency-weighted workload cost, summed in workload order.
    fn check(&mut self, w: &Workload, cfg: &IndexConfig, label: &str) -> f64 {
        let cat = self.mat.cat();
        let phys = build_physical(cat, &self.mat.storage, cfg);
        let tree = build_tree_physical(cat, &self.mat.storage, cfg);
        let mut total = 0.0;
        for (i, wq) in w.iter().enumerate() {
            let q = &wq.query;
            let ctx = || {
                let names: Vec<String> = cfg
                    .indexes()
                    .iter()
                    .map(|x| x.name(&self.mat.schema))
                    .collect();
                let sql = q.render_sql(&self.mat.schema, |c| cat.column(c));
                format!("{label}, query {i} under {names:?}: {sql}")
            };
            let (want, want_cost) = self
                .old
                .execute_cost(q, cfg, &tree)
                .expect("oracle executes");
            let got = self.new.execute(q, cfg, &phys).expect("executes");
            assert_eq!(got.seq_pages, want.seq_pages, "seq_pages, {}", ctx());
            assert_eq!(
                got.random_pages,
                want.random_pages,
                "random_pages, {}",
                ctx()
            );
            assert_eq!(got.tuples, want.tuples, "tuples, {}", ctx());
            assert_eq!(got.rows_out, want.rows_out, "rows_out, {}", ctx());
            let got_cost = self.new.execute_cost(q, cfg, &phys).expect("executes");
            assert_eq!(
                got_cost.to_bits(),
                want_cost.to_bits(),
                "cost {got_cost} vs {want_cost}, {}",
                ctx()
            );
            total += wq.frequency as f64 * want_cost;
            self.queries += 1;
        }
        total
    }
}

/// The distinct columns `cols` yields, first occurrence first.
fn distinct(cols: impl IntoIterator<Item = ColumnId>) -> Vec<ColumnId> {
    let mut out = Vec::new();
    for c in cols {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Configurations for one workload: none, each of its first two filter
/// columns alone, all its filter columns together, its first eight
/// join-key columns four to a configuration, and a composite index over
/// two columns of one table that a single query filters or joins on.
fn configs_for(schema: &Schema, w: &Workload) -> Vec<IndexConfig> {
    let queries: Vec<&Query> = w.iter().map(|wq| &wq.query).collect();
    let filters = distinct(queries.iter().flat_map(|q| q.filter_columns()));
    let joins = distinct(queries.iter().flat_map(|q| q.join_columns()));
    let single =
        |cols: &[ColumnId]| IndexConfig::from_indexes(cols.iter().map(|&c| Index::single(c)));

    let mut out = vec![IndexConfig::empty()];
    out.extend(filters.iter().take(2).map(|&c| single(&[c])));
    out.push(single(&filters));
    out.extend(joins.chunks(4).take(2).map(single));
    let composite = queries.iter().find_map(|q| {
        let cols = distinct(q.filter_columns().into_iter().chain(q.join_columns()));
        cols.iter().enumerate().find_map(|(i, &a)| {
            let b = cols[i + 1..]
                .iter()
                .find(|&&b| schema.table_of(b) == schema.table_of(a))?;
            Index::multi(schema, vec![a, *b]).ok()
        })
    });
    out.push(IndexConfig::from_indexes([
        composite.expect("some query touches two columns of one table")
    ]));
    out
}

/// Compare both executors on `b` at a 20k-row cap over one normal
/// workload per seed, each seed on its own thread. The first seed also
/// checks the database's own executed costs. Returns the queries
/// compared and the oracle's access-path tally.
fn check_benchmark(b: Benchmark, seeds: &[u64]) -> (u64, [u64; 3]) {
    const DATA_SEED: u64 = 5;
    const ROW_CAP: u32 = 20_000;
    let db = b.database(1.0, Some((DATA_SEED, ROW_CAP)));
    let mat = Materialized::new(b.schema(), db.column_stats().to_vec(), DATA_SEED, ROW_CAP);
    assert_eq!(
        mat.tstats
            .iter()
            .map(|t| (t.rows, t.pages))
            .collect::<Vec<_>>(),
        db.table_stats()
            .iter()
            .map(|t| (t.rows, t.pages))
            .collect::<Vec<_>>(),
        "the suite materializes the database's own heap"
    );
    let gen = WorkloadGenerator::new(b.schema(), b.default_templates());
    let check_seed = |seed: u64| {
        let w = gen
            .normal(&mut ChaCha8Rng::seed_from_u64(seed))
            .expect("benchmark templates instantiate");
        let mut diff = Differential::new(&mat);
        for (k, cfg) in configs_for(&mat.schema, &w).iter().enumerate() {
            let label = format!("{} seed {seed} config {k}", b.name());
            let want = diff.check(&w, cfg, &label);
            // The database's cached, shared indexes give the same bits.
            if seed == seeds[0] {
                let got = db.actual_workload_cost(&w, cfg).expect("executes");
                assert_eq!(got.to_bits(), want.to_bits(), "database, {label}");
            }
        }
        (diff.queries, diff.old.plans.counts())
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| scope.spawn(move || check_seed(seed)))
            .collect();
        handles.into_iter().fold((0, [0; 3]), |(n, tally), h| {
            let (queries, plans) = h.join().expect("seed check passed");
            (n + queries, std::array::from_fn(|i| tally[i] + plans[i]))
        })
    })
}

fn assert_every_path(label: &str, plans: [u64; 3]) {
    let [seq, scan, probe] = plans;
    assert!(
        seq > 0 && scan > 0 && probe > 0,
        "{label}: seq {seq}, index scan {scan}, index probe {probe}"
    );
}

#[test]
fn tpch_executes_bit_identically() {
    let (queries, plans) = check_benchmark(Benchmark::TpcH, &[1, 2, 3, 4]);
    assert!(queries >= 4 * 18 * 7, "{queries} queries compared");
    assert_every_path("tpch", plans);
}

#[test]
fn tpcds_executes_bit_identically() {
    let (queries, plans) = check_benchmark(Benchmark::TpcDs, &[1, 2, 3, 4]);
    assert!(queries >= 4 * 90 * 7, "{queries} queries compared");
    assert_every_path("tpcds", plans);
}

/// A star schema with NULLs in a filtered column (`f_nul`, 30 %) and in
/// the fact table's join column (`f_dim`, 20 %), plus a nullable dimension
/// attribute.
fn nullable_star() -> Materialized {
    let mut schema = Schema::new();
    schema.add_table(
        "fact",
        30_000,
        &[
            ("f_id", DataType::Int),
            ("f_dim", DataType::Int),
            ("f_val", DataType::Int),
            ("f_nul", DataType::Int),
        ],
    );
    schema.add_table(
        "dim",
        500,
        &[
            ("d_id", DataType::Int),
            ("d_cat", DataType::Int),
            ("d_nul", DataType::Int),
        ],
    );
    let nullable = |mut s: ColumnStats, frac: f64| {
        s.null_frac = frac;
        s
    };
    let cstats = vec![
        ColumnStats::uniform(ColumnId(0), DataType::Int, 30_000, 0, 29_999),
        nullable(
            ColumnStats::uniform(ColumnId(1), DataType::Int, 500, 0, 499),
            0.2,
        ),
        ColumnStats::uniform(ColumnId(2), DataType::Int, 100, 0, 99),
        nullable(
            ColumnStats::uniform(ColumnId(3), DataType::Int, 1000, 0, 999),
            0.3,
        ),
        ColumnStats::uniform(ColumnId(4), DataType::Int, 500, 0, 499),
        ColumnStats::uniform(ColumnId(5), DataType::Int, 10, 0, 9),
        nullable(
            ColumnStats::uniform(ColumnId(6), DataType::Int, 50, 0, 49),
            0.25,
        ),
    ];
    Materialized::new(schema, cstats, 17, 30_000)
}

#[test]
fn nullable_columns_execute_bit_identically() {
    let mat = nullable_star();
    let s = &mat.schema;
    let col = |n: &str| s.column_id(n).expect("column exists");
    let (f_dim, f_val, f_nul) = (col("f_dim"), col("f_val"), col("f_nul"));
    let (d_id, d_cat, d_nul) = (col("d_id"), col("d_cat"), col("d_nul"));
    let filters = [
        Predicate::eq(f_nul, 0.4),
        Predicate::le(f_nul, 0.003),
        Predicate::le(f_nul, 0.6),
        Predicate::ge(f_nul, 0.995),
        Predicate::between(f_nul, 0.2, 0.203),
        Predicate::in_list(f_nul, vec![0.1, 0.5, 0.9]),
        Predicate::le(f_val, 0.3),
    ];
    let mut queries = Vec::new();
    for p in &filters {
        // Fact alone, ordered and aggregated so the surcharges apply.
        queries.push(
            QueryBuilder::new()
                .filter(s, p.clone())
                .select(f_val)
                .group_by(f_val)
                .order_by(f_val)
                .build(s)
                .expect("valid query"),
        );
        // Joined to a filtered dimension through the nullable key.
        for dp in [
            Predicate::eq(d_cat, 0.3),
            Predicate::le(d_nul, 0.1),
            Predicate::in_list(d_id, vec![0.25, 0.75]),
        ] {
            queries.push(
                QueryBuilder::new()
                    .join(s, f_dim, d_id)
                    .filter(s, p.clone())
                    .filter(s, dp)
                    .select(f_val)
                    .build(s)
                    .expect("valid query"),
            );
        }
    }
    // A join filtered on the nullable dimension attribute alone.
    queries.push(
        QueryBuilder::new()
            .join(s, f_dim, d_id)
            .filter(s, Predicate::between(d_nul, 0.0, 0.05))
            .select(f_val)
            .build(s)
            .expect("valid query"),
    );
    let w = Workload::from_queries(queries.into_iter().map(|q| (q, 1)));

    let configs = [
        IndexConfig::empty(),
        IndexConfig::from_indexes([Index::single(f_nul)]),
        IndexConfig::from_indexes([Index::single(f_dim)]),
        IndexConfig::from_indexes([
            Index::single(f_dim),
            Index::single(d_id),
            Index::single(f_nul),
        ]),
        IndexConfig::from_indexes([Index::single(d_nul), Index::single(d_cat)]),
        IndexConfig::from_indexes([Index::multi(s, vec![f_nul, f_val]).expect("one table")]),
        IndexConfig::from_indexes([Index::multi(s, vec![f_dim, f_nul]).expect("one table")]),
    ];
    let mut diff = Differential::new(&mat);
    for (k, cfg) in configs.iter().enumerate() {
        diff.check(&w, cfg, &format!("nullable star config {k}"));
    }
    assert_every_path("nullable star", diff.old.plans.counts());
}

/// A star whose join keys are sparse: `f_dim` and `d_id` each draw from
/// 1,000 positions spread evenly over `[0, 10^12]`, about 10^9 apart.
/// The executor keeps a key set as a bitmap only when its span is at
/// most 64 × (values inserted + rows tested), here at most
/// 64 × (20,000 + 20,000) = 2,560,000 positions. Any set of two or more
/// of these keys spans at least 10^9, so it takes the hash layout. TPC-H
/// keys are dense (about one position per distinct key), so its large
/// sets take the bitmap instead.
fn sparse_key_star() -> Materialized {
    let mut schema = Schema::new();
    schema.add_table(
        "fact",
        20_000,
        &[
            ("f_id", DataType::Int),
            ("f_dim", DataType::Int),
            ("f_val", DataType::Int),
        ],
    );
    schema.add_table(
        "dim",
        2_000,
        &[
            ("d_id", DataType::Int),
            ("d_cat", DataType::Int),
            ("d_val", DataType::Int),
        ],
    );
    const SPAN: i64 = 1_000_000_000_000;
    let cstats = vec![
        ColumnStats::uniform(ColumnId(0), DataType::Int, 20_000, 0, 19_999),
        ColumnStats::uniform(ColumnId(1), DataType::Int, 1000, 0, SPAN),
        ColumnStats::uniform(ColumnId(2), DataType::Int, 100, 0, 99),
        ColumnStats::uniform(ColumnId(3), DataType::Int, 1000, 0, SPAN),
        ColumnStats::uniform(ColumnId(4), DataType::Int, 10, 0, 9),
        ColumnStats::uniform(ColumnId(5), DataType::Int, 200, 0, 199),
    ];
    Materialized::new(schema, cstats, 23, 20_000)
}

#[test]
fn sparse_join_keys_execute_bit_identically() {
    let mat = sparse_key_star();
    let s = &mat.schema;
    let col = |n: &str| s.column_id(n).expect("column exists");
    let (f_id, f_dim, f_val) = (col("f_id"), col("f_dim"), col("f_val"));
    let (d_id, d_cat, d_val) = (col("d_id"), col("d_cat"), col("d_val"));
    let joined = |filters: &[Predicate]| {
        filters
            .iter()
            .fold(QueryBuilder::new().join(s, f_dim, d_id), |b, p| {
                b.filter(s, p.clone())
            })
            .select(f_val)
            .build(s)
            .expect("valid query")
    };
    let queries = vec![
        // The fact table is probed with no predicate of its own.
        joined(&[Predicate::eq(d_cat, 0.4)]),
        joined(&[Predicate::le(d_val, 0.05)]),
        // Two or three dimension keys: cheap enough to probe by index.
        // Key `k` of the grid sits at fraction k / 999.
        joined(&[Predicate::in_list(d_id, vec![100.0 / 999.0, 900.0 / 999.0])]),
        joined(&[Predicate::in_list(d_id, vec![0.2, 0.5, 0.8])]),
        joined(&[Predicate::between(d_id, 0.5, 0.5025)]),
        // The fact table's first predicate is an IN list.
        joined(&[
            Predicate::in_list(f_val, vec![0.1, 0.3, 0.5]),
            Predicate::le(f_id, 0.5),
            Predicate::le(d_cat, 0.5),
        ]),
        joined(&[
            Predicate::between(f_dim, 0.2, 0.4),
            Predicate::ge(d_val, 0.3),
        ]),
        // A selective fact filter: the dimension is probed with no
        // predicate of its own, against a few hundred fact keys.
        joined(&[Predicate::le(f_id, 0.01)]),
        // The fact table alone, aggregated and ordered.
        QueryBuilder::new()
            .filter(s, Predicate::in_list(f_dim, vec![0.25, 0.5, 0.75]))
            .filter(s, Predicate::le(f_val, 0.6))
            .select(f_val)
            .group_by(f_val)
            .order_by(f_val)
            .build(s)
            .expect("valid query"),
    ];
    let w = Workload::from_queries(queries.into_iter().map(|q| (q, 1)));

    let configs = [
        IndexConfig::empty(),
        IndexConfig::from_indexes([Index::single(f_dim)]),
        IndexConfig::from_indexes([Index::single(d_id)]),
        IndexConfig::from_indexes([Index::single(f_val), Index::single(d_cat)]),
        IndexConfig::from_indexes([
            Index::single(f_dim),
            Index::single(d_id),
            Index::single(f_id),
            Index::single(d_val),
        ]),
        IndexConfig::from_indexes([Index::multi(s, vec![f_dim, f_val]).expect("one table")]),
    ];
    let mut diff = Differential::new(&mat);
    for (k, cfg) in configs.iter().enumerate() {
        diff.check(&w, cfg, &format!("sparse-key star config {k}"));
    }
    assert_every_path("sparse-key star", diff.old.plans.counts());
}
