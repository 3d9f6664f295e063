//! Row-store executor with simulated page-access accounting.
//!
//! The executor produces "actual" costs that are independent of the
//! analytical estimates: it picks an access path per table (by estimate,
//! as a real optimizer would), then *executes* it against the materialized
//! data, counting sequential page reads, random page reads, and tuples
//! processed. Joins are evaluated by semijoin reduction, which is exact
//! for the acyclic key–foreign-key joins all our benchmark templates use,
//! with an index nested-loop path when a join-key index makes probing
//! cheaper than scanning.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use crate::cost::{Catalog, CostParams};
use crate::datagen::NULL_POSITION;
use crate::error::{SimError, SimResult};
use crate::index::{Index, IndexConfig};
use crate::predicate::{PositionTest, Predicate};
use crate::query::Query;
use crate::schema::{ColumnId, TableId};
use crate::storage::{PhysicalIndex, Storage};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Raw execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Sequentially read pages.
    pub seq_pages: u64,
    /// Randomly read pages (index descents, heap fetches, probes).
    pub random_pages: u64,
    /// Tuples processed (scanned or probed).
    pub tuples: u64,
    /// Rows in the final result.
    pub rows_out: u64,
}

impl ExecStats {
    /// Convert counters to a cost in the same units as the analytical
    /// model.
    pub fn cost(&self, p: &CostParams) -> f64 {
        p.seq_page_cost * self.seq_pages as f64
            + p.random_page_cost * self.random_pages as f64
            + p.cpu_tuple_cost * self.tuples as f64
    }
}

/// Distinct non-NULL join-key positions: the probe keys of an index
/// nested loop and the keys of a semijoin reduction.
///
/// The layout follows the sizes at hand. A bitmap over the keys' own
/// `[min, max]` is used when its span is at most 64 bits for each value
/// inserted or row tested against the set, so it never takes more than
/// 8 bytes per value or probe, the same order as a hash set. Sparser
/// keys go into a hash set.
enum KeySet {
    Bitmap(KeyBitmap),
    Hash(HashSet<i64, BuildHasherDefault<KeyHasher>>),
}

impl KeySet {
    /// The distinct non-NULL positions among `values`, laid out for a set
    /// that `tested` rows will be checked against. Two passes: the span
    /// and count, then the keys.
    fn build<I>(values: I, tested: u32) -> KeySet
    where
        I: Iterator<Item = i64> + Clone,
    {
        let values = values.filter(|&v| v != NULL_POSITION);
        let (mut min, mut max, mut inserted) = (i64::MAX, i64::MIN, 0u64);
        for v in values.clone() {
            min = min.min(v);
            max = max.max(v);
            inserted += 1;
        }
        if inserted == 0 {
            return KeySet::Bitmap(KeyBitmap {
                base: 0,
                words: Vec::new(),
                len: 0,
            });
        }
        // NULL (`i64::MIN`) is excluded, so `max - min` fits a u64 with
        // room for the `+ 1`.
        let span = max.wrapping_sub(min) as u64 + 1;
        if span <= 64 * (inserted + u64::from(tested)) {
            let mut words = vec![0u64; span.div_ceil(64) as usize];
            let mut len = 0;
            for v in values {
                let off = v.wrapping_sub(min) as u64;
                let word = &mut words[(off / 64) as usize];
                let bit = 1 << (off % 64);
                len += usize::from(*word & bit == 0);
                *word |= bit;
            }
            KeySet::Bitmap(KeyBitmap {
                base: min,
                words,
                len,
            })
        } else {
            let mut set = HashSet::with_capacity_and_hasher(inserted as usize, Default::default());
            set.extend(values);
            KeySet::Hash(set)
        }
    }

    /// Number of distinct keys.
    fn len(&self) -> usize {
        match self {
            KeySet::Bitmap(b) => b.len,
            KeySet::Hash(set) => set.len(),
        }
    }

    /// Whether `v` is a key (never for NULL).
    #[cfg(test)]
    fn contains(&self, v: i64) -> bool {
        match self {
            KeySet::Bitmap(b) => b.contains(v),
            KeySet::Hash(set) => set.contains(&v),
        }
    }

    /// Every key, ascending. Each counter the keys feed is a sum over
    /// keys, so the order changes no count.
    fn ascending(&self) -> Vec<i64> {
        match self {
            KeySet::Bitmap(b) => {
                let mut keys = Vec::with_capacity(b.len);
                for (i, &word) in (0u64..).zip(&b.words) {
                    let mut w = word;
                    while w != 0 {
                        let off = i * 64 + u64::from(w.trailing_zeros());
                        keys.push(b.base.wrapping_add(off as i64));
                        w &= w - 1;
                    }
                }
                keys
            }
            KeySet::Hash(set) => {
                let mut keys: Vec<i64> = set.iter().copied().collect();
                keys.sort_unstable();
                keys
            }
        }
    }
}

/// Bit `k - base` of `words` is set for each key `k`; `len` counts them.
struct KeyBitmap {
    base: i64,
    words: Vec<u64>,
    len: usize,
}

impl KeyBitmap {
    /// A range check and a bit test. Values below `base` wrap to offsets
    /// past every set bit, NULL included.
    fn contains(&self, v: i64) -> bool {
        let off = v.wrapping_sub(self.base) as u64;
        self.words
            .get((off / 64) as usize)
            .is_some_and(|w| w >> (off % 64) & 1 == 1)
    }
}

/// Multiplicative hasher for [`KeySet`]'s hash layout (the FxHash recipe:
/// add, multiply, rotate on finish). The keys are domain positions from
/// this crate's own data generator, never outside input, so SipHash's
/// protection against crafted collisions buys nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, v: u64) {
        self.0 = self.0.wrapping_add(v).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One row-level test on one column of the accessed table: a resolved
/// predicate or probe-key membership. NULL never passes.
struct ColumnTest<'x> {
    col: &'x [i64],
    test: RowTest<'x>,
}

enum RowTest<'x> {
    /// `lo <= v <= hi`, with `lo` above NULL.
    Range(i64, i64),
    /// `v` is one of the listed non-NULL positions.
    In(Vec<i64>),
    /// `v` is a probe key.
    Keys(&'x KeySet),
}

impl RowTest<'_> {
    /// A predicate's position test with NULL excluded up front, so a
    /// match is the test alone.
    fn position(test: PositionTest) -> Self {
        match test {
            PositionTest::Range(lo, hi) => RowTest::Range(lo.max(NULL_POSITION + 1), hi),
            PositionTest::In(mut ps) => {
                ps.retain(|&p| p != NULL_POSITION);
                RowTest::In(ps)
            }
        }
    }
}

impl ColumnTest<'_> {
    /// The rows of `rows` that pass, in order; `None` stands for every
    /// row of the table, scanned in heap order.
    fn narrow(&self, rows: Option<Vec<u32>>) -> Vec<u32> {
        let col = self.col;
        match &self.test {
            RowTest::Range(lo, hi) => narrow_by(col, rows, |v| *lo <= v && v <= *hi),
            RowTest::In(ps) => narrow_by(col, rows, |v| ps.contains(&v)),
            RowTest::Keys(KeySet::Bitmap(b)) => narrow_by(col, rows, |v| b.contains(v)),
            RowTest::Keys(KeySet::Hash(set)) => narrow_by(col, rows, |v| set.contains(&v)),
        }
    }
}

/// The rows of `rows` (or of the whole column) whose value passes. The
/// whole-column scan writes every row id and advances past the passing
/// ones, so it does not branch on the test.
fn narrow_by(col: &[i64], rows: Option<Vec<u32>>, pass: impl Fn(i64) -> bool) -> Vec<u32> {
    match rows {
        Some(mut rows) => {
            rows.retain(|&r| pass(col[r as usize]));
            rows
        }
        None => {
            let mut out = vec![0u32; col.len()];
            let mut n = 0;
            for (r, &v) in (0u32..).zip(col) {
                out[n] = r;
                n += usize::from(pass(v));
            }
            out.truncate(n);
            out
        }
    }
}

/// The rows that pass every test, one column at a time: `candidates`, or
/// when `None` every row of a table with `rows` rows.
fn narrow_all(tests: &[ColumnTest<'_>], candidates: Option<Vec<u32>>, rows: u32) -> Vec<u32> {
    tests
        .iter()
        .fold(candidates, |acc, t| Some(t.narrow(acc)))
        .unwrap_or_else(|| (0..rows).collect())
}

/// Distinct heap pages touched by an access, one bit per page.
struct PageBitmap(Vec<u64>);

impl PageBitmap {
    fn new(pages: u64) -> Self {
        PageBitmap(vec![0; pages.div_ceil(64) as usize])
    }

    fn insert(&mut self, page: u32) {
        self.0[(page / 64) as usize] |= 1 << (page % 64);
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// Executes queries against materialized [`Storage`], using physical
/// indexes supplied per call.
pub struct Executor<'a> {
    cat: Catalog<'a>,
    storage: &'a Storage,
    params: CostParams,
}

impl<'a> Executor<'a> {
    /// New executor over a catalog and its storage.
    pub fn new(cat: Catalog<'a>, storage: &'a Storage) -> Self {
        Executor {
            cat,
            storage,
            params: CostParams::default(),
        }
    }

    /// Execute a query under an index configuration. `physical` must hold
    /// a built [`PhysicalIndex`] for every index in `cfg` (extra entries
    /// are fine). Errors with [`SimError::MissingData`] when a referenced
    /// table has no materialized data.
    pub fn execute(
        &self,
        q: &Query,
        cfg: &IndexConfig,
        physical: &HashMap<Index, Arc<PhysicalIndex>>,
    ) -> SimResult<ExecStats> {
        let mut st = ExecStats::default();
        if q.tables.is_empty() {
            return Ok(st);
        }

        // Estimated filtered rows per table, for join ordering.
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
            // Join edge to an already-processed table, if any.
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
                // The keys are tested against every row of `t`.
                let tested = self.table_data(t)?.rows;
                let outer_keys =
                    self.column_values(other_t, other_col, &matched[&other_t], tested)?;
                self.access_table(q, t, cfg, physical, Some((my_col, &outer_keys)), &mut st)?
            } else {
                self.access_table(q, t, cfg, physical, None, &mut st)?
            };
            matched.insert(t, rows);
        }

        // Extra semijoin reduction passes to propagate filters both ways.
        for _ in 0..2 {
            for j in &q.joins {
                self.reduce_edge(j.left, j.right, &mut matched, &mut st)?;
                self.reduce_edge(j.right, j.left, &mut matched, &mut st)?;
            }
        }

        // Result cardinality: the surviving rows of the largest (fact)
        // table — exact under key–FK star/snowflake joins.
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

    /// Execute and convert to cost, including aggregation/sort surcharges
    /// mirroring the analytical model.
    pub fn execute_cost(
        &self,
        q: &Query,
        cfg: &IndexConfig,
        physical: &HashMap<Index, Arc<PhysicalIndex>>,
    ) -> SimResult<f64> {
        let st = self.execute(q, cfg, physical)?;
        pipa_obs::count("exec_queries", 1);
        pipa_obs::count("exec_seq_pages", st.seq_pages);
        pipa_obs::count("exec_random_pages", st.random_pages);
        pipa_obs::count("exec_tuples", st.tuples);
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
        Ok(cost)
    }

    /// Values of `col` over the given rows (NULLs excluded), as a key set
    /// that `tested` rows will be checked against.
    fn column_values(
        &self,
        t: TableId,
        col: ColumnId,
        rows: &[u32],
        tested: u32,
    ) -> SimResult<KeySet> {
        let data = self.table_data(t)?;
        let col_data = data.column(Storage::ordinal(self.cat.schema, col));
        Ok(KeySet::build(
            rows.iter().map(|&r| col_data[r as usize]),
            tested,
        ))
    }

    /// Materialized data for `t`, or [`SimError::MissingData`].
    fn table_data(&self, t: TableId) -> SimResult<&'a crate::storage::TableData> {
        self.storage
            .table(t)
            .ok_or_else(|| SimError::MissingData(self.cat.schema.table(t).name.clone()))
    }

    /// Semijoin-reduce `keep` side against `by` side along one edge.
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
        let tested = u32::try_from(matched[&keep_t].len()).unwrap_or(u32::MAX);
        let keys = self.column_values(by_t, by_col, &matched[&by_t], tested)?;
        let data = self.table_data(keep_t)?;
        let test = ColumnTest {
            col: data.column(Storage::ordinal(self.cat.schema, keep_col)),
            test: RowTest::Keys(&keys),
        };
        let rows = matched
            .get_mut(&keep_t)
            .ok_or(SimError::Internal("matched set vanished"))?;
        st.tuples += rows.len() as u64;
        *rows = test.narrow(Some(std::mem::take(rows)));
        Ok(())
    }

    /// Pick and execute an access path for one table, returning matched
    /// row ids. `probe` optionally provides (join column, outer key set)
    /// enabling an index nested-loop path.
    fn access_table(
        &self,
        q: &Query,
        t: TableId,
        cfg: &IndexConfig,
        physical: &HashMap<Index, Arc<PhysicalIndex>>,
        probe: Option<(ColumnId, &KeySet)>,
        st: &mut ExecStats,
    ) -> SimResult<Vec<u32>> {
        let data = self.table_data(t)?;
        let preds = q.predicates_on(self.cat.schema, t);
        let p = &self.params;

        // Candidate estimates: (cost, plan). The probe variant carries
        // its outer key set so choosing it can never outlive the
        // knowledge that keys exist.
        enum Plan<'x> {
            Seq,
            IndexScan(&'x PhysicalIndex, &'x Predicate),
            IndexProbe(&'x PhysicalIndex, &'x KeySet),
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
            // Filter-driven index scan on the leading column.
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
            // Join-driven probe.
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

        // Residual filtering: every predicate (re-checking the index
        // predicate is harmless), then the probe key membership, each
        // resolved once and applied one column at a time.
        let ordinal = |c: ColumnId| Storage::ordinal(self.cat.schema, c);
        let tests: Vec<ColumnTest<'_>> = preds
            .iter()
            .map(|pred| ColumnTest {
                col: data.column(ordinal(pred.col)),
                test: RowTest::position(pred.position_test(self.cat.column(pred.col))),
            })
            .chain(probe.map(|(join_col, keys)| ColumnTest {
                col: data.column(ordinal(join_col)),
                test: RowTest::Keys(keys),
            }))
            .collect();

        Ok(match plan {
            Plan::Seq => {
                st.seq_pages += data.pages();
                st.tuples += u64::from(data.rows);
                narrow_all(&tests, None, data.rows)
            }
            Plan::IndexScan(phys, pred) => {
                let (lo, hi) = pred.position_bounds(self.cat.column(pred.col));
                let rows = phys.range_leading(lo, hi);
                let entries = rows.len() as u64;
                st.random_pages += u64::from(phys.height);
                st.seq_pages += phys.leaf_pages_for(entries);
                st.tuples += entries;
                // Heap fetches: distinct pages of the fetched rows.
                let mut pages = PageBitmap::new(data.pages());
                for &r in rows {
                    pages.insert(data.page_of(r));
                }
                st.random_pages += pages.count();
                narrow_all(&tests, Some(rows.to_vec()), data.rows)
            }
            Plan::IndexProbe(phys, keys) => {
                let mut hits = Vec::new();
                let mut pages = PageBitmap::new(data.pages());
                for k in keys.ascending() {
                    let hit = phys.lookup_leading(k);
                    st.random_pages += u64::from(phys.height);
                    st.tuples += hit.len() as u64;
                    for &r in hit {
                        pages.insert(data.page_of(r));
                    }
                    hits.extend_from_slice(hit);
                }
                st.random_pages += pages.count();
                narrow_all(&tests, Some(hits), data.rows)
            }
        })
    }
}

/// Build physical indexes for every index of a configuration.
pub fn build_physical(
    cat: Catalog<'_>,
    storage: &Storage,
    cfg: &IndexConfig,
) -> HashMap<Index, Arc<PhysicalIndex>> {
    cfg.indexes()
        .iter()
        .filter_map(|i| {
            let data = storage.table(i.table(cat.schema))?;
            let phys = PhysicalIndex::build(cat.schema, data, i.clone());
            Some((i.clone(), Arc::new(phys)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AnalyticalCostModel;
    use crate::datagen::generate_table;
    use crate::query::QueryBuilder;
    use crate::schema::{DataType, Schema};
    use crate::stats::{ColumnStats, TableStats};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    struct Fixture {
        schema: Schema,
        tstats: Vec<TableStats>,
        cstats: Vec<ColumnStats>,
        storage: Storage,
    }

    impl Fixture {
        fn new() -> Self {
            let mut schema = Schema::new();
            schema.add_table(
                "fact",
                100_000,
                &[
                    ("f_id", DataType::Int),
                    ("f_dim", DataType::Int),
                    ("f_val", DataType::Int),
                ],
            );
            schema.add_table(
                "dim",
                2000,
                &[("d_id", DataType::Int), ("d_cat", DataType::Int)],
            );
            let cstats = vec![
                ColumnStats::uniform(ColumnId(0), DataType::Int, 100_000, 0, 99_999),
                ColumnStats::uniform(ColumnId(1), DataType::Int, 2000, 0, 1999),
                ColumnStats::uniform(ColumnId(2), DataType::Int, 100, 0, 99),
                ColumnStats::uniform(ColumnId(3), DataType::Int, 2000, 0, 1999),
                ColumnStats::uniform(ColumnId(4), DataType::Int, 10, 0, 9),
            ];
            let mut storage = Storage::new(2);
            for t in schema.tables() {
                let rows = t.base_rows as u32;
                storage.set_table(generate_table(&schema, &cstats, t.id, rows, 99));
            }
            let tstats = schema
                .tables()
                .iter()
                .map(|t| {
                    let d = storage.table(t.id).unwrap();
                    TableStats {
                        rows: u64::from(d.rows),
                        pages: d.pages(),
                    }
                })
                .collect();
            Fixture {
                schema,
                tstats,
                cstats,
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

        fn col(&self, n: &str) -> ColumnId {
            self.schema.column_id(n).unwrap()
        }
    }

    #[test]
    fn index_reduces_actual_pages() {
        let fx = Fixture::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_id"), 0.5))
            .select(fx.col("f_val"))
            .build(&fx.schema)
            .unwrap();
        let ex = Executor::new(fx.cat(), &fx.storage);
        let empty = IndexConfig::empty();
        let none = ex.execute(&q, &empty, &HashMap::new()).unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(fx.col("f_id"))]);
        let phys = build_physical(fx.cat(), &fx.storage, &cfg);
        let with = ex.execute(&q, &cfg, &phys).unwrap();
        assert_eq!(none.rows_out, with.rows_out, "same answer");
        assert!(
            with.seq_pages + with.random_pages < (none.seq_pages + none.random_pages) / 4,
            "index must cut page reads: {with:?} vs {none:?}"
        );
    }

    #[test]
    fn seq_and_index_agree_on_result() {
        let fx = Fixture::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::between(fx.col("f_dim"), 0.2, 0.3))
            .filter(&fx.schema, Predicate::le(fx.col("f_val"), 0.5))
            .select(fx.col("f_id"))
            .build(&fx.schema)
            .unwrap();
        let ex = Executor::new(fx.cat(), &fx.storage);
        let none = ex
            .execute(&q, &IndexConfig::empty(), &HashMap::new())
            .unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]);
        let phys = build_physical(fx.cat(), &fx.storage, &cfg);
        let with = ex.execute(&q, &cfg, &phys).unwrap();
        assert_eq!(none.rows_out, with.rows_out);
        assert!(none.rows_out > 0, "fixture should match something");
    }

    #[test]
    fn join_semijoin_filters_fact() {
        let fx = Fixture::new();
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .filter(&fx.schema, Predicate::eq(fx.col("d_cat"), 0.0))
            .select(fx.col("f_val"))
            .build(&fx.schema)
            .unwrap();
        let ex = Executor::new(fx.cat(), &fx.storage);
        let st = ex
            .execute(&q, &IndexConfig::empty(), &HashMap::new())
            .unwrap();
        // ~1/10 of dims selected → ~1/10 of fact rows survive.
        let frac = st.rows_out as f64 / 100_000.0;
        assert!(frac > 0.02 && frac < 0.3, "join output fraction {frac}");
    }

    #[test]
    fn join_key_index_enables_cheap_probe() {
        let fx = Fixture::new();
        let q = QueryBuilder::new()
            .join(&fx.schema, fx.col("f_dim"), fx.col("d_id"))
            .filter(&fx.schema, Predicate::eq(fx.col("d_id"), 0.5))
            .select(fx.col("f_val"))
            .build(&fx.schema)
            .unwrap();
        let ex = Executor::new(fx.cat(), &fx.storage);
        let none = ex
            .execute(&q, &IndexConfig::empty(), &HashMap::new())
            .unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(fx.col("f_dim"))]);
        let phys = build_physical(fx.cat(), &fx.storage, &cfg);
        let with = ex.execute(&q, &cfg, &phys).unwrap();
        assert_eq!(none.rows_out, with.rows_out);
        assert!(
            with.seq_pages + with.random_pages < none.seq_pages + none.random_pages,
            "probe should be cheaper: {with:?} vs {none:?}"
        );
    }

    #[test]
    fn actual_and_estimated_rank_indexes_alike() {
        // The executor and the analytical model must agree on *which*
        // index is best for a query (ordinal fidelity).
        let fx = Fixture::new();
        let q = QueryBuilder::new()
            .filter(&fx.schema, Predicate::eq(fx.col("f_id"), 0.25))
            .select(fx.col("f_val"))
            .build(&fx.schema)
            .unwrap();
        let m = AnalyticalCostModel::new();
        let ex = Executor::new(fx.cat(), &fx.storage);
        let mut est = Vec::new();
        let mut act = Vec::new();
        for c in ["f_id", "f_dim", "f_val"] {
            let cfg = IndexConfig::from_indexes([Index::single(fx.col(c))]);
            let phys = build_physical(fx.cat(), &fx.storage, &cfg);
            est.push((m.query_cost(fx.cat(), &q, &cfg), c));
            act.push((ex.execute_cost(&q, &cfg, &phys).unwrap(), c));
        }
        let best_est = est.iter().min_by(|a, b| a.0.total_cmp(&b.0)).unwrap().1;
        let best_act = act.iter().min_by(|a, b| a.0.total_cmp(&b.0)).unwrap().1;
        assert_eq!(best_est, best_act);
        assert_eq!(best_est, "f_id");
    }

    /// Check a key set against its `BTreeSet` oracle: `len`, the visited
    /// keys, and `contains` on every value, its neighbours and `probes`.
    fn assert_matches_oracle(set: &KeySet, values: &[i64], probes: &[i64]) {
        let oracle: BTreeSet<i64> = values
            .iter()
            .copied()
            .filter(|&v| v != NULL_POSITION)
            .collect();
        assert_eq!(set.len(), oracle.len(), "distinct count of {values:?}");
        assert_eq!(
            set.ascending(),
            oracle.iter().copied().collect::<Vec<_>>(),
            "visited keys of {values:?}"
        );
        assert!(!set.contains(NULL_POSITION), "NULL is never a key");
        for &v in values.iter().chain(probes) {
            for p in [v, v.wrapping_sub(1), v.wrapping_add(1)] {
                assert_eq!(
                    set.contains(p),
                    oracle.contains(&p),
                    "contains({p}) over {values:?}"
                );
            }
        }
    }

    fn is_bitmap(set: &KeySet) -> bool {
        matches!(set, KeySet::Bitmap(_))
    }

    /// A value for the key-set property: NULL, either extreme, a repeat
    /// of the previous value, or `anchor` plus an offset below `2^bits`.
    fn key_value(prev: Option<i64>, anchor: i64, bits: u32, kind: u8, raw: u64) -> i64 {
        match kind {
            0 => NULL_POSITION,
            1 => i64::MIN + 1,
            2 => i64::MAX,
            3..=10 => prev.unwrap_or(anchor),
            _ => anchor.wrapping_add((raw >> (64 - bits)) as i64),
        }
    }

    /// Offset widths for [`key_value`]: half the cases stay below 2^16,
    /// where bitmaps occur.
    fn offset_bits() -> impl Strategy<Value = u32> {
        (0u8..2, 1u32..=64).prop_map(|(wide, b)| if wide == 1 { b } else { b % 16 + 1 })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn key_set_layouts_match_a_btree_oracle(
            anchor in i64::MIN..=i64::MAX,
            bits in offset_bits(),
            picks in proptest::collection::vec((0u8..64, 0u64..=u64::MAX), 0..48),
            probes in proptest::collection::vec(i64::MIN..=i64::MAX, 0..16),
        ) {
            // NULLs and extremes are rarer than repeats, repeats rarer
            // than plain offsets.
            let mut values: Vec<i64> = Vec::new();
            for &(kind, raw) in &picks {
                values.push(key_value(values.last().copied(), anchor, bits, kind, raw));
            }
            let keys: Vec<i64> = values.iter().copied().filter(|&v| v != NULL_POSITION).collect();
            let span = match (keys.iter().min(), keys.iter().max()) {
                (Some(&lo), Some(&hi)) => Some(hi.wrapping_sub(lo) as u64 + 1),
                _ => None,
            };
            let mut near = probes.clone();
            near.extend(keys.iter().map(|&k| k.wrapping_add(64)));

            // No rows tested: the values alone pay for the bitmap.
            let auto = KeySet::build(values.iter().copied(), 0);
            let dense = span.is_none_or(|s| s <= 64 * keys.len() as u64);
            prop_assert_eq!(is_bitmap(&auto), dense, "span {:?}, {} values", span, keys.len());
            assert_matches_oracle(&auto, &values, &near);

            match span {
                // Enough rows tested make any small span a bitmap.
                Some(s) if s <= 1 << 20 => {
                    let tested = u32::try_from(s.div_ceil(64)).unwrap();
                    let forced = KeySet::build(values.iter().copied(), tested);
                    prop_assert!(is_bitmap(&forced));
                    assert_matches_oracle(&forced, &values, &near);
                }
                // No row count makes a span above 2^62 a bitmap.
                Some(s) if s > 1 << 62 => {
                    let forced = KeySet::build(values.iter().copied(), u32::MAX);
                    prop_assert!(!is_bitmap(&forced), "span {} took a bitmap", s);
                    assert_matches_oracle(&forced, &values, &near);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn key_set_layouts_cover_both_sides_of_the_rule() {
        // 1,000 keys over a span of 10^12 hash; 1,000 keys over 64,000
        // positions sit exactly at the bitmap bound.
        let sparse: Vec<i64> = (0..1000).map(|i| i * 1_000_000_000).collect();
        let set = KeySet::build(sparse.iter().copied(), 200_000);
        assert!(!is_bitmap(&set));
        assert_matches_oracle(&set, &sparse, &[]);
        let dense: Vec<i64> = (0..1000).map(|i| -5 + i * 64).collect();
        let span = 999 * 64 + 1;
        assert!(span <= 64 * 1000);
        let set = KeySet::build(dense.iter().copied(), 0);
        assert!(is_bitmap(&set));
        assert_matches_oracle(&set, &dense, &[]);
        // The widest possible span stays a hash set at any row count.
        let extremes = [i64::MIN + 1, i64::MAX, NULL_POSITION, 0];
        let set = KeySet::build(extremes.iter().copied(), u32::MAX);
        assert!(!is_bitmap(&set));
        assert_matches_oracle(&set, &extremes, &[i64::MIN + 2, i64::MAX - 1]);
        // Only NULLs: an empty set.
        let set = KeySet::build([NULL_POSITION; 3].into_iter(), 10);
        assert_eq!(set.len(), 0);
        assert!(set.ascending().is_empty());
    }

    #[test]
    fn empty_result_is_handled() {
        let fx = Fixture::new();
        // f_val domain is [0,99]; In-list on a position that is filtered to
        // an empty set after residual checks still executes cleanly.
        let q = QueryBuilder::new()
            .filter(
                &fx.schema,
                Predicate::in_list(fx.col("f_id"), vec![0.123_456]),
            )
            .filter(&fx.schema, Predicate::eq(fx.col("f_val"), 0.77))
            .select(fx.col("f_val"))
            .build(&fx.schema)
            .unwrap();
        let ex = Executor::new(fx.cat(), &fx.storage);
        let st = ex
            .execute(&q, &IndexConfig::empty(), &HashMap::new())
            .unwrap();
        assert!(st.rows_out <= 5);
    }
}
