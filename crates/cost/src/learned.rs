//! [`LearnedIndexBackend`] — an RMI/ALEX-style learned index structure
//! as a poisoning target.
//!
//! Three PAPERS.md entries attack learned *index structures* rather than
//! advisors: an RMI stores no B-tree, just a model of each table's key
//! CDF, predicts a key's position, and repairs mispredictions with a
//! bounded local search. Poisoning the keys the model is (re)fit on
//! inflates its error bound, which inflates every lookup — the structure
//! itself degrades, no advisor involved.
//!
//! This backend reproduces that regime behind the unchanged
//! [`CostBackend`] seam. Each table carries a tiny `pipa-nn` [`Mlp`]
//! fitted to the CDF of the *observed key fractions* (predicate operands
//! in `pipa-sim` are domain fractions, so `[0, 1]` is the native key
//! space). An indexed access costs
//!
//! ```text
//! traverse(log2 rows)  +  err · pages   +  selectivity · pages
//!                         ^^^^^^^^^^^^ the mispredict search window
//! ```
//!
//! where `err` is the model's maximum CDF misprediction over its fitted
//! sample. [`CostBackend::observe_training`] — called by the stress
//! harness at train/retrain time — appends the workload's key fractions
//! and refits from scratch (the ALEX analogue of a structural model
//! rebuild), so the probe→inject→retrain pipeline and the stream arms
//! race attack the index structure directly: adversarial key clusters
//! skew the fitted CDF, `err` grows, and *clean* traffic pays for it.
//!
//! Determinism: fitting is seeded and single-threaded, inference is the
//! deterministic [`Mlp::infer`] path, and costs are pure functions of
//! `(catalog, models, query, config)` between `observe_training` calls —
//! so `--jobs` grids stay byte-identical as long as each parallel cell
//! owns its backend (the harness constructs one per cell, exactly like
//! it builds one simulator per cell).

use crate::backend::CostBackend;
use crate::error::{CostError, CostResult};
use pipa_nn::mlp::Activation;
use pipa_nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa_sim::cost::Catalog;
use pipa_sim::{ColumnStats, IndexConfig, PredOp, Query, Schema, TableId, TableStats, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Hyperparameters of the learned index structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedIndexConfig {
    /// RNG seed for model initialization (refits re-derive from it).
    pub seed: u64,
    /// Hidden width of the per-table CDF model.
    pub hidden: usize,
    /// Adam epochs per (re)fit.
    pub fit_epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Initial uniform key sample per table (the "bulk load").
    pub initial_keys: usize,
    /// Retained observed keys per table; older keys age out first
    /// (bounds refit cost and memory on long streams).
    pub max_keys: usize,
}

impl Default for LearnedIndexConfig {
    fn default() -> Self {
        LearnedIndexConfig {
            seed: 0,
            hidden: 8,
            fit_epochs: 60,
            lr: 0.05,
            initial_keys: 33,
            max_keys: 2048,
        }
    }
}

impl LearnedIndexConfig {
    /// Cheaper fits for unit tests.
    pub fn fast() -> Self {
        LearnedIndexConfig {
            fit_epochs: 25,
            ..Default::default()
        }
    }
}

/// Per-table learned CDF model plus its observed key sample.
struct TableModel {
    /// Observed key fractions, in arrival order (bulk load first).
    keys: Vec<f64>,
    store: ParamStore,
    mlp: Mlp,
    /// Maximum |predicted − true| CDF error over the fitted sample: the
    /// RMI search-window bound, as a fraction of the table's pages.
    err: f64,
    /// Refits since bulk load (diagnostics).
    refits: u32,
}

/// The maximum |predicted − true| CDF error over `(prediction, target)`
/// pairs, clamped to `[0, 1]`.
fn max_error(pairs: impl Iterator<Item = (f32, f32)>) -> f64 {
    pairs
        .map(|(p, y)| f64::from((p - y).abs()))
        .fold(0.0f64, f64::max)
        .clamp(0.0, 1.0)
}

impl TableModel {
    /// The CDF fraction the model predicts for a key fraction.
    fn predict(&self, key: f64) -> f64 {
        let p = self.mlp.infer(&self.store, &Tensor::row(vec![key as f32]));
        f64::from(p.data[0])
    }
}

/// The learned-index cost backend. See the module docs for the model.
pub struct LearnedIndexBackend {
    schema: Schema,
    table_stats: Vec<TableStats>,
    column_stats: Vec<ColumnStats>,
    cfg: LearnedIndexConfig,
    models: Mutex<Vec<TableModel>>,
}

const BACKEND_NAME: &str = "learned-index";

fn poisoned() -> CostError {
    CostError::Io("learned-index model lock poisoned".to_string())
}

impl LearnedIndexBackend {
    /// Bulk-load the structure over a catalog (cloned into owned
    /// storage, like [`crate::ReplayBackend`]): every table gets a
    /// uniform initial key sample and a freshly fitted CDF model.
    pub fn new(catalog: Catalog<'_>, cfg: LearnedIndexConfig) -> Self {
        let schema = catalog.schema.clone();
        let table_stats = catalog.table_stats.to_vec();
        let column_stats = catalog.column_stats.to_vec();
        let models = (0..schema.num_tables())
            .map(|t| {
                let keys: Vec<f64> = (0..cfg.initial_keys)
                    .map(|i| i as f64 / (cfg.initial_keys - 1).max(1) as f64)
                    .collect();
                Self::fit(&cfg, t as u64, keys)
            })
            .collect();
        LearnedIndexBackend {
            schema,
            table_stats,
            column_stats,
            cfg,
            models: Mutex::new(models),
        }
    }

    /// Fit one table's CDF model from scratch over `keys`. Seeded by
    /// `(config seed, table)`, so the fit is a pure function of the key
    /// multiset — refits after identical observations are bit-identical.
    ///
    /// Each epoch is one batched forward and backward over all n keys on
    /// one tape. `mse_selected` averages over the n rows, so its loss is
    /// scaled by n to make each row's gradient `2(p − y)`, exactly the
    /// gradient of a one-key loss (`2·n/n = 2`). Row r of a batched
    /// product runs the same chain as a one-row product, and the weight
    /// and bias gradients sum the per-key terms in key order from `+0.0`,
    /// so the fit is bit-identical to one tape per key per epoch.
    fn fit(cfg: &LearnedIndexConfig, table: u64, keys: Vec<f64>) -> TableModel {
        let (mut store, mlp, xs, ys) = Self::fit_setup(cfg, table, &keys);
        let n = ys.len();
        let x = Tensor::from_vec(n, 1, xs);
        let rows: Vec<(usize, usize, f32)> =
            ys.iter().enumerate().map(|(r, &y)| (r, 0, y)).collect();
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        for _ in 0..cfg.fit_epochs {
            store.zero_grads();
            let out = mlp.forward_reuse(&mut tape, &store, x.clone());
            let mse = tape.mse_selected(out, &rows);
            let l = tape.scale(mse, n as f32);
            tape.backward(l, &mut store);
            opt.step(&mut store);
        }
        let predicted = mlp.infer(&store, &x);
        let err = max_error(predicted.data.iter().zip(&ys).map(|(&p, &y)| (p, y)));
        TableModel {
            keys,
            store,
            mlp,
            err,
            refits: 0,
        }
    }

    /// A table's freshly initialized model and its fit targets: the
    /// sorted keys and their true CDF, rank / (n − 1).
    fn fit_setup(
        cfg: &LearnedIndexConfig,
        table: u64,
        keys: &[f64],
    ) -> (ParamStore, Mlp, Vec<f32>, Vec<f32>) {
        let mut sorted = keys.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (0x1ea4 + table));
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "cdf",
            &[1, cfg.hidden, 1],
            Activation::Tanh,
            &mut rng,
        );
        let xs = sorted.iter().map(|&k| k as f32).collect();
        let ys = (0..n).map(|i| i as f32 / (n - 1).max(1) as f32).collect();
        (store, mlp, xs, ys)
    }

    /// Current per-table maximum CDF error bounds (diagnostics/tests).
    pub fn error_bounds(&self) -> Vec<f64> {
        self.models
            .lock()
            .map(|m| m.iter().map(|tm| tm.err).collect())
            .unwrap_or_default()
    }

    /// Refits performed so far, per table (diagnostics/tests).
    pub fn refit_counts(&self) -> Vec<u32> {
        self.models
            .lock()
            .map(|m| m.iter().map(|tm| tm.refits).collect())
            .unwrap_or_default()
    }

    /// The position (CDF fraction) table `t`'s model predicts for a key
    /// fraction — the raw RMI prediction before the bounded local
    /// search. Exposed for diagnostics and attack analysis.
    pub fn predicted_cdf(&self, t: TableId, key: f64) -> CostResult<f64> {
        let models = self.models.lock().map_err(|_| poisoned())?;
        Ok(models[t.0 as usize].predict(key))
    }

    /// Key fractions a query contributes to each table it filters.
    fn predicate_keys(&self, q: &Query, out: &mut [Vec<f64>]) {
        for p in &q.predicates {
            let t = self.schema.table_of(p.col).0 as usize;
            match &p.op {
                PredOp::Eq(f) | PredOp::Le(f) | PredOp::Ge(f) => out[t].push(*f),
                PredOp::Between(lo, hi) => {
                    out[t].push(*lo);
                    out[t].push(*hi);
                }
                PredOp::In(fs) => out[t].extend(fs.iter().copied()),
            }
        }
    }

    /// Estimated cost of accessing table `t` within `q` under `cfg`:
    /// a learned-index lookup when an index leads with one of the
    /// query's filter columns on `t`, a full heap scan otherwise.
    fn table_access_cost(&self, q: &Query, cfg: &IndexConfig, t: TableId, err: f64) -> f64 {
        let stats = &self.table_stats[t.0 as usize];
        let pages = stats.pages as f64;
        let rows = stats.rows as f64;
        let mut selectivity: Option<f64> = None;
        for p in &q.predicates {
            if self.schema.table_of(p.col) != t {
                continue;
            }
            if !cfg.has_leading_column(p.col) {
                continue;
            }
            let sel = p.selectivity(&self.column_stats[p.col.0 as usize]);
            let best = selectivity.get_or_insert(sel);
            if sel < *best {
                *best = sel;
            }
        }
        match selectivity {
            // traverse + bounded mispredict search + qualifying pages.
            Some(sel) => rows.max(2.0).log2() + err * pages + sel * pages,
            None => pages,
        }
    }
}

impl CostBackend for LearnedIndexBackend {
    fn name(&self) -> &'static str {
        BACKEND_NAME
    }

    fn catalog(&self) -> Catalog<'_> {
        Catalog {
            schema: &self.schema,
            table_stats: &self.table_stats,
            column_stats: &self.column_stats,
        }
    }

    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        let models = self.models.lock().map_err(|_| poisoned())?;
        let mut total = 0.0;
        for &t in &q.tables {
            let err = models[t.0 as usize].err;
            total += self.table_access_cost(q, cfg, t, err);
        }
        // Joins pair each additional table with the running result; the
        // learned structure's error term is already in each access.
        total *= q.tables.len().max(1) as f64;
        Ok(total)
    }

    /// The structural retrain: append the workload's key fractions to
    /// each filtered table's sample and refit that table's CDF model
    /// from scratch. This is where poisoned keys do their damage.
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        let mut fresh: Vec<Vec<f64>> = vec![Vec::new(); self.schema.num_tables()];
        for wq in w.iter() {
            self.predicate_keys(&wq.query, &mut fresh);
        }
        let mut models = self.models.lock().map_err(|_| poisoned())?;
        for (t, new_keys) in fresh.into_iter().enumerate() {
            if new_keys.is_empty() {
                continue;
            }
            let old = &models[t];
            let mut keys = old.keys.clone();
            keys.extend(new_keys);
            if keys.len() > self.cfg.max_keys {
                keys.drain(..keys.len() - self.cfg.max_keys);
            }
            let refits = old.refits + 1;
            let mut refit = Self::fit(&self.cfg, t as u64, keys);
            refit.refits = refits;
            models[t] = refit;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_sim::{ColumnId, Index, Predicate, QueryBuilder};
    use rand::Rng;

    fn backend() -> LearnedIndexBackend {
        let db = pipa_workload::Benchmark::TpcH.database(1.0, None);
        let sim = crate::SimBackend::new(db);
        LearnedIndexBackend::new(sim.catalog(), LearnedIndexConfig::fast())
    }

    /// An indexable column on the backend's largest table (tiny tables
    /// make full scans cheaper than any index traversal).
    fn big_table_column(b: &LearnedIndexBackend) -> ColumnId {
        *b.schema
            .indexable_columns()
            .iter()
            .max_by_key(|c| b.table_stats[b.schema.table_of(**c).0 as usize].pages)
            .expect("tpch has indexable columns")
    }

    fn point_query(col: ColumnId, frac: f64, schema: &Schema) -> Query {
        QueryBuilder::new()
            .filter(schema, Predicate::eq(col, frac))
            .aggregate(pipa_sim::Aggregate::CountStar)
            .build(schema)
            .expect("single-table point query")
    }

    #[test]
    fn indexed_lookup_beats_full_scan() {
        let b = backend();
        let col = big_table_column(&b);
        let q = point_query(col, 0.5, &b.schema);
        let scan = b.query_cost(&q, &IndexConfig::empty()).unwrap();
        let mut cfg = IndexConfig::empty();
        cfg.add(Index::single(col));
        let lookup = b.query_cost(&q, &cfg).unwrap();
        assert!(
            lookup < scan,
            "lookup {lookup} should beat full scan {scan}"
        );
    }

    #[test]
    fn costs_are_bit_deterministic() {
        let a = backend();
        let b = backend();
        let col = big_table_column(&a);
        let q = point_query(col, 0.3, &a.schema);
        let mut cfg = IndexConfig::empty();
        cfg.add(Index::single(col));
        assert_eq!(
            a.query_cost(&q, &cfg).unwrap().to_bits(),
            b.query_cost(&q, &cfg).unwrap().to_bits()
        );
        let t = a.schema.table_of(col);
        assert_eq!(
            a.predicted_cdf(t, 0.3).unwrap().to_bits(),
            b.predicted_cdf(t, 0.3).unwrap().to_bits()
        );
    }

    #[test]
    fn bulk_load_roughly_learns_the_uniform_cdf() {
        let b = backend();
        let mid = b.predicted_cdf(TableId(0), 0.5).unwrap();
        assert!(
            (mid - 0.5).abs() < 0.35,
            "uniform bulk load should put 0.5 near the middle, got {mid}"
        );
        for err in b.error_bounds() {
            assert!(err.is_finite() && (0.0..=1.0).contains(&err));
        }
    }

    #[test]
    fn adversarial_keys_inflate_the_error_bound_and_clean_costs() {
        let b = backend();
        let col = big_table_column(&b);
        let t = b.schema.table_of(col).0 as usize;
        let mut cfg = IndexConfig::empty();
        cfg.add(Index::single(col));
        let clean_q = point_query(col, 0.5, &b.schema);
        let before_err = b.error_bounds()[t];
        let before_cost = b.query_cost(&clean_q, &cfg).unwrap();

        // A poisoned batch: a tight adversarial key cluster at one point
        // of the domain, which an identity-shaped CDF model cannot fit.
        let poison = Workload::from_queries(
            (0..40).map(|i| (point_query(col, 0.9 + (i % 5) as f64 * 1e-4, &b.schema), 1)),
        );
        b.observe_training(&poison).unwrap();

        let after_err = b.error_bounds()[t];
        let after_cost = b.query_cost(&clean_q, &cfg).unwrap();
        assert_eq!(b.refit_counts()[t], 1);
        assert!(
            after_err > before_err,
            "error bound should grow: {before_err} → {after_err}"
        );
        assert!(
            after_cost > before_cost,
            "clean lookup should degrade: {before_cost} → {after_cost}"
        );
    }

    #[test]
    fn session_lifecycle_decomposes() {
        let b = backend();
        let col = big_table_column(&b);
        let w = Workload::from_queries([(point_query(col, 0.5, &b.schema), 2)]);
        let mut s = b.session_begin(&w).unwrap();
        let empty = b.session_total(&w, &s).unwrap();
        assert_eq!(
            empty.to_bits(),
            b.workload_cost(&w, &IndexConfig::empty())
                .unwrap()
                .to_bits()
        );
        let idx = Index::single(col);
        let mut cfg = IndexConfig::empty();
        cfg.add(idx.clone());
        let preview = b.session_preview_add(&w, &s, &cfg, &idx).unwrap();
        let committed = b.session_add(&w, &mut s, &cfg, &idx).unwrap();
        assert_eq!(preview.to_bits(), committed.to_bits());
        assert_eq!(
            committed.to_bits(),
            b.workload_cost(&w, &cfg).unwrap().to_bits()
        );
    }

    #[test]
    fn foreign_sessions_mismatch() {
        let b = backend();
        let db = pipa_workload::Benchmark::TpcH.database(1.0, None);
        let sim = crate::SimBackend::new(db);
        let col = big_table_column(&b);
        let w = Workload::from_queries([(point_query(col, 0.5, &b.schema), 1)]);
        let s = sim.session_begin(&w).unwrap();
        assert!(matches!(
            b.session_total(&w, &s),
            Err(CostError::SessionMismatch { .. })
        ));
    }

    /// The per-key fit that [`LearnedIndexBackend::fit`] batched, kept as
    /// its oracle: a fresh tape for every key in every epoch, and one
    /// inference per key for the error bound.
    fn fit_per_key(cfg: &LearnedIndexConfig, table: u64, keys: Vec<f64>) -> TableModel {
        let (mut store, mlp, xs, ys) = LearnedIndexBackend::fit_setup(cfg, table, &keys);
        let mut opt = Adam::new(cfg.lr);
        for _ in 0..cfg.fit_epochs {
            store.zero_grads();
            for (&x, &y) in xs.iter().zip(&ys) {
                let mut tape = Tape::new();
                let xv = tape.constant(Tensor::row(vec![x]));
                let out = mlp.forward(&mut tape, &store, xv);
                let l = tape.mse_selected(out, &[(0, 0, y)]);
                tape.backward(l, &mut store);
            }
            opt.step(&mut store);
        }
        let err = max_error(
            xs.iter()
                .zip(&ys)
                .map(|(&x, &y)| (mlp.infer(&store, &Tensor::row(vec![x])).data[0], y)),
        );
        TableModel {
            keys,
            store,
            mlp,
            err,
            refits: 0,
        }
    }

    fn bulk_load(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n - 1).max(1) as f64).collect()
    }

    #[test]
    fn batched_fit_is_bit_identical_to_the_per_key_fit() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut wide: Vec<f64> = bulk_load(33);
        // Uniform keys with duplicates drawn from a coarse grid.
        wide.extend((0..300).map(|_| f64::from(rng.gen_range(0u32..64)) / 63.0));
        let mut poisoned = bulk_load(33);
        poisoned.extend((0..40).map(|i| 0.9 + (i % 5) as f64 * 1e-4));
        let key_sets: Vec<(&str, Vec<f64>)> = vec![
            ("empty", vec![]),
            ("n=1", vec![0.5]),
            ("n=1 zero", vec![0.0]),
            ("n=2", vec![0.0, 1.0]),
            ("n=33 bulk load", bulk_load(33)),
            ("duplicates", vec![0.25, 0.0, 0.25, 1.0, 0.25, 0.25, 1.0]),
            ("n=333 with duplicates", wide),
            ("poison cluster", poisoned),
        ];
        let configs = [
            LearnedIndexConfig::fast(),
            LearnedIndexConfig::default(),
            LearnedIndexConfig {
                seed: 5,
                hidden: 20,
                ..LearnedIndexConfig::fast()
            },
        ];
        let grid: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
        for cfg in &configs {
            for (table, (label, keys)) in key_sets.iter().enumerate() {
                let batched = LearnedIndexBackend::fit(cfg, table as u64, keys.clone());
                let oracle = fit_per_key(cfg, table as u64, keys.clone());
                let bits = |tm: &TableModel| -> Vec<u32> {
                    tm.store.snapshot().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&batched), bits(&oracle), "{label}: parameters");
                assert_eq!(batched.err.to_bits(), oracle.err.to_bits(), "{label}: err");
                for &k in &grid {
                    assert_eq!(
                        batched.predict(k).to_bits(),
                        oracle.predict(k).to_bits(),
                        "{label}: predicted CDF at {k}"
                    );
                }
            }
        }
    }
}
