//! The benefit matrix's store, the simulator's one what-if cache: sharded
//! memo maps for the matrix's `(query, index)` cells and its query
//! shapes, the cell hit/miss counters, and one byte budget over
//! everything resident.
//!
//! Every value held here is a pure function of its key (the cost model
//! is deterministic), so misses compute outside locks, a racing insert of
//! the same key is idempotent, and whatever the budget's compactor drops
//! recomputes bit-identically on the next touch. What is keyed, and how
//! cells fold into costs, is [`super::matrix`]'s business.

use super::matrix::{Fingerprint, MatrixStats, QueryShape};
use super::model::{JoinPlan, JoinStep};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independently locked shards per family. A power of two so
/// the shard pick is a mask; 16 keeps contention negligible at the thread
/// counts the experiment runner uses without bloating an idle `Database`.
const SHARDS: usize = 16;

/// Approximate resident footprint of one matrix cell: the 32-byte
/// `(Fingerprint, Fingerprint)` key, the 8-byte cost, and amortized
/// hash-table bucket overhead. Used for the `matrix_bytes` accounting —
/// an estimate, deliberately conservative rather than allocator-exact,
/// so the byte budget bounds real memory.
pub(super) const CELL_BYTES: usize = 48;

/// Approximate resident footprint of one shape entry before its join
/// plan: the 16-byte key, the shape, and amortized bucket overhead
/// (conservative like [`CELL_BYTES`]).
pub(super) const SHAPE_BYTES: usize = 64;

impl QueryShape {
    /// Approximate resident bytes of this shape's entry: [`SHAPE_BYTES`]
    /// plus, for a join shape, its `Arc<JoinPlan>` allocation (the two
    /// reference counts, the plan and its steps).
    pub(super) fn approx_bytes(&self) -> usize {
        SHAPE_BYTES
            + match self {
                QueryShape::JoinDecomposable { plan } => {
                    2 * std::mem::size_of::<usize>()
                        + std::mem::size_of::<JoinPlan>()
                        + plan.steps.capacity() * std::mem::size_of::<JoinStep>()
                }
                _ => 0,
            }
    }
}

/// Read-lock a shard. The maps hold pure, fully written values, so a
/// lock poisoned by a panicking holder still guards valid data.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock a shard (see [`read`] on poisoning).
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn shards<K, V>() -> Vec<RwLock<HashMap<K, V>>> {
    (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect()
}

/// One family of `(query, index)` cells.
type CellShards = Vec<RwLock<HashMap<(Fingerprint, Fingerprint), f64>>>;

/// The two cell families. An index on a join key owns a cell in *both*
/// under the same `(query, index)` key, so they are kept apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cells {
    /// Raw access cost of scanning the query's table through the index.
    Access,
    /// Nested-loop probe cost of the index into its step of a join.
    NestedLoop,
}

/// Sharded `RwLock` maps for the matrix's cells and shapes under one
/// optional byte budget.
pub(crate) struct MatrixCache {
    /// Query fingerprint → shape, sharded by the fingerprint's low bits.
    shapes: Vec<RwLock<HashMap<Fingerprint, QueryShape>>>,
    /// [`Cells::Access`] cells.
    entries: CellShards,
    /// [`Cells::NestedLoop`] cells.
    nl_entries: CellShards,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Approximate resident bytes of cells and shapes, changed only under
    /// the write lock of the shard that gained or lost them, so the
    /// budget check is one atomic load, not 48 shard locks.
    bytes: AtomicUsize,
    /// High-water mark of `bytes`.
    peak_bytes: AtomicUsize,
    /// Approximate byte budget; `usize::MAX` = unbounded (default).
    byte_budget: AtomicUsize,
    /// Next shard the rotating compactor clears (mod `3 × SHARDS`).
    compact_cursor: AtomicUsize,
    compactions: AtomicU64,
}

impl MatrixCache {
    /// An empty, unbudgeted cache.
    pub(crate) fn new() -> Self {
        MatrixCache {
            shapes: shards(),
            entries: shards(),
            nl_entries: shards(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            byte_budget: AtomicUsize::new(usize::MAX),
            compact_cursor: AtomicUsize::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Approximate resident footprint in bytes, cells and shapes.
    fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Bound the footprint (`usize::MAX` = unbounded); see
    /// [`super::BenefitMatrix::set_byte_budget`].
    pub(crate) fn set_byte_budget(&self, bytes: usize) {
        self.byte_budget.store(bytes, Ordering::Relaxed);
        if self.approx_bytes() > bytes {
            self.compact(bytes);
        }
    }

    /// `added` fresh bytes landed in a shard and were counted under its
    /// lock, bringing the footprint to `total`: raise the high-water mark
    /// and run the compactor if the budget is exceeded.
    fn note_insert(&self, total: usize, added: usize) {
        self.peak_bytes.fetch_max(total, Ordering::Relaxed);
        let budget = self.byte_budget.load(Ordering::Relaxed);
        if budget != usize::MAX {
            pipa_obs::count("matrix_bytes", added as u64);
            if total > budget {
                self.compact(budget);
            }
        }
    }

    /// Clear shards in rotation (access shards, then nested-loop shards,
    /// then shape shards) until the footprint is back under `budget` or
    /// every shard was swept once.
    fn compact(&self, budget: usize) {
        for _ in 0..(3 * SHARDS) {
            if self.approx_bytes() <= budget {
                break;
            }
            let k = self.compact_cursor.fetch_add(1, Ordering::Relaxed) % (3 * SHARDS);
            let dropped = if k < 2 * SHARDS {
                let family = if k < SHARDS {
                    &self.entries
                } else {
                    &self.nl_entries
                };
                let mut w = write(&family[k % SHARDS]);
                let n = w.len() * CELL_BYTES;
                *w = HashMap::new();
                self.bytes.fetch_sub(n, Ordering::Relaxed);
                n
            } else {
                let mut w = write(&self.shapes[k % SHARDS]);
                let n = w.values().map(QueryShape::approx_bytes).sum();
                *w = HashMap::new();
                self.bytes.fetch_sub(n, Ordering::Relaxed);
                n
            };
            if dropped > 0 {
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop all cells and shapes and zero the counters (the budget
    /// stays).
    pub(crate) fn clear(&self) {
        for s in &self.shapes {
            write(s).clear();
        }
        for s in self.entries.iter().chain(&self.nl_entries) {
            write(s).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.peak_bytes.store(0, Ordering::Relaxed);
        self.compactions.store(0, Ordering::Relaxed);
    }

    /// Counter snapshot of what the cache sees; the per-query
    /// evaluation counts are the matrix's and read 0 here.
    pub(crate) fn stats(&self) -> MatrixStats {
        let len = |family: &CellShards| -> usize { family.iter().map(|s| read(s).len()).sum() };
        MatrixStats {
            matrix_evals: 0,
            join_evals: 0,
            full_fallbacks: 0,
            delta_evals: 0,
            entry_hits: self.hits.load(Ordering::Relaxed),
            entry_misses: self.misses.load(Ordering::Relaxed),
            entries: len(&self.entries),
            nl_entries: len(&self.nl_entries),
            shapes: self.shapes.iter().map(|s| read(s).len()).sum(),
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
            .flat_map(|s| read(s).values().copied().collect::<Vec<_>>())
            .collect()
    }

    /// The shape memoized for `qf`, classified by `classify` on a miss.
    /// The classification runs outside any lock.
    pub(crate) fn shape(
        &self,
        qf: Fingerprint,
        classify: impl FnOnce() -> QueryShape,
    ) -> QueryShape {
        let shard = &self.shapes[qf.low() as usize & (SHARDS - 1)];
        if let Some(s) = read(shard).get(&qf) {
            return s.clone();
        }
        let s = classify();
        let added = s.approx_bytes();
        let fresh = write(shard).insert(qf, s.clone()).is_none().then(|| {
            // Counted under the shard's lock, like the compactor's
            // subtraction, so the two never interleave.
            self.bytes.fetch_add(added, Ordering::Relaxed) + added
        });
        if let Some(total) = fresh {
            self.note_insert(total, added);
        }
        s
    }

    /// The cell at `key` in `family`, computed by `compute` on a miss.
    /// The compute runs outside any lock; a racing insert of the same
    /// pure value is idempotent.
    pub(crate) fn cell(
        &self,
        family: Cells,
        key: (Fingerprint, Fingerprint),
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let family = match family {
            Cells::Access => &self.entries,
            Cells::NestedLoop => &self.nl_entries,
        };
        let shard = &family[(key.0.low() ^ key.1.low()) as usize & (SHARDS - 1)];
        if let Some(&v) = read(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        let fresh = write(shard)
            .insert(key, v)
            .is_none()
            .then(|| self.bytes.fetch_add(CELL_BYTES, Ordering::Relaxed) + CELL_BYTES);
        if let Some(total) = fresh {
            self.note_insert(total, CELL_BYTES);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::super::matrix::{fingerprint_index, fingerprint_query};
    use super::*;
    use crate::db::Database;
    use crate::index::{Index, IndexConfig};
    use crate::predicate::Predicate;
    use crate::query::Query;
    use crate::schema::{ColumnId, DataType, Schema, TableId};

    fn q(frac: f64) -> Query {
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

    /// The cell key of `q(frac)` and a single-column index on column 0.
    fn key(frac: f64) -> (Fingerprint, Fingerprint) {
        (
            fingerprint_query(&q(frac)),
            fingerprint_index(&Index::single(ColumnId(0))),
        )
    }

    #[test]
    fn hit_returns_cached_value_and_counts() {
        let cache = MatrixCache::new();
        let k = key(0.5);
        let first = cache.cell(Cells::Access, k, || 42.0);
        let second = cache.cell(Cells::Access, k, || panic!("must hit"));
        assert_eq!(first, 42.0);
        assert_eq!(second, 42.0);
        let s = cache.stats();
        assert_eq!((s.entry_hits, s.entry_misses, s.entries), (1, 1, 1));
        // The same key in the other family is a different cell.
        assert_eq!(cache.cell(Cells::NestedLoop, k, || 7.0), 7.0);
        let s = cache.stats();
        assert_eq!(
            (s.entry_hits, s.entry_misses, s.entries, s.nl_entries),
            (1, 2, 1, 1)
        );
        assert_eq!(s.approx_bytes, 2 * CELL_BYTES);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let mut schema = Schema::new();
        schema.add_table("t", 100_000, &[("a", DataType::Int), ("b", DataType::Int)]);
        let db = Database::builder(schema).build();
        let q = q(0.5);
        let cfg = IndexConfig::from_indexes([Index::single(ColumnId(0))]);
        let want = db.scalar_query_cost(&q, &cfg);
        db.set_whatif_matrix_enabled(false);
        for _ in 0..2 {
            assert_eq!(db.estimated_query_cost(&q, &cfg).to_bits(), want.to_bits());
        }
        // Both answers came from the model: nothing was looked up or kept.
        let s = db.whatif_matrix_stats();
        assert_eq!((s.entry_hits, s.entry_misses), (0, 0));
        assert_eq!((s.entries, s.shapes, s.approx_bytes), (0, 0, 0));
        // Switched back on, the same estimate is memoized.
        db.set_whatif_matrix_enabled(true);
        assert_eq!(db.estimated_query_cost(&q, &cfg).to_bits(), want.to_bits());
        let s = db.whatif_matrix_stats();
        assert_eq!((s.entry_misses, s.entries, s.shapes), (1, 1, 1));
    }

    #[test]
    fn clear_resets_everything() {
        let cache = MatrixCache::new();
        cache.set_byte_budget(CELL_BYTES);
        let _ = cache.shape(key(0.5).0, || QueryShape::Trivial);
        let _ = cache.cell(Cells::Access, key(0.5), || 1.0);
        let _ = cache.cell(Cells::NestedLoop, key(0.5), || 2.0);
        let _ = cache.cell(Cells::Access, key(0.5), || 1.0);
        assert!(cache.stats().compactions > 0);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entry_hits, s.entry_misses, s.compactions), (0, 0, 0));
        assert_eq!((s.entries, s.nl_entries, s.shapes), (0, 0, 0));
        assert_eq!((s.approx_bytes, s.peak_bytes), (0, 0));
        assert_eq!(s.byte_budget, CELL_BYTES, "the budget outlives a clear");
    }

    #[test]
    fn bounded_cache_evicts_but_never_changes_values() {
        let cache = MatrixCache::new();
        let budget = 16 * CELL_BYTES;
        cache.set_byte_budget(budget);
        let keys: Vec<_> = (0..200).map(|i| key(i as f64 / 200.0)).collect();
        // Two passes over 200 distinct keys through ≤16 cells: values
        // must stay bit-identical to the computed ones on every lookup.
        for pass in 0..2 {
            for (i, &k) in keys.iter().enumerate() {
                let v = cache.cell(Cells::Access, k, || i as f64 * 1.5);
                assert_eq!(v, i as f64 * 1.5, "pass {pass} key {i}");
            }
        }
        let s = cache.stats();
        assert!(s.entries <= 16, "resident {} > budget", s.entries);
        assert!(s.approx_bytes <= budget);
        assert_eq!(s.approx_bytes, s.entries * CELL_BYTES);
        assert!(s.compactions > 0, "200 keys through 16 cells must compact");
        assert_eq!(s.byte_budget, budget);
        assert_eq!(s.entry_hits + s.entry_misses, 400);
    }

    #[test]
    fn zero_capacity_stores_nothing_and_capacity_one_works() {
        let cache = MatrixCache::new();
        cache.set_byte_budget(0);
        let k = key(0.5);
        assert_eq!(cache.cell(Cells::Access, k, || 7.0), 7.0);
        assert_eq!(cache.cell(Cells::Access, k, || 7.0), 7.0);
        let s = cache.stats();
        assert_eq!((s.entries, s.approx_bytes, s.entry_misses), (0, 0, 2));
        let one = MatrixCache::new();
        one.set_byte_budget(CELL_BYTES);
        for i in 0..50 {
            let k = key(i as f64 / 50.0);
            assert_eq!(one.cell(Cells::Access, k, || i as f64), i as f64);
        }
        let s = one.stats();
        assert!(s.entries <= 1, "a one-cell budget keeps {}", s.entries);
        assert_eq!(s.entry_misses, 50);
    }
}
