//! Column-major row store over synthetic data, plus physical B+-tree
//! indexes, with page-layout accounting for the executor.
//!
//! Values are stored as *domain positions* (`i64`); [`crate::value`] maps
//! them to typed literals when rendering. Rows live in heap order: row `r`
//! of a table occupies page `r / rows_per_page`.

use crate::cost::PAGE_SIZE;
use crate::index::Index;
use crate::schema::{ColumnId, Schema, TableId};

/// Materialized data for one table (column-major positions).
#[derive(Debug, Clone)]
pub struct TableData {
    /// Owning table.
    pub table: TableId,
    /// One vector of domain positions per column, in schema column order.
    pub columns: Vec<Vec<i64>>,
    /// Number of rows.
    pub rows: u32,
    /// Rows per heap page (from the schema's row width).
    pub rows_per_page: u32,
}

impl TableData {
    /// Heap pages occupied.
    pub fn pages(&self) -> u64 {
        u64::from(self.rows)
            .div_ceil(u64::from(self.rows_per_page))
            .max(1)
    }

    /// The heap page of a row.
    pub fn page_of(&self, row: u32) -> u32 {
        row / self.rows_per_page
    }

    /// Positions of one column (by within-table ordinal).
    pub fn column(&self, ordinal: usize) -> &[i64] {
        &self.columns[ordinal]
    }
}

/// A physical B+-tree index, laid out flat: one entry per row, ordered
/// by the full composite key with ties in heap order, as two aligned
/// vectors (12 bytes per entry).
#[derive(Debug, Clone)]
pub struct PhysicalIndex {
    /// Logical definition.
    pub def: Index,
    /// Leading-key position of each entry, ascending. NULLs
    /// ([`crate::datagen::NULL_POSITION`], `i64::MIN`) sort first.
    leading: Vec<i64>,
    /// Row id of each entry, aligned with `leading`.
    rows: Vec<u32>,
    /// Entries per simulated leaf page.
    pub entries_per_leaf: u32,
    /// Tree height (levels above leaves), for descent accounting.
    pub height: u32,
}

impl PhysicalIndex {
    /// Build an index over materialized table data.
    pub fn build(schema: &Schema, data: &TableData, def: Index) -> Self {
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
        let lead = &data.columns[ordinals[0]];
        // (key, row) pairs are distinct, so the unstable sort still leaves
        // equal keys in heap order.
        let mut entries: Vec<(i64, u32)> = (0..data.rows).map(|r| (lead[r as usize], r)).collect();
        entries.sort_unstable();
        let rest = &ordinals[1..];
        if !rest.is_empty() {
            // Order each run of equal leading keys by the remaining key
            // columns; the stable sort keeps full-key ties in heap order.
            for run in entries.chunk_by_mut(|a, b| a.0 == b.0) {
                let key = |r: u32| rest.iter().map(move |&o| data.columns[o][r as usize]);
                run.sort_by(|a, b| key(a.1).cmp(key(b.1)));
            }
        }
        let (leading, rows) = entries.into_iter().unzip();
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
        PhysicalIndex {
            def,
            leading,
            rows,
            entries_per_leaf,
            height,
        }
    }

    /// Row ids whose leading key falls in `[lo, hi]` (both inclusive,
    /// `None` = unbounded), in index order. The slice length is the
    /// number of index entries touched.
    pub fn range_leading(&self, lo: Option<i64>, hi: Option<i64>) -> &[u32] {
        let start = lo.map_or(0, |lo| self.leading.partition_point(|&k| k < lo));
        let end = hi.map_or(self.leading.len(), |hi| {
            self.leading.partition_point(|&k| k <= hi)
        });
        &self.rows[start..end.max(start)]
    }

    /// Rows with exact leading key `v`.
    pub fn lookup_leading(&self, v: i64) -> &[u32] {
        self.range_leading(Some(v), Some(v))
    }

    /// Simulated leaf pages for `entries` consecutive entries.
    pub fn leaf_pages_for(&self, entries: u64) -> u64 {
        entries.div_ceil(u64::from(self.entries_per_leaf)).max(1)
    }
}

/// All materialized tables plus any built physical indexes.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    tables: Vec<Option<TableData>>,
}

impl Storage {
    /// Storage prepared for `num_tables` tables (initially empty).
    pub fn new(num_tables: usize) -> Self {
        Storage {
            tables: vec![None; num_tables],
        }
    }

    /// Install data for a table.
    pub fn set_table(&mut self, data: TableData) {
        let slot = data.table.0 as usize;
        self.tables[slot] = Some(data);
    }

    /// Data of a table, if materialized.
    pub fn table(&self, t: TableId) -> Option<&TableData> {
        self.tables.get(t.0 as usize).and_then(|o| o.as_ref())
    }

    /// Whether every table is materialized.
    pub fn is_complete(&self) -> bool {
        self.tables.iter().all(|t| t.is_some())
    }

    /// Ordinal of a column within its table.
    pub fn ordinal(schema: &Schema, col: ColumnId) -> usize {
        let t = schema.table_of(col);
        schema
            .columns_of(t)
            .iter()
            .position(|&c| c == col)
            .expect("column belongs to its table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn toy() -> (Schema, TableData) {
        let mut s = Schema::new();
        s.add_table("t", 8, &[("a", DataType::Int), ("b", DataType::Int)]);
        let data = TableData {
            table: TableId(0),
            columns: vec![vec![3, 1, 4, 1, 5, 9, 2, 6], vec![0, 1, 2, 3, 4, 5, 6, 7]],
            rows: 8,
            rows_per_page: 3,
        };
        (s, data)
    }

    #[test]
    fn page_accounting() {
        let (_, d) = toy();
        assert_eq!(d.pages(), 3);
        assert_eq!(d.page_of(0), 0);
        assert_eq!(d.page_of(5), 1);
        assert_eq!(d.page_of(7), 2);
    }

    #[test]
    fn index_build_and_lookup() {
        let (s, d) = toy();
        let idx = PhysicalIndex::build(&s, &d, Index::single(ColumnId(0)));
        let rows = idx.lookup_leading(1);
        assert_eq!(rows.len(), 2);
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 3]);
    }

    #[test]
    fn index_range_scan() {
        let (s, d) = toy();
        let idx = PhysicalIndex::build(&s, &d, Index::single(ColumnId(0)));
        let rows = idx.range_leading(Some(4), Some(9));
        assert_eq!(rows.len(), 4); // 4,5,6,9
        let all = idx.range_leading(None, None);
        assert_eq!(all.len(), 8);
        // An inverted range touches nothing.
        assert!(idx.range_leading(Some(9), Some(4)).is_empty());
    }

    #[test]
    fn composite_index_keys() {
        let (s, mut d) = toy();
        // `b` falls as the row id rises, so the two rows with a=1 (rows 1
        // and 3) are in reverse heap order under the composite key.
        d.columns[1] = vec![7, 6, 5, 4, 3, 2, 1, 0];
        let idx = PhysicalIndex::build(
            &s,
            &d,
            Index::multi(&s, vec![ColumnId(0), ColumnId(1)]).unwrap(),
        );
        assert_eq!(idx.rows, vec![3, 1, 6, 0, 2, 4, 7, 5]);
        assert_eq!(idx.lookup_leading(1), &[3, 1]);
        // On the leading column alone, equal keys stay in heap order.
        let single = PhysicalIndex::build(&s, &d, Index::single(ColumnId(0)));
        assert_eq!(single.rows, vec![1, 3, 6, 0, 2, 4, 7, 5]);
    }

    #[test]
    fn null_keys_sort_first() {
        let (s, mut d) = toy();
        d.columns[0][5] = crate::datagen::NULL_POSITION;
        let idx = PhysicalIndex::build(&s, &d, Index::single(ColumnId(0)));
        assert_eq!(idx.rows[0], 5);
        // An unbounded lower bound covers the NULL entry; a bounded one
        // does not.
        assert_eq!(idx.range_leading(None, Some(2)), &[5, 1, 3, 6]);
        assert_eq!(idx.range_leading(Some(1), Some(2)), &[1, 3, 6]);
    }

    #[test]
    fn storage_lookup() {
        let (s, d) = toy();
        let mut st = Storage::new(s.num_tables());
        assert!(!st.is_complete());
        st.set_table(d);
        assert!(st.is_complete());
        assert!(st.table(TableId(0)).is_some());
        assert_eq!(Storage::ordinal(&s, ColumnId(1)), 1);
    }
}
