//! Hash indices on column subsets of a columnar relation, keyed
//! through the shared id-tuple table ([`crate::idtable`]).

use crate::idtable::{Chain, IdTable, NONE};
use crate::relation::RowsView;

/// A hash index mapping the projection of a row onto `key_cols` to the
/// **row ids** — positions in the owning relation's insertion-ordered
/// arena — of the rows that share it. Keys are dictionary ids held in
/// one flat arena and found through an [`IdTable`], so a probe hashes a
/// few `u32`s and compares integers. Each key's postings are a chain
/// of row ids in insertion order: `first`/`last` per key, `next` per
/// row, so indexing a row allocates nothing of its own. Row ids stay
/// valid across `Relation::clone()` (the arena is copied verbatim).
/// Built once per (relation, column-set) pair on first use and
/// maintained incrementally as the relation grows — the "availability
/// of indices" assumption of the paper's Section 6 cost model.
#[derive(Clone, Debug, Default)]
pub struct Index {
    key_cols: Vec<usize>,
    /// Key `k`'s ids: `keys[k * key_cols.len()..][..key_cols.len()]`.
    keys: Vec<u32>,
    /// The keys, by their ids.
    table: IdTable,
    /// The first and the last row of key `k`'s postings.
    first: Vec<u32>,
    last: Vec<u32>,
    /// The row after row `r` in its key's postings, or [`NONE`].
    next: Vec<u32>,
}

impl Index {
    /// Build an index over an arena view keyed on `key_cols`. Row ids
    /// are the positions in `rows`.
    pub fn build(key_cols: Vec<usize>, rows: RowsView<'_>) -> Index {
        let mut idx = Index { key_cols, next: Vec::with_capacity(rows.len()), ..Index::default() };
        for id in 0..rows.len() {
            idx.add(|c| rows.cell(id, c), id as u32);
        }
        idx
    }

    /// The indexed columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Add an encoded row with its arena position, the next one (called
    /// by the owning relation on insert).
    pub fn insert_row(&mut self, row: &[u32], id: u32) {
        self.add(|c| row[c], id);
    }

    /// Ids of rows whose projection equals the encoded `key`, in
    /// insertion order.
    pub fn get(&self, key: &[u32]) -> Chain<'_> {
        let w = self.key_cols.len();
        let found = self.table.find(key.iter().copied(), |k| {
            self.keys[k as usize * w..].iter().zip(key).all(|(a, b)| a == b)
        });
        Chain::new(&self.next, found.map_or(NONE, |k| self.first[k as usize]))
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.table.len()
    }

    /// Append row `id`, whose cell in column `c` is `cell(c)`, to its
    /// key's postings.
    fn add(&mut self, cell: impl Fn(usize) -> u32, id: u32) {
        assert_eq!(id as usize, self.next.len(), "rows are indexed in arena order");
        self.next.push(NONE);
        let (key_cols, keys) = (&self.key_cols, &self.keys);
        let w = key_cols.len();
        let found = self.table.find(key_cols.iter().map(|&c| cell(c)), |k| {
            key_cols.iter().enumerate().all(|(i, &c)| keys[k as usize * w + i] == cell(c))
        });
        match found {
            Ok(k) => {
                let k = k as usize;
                self.next[self.last[k] as usize] = id;
                self.last[k] = id;
            }
            Err(at) => {
                self.keys.extend(key_cols.iter().map(|&c| cell(c)));
                self.first.push(id);
                self.last.push(id);
                let keys = &self.keys;
                self.table.insert(at, move |k| keys[k as usize * w..][..w].iter().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary;
    use crate::relation::{ColumnBuf, Relation};
    use crate::tuple::Row;
    use gbc_ast::Value;

    fn id(v: i64) -> u32 {
        dictionary::encode(&Value::int(v))
    }

    fn buf(rows: &[&[i64]]) -> ColumnBuf {
        let mut b = ColumnBuf::new();
        for r in rows {
            let ids: Vec<u32> = r.iter().map(|&v| id(v)).collect();
            b.push_ids(&ids);
        }
        b
    }

    fn get(idx: &Index, key: &[u32]) -> Vec<u32> {
        idx.get(key).collect()
    }

    #[test]
    fn lookup_by_single_column() {
        let rows = buf(&[&[1, 10], &[1, 20], &[2, 30]]);
        let idx = Index::build(vec![0], rows.view());
        assert_eq!(get(&idx, &[id(1)]), [0, 1]);
        assert_eq!(get(&idx, &[id(2)]), [2]);
        assert_eq!(get(&idx, &[id(9)]), []);
    }

    #[test]
    fn lookup_by_multiple_columns_respects_order() {
        let rows = buf(&[&[1, 2, 3], &[2, 1, 4]]);
        let idx = Index::build(vec![1, 0], rows.view());
        // Key is (col1, col0).
        assert_eq!(get(&idx, &[id(2), id(1)]), [0]);
        assert_eq!(get(&idx, &[id(1), id(2)]), [1]);
    }

    #[test]
    fn incremental_insert_extends_the_index() {
        let mut idx = Index::build(vec![0], ColumnBuf::new().view());
        assert_eq!(idx.num_keys(), 0);
        idx.insert_row(&[id(5), id(1)], 0);
        idx.insert_row(&[id(5), id(2)], 1);
        assert_eq!(get(&idx, &[id(5)]), [0, 1]);
        assert_eq!(idx.num_keys(), 1);
    }

    /// Postings come back in row order whether the rows were indexed at
    /// build time or inserted after it, and a relation cloned and then
    /// written (copy-on-write) extends its own copy of the chains.
    #[test]
    fn postings_stay_in_row_order() {
        let keys = [3, 1, 3, 2, 1, 3, 3, 1];
        let mut r = Relation::new();
        for (i, &k) in keys[..3].iter().enumerate() {
            r.insert(Row::new(vec![Value::int(k), Value::int(i as i64)]));
        }
        let select = |r: &Relation, k: i64| {
            let mut out = Vec::new();
            r.select_ids_into(&[0], &[id(k)], &mut out);
            out
        };
        assert_eq!(select(&r, 3), [0, 2]);
        for (i, &k) in keys.iter().enumerate().skip(3) {
            r.insert(Row::new(vec![Value::int(k), Value::int(i as i64)]));
        }
        let want = |upto: usize, k: i64| -> Vec<u32> {
            (0..upto as u32).filter(|&i| keys[i as usize] == k).collect()
        };
        for k in 1..=3 {
            assert_eq!(select(&r, k), want(keys.len(), k), "key {k}");
        }
        let mut copy = r.clone();
        assert!(copy.shares_rows(&r));
        copy.insert(Row::new(vec![Value::int(1), Value::int(99)]));
        assert!(!copy.shares_rows(&r));
        let mut grown = want(keys.len(), 1);
        grown.push(keys.len() as u32);
        assert_eq!(select(&copy, 1), grown);
        assert_eq!(select(&r, 1), want(keys.len(), 1), "the original's chains are untouched");
        assert_eq!((copy.num_indices(), r.num_indices()), (1, 1));
    }
}
