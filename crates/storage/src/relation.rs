//! Duplicate-free, insertion-ordered **columnar** relations with cached
//! indices.
//!
//! Since the dictionary-encoding rework (DESIGN.md §11), a relation
//! stores one flat `Vec<u32>` per attribute instead of a vector of
//! boxed value rows: cell `(i, c)` of the relation is `cols[c][i]`, a
//! dense dictionary id (see [`crate::dictionary`]). Scans and joins
//! walk these contiguous id arrays and compare plain integers; values
//! are only decoded at output boundaries.

use std::sync::{Arc, RwLock};

use gbc_ast::Value;
use gbc_telemetry::Metrics;

use crate::dictionary::{self, DICT_MISS};
use crate::fx::FxHashSet;
use crate::index::Index;
use crate::tuple::Row;

/// A borrowed window of contiguous rows in a columnar arena: columns
/// `cols`, row positions `start..end`. This is what the engine hands
/// around instead of `&[Row]` — `Copy`, two words of range plus a
/// column slice, no decoding.
///
/// Row indices passed to [`RowsView::cell`] are **relative to the
/// view** (`0..len()`); a full-relation view ([`Relation::rows`])
/// therefore addresses rows by their arena id directly.
#[derive(Clone, Copy, Debug)]
pub struct RowsView<'a> {
    cols: &'a [Vec<u32>],
    start: usize,
    end: usize,
}

impl<'a> RowsView<'a> {
    /// A view over an explicit column slice (row range `start..end`).
    pub fn new(cols: &'a [Vec<u32>], start: usize, end: usize) -> RowsView<'a> {
        RowsView { cols, start, end }
    }

    /// An empty view with no columns.
    pub fn empty() -> RowsView<'static> {
        RowsView { cols: &[], start: 0, end: 0 }
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The id in cell `(row, col)`; `row` is view-relative.
    pub fn cell(&self, row: usize, col: usize) -> u32 {
        self.cols[col][self.start + row]
    }

    /// [`RowsView::cell`] for possibly out-of-range columns.
    pub fn try_cell(&self, row: usize, col: usize) -> Option<u32> {
        self.cols.get(col).map(|c| c[self.start + row])
    }

    /// A sub-view of rows `lo..hi` (view-relative).
    pub fn slice(&self, lo: usize, hi: usize) -> RowsView<'a> {
        debug_assert!(lo <= hi && self.start + hi <= self.end);
        RowsView { cols: self.cols, start: self.start + lo, end: self.start + hi }
    }

    /// The id row at view-relative position `row`, copied out.
    pub fn id_row(&self, row: usize) -> Vec<u32> {
        self.cols.iter().map(|c| c[self.start + row]).collect()
    }

    /// Decode the row at view-relative position `row` to a boundary
    /// [`Row`] (one counted decode per cell).
    pub fn decode_row(&self, row: usize) -> Row {
        let ids = self.id_row(row);
        dictionary::decode_row(&ids)
    }
}

/// Cell-wise id equality. Sound as a *value* equality: the global
/// dictionary makes id equality equivalent to value equality within a
/// process.
impl PartialEq for RowsView<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.arity() != other.arity() || self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|i| (0..self.arity()).all(|c| self.cell(i, c) == other.cell(i, c)))
    }
}

impl Eq for RowsView<'_> {}

/// An owned columnar row buffer — the ad-hoc counterpart of a
/// relation's arena, used for scratch deltas (tests, focused-variant
/// drivers) that need a [`RowsView`] without a full [`Relation`].
#[derive(Clone, Debug, Default)]
pub struct ColumnBuf {
    cols: Vec<Vec<u32>>,
    n_rows: usize,
}

impl ColumnBuf {
    /// Empty buffer; arity is fixed by the first pushed row.
    pub fn new() -> ColumnBuf {
        ColumnBuf::default()
    }

    /// Append a row of pre-encoded ids.
    pub fn push_ids(&mut self, ids: &[u32]) {
        if self.n_rows == 0 && self.cols.is_empty() {
            self.cols = vec![Vec::new(); ids.len()];
        }
        assert_eq!(ids.len(), self.cols.len(), "ColumnBuf rows must share an arity");
        for (col, &id) in self.cols.iter_mut().zip(ids) {
            col.push(id);
        }
        self.n_rows += 1;
    }

    /// Encode and append a row of values.
    pub fn push_values(&mut self, values: &[Value]) {
        let ids = dictionary::encode_row(values);
        self.push_ids(&ids);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// A view over all buffered rows.
    pub fn view(&self) -> RowsView<'_> {
        RowsView { cols: &self.cols, start: 0, end: self.n_rows }
    }
}

impl FromIterator<Row> for ColumnBuf {
    fn from_iter<T: IntoIterator<Item = Row>>(iter: T) -> ColumnBuf {
        let mut buf = ColumnBuf::new();
        for row in iter {
            buf.push_values(&row);
        }
        buf
    }
}

/// A relation: an insertion-ordered set of dictionary-encoded rows in
/// columnar arenas.
///
/// Insertion order is exposed so that evaluation is fully deterministic
/// (given a deterministic chooser) regardless of hash seeds. The
/// column vectors double as the **arena**: indices and callers refer
/// to rows by `u32` position ([`Relation::rows`],
/// [`Relation::select_ids_into`]), so the join path never materialises
/// rows out of storage. Indices on column subsets are created lazily
/// behind an `RwLock` — the engine reads relations through `&Relation`
/// while staging derived tuples elsewhere, so interior mutability
/// confines itself to the index cache. The lock (rather than a
/// `RefCell`) keeps `Relation` `Sync`: `gbc serve` request workers
/// share a session's EDB through an `Arc`, and concurrent requests may
/// probe the same relation. Probes take the read lock; a miss upgrades
/// to the write lock with a double-check, so concurrent first probes of
/// the same column set still build the index exactly once.
#[derive(Debug, Default)]
pub struct Relation {
    /// One `Vec<u32>` per attribute; all the same length.
    cols: Vec<Vec<u32>>,
    /// Row count, tracked separately so zero-arity relations (no
    /// columns) still count their single row.
    n_rows: usize,
    /// Arity, fixed by the first inserted row.
    arity: Option<usize>,
    /// Dedup set over encoded rows.
    set: FxHashSet<Vec<u32>>,
    /// Cached indices, keyed by their column bitmask (bit i ⇒ column i
    /// participates, in ascending column order).
    indices: RwLock<Vec<(u64, Index)>>,
    /// Shared counter registry; index builds/probes are reported here
    /// when attached.
    metrics: Option<Arc<Metrics>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // Indices survive the clone: they hold arena positions, and the
        // arenas are copied verbatim, so every stored row id still
        // points at the same row in the copy.
        Relation {
            cols: self.cols.clone(),
            n_rows: self.n_rows,
            arity: self.arity,
            set: self.set.clone(),
            indices: RwLock::new(self.indices.read().expect("index cache lock").clone()),
            metrics: self.metrics.clone(),
        }
    }
}

/// The column bitmask identifying a cached index, or `None` when a
/// column is beyond the 64 the mask can represent — such column sets
/// are served by a linear scan instead of an index.
fn mask_of(cols: &[usize]) -> Option<u64> {
    let mut mask = 0u64;
    for &c in cols {
        if c >= 64 {
            return None;
        }
        mask |= 1 << c;
    }
    Some(mask)
}

impl Relation {
    /// Empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Attach a counter registry; index builds and probes report to it.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Arity, once the first row fixed it.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Insert a row, interning its values; returns `false` if it was
    /// already present.
    pub fn insert(&mut self, row: Row) -> bool {
        let ids = dictionary::encode_row(&row);
        self.insert_ids(ids)
    }

    /// Insert a pre-encoded row; returns `false` on duplicate.
    ///
    /// # Panics
    /// Panics when the row's arity differs from the relation's.
    pub fn insert_ids(&mut self, ids: Vec<u32>) -> bool {
        match self.arity {
            None => {
                self.arity = Some(ids.len());
                self.cols = vec![Vec::new(); ids.len()];
            }
            Some(a) => {
                assert_eq!(a, ids.len(), "relation rows must share an arity");
            }
        }
        if self.set.contains(ids.as_slice()) {
            return false;
        }
        let id = self.n_rows as u32;
        for (_, idx) in self.indices.get_mut().expect("index cache lock").iter_mut() {
            idx.insert_row(&ids, id);
        }
        for (col, &cell) in self.cols.iter_mut().zip(&ids) {
            col.push(cell);
        }
        self.n_rows += 1;
        self.set.insert(ids);
        true
    }

    /// Membership test.
    pub fn contains(&self, row: &Row) -> bool {
        self.contains_values(row)
    }

    /// Membership test from a value slice, without materialising a
    /// `Row` (the negation check of the compiled join path). A value
    /// the dictionary has never seen cannot be stored anywhere, so a
    /// lookup-only encode suffices.
    pub fn contains_values(&self, values: &[Value]) -> bool {
        if self.arity != Some(values.len()) {
            return false;
        }
        let mut key = Vec::with_capacity(values.len());
        for v in values {
            let id = dictionary::try_encode(v);
            if id == DICT_MISS {
                return false;
            }
            key.push(id);
        }
        self.set.contains(key.as_slice())
    }

    /// Membership test over pre-encoded ids.
    pub fn contains_ids(&self, ids: &[u32]) -> bool {
        self.set.contains(ids)
    }

    /// Rows in insertion order, decoded (boundary use only — hot paths
    /// should read [`Relation::rows`] in id space).
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        let view = self.rows();
        (0..view.len()).map(move |i| view.decode_row(i))
    }

    /// The `i`-th row in insertion order, decoded.
    pub fn get(&self, i: usize) -> Option<Row> {
        (i < self.n_rows).then(|| self.rows().decode_row(i))
    }

    /// The insertion-ordered columnar arena. Row ids produced by
    /// [`Relation::select_ids_into`] index into this view.
    pub fn rows(&self) -> RowsView<'_> {
        RowsView { cols: &self.cols, start: 0, end: self.n_rows }
    }

    /// Rows inserted at or after position `from` (used for deltas).
    pub fn since(&self, from: usize) -> RowsView<'_> {
        RowsView { cols: &self.cols, start: from.min(self.n_rows), end: self.n_rows }
    }

    /// Collect into `out` the arena ids of rows whose projection on
    /// `cols` (ascending column order) equals the encoded `key`; `out`
    /// is cleared first. Builds and caches an index for `cols` on
    /// first use; subsequent inserts maintain it. Column sets reaching
    /// past column 63 cannot be masked into the index cache key and
    /// fall back to an unindexed linear scan.
    ///
    /// A key containing [`DICT_MISS`] (a constant the dictionary has
    /// never seen) probes normally and matches nothing — stored rows
    /// only ever hold real ids.
    ///
    /// Ids are copied out (rather than returned as a borrow) so the
    /// internal index cache is not kept borrowed while the caller
    /// iterates — a nested probe of the same relation (self-join) would
    /// otherwise conflict with it.
    pub fn select_ids_into(&self, cols: &[usize], key: &[u32], out: &mut Vec<u32>) {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be sorted");
        debug_assert_eq!(cols.len(), key.len());
        out.clear();
        if cols.is_empty() {
            out.extend(0..self.n_rows as u32);
            return;
        }
        if let Some(m) = &self.metrics {
            m.index_probes.inc();
        }
        let Some(mask) = mask_of(cols) else {
            for i in 0..self.n_rows {
                if cols
                    .iter()
                    .zip(key)
                    .all(|(&c, &k)| self.cols.get(c).map(|col| col[i]) == Some(k))
                {
                    out.push(i as u32);
                }
            }
            return;
        };
        {
            let cache = self.indices.read().expect("index cache lock");
            if let Some((_, idx)) = cache.iter().find(|(m, _)| *m == mask) {
                out.extend_from_slice(idx.get(key));
                return;
            }
        }
        let mut cache = self.indices.write().expect("index cache lock");
        // Double-check under the write lock: a concurrent request may
        // have built the same index while we waited, and the build must
        // happen (and be counted) exactly once.
        if let Some((_, idx)) = cache.iter().find(|(m, _)| *m == mask) {
            out.extend_from_slice(idx.get(key));
            return;
        }
        if let Some(m) = &self.metrics {
            m.index_builds.inc();
        }
        let idx = Index::build(cols.to_vec(), self.rows());
        out.extend_from_slice(idx.get(key));
        cache.push((mask, idx));
    }

    /// Rows whose projection on `cols` (ascending column order) equals
    /// `key`, decoded out of the arena. Compatibility wrapper over
    /// [`Relation::select_ids_into`] — hot callers should use the id
    /// form and read the arena in place; every row this decodes is
    /// counted in the `rows_cloned` metric.
    ///
    /// `key` must list values in the same ascending-column order.
    pub fn select(&self, cols: &[usize], key: &[Value]) -> Vec<Row> {
        if cols.is_empty() {
            if let Some(m) = &self.metrics {
                m.rows_cloned.add(self.n_rows as u64);
            }
            return self.iter().collect();
        }
        let encoded: Vec<u32> = key.iter().map(dictionary::try_encode).collect();
        let mut ids = Vec::new();
        self.select_ids_into(cols, &encoded, &mut ids);
        if let Some(m) = &self.metrics {
            m.rows_cloned.add(ids.len() as u64);
        }
        let view = self.rows();
        ids.iter().map(|&i| view.decode_row(i as usize)).collect()
    }

    /// Drop all cached indices (tests / memory pressure).
    pub fn clear_indices(&self) {
        self.indices.write().expect("index cache lock").clear();
    }

    /// Number of cached indices (for tests).
    pub fn num_indices(&self) -> usize {
        self.indices.read().expect("index cache lock").len()
    }
}

impl FromIterator<Row> for Relation {
    fn from_iter<T: IntoIterator<Item = Row>>(iter: T) -> Relation {
        let mut r = Relation::new();
        for row in iter {
            r.insert(row);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_telemetry::rng::Rng;

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::int(v)).collect())
    }

    fn id(v: i64) -> u32 {
        dictionary::encode(&Value::int(v))
    }

    /// `gbc serve` request workers share a session's EDB across
    /// threads; the index cache must therefore be `Sync`.
    #[test]
    fn relation_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Relation>();
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new();
        assert!(r.insert(row(&[1, 2])));
        assert!(!r.insert(row(&[1, 2])));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut r = Relation::new();
        for k in [3, 1, 2] {
            r.insert(row(&[k]));
        }
        let got: Vec<i64> = r.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![3, 1, 2]);
    }

    #[test]
    fn select_builds_index_once_and_maintains_it() {
        let mut r = Relation::new();
        r.insert(row(&[1, 10]));
        r.insert(row(&[2, 20]));
        assert_eq!(r.select(&[0], &[Value::int(1)]).len(), 1);
        assert_eq!(r.num_indices(), 1);
        // Insert after the index exists: the index must see the new row.
        r.insert(row(&[1, 30]));
        assert_eq!(r.select(&[0], &[Value::int(1)]).len(), 2);
        assert_eq!(r.num_indices(), 1);
    }

    #[test]
    fn select_with_empty_cols_scans_everything() {
        let mut r = Relation::new();
        r.insert(row(&[1]));
        r.insert(row(&[2]));
        assert_eq!(r.select(&[], &[]).len(), 2);
    }

    #[test]
    fn select_ids_point_into_the_arena() {
        let mut r = Relation::new();
        r.insert(row(&[1, 10]));
        r.insert(row(&[2, 20]));
        r.insert(row(&[1, 30]));
        let mut ids = Vec::new();
        r.select_ids_into(&[0], &[id(1)], &mut ids);
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(r.rows().decode_row(ids[1] as usize), row(&[1, 30]));
    }

    #[test]
    fn unseen_key_probes_but_matches_nothing() {
        let mut r = Relation::new();
        r.insert(row(&[1, 10]));
        let mut ids = vec![99];
        r.select_ids_into(&[0], &[DICT_MISS], &mut ids);
        assert!(ids.is_empty());
        assert_eq!(r.num_indices(), 1, "a miss key still probes (and builds) normally");
    }

    #[test]
    fn since_returns_suffix() {
        let mut r = Relation::new();
        r.insert(row(&[1]));
        let mark = r.len();
        r.insert(row(&[2]));
        r.insert(row(&[3]));
        let view = r.since(mark);
        let delta: Vec<Row> = (0..view.len()).map(|i| view.decode_row(i)).collect();
        assert_eq!(delta, vec![row(&[2]), row(&[3])]);
        assert!(r.since(100).is_empty());
    }

    #[test]
    fn rows_view_slices_and_compares() {
        let mut r = Relation::new();
        for k in 0..5 {
            r.insert(row(&[k, k * 10]));
        }
        let all = r.rows();
        assert_eq!(all.len(), 5);
        assert_eq!(all.arity(), 2);
        let mid = all.slice(1, 4);
        assert_eq!(mid.len(), 3);
        assert_eq!(mid.cell(0, 0), id(1));
        assert_eq!(mid.id_row(2), vec![id(3), id(30)]);
        assert_eq!(mid, r.since(1).slice(0, 3));
        assert_ne!(mid, all.slice(0, 3));
        assert_eq!(all.try_cell(0, 7), None);
    }

    #[test]
    fn column_buf_matches_relation_views() {
        let mut r = Relation::new();
        r.insert(row(&[4, 5]));
        r.insert(row(&[6, 7]));
        let mut buf = ColumnBuf::new();
        buf.push_values(&[Value::int(4), Value::int(5)]);
        buf.push_ids(&[id(6), id(7)]);
        assert_eq!(buf.view(), r.rows());
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn metrics_count_builds_probes_and_clones() {
        let m = Arc::new(Metrics::new());
        let mut r = Relation::new();
        r.set_metrics(Arc::clone(&m));
        r.insert(row(&[1, 10]));
        r.select(&[0], &[Value::int(1)]); // probe + build, clones 1 row
        r.select(&[0], &[Value::int(1)]); // probe only, clones 1 row
        r.select(&[], &[]); // full scan: clones, but neither probe nor build
        let mut ids = Vec::new();
        r.select_ids_into(&[0], &[id(1)], &mut ids); // probe, no clone
        let s = m.snapshot();
        assert_eq!(s.index_builds, 1);
        assert_eq!(s.index_probes, 3);
        assert_eq!(s.rows_cloned, 3);
    }

    #[test]
    fn distinct_masks_get_distinct_indices() {
        let mut r = Relation::new();
        r.insert(row(&[1, 2, 3]));
        r.select(&[0], &[Value::int(1)]);
        r.select(&[0, 2], &[Value::int(1), Value::int(3)]);
        assert_eq!(r.num_indices(), 2);
    }

    #[test]
    fn clone_keeps_indices_valid() {
        let mut r = Relation::new();
        r.insert(row(&[1, 10]));
        r.insert(row(&[1, 20]));
        r.select(&[0], &[Value::int(1)]);
        assert_eq!(r.num_indices(), 1);
        let mut c = r.clone();
        assert_eq!(c.num_indices(), 1, "indices survive clone");
        // The clone's index keeps working and keeps being maintained.
        c.insert(row(&[1, 30]));
        assert_eq!(c.select(&[0], &[Value::int(1)]).len(), 3);
        assert_eq!(c.num_indices(), 1, "no rebuild needed after clone");
        // ...without affecting the original.
        assert_eq!(r.select(&[0], &[Value::int(1)]).len(), 2);
    }

    #[test]
    fn contains_values_avoids_row_construction() {
        let mut r = Relation::new();
        r.insert(row(&[4, 5]));
        assert!(r.contains_values(&[Value::int(4), Value::int(5)]));
        assert!(!r.contains_values(&[Value::int(5), Value::int(4)]));
        assert!(!r.contains_values(&[Value::int(4)]));
        // A value the dictionary never saw short-circuits to false.
        assert!(!r.contains_values(&[Value::int(4), Value::sym("never-stored-anywhere")]));
    }

    #[test]
    fn zero_arity_relations_count_their_single_row() {
        let mut r = Relation::new();
        assert!(r.insert(Row::new(vec![])));
        assert!(!r.insert(Row::new(vec![])));
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), Some(0));
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.get(0), Some(Row::new(vec![])));
    }

    /// Columns ≥ 64 can't participate in the index-cache bitmask; the
    /// select must fall back to a linear scan instead of panicking.
    #[test]
    fn wide_relations_fall_back_to_linear_scan() {
        let mut r = Relation::new();
        let mut wide: Vec<i64> = (0..70).collect();
        r.insert(Row::new(wide.iter().map(|&v| Value::int(v)).collect()));
        wide[69] = -1;
        r.insert(Row::new(wide.iter().map(|&v| Value::int(v)).collect()));
        let hits = r.select(&[0, 69], &[Value::int(0), Value::int(69)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][69], Value::int(69));
        assert_eq!(r.num_indices(), 0, "no index cached for unmaskable columns");
        // Also out-of-range columns simply match nothing.
        assert!(r.select(&[0, 200], &[Value::int(0), Value::int(0)]).is_empty());
    }

    /// Seeded sweep: after any interleaving of inserts and probes, the
    /// ids served by the incrementally maintained index agree with a
    /// fresh rebuild over the arena.
    #[test]
    fn incremental_index_agrees_with_fresh_rebuild() {
        let mut rng = Rng::new(0x01DD_ECAF);
        for case in 0..64 {
            let mut r = Relation::new();
            let n_ops = 1 + rng.below_usize(127);
            for _ in 0..n_ops {
                // Narrow value ranges force collisions, duplicates and
                // multi-row keys.
                let a = rng.range_i64(0, 7);
                let b = rng.range_i64(0, 7);
                r.insert(row(&[a, b]));
                if rng.below(4) == 0 {
                    // Probe mid-stream so the cached index exists early
                    // and is maintained across subsequent inserts.
                    let mut ids = Vec::new();
                    r.select_ids_into(&[0], &[id(rng.range_i64(0, 7))], &mut ids);
                }
            }
            for key_col in [0usize, 1] {
                for k in 0..8 {
                    let key = [id(k)];
                    let mut cached = Vec::new();
                    r.select_ids_into(&[key_col], &key, &mut cached);
                    let fresh = Index::build(vec![key_col], r.rows());
                    assert_eq!(cached, fresh.get(&key), "case {case} col {key_col} key {k}");
                }
            }
        }
    }
}
