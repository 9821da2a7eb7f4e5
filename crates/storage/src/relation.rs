//! Duplicate-free, insertion-ordered **columnar** relations with cached
//! indices.
//!
//! Since the dictionary-encoding rework (DESIGN.md §11), a relation
//! stores one flat `Vec<u32>` per attribute instead of a vector of
//! boxed value rows: cell `(i, c)` of the relation is `cols[c][i]`, a
//! dense dictionary id (see [`crate::dictionary`]). Scans and joins
//! walk these contiguous id arrays and compare plain integers; values
//! are only decoded at output boundaries.

use std::hash::Hasher;
use std::sync::{Arc, OnceLock, RwLock};

use gbc_ast::Value;
use gbc_telemetry::Metrics;

use crate::dictionary::{self, DICT_MISS};
use crate::fx::FxHasher;
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

    /// [`RowsView::id_row`] into a reused buffer.
    pub fn read_row(&self, row: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c[self.start + row]));
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
/// rows out of storage.
///
/// A relation is two parts:
///
/// * the **row store** — columns, dedup table and cached canonical text —
///   behind an `Arc`. Cloning a relation shares it; the first insert
///   into a shared store copies it (copy-on-write), so a database
///   cloned from another, or built over a compiled program's fact base,
///   costs nothing until it writes;
/// * the **handle** — the index cache and the counter registry — owned
///   by each relation, so every evaluation builds, probes and counts
///   its own indices however many others share its rows.
///
/// Indices on column subsets are created lazily behind an `RwLock` —
/// the engine reads relations through `&Relation` while staging derived
/// tuples elsewhere, so interior mutability confines itself to the
/// index cache. The lock (rather than a `RefCell`) keeps `Relation`
/// `Sync`: `gbc serve` request workers share a session's EDB through an
/// `Arc`, and concurrent requests may probe the same relation. Probes
/// take the read lock; a miss upgrades to the write lock with a
/// double-check, so concurrent first probes of the same column set
/// still build the index exactly once.
#[derive(Debug, Default)]
pub struct Relation {
    rows: Arc<RowStore>,
    /// Cached indices, keyed by their column bitmask (bit i ⇒ column i
    /// participates, in ascending column order).
    indices: RwLock<Vec<(u64, Index)>>,
    /// Shared counter registry; index builds/probes are reported here
    /// when attached.
    metrics: Option<Arc<Metrics>>,
}

/// The shared part of a [`Relation`].
#[derive(Debug, Default)]
struct RowStore {
    /// One `Vec<u32>` per attribute; all the same length.
    cols: Vec<Vec<u32>>,
    /// Row count, tracked separately so zero-arity relations (no
    /// columns) still count their single row.
    n_rows: usize,
    /// Arity, fixed by the first inserted row.
    arity: Option<usize>,
    /// Dedup table: open-addressed (linear probing, power-of-two size)
    /// row positions, indexed by the top bits of the row's Fx hash and
    /// compared against the columns; empty until the first insert.
    table: Vec<u32>,
    /// The rows' canonical text, rendered on first use while the store
    /// is shared ([`Relation::shared_text`]); a store only ever serves
    /// one predicate, whose name the text carries.
    text: OnceLock<String>,
}

impl Clone for RowStore {
    /// A copy for writing: the rows without the cached text, which the
    /// write would invalidate.
    fn clone(&self) -> Self {
        RowStore {
            cols: self.cols.clone(),
            n_rows: self.n_rows,
            arity: self.arity,
            table: self.table.clone(),
            text: OnceLock::new(),
        }
    }
}

/// An empty dedup-table slot.
const EMPTY: u32 = u32::MAX;

fn row_hash(cells: impl Iterator<Item = u32>) -> u64 {
    let mut h = FxHasher::default();
    for c in cells {
        h.write_u32(c);
    }
    h.finish()
}

impl RowStore {
    /// The table slot of the row equal to `ids` (`Ok`), or the empty
    /// slot where it would go (`Err`). The table must not be empty.
    fn probe(&self, ids: &[u32]) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(row_hash(ids.iter().copied()));
        loop {
            match self.table[i] {
                EMPTY => return Err(i),
                r if self.cols.iter().zip(ids).all(|(col, &id)| col[r as usize] == id) => {
                    return Ok(i)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The home slot of `hash`: its top bits.
    fn slot_of(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    fn contains(&self, ids: &[u32]) -> bool {
        self.arity == Some(ids.len()) && self.probe(ids).is_ok()
    }

    /// Append a row known to be new; `slot` is the empty table slot its
    /// probe found (`None` while the store is empty).
    fn push(&mut self, ids: &[u32], slot: Option<usize>) {
        if self.arity.is_none() {
            self.arity = Some(ids.len());
            self.cols = vec![Vec::new(); ids.len()];
        }
        let row = self.n_rows as u32;
        for (col, &cell) in self.cols.iter_mut().zip(ids) {
            col.push(cell);
        }
        self.n_rows += 1;
        // Grow beyond 7/8 full; re-inserting every row places this one.
        match slot {
            Some(slot) if self.n_rows * 8 <= self.table.len() * 7 => self.table[slot] = row,
            _ => self.rehash((self.table.len() * 2).max(8)),
        }
    }

    /// Room for `rows` more rows of `arity` cells: the columns and the
    /// dedup table take them without growing.
    fn reserve(&mut self, arity: usize, rows: usize) {
        if self.arity.is_none() {
            self.arity = Some(arity);
            self.cols = vec![Vec::new(); arity];
        }
        for col in &mut self.cols {
            col.reserve(rows);
        }
        let need = self.n_rows + rows;
        let mut slots = self.table.len().max(8);
        while need * 8 > slots * 7 {
            slots *= 2;
        }
        if slots > self.table.len() {
            self.rehash(slots);
        }
    }

    /// Rebuild the table with `slots` slots.
    fn rehash(&mut self, slots: usize) {
        self.table = vec![EMPTY; slots];
        let mask = slots - 1;
        for r in 0..self.n_rows {
            let mut i = self.slot_of(row_hash(self.cols.iter().map(|col| col[r])));
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = r as u32;
        }
    }
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // Indices survive the clone: they hold arena positions, and the
        // clone shares the arena (a later copy-on-write copies it
        // verbatim), so every stored row id still points at its row.
        Relation {
            rows: Arc::clone(&self.rows),
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
        self.rows.n_rows
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.n_rows == 0
    }

    /// Arity, once the first row fixed it.
    pub fn arity(&self) -> Option<usize> {
        self.rows.arity
    }

    /// A fresh handle on this relation's row store: shared rows, no
    /// cached indices, no counter registry.
    pub fn share(&self) -> Relation {
        Relation { rows: Arc::clone(&self.rows), ..Relation::default() }
    }

    /// Does this relation share its row store with `other` (one is a
    /// clone of the other, and neither has written since)?
    pub fn shares_rows(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// The row store's cached text, produced by `render` on first use,
    /// when the store is shared with another relation or was cached
    /// before; `None` for a store this handle owns alone, which the
    /// caller renders directly.
    pub fn shared_text(&self, render: impl FnOnce() -> String) -> Option<&str> {
        let cached = Arc::strong_count(&self.rows) > 1 || self.rows.text.get().is_some();
        cached.then(|| self.rows.text.get_or_init(render).as_str())
    }

    /// Insert a row, interning its values; returns `false` if it was
    /// already present.
    pub fn insert(&mut self, row: Row) -> bool {
        self.insert_ids(&dictionary::encode_row(&row))
    }

    /// Insert a pre-encoded row; returns `false` on duplicate. A store
    /// shared with other relations is copied first, without its cached
    /// text; a duplicate copies nothing.
    ///
    /// # Panics
    /// Panics when the row's arity differs from the relation's.
    pub fn insert_ids(&mut self, ids: &[u32]) -> bool {
        if let Some(a) = self.rows.arity {
            assert_eq!(a, ids.len(), "relation rows must share an arity");
        }
        // One probe finds both a duplicate and the slot a new row
        // takes; a copy-on-write copy keeps the table, so the slot
        // stays valid.
        let slot = match self.rows.arity {
            None => None,
            Some(_) => match self.rows.probe(ids) {
                Ok(_) => return false,
                Err(slot) => Some(slot),
            },
        };
        let id = self.rows.n_rows as u32;
        for (_, idx) in self.indices.get_mut().expect("index cache lock").iter_mut() {
            idx.insert_row(ids, id);
        }
        let rows = Arc::make_mut(&mut self.rows);
        rows.text.take();
        rows.push(ids, slot);
        true
    }

    /// Make room for `rows` more rows of `arity` cells, so that
    /// inserting them grows neither the columns nor the dedup table. On
    /// an empty relation this fixes the arity, as a first insert would.
    ///
    /// # Panics
    /// Panics when `arity` differs from the relation's.
    pub fn reserve(&mut self, arity: usize, rows: usize) {
        if let Some(a) = self.rows.arity {
            assert_eq!(a, arity, "relation rows must share an arity");
        }
        if rows > 0 {
            Arc::make_mut(&mut self.rows).reserve(arity, rows);
        }
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
        if self.rows.arity != Some(values.len()) {
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
        self.rows.contains(&key)
    }

    /// Membership test over pre-encoded ids.
    pub fn contains_ids(&self, ids: &[u32]) -> bool {
        self.rows.contains(ids)
    }

    /// Rows in insertion order, decoded (boundary use only — hot paths
    /// should read [`Relation::rows`] in id space).
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        let view = self.rows();
        (0..view.len()).map(move |i| view.decode_row(i))
    }

    /// The `i`-th row in insertion order, decoded.
    pub fn get(&self, i: usize) -> Option<Row> {
        (i < self.len()).then(|| self.rows().decode_row(i))
    }

    /// The insertion-ordered columnar arena. Row ids produced by
    /// [`Relation::select_ids_into`] index into this view.
    pub fn rows(&self) -> RowsView<'_> {
        RowsView { cols: &self.rows.cols, start: 0, end: self.rows.n_rows }
    }

    /// Rows inserted at or after position `from` (used for deltas).
    pub fn since(&self, from: usize) -> RowsView<'_> {
        let n = self.rows.n_rows;
        RowsView { cols: &self.rows.cols, start: from.min(n), end: n }
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
        let n_rows = self.rows.n_rows;
        if cols.is_empty() {
            out.extend(0..n_rows as u32);
            return;
        }
        if let Some(m) = &self.metrics {
            m.index_probes.inc();
        }
        let Some(mask) = mask_of(cols) else {
            for i in 0..n_rows {
                if cols
                    .iter()
                    .zip(key)
                    .all(|(&c, &k)| self.rows.cols.get(c).map(|col| col[i]) == Some(k))
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

    /// The arena ids of rows whose projection on `cols` equals the
    /// integer `key`.
    fn select(r: &Relation, cols: &[usize], key: &[i64]) -> Vec<u32> {
        let key: Vec<u32> = key.iter().map(|&k| id(k)).collect();
        let mut ids = Vec::new();
        r.select_ids_into(cols, &key, &mut ids);
        ids
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
        assert_eq!(select(&r, &[0], &[1]), vec![0]);
        assert_eq!(r.num_indices(), 1);
        // Insert after the index exists: the index must see the new row.
        r.insert(row(&[1, 30]));
        assert_eq!(select(&r, &[0], &[1]), vec![0, 2]);
        assert_eq!(r.num_indices(), 1);
    }

    #[test]
    fn select_with_empty_cols_scans_everything() {
        let mut r = Relation::new();
        r.insert(row(&[1]));
        r.insert(row(&[2]));
        assert_eq!(select(&r, &[], &[]), vec![0, 1]);
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
    fn metrics_count_builds_and_probes() {
        let m = Arc::new(Metrics::new());
        let mut r = Relation::new();
        r.set_metrics(Arc::clone(&m));
        r.insert(row(&[1, 10]));
        select(&r, &[0], &[1]); // probe + build
        select(&r, &[0], &[1]); // probe only
        select(&r, &[], &[]); // full scan: neither probe nor build
        let s = m.snapshot();
        assert_eq!(s.index_builds, 1);
        assert_eq!(s.index_probes, 2);
    }

    #[test]
    fn distinct_masks_get_distinct_indices() {
        let mut r = Relation::new();
        r.insert(row(&[1, 2, 3]));
        select(&r, &[0], &[1]);
        select(&r, &[0, 2], &[1, 3]);
        assert_eq!(r.num_indices(), 2);
    }

    #[test]
    fn clone_keeps_indices_valid() {
        let mut r = Relation::new();
        r.insert(row(&[1, 10]));
        r.insert(row(&[1, 20]));
        select(&r, &[0], &[1]);
        assert_eq!(r.num_indices(), 1);
        let mut c = r.clone();
        assert_eq!(c.num_indices(), 1, "indices survive clone");
        // The clone's index keeps working and keeps being maintained.
        c.insert(row(&[1, 30]));
        assert_eq!(select(&c, &[0], &[1]).len(), 3);
        assert_eq!(c.num_indices(), 1, "no rebuild needed after clone");
        // ...without affecting the original.
        assert_eq!(select(&r, &[0], &[1]).len(), 2);
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

    /// Rows inserted after a `reserve` land as without it, and neither
    /// the columns nor the dedup table grow while they do.
    #[test]
    fn reserve_sizes_columns_and_table_once() {
        let rows: Vec<Row> = (0..300).map(|i| row(&[i % 200, i % 7])).collect();
        let plain: Relation = rows.iter().cloned().collect();
        let mut sized = Relation::new();
        sized.reserve(2, rows.len());
        let (slots, capacity) = (sized.rows.table.len(), sized.rows.cols[0].capacity());
        for r in &rows {
            sized.insert(r.clone());
        }
        assert_eq!(sized.rows(), plain.rows());
        assert_eq!((sized.rows.table.len(), sized.rows.cols[0].capacity()), (slots, capacity));
        // Zero-arity facts reserve too, and still count one row.
        let mut done = Relation::new();
        done.reserve(0, 3);
        for _ in 0..3 {
            done.insert_ids(&[]);
        }
        assert_eq!((done.len(), done.arity()), (1, Some(0)));
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
        let hits = select(&r, &[0, 69], &[0, 69]);
        assert_eq!(hits, vec![0]);
        assert_eq!(r.rows().decode_row(0)[69], Value::int(69));
        assert_eq!(r.num_indices(), 0, "no index cached for unmaskable columns");
        // Also out-of-range columns simply match nothing.
        assert!(select(&r, &[0, 200], &[0, 0]).is_empty());
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
