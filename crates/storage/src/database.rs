//! The fact store: predicate symbol → relation.

use std::sync::Arc;

use gbc_ast::{Symbol, Value};
use gbc_telemetry::Metrics;

use crate::dictionary;
use crate::fx::FxHashMap;
use crate::provenance::ProvenanceArena;
use crate::relation::{Relation, RowsView};
use crate::tuple::Row;

/// A database instance. Relations are keyed by predicate [`Symbol`]
/// id, so a lookup hashes one `u32`; iteration over predicates is in
/// symbol (name) order, which keeps printed models and test
/// expectations stable.
///
/// Cloning shares every relation's row store (see [`Relation`]): a
/// clone costs one `Arc` per relation, and each side copies a store
/// only when it first writes to it.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: FxHashMap<Symbol, Relation>,
    /// Returned by [`Database::relation`] for absent predicates, so
    /// lookups never allocate or panic.
    empty: Relation,
    /// Counter registry handed to every relation (existing and future).
    metrics: Option<Arc<Metrics>>,
    /// Derivation recorder. Clones share it, so attaching an arena to
    /// the EDB before a run flows into every executor-cloned database.
    provenance: Option<Arc<ProvenanceArena>>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Attach a counter registry: every current relation reports index
    /// traffic to it, as will relations created later.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        for rel in self.relations.values_mut() {
            rel.set_metrics(Arc::clone(&metrics));
        }
        self.metrics = Some(metrics);
    }

    /// Attach a provenance arena. The executors consult
    /// [`Database::provenance`] and record derivations when present.
    pub fn set_provenance(&mut self, arena: Arc<ProvenanceArena>) {
        self.provenance = Some(arena);
    }

    /// The attached provenance arena, if any.
    pub fn provenance(&self) -> Option<&Arc<ProvenanceArena>> {
        self.provenance.as_ref()
    }

    /// `rel` reporting to `metrics`, when attached.
    fn with_metrics(mut rel: Relation, metrics: &Option<Arc<Metrics>>) -> Relation {
        if let Some(m) = metrics {
            rel.set_metrics(Arc::clone(m));
        }
        rel
    }

    /// Insert `pred(row)`. Returns `false` on duplicate.
    pub fn insert(&mut self, pred: Symbol, row: Row) -> bool {
        let metrics = &self.metrics;
        self.relations
            .entry(pred)
            .or_insert_with(|| Database::with_metrics(Relation::new(), metrics))
            .insert(row)
    }

    /// Insert a pre-encoded row `pred(ids)`. Returns `false` on
    /// duplicate.
    pub fn insert_ids(&mut self, pred: Symbol, ids: &[u32]) -> bool {
        self.relation_mut(pred).insert_ids(ids)
    }

    /// Insert from plain values.
    pub fn insert_values(&mut self, pred: impl Into<Symbol>, values: Vec<Value>) -> bool {
        self.insert(pred.into(), Row::new(values))
    }

    /// The relation for `pred`, or an empty relation if absent.
    pub fn relation(&self, pred: Symbol) -> &Relation {
        self.relations.get(&pred).unwrap_or(&self.empty)
    }

    /// The relations in predicate name order.
    fn sorted(&self) -> Vec<(Symbol, &Relation)> {
        let mut rels: Vec<(Symbol, &Relation)> =
            self.relations.iter().map(|(&p, rel)| (p, rel)).collect();
        rels.sort_unstable_by_key(|&(p, _)| p);
        rels
    }

    /// Append every row of `other` after this database's own rows, as
    /// if each were inserted in `other`'s order (duplicates dropped). A
    /// predicate absent here shares `other`'s row store instead of
    /// copying it; either way `other` is left unchanged.
    pub fn append(&mut self, other: &Database) {
        for (&pred, rel) in &other.relations {
            match self.relations.get_mut(&pred) {
                Some(mine) => {
                    let (rows, mut row) = (rel.rows(), Vec::new());
                    for i in 0..rows.len() {
                        rows.read_row(i, &mut row);
                        mine.insert_ids(&row);
                    }
                }
                None => {
                    let shared = Database::with_metrics(rel.share(), &self.metrics);
                    self.relations.insert(pred, shared);
                }
            }
        }
    }

    /// Mutable relation handle (creates it if missing).
    pub fn relation_mut(&mut self, pred: Symbol) -> &mut Relation {
        let metrics = &self.metrics;
        self.relations
            .entry(pred)
            .or_insert_with(|| Database::with_metrics(Relation::new(), metrics))
    }

    /// Does the database contain the fact `pred(row)`?
    pub fn contains(&self, pred: Symbol, row: &Row) -> bool {
        self.relations.get(&pred).is_some_and(|r| r.contains(row))
    }

    /// All predicates with at least one fact, in name order.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.sorted().into_iter().map(|(p, _)| p)
    }

    /// Row count for one predicate.
    pub fn count(&self, pred: Symbol) -> usize {
        self.relations.get(&pred).map_or(0, Relation::len)
    }

    /// Total fact count.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// All facts of one predicate as decoded rows — convenience for
    /// model comparison in tests.
    pub fn facts_of(&self, pred: Symbol) -> Vec<Row> {
        self.relation(pred).iter().collect()
    }

    /// Iterate over every fact in the database, decoded (a boundary
    /// operation — storage holds dictionary ids).
    pub fn iter_all(&self) -> impl Iterator<Item = (Symbol, Row)> + '_ {
        self.sorted().into_iter().flat_map(|(p, rel)| rel.iter().map(move |r| (p, r)))
    }

    /// Render the database as sorted ground facts, one per line —
    /// the canonical form used in golden tests.
    ///
    /// Rows are ordered in id space: each relation's row positions sort
    /// on one machine-word key per row (see `sort_run`) into the
    /// `Value` order of their cells ([`dictionary::cmp_ids`]), which is
    /// the order of the decoded rows, and the cells print straight into
    /// one byte buffer, sized once. Like a decoded-row render, it
    /// counts one `decode_calls` per printed cell. A relation whose row
    /// store is shared (a compiled program's facts, a caller's EDB)
    /// prints from the store's cached text, rendered — and counted — on
    /// first use only.
    pub fn canonical_form(&self) -> String {
        let estimate: usize = self
            .relations
            .iter()
            .map(|(p, rel)| rel.len() * (p.as_str().len() + 3 + 8 * rel.arity().unwrap_or(0)))
            .sum();
        let mut out = Vec::with_capacity(estimate);
        for (p, rel) in self.sorted() {
            let shared = rel.shared_text(|| {
                let mut text = Vec::new();
                render_relation(p, rel, &mut text);
                String::from_utf8(text).expect("a render writes UTF-8")
            });
            match shared {
                Some("") => {}
                Some(text) => {
                    if !out.is_empty() {
                        out.push(b'\n');
                    }
                    out.extend_from_slice(text.as_bytes());
                }
                None => render_relation(p, rel, &mut out),
            }
        }
        String::from_utf8(out).expect("a render writes UTF-8")
    }
}

/// Append `rel`'s rows to `out` as sorted ground facts `p(…).`, each
/// on its own line after whatever `out` already holds.
fn render_relation(p: Symbol, rel: &Relation, out: &mut Vec<u8>) {
    let rows = rel.rows();
    let (n, arity) = (rows.len(), rows.arity());
    let mut order: Vec<u32> = (0..n as u32).collect();
    if arity > 0 {
        sort_run(&rows, &mut vec![0; n], &mut order, 0);
    }
    dictionary::count_decodes((n * arity) as u64);
    for r in order {
        if !out.is_empty() {
            out.push(b'\n');
        }
        out.extend_from_slice(p.as_str().as_bytes());
        for c in 0..arity {
            out.push(if c == 0 { b'(' } else { b',' });
            push_value(out, dictionary::decode_ref(rows.cell(r as usize, c)));
        }
        if arity > 0 {
            out.push(b')');
        }
        out.push(b'.');
    }
}

/// Flips an integer's sign bit, so that unsigned key order is signed
/// integer order.
const SIGN: u64 = 1 << 63;

/// Sort `run`, row positions whose rows agree on every column before
/// `col`, into the `Value` order of columns `col..`. `keys` holds one
/// sort key per row of `rows`.
///
/// Each row's cell in `col` is read once, into its key: the run splits
/// into `nil`s, integers and the rest, which is `Value`'s shape order.
/// Integers sort as machine integers on the key; symbols, strings and
/// functors keep their id as the key and sort by
/// [`dictionary::cmp_ids`]. Every stretch of equal keys (all the
/// `nil`s are one) then sorts on the next column the same way, so a
/// later column is read only for rows tied on the earlier ones, and
/// the sort holds one key per row whatever the arity.
fn sort_run(rows: &RowsView<'_>, keys: &mut [u64], run: &mut [u32], col: usize) {
    let (mut nils, mut at, mut rest) = (0, 0, run.len());
    while at < rest {
        let row = run[at] as usize;
        let id = rows.cell(row, col);
        match *dictionary::decode_ref(id) {
            Value::Nil => {
                run.swap(nils, at);
                nils += 1;
                at += 1;
            }
            Value::Int(i) => {
                keys[row] = i as u64 ^ SIGN;
                at += 1;
            }
            _ => {
                keys[row] = u64::from(id);
                rest -= 1;
                run.swap(at, rest);
            }
        }
    }
    let (nil_run, keyed) = run.split_at_mut(nils);
    let (ints, others) = keyed.split_at_mut(rest - nils);
    ints.sort_unstable_by_key(|&r| keys[r as usize]);
    others.sort_unstable_by(|&a, &b| {
        dictionary::cmp_ids(keys[a as usize] as u32, keys[b as usize] as u32)
    });
    if col + 1 == rows.arity() {
        return;
    }
    if nil_run.len() > 1 {
        sort_run(rows, keys, nil_run, col + 1);
    }
    for keyed in [ints, others] {
        let mut start = 0;
        while start < keyed.len() {
            let key = keys[keyed[start] as usize];
            let len = keyed[start..].iter().take_while(|&&r| keys[r as usize] == key).count();
            if len > 1 {
                sort_run(rows, keys, &mut keyed[start..start + len], col + 1);
            }
            start += len;
        }
    }
}

/// Two-digit groups `00`–`99`, for printing integers.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Append `v` as [`Value`]'s `Display` prints it, integers without
/// going through the formatter.
fn push_value(out: &mut Vec<u8>, v: &Value) {
    use std::io::Write;
    let Value::Int(i) = *v else {
        write!(out, "{v}").expect("writing to a Vec cannot fail");
        return;
    };
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut m = i.unsigned_abs();
    while m >= 100 {
        let pair = (m % 100) as usize * 2;
        m /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if m >= 10 {
        let pair = m as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + m as u8;
    }
    if i < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
}

impl std::fmt::Display for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_form())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        assert!(db.insert_values("g", vec![Value::sym("a"), Value::sym("b"), Value::int(1)]));
        assert!(!db.insert_values("g", vec![Value::sym("a"), Value::sym("b"), Value::int(1)]));
        let g = Symbol::intern("g");
        assert_eq!(db.count(g), 1);
        assert!(db.contains(g, &Row::new(vec![Value::sym("a"), Value::sym("b"), Value::int(1)])));
    }

    #[test]
    fn missing_relation_is_empty_not_panic() {
        let db = Database::new();
        let nope = Symbol::intern("no_such_pred");
        assert_eq!(db.relation(nope).len(), 0);
        assert_eq!(db.count(nope), 0);
    }

    #[test]
    fn canonical_form_is_sorted_and_stable() {
        let mut db = Database::new();
        db.insert_values("b", vec![Value::int(2)]);
        db.insert_values("b", vec![Value::int(1)]);
        db.insert_values("a", vec![Value::sym("x")]);
        assert_eq!(db.canonical_form(), "a(x).\nb(1).\nb(2).");
    }

    #[test]
    fn total_facts_sums_relations() {
        let mut db = Database::new();
        db.insert_values("p", vec![Value::int(1)]);
        db.insert_values("q", vec![Value::int(1)]);
        db.insert_values("q", vec![Value::int(2)]);
        assert_eq!(db.total_facts(), 3);
        let preds: Vec<String> = db.predicates().map(|s| s.to_string()).collect();
        assert_eq!(preds, vec!["p", "q"]);
    }

    #[test]
    fn zero_arity_facts_render_bare() {
        let mut db = Database::new();
        db.insert_values("done", vec![]);
        assert_eq!(db.canonical_form(), "done.");
    }

    /// A random value of every shape, functors nested up to `depth`.
    fn random_value(rng: &mut gbc_telemetry::Rng, depth: u32) -> Value {
        const SYMS: [&str; 5] = ["a", "b", "zed", "nil_like", "Q"];
        const STRS: [&str; 4] = ["", "x y", "quote\"d", "tab\tnew\nline"];
        match rng.below(if depth == 0 { 4 } else { 5 }) {
            0 => Value::Nil,
            1 => random_int(rng),
            2 => Value::sym(SYMS[rng.below_usize(SYMS.len())]),
            3 => Value::str(STRS[rng.below_usize(STRS.len())]),
            _ => {
                let args = (0..rng.below(3)).map(|_| random_value(rng, depth - 1)).collect();
                Value::func(["t", "f"][rng.below_usize(2)], args)
            }
        }
    }

    /// A random integer: often one of the extremes of `i64` or the
    /// values around zero, else a small one.
    fn random_int(rng: &mut gbc_telemetry::Rng) -> Value {
        const EDGES: [i64; 5] = [i64::MIN, i64::MAX, -1, 0, 1];
        match rng.below(4) {
            0 => Value::int(EDGES[rng.below_usize(EDGES.len())]),
            _ => Value::int(rng.range_i64(-50, 50)),
        }
    }

    /// The render by decoded rows: collect, sort the `Row`s, format.
    fn decoded_row_render(db: &Database) -> String {
        let mut lines = Vec::new();
        for p in db.predicates() {
            let mut rows = db.facts_of(p);
            rows.sort();
            for r in rows {
                lines.push(if r.arity() == 0 { format!("{p}.") } else { format!("{p}{r}.") });
            }
        }
        lines.join("\n")
    }

    /// A database of random relations, up to `max_rows` rows each:
    /// - `r0`–`r3`, relation `ri` of arity `i`, cells of every shape;
    /// - `done`, a second zero-arity relation;
    /// - `nil_int`, `nil` mixed with integers in every column, the shape
    ///   of an exit row `prm(nil, 0, 0, 0)` among its stage rows;
    /// - `int_first`, integers in the first column, any shape after it;
    /// - `runs`, up to four times as many rows over two first cells, so
    ///   long runs of equal first cells sort on the later columns.
    fn random_database(rng: &mut gbc_telemetry::Rng, max_rows: u64) -> Database {
        let mut db = Database::new();
        for (i, pred) in ["r0", "r1", "r2", "r3"].into_iter().enumerate() {
            for _ in 0..rng.below(max_rows) {
                let row = (0..i).map(|_| random_value(rng, 2)).collect();
                db.insert_values(pred, row);
            }
        }
        if rng.bool() {
            db.insert_values("done", vec![]);
        }
        for _ in 0..rng.below(max_rows) {
            let row = (0..4)
                .map(|_| if rng.below(4) == 0 { Value::Nil } else { random_int(rng) })
                .collect();
            db.insert_values("nil_int", row);
        }
        for _ in 0..rng.below(max_rows) {
            let mut row = vec![random_int(rng)];
            row.extend((0..2).map(|_| random_value(rng, 1)));
            db.insert_values("int_first", row);
        }
        for _ in 0..rng.below(4 * max_rows) {
            let first = [Value::int(7), Value::sym("a")][rng.below_usize(2)].clone();
            let row = vec![first, Value::int(rng.range_i64(-2, 2)), random_value(rng, 1)];
            db.insert_values("runs", row);
        }
        db
    }

    /// Clones share row stores and the text cached in them; an insert
    /// into one side copies the store and never reaches the other side
    /// or its cached text.
    #[test]
    fn clones_write_copy_on_write_and_keep_cached_text_true() {
        for seed in 0..60u64 {
            let mut rng = gbc_telemetry::Rng::new(seed);
            let mut original = random_database(&mut rng, 20);
            let want = decoded_row_render(&original);
            let mut clone = original.clone();
            // Both render while shared: the text is cached and fresh.
            assert_eq!(original.canonical_form(), want, "seed {seed}");
            for _ in 0..rng.below(12) {
                let (pred, arity) =
                    [("r0", 0), ("r1", 1), ("r2", 2), ("r3", 3), ("r4", 2)][rng.below_usize(5)];
                let row = (0..arity).map(|_| random_value(&mut rng, 2)).collect();
                clone.insert_values(pred, row);
                if rng.below(3) == 0 {
                    assert_eq!(clone.canonical_form(), decoded_row_render(&clone), "seed {seed}");
                }
            }
            assert_eq!(clone.canonical_form(), decoded_row_render(&clone), "seed {seed}");
            assert_eq!(original.canonical_form(), want, "seed {seed}: the original moved");
            assert_eq!(decoded_row_render(&original), want, "seed {seed}");
            // Once the clone is gone, the original owns its stores alone:
            // writing into one must drop the text it cached while shared.
            drop(clone);
            original.insert_values("r1", vec![Value::str("after the clone")]);
            assert_eq!(original.canonical_form(), decoded_row_render(&original), "seed {seed}");
        }
    }

    #[test]
    fn append_shares_absent_relations_and_extends_present_ones() {
        let mut rng = gbc_telemetry::Rng::new(7);
        let base = random_database(&mut rng, 15);
        let base_text = base.canonical_form();
        let mut db = Database::new();
        db.insert_values("r2", vec![Value::int(1), Value::int(2)]);
        db.insert_values("q", vec![Value::int(3)]);
        let mut want = db.clone();
        for (p, row) in base.iter_all() {
            want.insert(p, row);
        }
        db.append(&base);
        for p in want.predicates() {
            assert_eq!(db.facts_of(p), want.facts_of(p), "{p}: rows or their order differ");
        }
        let r1 = Symbol::intern("r1");
        assert!(base.count(r1) > 0);
        assert!(db.relation(r1).shares_rows(base.relation(r1)));
        assert_eq!(base.canonical_form(), base_text);
    }

    #[test]
    fn integers_render_as_display_prints_them() {
        for i in [0, 7, -7, 10, -10, 1_000_000, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut out = Vec::new();
            push_value(&mut out, &Value::int(i));
            assert_eq!(out, i.to_string().as_bytes());
        }
    }

    #[test]
    fn id_space_render_matches_sorted_decoded_rows() {
        for seed in 0..40u64 {
            let db = random_database(&mut gbc_telemetry::Rng::new(seed), 30);
            let want = decoded_row_render(&db);
            let cells: u64 =
                db.relations.values().map(|r| (r.len() * r.arity().unwrap_or(0)) as u64).sum();
            let before = dictionary::dict_stats().decode_calls;
            let got = db.canonical_form();
            let counted = dictionary::dict_stats().decode_calls - before;
            assert_eq!(got, want, "seed {seed}");
            // Other threads' decodes may land in the window; never fewer.
            assert!(counted >= cells, "seed {seed}: {counted} decodes for {cells} cells");
        }
    }
}
