//! The fact store: predicate symbol → relation.

use std::sync::Arc;

use gbc_ast::{Symbol, Value};
use gbc_telemetry::Metrics;

use crate::dictionary;
use crate::fx::FxHashMap;
use crate::provenance::ProvenanceArena;
use crate::relation::Relation;
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
    /// by the `Value` order of their cells ([`dictionary::cmp_ids`]),
    /// which is the order of the decoded rows, and the cells print
    /// straight from their dictionary borrows into one output buffer.
    /// Like a decoded-row render, it counts one `decode_calls` per
    /// printed cell. A relation whose row store is shared (a compiled
    /// program's facts, a caller's EDB) prints from the store's cached
    /// text, rendered — and counted — on first use only.
    pub fn canonical_form(&self) -> String {
        let estimate: usize = self
            .relations
            .iter()
            .map(|(p, rel)| rel.len() * (p.as_str().len() + 3 + 8 * rel.arity().unwrap_or(0)))
            .sum();
        let mut out = String::with_capacity(estimate);
        for (p, rel) in self.sorted() {
            let shared = rel.shared_text(|| {
                let mut text = String::new();
                render_relation(p, rel, &mut text);
                text
            });
            match shared {
                Some("") => {}
                Some(text) => {
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    out.push_str(text);
                }
                None => render_relation(p, rel, &mut out),
            }
        }
        out
    }
}

/// Append `rel`'s rows to `out` as sorted ground facts `p(…).`, each
/// on its own line after whatever `out` already holds.
///
/// Row positions sort in the `Value` order of their cells, the order
/// [`dictionary::cmp_ids`] defines. The first column, which decides
/// most comparisons, is decoded once per row for the sort; the later
/// columns are compared only on a tie. Decoding every cell up front
/// would hold a borrow per cell at once, for no faster sort.
fn render_relation(p: Symbol, rel: &Relation, out: &mut String) {
    let rows = rel.rows();
    let (n, arity) = (rows.len(), rows.arity());
    let mut order: Vec<u32> = (0..n as u32).collect();
    if arity > 0 {
        let first: Vec<&'static Value> =
            (0..n).map(|r| dictionary::decode_ref(rows.cell(r, 0))).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            first[a].cmp(first[b]).then_with(|| {
                (1..arity)
                    .map(|c| dictionary::cmp_ids(rows.cell(a, c), rows.cell(b, c)))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
    }
    dictionary::count_decodes((n * arity) as u64);
    for r in order {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(p.as_str());
        for c in 0..arity {
            out.push(if c == 0 { '(' } else { ',' });
            push_value(out, dictionary::decode_ref(rows.cell(r as usize, c)));
        }
        if arity > 0 {
            out.push(')');
        }
        out.push('.');
    }
}

/// Append `v` as [`Value`]'s `Display` prints it, integers without
/// going through the formatter.
fn push_value(out: &mut String, v: &Value) {
    use std::fmt::Write;
    let Value::Int(i) = *v else {
        write!(out, "{v}").expect("writing to a String cannot fail");
        return;
    };
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut m = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
            1 => Value::int(rng.range_i64(-50, 50)),
            2 => Value::sym(SYMS[rng.below_usize(SYMS.len())]),
            3 => Value::str(STRS[rng.below_usize(STRS.len())]),
            _ => {
                let args = (0..rng.below(3)).map(|_| random_value(rng, depth - 1)).collect();
                Value::func(["t", "f"][rng.below_usize(2)], args)
            }
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

    /// A database of four random relations `r0`–`r3`, relation `ri` of
    /// arity `i` (so zero-arity facts mix in), up to `max_rows` rows each.
    fn random_database(rng: &mut gbc_telemetry::Rng, max_rows: u64) -> Database {
        let mut db = Database::new();
        for (i, pred) in ["r0", "r1", "r2", "r3"].into_iter().enumerate() {
            let arity = if i == 0 { 0 } else { i };
            for _ in 0..rng.below(max_rows) {
                let row = (0..arity).map(|_| random_value(rng, 2)).collect();
                db.insert_values(pred, row);
            }
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
            let mut out = String::new();
            push_value(&mut out, &Value::int(i));
            assert_eq!(out, i.to_string());
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
