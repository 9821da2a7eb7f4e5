//! The paper's **D_r = (R_r, Q_r, L_r)** structure (Section 6).
//!
//! For a next rule `r` with body
//! `next(I), p(X̄, J), [J < I, least(C, I)], [choice …]`, the engine
//! maintains one [`Rql`] per rule:
//!
//! * `Q_r` — a priority queue of the candidate solutions to the `least`
//!   predicate, holding **at most one fact per r-congruence class**
//!   (two `p`-facts are r-congruent when they agree on every argument
//!   except the stage argument, the cost argument, and the attributes
//!   functionally determined by `choice`);
//! * `L_r` — the facts that have fired the rule (the memo of *chosen*
//!   facts);
//! * `R_r` — the redundant facts, which can never fire the rule again.
//!
//! The insertion operation implements the paper's case analysis
//! verbatim; both insertion and retrieve-least are `O(log |Q|)` thanks
//! to the handle-indexed heap.
//!
//! Since the columnar rework, keys, costs and rows are **dictionary
//! ids** (`u32` / `Vec<u32>`): heap maintenance hashes and moves dense
//! integers, and the ordering contract is [`dictionary::cmp_ids`] —
//! ids order by their *decoded* value, so pop order is byte-identical
//! to the pre-columnar value representation, including non-integer
//! (symbolic) costs.
//!
//! The structure is agnostic about how congruence keys and costs are
//! derived from facts — the executor in `gbc-core` projects them out of
//! rows — which keeps this module reusable for all of the paper's
//! greedy programs.

use std::cell::Cell;
use std::sync::Arc;

use gbc_telemetry::Metrics;

use crate::dictionary::{self, cmp_id_rows, cmp_ids};
use crate::fx::FxHashMap;
use crate::heap::{Handle, IndexedHeap};

thread_local! {
    /// Comparisons served by the decode-free `Int` cost fast path.
    /// Thread-local rather than a global atomic so concurrent runs in
    /// one process (parallel `cargo test`) never cross-contaminate;
    /// heap operations happen on the evaluating thread, so the owning
    /// `Rql` reads a coherent before/after delta around each op.
    static INT_FAST_COMPARES: Cell<u64> = const { Cell::new(0) };
}

fn int_fast_compares() -> u64 {
    INT_FAST_COMPARES.with(Cell::get)
}

fn bump_int_fast() {
    INT_FAST_COMPARES.with(|c| c.set(c.get() + 1));
}

/// Congruence-class key: the projection of a fact onto the arguments
/// that are neither stage, nor cost, nor choice-determined. Encoded.
pub type CongKey = Vec<u32>;

/// Result of an [`Rql::insert`], mirroring the paper's case analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RqlOutcome {
    /// No congruent fact was queued or used: the fact entered `Q_r`.
    Queued,
    /// A congruent fact with *higher* cost sat in `Q_r`; it moved to
    /// `R_r` and this fact took its place in `Q_r`.
    ReplacedQueued,
    /// A congruent fact with lower-or-equal cost sits in `Q_r`; this
    /// fact went straight to `R_r`.
    DominatedInQueue,
    /// A congruent fact already fired the rule (`∈ L_r`); this fact is
    /// redundant.
    CongruentUsed,
}

/// An entry popped from `Q_r`, pending classification by the caller:
/// [`Rql::commit`] moves it to `L_r`, [`Rql::discard`] to `R_r`
/// (the paper's treatment of facts that fail the choice conditions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Popped {
    pub key: CongKey,
    /// Encoded cost id.
    pub cost: u32,
    /// Encoded fact row.
    pub row: Vec<u32>,
}

/// Heap cost wrapper: ascending for `least`, descending for `most`
/// (the paper's dual — `retrieve least` becomes `retrieve most`). A
/// single [`Rql`] instance never mixes variants. The generic variants
/// order through the dictionary ([`cmp_ids`]), never by id magnitude;
/// the `Int` variants carry the decoded `i64` and compare it directly
/// — sound only when type analysis proves the cost column pure `int`,
/// where the raw integer order coincides with `cmp_ids`.
#[derive(Clone, Debug, PartialEq, Eq)]
enum HeapCost {
    Asc(u32),
    Desc(u32),
    AscInt { id: u32, val: i64 },
    DescInt { id: u32, val: i64 },
}

impl HeapCost {
    fn id(&self) -> u32 {
        match self {
            HeapCost::Asc(v) | HeapCost::Desc(v) => *v,
            HeapCost::AscInt { id, .. } | HeapCost::DescInt { id, .. } => *id,
        }
    }
}

impl Ord for HeapCost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (HeapCost::Asc(a), HeapCost::Asc(b)) => cmp_ids(*a, *b),
            (HeapCost::Desc(a), HeapCost::Desc(b)) => cmp_ids(*b, *a),
            (HeapCost::AscInt { val: a, .. }, HeapCost::AscInt { val: b, .. }) => {
                bump_int_fast();
                a.cmp(b)
            }
            (HeapCost::DescInt { val: a, .. }, HeapCost::DescInt { val: b, .. }) => {
                bump_int_fast();
                b.cmp(a)
            }
            _ => {
                debug_assert!(
                    false,
                    "a single Rql never mixes heap-cost variants: {self:?} vs {other:?}"
                );
                std::cmp::Ordering::Equal
            }
        }
    }
}

impl PartialOrd for HeapCost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An encoded row ordered by its decoded values ([`cmp_id_rows`]) —
/// the row tiebreak of the heap's `(cost, row)` composite key, exactly
/// the `Ord` the pre-columnar `Row` had.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OrdRow(Vec<u32>);

impl Ord for OrdRow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_id_rows(&self.0, &other.0)
    }
}

impl PartialOrd for OrdRow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The (R,Q,L) structure. See the module docs.
#[derive(Debug, Default)]
pub struct Rql {
    /// Descending (max-first) retrieval for `most` rules.
    descending: bool,
    /// Costs are proved pure `int`: wrap them in the decode-free
    /// variants. Set by the executor when type analysis licenses it.
    int_costs: bool,
    heap: IndexedHeap<(HeapCost, OrdRow)>,
    /// `Q_r` membership: congruence key → heap handle.
    queued: FxHashMap<CongKey, Handle>,
    /// Inverse of `queued`, needed when popping.
    key_of: FxHashMap<Handle, CongKey>,
    /// `L_r`: congruence keys (with their winning row) that fired the rule.
    used: FxHashMap<CongKey, Vec<u32>>,
    /// |R_r|. The paper keeps `R_r` only to argue redundant tuples are
    /// never revisited; a count suffices operationally.
    redundant: u64,
    /// Optional audit copy of `R_r` for tests.
    audit: Option<Vec<Vec<u32>>>,
    /// Shared counter registry; heap/congruence traffic is reported
    /// here when attached.
    metrics: Option<Arc<Metrics>>,
}

impl Rql {
    /// New structure. `audit` retains the contents of `R_r` (tests only;
    /// costs memory proportional to |R_r|).
    pub fn new() -> Rql {
        Rql::default()
    }

    /// New structure that records `R_r` contents for inspection.
    pub fn with_audit() -> Rql {
        Rql { audit: Some(Vec::new()), ..Rql::default() }
    }

    /// A structure whose retrieve operation yields the *maximum* cost —
    /// the dual used by `most` rules (the paper notes `most` is "the
    /// dual of least", Example 8).
    pub fn new_descending() -> Rql {
        Rql { descending: true, ..Rql::default() }
    }

    /// Attach a counter registry. Subsequent operations report heap
    /// inserts/replaces/pops, congruence outcomes and the queue
    /// high-water mark to it.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// Switch cost wrapping to the decode-free `Int` variants.
    ///
    /// Only sound when **every** cost subsequently inserted decodes to
    /// `Value::Int`: within a pure-`int` column the raw `i64` order
    /// coincides with the dictionary order, so pop order is unchanged.
    /// The executor sets this only when whole-program type analysis
    /// proves the extremum's cost column `int`. Must be called while
    /// the queue is empty (variants never mix inside one heap).
    pub fn set_int_costs(&mut self, on: bool) {
        debug_assert!(self.heap.is_empty(), "cannot change cost representation mid-run");
        self.int_costs = on;
    }

    fn wrap(&self, cost: u32) -> HeapCost {
        if self.int_costs {
            let val = match dictionary::decode_ref(cost) {
                gbc_ast::Value::Int(v) => *v,
                other => {
                    debug_assert!(false, "int-cost mode but cost decodes to {other:?}");
                    i64::MIN
                }
            };
            if self.descending {
                HeapCost::DescInt { id: cost, val }
            } else {
                HeapCost::AscInt { id: cost, val }
            }
        } else if self.descending {
            HeapCost::Desc(cost)
        } else {
            HeapCost::Asc(cost)
        }
    }

    /// The paper's insertion operation, over encoded ids.
    pub fn insert(&mut self, key: CongKey, cost: u32, row: Vec<u32>) -> RqlOutcome {
        let fast_before = int_fast_compares();
        let outcome = self.insert_inner(key, cost, row);
        if let Some(m) = &self.metrics {
            match outcome {
                RqlOutcome::Queued => m.heap_inserts.inc(),
                RqlOutcome::ReplacedQueued => {
                    m.heap_replaces.inc();
                    m.congruence_replacements.inc();
                }
                RqlOutcome::DominatedInQueue => m.rql_dominated.inc(),
                RqlOutcome::CongruentUsed => m.rql_used_blocked.inc(),
            }
            m.queue_peak.observe(self.heap.len() as u64);
            m.heap_int_fast_compares.add(int_fast_compares() - fast_before);
        }
        outcome
    }

    /// The fused batch form of [`Rql::insert`]: push every `(key,
    /// cost, row)` triple of one feed scan in a single pass. The queue
    /// contents after the call are **identical** to `items.len()`
    /// sequential [`Rql::insert`] calls — each triple still runs the
    /// paper's full case analysis against the live queue state, so
    /// intra-batch congruence (two congruent rows in one batch) resolves
    /// exactly as it would row by row.
    ///
    /// What the batch saves is the per-row bookkeeping around the sift:
    /// outcome counters accumulate in locals and flush once, the
    /// `Int`-fast-compare delta is read once, and the queue high-water
    /// mark is observed once at the end — sound because insertion never
    /// shrinks `Q_r`, so the post-batch length *is* the running maximum.
    /// Every counter therefore ends where the sequential inserts would
    /// leave it.
    pub fn extend_batch(&mut self, items: impl IntoIterator<Item = (CongKey, u32, Vec<u32>)>) {
        let fast_before = int_fast_compares();
        let (mut queued, mut replaced, mut dominated, mut used_blocked) = (0u64, 0u64, 0u64, 0u64);
        for (key, cost, row) in items {
            match self.insert_inner(key, cost, row) {
                RqlOutcome::Queued => queued += 1,
                RqlOutcome::ReplacedQueued => replaced += 1,
                RqlOutcome::DominatedInQueue => dominated += 1,
                RqlOutcome::CongruentUsed => used_blocked += 1,
            }
        }
        if let Some(m) = &self.metrics {
            m.heap_inserts.add(queued);
            m.heap_replaces.add(replaced);
            m.congruence_replacements.add(replaced);
            m.rql_dominated.add(dominated);
            m.rql_used_blocked.add(used_blocked);
            m.queue_peak.observe(self.heap.len() as u64);
            m.heap_int_fast_compares.add(int_fast_compares() - fast_before);
        }
    }

    fn insert_inner(&mut self, key: CongKey, cost: u32, row: Vec<u32>) -> RqlOutcome {
        if self.used.contains_key(&key) {
            self.mark_redundant(row);
            return RqlOutcome::CongruentUsed;
        }
        let cost = self.wrap(cost);
        let row = OrdRow(row);
        if let Some(&h) = self.queued.get(&key) {
            let old = self.heap.get(h).expect("queued handle is live");
            if (&cost, &row) < (&old.0, &old.1) {
                let (_, old_row) = self.heap.update(h, (cost, row)).expect("handle just probed");
                self.mark_redundant(old_row.0);
                RqlOutcome::ReplacedQueued
            } else {
                self.mark_redundant(row.0);
                RqlOutcome::DominatedInQueue
            }
        } else {
            let h = self.heap.push((cost, row));
            self.queued.insert(key.clone(), h);
            self.key_of.insert(h, key);
            RqlOutcome::Queued
        }
    }

    /// Pop the best candidate from `Q_r` (minimum cost, or maximum for
    /// a descending structure). The entry is detached from the queue
    /// but belongs to neither `L_r` nor `R_r` until the caller
    /// classifies it with [`Rql::commit`] or [`Rql::discard`].
    pub fn pop_least(&mut self) -> Option<Popped> {
        let fast_before = int_fast_compares();
        let (h, (cost, row)) = self.heap.pop_min()?;
        if let Some(m) = &self.metrics {
            m.heap_pops.inc();
            m.heap_int_fast_compares.add(int_fast_compares() - fast_before);
        }
        let key = self.key_of.remove(&h).expect("popped handle has a key");
        self.queued.remove(&key);
        Some(Popped { key, cost: cost.id(), row: row.0 })
    }

    /// Peek at the best candidate without removing it.
    pub fn peek_least(&self) -> Option<(u32, &[u32])> {
        self.heap.peek_min().map(|(_, (c, r))| (c.id(), r.0.as_slice()))
    }

    /// Record a popped entry as *chosen*: it moves to `L_r`, blocking
    /// every future congruent fact.
    pub fn commit(&mut self, popped: Popped) {
        self.used.insert(popped.key, popped.row);
    }

    /// Record a popped entry as *redundant* (`R_r`): it failed the
    /// choice conditions. A congruent fact may be queued again later.
    pub fn discard(&mut self, popped: Popped) {
        self.mark_redundant(popped.row);
    }

    fn mark_redundant(&mut self, row: Vec<u32>) {
        self.redundant += 1;
        if let Some(audit) = &mut self.audit {
            audit.push(row);
        }
    }

    /// |Q_r|.
    pub fn queue_len(&self) -> usize {
        self.heap.len()
    }

    /// |L_r|.
    pub fn used_len(&self) -> usize {
        self.used.len()
    }

    /// |R_r|.
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// True when `Q_r` is exhausted.
    pub fn is_queue_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Is a congruent fact already in `L_r`?
    pub fn key_used(&self, key: &[u32]) -> bool {
        self.used.contains_key(key)
    }

    /// The audit copy of `R_r`, if enabled (encoded rows).
    pub fn redundant_rows(&self) -> Option<&[Vec<u32>]> {
        self.audit.as_deref()
    }
}

/// Encode a value-level cost for insertion — convenience for callers
/// that sit on the value side of the boundary.
pub fn encode_cost(v: &gbc_ast::Value) -> u32 {
    dictionary::encode(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::Value;

    fn row(vals: &[i64]) -> Vec<u32> {
        vals.iter().map(|&v| dictionary::encode(&Value::int(v))).collect()
    }

    fn key(vals: &[i64]) -> CongKey {
        row(vals)
    }

    fn cost(v: i64) -> u32 {
        dictionary::encode(&Value::int(v))
    }

    #[test]
    fn keeps_one_representative_per_congruence_class() {
        let mut d = Rql::new();
        // Two facts congruent on key [7]: the cheaper survives in Q.
        assert_eq!(d.insert(key(&[7]), cost(10), row(&[7, 10])), RqlOutcome::Queued);
        assert_eq!(d.insert(key(&[7]), cost(3), row(&[7, 3])), RqlOutcome::ReplacedQueued);
        assert_eq!(d.insert(key(&[7]), cost(5), row(&[7, 5])), RqlOutcome::DominatedInQueue);
        assert_eq!(d.queue_len(), 1);
        assert_eq!(d.redundant_count(), 2);
        let p = d.pop_least().unwrap();
        assert_eq!(p.cost, cost(3));
    }

    #[test]
    fn used_class_blocks_future_inserts() {
        let mut d = Rql::new();
        d.insert(key(&[1]), cost(4), row(&[1, 4]));
        let p = d.pop_least().unwrap();
        d.commit(p);
        assert!(d.key_used(&key(&[1])));
        assert_eq!(d.insert(key(&[1]), cost(1), row(&[1, 1])), RqlOutcome::CongruentUsed);
        assert_eq!(d.queue_len(), 0);
        assert_eq!(d.used_len(), 1);
    }

    #[test]
    fn discarded_class_can_requeue() {
        let mut d = Rql::new();
        d.insert(key(&[2]), cost(9), row(&[2, 9]));
        let p = d.pop_least().unwrap();
        d.discard(p);
        // Not used — a congruent fact can enter the queue again.
        assert_eq!(d.insert(key(&[2]), cost(8), row(&[2, 8])), RqlOutcome::Queued);
        assert_eq!(d.redundant_count(), 1);
    }

    #[test]
    fn pop_order_is_by_cost_then_row() {
        let mut d = Rql::new();
        d.insert(key(&[1]), cost(5), row(&[1, 5]));
        d.insert(key(&[2]), cost(3), row(&[2, 3]));
        d.insert(key(&[3]), cost(5), row(&[0, 5])); // same cost as class 1
        let costs: Vec<(u32, Vec<u32>)> =
            std::iter::from_fn(|| d.pop_least()).map(|p| (p.cost, p.row)).collect();
        assert_eq!(
            costs,
            vec![
                (cost(3), row(&[2, 3])),
                (cost(5), row(&[0, 5])), // row tiebreak: (0,5) < (1,5)
                (cost(5), row(&[1, 5])),
            ]
        );
    }

    #[test]
    fn audit_mode_records_redundant_rows() {
        let mut d = Rql::with_audit();
        d.insert(key(&[1]), cost(2), row(&[1, 2]));
        d.insert(key(&[1]), cost(1), row(&[1, 1])); // replaces; (1,2) redundant
        assert_eq!(d.redundant_rows().unwrap(), &[row(&[1, 2])]);
    }

    #[test]
    fn descending_mode_pops_maxima_and_keeps_class_maxima() {
        let mut d = Rql::new_descending();
        d.insert(key(&[1]), cost(5), row(&[1, 5]));
        assert_eq!(
            d.insert(key(&[1]), cost(9), row(&[1, 9])),
            RqlOutcome::ReplacedQueued,
            "larger cost replaces in descending mode"
        );
        assert_eq!(d.insert(key(&[1]), cost(7), row(&[1, 7])), RqlOutcome::DominatedInQueue);
        d.insert(key(&[2]), cost(8), row(&[2, 8]));
        let p1 = d.pop_least().unwrap();
        assert_eq!(p1.cost, cost(9));
        d.commit(p1);
        let p2 = d.pop_least().unwrap();
        assert_eq!(p2.cost, cost(8));
    }

    #[test]
    fn metrics_observe_every_outcome() {
        let m = Arc::new(Metrics::new());
        let mut d = Rql::new();
        d.set_metrics(Arc::clone(&m));
        d.insert(key(&[1]), cost(5), row(&[1, 5])); // queued
        d.insert(key(&[1]), cost(3), row(&[1, 3])); // replaces
        d.insert(key(&[1]), cost(4), row(&[1, 4])); // dominated
        d.insert(key(&[2]), cost(8), row(&[2, 8])); // queued
        let p = d.pop_least().unwrap();
        d.commit(p);
        d.insert(key(&[1]), cost(1), row(&[1, 1])); // used-blocked
        let s = m.snapshot();
        assert_eq!(s.heap_inserts, 2);
        assert_eq!(s.heap_replaces, 1);
        assert_eq!(s.congruence_replacements, 1);
        assert_eq!(s.rql_dominated, 1);
        assert_eq!(s.rql_used_blocked, 1);
        assert_eq!(s.heap_pops, 1);
        assert_eq!(s.queue_peak, 2);
    }

    #[test]
    fn extend_batch_is_counter_identical_to_sequential_inserts() {
        // Same triples — covering all four outcomes plus a used class —
        // through insert() one at a time and through one extend_batch().
        let triples = || {
            vec![
                (key(&[1]), cost(5), row(&[1, 5])), // queued
                (key(&[1]), cost(3), row(&[1, 3])), // replaces within the batch
                (key(&[1]), cost(4), row(&[1, 4])), // dominated within the batch
                (key(&[2]), cost(8), row(&[2, 8])), // queued
                (key(&[9]), cost(0), row(&[9, 0])), // used-blocked (committed below)
            ]
        };
        let prime = |d: &mut Rql| {
            d.insert(key(&[9]), cost(1), row(&[9, 1]));
            let p = d.pop_least().unwrap();
            d.commit(p);
        };
        let m_seq = Arc::new(Metrics::new());
        let mut seq = Rql::new();
        seq.set_metrics(Arc::clone(&m_seq));
        prime(&mut seq);
        for (k, c, r) in triples() {
            seq.insert(k, c, r);
        }
        let m_bat = Arc::new(Metrics::new());
        let mut bat = Rql::new();
        bat.set_metrics(Arc::clone(&m_bat));
        prime(&mut bat);
        bat.extend_batch(triples());
        let pops = |d: &mut Rql| -> Vec<(u32, Vec<u32>)> {
            std::iter::from_fn(|| d.pop_least()).map(|p| (p.cost, p.row)).collect()
        };
        assert_eq!(pops(&mut seq), pops(&mut bat));
        assert_eq!(m_seq.snapshot(), m_bat.snapshot());
    }

    #[test]
    fn int_mode_pops_in_the_same_order_as_the_generic_heap() {
        let mut generic = Rql::new();
        let mut fast = Rql::new();
        fast.set_int_costs(true);
        // Interleave magnitudes and signs so id order ≠ value order.
        for (i, c) in [(1, 50), (2, -3), (3, 0), (4, 50), (5, 7)] {
            generic.insert(key(&[i]), cost(c), row(&[i, c]));
            fast.insert(key(&[i]), cost(c), row(&[i, c]));
        }
        let pops = |d: &mut Rql| -> Vec<(u32, Vec<u32>)> {
            std::iter::from_fn(|| d.pop_least()).map(|p| (p.cost, p.row)).collect()
        };
        assert_eq!(pops(&mut generic), pops(&mut fast));
    }

    #[test]
    fn int_mode_reports_fast_compares_to_metrics() {
        let m = Arc::new(Metrics::new());
        let mut d = Rql::new();
        d.set_int_costs(true);
        d.set_metrics(Arc::clone(&m));
        d.insert(key(&[1]), cost(5), row(&[1, 5]));
        d.insert(key(&[2]), cost(3), row(&[2, 3]));
        d.insert(key(&[1]), cost(2), row(&[1, 2])); // replace: compares against old
        while d.pop_least().is_some() {}
        let s = m.snapshot();
        assert!(s.heap_int_fast_compares > 0, "{s:?}");
        // The generic heap reports none.
        let m2 = Arc::new(Metrics::new());
        let mut g = Rql::new();
        g.set_metrics(Arc::clone(&m2));
        g.insert(key(&[1]), cost(5), row(&[1, 5]));
        g.insert(key(&[2]), cost(3), row(&[2, 3]));
        while g.pop_least().is_some() {}
        assert_eq!(m2.snapshot().heap_int_fast_compares, 0);
    }

    #[test]
    fn descending_int_mode_pops_maxima() {
        let mut d = Rql::new_descending();
        d.set_int_costs(true);
        d.insert(key(&[1]), cost(5), row(&[1, 5]));
        d.insert(key(&[2]), cost(9), row(&[2, 9]));
        d.insert(key(&[3]), cost(-2), row(&[3, -2]));
        assert_eq!(d.pop_least().unwrap().cost, cost(9));
        assert_eq!(d.pop_least().unwrap().cost, cost(5));
        assert_eq!(d.pop_least().unwrap().cost, cost(-2));
    }

    #[test]
    fn costs_need_not_be_integers() {
        // Symbolic costs order lexicographically (via the dictionary's
        // decoded ordering, not id magnitude) — exercised by sorting
        // relations on symbolic keys. Interning "zebra" first gives it
        // the *smaller id*, so this also proves ids don't order the heap.
        let mut d = Rql::new();
        let zebra = dictionary::encode(&Value::sym("zebra"));
        let ant = dictionary::encode(&Value::sym("ant"));
        d.insert(key(&[1]), zebra, row(&[1]));
        d.insert(key(&[2]), ant, row(&[2]));
        assert_eq!(d.pop_least().unwrap().cost, ant);
    }
}
