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
//! verbatim; both insertion and retrieve-least are `O(log |Q|)`. A
//! queued candidate that a commit has blocked for good leaves `Q_r`
//! for `R_r` at that commit ([`Rql::retire`], `O(log |Q|)`), so
//! retrieve-least never reaches it.
//!
//! The structure is columnar. Every congruence class the rule has seen
//! owns one row of a single **id arena**: the class's current queued,
//! pending or used fact. A class's key is its row projected onto the
//! key columns, so no key is stored apart from the row. A **class
//! table** ([`IdTable`], keyed by the arena rows' key columns) finds a
//! class from a row, and a binary heap of 16-byte **inline nodes**
//! (`{int, id, class}`) orders the queued classes. Classes are never
//! removed during an evaluation, so the table never deletes. No insert
//! or pop allocates for its candidate: the arena, table and heap only
//! grow, amortised, and [`Rql::reserve`] sizes them for a whole feed
//! pass up front.
//!
//! Costs and rows are **dictionary ids**, and the ordering contract is
//! [`cmp_ids`]: ids order by their *decoded* value. A node
//! whose cost decodes to `Value::Int` carries the `i64`, and two such
//! nodes compare it inline; any other pair goes through the dictionary.
//! A cost tie falls back to the arena rows under [`cmp_id_rows`].
//!
//! The structure is agnostic about how costs are derived from facts —
//! the executor in `gbc-core` reads them off the source rows — which
//! keeps this module reusable for all of the paper's greedy programs.

use std::cmp::Ordering;
use std::sync::Arc;

use gbc_ast::Value;
use gbc_telemetry::Metrics;

use crate::dictionary::{cmp_id_rows, cmp_ids, decode_ref};
use crate::idtable::IdTable;

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

/// A candidate popped from `Q_r`, pending classification by the
/// caller: [`Rql::commit`] moves it to `L_r`, [`Rql::discard`] to `R_r`
/// (the paper's treatment of facts that fail the choice conditions).
/// [`Rql::row`] borrows its row. The handle stays valid until the next
/// [`Rql::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Popped {
    class: u32,
    /// Encoded cost id.
    pub cost: u32,
}

/// Where a congruence class stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Its row is in `Q_r`, at heap position `pos[class]`.
    Queued,
    /// Popped and awaiting [`Rql::commit`] or [`Rql::discard`].
    Popped,
    /// Fired the rule (`L_r`): every congruent fact is redundant.
    Used,
    /// Nothing queued: new, or its last candidate was discarded, so a
    /// congruent fact may enter `Q_r` again.
    Idle,
}

/// The top bit of [`Node::class`]: the cost is not an integer, so
/// [`Node::int`] is meaningless and the cost compares by dictionary.
const NOT_INT: u32 = 1 << 31;

/// A heap node: the cost inline, and the class whose arena row breaks
/// cost ties.
#[derive(Clone, Copy, Debug)]
struct Node {
    int: i64,
    id: u32,
    class: u32,
}

impl Node {
    fn new(cost: u32, class: u32) -> Node {
        match decode_ref(cost) {
            Value::Int(v) => Node { int: *v, id: cost, class },
            _ => Node { int: 0, id: cost, class: class | NOT_INT },
        }
    }

    fn class(self) -> usize {
        (self.class & !NOT_INT) as usize
    }
}

/// The (R,Q,L) counters not yet published to [`Metrics`].
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    inserts: u64,
    replaces: u64,
    dominated: u64,
    used_blocked: u64,
    pops: u64,
    retired: u64,
    int_fast_compares: u64,
}

/// The congruence key of `row`: its ids at `key_cols`.
fn key_of<'a>(key_cols: &'a [usize], row: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    key_cols.iter().map(|&k| row[k])
}

/// The (R,Q,L) structure. See the module docs.
#[derive(Debug, Default)]
pub struct Rql {
    arity: usize,
    /// Row columns forming the congruence key.
    key_cols: Vec<usize>,
    /// Descending (max-first) retrieval for `most` rules.
    descending: bool,
    /// The id arena: class `c`'s row is `rows[c * arity..][..arity]`.
    rows: Vec<u32>,
    state: Vec<State>,
    /// Heap position of each [`State::Queued`] class.
    pos: Vec<u32>,
    /// `Q_r`: a binary min-heap under [`Rql::cmp_cost`], then the row.
    heap: Vec<Node>,
    /// The classes, keyed by their arena rows' key columns.
    table: IdTable,
    /// |L_r|.
    used: usize,
    /// |R_r|. The paper keeps `R_r` only to argue redundant tuples are
    /// never revisited; a count suffices operationally.
    redundant: u64,
    /// The largest |Q_r| seen after an insert.
    peak: usize,
    counts: Counts,
    /// Shared counter registry; heap/congruence traffic is published
    /// here by [`Rql::flush_metrics`] when attached.
    metrics: Option<Arc<Metrics>>,
}

impl Rql {
    /// New structure over rows of `arity` ids whose congruence key is
    /// the projection onto `key_cols`. Retrieve yields the least cost.
    pub fn new(arity: usize, key_cols: &[usize]) -> Rql {
        debug_assert!(key_cols.iter().all(|&c| c < arity), "key column out of range");
        Rql { arity, key_cols: key_cols.to_vec(), ..Rql::default() }
    }

    /// A structure whose retrieve operation yields the *maximum* cost —
    /// the dual used by `most` rules (the paper notes `most` is "the
    /// dual of least", Example 8).
    pub fn new_descending(arity: usize, key_cols: &[usize]) -> Rql {
        Rql { descending: true, ..Rql::new(arity, key_cols) }
    }

    /// Attach a counter registry. [`Rql::flush_metrics`] reports heap
    /// inserts/replaces/pops, congruence outcomes, integer compares and
    /// the queue high-water mark to it.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// Publish the counters accumulated since the last call, once per
    /// feed pass or γ step rather than once per candidate. The queue
    /// high-water mark is tracked at every insert, so it ends where
    /// per-insert observation would leave it.
    pub fn flush_metrics(&mut self) {
        let counts = std::mem::take(&mut self.counts);
        let Some(m) = &self.metrics else { return };
        m.heap_inserts.add(counts.inserts);
        m.heap_replaces.add(counts.replaces);
        m.congruence_replacements.add(counts.replaces);
        m.rql_dominated.add(counts.dominated);
        m.rql_used_blocked.add(counts.used_blocked);
        m.heap_pops.add(counts.pops);
        m.rql_retired.add(counts.retired);
        m.heap_int_fast_compares.add(counts.int_fast_compares);
        m.queue_peak.observe(self.peak as u64);
    }

    /// Make room for `additional` more candidates, so a feed pass of
    /// that many rows grows nothing while it inserts.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.rows.reserve(additional * self.arity);
        self.state.reserve(additional);
        self.pos.reserve(additional);
        let (key_cols, rows, arity) = (&self.key_cols, &self.rows, self.arity);
        self.table.reserve(additional, move |c| key_of(key_cols, &rows[c as usize * arity..]));
    }

    /// The paper's insertion operation: `row` (the fact, as ids) with
    /// cost id `cost` meets its congruence class.
    pub fn insert(&mut self, cost: u32, row: &[u32]) -> RqlOutcome {
        debug_assert_eq!(row.len(), self.arity, "row arity");
        let class = self.class_of(row);
        match self.state[class] {
            State::Used => {
                self.redundant += 1;
                self.counts.used_blocked += 1;
                RqlOutcome::CongruentUsed
            }
            State::Queued => {
                let slot = self.pos[class] as usize;
                let new = Node::new(cost, class as u32);
                let better = self
                    .cmp_cost(new, self.heap[slot])
                    .then_with(|| cmp_id_rows(row, self.row_of(class)))
                    == Ordering::Less;
                if better {
                    // The replaced row joins `R_r`.
                    self.redundant += 1;
                    self.rows[class * self.arity..][..self.arity].copy_from_slice(row);
                    self.heap[slot] = new;
                    // A replacement only improves the node, so the sift
                    // down never moves it; its compares still count in
                    // `heap_int_fast_compares`, as a general update's do.
                    self.sift_up(slot);
                    self.sift_down(self.pos[class] as usize);
                    self.counts.replaces += 1;
                    RqlOutcome::ReplacedQueued
                } else {
                    self.redundant += 1;
                    self.counts.dominated += 1;
                    RqlOutcome::DominatedInQueue
                }
            }
            State::Idle | State::Popped => {
                self.rows[class * self.arity..][..self.arity].copy_from_slice(row);
                self.state[class] = State::Queued;
                let slot = self.heap.len();
                self.heap.push(Node::new(cost, class as u32));
                self.pos[class] = slot as u32;
                self.sift_up(slot);
                self.peak = self.peak.max(self.heap.len());
                self.counts.inserts += 1;
                RqlOutcome::Queued
            }
        }
    }

    /// Pop the best candidate from `Q_r` (minimum cost, or maximum for
    /// a descending structure). The candidate is detached from the
    /// queue but belongs to neither `L_r` nor `R_r` until the caller
    /// classifies it with [`Rql::commit`] or [`Rql::discard`].
    pub fn pop_least(&mut self) -> Option<Popped> {
        let top = *self.heap.first()?;
        self.swap_slots(0, self.heap.len() - 1);
        self.heap.pop();
        self.sift_down(0);
        self.state[top.class()] = State::Popped;
        self.counts.pops += 1;
        Some(Popped { class: top.class() as u32, cost: top.id })
    }

    /// The row of a popped candidate, borrowed from the arena.
    pub fn row(&self, popped: &Popped) -> &[u32] {
        self.row_of(popped.class as usize)
    }

    /// Record a popped candidate as *chosen*: its class moves to `L_r`,
    /// blocking every future congruent fact.
    pub fn commit(&mut self, popped: Popped) {
        debug_assert_eq!(self.state[popped.class as usize], State::Popped, "stale handle");
        self.state[popped.class as usize] = State::Used;
        self.used += 1;
    }

    /// Record a popped candidate as *redundant* (`R_r`): it failed the
    /// choice conditions. A congruent fact may be queued again later.
    pub fn discard(&mut self, popped: Popped) {
        let class = popped.class as usize;
        debug_assert_eq!(self.state[class], State::Popped, "stale handle");
        self.state[class] = State::Idle;
        self.redundant += 1;
    }

    /// Move queued class `class` from `Q_r` to `R_r`: a commit blocked
    /// its candidate for good. Like a [`Rql::discard`], a congruent fact
    /// may be queued again later. Returns the candidate's cost id.
    pub fn retire(&mut self, class: u32) -> u32 {
        let class = class as usize;
        assert_eq!(self.state[class], State::Queued, "only a queued class retires");
        let slot = self.pos[class] as usize;
        let cost = self.heap[slot].id;
        let last = self.heap.len() - 1;
        self.swap_slots(slot, last);
        self.heap.pop();
        if slot < last {
            // The node moved into the hole may belong above or below it.
            let moved = self.heap[slot].class();
            self.sift_up(slot);
            self.sift_down(self.pos[moved] as usize);
        }
        self.state[class] = State::Idle;
        self.redundant += 1;
        self.counts.retired += 1;
        cost
    }

    /// The number of congruence classes seen. Classes are numbered in
    /// creation order, so an insert that creates one creates the class
    /// numbered by the count before it.
    pub fn classes(&self) -> usize {
        self.state.len()
    }

    /// Is class `class`'s candidate in `Q_r`?
    pub fn is_queued(&self, class: u32) -> bool {
        self.state[class as usize] == State::Queued
    }

    /// Class `class`'s current row: its queued, pending, used or last
    /// candidate.
    pub fn class_row(&self, class: u32) -> &[u32] {
        self.row_of(class as usize)
    }

    /// Would this structure's next pop come before `other`'s, in this
    /// structure's retrieval order (cost, then row)? True when only
    /// `other` is empty. Counts no compare.
    pub fn first_before(&self, other: &Rql) -> bool {
        let Some(&a) = self.heap.first() else { return false };
        let Some(&b) = other.heap.first() else { return true };
        self.cost_order(a, b)
            .then_with(|| cmp_id_rows(self.row_of(a.class()), other.row_of(b.class())))
            == Ordering::Less
    }

    /// |Q_r|.
    pub fn queue_len(&self) -> usize {
        self.heap.len()
    }

    /// |L_r|.
    pub fn used_len(&self) -> usize {
        self.used
    }

    /// |R_r|.
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    fn row_of(&self, class: usize) -> &[u32] {
        &self.rows[class * self.arity..][..self.arity]
    }

    /// The class of `row`'s key, created [`State::Idle`] (its arena
    /// row a copy of `row`) when the key is new.
    fn class_of(&mut self, row: &[u32]) -> usize {
        let (key_cols, rows, arity) = (&self.key_cols, &self.rows, self.arity);
        let found = self.table.find(key_of(key_cols, row), |c| {
            key_cols.iter().all(|&k| rows[c as usize * arity + k] == row[k])
        });
        let at = match found {
            Ok(class) => return class as usize,
            Err(at) => at,
        };
        let class = self.state.len();
        assert!(class < NOT_INT as usize, "more than 2^31 congruence classes");
        self.rows.extend_from_slice(row);
        self.state.push(State::Idle);
        self.pos.push(0);
        let (key_cols, rows) = (&self.key_cols, &self.rows);
        self.table.insert(at, move |c| key_of(key_cols, &rows[c as usize * arity..]));
        class
    }

    // -- the heap --

    /// [`Rql::cost_order`], counting a compare of two integers in
    /// `heap_int_fast_compares`.
    fn cmp_cost(&mut self, a: Node, b: Node) -> Ordering {
        if (a.class | b.class) & NOT_INT == 0 {
            self.counts.int_fast_compares += 1;
        }
        self.cost_order(a, b)
    }

    /// Compare two costs in retrieval order: two integers inline,
    /// anything else by decoded value; reversed for a descending
    /// structure.
    fn cost_order(&self, a: Node, b: Node) -> Ordering {
        let ord = if (a.class | b.class) & NOT_INT == 0 {
            a.int.cmp(&b.int)
        } else {
            cmp_ids(a.id, b.id)
        };
        if self.descending {
            ord.reverse()
        } else {
            ord
        }
    }

    /// Heap order of slots `a` and `b`: cost, then the arena row.
    fn less(&mut self, a: usize, b: usize) -> bool {
        let (a, b) = (self.heap[a], self.heap[b]);
        self.cmp_cost(a, b)
            .then_with(|| cmp_id_rows(self.row_of(a.class()), self.row_of(b.class())))
            == Ordering::Less
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if !self.less(slot, parent) {
                break;
            }
            self.swap_slots(slot, parent);
            slot = parent;
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let l = 2 * slot + 1;
            let r = l + 1;
            let mut smallest = slot;
            if l < self.heap.len() && self.less(l, smallest) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == slot {
                break;
            }
            self.swap_slots(slot, smallest);
            slot = smallest;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].class()] = a as u32;
        self.pos[self.heap[b].class()] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::encode;

    fn row(vals: &[i64]) -> Vec<u32> {
        vals.iter().map(|&v| encode(&Value::int(v))).collect()
    }

    fn cost(v: i64) -> u32 {
        encode(&Value::int(v))
    }

    /// Rows of two columns keyed on the first.
    fn keyed_on_first() -> Rql {
        Rql::new(2, &[0])
    }

    #[test]
    fn keeps_one_representative_per_congruence_class() {
        let mut d = keyed_on_first();
        // Two facts congruent on key [7]: the cheaper survives in Q.
        assert_eq!(d.insert(cost(10), &row(&[7, 10])), RqlOutcome::Queued);
        assert_eq!(d.insert(cost(3), &row(&[7, 3])), RqlOutcome::ReplacedQueued);
        assert_eq!(d.insert(cost(5), &row(&[7, 5])), RqlOutcome::DominatedInQueue);
        assert_eq!(d.queue_len(), 1);
        assert_eq!(d.redundant_count(), 2);
        let p = d.pop_least().unwrap();
        assert_eq!(p.cost, cost(3));
        assert_eq!(d.row(&p), row(&[7, 3]));
    }

    #[test]
    fn used_class_blocks_future_inserts() {
        let mut d = keyed_on_first();
        d.insert(cost(4), &row(&[1, 4]));
        let p = d.pop_least().unwrap();
        d.commit(p);
        assert_eq!(d.insert(cost(1), &row(&[1, 1])), RqlOutcome::CongruentUsed);
        assert_eq!(d.queue_len(), 0);
        assert_eq!(d.used_len(), 1);
    }

    #[test]
    fn discarded_class_can_requeue() {
        let mut d = keyed_on_first();
        d.insert(cost(9), &row(&[2, 9]));
        let p = d.pop_least().unwrap();
        d.discard(p);
        // Not used — a congruent fact can enter the queue again.
        assert_eq!(d.insert(cost(8), &row(&[2, 8])), RqlOutcome::Queued);
        assert_eq!(d.redundant_count(), 1);
    }

    #[test]
    fn pop_order_is_by_cost_then_row() {
        let mut d = Rql::new(2, &[0, 1]);
        d.insert(cost(5), &row(&[1, 5]));
        d.insert(cost(3), &row(&[2, 3]));
        d.insert(cost(5), &row(&[0, 5])); // same cost as class 1
        assert_eq!(
            pops(&mut d),
            vec![
                (cost(3), row(&[2, 3])),
                (cost(5), row(&[0, 5])), // row tiebreak: (0,5) < (1,5)
                (cost(5), row(&[1, 5])),
            ]
        );
    }

    #[test]
    fn descending_mode_pops_maxima_and_keeps_class_maxima() {
        let mut d = Rql::new_descending(2, &[0]);
        d.insert(cost(5), &row(&[1, 5]));
        assert_eq!(
            d.insert(cost(9), &row(&[1, 9])),
            RqlOutcome::ReplacedQueued,
            "larger cost replaces in descending mode"
        );
        assert_eq!(d.insert(cost(7), &row(&[1, 7])), RqlOutcome::DominatedInQueue);
        d.insert(cost(8), &row(&[2, 8]));
        let p1 = d.pop_least().unwrap();
        assert_eq!(p1.cost, cost(9));
        d.commit(p1);
        let p2 = d.pop_least().unwrap();
        assert_eq!(p2.cost, cost(8));
    }

    #[test]
    fn metrics_observe_every_outcome() {
        let m = Arc::new(Metrics::new());
        let mut d = keyed_on_first();
        d.set_metrics(Arc::clone(&m));
        d.insert(cost(5), &row(&[1, 5])); // queued
        d.insert(cost(3), &row(&[1, 3])); // replaces
        d.insert(cost(4), &row(&[1, 4])); // dominated
        d.insert(cost(8), &row(&[2, 8])); // queued
        let p = d.pop_least().unwrap();
        d.commit(p);
        d.insert(cost(1), &row(&[1, 1])); // used-blocked
        assert_eq!(m.snapshot().heap_inserts, 0, "nothing reaches Metrics before a flush");
        d.flush_metrics();
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
    fn one_flush_is_counter_identical_to_a_flush_per_operation() {
        // Inserts covering all four outcomes plus a used class, and
        // interleaved pops, flushed after every operation and once.
        let ops = |d: &mut Rql, flush_each: bool| {
            d.insert(cost(1), &row(&[9, 1]));
            let p = d.pop_least().unwrap();
            d.commit(p);
            for (c, r) in [(5, [1, 5]), (3, [1, 3]), (4, [1, 4]), (8, [2, 8]), (0, [9, 0])] {
                d.insert(cost(c), &row(&r));
                if flush_each {
                    d.flush_metrics();
                }
            }
            let p = d.pop_least().unwrap();
            d.discard(p);
            d.flush_metrics();
        };
        let m_each = Arc::new(Metrics::new());
        let mut each = keyed_on_first();
        each.set_metrics(Arc::clone(&m_each));
        ops(&mut each, true);
        let m_once = Arc::new(Metrics::new());
        let mut once = keyed_on_first();
        once.set_metrics(Arc::clone(&m_once));
        ops(&mut once, false);
        assert_eq!(pops(&mut each), pops(&mut once));
        assert_eq!(m_each.snapshot(), m_once.snapshot());
        assert_eq!(m_once.snapshot().queue_peak, 2);
    }

    #[test]
    fn retire_takes_a_class_out_of_the_queue() {
        let mut d = keyed_on_first();
        d.insert(cost(5), &row(&[1, 5]));
        d.insert(cost(3), &row(&[2, 3]));
        d.insert(cost(4), &row(&[3, 4]));
        // Class 1 is `[2, 3]`, the least: retiring it leaves the rest.
        assert!(d.is_queued(1));
        assert_eq!(d.retire(1), cost(3));
        assert!(!d.is_queued(1));
        assert_eq!(d.class_row(1), row(&[2, 3]));
        assert_eq!(d.redundant_count(), 1);
        // Like a discard, a congruent fact may queue again.
        assert_eq!(d.insert(cost(9), &row(&[2, 9])), RqlOutcome::Queued);
        assert_eq!(
            pops(&mut d),
            vec![(cost(4), row(&[3, 4])), (cost(5), row(&[1, 5])), (cost(9), row(&[2, 9]))]
        );
    }

    /// Assert the heap invariants: every node is queued and found by
    /// its class's `pos`, no node orders before its parent, and only
    /// heap nodes are queued.
    fn check_heap(d: &Rql) {
        for (slot, node) in d.heap.iter().enumerate() {
            assert_eq!(d.pos[node.class()] as usize, slot, "pos of class {}", node.class());
            assert_eq!(d.state[node.class()], State::Queued);
            if slot > 0 {
                let parent = d.heap[(slot - 1) / 2];
                let order = d
                    .cost_order(*node, parent)
                    .then_with(|| cmp_id_rows(d.row_of(node.class()), d.row_of(parent.class())));
                assert_eq!(order, Ordering::Greater, "slot {slot} orders before its parent");
            }
        }
        assert_eq!(d.state.iter().filter(|&&s| s == State::Queued).count(), d.heap.len());
    }

    /// A seeded mix of inserts (fresh, replacing, dominated), pops with
    /// commit or discard, and retirements, over tied and distinct costs
    /// in both directions. After every step the heap must be ordered,
    /// `pos` must find every node, and each class's state, cost and row
    /// must match a model that applies the case analysis by scanning.
    #[test]
    fn retire_keeps_heap_order_and_positions() {
        use gbc_telemetry::rng::Rng;
        let mut rng = Rng::new(0x5EED_0032);
        for case in 0..300 {
            let descending = case % 2 == 1;
            let tied = rng.bool();
            let mut d = if descending { Rql::new_descending(3, &[0]) } else { Rql::new(3, &[0]) };
            // Per class, in creation order: state, cost id, row.
            let mut model: Vec<(State, u32, Vec<u32>)> = Vec::new();
            let order = |a: (u32, &[u32]), b: (u32, &[u32])| {
                let by_cost = decode_ref(a.0).cmp(decode_ref(b.0));
                if descending { by_cost.reverse() } else { by_cost }
                    .then_with(|| cmp_id_rows(a.1, b.1))
            };
            for _ in 0..1 + rng.below_usize(120) {
                match rng.below(10) {
                    0..=4 => {
                        let c = if tied { rng.range_i64(0, 3) } else { rng.range_i64(-500, 500) };
                        let r = row(&[rng.range_i64(0, 12), c, rng.range_i64(0, 2)]);
                        let class = match model.iter().position(|m| m.2[0] == r[0]) {
                            Some(class) => class,
                            None => {
                                model.push((State::Idle, r[1], r.clone()));
                                model.len() - 1
                            }
                        };
                        let m = &mut model[class];
                        let want = match m.0 {
                            State::Used => RqlOutcome::CongruentUsed,
                            State::Queued if order((r[1], &r), (m.1, &m.2)) == Ordering::Less => {
                                (m.1, m.2) = (r[1], r.clone());
                                RqlOutcome::ReplacedQueued
                            }
                            State::Queued => RqlOutcome::DominatedInQueue,
                            State::Idle | State::Popped => {
                                *m = (State::Queued, r[1], r.clone());
                                RqlOutcome::Queued
                            }
                        };
                        assert_eq!(d.insert(r[1], &r), want, "case {case}");
                    }
                    5..=7 => {
                        let least = (0..model.len())
                            .filter(|&c| model[c].0 == State::Queued)
                            .min_by(|&a, &b| {
                                order((model[a].1, &model[a].2), (model[b].1, &model[b].2))
                            });
                        let popped = d.pop_least();
                        assert_eq!(popped.map(|p| p.class as usize), least, "case {case}");
                        if let Some(p) = popped {
                            assert_eq!(
                                (p.cost, d.row(&p)),
                                (model[p.class as usize].1, &model[p.class as usize].2[..])
                            );
                            if rng.bool() {
                                d.commit(p);
                                model[p.class as usize].0 = State::Used;
                            } else {
                                d.discard(p);
                                model[p.class as usize].0 = State::Idle;
                            }
                        }
                    }
                    _ => {
                        if model.is_empty() {
                            continue;
                        }
                        let class = rng.below_usize(model.len());
                        assert_eq!(d.is_queued(class as u32), model[class].0 == State::Queued);
                        if model[class].0 == State::Queued {
                            assert_eq!(d.retire(class as u32), model[class].1, "case {case}");
                            model[class].0 = State::Idle;
                        }
                    }
                }
                check_heap(&d);
                assert_eq!(d.classes(), model.len(), "case {case}");
                for (class, m) in model.iter().enumerate() {
                    assert_eq!(d.state[class], m.0, "case {case}, class {class}");
                    if m.0 == State::Queued {
                        assert_eq!(d.heap[d.pos[class] as usize].id, m.1, "case {case}");
                        assert_eq!(d.class_row(class as u32), m.2, "case {case}");
                    }
                }
            }
        }
    }

    /// Pop every entry of `d` as `(cost, row)`.
    fn pops(d: &mut Rql) -> Vec<(u32, Vec<u32>)> {
        let mut out = Vec::new();
        while let Some(p) = d.pop_least() {
            out.push((p.cost, d.row(&p).to_vec()));
        }
        out
    }

    /// One class per cost, rowed by its position; the expected pops are
    /// the costs in `Value` order (reversed for a descending heap),
    /// position breaking ties.
    fn value_order_case(descending: bool, costs: &[Value]) {
        let mut d = if descending { Rql::new_descending(1, &[0]) } else { Rql::new(1, &[0]) };
        for (i, c) in costs.iter().enumerate() {
            d.insert(encode(c), &row(&[i as i64]));
        }
        let mut want: Vec<(&Value, i64)> =
            costs.iter().enumerate().map(|(i, c)| (c, i as i64)).collect();
        want.sort_by(|a, b| {
            if descending { b.0.cmp(a.0) } else { a.0.cmp(b.0) }.then(a.1.cmp(&b.1))
        });
        let want: Vec<(u32, Vec<u32>)> =
            want.into_iter().map(|(c, i)| (encode(c), row(&[i]))).collect();
        assert_eq!(pops(&mut d), want, "descending: {descending}");
    }

    #[test]
    fn integer_costs_pop_in_value_order() {
        // Interleave magnitudes and signs so id order ≠ value order.
        let costs: Vec<Value> = [50, -3, 0, 50, 7].into_iter().map(Value::int).collect();
        value_order_case(false, &costs);
    }

    #[test]
    fn int_mode_reports_fast_compares_to_metrics() {
        let m = Arc::new(Metrics::new());
        let mut d = keyed_on_first();
        d.set_metrics(Arc::clone(&m));
        d.insert(cost(5), &row(&[1, 5]));
        d.insert(cost(3), &row(&[2, 3]));
        d.insert(cost(2), &row(&[1, 2])); // replace: compares against old
        while d.pop_least().is_some() {}
        d.flush_metrics();
        let s = m.snapshot();
        assert!(s.heap_int_fast_compares > 0, "{s:?}");
        // Symbol costs take no integer compare.
        let m2 = Arc::new(Metrics::new());
        let mut g = Rql::new(1, &[0]);
        g.set_metrics(Arc::clone(&m2));
        g.insert(encode(&Value::sym("b")), &row(&[1]));
        g.insert(encode(&Value::sym("a")), &row(&[2]));
        while g.pop_least().is_some() {}
        g.flush_metrics();
        assert_eq!(m2.snapshot().heap_int_fast_compares, 0);
    }

    #[test]
    fn descending_int_mode_pops_maxima() {
        let costs: Vec<Value> = [5, 9, -2].into_iter().map(Value::int).collect();
        value_order_case(true, &costs);
    }

    #[test]
    fn mixed_int_and_symbol_costs_pop_in_value_order() {
        // Integers compare inline with each other and through the
        // dictionary with everything else; both directions.
        let costs = vec![
            Value::int(3),
            Value::sym("x"),
            Value::int(1),
            Value::Nil,
            Value::sym("a"),
            Value::int(-4),
            Value::int(1),
        ];
        for descending in [false, true] {
            value_order_case(descending, &costs);
        }
    }

    #[test]
    fn costs_need_not_be_integers() {
        // Symbolic costs order lexicographically (via the dictionary's
        // decoded ordering, not id magnitude) — exercised by sorting
        // relations on symbolic keys. Interning "zebra" first gives it
        // the *smaller id*, so this also proves ids don't order the heap.
        let mut d = Rql::new(1, &[0]);
        let zebra = encode(&Value::sym("zebra"));
        let ant = encode(&Value::sym("ant"));
        d.insert(zebra, &row(&[1]));
        d.insert(ant, &row(&[2]));
        assert_eq!(d.pop_least().unwrap().cost, ant);
    }
}
