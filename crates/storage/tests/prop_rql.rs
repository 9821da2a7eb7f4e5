//! Differential tests for the (R,Q,L) structure: every outcome, every
//! pop and every size of [`Rql`] must match a naive model — a
//! `BTreeMap` of congruence classes, with retrieve-least a sorted scan
//! over decoded values — under seeded random operation sequences.
//!
//! The sequences cover ascending and descending heaps, key columns that
//! are not a prefix of the row, integer, symbol and `nil` costs mixed in
//! one heap, cost ties broken by row, requeue after a discard, queued
//! replacements (the heap's replace path) and pops from every queue
//! size (its remove path), and enough classes to grow the class table
//! several times.
//!
//! Seeded-loop style: each test draws a fixed number of random cases
//! from the in-tree deterministic PRNG, so failures reproduce exactly.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use gbc_ast::Value;
use gbc_storage::dictionary::{decode_ref, encode};
use gbc_storage::rql::RqlOutcome;
use gbc_storage::Rql;
use gbc_telemetry::rng::Rng;

/// Where a model class stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Queued,
    Popped,
    Used,
    Idle,
}

/// The paper's case analysis, written as plainly as possible.
struct Model {
    key_cols: Vec<usize>,
    descending: bool,
    /// Congruence key → (state, cost id, row) of the class's current fact.
    classes: BTreeMap<Vec<u32>, (State, u32, Vec<u32>)>,
    redundant: u64,
}

impl Model {
    fn new(key_cols: &[usize], descending: bool) -> Model {
        Model { key_cols: key_cols.to_vec(), descending, classes: BTreeMap::new(), redundant: 0 }
    }

    fn key(&self, row: &[u32]) -> Vec<u32> {
        self.key_cols.iter().map(|&c| row[c]).collect()
    }

    /// Retrieval order over decoded values: cost (reversed when
    /// descending), then the row ascending.
    fn order(&self, a: (u32, &[u32]), b: (u32, &[u32])) -> Ordering {
        let cost = decode_ref(a.0).cmp(decode_ref(b.0));
        let cost = if self.descending { cost.reverse() } else { cost };
        cost.then_with(|| {
            a.1.iter().map(|&id| decode_ref(id)).cmp(b.1.iter().map(|&id| decode_ref(id)))
        })
    }

    fn insert(&mut self, cost: u32, row: &[u32]) -> RqlOutcome {
        let key = self.key(row);
        let current = self.classes.get(&key).cloned();
        let outcome = match current {
            Some((State::Used, ..)) => RqlOutcome::CongruentUsed,
            Some((State::Queued, old_cost, old_row)) => {
                if self.order((cost, row), (old_cost, &old_row)) == Ordering::Less {
                    self.classes.insert(key, (State::Queued, cost, row.to_vec()));
                    RqlOutcome::ReplacedQueued
                } else {
                    RqlOutcome::DominatedInQueue
                }
            }
            _ => {
                self.classes.insert(key, (State::Queued, cost, row.to_vec()));
                RqlOutcome::Queued
            }
        };
        if outcome != RqlOutcome::Queued {
            self.redundant += 1;
        }
        outcome
    }

    /// Retrieve-least by a full scan; the class becomes pending.
    fn pop(&mut self) -> Option<(u32, Vec<u32>)> {
        let (key, cost, row) = self
            .classes
            .iter()
            .filter(|(_, class)| class.0 == State::Queued)
            .min_by(|(_, a), (_, b)| self.order((a.1, &a.2), (b.1, &b.2)))
            .map(|(key, class)| (key.clone(), class.1, class.2.clone()))?;
        self.classes.get_mut(&key).expect("scanned class").0 = State::Popped;
        Some((cost, row))
    }

    fn settle(&mut self, row: &[u32], commit: bool) {
        let key = self.key(row);
        let class = self.classes.get_mut(&key).expect("popped class");
        assert_eq!(class.0, State::Popped);
        class.0 = if commit { State::Used } else { State::Idle };
        if !commit {
            self.redundant += 1;
        }
    }

    fn count(&self, state: State) -> usize {
        self.classes.values().filter(|c| c.0 == state).count()
    }
}

/// The shape of one random case.
struct Shape {
    arity: usize,
    key_cols: Vec<usize>,
    cost_col: usize,
    descending: bool,
    /// Distinct values per key column (small ⇒ many congruent rows).
    key_space: u64,
    /// Draw symbol and `nil` costs too, not only integers.
    mixed_costs: bool,
}

fn random_cost(rng: &mut Rng, mixed: bool) -> Value {
    match if mixed { rng.below(6) } else { 0 } {
        0..=2 => Value::int(rng.range_i64(-4, 4)),
        3 => Value::sym(["a", "b", "zz"][rng.below_usize(3)]),
        4 => Value::Nil,
        _ => Value::int(rng.range_i64(-1000, 1000)),
    }
}

fn random_row(rng: &mut Rng, shape: &Shape) -> Vec<u32> {
    (0..shape.arity)
        .map(|c| {
            if c == shape.cost_col {
                encode(&random_cost(rng, shape.mixed_costs))
            } else if shape.key_cols.contains(&c) {
                encode(&Value::int(rng.below(shape.key_space) as i64))
            } else {
                // Few payload values, so equal costs often tie on the row.
                encode(&Value::int(rng.range_i64(0, 2)))
            }
        })
        .collect()
}

/// Drive `rql` and the model through `n_ops` random operations,
/// asserting agreement after each one.
fn run_case(rng: &mut Rng, shape: &Shape, n_ops: usize, case: usize) {
    let mut rql = if shape.descending {
        Rql::new_descending(shape.arity, &shape.key_cols)
    } else {
        Rql::new(shape.arity, &shape.key_cols)
    };
    let mut model = Model::new(&shape.key_cols, shape.descending);
    let mut inserted = 0u64;
    let mut committed = 0u64;
    for _ in 0..n_ops {
        match rng.below(8) {
            0..=4 => {
                let row = random_row(rng, shape);
                let cost = row[shape.cost_col];
                inserted += 1;
                assert_eq!(rql.insert(cost, &row), model.insert(cost, &row), "case {case}");
            }
            op => {
                let got = rql.pop_least();
                let want = model.pop();
                assert_eq!(got.map(|p| (p.cost, rql.row(&p).to_vec())), want, "case {case}");
                if let (Some(p), Some((_, row))) = (got, want) {
                    let commit = op == 5;
                    model.settle(&row, commit);
                    if commit {
                        committed += 1;
                        rql.commit(p);
                    } else {
                        rql.discard(p);
                    }
                }
            }
        }
        assert_eq!(rql.queue_len(), model.count(State::Queued), "case {case}");
        assert_eq!(rql.used_len(), model.count(State::Used), "case {case}");
        assert_eq!(rql.redundant_count(), model.redundant, "case {case}");
    }
    // Conservation: every inserted fact is queued, committed or redundant.
    assert_eq!(inserted, rql.queue_len() as u64 + committed + rql.redundant_count(), "case {case}");
}

/// Random shapes: arity 2–4, the cost anywhere in the row, either
/// direction, and a random non-empty key listed in random column order.
/// The key need not be a prefix of the row, and may hold the cost
/// column (every cost is then its own class, as in sorting).
#[test]
fn rql_invariants_hold() {
    let mut rng = Rng::new(0x5EED_0001);
    for case in 0..400 {
        let arity = 2 + rng.below_usize(3);
        let mut key_cols: Vec<usize> = (0..arity).collect();
        rng.shuffle(&mut key_cols);
        key_cols.truncate(1 + rng.below_usize(arity - 1));
        let shape = Shape {
            arity,
            key_cols,
            cost_col: rng.below_usize(arity),
            descending: rng.bool(),
            key_space: 1 + rng.below(8),
            mixed_costs: rng.bool(),
        };
        let n_ops = 1 + rng.below_usize(200);
        run_case(&mut rng, &shape, n_ops, case);
    }
}

/// About 1 900 classes grow the 16-slot class table several times;
/// classes created before each growth must still be found after it.
#[test]
fn class_table_growth_keeps_every_class() {
    let mut rng = Rng::new(0x5EED_0004);
    for (case, descending) in [false, true].into_iter().enumerate() {
        let shape = Shape {
            arity: 3,
            key_cols: vec![0, 2],
            cost_col: 1,
            descending,
            key_space: 48,
            mixed_costs: case == 1,
        };
        run_case(&mut rng, &shape, 6_000, case);
    }
}

/// Draining a freshly filled structure pops in non-decreasing cost
/// order with exactly one representative per class (the cheapest).
#[test]
fn drain_order_is_sorted_and_class_unique() {
    let mut rng = Rng::new(0x5EED_0002);
    for case in 0..256 {
        let n_items = 1 + rng.below_usize(79);
        let items: Vec<(u8, i64)> =
            (0..n_items).map(|_| (rng.below(12) as u8, rng.range_i64(-50, 49))).collect();

        let mut rql = Rql::new(3, &[0]);
        let mut best: BTreeMap<u8, i64> = BTreeMap::new();
        for (i, &(class, cost)) in items.iter().enumerate() {
            let row = [class as i64, cost, i as i64].map(|v| encode(&Value::int(v)));
            rql.insert(row[1], &row);
            best.entry(class).and_modify(|b| *b = (*b).min(cost)).or_insert(cost);
        }
        let mut prev = i64::MIN;
        let mut seen = Vec::new();
        while let Some(p) = rql.pop_least() {
            let class = decode_ref(rql.row(&p)[0]).as_int().unwrap() as u8;
            let cost = decode_ref(p.cost).as_int().unwrap();
            assert!(cost >= prev, "pop order must be non-decreasing (case {case})");
            prev = cost;
            assert!(!seen.contains(&class), "case {case}");
            assert_eq!(cost, best[&class], "class representative is its minimum (case {case})");
            seen.push(class);
            rql.commit(p);
        }
        assert_eq!(seen.len(), best.len(), "case {case}");
    }
}
