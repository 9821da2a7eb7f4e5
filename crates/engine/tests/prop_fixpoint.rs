//! Property tests for the evaluation engine: seminaive agrees with
//! naive evaluation, and choice models always satisfy their functional
//! dependencies.
//!
//! Seeded-loop style: random cases come from the in-tree deterministic
//! PRNG, so every failure reproduces exactly.

use gbc_ast::{Program, Value};
use gbc_engine::chooser::SeededRandom;
use gbc_engine::eval::eval_rule_plain;
use gbc_engine::extrema::eval_rule_with_extrema;
use gbc_engine::seminaive::Seminaive;
use gbc_engine::ChoiceFixpoint;
use gbc_storage::Database;
use gbc_telemetry::rng::Rng;

fn tc_program() -> Program {
    gbc_parser::parse_program(
        "tc(X, Y) <- e(X, Y).
         tc(X, Z) <- tc(X, Y), e(Y, Z).",
    )
    .unwrap()
}

fn edge_db(edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert_values("e", vec![Value::int(a.into()), Value::int(b.into())]);
    }
    db
}

/// Rules whose heads seminaive cannot copy from the frame's ids: a
/// constant, a functor over body variables, an `=`-assigned arithmetic
/// result, a zero-arity head and a `least` selection, around a
/// recursive core. The `least` rule reads only the EDB, so naive and
/// seminaive see the same input to it.
fn computed_heads_program() -> Program {
    gbc_parser::parse_program(
        "lab(X, seen) <- e(X, Y).
         reach(X, Y) <- e(X, Y).
         reach(X, Z) <- reach(X, Y), e(Y, Z).
         hop(f(X, Y), Z) <- reach(X, Y), Z = X + Y.
         wrapped(W) <- hop(W, Z), Z > 10.
         nonempty <- reach(X, X).
         low(X, Y) <- e(X, Y), least(Y, X).",
    )
    .unwrap()
}

/// Naive saturation reference, on the `Value` path: every head is
/// instantiated as values and encoded on insert.
fn naive(db: &mut Database, program: &Program) {
    loop {
        let mut grew = false;
        for rule in &program.rules {
            let rows = if rule.has_extrema() {
                eval_rule_with_extrema(db, rule).unwrap()
            } else {
                eval_rule_plain(db, rule, None).unwrap()
            };
            for r in rows {
                grew |= db.insert(rule.head.pred, r);
            }
        }
        if !grew {
            break;
        }
    }
}

/// Seminaive and naive evaluation compute identical models on
/// arbitrary edge relations (cycles included), for transitive closure
/// and for a rule set with computed heads.
#[test]
fn seminaive_equals_naive() {
    let mut rng = Rng::new(0x5EED_0003);
    for case in 0..64 {
        let n_edges = rng.below_usize(40);
        let edges: Vec<(u8, u8)> =
            (0..n_edges).map(|_| (rng.below(12) as u8, rng.below(12) as u8)).collect();

        for program in [tc_program(), computed_heads_program()] {
            let mut a = edge_db(&edges);
            Seminaive::new(program.rules.clone()).saturate(&mut a).unwrap();
            let mut b = edge_db(&edges);
            naive(&mut b, &program);
            assert_eq!(a.canonical_form(), b.canonical_form(), "case {case}");
        }
    }
}

/// Every choice model of the assignment program satisfies both
/// functional dependencies, regardless of the chooser's seed, and is
/// maximal (no takes-pair can be added without violating an FD).
#[test]
fn choice_models_satisfy_and_saturate_fds() {
    let mut rng = Rng::new(0x5EED_0004);
    for case in 0..64 {
        let n_pairs = 1 + rng.below_usize(17);
        let pairs: Vec<(u8, u8)> =
            (0..n_pairs).map(|_| (rng.below(6) as u8, rng.below(6) as u8)).collect();
        let seed = rng.below(500);

        let program =
            gbc_parser::parse_program("a(S, C) <- takes(S, C), choice(C, S), choice(S, C).")
                .unwrap();
        let mut edb = Database::new();
        for &(s, c) in &pairs {
            edb.insert_values("takes", vec![Value::int(s.into()), Value::int(c.into())]);
        }
        let mut fixpoint = ChoiceFixpoint::new(&program, &edb).unwrap();
        let m = fixpoint.run(&mut SeededRandom::new(seed)).unwrap();
        let a = gbc_ast::Symbol::intern("a");
        let picked = m.facts_of(a);

        // FDs: course → student and student → course.
        let mut by_c = std::collections::HashMap::new();
        let mut by_s = std::collections::HashMap::new();
        for r in &picked {
            assert!(by_s.insert(r[0].clone(), r[1].clone()).is_none(), "case {case}");
            assert!(by_c.insert(r[1].clone(), r[0].clone()).is_none(), "case {case}");
        }
        // Maximality: every unpicked takes-pair conflicts with a pick.
        for &(s, c) in &pairs {
            let (sv, cv) = (Value::int(s.into()), Value::int(c.into()));
            let picked_here = picked.iter().any(|r| r[0] == sv && r[1] == cv);
            if !picked_here {
                assert!(
                    by_s.contains_key(&sv) || by_c.contains_key(&cv),
                    "unpicked pair ({s},{c}) must be blocked by an FD (case {case})"
                );
            }
        }
    }
}
