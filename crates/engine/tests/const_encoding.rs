//! Plan-compile-time constant interning: executing a compiled plan
//! performs **no** dictionary encodes, so the encoding cost of a rule's
//! baked constants is independent of how many rows the scans visit.
//!
//! This file deliberately holds a single `#[test]`: the dictionary
//! counters are process-global, and integration tests get their own
//! process — concurrent `#[test]` threads would pollute the deltas.

use gbc_ast::{Atom, Literal, Rule, Term, Value};
use gbc_engine::eval::{instantiate_head, Focus};
use gbc_engine::plan::{for_each_match_plan, RulePlan};
use gbc_storage::dictionary::dict_stats;
use gbc_storage::{ColumnBuf, Database};

/// `p(X) <- e(X, k), f(X, m).` — two scans, each keyed by one baked
/// symbol constant.
fn rule() -> Rule {
    Rule::new(
        Atom::new("p", vec![Term::var(0)]),
        vec![
            Literal::pos("e", vec![Term::var(0), Term::Const(Value::sym("k"))]),
            Literal::pos("f", vec![Term::var(0), Term::Const(Value::sym("m"))]),
        ],
        vec!["X".into()],
    )
}

fn db_with(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert_values("e", vec![Value::int(i), Value::sym("k")]);
        db.insert_values("e", vec![Value::int(i), Value::sym("j")]); // non-matching
        db.insert_values("f", vec![Value::int(i), Value::sym("m")]);
    }
    db
}

fn run(db: &Database, plan: &RulePlan, rule: &Rule, focus: Option<Focus<'_>>) -> usize {
    let mut n = 0;
    for_each_match_plan(db, rule, plan, focus, &mut |b| {
        let _ = instantiate_head(rule, b)?;
        n += 1;
        Ok(true)
    })
    .unwrap();
    n
}

#[test]
fn plan_constants_encode_independent_of_row_count() {
    let rule = rule();
    let small = db_with(8);
    let large = db_with(512);

    // Every value the rule's constants name is interned by the EDB
    // loads above, so compilation only *hits* the dictionary — once per
    // baked key constant per variant, and row counts cannot enter the
    // picture. The base variant bakes both constants; each focused
    // variant bakes only the *other* literal's constant (the focused
    // occurrence iterates delta rows and compares ids directly).
    let c0 = dict_stats();
    let plan = RulePlan::compile(&rule).unwrap();
    let compiled = dict_stats().since(&c0);
    assert_eq!(compiled.dict_entries, 0, "compile must not mint new ids here");
    assert_eq!(compiled.encode_hits, 4, "2 consts in base + 1 in each focused variant");

    // Base-plan execution: zero dictionary encodes, whatever the size.
    let b0 = dict_stats();
    let n_small = run(&small, &plan, &rule, None);
    let d_small = dict_stats().since(&b0);
    let b1 = dict_stats();
    let n_large = run(&large, &plan, &rule, None);
    let d_large = dict_stats().since(&b1);
    assert_eq!((n_small, n_large), (8, 512));
    assert_eq!(d_small.encode_hits, d_large.encode_hits, "encodes must not scale with rows");
    assert_eq!(d_small.encode_hits, 0, "constants are pre-encoded at compile time");
    assert_eq!(d_large.dict_entries, 0);

    // The focused (delta) variant bakes its constants at compile time
    // too: driving it over a delta performs no encodes either.
    let mut delta = ColumnBuf::new();
    delta.push_values(&[Value::int(3), Value::sym("k")]);
    delta.push_values(&[Value::int(5), Value::sym("k")]);
    let f0 = dict_stats();
    let n_focused = run(&large, &plan, &rule, Some(Focus { literal: 0, rows: delta.view() }));
    let d_focused = dict_stats().since(&f0);
    assert_eq!(n_focused, 2);
    assert_eq!(d_focused.encode_hits, 0, "delta variant also uses pre-encoded constants");
    assert_eq!(d_focused.dict_entries, 0);
}
