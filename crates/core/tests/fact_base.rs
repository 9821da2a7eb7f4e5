//! The shared fact base: every greedy evaluation of one [`Compiled`]
//! starts from the same encoded inline facts, borrows them
//! copy-on-write and prints them from a cached render. Whatever a run
//! does — derive into a fact predicate, start from an EDB that shares
//! a predicate with the facts, run beside another thread — its text and
//! counters must be those of a run from freshly loaded facts, and the
//! base must come out unchanged for the next run.

use std::sync::Arc;

use gbc_ast::{Symbol, Value};
use gbc_core::{compile, Compiled, GreedyConfig};
use gbc_storage::Database;
use gbc_telemetry::Snapshot;

fn compiled(text: &str) -> Compiled {
    compile(gbc_parser::parse_program(text).expect("parses")).expect("compiles")
}

/// One greedy evaluation: the rendered model and its counters.
fn eval(compiled: &Compiled, edb: &Database) -> (String, Snapshot) {
    let run = compiled.run_greedy_with(edb, GreedyConfig::default()).expect("runs");
    (run.db.canonical_form(), run.snapshot)
}

/// The base's facts and rendered text.
fn base_state(compiled: &Compiled) -> (Vec<(Symbol, Vec<Value>)>, String) {
    let base = compiled.fact_base();
    let facts = base.iter_all().map(|(p, row)| (p, row.to_vec())).collect();
    (facts, base.canonical_form())
}

/// Sort with a flat rule that derives into the fact predicate `p`, and
/// the next rule deriving into `sp`, which also holds a fact: both
/// relations start shared with the base and are copied on first write.
const DERIVES_INTO_FACTS: &str = "\
sp(nil, 0, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
p(pear, 30).
p(apple, 10).
p(fig, C) <- p(apple, D), C = D + 10.
";

/// `gbc run` of this text at the commit before the fact base.
const DERIVES_INTO_FACTS_MODEL: &str = "\
p(apple,10).
p(fig,20).
p(pear,30).
sp(nil,0,0).
sp(apple,10,1).
sp(fig,20,2).
sp(pear,30,3).";

/// Sort whose EDB holds a second `p` row and a duplicate of a fact.
const SORT: &str = "\
sp(nil, 0, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
p(pear, 30).
p(apple, 10).
";

/// `gbc run` of the EDB rows followed by `SORT`, at the commit before
/// the fact base.
const SORT_WITH_EDB_MODEL: &str = "\
p(apple,10).
p(fig,20).
p(pear,30).
sp(nil,0,0).
sp(apple,10,1).
sp(fig,20,2).
sp(pear,30,3).";

fn sort_edb() -> Database {
    let mut edb = Database::new();
    edb.insert_values("p", vec![Value::sym("fig"), Value::int(20)]);
    edb.insert_values("p", vec![Value::sym("pear"), Value::int(30)]);
    edb
}

#[test]
fn a_run_shares_the_facts_it_does_not_write() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/matching.dl"))
            .expect("programs/matching.dl");
    let compiled = compiled(&text);
    let run = compiled.run_greedy(&Database::new()).unwrap();
    let base = compiled.fact_base();
    let (g, matching) = (Symbol::intern("g"), Symbol::intern("matching"));
    assert!(run.db.relation(g).shares_rows(base.relation(g)), "the run borrows `g`");
    // `matching` holds a fact and is derived into: the run copied it.
    assert!(!run.db.relation(matching).shares_rows(base.relation(matching)));
    assert_eq!(base.count(matching), 1);
}

#[test]
fn compile_encodes_the_base_and_clones_share_it() {
    let compiled = compiled(DERIVES_INTO_FACTS);
    let base = compiled.fact_base();
    // Encoded at compile time: no evaluation has run.
    assert_eq!(base.canonical_form(), "p(apple,10).\np(pear,30).\nsp(nil,0,0).");
    let clone = compiled.clone();
    for pred in ["p", "sp"] {
        let pred = Symbol::intern(pred);
        assert!(clone.fact_base().relation(pred).shares_rows(base.relation(pred)));
    }
}

#[test]
fn deriving_into_a_fact_predicate_leaves_the_base_unchanged() {
    let compiled = compiled(DERIVES_INTO_FACTS);
    let first = eval(&compiled, &Database::new());
    assert_eq!(first.0, DERIVES_INTO_FACTS_MODEL);
    let base = base_state(&compiled);
    assert_eq!(base.1, "p(apple,10).\np(pear,30).\nsp(nil,0,0).");
    for _ in 0..2 {
        assert_eq!(eval(&compiled, &Database::new()), first);
        assert_eq!(base_state(&compiled), base);
    }
}

#[test]
fn an_edb_sharing_a_fact_predicate_leaves_both_unchanged() {
    let compiled = compiled(SORT);
    let edb = sort_edb();
    let first = eval(&compiled, &edb);
    assert_eq!(first.0, SORT_WITH_EDB_MODEL);
    let base = base_state(&compiled);
    for _ in 0..2 {
        assert_eq!(eval(&compiled, &edb), first);
        assert_eq!(base_state(&compiled), base);
        assert_eq!(edb.canonical_form(), "p(fig,20).\np(pear,30).");
    }
    // The EDB's own rows come first, the base's follow, duplicates
    // dropped: the insertion order of a run that loads the facts itself.
    let run = compiled.run_greedy(&edb).unwrap();
    let order: Vec<String> =
        run.db.relation(Symbol::intern("p")).iter().map(|r| r[0].to_string()).collect();
    assert_eq!(order, ["fig", "pear", "apple"]);
    // Without the EDB, the same compiled program runs on its facts alone.
    let alone = eval(&compiled, &Database::new()).0;
    assert!(!alone.contains("fig"), "{alone}");
}

#[test]
fn concurrent_evaluations_of_one_compiled_agree() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/matching.dl"))
            .expect("programs/matching.dl");
    let compiled = Arc::new(compiled(&text));
    let results: Vec<(String, Snapshot)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let compiled = Arc::clone(&compiled);
                s.spawn(move || {
                    (0..3).map(|_| eval(&compiled, &Database::new())).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    assert!(results.iter().all(|r| *r == results[0]));
    assert!(results[0].0.contains("matching(0,1,1,1)."), "{}", results[0].0);
}
