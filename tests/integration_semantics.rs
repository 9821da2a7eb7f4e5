//! V1/V2 — semantics validation across crates.
//!
//! * **V1 (Theorem 1):** every database produced by either executor is
//!   a stable model of the rewritten negative program, checked with the
//!   Gelfond–Lifschitz reduct.
//! * **V2 (Lemmas 1–2):** exhaustive γ-enumeration finds *all* choice
//!   models on small instances, and every enumerated model passes the
//!   same stability check.

use gbc_ast::{Symbol, Value};
use gbc_core::{compile, verify_stable_model};
use gbc_greedy::{matching, prim, sorting, spanning, tsp, workload, Graph};
use gbc_storage::{Database, Row};

/// Run `program_text` both ways on `edb` and assert stability of both
/// results.
fn assert_both_paths_stable(program_text: &str, edb: &Database) {
    let program = gbc_parser::parse_program(program_text).unwrap();
    let compiled = compile(program).unwrap();

    if compiled.has_greedy_plan() {
        let run = compiled.run_greedy(edb).unwrap();
        assert!(
            verify_stable_model(compiled.program(), edb, &run).unwrap(),
            "greedy run must be a stable model for:\n{}",
            compiled.program()
        );
    }
    let run = compiled.run_generic(edb).unwrap();
    assert!(
        verify_stable_model(compiled.program(), edb, &run).unwrap(),
        "generic run must be a stable model for:\n{}",
        compiled.program()
    );
}

#[test]
fn v1_sorting_runs_are_stable_models() {
    let items = workload::random_items(8, 1);
    assert_both_paths_stable(sorting::PROGRAM, &sorting::edb(&items));
}

#[test]
fn v1_prim_runs_are_stable_models() {
    let g = workload::connected_graph(7, 6, 20, 2);
    assert_both_paths_stable(&prim::program_text(0), &g.to_edb());
}

#[test]
fn v1_matching_runs_are_stable_models() {
    let g = workload::random_arcs(6, 9, 3);
    assert_both_paths_stable(matching::PROGRAM, &g.to_edb());
}

#[test]
fn v1_spanning_tree_runs_are_stable_models() {
    let g = workload::connected_graph(6, 4, 10, 4);
    assert_both_paths_stable(&spanning::program_stage_text(0), &g.to_edb());
    assert_both_paths_stable(&spanning::program_choice_text(0), &g.to_edb());
}

#[test]
fn v1_tsp_runs_are_stable_models() {
    let g = workload::complete_geometric(5, 5);
    assert_both_paths_stable(tsp::PROGRAM, &g.to_edb());
}

#[test]
fn v1_example1_runs_are_stable_models() {
    assert_both_paths_stable(gbc_greedy::student::PROGRAM, &gbc_greedy::student::paper_facts());
}

#[test]
fn v1_tampered_model_fails_the_check() {
    // Sanity: the checker is not a rubber stamp. Add a junk fact to a
    // correct run and stability must fail.
    let items = [(0i64, 3i64), (1, 1), (2, 2)];
    let edb = sorting::edb(&items);
    let compiled = compile(gbc_parser::parse_program(sorting::PROGRAM).unwrap()).unwrap();
    let mut run = compiled.run_greedy(&edb).unwrap();
    run.db.insert_values("sp", vec![Value::int(99), Value::int(99), Value::int(99)]);
    assert!(!verify_stable_model(compiled.program(), &edb, &run).unwrap());
}

/// A greedy run of `program_text` that verifies, and the predicate and
/// row of its last committed head fact (the one with the highest stage,
/// the last column).
fn verified_greedy_run(
    program_text: &str,
    head: &str,
) -> (gbc_core::Compiled, gbc_core::GreedyRun, Symbol, Row) {
    let compiled = compile(gbc_parser::parse_program(program_text).unwrap()).unwrap();
    let edb = Database::new();
    let run = compiled.run_greedy(&edb).unwrap();
    assert!(verify_stable_model(compiled.program(), &edb, &run).unwrap());
    let pred = Symbol::intern(head);
    let last = run.db.facts_of(pred).into_iter().max_by_key(|r| r[r.len() - 1].clone()).unwrap();
    (compiled, run, pred, last)
}

/// `last` moved to the next, fresh stage.
fn at_fresh_stage(last: &Row) -> Row {
    let mut vals: Vec<Value> = last.iter().cloned().collect();
    let Some(Value::Int(stage)) = vals.pop() else { panic!("stage column must be an integer") };
    vals.push(Value::int(stage + 1));
    Row::new(vals)
}

/// `db` without the fact `pred(row)`.
fn without(db: &Database, pred: Symbol, row: &Row) -> Database {
    let mut out = Database::new();
    for (p, r) in db.iter_all().filter(|(p, r)| (*p, r) != (pred, row)) {
        out.insert(p, r);
    }
    out
}

const PRIM_SMALL: &str =
    concat!(include_str!("../programs/prim.dl"), include_str!("../programs/graph_small.dl"));
const MATCHING: &str = include_str!("../programs/matching.dl");

#[test]
fn v1_extra_head_fact_at_a_fresh_stage_fails_the_check() {
    // No chosen record supports the extra fact, so the reduct cannot
    // derive it: check (a), every fact of M is derivable, rejects it.
    for (text, head) in [(PRIM_SMALL, "prm"), (MATCHING, "matching")] {
        let (compiled, mut run, pred, last) = verified_greedy_run(text, head);
        assert!(run.db.insert(pred, at_fresh_stage(&last)));
        assert!(
            !verify_stable_model(compiled.program(), &Database::new(), &run).unwrap(),
            "{head}"
        );
    }
}

#[test]
fn v1_deleted_last_commit_fails_the_check() {
    // The last committed head fact is removed but its chosen record
    // kept. Prim's `new_g` facts read from the removed `prm` fact are
    // no longer derivable: check (a) rejects it. Matching derives
    // nothing from its heads, so every remaining fact is derivable and
    // check (b), M closed under the reduct, rejects it: the kept
    // `chosen` fact derives the missing head.
    for (text, head) in [(PRIM_SMALL, "prm"), (MATCHING, "matching")] {
        let (compiled, mut run, pred, last) = verified_greedy_run(text, head);
        run.db = without(&run.db, pred, &last);
        assert!(
            !verify_stable_model(compiled.program(), &Database::new(), &run).unwrap(),
            "{head}"
        );
    }
}

#[test]
fn v1_truncated_model_fails_the_check() {
    // Remove the chosen record for one committed fact: the chosen_i
    // completion is then wrong and the model must be rejected.
    let items = [(0i64, 3i64), (1, 1)];
    let edb = sorting::edb(&items);
    let compiled = compile(gbc_parser::parse_program(sorting::PROGRAM).unwrap()).unwrap();
    let mut run = compiled.run_greedy(&edb).unwrap();
    run.chosen.pop();
    assert!(!verify_stable_model(compiled.program(), &edb, &run).unwrap());
}

#[test]
fn v2_enumeration_matches_the_paper_counts() {
    let models = gbc_greedy::student::enumerate_models().unwrap();
    assert_eq!(models.len(), 3);
    let bi = gbc_greedy::student::enumerate_bi_models().unwrap();
    assert_eq!(bi.len(), 2);
}

#[test]
fn v2_spanning_tree_enumeration_counts_trees() {
    // The 3-cycle a-b-c has exactly 3 spanning trees; rooted at node 0
    // with parent choices, the choice program has 3 models.
    let g = Graph::new(
        3,
        vec![
            gbc_greedy::Edge::new(0, 1, 1),
            gbc_greedy::Edge::new(1, 2, 1),
            gbc_greedy::Edge::new(0, 2, 1),
        ],
    )
    .symmetric_closure();
    let program = gbc_parser::parse_program(&spanning::program_choice_text(0)).unwrap();
    let models = gbc_engine::enumerate::all_choice_models(&program, &g.to_edb()).unwrap();
    assert_eq!(models.len(), 3, "a triangle has exactly three spanning trees");
    for m in &models {
        let tree = gbc_greedy::graph::decode_edges(&m.facts_of(gbc_ast::Symbol::intern("st")));
        assert!(spanning::is_spanning_tree(&g, 0, &tree));
    }
}

#[test]
fn v2_every_enumerated_model_is_stable() {
    // For Example 1 (Lemma 1's direction: everything the fixpoint can
    // produce is stable), check all three models through the rewriting.
    let program = gbc_parser::parse_program(gbc_greedy::student::PROGRAM).unwrap();
    let edb = gbc_greedy::student::paper_facts();
    let compiled = compile(program.clone()).unwrap();

    // Reconstruct each model via scripted choosers covering all picks.
    let mut seen = std::collections::BTreeSet::new();
    for a in 0..4usize {
        for b in 0..3usize {
            let mut fixpoint = gbc_engine::ChoiceFixpoint::new(&program, &edb).unwrap();
            let mut chooser = gbc_engine::chooser::Scripted::new(vec![a, b]);
            fixpoint.run(&mut chooser).unwrap();
            let chosen = gbc_core::verify::records_from_engine(&fixpoint, compiled.expanded());
            let run = gbc_core::GreedyRun {
                db: fixpoint.into_database(),
                chosen,
                stats: gbc_core::GreedyStats::default(),
                snapshot: gbc_telemetry::Snapshot::default(),
                pool: None,
            };
            assert!(verify_stable_model(&program, &edb, &run).unwrap(), "scripted picks ({a},{b})");
            seen.insert(run.db.canonical_form());
        }
    }
    assert_eq!(seen.len(), 3, "the scripted sweep reaches all three models");
}
