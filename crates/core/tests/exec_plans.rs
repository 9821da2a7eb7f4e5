//! Unit tests for the greedy plan compiler: template matching, chain
//! detection, and congruence-key derivation (the Section 6 machinery).

use gbc_ast::Value;
use gbc_core::{compile, CoreError, GreedyConfig, ProgramClass};
use gbc_storage::Database;

fn compiled(text: &str) -> gbc_core::Compiled {
    compile(gbc_parser::parse_program(text).unwrap()).unwrap()
}

#[test]
fn prim_plan_congruence_is_the_target_node() {
    // One choice goal choice(Y, X): drop the determined X; drop the
    // stage J (frontier mode) and the cost C — key = {Y} (column 1).
    let c = compiled(
        "prm(nil, 0, 0, 0).
         prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, Y != 0,
                            least(C, I), choice(Y, X).
         new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
    );
    assert!(c.has_greedy_plan());
    // Probe behaviour: on a star graph every edge targets a distinct
    // node; the queue peak equals the number of distinct targets.
    let mut edb = Database::new();
    for k in 1..=5i64 {
        edb.insert_values("g", vec![Value::int(0), Value::int(k), Value::int(k)]);
        edb.insert_values("g", vec![Value::int(k), Value::int(0), Value::int(k)]);
    }
    let run = c.run_greedy(&edb).unwrap();
    assert_eq!(run.stats.gamma_steps, 5);
    assert!(run.stats.queue_peak <= 5, "one class per target: {}", run.stats.queue_peak);
}

#[test]
fn sorting_plan_keeps_every_tuple_distinct() {
    // No choice goals: the cost column must stay in the key, so equal-id
    // different-cost tuples are distinct classes.
    let c = compiled(
        "sp(nil, 0, 0).
         sp(X, C, I) <- next(I), p(X, C), least(C, I).",
    );
    let mut edb = Database::new();
    edb.insert_values("p", vec![Value::sym("a"), Value::int(1)]);
    edb.insert_values("p", vec![Value::sym("a"), Value::int(2)]);
    edb.insert_values("p", vec![Value::sym("a"), Value::int(3)]);
    let run = c.run_greedy(&edb).unwrap();
    // All three (a, c) tuples are ranked.
    assert_eq!(run.stats.gamma_steps, 3);
}

#[test]
fn two_positive_atoms_fall_outside_the_template() {
    let c = compiled(
        "p(nil, 0).
         p(X, I) <- next(I), q(X), r(X).",
    );
    assert!(!c.has_greedy_plan());
    assert!(c.plan_error().unwrap().contains("positive atoms"));
    // The generic path still errors gracefully or runs.
    let err = c.run_greedy(&Database::new());
    assert!(matches!(err, Err(CoreError::NoGreedyPlan { .. })));
}

#[test]
fn negation_in_next_rules_is_rejected_from_the_template() {
    let c = compiled(
        "p(nil, 0).
         p(X, I) <- next(I), q(X), not bad(X).",
    );
    assert!(!c.has_greedy_plan());
    assert!(c.plan_error().unwrap().contains("negated"));
}

#[test]
fn non_source_cost_variable_is_rejected() {
    // least cost must be a source column.
    let c = compiled(
        "p(nil, 0, 0).
         p(X, D, I) <- next(I), q(X, C), D = C * 2, least(D, I).",
    );
    assert!(!c.has_greedy_plan());
}

#[test]
fn assigning_comparison_falls_back_to_the_generic_engine() {
    // `D = C * 2` would have to bind D. The executor runs comparisons
    // only as filters over bound variables, so the plan refuses the
    // rule and `run` evaluates it with the generic fixpoint.
    let c = compiled(
        "sp(nil, 0, 0).
         sp(X, D, I) <- next(I), p(X, C), D = C * 2, least(C, I).",
    );
    assert_eq!(*c.class(), ProgramClass::StageStratified { alternating: true });
    assert!(c.plan_error().unwrap().contains("comparison over non-source variables"));
    let mut edb = Database::new();
    edb.insert_values("p", vec![Value::sym("a"), Value::int(2)]);
    edb.insert_values("p", vec![Value::sym("b"), Value::int(1)]);
    let run = c.run(&edb).unwrap();
    let mut sp: Vec<String> =
        run.db.facts_of(gbc_ast::Symbol::intern("sp")).iter().map(ToString::to_string).collect();
    sp.sort();
    assert_eq!(sp, ["(a,4,2)", "(b,2,1)", "(nil,0,0)"]);
}

#[test]
fn two_next_rules_for_one_predicate_are_rejected() {
    let c = compiled(
        "p(nil, 0).
         p(X, I) <- next(I), q(X).
         p(X, I) <- next(I), r(X).",
    );
    assert!(!c.has_greedy_plan());
    assert!(c.plan_error().unwrap().contains("two next rules"));
}

#[test]
fn chain_mode_discards_stale_stages() {
    // tsp-style: I = J + 1 forces extensions from the latest stage only.
    let c = compiled(
        "w(nil, 0, 0).
         w(X, C, I) <- next(I), s(X, C, J), I = J + 1, least(C, I), choice(X, ()).
         s(X, C, J) <- w(_, _, J), step(X, C).",
    );
    assert!(c.has_greedy_plan(), "{:?}", c.plan_error());
    let mut edb = Database::new();
    edb.insert_values("step", vec![Value::sym("a"), Value::int(1)]);
    edb.insert_values("step", vec![Value::sym("b"), Value::int(2)]);
    let run = c.run_greedy(&edb).unwrap();
    // Stage 1 picks a (cheapest), stage 2 picks b; chain stops when the
    // FD blocks both (each X chosen once).
    assert_eq!(run.stats.gamma_steps, 2);
    assert!(run.stats.discarded > 0, "stale J rows must be discarded");
}

#[test]
fn missing_initial_stage_fact_is_reported() {
    // No exit fact for p: the queue fills but no stage exists.
    let c = compiled("p(X, I) <- next(I), q(X).");
    assert!(c.has_greedy_plan());
    let mut edb = Database::new();
    edb.insert_values("q", vec![Value::sym("a")]);
    assert!(matches!(c.run_greedy(&edb), Err(CoreError::NoGreedyPlan { .. })));
}

#[test]
fn step_budget_is_enforced() {
    let c = compiled(
        "sp(nil, 0, 0).
         sp(X, C, I) <- next(I), p(X, C), least(C, I).",
    );
    let mut edb = Database::new();
    for k in 0..10i64 {
        edb.insert_values("p", vec![Value::int(k), Value::int(k)]);
    }
    let err = c.run_greedy_with(&edb, GreedyConfig { max_steps: 3 });
    assert!(matches!(err, Err(CoreError::StepLimit { .. })));
}

#[test]
fn non_integer_stage_is_reported() {
    let c = compiled(
        "p(nil, bogus).
         p(X, I) <- next(I), q(X).",
    );
    let mut edb = Database::new();
    edb.insert_values("q", vec![Value::sym("a")]);
    assert!(matches!(c.run_greedy(&edb), Err(CoreError::NonIntegerStage { .. })));
}

#[test]
fn choice_class_is_reported_for_choice_only_programs() {
    let c = compiled("a(X, Y) <- t(X, Y), choice(X, Y).");
    assert_eq!(*c.class(), ProgramClass::Choice);
    assert!(!c.has_greedy_plan());
    // run() falls back to the generic fixpoint.
    let mut edb = Database::new();
    edb.insert_values("t", vec![Value::int(1), Value::int(2)]);
    edb.insert_values("t", vec![Value::int(1), Value::int(3)]);
    let run = c.run(&edb).unwrap();
    assert_eq!(run.db.count(gbc_ast::Symbol::intern("a")), 1, "FD X→Y picks one");
    assert_eq!(run.chosen.len(), 1);
}

#[test]
fn w_fd_prevents_recommitting_exit_tuples() {
    // A malicious chain: the source relation regenerates the exit tuple
    // at every stage; choice(W, I) (enforced via the head-tuple FD)
    // must stop after the first commitment.
    let c = compiled(
        "w(seed, 0).
         w(X, I) <- next(I), s(X, J), I = J + 1, choice(X, ()).
         s(X, J) <- w(X, J).",
    );
    assert!(c.has_greedy_plan(), "{:?}", c.plan_error());
    let run = c.run_greedy(&Database::new()).unwrap();
    // s(seed, 0) is the only candidate; committing w(seed, 1) would
    // regenerate s(seed, 1) → w(seed, 2) → … without the W → I check.
    assert!(run.stats.gamma_steps <= 1, "ran {} steps", run.stats.gamma_steps);
}
