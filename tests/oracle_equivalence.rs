//! The greedy executor checked against the independent reference.
//!
//! The Section 6 executor has one feed path per rule shape and one
//! configuration, so its equivalence is not proved against a second
//! copy of itself but against code it shares nothing with: the generic
//! Choice Fixpoint of `gbc-engine` (`Compiled::run_generic`) and the
//! Gelfond–Lifschitz stable-model check of Theorem 1
//! (`verify_stable_model`). For every shipped program group with a
//! greedy plan:
//!
//! * the greedy model equals the generic one. The generic fixpoint
//!   commits an extremal FD-consistent candidate at every step — the
//!   greedy property of Greco–Zaniolo's *Greedy Algorithms in Datalog*
//!   — and the shipped inputs have no cost ties, so the two models
//!   coincide fact for fact;
//! * the greedy run is a stable model of the rewritten program.
//!
//! The groups without a greedy plan (kruskal, assignment) run on the
//! generic fixpoint itself; they must still yield a non-empty model.
//!
//! The oracle sees each next rule's extremum with its stage variable
//! made explicit (`with_stage_groups`: `least(C)` becomes
//! `least(C, I)`): that is the group the executor computes (DESIGN.md
//! §1, repair 4), while the literal rewriting of an empty group ranges
//! over every stage at once. `verify_stable_model` applies the same
//! grouping itself.
//!
//! The shipped next rules all take the columnar feed, so two inline
//! rules pin the frame-building fallback feed against the same oracle,
//! four more pin the FD memo shapes the shipped programs leave out, and
//! one mixes integer and symbol costs in a single `Q_r` heap.

use gbc_core::exec::build_plans;
use gbc_core::rewrite::next::with_stage_groups;
use gbc_core::{verify_stable_model, Compiled};
use gbc_storage::Database;
use gbc_telemetry::Snapshot;

/// The ci.sh observability groupings: every shipped program with the
/// EDB file(s) it runs against.
const PROGRAMS: [&[&str]; 9] = [
    &["programs/prim.dl", "programs/graph_small.dl"],
    &["programs/spanning.dl", "programs/graph_small.dl"],
    &["programs/kruskal.dl", "programs/graph_small.dl"],
    &["programs/sort.dl"],
    &["programs/matching.dl"],
    &["programs/huffman.dl"],
    &["programs/scheduling.dl"],
    &["programs/tsp.dl"],
    &["programs/assignment.dl"],
];

fn read_group(files: &[&str]) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut source = String::new();
    for f in files {
        let path = format!("{root}/{f}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        source.push_str(&text);
        source.push('\n');
    }
    source
}

fn compile_text(source: &str) -> Compiled {
    let program = gbc_parser::parse_program(source).expect("program parses");
    gbc_core::compile(program).expect("program compiles")
}

/// Run `source` greedily and check the run against the generic
/// fixpoint and Theorem 1.
fn check_against_oracle(name: &str, source: &str) {
    let compiled = compile_text(source);
    assert!(compiled.has_greedy_plan(), "{name}: no greedy plan");
    let reference =
        gbc_core::compile(with_stage_groups(compiled.program())).expect("reference compiles");
    let edb = Database::new();
    let want_model = reference.run_generic(&edb).expect("generic run").db.canonical_form();

    let run = compiled.run_greedy(&edb).expect("greedy run");
    let model = run.db.canonical_form();
    assert!(!model.is_empty(), "{name} produced no facts");
    assert_eq!(model, want_model, "{name}: greedy and generic models differ");
    assert!(
        verify_stable_model(compiled.program(), &edb, &run).expect("stability check"),
        "{name}: greedy run is not a stable model"
    );
}

#[test]
fn shipped_programs_agree_with_the_generic_fixpoint() {
    let mut checked = 0;
    for files in PROGRAMS {
        let source = read_group(files);
        let compiled = compile_text(&source);
        if !compiled.has_greedy_plan() {
            let run = compiled.run_generic(&Database::new()).expect("generic run");
            assert!(!run.db.canonical_form().is_empty(), "{files:?} produced no facts");
            continue;
        }
        check_against_oracle(&format!("{files:?}"), &source);
        checked += 1;
    }
    // kruskal and assignment have no greedy plan; `gbc run` evaluates
    // them with the generic fixpoint itself.
    assert_eq!(checked, 7, "shipped groups with a greedy plan");
}

/// Compile `source`, assert its one next rule keeps the frame-building
/// feed, and return the greedy run's counters. The γ step re-checks
/// every popped row, so a feed that admits too much still yields the
/// right model; only the queue counters show it.
fn framed_feed_counters(source: &str) -> Snapshot {
    let compiled = compile_text(source);
    let plans = build_plans(compiled.program(), compiled.expanded(), &compiled.analysis().stages)
        .expect("greedy plan");
    assert_eq!(plans.len(), 1);
    assert!(!plans[0].is_fast_feed(), "expected the frame-building feed for:\n{source}");
    compiled.run_greedy(&Database::new()).expect("greedy run").snapshot
}

#[test]
fn arithmetic_pre_check_feeds_through_binding_frames() {
    // `X + 1 < C` computes over a source variable: no columnar check
    // expresses it, so each row is matched into a frame.
    let source = "sp(nil, 0, 0).\n\
                  sp(X, C, I) <- next(I), p(X, C), X + 1 < C, least(C, I).\n\
                  p(1, 5). p(2, 2). p(3, 9). p(4, 4). p(6, 7). p(0, 8).\n";
    check_against_oracle("arithmetic pre-check", source);
    let snap = framed_feed_counters(source);
    // p(1, 5), p(3, 9) and p(0, 8) pass; the other three never queue.
    assert_eq!((snap.heap_inserts, snap.discarded_pops, snap.gamma_steps), (3, 0, 3), "{snap:?}");
}

#[test]
fn compound_source_argument_feeds_through_binding_frames() {
    // `f(X)` is a non-ground compound argument: admission needs
    // unification, not a column read.
    let source = "sp(nil, 0, 0).\n\
                  sp(X, C, I) <- next(I), p(f(X), C), least(C, I).\n\
                  p(f(a), 3). p(g(b), 1). p(f(c), 2). p(f(d), 7).\n";
    check_against_oracle("compound source argument", source);
    let snap = framed_feed_counters(source);
    // p(g(b), 1) does not match p(f(X), C) and never queues.
    assert_eq!((snap.heap_inserts, snap.discarded_pops, snap.gamma_steps), (3, 0, 3), "{snap:?}");
}

#[test]
fn columnar_feed_engages_on_fast_feed_programs() {
    // Every shipped next rule (prim's `Y != 0` pre-check included)
    // compiles to columnar checks, so the bindings-free feed runs.
    for files in PROGRAMS {
        let compiled = compile_text(&read_group(files));
        if !compiled.has_greedy_plan() {
            continue;
        }
        let plans =
            build_plans(compiled.program(), compiled.expanded(), &compiled.analysis().stages)
                .expect("greedy plan");
        assert!(plans.iter().all(|p| p.is_fast_feed()), "{files:?}: expected the columnar feed");
    }
}

#[test]
fn int_cost_heap_engages_on_integer_cost_programs() {
    for files in [&["programs/prim.dl", "programs/graph_small.dl"][..], &["programs/sort.dl"][..]] {
        let run = compile_text(&read_group(files)).run_greedy(&Database::new()).expect("run");
        assert!(
            run.snapshot.heap_int_fast_compares > 0,
            "{files:?}: cost column is provably int, the fast heap should engage"
        );
    }
}

// Memo shapes: the γ step probes each choice goal's FD memo with the id
// tuple of its left side, so goals whose sides are tuples, constants or
// functor terms, non-integer costs and exit-rule memos each get an
// inline rule checked against the same oracle, with the rejection
// counters that show the memo (not the congruence key) did the work.

/// The serial greedy run's counters for `source`.
fn counters(source: &str) -> Snapshot {
    compile_text(source).run_greedy(&Database::new()).expect("greedy run").snapshot
}

#[test]
fn multi_column_goal_probes_a_tuple_memo() {
    // (a, b, z2) fails the (X, Y) → Z memo entry of (a, b, z1); (a, c, z1)
    // fails the Z → Y entry.
    let source = "q(nil, nil, nil, 0, 0).\n\
                  q(X, Y, Z, C, I) <- next(I), p(X, Y, Z, C), least(C, I),\n\
                  choice((X, Y), (Z)), choice(Z, Y).\n\
                  p(a, b, z1, 1). p(a, b, z2, 2). p(a, c, z1, 3).\n\
                  p(b, b, z3, 4). p(a, c, z4, 5). p(b, c, z5, 6).\n";
    check_against_oracle("multi-column goal", source);
    let snap = counters(source);
    assert_eq!((snap.diffchoice_rejections, snap.gamma_steps), (2, 4), "{snap:?}");
}

#[test]
fn constant_and_functor_goal_terms_probe_by_value() {
    // Neither `k` nor `f(Y)` is a frame variable: the probe evaluates
    // them, and an `f(Y)` never committed matches no memo entry.
    let source = "r(nil, nil, 0, 0).\n\
                  r(X, Y, C, I) <- next(I), p(X, Y, C), least(C, I),\n\
                  choice((X, k), (f(Y))), choice(Y, X).\n\
                  p(a, b, 1). p(a, c, 2). p(d, b, 3). p(e, g, 4).\n";
    check_against_oracle("constant and functor goal terms", source);
    let snap = counters(source);
    assert_eq!((snap.diffchoice_rejections, snap.gamma_steps), (2, 2), "{snap:?}");
}

#[test]
fn most_over_symbol_costs() {
    // Descending symbol order: dave, carol, bob, alice. carol fails
    // X → G, bob fails G → X.
    let source = "t(nil, nil, nil, 0).\n\
                  t(X, G, N, I) <- next(I), name(X, G, N), most(N, I),\n\
                  choice(X, G), choice(G, X).\n\
                  name(1, g1, dave). name(1, g2, carol). name(2, g1, bob). name(3, g3, alice).\n";
    check_against_oracle("most over symbol costs", source);
    let snap = counters(source);
    assert_eq!((snap.diffchoice_rejections, snap.gamma_steps), (2, 2), "{snap:?}");
    assert_eq!(snap.heap_int_fast_compares, 0, "symbol costs must not take the int heap");
}

#[test]
fn least_over_mixed_integer_and_symbol_costs() {
    // Integers order before symbols: f (0), c (1), e (2), a (3), then
    // d (w) and b (x). The heap compares two integer costs inline and
    // falls back to the dictionary order whenever a symbol takes part;
    // a heap that tied every mixed pair would pop out of order here.
    let source = "sp(nil, nil, 0).\n\
                  sp(X, C, I) <- next(I), p(X, C), least(C, I).\n\
                  p(a, 3). p(b, x). p(c, 1). p(d, w). p(e, 2). p(f, 0).\n";
    check_against_oracle("least over mixed costs", source);
    let snap = counters(source);
    assert_eq!(snap.gamma_steps, 6, "{snap:?}");
    assert!(snap.heap_int_fast_compares > 0, "integer costs compare inline: {snap:?}");
}

#[test]
fn exit_rule_memo_rejects_conflicting_frames() {
    // Each firing of the seed rule commits its smallest new instance:
    // seed(a, 1, 5), seed(b, 1, 4), seed(c, 3, 7). Firings 2–4 see
    // cand(a, 2, 3) and then cand(b, 4, 1) contradict an X → Y commit.
    let source = "seed(X, Y, C) <- cand(X, Y, C), choice(X, Y).\n\
                  sp(nil, nil, 0).\n\
                  sp(X, Y, I) <- next(I), seed(X, Y, C), least(C, I).\n\
                  cand(a, 1, 5). cand(a, 2, 3). cand(b, 1, 4). cand(c, 3, 7). cand(b, 4, 1).\n";
    check_against_oracle("exit-rule memo", source);
    let snap = counters(source);
    assert_eq!((snap.diffchoice_rejections, snap.gamma_steps), (5, 6), "{snap:?}");
}
