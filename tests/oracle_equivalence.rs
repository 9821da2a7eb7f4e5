//! The greedy executor checked against the independent reference.
//!
//! The Section 6 executor has one feed path per rule shape and one
//! configuration, so its equivalence is not proved against a second
//! copy of itself but against code it shares nothing with: the generic
//! Choice Fixpoint of `gbc-engine` (`Compiled::run_generic`) and the
//! Gelfond–Lifschitz stable-model check of Theorem 1
//! (`verify_stable_model`). For every shipped program group with a
//! greedy plan, at threads {1, 2, 4}:
//!
//! * the greedy model equals the generic one. The generic fixpoint
//!   commits an extremal FD-consistent candidate at every step — the
//!   greedy property of Greco–Zaniolo's *Greedy Algorithms in Datalog*
//!   — and the shipped inputs have no cost ties, so the two models
//!   coincide fact for fact;
//! * the greedy run is a stable model of the rewritten program;
//! * every counter is identical across thread counts.
//!
//! The oracle sees each next rule's extremum with its stage variable
//! made explicit (`least(C)` becomes `least(C, I)`): that is the group
//! the executor computes (DESIGN.md §1, repair 4), while the literal
//! rewriting of an empty group ranges over every stage at once.
//!
//! The shipped next rules all take the columnar feed, so two inline
//! rules pin the frame-building fallback feed against the same oracle.

use gbc_ast::{Literal, Program, Term};
use gbc_core::exec::build_plans;
use gbc_core::{verify_stable_model, Compiled, GreedyConfig};
use gbc_storage::Database;
use gbc_telemetry::{Snapshot, Telemetry};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

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

/// `program` with every next-rule `least`/`most` grouped by the rule's
/// stage variable: the semantics the greedy executor implements.
fn with_stage_groups(program: &Program) -> Program {
    let mut out = program.clone();
    for rule in &mut out.rules {
        let Some(stage) = rule.body.iter().find_map(|l| match l {
            Literal::Next { var } => Some(*var),
            _ => None,
        }) else {
            continue;
        };
        for lit in &mut rule.body {
            if let Literal::Least { group, .. } | Literal::Most { group, .. } = lit {
                if group.is_empty() {
                    group.push(Term::Var(stage));
                }
            }
        }
    }
    out
}

/// Run `source` greedily at every thread count and check each run
/// against the generic fixpoint, Theorem 1, and the serial run.
fn check_against_oracle(name: &str, source: &str) {
    let compiled = compile_text(source);
    assert!(compiled.has_greedy_plan(), "{name}: no greedy plan");
    let reference =
        gbc_core::compile(with_stage_groups(compiled.program())).expect("reference compiles");
    let edb = Database::new();
    let want_model = reference.run_generic(&edb).expect("generic run").db.canonical_form();

    let mut serial: Option<(String, Snapshot)> = None;
    for threads in THREAD_COUNTS {
        let tel = Telemetry::enabled();
        let run = compiled
            .run_greedy_telemetry(&edb, GreedyConfig::with_threads(threads), &tel)
            .expect("greedy run");
        let model = run.db.canonical_form();
        assert!(!model.is_empty(), "{name} produced no facts");
        assert_eq!(model, want_model, "{name}: greedy and generic models differ at {threads}");
        assert!(
            verify_stable_model(reference.program(), &edb, &run).expect("stability check"),
            "{name}: greedy run is not a stable model at {threads} thread(s)"
        );
        let got = (model, tel.snapshot());
        match &serial {
            None => serial = Some(got),
            Some(s) => assert_eq!(s, &got, "{name} diverged from the serial run at {threads}"),
        }
    }
}

#[test]
fn shipped_programs_agree_with_the_generic_fixpoint() {
    let mut checked = 0;
    for files in PROGRAMS {
        let source = read_group(files);
        if !compile_text(&source).has_greedy_plan() {
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
