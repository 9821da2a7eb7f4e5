//! The executor's analysis specializations checked against hand-made
//! twins that leave them nothing to do.
//!
//! Dead-rule pruning, folded constant comparisons and the columnar feed
//! are applied from facts the analysis proves about the program text,
//! and none has a switch. So each is pinned by a twin program: the
//! shipped program with dead rules or a constant-true comparison added
//! (which the analysis must erase without a trace), or with a
//! pre-check the columnar checks cannot express (which sends every
//! next rule through the frame-building feed). Every greedy-planned
//! shipped group must run byte-identically to its twin — same
//! canonical relation dump, same chosen records, same counters.
//! `tests/oracle_equivalence.rs` checks the same runs against the
//! generic fixpoint.

use gbc_ast::term::ArithOp;
use gbc_ast::{CmpOp, Expr, Literal, Program, Term, Value};
use gbc_core::exec::build_plans;
use gbc_core::{ChosenRecord, Compiled, GreedyConfig};
use gbc_storage::Database;
use gbc_telemetry::{Snapshot, Telemetry};

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

/// Everything a greedy run exposes.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    canonical: String,
    chosen: Vec<ChosenRecord>,
    snapshot: Snapshot,
}

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

fn parse(source: &str) -> Program {
    gbc_parser::parse_program(source).expect("program parses")
}

fn run(compiled: &Compiled) -> RunFingerprint {
    let tel = Telemetry::enabled();
    let run = compiled
        .run_greedy_telemetry(&Database::new(), GreedyConfig::default(), &tel)
        .expect("greedy run");
    RunFingerprint {
        canonical: run.db.canonical_form(),
        chosen: run.chosen,
        snapshot: tel.snapshot(),
    }
}

/// The shipped groups that have a greedy plan, as `(name, source)`.
fn greedy_groups() -> Vec<(String, String)> {
    let groups: Vec<_> = PROGRAMS
        .iter()
        .map(|files| (format!("{files:?}"), read_group(files)))
        .filter(|(_, source)| gbc_core::compile(parse(source)).expect("compiles").has_greedy_plan())
        .collect();
    // kruskal and assignment have no greedy plan.
    assert_eq!(groups.len(), 7, "shipped groups with a greedy plan");
    groups
}

fn fast_feed_flags(compiled: &Compiled) -> Vec<bool> {
    build_plans(compiled.program(), compiled.expanded(), &compiled.analysis().stages)
        .expect("greedy plan")
        .iter()
        .map(|p| p.is_fast_feed())
        .collect()
}

/// Two dead rules for `program`: a mutually recursive pair with no base
/// case, and a rule reading the first next rule's source relation
/// behind a constant-false comparison. Unpruned, the saturator would
/// scan that relation every round.
fn dead_rules(program: &Program) -> String {
    let source = program
        .rules
        .iter()
        .filter(|r| r.has_next())
        .find_map(|r| {
            r.body.iter().find_map(|l| match l {
                Literal::Pos(a) => Some(a),
                _ => None,
            })
        })
        .expect("a next rule with a source atom");
    let vars: Vec<String> = (0..source.args.len()).map(|i| format!("V{i}")).collect();
    format!(
        "gbc_dead_a(X) <- gbc_dead_b(X).\n\
         gbc_dead_b(X) <- gbc_dead_a(X).\n\
         gbc_dead_read(V0) <- {}({}), 2 < 1.\n",
        source.pred,
        vars.join(", ")
    )
}

fn int(i: i64) -> Expr {
    Expr::Term(Term::Const(Value::Int(i)))
}

#[test]
fn analysis_specializations_change_nothing_observable() {
    let mut folded = 0;
    for (name, source) in greedy_groups() {
        let original = gbc_core::compile(parse(&source)).expect("compiles");
        let mut twin = parse(&format!("{source}\n{}", dead_rules(original.program())));
        // A constant-true comparison on every exit choice rule, folded
        // out of its join plan.
        for rule in twin.rules.iter_mut().filter(|r| r.has_choice() && !r.has_next()) {
            rule.body.push(Literal::cmp(CmpOp::Lt, int(1), int(2)));
            folded += 1;
        }
        let twin = gbc_core::compile(twin).expect("twin compiles");
        assert!(twin.has_greedy_plan(), "{name}: the twin lost its greedy plan");
        let want = run(&original);
        assert!(!want.canonical.is_empty(), "{name} produced no facts");
        assert_eq!(want, run(&twin), "{name}: dead rules or a folded comparison left a trace");
    }
    assert!(folded > 0, "no shipped group has an exit choice rule to fold into");
}

#[test]
fn gamma_batch_kernel_changes_nothing_observable() {
    for (name, source) in greedy_groups() {
        let original = gbc_core::compile(parse(&source)).expect("compiles");
        // `max(V, V) = V` over each next rule's first source variable:
        // always true, but arithmetic over a source variable, so the
        // twin admits every row through a binding frame.
        let mut twin = parse(&source);
        for rule in twin.rules.iter_mut().filter(|r| r.has_next()) {
            let var = rule
                .body
                .iter()
                .find_map(|l| match l {
                    Literal::Pos(a) => a.args.iter().find(|t| matches!(t, Term::Var(_))).cloned(),
                    _ => None,
                })
                .expect("next rule has a source variable");
            let max = Expr::Binary(
                ArithOp::Max,
                Box::new(Expr::Term(var.clone())),
                Box::new(Expr::Term(var.clone())),
            );
            rule.body.push(Literal::cmp(CmpOp::Eq, max, Expr::Term(var)));
        }
        let twin = gbc_core::compile(twin).expect("twin compiles");
        assert!(
            fast_feed_flags(&original).iter().all(|&f| f),
            "{name}: expected the columnar feed"
        );
        assert!(fast_feed_flags(&twin).iter().all(|&f| !f), "{name}: expected the framed feed");
        let want = run(&original);
        assert!(!want.canonical.is_empty(), "{name} produced no facts");
        assert_eq!(want, run(&twin), "{name}: columnar and framed feeds diverged");
    }
}
