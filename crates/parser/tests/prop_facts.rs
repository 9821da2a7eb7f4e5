//! Property tests for the fact table: ground facts parse straight into
//! per-predicate rows, never into `Rule`s.
//!
//! Seeded-loop style: programs interleave rules with ground facts of
//! every shape — negative integers, `nil`, symbols, strings with
//! escapes, nested ground functors, zero-arity facts — and non-ground
//! body-less clauses, which stay rules.

use gbc_ast::{Program, Symbol, Value};
use gbc_telemetry::rng::Rng;

/// A ground term's source text; `depth` bounds functor nesting.
fn ground_term(rng: &mut Rng, depth: u32) -> String {
    match rng.below(if depth == 0 { 5 } else { 6 }) {
        0 => rng.range_i64(-1_000_000, 1_000_000).to_string(),
        1 => "nil".to_owned(),
        2 => ["a", "b", "node_7", "x"][rng.below_usize(4)].to_owned(),
        3 => ["\"\"", "\"plain\"", "\"say \\\"hi\\\"\"", "\"a\\\\b\\nc\"", "\"x.y\""]
            [rng.below_usize(5)]
        .to_owned(),
        4 => i64::MIN.saturating_add(1).to_string(),
        _ => {
            let args: Vec<String> =
                (0..1 + rng.below_usize(3)).map(|_| ground_term(rng, depth - 1)).collect();
            format!("{}({})", ["f", "t"][rng.below_usize(2)], args.join(", "))
        }
    }
}

/// A fact clause over one of a few predicates, with a fixed arity per
/// predicate so the program validates.
fn fact(rng: &mut Rng) -> String {
    let (pred, arity) = [("g", 3), ("p", 1), ("done", 0), ("e", 2)][rng.below_usize(4)];
    if arity == 0 {
        return format!("{pred}.");
    }
    let args: Vec<String> = (0..arity).map(|_| ground_term(rng, 2)).collect();
    format!("{pred}({}).", args.join(", "))
}

/// A clause that is not a ground fact.
fn rule(rng: &mut Rng) -> &'static str {
    [
        "r(X, C) <- g(X, _, C), C > -3.",
        "q(X) <- p(X), not e(X, nil).",
        "s(Y) <- e(f(Y), \"str\").",
        "ok <- done.",
        "h(X).",
    ][rng.below_usize(5)]
}

fn program_text(rng: &mut Rng) -> (String, Vec<(String, bool)>) {
    let clauses: Vec<(String, bool)> = (0..rng.below_usize(24))
        .map(|_| if rng.below(3) == 0 { (rule(rng).to_owned(), false) } else { (fact(rng), true) })
        .collect();
    let text = clauses.iter().map(|(c, _)| format!("{c}\n")).collect();
    (text, clauses)
}

/// The facts expected in the table: each fact clause's head values as
/// `parse_rule` gives them, grouped by (predicate, arity) in order of
/// first appearance, each group in source order.
fn expected_groups(clauses: &[(String, bool)]) -> Vec<(Symbol, Vec<Vec<Value>>)> {
    let mut groups: Vec<(Symbol, usize, Vec<Vec<Value>>)> = Vec::new();
    for (c, _) in clauses.iter().filter(|(_, is_fact)| *is_fact) {
        let r = gbc_parser::parse_rule(c).expect("fact parses as a rule");
        assert!(r.body.is_empty() && r.head.is_ground(), "{c}");
        let row: Vec<Value> = r.head.args.iter().map(|t| t.as_value().unwrap()).collect();
        let key = (r.head.pred, row.len());
        match groups.iter_mut().find(|(p, a, _)| (*p, *a) == key) {
            Some(g) => g.2.push(row),
            None => groups.push((key.0, key.1, vec![row])),
        }
    }
    groups.into_iter().map(|(p, _, rows)| (p, rows)).collect()
}

#[test]
fn facts_load_as_rows_and_rules_stay_rules() {
    let mut rng = Rng::new(0x5EED_0019);
    for case in 0..300 {
        let (text, clauses) = program_text(&mut rng);
        let program = gbc_parser::parse_program(&text)
            .unwrap_or_else(|e| panic!("case {case} must parse: {e}\n{text}"));

        let table: Vec<(Symbol, Vec<Vec<Value>>)> = program
            .facts
            .groups()
            .iter()
            .map(|g| (g.pred(), g.rows().map(|(row, _)| row.to_vec()).collect()))
            .collect();
        assert_eq!(table, expected_groups(&clauses), "case {case}\n{text}");

        let rules: Vec<String> = program.rules.iter().map(|r| r.to_string()).collect();
        let want: Vec<String> = clauses
            .iter()
            .filter(|(_, is_fact)| !is_fact)
            .map(|(c, _)| gbc_parser::parse_rule(c).unwrap().to_string())
            .collect();
        assert_eq!(rules, want, "case {case}\n{text}");

        let printed = program.to_string();
        let reparsed: Program = gbc_parser::parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program must reparse (case {case}): {e}"));
        assert!(reparsed == program, "case {case}\n{text}\nprinted:\n{printed}");
    }
}

#[test]
fn every_fact_keeps_its_span() {
    let src = "g(1, -2, nil).\nq(X) <- g(X, _, _).\n  g(f(a), \"s\", 3).\ndone.\n";
    let program = gbc_parser::parse_program(src).unwrap();
    let spans: Vec<&str> =
        program.facts().map(|(_, _, s)| &src[s.start as usize..s.end as usize]).collect();
    assert_eq!(spans, ["g(1, -2, nil)", "g(f(a), \"s\", 3)", "done"]);
    assert_eq!(program.rules.len(), 1);
    // Where each predicate's first fact stood among the rules.
    let at: Vec<usize> = program.facts.groups().iter().map(|g| g.rules_before()).collect();
    assert_eq!(at, [0, 1]);
}
