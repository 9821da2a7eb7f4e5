//! A rule's id is its index among the program's rules: facts take none.
//! Adding a fact anywhere in a program — before, between or after its
//! rules — renumbers no rule, so every journal `rule` field and every
//! per-rule profile row stays the same.

use std::sync::Arc;

use gbc_core::compile;
use gbc_storage::Database;
use gbc_telemetry::{JournalBuffer, Telemetry};

fn shipped(name: &str) -> String {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Profile row: rule id, firings, tuples, plan hits (no wall clock).
type ProfileRow = (usize, u64, u64, u64);

/// One evaluation of `text`: its journal and its profile rows.
fn observe(text: &str) -> (String, Vec<ProfileRow>) {
    let compiled = compile(gbc_parser::parse_program(text).expect("parses")).expect("compiles");
    let journal = Arc::new(JournalBuffer::new());
    let tel = Telemetry::enabled().with_trace(journal.clone());
    compiled.run_telemetry(&Database::new(), &tel).expect("runs");
    let profile = tel.phases.profile().entries();
    let rows = profile.into_iter().map(|(r, p)| (r, p.firings, p.tuples, p.plan_hits)).collect();
    (journal.to_jsonl(), rows)
}

/// `text` with `fact` inserted at its top, at the clause boundary
/// nearest its middle line, and at its end.
fn with_fact_inserted(text: &str, fact: &str) -> [String; 3] {
    let lines: Vec<&str> = text.lines().collect();
    // A line ending a clause: what precedes `%` ends with `.`.
    let ends_clause = |l: &str| l.split('%').next().unwrap_or("").trim_end().ends_with('.');
    let boundaries: Vec<usize> = (1..lines.len()).filter(|&i| ends_clause(lines[i - 1])).collect();
    let middle = boundaries[boundaries.len() / 2];
    let at = |i: usize| {
        let mut out: Vec<&str> = lines.clone();
        out.insert(i, fact);
        out.join("\n") + "\n"
    };
    [at(0), at(middle), at(lines.len())]
}

fn assert_fact_renumbers_nothing(label: &str, text: &str) {
    let (journal, profile) = observe(text);
    assert!(journal.contains("\"rule\":"), "{label}: the journal names rules");
    assert!(!profile.is_empty(), "{label}: rules were profiled");
    for (where_, variant) in
        ["top", "middle", "end"].iter().zip(with_fact_inserted(text, "probe(1)."))
    {
        let (j, p) = observe(&variant);
        assert_eq!(j, journal, "{label}: a fact at the {where_} changed the journal");
        assert_eq!(p, profile, "{label}: a fact at the {where_} changed the profile");
    }
}

#[test]
fn a_fact_anywhere_in_sort_renumbers_no_rule() {
    assert_fact_renumbers_nothing("sort (greedy)", &shipped("sort.dl"));
}

#[test]
fn a_fact_anywhere_in_kruskal_renumbers_no_rule() {
    let text = shipped("kruskal.dl") + "\n" + &shipped("graph_small.dl");
    assert_fact_renumbers_nothing("kruskal (generic)", &text);
}
