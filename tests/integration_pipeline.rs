//! End-to-end pipeline tests: surface text → parse → pretty-print →
//! reparse → compile → run, plus the classification table for every
//! packaged paper program.

use gbc_core::{classify, compile, ProgramClass};
use gbc_greedy::{huffman, kruskal, matching, prim, sorting, spanning, student, tsp, workload};

/// Parse, print, reparse — then compile and run BOTH versions and
/// compare canonical models.
fn assert_print_parse_execution_equivalence(text: &str, edb: &gbc_storage::Database) {
    let p1 = gbc_parser::parse_program(text).unwrap();
    let printed = p1.to_string();
    let p2 = gbc_parser::parse_program(&printed).unwrap();

    let r1 = compile(p1).unwrap().run(edb).unwrap();
    let r2 = compile(p2).unwrap().run(edb).unwrap();
    assert_eq!(
        r1.db.canonical_form(),
        r2.db.canonical_form(),
        "print/parse round trip must not change the computed model:\n{printed}"
    );
}

#[test]
fn print_parse_execution_equivalence_across_programs() {
    let g = workload::connected_graph(8, 8, 30, 1);
    assert_print_parse_execution_equivalence(&prim::program_text(0), &g.to_edb());
    assert_print_parse_execution_equivalence(&spanning::program_stage_text(0), &g.to_edb());

    let items = workload::random_items(10, 2);
    assert_print_parse_execution_equivalence(sorting::PROGRAM, &sorting::edb(&items));

    let arcs = workload::random_arcs(6, 10, 3);
    assert_print_parse_execution_equivalence(matching::PROGRAM, &arcs.to_edb());

    let w = workload::letter_freqs(5, 4);
    assert_print_parse_execution_equivalence(huffman::PROGRAM, &huffman::edb(&w));

    let geo = workload::complete_geometric(5, 5);
    assert_print_parse_execution_equivalence(tsp::PROGRAM, &geo.to_edb());
}

#[test]
fn classification_table_matches_the_paper() {
    let expect = |text: &str, class: ProgramClass| {
        let p = gbc_parser::parse_program(text).unwrap();
        assert_eq!(classify(&p).class, class, "for program:\n{text}");
    };

    // The stage-stratified family (Theorems 1–3 apply).
    let alt = ProgramClass::StageStratified { alternating: true };
    expect(&prim::program_text(0), alt.clone());
    expect(sorting::PROGRAM, alt.clone());
    expect(matching::PROGRAM, alt.clone());
    expect(huffman::PROGRAM, alt.clone());
    expect(tsp::PROGRAM, alt.clone());
    expect(&spanning::program_stage_text(0), alt);

    // Choice-only (locally stratified modulo choice).
    expect(&spanning::program_choice_text(0), ProgramClass::Choice);
    expect(student::PROGRAM, ProgramClass::Choice);
    expect(student::PROGRAM_BI, ProgramClass::Choice);

    // Kruskal: outside strict stage stratification, as the paper says.
    let p = gbc_parser::parse_program(kruskal::PROGRAM).unwrap();
    assert!(matches!(classify(&p).class, ProgramClass::NotStageStratified { .. }));
}

#[test]
fn greedy_plans_exist_exactly_where_expected() {
    let has_plan =
        |text: &str| compile(gbc_parser::parse_program(text).unwrap()).unwrap().has_greedy_plan();
    assert!(has_plan(&prim::program_text(0)));
    assert!(has_plan(sorting::PROGRAM));
    assert!(has_plan(matching::PROGRAM));
    assert!(has_plan(huffman::PROGRAM));
    assert!(has_plan(tsp::PROGRAM));
    assert!(has_plan(&spanning::program_stage_text(0)));
    assert!(!has_plan(&spanning::program_choice_text(0)), "no next ⇒ no stage plan");
    assert!(!has_plan(kruskal::PROGRAM));
}

#[test]
fn executor_stats_reflect_the_cost_model() {
    // Prim on a graph with e directed edges: every edge enters new_g at
    // most once; γ commits exactly n−1 times; discarded pops are
    // bounded by the congruence classes (≤ n).
    let g = workload::connected_graph(32, 64, 100, 7);
    let (compiled, edb) = prim::prepared(&g, 0);
    let run = compiled.run_greedy(&edb).unwrap();
    assert_eq!(run.stats.gamma_steps as usize, g.n - 1);
    assert!(
        (run.stats.queue_peak) <= g.n,
        "Prim's Q_r holds one candidate per congruence class (target node): {} > {}",
        run.stats.queue_peak,
        g.n
    );

    // Sorting: every tuple is its own class; the queue peaks at n.
    let items = workload::random_items(64, 8);
    let run = sorting::compiled().run_greedy(&sorting::edb(&items)).unwrap();
    assert_eq!(run.stats.gamma_steps, 64);
    assert!(run.stats.queue_peak <= 64);
    assert_eq!(run.stats.discarded, 0, "sorting never discards");
}

#[test]
fn chosen_records_cover_every_gamma_step() {
    let g = workload::connected_graph(10, 10, 50, 9);
    let (compiled, edb) = prim::prepared(&g, 0);
    let run = compiled.run_greedy(&edb).unwrap();
    assert_eq!(run.chosen.len() as u64, run.stats.gamma_steps);
    // Each record is one `chosen_i` fact of the rewritten program. Prim's
    // expanded rule has 3 choice goals, the original choice(Y, X) plus
    // the two stage FDs of the next expansion, over D = (Y, X, I, C).
    let fr = gbc_core::rewrite_full(compiled.program());
    let [chosen] = fr.chosen_preds[..] else { panic!("Prim has one choice rule") };
    let chosen_rule = fr.program.rules.iter().find(|r| r.head.pred == chosen).unwrap();
    assert_eq!(chosen_rule.head.arity(), 4);
    for rec in &run.chosen {
        assert_eq!(rec.chosen_args.len(), chosen_rule.head.arity());
    }
}
