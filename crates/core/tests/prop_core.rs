//! Property tests for the core pipeline: the rewritings preserve
//! answers, and the stage-stratification checker accepts/rejects the
//! right perturbations of the paper's programs.

use gbc_ast::Value;
use gbc_core::{classify, rewrite_full, ProgramClass};
use gbc_storage::Database;
use gbc_telemetry::rng::Rng;

/// For extrema-only programs (no choice), the full rewriting to
/// negation computes the same answers under stratified evaluation
/// as the engine's direct extrema implementation.
#[test]
fn least_rewrite_preserves_answers() {
    let mut rng = Rng::new(0x5EED_0005);
    for case in 0..48 {
        let n_rows = 1 + rng.below_usize(15);
        let rows: Vec<(u8, u8, i64)> = (0..n_rows)
            .map(|_| (rng.below(5) as u8, rng.below(5) as u8, rng.range_i64(1, 8)))
            .collect();

        let program =
            gbc_parser::parse_program("best(S, C, G) <- takes(S, C, G), least(G, C).").unwrap();
        let mut edb = Database::new();
        for &(s, c, g) in &rows {
            edb.insert_values(
                "takes",
                vec![Value::int(s.into()), Value::int(c.into()), Value::int(g)],
            );
        }

        // Direct path.
        let direct = gbc_engine::evaluate_stratified(&program, &edb).unwrap();

        // Rewritten path.
        let fr = rewrite_full(&program);
        let rewritten = gbc_engine::evaluate_stratified(&fr.program, &edb).unwrap();

        let best = gbc_ast::Symbol::intern("best");
        let mut a = direct.facts_of(best);
        let mut b = rewritten.facts_of(best);
        a.sort();
        b.sort();
        assert_eq!(a, b, "case {case}");
    }
}

/// Classification is stable under fact injection: adding EDB facts
/// to a stage-stratified program never changes its class (the check
/// is purely syntactic, as the paper claims).
#[test]
fn classification_ignores_facts() {
    let mut rng = Rng::new(0x5EED_0006);
    for case in 0..48 {
        let n_extra = rng.below_usize(12);
        let mut text = String::from(
            "prm(nil, 0, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).\n",
        );
        for _ in 0..n_extra {
            let (a, b, c) = (rng.below(9), rng.below(9), rng.range_i64(1, 98));
            text.push_str(&format!("g({a}, {b}, {c}).\n"));
        }
        let p = gbc_parser::parse_program(&text).unwrap();
        assert_eq!(
            classify(&p).class,
            ProgramClass::StageStratified { alternating: true },
            "case {case}"
        );
    }
}

#[test]
fn dropping_the_stage_guard_breaks_strictness() {
    // Remove J < I from Prim: no longer provably stage-stratified.
    let p = gbc_parser::parse_program(
        "prm(nil, 0, 0, 0).
         prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), least(C, I), choice(Y, X).
         new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
    )
    .unwrap();
    assert!(matches!(classify(&p).class, ProgramClass::NotStageStratified { .. }));
}

#[test]
fn weakening_the_guard_to_le_breaks_strictness() {
    // J <= I is not strict: next rules demand strict stage descent.
    let p = gbc_parser::parse_program(
        "prm(nil, 0, 0, 0).
         prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J <= I, least(C, I), choice(Y, X).
         new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
    )
    .unwrap();
    assert!(matches!(classify(&p).class, ProgramClass::NotStageStratified { .. }));
}

#[test]
fn rewrite_full_output_is_negation_only_and_valid() {
    // Prim's program (with the root guard); programs from gbc-greedy
    // get the same treatment in tests/integration_pipeline.rs.
    let p = gbc_parser::parse_program(
        "prm(nil, 0, 0, 0).
         prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, Y != 0,
                            least(C, I), choice(Y, X).
         new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
    )
    .unwrap();
    let fr = rewrite_full(&p);
    for r in &fr.program.rules {
        assert!(!r.has_choice(), "{r}");
        assert!(!r.has_next(), "{r}");
        assert!(!r.has_extrema(), "{r}");
    }
    let diags = fr.program.diagnostics();
    assert!(diags.is_empty(), "rewritten program must validate: {diags:?}\n{}", fr.program);
}
