//! The `next(I)` macro-expansion (Section 3 of the paper).
//!
//! ```text
//! p(W, I) <- next(I), rest_of_body.
//! ```
//!
//! becomes
//!
//! ```text
//! p(W, I) <- rest_of_body, p(_, I1), I = I1 + 1,
//!            choice(I, W), choice(W, I).
//! ```
//!
//! The two `choice` goals make `I` a *stage variable*: each committed
//! head gets a fresh stage number, and each stage number names exactly
//! one committed head — the source of the local stratification that the
//! rest of the paper builds on.

use gbc_ast::term::{ArithOp, Expr};
use gbc_ast::{CmpOp, Literal, Program, Rule, Term};

use crate::rewrite::fresh_var;

/// Expand every `next` goal in `program`, which [`crate::compile`] has
/// admitted: GBC005 guarantees each next rule's stage variable fills
/// exactly one head argument. Non-next rules pass through untouched;
/// rule order and the numbering of pre-existing variables are preserved
/// (new variables are appended), so downstream bookkeeping can
/// correlate original and expanded rules by index. The fact table is
/// shared, not copied.
pub(crate) fn expand_next(program: &Program) -> Program {
    let rules = program.rules.iter().map(|r| if r.has_next() { expand_rule(r) } else { r.clone() });
    program.with_rules(rules.collect())
}

/// `program` with every next-rule `least`/`most` grouped by the rule's
/// stage variable (`least(C)` becomes `least(C, I)`): the extremum the
/// alternating fixpoint computes (DESIGN.md §1, repair 4). The literal
/// rewriting of an empty group would range over every stage at once.
pub fn with_stage_groups(program: &Program) -> Program {
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

fn expand_rule(rule: &Rule) -> Rule {
    let stage_var = rule
        .body
        .iter()
        .find_map(|l| match l {
            Literal::Next { var } => Some(*var),
            _ => None,
        })
        .expect("caller checked has_next");
    let stage_pos = rule
        .head
        .args
        .iter()
        .position(|t| *t == Term::Var(stage_var))
        .expect("GBC005: the stage variable is a head argument");

    // W: the non-stage head argument terms.
    let w_terms: Vec<Term> = rule
        .head
        .args
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != stage_pos)
        .map(|(_, t)| t.clone())
        .collect();

    let mut var_names = rule.var_names.clone();
    let i1 = fresh_var(&mut var_names, "I1");

    // p(_, …, I1, …, _): anonymous at every non-stage position.
    let prev_args: Vec<Term> =
        (0..rule.head.arity())
            .map(|i| {
                if i == stage_pos {
                    Term::Var(i1)
                } else {
                    Term::Var(fresh_var(&mut var_names, "_"))
                }
            })
            .collect();

    let mut body: Vec<Literal> =
        rule.body.iter().filter(|l| !matches!(l, Literal::Next { .. })).cloned().collect();
    body.push(Literal::pos(rule.head.pred, prev_args));
    body.push(Literal::cmp(
        CmpOp::Eq,
        Expr::Term(Term::Var(stage_var)),
        Expr::binary(ArithOp::Add, Expr::Term(Term::Var(i1)), Expr::int(1)),
    ));
    body.push(Literal::Choice { left: vec![Term::Var(stage_var)], right: w_terms.clone() });
    body.push(Literal::Choice { left: w_terms, right: vec![Term::Var(stage_var)] });

    Rule::new(rule.head.clone(), body, var_names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::Atom;

    /// Example 5 (sorting): sp(X, C, I) <- next(I), p(X, C), least(C, I).
    fn sort_next_rule() -> Rule {
        Rule::new(
            Atom::new("sp", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::Next { var: gbc_ast::VarId(2) },
                Literal::pos("p", vec![Term::var(0), Term::var(1)]),
                Literal::Least { cost: Term::var(1), group: vec![Term::var(2)] },
            ],
            vec!["X".into(), "C".into(), "I".into()],
        )
    }

    #[test]
    fn expansion_matches_the_paper_shape() {
        let p = Program::from_rules(vec![sort_next_rule()]);
        let e = expand_next(&p);
        let r = &e.rules[0];
        assert!(!r.has_next());
        assert_eq!(
            r.to_string(),
            "sp(X,C,I) <- p(X,C), least(C,(I)), sp(_,_2,I1), I = (I1 + 1), \
             choice((I),(X,C)), choice((X,C),(I))."
        );
        // Expanded rule is safe and the program still validates.
        assert!(e.diagnostics().is_empty());
    }

    #[test]
    fn original_variable_ids_are_preserved() {
        let p = Program::from_rules(vec![sort_next_rule()]);
        let e = expand_next(&p);
        let r = &e.rules[0];
        // Head still uses vars 0..2 with the original names.
        assert_eq!(&r.var_names[0], "X");
        assert_eq!(&r.var_names[1], "C");
        assert_eq!(&r.var_names[2], "I");
        assert!(r.var_names.len() > 3, "new variables appended");
    }

    #[test]
    fn non_next_rules_pass_through() {
        let flat = Rule::new(
            Atom::new("q", vec![Term::var(0)]),
            vec![Literal::pos("e", vec![Term::var(0)])],
            vec!["X".into()],
        );
        let p = Program::from_rules(vec![flat.clone()]);
        let e = expand_next(&p);
        assert_eq!(e.rules[0], flat);
    }

    #[test]
    fn stage_var_twice_in_head_is_rejected() {
        let bad = Rule::new(
            Atom::new("p", vec![Term::var(0), Term::var(0)]),
            vec![Literal::Next { var: gbc_ast::VarId(0) }],
            vec!["I".into()],
        );
        let Err(crate::CoreError::Rejected { diagnostics }) =
            crate::compile(Program::from_rules(vec![bad]))
        else {
            panic!("the gate admits a head with the stage variable twice");
        };
        assert_eq!(diagnostics.iter().map(|d| d.code).collect::<Vec<_>>(), ["GBC005"]);
    }

    #[test]
    fn compound_head_terms_enter_the_w_tuple() {
        // h(t(X, Y), C, I) <- next(I), feasible(t(X, Y), C, J), J < I.
        let r = Rule::new(
            Atom::new(
                "h",
                vec![
                    Term::Func("t".into(), vec![Term::var(0), Term::var(1)]),
                    Term::var(2),
                    Term::var(3),
                ],
            ),
            vec![
                Literal::Next { var: gbc_ast::VarId(3) },
                Literal::pos(
                    "feasible",
                    vec![
                        Term::Func("t".into(), vec![Term::var(0), Term::var(1)]),
                        Term::var(2),
                        Term::var(4),
                    ],
                ),
                Literal::cmp(CmpOp::Lt, Expr::var(4), Expr::var(3)),
            ],
            vec!["X".into(), "Y".into(), "C".into(), "I".into(), "J".into()],
        );
        let e = expand_next(&Program::from_rules(vec![r]));
        let expanded = &e.rules[0];
        let choice_count =
            expanded.body.iter().filter(|l| matches!(l, Literal::Choice { .. })).count();
        assert_eq!(choice_count, 2);
        // W tuple holds the compound term t(X, Y) and C.
        let Some(Literal::Choice { right, .. }) = expanded
            .body
            .iter()
            .find(|l| matches!(l, Literal::Choice { left, .. } if left.len() == 1))
        else {
            panic!("missing choice(I, W)");
        };
        assert_eq!(right.len(), 2);
        assert!(matches!(&right[0], Term::Func(f, _) if f.as_str() == "t"));
    }
}
