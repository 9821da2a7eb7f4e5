//! The `choice` → `chosen`/`diffChoice` rewriting (Section 2; after
//! Saccà–Zaniolo). For a rule
//!
//! ```text
//! r_i: h(T) <- B, choice(L1, R1), …, choice(Lk, Rk).
//! ```
//!
//! generate (with `D` = the variables of the choice goals, in first
//! occurrence order):
//!
//! ```text
//! h(T)        <- B⁻, chosen_i(D).
//! chosen_i(D) <- B, ¬diffchoice_i_1(L1, R1), …, ¬diffchoice_i_k(Lk, Rk).
//! diffchoice_i_j(Lj, Rj) <- B⁰, chosen_i(D′), r ≠ r′.     (one rule per r ∈ vars(Rj))
//! ```
//!
//! where `B⁻` is `B` minus the choice and extrema goals (the paper notes
//! the extremum in the top rule "only recomputes the one in the lower
//! rule"), `B⁰` is `B` minus choice and extrema goals (a *domain guard*
//! making the diffChoice rules safe — the paper prints them unsafely,
//! relying on their purely negative use), and `D′` is `D` with the
//! variables of `Rj` (and those of no goal at all) renamed to primed
//! copies. One `diffchoice` rule per right-hand variable encodes the
//! tuple disequality `Rj ≠ R′j` as a union.

use std::collections::HashMap;

use gbc_ast::term::Expr;
use gbc_ast::{CmpOp, Literal, Program, Rule, Symbol, Term, VarId};

use crate::rewrite::{fresh_pred, fresh_var};

/// Output of the choice rewriting.
#[derive(Clone, Debug)]
pub struct ChoiceRewrite {
    /// The rewritten program. Rules keep their original order; for a
    /// choice rule, the top rule takes its slot and the auxiliary
    /// `chosen_i`/`diffchoice_i_j` rules are appended at the end.
    pub program: Program,
    /// `chosen_i` symbols, indexed by choice-rule ordinal (order of
    /// appearance among rules with choice goals).
    pub chosen_preds: Vec<Symbol>,
    /// All `diffchoice_i_j` symbols.
    pub diffchoice_preds: Vec<Symbol>,
}

/// Apply the rewriting to every choice rule of `program`.
pub fn rewrite_choice(program: &Program) -> ChoiceRewrite {
    let mut taken: Vec<Symbol> = program.signature().into_keys().collect();
    let mut top_rules = Vec::new();
    let mut aux_rules = Vec::new();
    let mut chosen_preds = Vec::new();
    let mut diffchoice_preds = Vec::new();

    let mut ordinal = 0usize;
    for rule in &program.rules {
        if !rule.has_choice() {
            top_rules.push(rule.clone());
            continue;
        }
        let chosen = fresh_pred(&format!("chosen_{ordinal}"), &mut taken);
        chosen_preds.push(chosen);
        rewrite_one(
            rule,
            ordinal,
            chosen,
            &mut taken,
            &mut top_rules,
            &mut aux_rules,
            &mut diffchoice_preds,
        );
        ordinal += 1;
    }
    top_rules.extend(aux_rules);
    ChoiceRewrite { program: program.with_rules(top_rules), chosen_preds, diffchoice_preds }
}

fn rewrite_one(
    rule: &Rule,
    ordinal: usize,
    chosen: Symbol,
    taken: &mut Vec<Symbol>,
    top_rules: &mut Vec<Rule>,
    aux_rules: &mut Vec<Rule>,
    diffchoice_preds: &mut Vec<Symbol>,
) {
    let d_vars = rule.choice_vars();
    let d_terms: Vec<Term> = d_vars.iter().map(|&v| Term::Var(v)).collect();

    // B⁰ / B⁻: body without choice and extrema goals.
    let base_body: Vec<Literal> = rule
        .body
        .iter()
        .filter(|l| {
            !matches!(l, Literal::Choice { .. } | Literal::Least { .. } | Literal::Most { .. })
        })
        .cloned()
        .collect();

    // Top rule: h(T) <- B⁻, chosen_i(D).
    let mut top_body = base_body.clone();
    top_body.push(Literal::pos(chosen, d_terms.clone()));
    top_rules.push(Rule::new(rule.head.clone(), top_body, rule.var_names.clone()));

    // Chosen rule: chosen_i(D) <- B (with extrema), ¬diffchoice_i_j(Lj, Rj).
    let goals: Vec<(Vec<Term>, Vec<Term>)> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Choice { left, right } => Some((left.clone(), right.clone())),
            _ => None,
        })
        .collect();
    let mut chosen_body: Vec<Literal> =
        rule.body.iter().filter(|l| !matches!(l, Literal::Choice { .. })).cloned().collect();
    let mut goal_diff_preds = Vec::new();
    for (j, (l, r)) in goals.iter().enumerate() {
        let dc = fresh_pred(&format!("diffchoice_{ordinal}_{j}"), taken);
        diffchoice_preds.push(dc);
        goal_diff_preds.push(dc);
        let mut args = l.clone();
        args.extend(r.iter().cloned());
        chosen_body.push(Literal::neg(dc, args));
    }
    aux_rules.push(Rule::new(
        gbc_ast::Atom::new(chosen, d_terms.clone()),
        chosen_body,
        rule.var_names.clone(),
    ));

    // diffchoice rules: for goal j, one rule per variable r of Rj.
    for (j, (l, r)) in goals.iter().enumerate() {
        let dc = goal_diff_preds[j];
        let l_vars: Vec<VarId> = {
            let mut v = Vec::new();
            for t in l {
                t.collect_vars(&mut v);
            }
            v
        };
        let r_vars: Vec<VarId> = {
            let mut v = Vec::new();
            for t in r {
                t.collect_vars(&mut v);
            }
            v
        };
        for &diseq_var in &r_vars {
            let mut var_names = rule.var_names.clone();
            // D′: keep Lj variables; prime everything else.
            let mut prime: HashMap<VarId, VarId> = HashMap::new();
            for &v in &d_vars {
                if l_vars.contains(&v) {
                    continue;
                }
                let hint = format!("{}_p", rule.var_name(v));
                prime.insert(v, fresh_var(&mut var_names, &hint));
            }
            let d_primed: Vec<Term> =
                d_vars.iter().map(|v| Term::Var(prime.get(v).copied().unwrap_or(*v))).collect();

            let mut head_args = l.clone();
            head_args.extend(r.iter().cloned());

            let mut body = base_body.clone();
            body.push(Literal::pos(chosen, d_primed));
            body.push(Literal::cmp(
                CmpOp::Ne,
                Expr::Term(Term::Var(diseq_var)),
                Expr::Term(Term::Var(prime[&diseq_var])),
            ));
            aux_rules.push(Rule::new(gbc_ast::Atom::new(dc, head_args), body, var_names));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::Atom;

    /// Example 1: a_st(St, Crs) <- takes(St, Crs), choice(Crs, St), choice(St, Crs).
    fn example1_rule() -> Rule {
        Rule::new(
            Atom::new("a_st", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1)]),
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
                Literal::Choice { left: vec![Term::var(0)], right: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into()],
        )
    }

    #[test]
    fn example_1_produces_the_paper_rule_shapes() {
        let out = rewrite_choice(&Program::from_rules(vec![example1_rule()]));
        let p = &out.program;
        // Top rule + chosen rule + 2 diffchoice rules (one per goal, each
        // with a single right-hand variable).
        assert_eq!(p.rules.len(), 4);
        assert_eq!(out.chosen_preds.len(), 1);
        assert_eq!(out.diffchoice_preds.len(), 2);
        assert!(p.diagnostics().is_empty(), "rewritten program is valid:\n{p}");
        // No choice goals remain.
        assert!(p.rules.iter().all(|r| !r.has_choice()));
        // The chosen rule has two negated diffchoice goals.
        let chosen_rule = p.rules.iter().find(|r| r.head.pred == out.chosen_preds[0]).unwrap();
        assert_eq!(chosen_rule.negated_atoms().count(), 2);
    }

    #[test]
    fn empty_left_tuple_is_supported() {
        // tsp(X, Y) <- arc(X, Y), choice((), (X, Y)).
        let r = Rule::new(
            Atom::new("tsp", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("arc", vec![Term::var(0), Term::var(1)]),
                Literal::Choice { left: vec![], right: vec![Term::var(0), Term::var(1)] },
            ],
            vec!["X".into(), "Y".into()],
        );
        let out = rewrite_choice(&Program::from_rules(vec![r]));
        // Two diffchoice rules: one per right-hand variable.
        assert_eq!(out.diffchoice_preds.len(), 1);
        let diff_rules: Vec<&Rule> =
            out.program.rules.iter().filter(|r| r.head.pred == out.diffchoice_preds[0]).collect();
        assert_eq!(diff_rules.len(), 2);
        assert!(out.program.diagnostics().is_empty(), "{}", out.program);
    }

    #[test]
    fn extrema_move_to_the_chosen_rule_only() {
        // c(X) <- item(X, C), least(C), choice((), (X)).
        let r = Rule::new(
            Atom::new("c", vec![Term::var(0)]),
            vec![
                Literal::pos("item", vec![Term::var(0), Term::var(1)]),
                Literal::Least { cost: Term::var(1), group: vec![] },
                Literal::Choice { left: vec![], right: vec![Term::var(0)] },
            ],
            vec!["X".into(), "C".into()],
        );
        let out = rewrite_choice(&Program::from_rules(vec![r]));
        let top = &out.program.rules[0];
        assert!(!top.has_extrema(), "top rule drops the extremum: {top}");
        let chosen_rule =
            out.program.rules.iter().find(|r| r.head.pred == out.chosen_preds[0]).unwrap();
        assert!(chosen_rule.has_extrema(), "chosen rule keeps it: {chosen_rule}");
    }

    #[test]
    fn name_collisions_are_avoided() {
        // A user predicate already named chosen_0.
        let mut p = Program::from_rules(vec![example1_rule()]);
        p.push_fact("chosen_0", vec![gbc_ast::Value::int(1)]);
        let out = rewrite_choice(&p);
        assert_ne!(out.chosen_preds[0].as_str(), "chosen_0");
    }

    #[test]
    fn non_choice_rules_are_untouched() {
        let flat = Rule::new(
            Atom::new("q", vec![Term::var(0)]),
            vec![Literal::pos("e", vec![Term::var(0)])],
            vec!["X".into()],
        );
        let out = rewrite_choice(&Program::from_rules(vec![flat.clone()]));
        assert_eq!(out.program.rules, vec![flat]);
        assert!(out.chosen_preds.is_empty());
    }
}
