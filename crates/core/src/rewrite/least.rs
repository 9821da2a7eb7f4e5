//! The `least`/`most` → negation rewriting (Section 2).
//!
//! ```text
//! r: h(T) <- B, least(C, G).
//! ```
//!
//! becomes
//!
//! ```text
//! h(T)         <- B, ¬better_r(G, C).
//! better_r(G, C) <- B, B′, C′ < C.          (B′ = B with fresh variables,
//!                                            G′ componentwise equal to G)
//! ```
//!
//! `better_r(G, C)` witnesses "some other instantiation of the body has
//! the same group but a smaller cost" — the negated conjunction the
//! paper writes inline (it cannot be a single safe rule, hence the
//! auxiliary predicate). `most` flips the comparison. Multiple extrema
//! in one rule are applied sequentially: each later extremum's body
//! copies include the earlier `¬better` filters, matching the engine's
//! sequential filter semantics.

use std::collections::HashMap;

use gbc_ast::term::Expr;
use gbc_ast::{CmpOp, Literal, Program, Rule, Symbol, Term, VarId};

use crate::rewrite::{fresh_pred, fresh_var};

/// Output of the extrema rewriting.
#[derive(Clone, Debug)]
pub struct LeastRewrite {
    /// The rewritten program (extrema-free).
    pub program: Program,
    /// Head symbols of the auxiliary `better_*` rules.
    pub better_preds: Vec<Symbol>,
}

/// Rewrite every `least`/`most` goal in `program`.
pub fn rewrite_least(program: &Program) -> LeastRewrite {
    let mut taken: Vec<Symbol> = program.signature().into_keys().collect();
    let mut rules = Vec::new();
    let mut aux = Vec::new();
    let mut better_preds = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        if !rule.has_extrema() {
            rules.push(rule.clone());
            continue;
        }
        rules.push(rewrite_one(rule, ri, &mut taken, &mut aux, &mut better_preds));
    }
    rules.extend(aux);
    LeastRewrite { program: program.with_rules(rules), better_preds }
}

fn rewrite_one(
    rule: &Rule,
    ri: usize,
    taken: &mut Vec<Symbol>,
    aux: &mut Vec<Rule>,
    better_preds: &mut Vec<Symbol>,
) -> Rule {
    // Base body: everything except extrema goals.
    let base: Vec<Literal> = rule
        .body
        .iter()
        .filter(|l| !matches!(l, Literal::Least { .. } | Literal::Most { .. }))
        .cloned()
        .collect();

    // Current body accumulates ¬better goals as extrema are processed.
    let mut current = base.clone();
    let mut k = 0usize;
    for lit in &rule.body {
        let (cost, group, is_least) = match lit {
            Literal::Least { cost, group } => (cost, group, true),
            Literal::Most { cost, group } => (cost, group, false),
            _ => continue,
        };
        let better = fresh_pred(&format!("better_{ri}_{k}"), taken);
        better_preds.push(better);
        k += 1;

        // better(G, C) <- current, current′, C′ cmp C, G′ = G.
        let mut var_names = rule.var_names.clone();
        let mut prime: HashMap<VarId, VarId> = HashMap::new();
        let mut all_vars = Vec::new();
        for l in &current {
            l.collect_vars(&mut all_vars);
        }
        all_vars.sort_unstable();
        all_vars.dedup();
        for &v in &all_vars {
            let hint = format!("{}_c", rule.var_name(v));
            prime.insert(v, fresh_var(&mut var_names, &hint));
        }
        let copy: Vec<Literal> = current.iter().map(|l| rename_literal(l, &prime)).collect();

        let mut head_args: Vec<Term> = group.clone();
        head_args.push(cost.clone());

        let mut body = current.clone();
        body.extend(copy);
        // Group equality, componentwise.
        for g in group {
            body.push(Literal::cmp(
                CmpOp::Eq,
                Expr::Term(rename_term(g, &prime)),
                Expr::Term(g.clone()),
            ));
        }
        // Cost comparison: a strictly better instantiation exists.
        let cmp = if is_least { CmpOp::Lt } else { CmpOp::Gt };
        body.push(Literal::cmp(
            cmp,
            Expr::Term(rename_term(cost, &prime)),
            Expr::Term(cost.clone()),
        ));
        aux.push(Rule::new(gbc_ast::Atom::new(better, head_args.clone()), body, var_names));

        current.push(Literal::neg(better, head_args));
    }

    Rule::new(rule.head.clone(), current, rule.var_names.clone())
}

fn rename_term(t: &Term, prime: &HashMap<VarId, VarId>) -> Term {
    match t {
        Term::Var(v) => Term::Var(prime.get(v).copied().unwrap_or(*v)),
        Term::Const(c) => Term::Const(c.clone()),
        Term::Func(f, args) => Term::Func(*f, args.iter().map(|a| rename_term(a, prime)).collect()),
    }
}

fn rename_expr(e: &Expr, prime: &HashMap<VarId, VarId>) -> Expr {
    match e {
        Expr::Term(t) => Expr::Term(rename_term(t, prime)),
        Expr::Binary(op, l, r) => {
            Expr::Binary(*op, Box::new(rename_expr(l, prime)), Box::new(rename_expr(r, prime)))
        }
        Expr::Neg(inner) => Expr::Neg(Box::new(rename_expr(inner, prime))),
    }
}

fn rename_literal(l: &Literal, prime: &HashMap<VarId, VarId>) -> Literal {
    match l {
        Literal::Pos(a) => Literal::Pos(gbc_ast::Atom::new(
            a.pred,
            a.args.iter().map(|t| rename_term(t, prime)).collect(),
        )),
        Literal::Neg(a) => Literal::Neg(gbc_ast::Atom::new(
            a.pred,
            a.args.iter().map(|t| rename_term(t, prime)).collect(),
        )),
        Literal::Compare { op, lhs, rhs } => {
            Literal::Compare { op: *op, lhs: rename_expr(lhs, prime), rhs: rename_expr(rhs, prime) }
        }
        Literal::Choice { left, right } => Literal::Choice {
            left: left.iter().map(|t| rename_term(t, prime)).collect(),
            right: right.iter().map(|t| rename_term(t, prime)).collect(),
        },
        Literal::Least { cost, group } => Literal::Least {
            cost: rename_term(cost, prime),
            group: group.iter().map(|t| rename_term(t, prime)).collect(),
        },
        Literal::Most { cost, group } => Literal::Most {
            cost: rename_term(cost, prime),
            group: group.iter().map(|t| rename_term(t, prime)).collect(),
        },
        Literal::Next { var } => Literal::Next { var: prime.get(var).copied().unwrap_or(*var) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::{Atom, Value};
    use gbc_storage::Database;

    /// bttm(St, Crs, G) <- takes(St, Crs, G), G > 1, least(G, Crs).
    fn bttm_rule() -> Rule {
        Rule::new(
            Atom::new("bttm", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(CmpOp::Gt, Expr::var(2), Expr::int(1)),
                Literal::Least { cost: Term::var(2), group: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        )
    }

    fn takes_edb() -> Database {
        let mut db = Database::new();
        for (s, c, g) in
            [("andy", "engl", 4), ("mark", "engl", 2), ("ann", "math", 3), ("mark", "math", 2)]
        {
            db.insert_values("takes", vec![Value::sym(s), Value::sym(c), Value::int(g)]);
        }
        db
    }

    #[test]
    fn rewritten_program_is_extrema_free_and_valid() {
        let out = rewrite_least(&Program::from_rules(vec![bttm_rule()]));
        assert!(out.program.rules.iter().all(|r| !r.has_extrema()));
        assert!(out.program.diagnostics().is_empty(), "{}", out.program);
        assert_eq!(out.better_preds.len(), 1);
    }

    #[test]
    fn rewritten_program_computes_the_same_answers() {
        // Stratified evaluation of the rewritten program must agree with
        // the engine's direct extrema implementation.
        let direct =
            gbc_engine::extrema::eval_rule_with_extrema(&takes_edb(), &bttm_rule()).unwrap();
        let out = rewrite_least(&Program::from_rules(vec![bttm_rule()]));
        let m = gbc_engine::evaluate_stratified(&out.program, &takes_edb()).unwrap();
        let mut rewritten = m.facts_of(Symbol::intern("bttm"));
        rewritten.sort();
        let mut direct = direct;
        direct.sort();
        assert_eq!(rewritten, direct);
    }

    #[test]
    fn most_flips_the_comparison() {
        let rule = Rule::new(
            Atom::new("top", vec![Term::var(0), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::Most { cost: Term::var(2), group: vec![] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let out = rewrite_least(&Program::from_rules(vec![rule]));
        let m = gbc_engine::evaluate_stratified(&out.program, &takes_edb()).unwrap();
        let rows = m.facts_of(Symbol::intern("top"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::int(4), "global maximum grade");
    }

    #[test]
    fn sequential_extrema_chain_their_filters() {
        // least(G, Crs) then most(G): per-course minima, then the max of those.
        let rule = Rule::new(
            Atom::new("x", vec![Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::Least { cost: Term::var(2), group: vec![Term::var(1)] },
                Literal::Most { cost: Term::var(2), group: vec![] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let out = rewrite_least(&Program::from_rules(vec![rule]));
        assert_eq!(out.better_preds.len(), 2);
        // The second better rule's body must reference the first better
        // predicate (negatively) — the sequential-filter semantics.
        let second = out.program.rules.iter().find(|r| r.head.pred == out.better_preds[1]).unwrap();
        let refs_first = second.negated_atoms().any(|a| a.pred == out.better_preds[0]);
        assert!(refs_first, "{second}");
    }
}
