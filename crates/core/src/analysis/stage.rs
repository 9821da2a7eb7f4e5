//! Stage-predicate inference (Section 4).
//!
//! A predicate defined by a `next` rule is a *stage predicate*; the head
//! position of the `next` variable is its *stage argument*. Stage-ness
//! propagates: when a rule's body contains a stage predicate, the
//! variable at its stage position is a *stage variable* of that rule;
//! stage variables are closed under arithmetic definitions (`I = I1+1`,
//! `I = max(J, K)` — the Huffman program needs the latter); and any head
//! position occupied by a stage variable makes the head predicate a
//! stage predicate at that position.

use std::collections::HashMap;
use std::fmt;

use gbc_ast::term::{ArithOp, Expr};
use gbc_ast::{CmpOp, Literal, Program, Rule, Symbol, Term, VarId};

/// A predicate inferred with two distinct stage positions — e.g. `comp`
/// in the paper's Kruskal program (Example 8), which receives component
/// ids at one position and true stage numbers at another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageConflict {
    /// The conflicted predicate.
    pub pred: Symbol,
    /// The stage position recorded first.
    pub first: usize,
    /// The later, disagreeing position.
    pub second: usize,
}

impl fmt::Display for StageConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "predicate `{}` inferred with stage arguments {} and {}",
            self.pred, self.first, self.second
        )
    }
}

/// Inferred stage structure of a program.
#[derive(Clone, Debug, Default)]
pub struct StageInfo {
    /// Stage argument position per stage predicate.
    pub stage_arg: HashMap<Symbol, usize>,
    /// Predicates inferred with two distinct stage positions.
    pub conflicts: Vec<StageConflict>,
}

impl StageInfo {
    /// The stage variable of `rule`'s head, if its head predicate is an
    /// (unconflicted) stage predicate and the stage position holds a
    /// variable.
    pub fn head_stage_var(&self, rule: &Rule) -> Option<VarId> {
        let pos = *self.stage_arg.get(&rule.head.pred)?;
        match rule.head.args.get(pos) {
            Some(Term::Var(v)) => Some(*v),
            _ => None,
        }
    }

    /// The stage variables of `rule`'s body: for each positive or
    /// negated body atom over a stage predicate, the variable at its
    /// stage position, tagged with whether the atom was negated.
    pub fn body_stage_vars(&self, rule: &Rule) -> Vec<(VarId, bool)> {
        let mut out = Vec::new();
        for lit in &rule.body {
            let (atom, negated) = match lit {
                Literal::Pos(a) => (a, false),
                Literal::Neg(a) => (a, true),
                _ => continue,
            };
            let Some(&pos) = self.stage_arg.get(&atom.pred) else { continue };
            if let Some(Term::Var(v)) = atom.args.get(pos) {
                out.push((*v, negated));
            }
        }
        out
    }
}

/// Variables of `rule` that carry stage values: those at stage positions
/// of body atoms, the `next` variable, closed under arithmetic equality.
pub fn rule_stage_vars(rule: &Rule, info: &StageInfo) -> Vec<VarId> {
    let mut stage: Vec<VarId> = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Next { var } => stage.push(*var),
            Literal::Pos(a) | Literal::Neg(a) => {
                if let Some(&pos) = info.stage_arg.get(&a.pred) {
                    if let Some(Term::Var(v)) = a.args.get(pos) {
                        stage.push(*v);
                    }
                }
            }
            _ => {}
        }
    }
    // Close under V = f(stage vars) for f ∈ {+, −, max, min} (and bare
    // equality), in either orientation.
    let mut changed = true;
    while changed {
        changed = false;
        for lit in &rule.body {
            let Literal::Compare { op: CmpOp::Eq, lhs, rhs } = lit else { continue };
            for (bare, expr) in [(lhs, rhs), (rhs, lhs)] {
                let Expr::Term(Term::Var(v)) = bare else { continue };
                if stage.contains(v) {
                    continue;
                }
                if expr_is_stage(expr, &stage) {
                    stage.push(*v);
                    changed = true;
                }
            }
        }
    }
    stage.sort_unstable();
    stage.dedup();
    stage
}

/// Is every variable of `e` a stage variable, with only stage-preserving
/// operators applied?
fn expr_is_stage(e: &Expr, stage: &[VarId]) -> bool {
    match e {
        Expr::Term(Term::Var(v)) => stage.contains(v),
        Expr::Term(Term::Const(gbc_ast::Value::Int(_))) => true,
        Expr::Term(_) => false,
        Expr::Binary(op, l, r) => {
            matches!(op, ArithOp::Add | ArithOp::Sub | ArithOp::Max | ArithOp::Min)
                && expr_is_stage(l, stage)
                && expr_is_stage(r, stage)
        }
        Expr::Neg(_) => false,
    }
}

/// Infer all stage predicates of `program` to fixpoint.
pub fn infer_stages(program: &Program) -> StageInfo {
    let mut info = StageInfo::default();

    // Seed: next-rule heads.
    for rule in &program.rules {
        let Some(next_var) = rule.body.iter().find_map(|l| match l {
            Literal::Next { var } => Some(*var),
            _ => None,
        }) else {
            continue;
        };
        if let Some(pos) =
            rule.head.args.iter().position(|t| matches!(t, Term::Var(v) if *v == next_var))
        {
            record(&mut info, rule.head.pred, pos);
        }
    }

    // Propagate through rules.
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &program.rules {
            let stage_vars = rule_stage_vars(rule, &info);
            if stage_vars.is_empty() {
                continue;
            }
            for (pos, t) in rule.head.args.iter().enumerate() {
                let Term::Var(v) = t else { continue };
                if !stage_vars.contains(v) {
                    continue;
                }
                if info.stage_arg.get(&rule.head.pred) != Some(&pos) {
                    let fresh = !info.stage_arg.contains_key(&rule.head.pred);
                    record(&mut info, rule.head.pred, pos);
                    if fresh {
                        changed = true;
                    }
                }
            }
        }
    }
    info
}

fn record(info: &mut StageInfo, pred: Symbol, pos: usize) {
    match info.stage_arg.get(&pred) {
        Some(&old) if old != pos => {
            let conflict = StageConflict { pred, first: old, second: pos };
            if !info.conflicts.contains(&conflict) {
                info.conflicts.push(conflict);
            }
        }
        Some(_) => {}
        None => {
            info.stage_arg.insert(pred, pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_parser::parse_program;

    #[test]
    fn prim_stage_structure() {
        let p = parse_program(
            "prm(nil, a, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
        )
        .unwrap();
        let info = infer_stages(&p);
        assert_eq!(info.stage_arg[&Symbol::intern("prm")], 3);
        assert_eq!(info.stage_arg[&Symbol::intern("new_g")], 3);
        assert!(!info.stage_arg.contains_key(&Symbol::intern("g")));
        assert!(info.conflicts.is_empty());
    }

    #[test]
    fn huffman_stage_flows_through_max() {
        let p = parse_program(
            "h(X, C, 0) <- letter(X, C).
             h(t(X, Y), C, I) <- next(I), feasible(t(X, Y), C, J), J < I, least(C),
                                 choice(X, I), choice(Y, I).
             feasible(t(X, Y), C, I) <- h(X, C1, J), h(Y, C2, K),
                                        I = max(J, K), X != Y, C = C1 + C2.",
        )
        .unwrap();
        let info = infer_stages(&p);
        assert_eq!(info.stage_arg[&Symbol::intern("h")], 2);
        assert_eq!(
            info.stage_arg[&Symbol::intern("feasible")],
            2,
            "stage-ness must propagate through I = max(J, K)"
        );
        assert!(info.conflicts.is_empty());
    }

    #[test]
    fn kruskal_component_ids_conflict() {
        // comp0's next(K) mints component ids; comp receives them at
        // position 1 but also a true stage at position 2 → conflict,
        // flagging the program as outside the stage class (the paper
        // itself places Example 8 outside strict stage stratification).
        let p = parse_program(
            "kruskal(X, Y, C, I) <- next(I), g(X, Y, C), last_comp(X, J, I1),
                                    last_comp(Y, K, I1), J != K, I1 < I, least(C).
             last_comp(X, J, I) <- comp(X, J, I), most(I, X).
             comp(X, K, 0) <- comp0(X, K).
             comp(X, K, I) <- kruskal(A, B, C, I), last_comp(A, J, I1),
                              last_comp(B, K, I2), last_comp(X, J, I1).
             comp0(nil, 0).
             comp0(X, K) <- next(K), node(X).",
        )
        .unwrap();
        let info = infer_stages(&p);
        assert!(
            !info.conflicts.is_empty(),
            "expected a stage-argument conflict, got {:?}",
            info.stage_arg
        );
    }

    #[test]
    fn sort_program_stages() {
        let p = parse_program(
            "sp(nil, 0, 0).
             sp(X, C, I) <- next(I), p(X, C), least(C, I).",
        )
        .unwrap();
        let info = infer_stages(&p);
        assert_eq!(info.stage_arg[&Symbol::intern("sp")], 2);
        assert_eq!(info.stage_arg.len(), 1);
    }

    #[test]
    fn body_stage_vars_tag_negation() {
        let p = parse_program(
            "h(X, I) <- next(I), src(X).
             q(X, I) <- h(X, I), not h(X, J), J < I.",
        )
        .unwrap();
        let info = infer_stages(&p);
        let vars = info.body_stage_vars(&p.rules[1]);
        assert_eq!(vars.len(), 2);
        assert!(vars.iter().any(|&(_, neg)| neg));
        assert!(vars.iter().any(|&(_, neg)| !neg));
    }
}
