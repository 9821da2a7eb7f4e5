//! Rules and their static well-formedness (safety / range restriction).

use crate::literal::{Atom, CmpOp, Literal};
use crate::span::RuleSpans;
use crate::term::{Expr, Term, VarId};

/// A rule `head ← body`. A fact is a rule with an empty body and a
/// ground head; a [`Program`](crate::Program) keeps its facts in its
/// fact table instead, so a body-less rule in `Program.rules` is a
/// non-ground "fact" that validation rejects.
///
/// Variables are rule-local dense indices ([`VarId`]); their surface
/// names live in [`Rule::var_names`] so that diagnostics and the
/// pretty-printer can show `X`, `Crs`, `I1` instead of `_v0`.
///
/// Rules parsed from source additionally carry [`RuleSpans`] so static
/// checks can point at the offending literal; spans are ignored by
/// equality (a parsed rule equals the same rule built programmatically).
#[derive(Clone, Eq)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body literals, in source order (order matters for evaluation of
    /// assignment goals, not for semantics).
    pub body: Vec<Literal>,
    /// Surface names for `VarId(0) .. VarId(var_names.len())`.
    pub var_names: Vec<String>,
    /// Source spans, when the rule came from the parser. `None` for
    /// rules built programmatically or synthesized by rewritings.
    pub spans: Option<RuleSpans>,
}

impl PartialEq for Rule {
    /// Structural equality; source spans are ignored.
    fn eq(&self, other: &Rule) -> bool {
        self.head == other.head && self.body == other.body && self.var_names == other.var_names
    }
}

impl Rule {
    /// Build a rule, taking ownership of its parts.
    pub fn new(head: Atom, body: Vec<Literal>, var_names: Vec<String>) -> Rule {
        Rule { head, body, var_names, spans: None }
    }

    /// Build a fact (ground head, empty body).
    pub fn fact(head: Atom) -> Rule {
        Rule { head, body: Vec::new(), var_names: Vec::new(), spans: None }
    }

    /// Attach source spans (builder style, used by the parser).
    pub fn with_spans(mut self, spans: RuleSpans) -> Rule {
        self.spans = Some(spans);
        self
    }

    /// The rule's full source span (dummy when unparsed).
    pub fn span(&self) -> crate::span::Span {
        self.spans.as_ref().map(|s| s.span).unwrap_or_else(crate::span::Span::dummy)
    }

    /// The head atom's source span (dummy when unparsed).
    pub fn head_span(&self) -> crate::span::Span {
        self.spans.as_ref().map(|s| s.head).unwrap_or_else(crate::span::Span::dummy)
    }

    /// The source span of body literal `i` (dummy when unparsed).
    pub fn literal_span(&self, i: usize) -> crate::span::Span {
        self.spans.as_ref().map(|s| s.literal(i)).unwrap_or_else(crate::span::Span::dummy)
    }

    /// The most precise span available for variable `v`: the first
    /// head-argument or body sub-term containing it, in source order;
    /// falls back to the rule span (or dummy when unparsed).
    pub fn var_span(&self, v: VarId) -> crate::span::Span {
        let Some(rs) = &self.spans else { return crate::span::Span::dummy() };
        for (a, t) in self.head.args.iter().enumerate() {
            if t.vars().contains(&v) {
                return rs.head_arg(a);
            }
        }
        for (i, lit) in self.body.iter().enumerate() {
            for (a, vars) in lit.arg_vars().iter().enumerate() {
                if vars.contains(&v) {
                    return rs.literal_arg(i, a);
                }
            }
        }
        rs.span
    }

    /// True when the rule has no body (a fact, if its head is ground).
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The surface name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        self.var_names.get(v.index()).map(String::as_str).unwrap_or("_?")
    }

    /// True if any body literal is a `choice` goal.
    pub fn has_choice(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Choice { .. }))
    }

    /// True if any body literal is a `next` goal.
    pub fn has_next(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Next { .. }))
    }

    /// True if any body literal is `least` or `most`.
    pub fn has_extrema(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Least { .. } | Literal::Most { .. }))
    }

    /// True if any body literal is a negated atom.
    pub fn has_negation(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Neg(_)))
    }

    /// The positive body atoms, in order.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// The negated body atoms, in order.
    pub fn negated_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            _ => None,
        })
    }

    /// The variables of the `choice` goals, in first-occurrence order:
    /// the argument list of the rule's `chosen_i` predicate in the
    /// rewritten program (Section 2), and so of every committed choice
    /// record that Theorem 1 validation reads.
    pub fn choice_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for lit in &self.body {
            let Literal::Choice { left, right } = lit else { continue };
            for t in left.iter().chain(right) {
                t.collect_vars(&mut out);
            }
        }
        let mut seen = Vec::with_capacity(out.len());
        out.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(*v);
                true
            }
        });
        out
    }

    /// Safety (range restriction) in the LDL sense: the variables of
    /// the rule that are *not* limited, in first-occurrence order. Empty
    /// iff the rule is safe.
    ///
    /// Every variable must be *limited*: bound by a positive body atom,
    /// or by an `=` goal whose other side is an expression over limited
    /// variables (evaluated left-to-right fixpoint, so `I = I1 + 1, J = I`
    /// is fine in any order), or be the `next` stage variable (which the
    /// expansion grounds via `p(_, I1), I = I1 + 1`).
    ///
    /// Variables appearing *only* in negated atoms, comparisons, `choice`
    /// or extrema goals are unsafe.
    pub fn unsafe_vars(&self) -> Vec<VarId> {
        let mut limited = vec![false; self.num_vars()];

        // Positive atoms and `next` limit their variables.
        for lit in &self.body {
            match lit {
                Literal::Pos(a) => {
                    for v in a.vars() {
                        limited[v.index()] = true;
                    }
                }
                Literal::Next { var } => limited[var.index()] = true,
                _ => {}
            }
        }

        // Equality goals propagate limitedness: iterate to fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for lit in &self.body {
                let Literal::Compare { op: CmpOp::Eq, lhs, rhs } = lit else {
                    continue;
                };
                changed |= propagate_eq(lhs, rhs, &mut limited);
                changed |= propagate_eq(rhs, lhs, &mut limited);
            }
        }

        // Every variable anywhere in the rule must now be limited.
        let mut all_vars = Vec::new();
        for t in &self.head.args {
            t.collect_vars(&mut all_vars);
        }
        for l in &self.body {
            l.collect_vars(&mut all_vars);
        }
        let mut unsafe_vars: Vec<VarId> =
            all_vars.into_iter().filter(|v| !limited[v.index()]).collect();
        let mut seen: Vec<VarId> = Vec::new();
        unsafe_vars.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(*v);
                true
            }
        });
        unsafe_vars
    }
}

/// If `target` is a bare variable and every variable of `source` is
/// limited, mark `target`'s variable limited. Returns true on change.
fn propagate_eq(target: &Expr, source: &Expr, limited: &mut [bool]) -> bool {
    let Some(Term::Var(v)) = target.as_bare_term() else {
        return false;
    };
    if limited[v.index()] {
        return false;
    }
    if source.vars().iter().all(|u| limited[u.index()]) {
        limited[v.index()] = true;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::ArithOp;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("V{i}")).collect()
    }

    #[test]
    fn fact_is_safe() {
        let r = Rule::fact(Atom::new("g", vec![Term::sym("a"), Term::int(1)]));
        assert!(r.is_fact());
        assert!(r.unsafe_vars().is_empty());
    }

    #[test]
    fn positive_atom_limits_head_vars() {
        // p(X) <- q(X).
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::pos("q", vec![Term::var(0)])],
            names(1),
        );
        assert!(r.unsafe_vars().is_empty());
    }

    #[test]
    fn head_var_without_binding_is_unsafe() {
        // p(X, Y) <- q(X).
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0), Term::var(1)]),
            vec![Literal::pos("q", vec![Term::var(0)])],
            names(2),
        );
        assert_eq!(r.unsafe_vars(), [VarId(1)]);
    }

    #[test]
    fn assignment_chain_limits_variables_in_any_order() {
        // p(J) <- J = I + 1, I = K, q(K).
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(0),
                    Expr::binary(ArithOp::Add, Expr::var(1), Expr::int(1)),
                ),
                Literal::cmp(CmpOp::Eq, Expr::var(1), Expr::var(2)),
                Literal::pos("q", vec![Term::var(2)]),
            ],
            names(3),
        );
        assert!(r.unsafe_vars().is_empty());
    }

    #[test]
    fn negated_only_variable_is_unsafe() {
        // p(X) <- q(X), not r(Y).
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::pos("q", vec![Term::var(0)]), Literal::neg("r", vec![Term::var(1)])],
            names(2),
        );
        assert_eq!(r.unsafe_vars(), [VarId(1)]);
    }

    #[test]
    fn chosen_args_are_choice_vars_in_first_occurrence_order() {
        // a_st(St, Crs) <- takes(St, Crs), choice(Crs, St), choice(St, Crs).
        let r = Rule::new(
            Atom::new("a_st", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1)]),
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
                Literal::Choice { left: vec![Term::var(0)], right: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into()],
        );
        // D = (Crs, St).
        assert_eq!(r.choice_vars(), vec![VarId(1), VarId(0)]);
    }

    #[test]
    fn next_limits_the_stage_variable() {
        // st(X, I) <- next(I), g(X).
        let r = Rule::new(
            Atom::new("st", vec![Term::var(0), Term::var(1)]),
            vec![Literal::Next { var: VarId(1) }, Literal::pos("g", vec![Term::var(0)])],
            names(2),
        );
        assert!(r.unsafe_vars().is_empty());
        assert!(r.has_next());
        assert!(!r.has_choice());
    }
}
