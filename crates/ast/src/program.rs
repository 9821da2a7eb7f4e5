//! Programs: rules plus a fact table, and program-level validation.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::diag::Diagnostic;
use crate::facts::{FactGroup, FactTable};
use crate::literal::Literal;
use crate::rule::Rule;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;

/// A program: its rules, and its ground facts in a [`FactTable`]. EDB
/// facts may also be supplied separately at evaluation time;
/// `gbc-engine` merges both.
///
/// A ground fact never becomes a [`Rule`]: the parser,
/// [`Program::from_rules`], [`Program::push`] and
/// [`Program::push_fact`] all route it into the table. A rule's id is
/// its index in `rules`, so adding or removing a fact renumbers no rule.
#[derive(Clone, Default, PartialEq)]
pub struct Program {
    /// Rules in source order. A body-less clause that is not ground
    /// (`p(X).`) stays here, for validation to reject.
    pub rules: Vec<Rule>,
    /// The ground facts. Shared, so cloning a program or rewriting its
    /// rules copies no fact.
    pub facts: Arc<FactTable>,
}

/// One step of a walk over a program in source order: a rule, or a
/// predicate's facts, all at the place of its first one.
pub enum Clause<'a> {
    /// A rule.
    Rule(&'a Rule),
    /// One group of facts.
    Facts(&'a FactGroup),
}

impl Program {
    /// Empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Build from clauses; ground facts go to the fact table.
    pub fn from_rules(rules: Vec<Rule>) -> Program {
        let mut p = Program::new();
        for r in rules {
            p.push(r);
        }
        p
    }

    /// This program's facts with `rules` in place of its rules (for
    /// rewritings that keep or extend the rule order).
    pub fn with_rules(&self, rules: Vec<Rule>) -> Program {
        Program { rules, facts: Arc::clone(&self.facts) }
    }

    /// Append a clause: a ground fact to the fact table, anything else
    /// to the rules.
    pub fn push(&mut self, rule: Rule) {
        if rule.is_fact() && rule.head.is_ground() {
            let span = rule.head_span();
            let args = rule.head.args.into_iter().map(|t| t.into_value().expect("ground"));
            let at = self.rules.len();
            Arc::make_mut(&mut self.facts).push(rule.head.pred, args, span, at);
        } else {
            self.rules.push(rule);
        }
    }

    /// Append a ground fact `pred(args)`.
    pub fn push_fact(&mut self, pred: impl Into<Symbol>, args: Vec<Value>) {
        let at = self.rules.len();
        Arc::make_mut(&mut self.facts).push(pred.into(), args.into_iter(), Span::dummy(), at);
    }

    /// Every fact as `(pred, args, span)`, predicate by predicate in
    /// order of first appearance, each in source order.
    pub fn facts(&self) -> impl Iterator<Item = (Symbol, &[Value], Span)> {
        self.facts.rows()
    }

    /// The number of clauses: rules plus facts.
    pub fn clause_count(&self) -> usize {
        self.rules.len() + self.facts.len()
    }

    /// Rules and fact groups in source order, each group where its
    /// first fact stood. A predicate's first use, and each arity's,
    /// come in exactly the order of the source.
    pub fn clauses(&self) -> impl Iterator<Item = Clause<'_>> {
        let mut groups = self.facts.groups().iter().peekable();
        let mut rules = self.rules.iter().enumerate().peekable();
        std::iter::from_fn(move || match (groups.peek(), rules.peek()) {
            (Some(g), Some(&(ri, _))) if g.rules_before() > ri => {
                rules.next().map(|(_, r)| Clause::Rule(r))
            }
            (Some(_), _) => groups.next().map(Clause::Facts),
            (None, _) => rules.next().map(|(_, r)| Clause::Rule(r)),
        })
    }

    /// Every predicate with the arity of its first use, in name order.
    /// Arity clashes are GBC002 errors of [`Program::diagnostics`].
    pub fn signature(&self) -> BTreeMap<Symbol, usize> {
        let mut sig: BTreeMap<Symbol, usize> = BTreeMap::new();
        let mut note = |pred: Symbol, arity: usize| {
            sig.entry(pred).or_insert(arity);
        };
        for c in self.clauses() {
            match c {
                Clause::Facts(g) => note(g.pred(), g.arity()),
                Clause::Rule(r) => {
                    note(r.head.pred, r.head.arity());
                    for l in &r.body {
                        if let Literal::Pos(a) | Literal::Neg(a) = l {
                            note(a.pred, a.arity());
                        }
                    }
                }
            }
        }
        sig
    }

    /// Predicates that appear in some rule head or fact.
    pub fn head_predicates(&self) -> Vec<Symbol> {
        let mut preds: Vec<Symbol> = self.rules.iter().map(|r| r.head.pred).collect();
        preds.extend(self.fact_predicates());
        preds.sort();
        preds.dedup();
        preds
    }

    /// The predicates that have facts, once per arity.
    pub fn fact_predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.facts.groups().iter().map(FactGroup::pred)
    }

    /// Predicates defined only by facts or never defined (extensional).
    pub fn edb_predicates(&self) -> Vec<Symbol> {
        let idb: Vec<Symbol> =
            self.rules.iter().filter(|r| !r.is_fact()).map(|r| r.head.pred).collect();
        let mut edb: Vec<Symbol> = Vec::new();
        let body_preds = self.rules.iter().flat_map(|r| &r.body).filter_map(|l| match l {
            Literal::Pos(a) | Literal::Neg(a) => Some(a.pred),
            _ => None,
        });
        for p in body_preds.chain(self.fact_predicates()) {
            if !idb.contains(&p) && !edb.contains(&p) {
                edb.push(p);
            }
        }
        edb.sort();
        edb
    }

    /// Static validation: every arity clash, non-ground fact, unsafe
    /// variable and malformed `next` goal as a span-carrying error
    /// (codes GBC002–GBC006), collected in one pass. This is the only
    /// implementation of those rules; `gbc_core::compile` admits a
    /// program only when it, and the stratification check, find no
    /// error.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        // GBC002: arity consistency. Remember the first-seen occurrence
        // of each predicate so the mismatch can point both ways. True
        // when the use agrees with the first one.
        let mut sig: BTreeMap<Symbol, (usize, Span)> = BTreeMap::new();
        let mut check_arity = |pred: Symbol,
                               arity: usize,
                               span: Span,
                               out: &mut Vec<Diagnostic>| match sig
            .get(&pred)
        {
            Some(&(first, first_span)) if first != arity => {
                out.push(
                    Diagnostic::error(
                        "GBC002",
                        format!(
                            "predicate `{pred}` used with arity {arity}, \
                                 but first used with arity {first}"
                        ),
                    )
                    .with_label(span, format!("arity {arity} here"))
                    .with_secondary(first_span, format!("arity {first} established here"))
                    .with_note("every predicate must be used with a single arity program-wide"),
                );
                false
            }
            Some(_) => true,
            None => {
                sig.insert(pred, (arity, span));
                true
            }
        };
        for c in self.clauses() {
            let r = match c {
                Clause::Facts(g) => {
                    // A group shares one arity: once a fact agrees,
                    // every later one does.
                    for (_, span) in g.rows() {
                        if check_arity(g.pred(), g.arity(), span, &mut out) {
                            break;
                        }
                    }
                    continue;
                }
                Clause::Rule(r) => r,
            };
            check_arity(r.head.pred, r.head.arity(), r.head_span(), &mut out);
            for (i, l) in r.body.iter().enumerate() {
                if let Literal::Pos(a) | Literal::Neg(a) = l {
                    check_arity(a.pred, a.arity(), r.literal_span(i), &mut out);
                }
            }
        }

        for r in &self.rules {
            // GBC004: facts must be ground.
            if r.is_fact() && !r.head.is_ground() {
                out.push(
                    Diagnostic::error("GBC004", format!("fact `{r}` has a non-ground head"))
                        .with_label(r.head_span(), "contains variables")
                        .with_help("facts are body-less rules; every argument must be a constant"),
                );
            }
            // GBC003: safety / range restriction.
            for v in r.unsafe_vars() {
                out.push(
                    Diagnostic::error(
                        "GBC003",
                        format!(
                            "unsafe variable `{}` in rule for `{}`",
                            r.var_name(v),
                            r.head.pred
                        ),
                    )
                    .with_label(
                        r.var_span(v),
                        format!("`{}` is not bound by any positive body literal", r.var_name(v)),
                    )
                    .with_note(
                        "every variable must be limited: bound by a positive body atom, by \
                         `next`, or by an `=` goal over limited variables (range restriction)",
                    ),
                );
            }
            // GBC005/GBC006: next-goal well-formedness.
            let next_lits: Vec<(usize, crate::term::VarId)> = r
                .body
                .iter()
                .enumerate()
                .filter_map(|(i, l)| match l {
                    Literal::Next { var } => Some((i, *var)),
                    _ => None,
                })
                .collect();
            if next_lits.len() > 1 {
                let (first, _) = next_lits[0];
                let (second, _) = next_lits[1];
                out.push(
                    Diagnostic::error(
                        "GBC006",
                        format!("rule for `{}` has more than one `next` goal", r.head.pred),
                    )
                    .with_label(r.literal_span(second), "second `next` goal")
                    .with_secondary(r.literal_span(first), "first `next` goal")
                    .with_note(
                        "a rule mints at most one new stage (Section 3: one stage per \
                         committed head)",
                    ),
                );
            } else if let Some(&(i, v)) = next_lits.first() {
                // The `next` expansion reads the stage from the one head
                // argument that is the stage variable itself.
                let name = r.var_name(v);
                let bare = r.head.args.iter().filter(|&t| *t == Term::Var(v)).count();
                let in_head = r.head.args.iter().any(|t| t.vars().contains(&v));
                let (what, label) = match bare {
                    1 => continue,
                    0 if !in_head => (
                        "does not appear in the rule head".to_owned(),
                        "head does not receive the stage".to_owned(),
                    ),
                    0 => (
                        "is not a head argument of its own".to_owned(),
                        format!("`{name}` occurs only inside a compound term here"),
                    ),
                    n => (
                        format!("fills {n} head arguments"),
                        format!("`{name}` must fill exactly one argument"),
                    ),
                };
                out.push(
                    Diagnostic::error(
                        "GBC005",
                        format!("stage variable `{name}` of `next` {what}"),
                    )
                    .with_label(r.literal_span(i), "stage minted here")
                    .with_secondary(r.head_span(), label)
                    .with_note(
                        "the stage number must be recorded in the head so the tuple ↔ \
                             stage bijection of Section 3 exists",
                    ),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Atom;
    use crate::term::VarId;

    fn codes(p: &Program) -> Vec<&'static str> {
        p.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn signature_collects_arities() {
        let mut p = Program::new();
        p.push_fact("g", vec![Value::sym("a"), Value::sym("b"), Value::int(1)]);
        p.push(Rule::new(
            Atom::new("reach", vec![Term::var(0)]),
            vec![Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)])],
            vec!["X".into(), "Y".into(), "C".into()],
        ));
        let sig = p.signature();
        assert_eq!(sig[&Symbol::intern("g")], 3);
        assert_eq!(sig[&Symbol::intern("reach")], 1);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut p = Program::new();
        p.push_fact("g", vec![Value::sym("a")]);
        p.push_fact("g", vec![Value::sym("a"), Value::sym("b")]);
        assert_eq!(codes(&p), ["GBC002"]);
    }

    #[test]
    fn edb_is_what_never_appears_as_rule_head() {
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("tc", vec![Term::var(0), Term::var(1)]),
            vec![Literal::pos("e", vec![Term::var(0), Term::var(1)])],
            vec!["X".into(), "Y".into()],
        ));
        assert_eq!(p.edb_predicates(), vec![Symbol::intern("e")]);
        assert_eq!(p.head_predicates(), vec![Symbol::intern("tc")]);
    }

    #[test]
    fn validate_rejects_nonground_fact() {
        let p = Program::from_rules(vec![Rule::new(
            Atom::new("g", vec![Term::var(0)]),
            vec![],
            vec!["X".into()],
        )]);
        // `X` is unsafe too: nothing binds it.
        assert_eq!(codes(&p), ["GBC004", "GBC003"]);
    }

    #[test]
    fn validate_rejects_next_var_missing_from_head() {
        // p(X) <- next(I), q(X).
        let p = Program::from_rules(vec![Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::Next { var: VarId(1) }, Literal::pos("q", vec![Term::var(0)])],
            vec!["X".into(), "I".into()],
        )]);
        assert_eq!(codes(&p), ["GBC005"]);
    }

    #[test]
    fn validate_rejects_two_next_goals() {
        let p = Program::from_rules(vec![Rule::new(
            Atom::new("p", vec![Term::var(0), Term::var(1)]),
            vec![Literal::Next { var: VarId(0) }, Literal::Next { var: VarId(1) }],
            vec!["I".into(), "J".into()],
        )]);
        assert_eq!(codes(&p), ["GBC006"]);
    }

    #[test]
    fn stage_variable_must_fill_exactly_one_head_argument() {
        // q(X, I, I) <- next(I), p(X).  and  q(s(I), X) <- next(I), p(X).
        let twice = Program::from_rules(vec![Rule::new(
            Atom::new("q", vec![Term::var(0), Term::var(1), Term::var(1)]),
            vec![Literal::Next { var: VarId(1) }, Literal::pos("p", vec![Term::var(0)])],
            vec!["X".into(), "I".into()],
        )]);
        assert_eq!(codes(&twice), ["GBC005"]);
        let nested = Program::from_rules(vec![Rule::new(
            Atom::new("q", vec![Term::Func("s".into(), vec![Term::var(1)]), Term::var(0)]),
            vec![Literal::Next { var: VarId(1) }, Literal::pos("p", vec![Term::var(0)])],
            vec!["X".into(), "I".into()],
        )]);
        assert_eq!(codes(&nested), ["GBC005"]);
    }
}
