//! Programs: rules plus a fact table, and program-level validation.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::diag::Diagnostic;
use crate::error::AstError;
use crate::facts::{FactGroup, FactTable};
use crate::literal::Literal;
use crate::rule::Rule;
use crate::span::Span;
use crate::symbol::Symbol;
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

    /// Every predicate with its arity, in name order.
    ///
    /// Returns an error on inconsistent arity.
    pub fn signature(&self) -> Result<BTreeMap<Symbol, usize>, AstError> {
        let mut sig: BTreeMap<Symbol, usize> = BTreeMap::new();
        let mut check = |pred: Symbol, arity: usize| -> Result<(), AstError> {
            match sig.get(&pred) {
                Some(&a) if a != arity => Err(AstError::ArityMismatch {
                    pred: pred.as_str().to_owned(),
                    expected: a,
                    found: arity,
                }),
                _ => {
                    sig.insert(pred, arity);
                    Ok(())
                }
            }
        };
        for c in self.clauses() {
            let r = match c {
                Clause::Facts(g) => {
                    check(g.pred(), g.arity())?;
                    continue;
                }
                Clause::Rule(r) => r,
            };
            check(r.head.pred, r.head.arity())?;
            for l in &r.body {
                if let Literal::Pos(a) | Literal::Neg(a) = l {
                    check(a.pred, a.arity())?;
                }
            }
        }
        Ok(sig)
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

    /// Full static validation: arity consistency, fact groundness, rule
    /// safety, and `next`-goal well-formedness (at most one per rule;
    /// the stage variable must appear in the head).
    pub fn validate(&self) -> Result<(), AstError> {
        self.signature()?;
        for r in &self.rules {
            if r.is_fact() && !r.head.is_ground() {
                return Err(AstError::NonGroundFact { rule: r.to_string() });
            }
            r.check_safety()?;
            let next_vars: Vec<_> = r
                .body
                .iter()
                .filter_map(|l| match l {
                    Literal::Next { var } => Some(*var),
                    _ => None,
                })
                .collect();
            if next_vars.len() > 1 {
                return Err(AstError::MultipleNext { rule: r.to_string() });
            }
            if let Some(v) = next_vars.first() {
                let head_has = {
                    let mut hv = Vec::new();
                    for t in &r.head.args {
                        t.collect_vars(&mut hv);
                    }
                    hv.contains(v)
                };
                if !head_has {
                    return Err(AstError::MalformedNext {
                        rule: r.to_string(),
                        detail: "stage variable must appear in the rule head".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// All static-validation failures as span-carrying diagnostics
    /// (codes GBC002–GBC006). Unlike [`Program::validate`], which stops
    /// at the first error, this collects every failure so `gbc check`
    /// can report them in one pass. Empty iff `validate()` returns `Ok`.
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
                let mut head_vars = Vec::new();
                for t in &r.head.args {
                    t.collect_vars(&mut head_vars);
                }
                if !head_vars.contains(&v) {
                    out.push(
                        Diagnostic::error(
                            "GBC005",
                            format!(
                                "stage variable `{}` of `next` does not appear in the rule head",
                                r.var_name(v)
                            ),
                        )
                        .with_label(r.literal_span(i), "stage minted here")
                        .with_secondary(r.head_span(), "head does not receive the stage")
                        .with_note(
                            "the stage number must be recorded in the head so the tuple ↔ \
                             stage bijection of Section 3 exists",
                        ),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Atom;
    use crate::term::{Term, VarId};

    #[test]
    fn signature_collects_arities() {
        let mut p = Program::new();
        p.push_fact("g", vec![Value::sym("a"), Value::sym("b"), Value::int(1)]);
        p.push(Rule::new(
            Atom::new("reach", vec![Term::var(0)]),
            vec![Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)])],
            vec!["X".into(), "Y".into(), "C".into()],
        ));
        let sig = p.signature().unwrap();
        assert_eq!(sig[&Symbol::intern("g")], 3);
        assert_eq!(sig[&Symbol::intern("reach")], 1);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut p = Program::new();
        p.push_fact("g", vec![Value::sym("a")]);
        p.push_fact("g", vec![Value::sym("a"), Value::sym("b")]);
        assert!(matches!(p.signature(), Err(AstError::ArityMismatch { .. })));
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
        assert!(matches!(p.validate(), Err(AstError::NonGroundFact { .. })));
    }

    #[test]
    fn validate_rejects_next_var_missing_from_head() {
        // p(X) <- next(I), q(X).
        let p = Program::from_rules(vec![Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::Next { var: VarId(1) }, Literal::pos("q", vec![Term::var(0)])],
            vec!["X".into(), "I".into()],
        )]);
        assert!(matches!(p.validate(), Err(AstError::MalformedNext { .. })));
    }

    #[test]
    fn validate_rejects_two_next_goals() {
        let p = Program::from_rules(vec![Rule::new(
            Atom::new("p", vec![Term::var(0), Term::var(1)]),
            vec![Literal::Next { var: VarId(0) }, Literal::Next { var: VarId(1) }],
            vec!["I".into(), "J".into()],
        )]);
        assert!(matches!(p.validate(), Err(AstError::MultipleNext { .. })));
    }
}
