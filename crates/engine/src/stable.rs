//! Gelfond–Lifschitz stable-model checking.
//!
//! Used to validate the paper's Theorem 1 ("every set of facts produced
//! by the Choice Fixpoint is a stable model") on actual executor
//! outputs: `gbc-core` rewrites a choice program into its negative
//! form, completes the candidate model with the `chosen`/`diffChoice`
//! facts, and calls [`is_stable_model`].
//!
//! The check grounds nothing and has no fixpoint loop of its own: the
//! reduct's least model is computed by [`crate::evaluate_stratified`],
//! and closure under the reduct is one pass of the ordinary matcher
//! over the candidate model.

use gbc_ast::{Atom, Literal, Program, Symbol};
use gbc_storage::Database;

use crate::error::EngineError;
use crate::eval::{fact_rows, for_each_match, instantiate_head};
use crate::stratified::evaluate_stratified;

/// Is `m` a stable model of `program ∪ edb`?
///
/// `program` may contain positive/negated atoms and comparisons only —
/// `choice`, `least`, `most` and `next` must have been rewritten away
/// (that is precisely the reduction the paper uses to *define* their
/// semantics). `m` must contain the EDB facts.
///
/// `m` is stable iff it equals `L`, the least model of the reduct
/// `P^M` over the EDB and the program's facts. Once those base facts
/// are known to lie in `m`, two checks decide it:
///
/// * **(a) every fact of `m` is derivable.** Each negated atom
///   `not q(t)` reads a frozen copy of `m`'s `q` (the row stores are
///   shared, under a name the parser cannot produce), and each rule
///   also requires its head to be in the frozen copy of `m`. The least
///   model `L_a` of this guarded reduct is computed by the stratified
///   seminaive evaluator; it is stratified whatever `program` is, since
///   only rule-less frozen predicates are negated, and finite, since it
///   never leaves `m`. (a) holds iff `L_a` has exactly `|m|` facts.
/// * **(b) `m` is closed under the reduct.** One pass of every rule over
///   `m` itself, with negation read from `m`, derives no fact outside
///   `m`.
///
/// Why (a) ∧ (b) ⇔ `m = L`: if `m = L`, `m` is a fixpoint of the
/// reduct, so (b) holds; every stage of `L`'s derivation stays inside
/// `m`, so the guard removes nothing and `L_a = L = m`. Conversely,
/// (b) makes `m` a model of the reduct, so `L ⊆ m`; then, again, no
/// stage of `L` is cut by the guard, so `L_a = L`, and (a) gives
/// `L = m`. (b) runs only once (a) has passed: either failure decides
/// the verdict.
pub fn is_stable_model(
    program: &Program,
    edb: &Database,
    m: &Database,
) -> Result<bool, EngineError> {
    for r in &program.rules {
        if r.has_choice() || r.has_next() || r.has_extrema() {
            return Err(EngineError::Unstratified {
                detail: format!(
                    "rule `{r}` must be rewritten to negation before stability checking"
                ),
            });
        }
    }
    // The EDB and the program's facts must be inside M.
    if !fact_rows(program).chain(edb.iter_all()).all(|(pred, row)| m.contains(pred, &row)) {
        return Ok(false);
    }

    // (a): the guarded reduct's least model must be all of M.
    let frozen = |pred: Symbol| Symbol::intern(&format!("{pred}'M"));
    let mut base = edb.clone();
    for pred in m.predicates() {
        *base.relation_mut(frozen(pred)) = m.relation(pred).share();
    }
    let mut reduct = program.clone();
    for rule in &mut reduct.rules {
        for lit in &mut rule.body {
            if let Literal::Neg(a) = lit {
                a.pred = frozen(a.pred);
            }
        }
        let guard = Atom { pred: frozen(rule.head.pred), args: rule.head.args.clone() };
        rule.body.push(Literal::Pos(guard));
    }
    let lm = evaluate_stratified(&reduct, &base)?;
    if m.predicates().map(|p| lm.count(p)).sum::<usize>() != m.total_facts() {
        return Ok(false);
    }

    // (b): one pass of every rule over M derives nothing outside M.
    for rule in &program.rules {
        let mut closed = true;
        for_each_match(m, rule, None, &mut |b| {
            closed = m.contains(rule.head.pred, &instantiate_head(rule, b)?);
            Ok(closed)
        })?;
        if !closed {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::{Atom, Literal, Rule, Term, Value};

    fn rule(head: Atom, body: Vec<Literal>, vars: &[&str]) -> Rule {
        Rule::new(head, body, vars.iter().map(|s| s.to_string()).collect())
    }

    /// p <- not q.   q <- not p.   Two stable models: {p}, {q}.
    fn two_model_program() -> Program {
        Program::from_rules(vec![
            rule(Atom::new("p", vec![]), vec![Literal::neg("q", vec![])], &[]),
            rule(Atom::new("q", vec![]), vec![Literal::neg("p", vec![])], &[]),
        ])
    }

    fn model(facts: &[&str]) -> Database {
        let mut db = Database::new();
        for f in facts {
            db.insert_values(*f, vec![]);
        }
        db
    }

    #[test]
    fn classic_two_model_program() {
        let p = two_model_program();
        let edb = Database::new();
        assert!(is_stable_model(&p, &edb, &model(&["p"])).unwrap());
        assert!(is_stable_model(&p, &edb, &model(&["q"])).unwrap());
        // {} is not a model; {p,q} is a model but not stable (reduct is
        // empty, least model ∅ ≠ {p,q}).
        assert!(!is_stable_model(&p, &edb, &model(&[])).unwrap());
        assert!(!is_stable_model(&p, &edb, &model(&["p", "q"])).unwrap());
    }

    #[test]
    fn odd_loop_has_no_stable_model() {
        // p <- not p.
        let p = Program::from_rules(vec![rule(
            Atom::new("p", vec![]),
            vec![Literal::neg("p", vec![])],
            &[],
        )]);
        let edb = Database::new();
        assert!(!is_stable_model(&p, &edb, &model(&[])).unwrap());
        assert!(!is_stable_model(&p, &edb, &model(&["p"])).unwrap());
    }

    #[test]
    fn positive_program_unique_stable_model_is_least_model() {
        // tc via facts: e(1,2), e(2,3).
        let mut p = Program::from_rules(vec![
            rule(
                Atom::new("tc", vec![Term::var(0), Term::var(1)]),
                vec![Literal::pos("e", vec![Term::var(0), Term::var(1)])],
                &["X", "Y"],
            ),
            rule(
                Atom::new("tc", vec![Term::var(0), Term::var(2)]),
                vec![
                    Literal::pos("tc", vec![Term::var(0), Term::var(1)]),
                    Literal::pos("e", vec![Term::var(1), Term::var(2)]),
                ],
                &["X", "Y", "Z"],
            ),
        ]);
        p.push_fact("e", vec![Value::int(1), Value::int(2)]);
        p.push_fact("e", vec![Value::int(2), Value::int(3)]);
        let edb = Database::new();

        let mut m = Database::new();
        m.insert_values("e", vec![Value::int(1), Value::int(2)]);
        m.insert_values("e", vec![Value::int(2), Value::int(3)]);
        m.insert_values("tc", vec![Value::int(1), Value::int(2)]);
        m.insert_values("tc", vec![Value::int(2), Value::int(3)]);
        m.insert_values("tc", vec![Value::int(1), Value::int(3)]);
        assert!(is_stable_model(&p, &edb, &m).unwrap());

        // Remove one consequence: no longer a model.
        let mut short = Database::new();
        short.insert_values("e", vec![Value::int(1), Value::int(2)]);
        short.insert_values("e", vec![Value::int(2), Value::int(3)]);
        short.insert_values("tc", vec![Value::int(1), Value::int(2)]);
        short.insert_values("tc", vec![Value::int(2), Value::int(3)]);
        assert!(!is_stable_model(&p, &edb, &short).unwrap());

        // Add junk: a model, but not minimal.
        m.insert_values("tc", vec![Value::int(3), Value::int(1)]);
        assert!(!is_stable_model(&p, &edb, &m).unwrap());
    }

    #[test]
    fn infinite_reduct_model_is_rejected() {
        // n(0).  n(Y) <- n(X), Y = X + 1.  The reduct's least model is
        // infinite, so no finite M is stable; {n(0), n(1)} is all
        // derivable but not closed.
        let mut p = Program::from_rules(vec![rule(
            Atom::new("n", vec![Term::var(1)]),
            vec![
                Literal::pos("n", vec![Term::var(0)]),
                Literal::cmp(
                    gbc_ast::CmpOp::Eq,
                    gbc_ast::term::Expr::var(1),
                    gbc_ast::term::Expr::binary(
                        gbc_ast::term::ArithOp::Add,
                        gbc_ast::term::Expr::var(0),
                        gbc_ast::term::Expr::int(1),
                    ),
                ),
            ],
            &["X", "Y"],
        )]);
        p.push_fact("n", vec![Value::int(0)]);
        let mut m = Database::new();
        m.insert_values("n", vec![Value::int(0)]);
        m.insert_values("n", vec![Value::int(1)]);
        assert!(!is_stable_model(&p, &Database::new(), &m).unwrap());
    }

    #[test]
    fn missing_edb_fact_fails_fast() {
        let p = Program::new();
        let mut edb = Database::new();
        edb.insert_values("e", vec![Value::int(1)]);
        assert!(!is_stable_model(&p, &edb, &Database::new()).unwrap());
    }

    #[test]
    fn unrewritten_meta_goals_are_rejected() {
        let p = Program::from_rules(vec![rule(
            Atom::new("a", vec![Term::var(0)]),
            vec![
                Literal::pos("t", vec![Term::var(0)]),
                Literal::Choice { left: vec![], right: vec![Term::var(0)] },
            ],
            &["X"],
        )]);
        assert!(is_stable_model(&p, &Database::new(), &Database::new()).is_err());
    }
}
