//! Gelfond–Lifschitz stable-model checking.
//!
//! Used to validate the paper's Theorem 1 ("every set of facts produced
//! by the Choice Fixpoint is a stable model") on actual executor
//! outputs: `gbc-core` rewrites a choice program into its negative
//! form, completes the candidate model with the `chosen`/`diffChoice`
//! facts, and calls [`is_stable_model`].
//!
//! The check avoids explicit grounding: the GL reduct `P^M` is the
//! positive program whose negated atoms are *tested against the fixed
//! candidate `M`*, so its least model is computed by an ordinary
//! fixpoint with [`crate::eval::for_each_match_opts`] pointing negation
//! at `M`. `M` is stable iff that least model equals `M`. Any derived
//! fact outside `M` disproves stability immediately (and bounds the
//! fixpoint, so the check terminates even for programs with arithmetic).

use gbc_ast::Program;
use gbc_storage::Database;

use crate::error::EngineError;
use crate::eval::{fact_rows, for_each_match_opts, instantiate_head};

/// Is `m` a stable model of `program ∪ edb`?
///
/// `program` may contain positive/negated atoms and comparisons only —
/// `choice`, `least`, `most` and `next` must have been rewritten away
/// (that is precisely the reduction the paper uses to *define* their
/// semantics). `m` must contain the EDB facts.
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

    // Least model of the reduct, seeded with EDB and program facts.
    let mut db = edb.clone();
    for (pred, row) in fact_rows(program) {
        if !m.contains(pred, &row) {
            return Ok(false); // a fact of the program is missing from M
        }
        db.insert(pred, row);
    }
    // EDB must be inside M as well.
    for (pred, row) in edb.iter_all() {
        if !m.contains(pred, &row) {
            return Ok(false);
        }
    }

    loop {
        let mut grew = false;
        let mut escaped = false;
        for rule in &program.rules {
            let mut derived = Vec::new();
            for_each_match_opts(&db, Some(m), rule, None, &mut |b| {
                derived.push(instantiate_head(rule, b)?);
                Ok(true)
            })?;
            for row in derived {
                if !m.contains(rule.head.pred, &row) {
                    // The reduct derives something outside M: M is not a
                    // model of the reduct (or not minimal-equal) — in
                    // either case not stable.
                    escaped = true;
                    break;
                }
                if db.insert(rule.head.pred, row) {
                    grew = true;
                }
            }
            if escaped {
                break;
            }
        }
        if escaped {
            return Ok(false);
        }
        if !grew {
            break;
        }
    }

    // db ⊆ m by construction; equality ⇔ equal cardinality.
    Ok(db.total_facts() == m.total_facts())
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
