//! Rule-body matching: the tuple-at-a-time join core.
//!
//! [`for_each_match`] enumerates every satisfying assignment of a rule
//! body against a [`Database`], invoking a callback per match. Literal
//! order follows sideways information passing — ground comparisons and
//! negations run as early as possible, `=` goals bind as soon as one
//! side is ground, positive atoms join through hash indices on their
//! bound argument positions — but the ordering itself is computed once
//! per rule by [`crate::plan`] rather than re-derived per call; this
//! module keeps the term-level primitives (`eval_term`, `eval_expr`,
//! `match_term`, `instantiate_head`) the executor is built from.
//!
//! Meta-goals (`choice`, `least`, `most`) are *skipped* here — they are
//! not first-order conditions on a single binding. Their handling lives
//! in [`crate::extrema`] and [`crate::choice`]. A `next` goal reaching
//! the matcher is an error: `gbc-core` expands those away first.

use gbc_ast::term::{ArithOp, Expr};
use gbc_ast::{Program, Rule, Symbol, Term, Value, VarId};
use gbc_storage::dictionary::{decode_ref, func_parts};
use gbc_storage::{Database, Row, RowsView, DICT_MISS};

use crate::bindings::Bindings;
use crate::error::EngineError;

/// Restricts one positive body literal to a fixed set of rows — the
/// delta mechanism of seminaive evaluation. The rows are a columnar
/// view (dictionary ids), typically a [`gbc_storage::Relation::since`]
/// suffix.
#[derive(Clone, Copy)]
pub struct Focus<'a> {
    /// Index into `rule.body` of the focused positive literal.
    pub literal: usize,
    /// The rows that occurrence may range over.
    pub rows: RowsView<'a>,
}

/// Evaluate a ground-able term under `b`. `None` if a variable is unbound.
pub fn eval_term(t: &Term, b: &Bindings) -> Option<Value> {
    match t {
        Term::Var(v) => b.get(*v).cloned(),
        Term::Const(c) => Some(c.clone()),
        Term::Func(f, args) => {
            let vals: Option<Vec<Value>> = args.iter().map(|a| eval_term(a, b)).collect();
            Some(Value::Func(*f, vals?.into()))
        }
    }
}

/// Evaluate an arithmetic expression. `Ok(None)` if a variable is
/// unbound; errors on type mismatches, overflow, division by zero.
pub fn eval_expr(e: &Expr, b: &Bindings) -> Result<Option<Value>, EngineError> {
    match e {
        Expr::Term(t) => Ok(eval_term(t, b)),
        Expr::Neg(inner) => match eval_expr(inner, b)? {
            None => Ok(None),
            Some(Value::Int(i)) => {
                i.checked_neg().map(|v| Some(Value::Int(v))).ok_or(EngineError::Overflow)
            }
            Some(other) => {
                Err(EngineError::TypeError { context: format!("unary minus on `{other}`") })
            }
        },
        Expr::Binary(op, l, r) => {
            let (Some(lv), Some(rv)) = (eval_expr(l, b)?, eval_expr(r, b)?) else {
                return Ok(None);
            };
            // max/min are defined on the full value order; the rest are
            // integer-only.
            if matches!(op, ArithOp::Max | ArithOp::Min) {
                let out = match op {
                    ArithOp::Max => lv.max(rv),
                    _ => lv.min(rv),
                };
                return Ok(Some(out));
            }
            let (Value::Int(a), Value::Int(c)) = (&lv, &rv) else {
                return Err(EngineError::TypeError { context: format!("`{lv}` {op:?} `{rv}`") });
            };
            let (a, c) = (*a, *c);
            let out = match op {
                ArithOp::Add => a.checked_add(c).ok_or(EngineError::Overflow)?,
                ArithOp::Sub => a.checked_sub(c).ok_or(EngineError::Overflow)?,
                ArithOp::Mul => a.checked_mul(c).ok_or(EngineError::Overflow)?,
                ArithOp::Div => {
                    if c == 0 {
                        return Err(EngineError::DivideByZero);
                    }
                    a.checked_div(c).ok_or(EngineError::Overflow)?
                }
                ArithOp::Mod => {
                    if c == 0 {
                        return Err(EngineError::DivideByZero);
                    }
                    a.checked_rem(c).ok_or(EngineError::Overflow)?
                }
                ArithOp::Max | ArithOp::Min => unreachable!("handled above"),
            };
            Ok(Some(Value::Int(out)))
        }
    }
}

/// Unify a term against a ground value, binding variables into `b` and
/// recording new bindings on `trail`. On `false`, the caller must roll
/// back the trail segment it owns.
pub fn match_term(t: &Term, v: &Value, b: &mut Bindings, trail: &mut Vec<VarId>) -> bool {
    match t {
        Term::Var(var) => match b.get(*var) {
            Some(bound) => bound == v,
            None => {
                b.bind(*var, v.clone());
                trail.push(*var);
                true
            }
        },
        Term::Const(c) => c == v,
        Term::Func(f, args) => match v {
            Value::Func(g, vals) if f == g && args.len() == vals.len() => {
                args.iter().zip(vals.iter()).all(|(t2, v2)| match_term(t2, v2, b, trail))
            }
            _ => false,
        },
    }
}

/// Unify a term against a **dictionary id** without decoding on the
/// fast paths — the columnar scan loop's counterpart of [`match_term`]:
///
/// * a variable bound with a known id compares two `u32`s;
/// * a fresh variable binds the id alone (its value is borrowed from
///   the global dictionary when read, so binding decodes nothing);
/// * constants compare against the decoded borrow;
/// * functor patterns destructure via [`func_parts`] and recurse in id
///   space.
pub fn match_term_id(t: &Term, id: u32, b: &mut Bindings, trail: &mut Vec<VarId>) -> bool {
    match t {
        Term::Var(var) => {
            let known = b.id_of(*var);
            if known != DICT_MISS {
                return known == id;
            }
            match b.get(*var) {
                Some(bound) => bound == decode_ref(id),
                None => {
                    b.bind_encoded(*var, id);
                    trail.push(*var);
                    true
                }
            }
        }
        Term::Const(c) => c == decode_ref(id),
        Term::Func(f, args) => match func_parts(id) {
            Some((g, ids)) if *f == g && args.len() == ids.len() => {
                args.iter().zip(ids.iter()).all(|(t2, &i2)| match_term_id(t2, i2, b, trail))
            }
            _ => false,
        },
    }
}

/// The `(predicate, row)` of each fact of `program`'s fact table,
/// predicate by predicate, each in source order.
pub fn fact_rows(program: &Program) -> impl Iterator<Item = (Symbol, Row)> + '_ {
    program.facts().map(|(pred, args, _)| (pred, Row::new(args.to_vec())))
}

/// Instantiate the rule head under a complete body match.
pub fn instantiate_head(rule: &Rule, b: &Bindings) -> Result<Row, EngineError> {
    let vals: Option<Vec<Value>> = rule.head.args.iter().map(|t| eval_term(t, b)).collect();
    match vals {
        Some(v) => Ok(Row::new(v)),
        None => Err(EngineError::NonGroundHead { rule: rule.to_string() }),
    }
}

/// The ground rows a complete body match joined over: one `(pred,
/// row)` per positive body atom, instantiated under `b`. This is the
/// parent set provenance records for a derived head row.
pub fn parent_rows(rule: &Rule, b: &Bindings) -> Vec<(gbc_ast::Symbol, Row)> {
    rule.positive_atoms()
        .filter_map(|a| {
            let vals: Option<Vec<Value>> = a.args.iter().map(|t| eval_term(t, b)).collect();
            vals.map(|v| (a.pred, Row::new(v)))
        })
        .collect()
}

/// Enumerate all satisfying bindings of `rule`'s body. `on_match`
/// receives the binding frame; returning `false` stops the enumeration
/// early (used by existence checks).
pub fn for_each_match(
    db: &Database,
    rule: &Rule,
    focus: Option<Focus<'_>>,
    on_match: &mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    for_each_match_opts(db, None, rule, focus, on_match)
}

/// Like [`for_each_match`], but negated atoms are tested against
/// `neg_db` instead of `db` when it is given. This is the primitive
/// behind the Gelfond–Lifschitz reduct evaluation in [`crate::stable`]:
/// positives grow a least-model candidate while negatives stay fixed to
/// the model being checked.
pub fn for_each_match_opts(
    db: &Database,
    neg_db: Option<&Database>,
    rule: &Rule,
    focus: Option<Focus<'_>>,
    on_match: &mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    // One-shot path: compile only the variant this call needs and run
    // it. Hot-path callers hold a [`crate::plan::PlanCache`] and go
    // through [`crate::plan::for_each_match_plan`] instead, paying the
    // compile exactly once per rule.
    let variant = crate::plan::JoinPlan::compile(rule, focus.map(|f| f.literal))?;
    crate::plan::execute(db, neg_db, rule, &variant, focus, on_match)
}

/// Evaluate a rule completely (no extrema/choice handling): collect the
/// instantiated head rows of all body matches.
pub fn eval_rule_plain(
    db: &Database,
    rule: &Rule,
    focus: Option<Focus<'_>>,
) -> Result<Vec<Row>, EngineError> {
    let mut out = Vec::new();
    for_each_match(db, rule, focus, &mut |b| {
        out.push(instantiate_head(rule, b)?);
        Ok(true)
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::{CmpOp, Literal, Symbol};

    fn db_edges(edges: &[(&str, &str, i64)]) -> Database {
        let mut db = Database::new();
        for &(x, y, c) in edges {
            db.insert_values("g", vec![Value::sym(x), Value::sym(y), Value::int(c)]);
        }
        db
    }

    #[test]
    fn joins_two_atoms_through_shared_variable() {
        // path(X, Z) <- g(X, Y, _), g(Y, Z, _).
        let rule = Rule::new(
            gbc_ast::Atom::new("path", vec![Term::var(0), Term::var(2)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(3)]),
                Literal::pos("g", vec![Term::var(1), Term::var(2), Term::var(4)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into(), "_".into(), "_2".into()],
        );
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("b", "d", 3)]);
        let mut rows = eval_rule_plain(&db, &rule, None).unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                Row::new(vec![Value::sym("a"), Value::sym("c")]),
                Row::new(vec![Value::sym("a"), Value::sym("d")]),
            ]
        );
    }

    #[test]
    fn comparisons_filter_and_assign() {
        // out(X, D) <- g(X, _, C), C > 1, D = C * 10.
        let rule = Rule::new(
            gbc_ast::Atom::new("out", vec![Term::var(0), Term::var(3)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(CmpOp::Gt, Expr::var(2), Expr::int(1)),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(3),
                    Expr::binary(ArithOp::Mul, Expr::var(2), Expr::int(10)),
                ),
            ],
            vec!["X".into(), "_".into(), "C".into(), "D".into()],
        );
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2)]);
        let rows = eval_rule_plain(&db, &rule, None).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::sym("b"), Value::int(20)])]);
    }

    #[test]
    fn negation_checks_absence() {
        // lonely(X) <- node(X), not g(X, X, 0).
        let mut db = Database::new();
        db.insert_values("node", vec![Value::sym("a")]);
        db.insert_values("node", vec![Value::sym("b")]);
        db.insert_values("g", vec![Value::sym("a"), Value::sym("a"), Value::int(0)]);
        let rule = Rule::new(
            gbc_ast::Atom::new("lonely", vec![Term::var(0)]),
            vec![
                Literal::pos("node", vec![Term::var(0)]),
                Literal::neg("g", vec![Term::var(0), Term::var(0), Term::int(0)]),
            ],
            vec!["X".into()],
        );
        let rows = eval_rule_plain(&db, &rule, None).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::sym("b")])]);
    }

    #[test]
    fn focus_restricts_one_occurrence() {
        // p(X, Z) <- g(X, Y, _), g(Y, Z, _).  Focus the first g on a
        // single row: only its continuations appear.
        let rule = Rule::new(
            gbc_ast::Atom::new("p", vec![Term::var(0), Term::var(2)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(3)]),
                Literal::pos("g", vec![Term::var(1), Term::var(2), Term::var(4)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into(), "_".into(), "_2".into()],
        );
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]);
        let mut delta = gbc_storage::ColumnBuf::new();
        delta.push_values(&[Value::sym("b"), Value::sym("c"), Value::int(2)]);
        let rows =
            eval_rule_plain(&db, &rule, Some(Focus { literal: 0, rows: delta.view() })).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::sym("b"), Value::sym("d")])]);
    }

    #[test]
    fn functor_patterns_destructure_values() {
        // left(X) <- h(t(X, Y)).
        let mut db = Database::new();
        db.insert_values("h", vec![Value::func("t", vec![Value::sym("a"), Value::sym("b")])]);
        db.insert_values("h", vec![Value::sym("leaf")]);
        let rule = Rule::new(
            gbc_ast::Atom::new("left", vec![Term::var(0)]),
            vec![Literal::pos(
                "h",
                vec![Term::Func(Symbol::intern("t"), vec![Term::var(0), Term::var(1)])],
            )],
            vec!["X".into(), "Y".into()],
        );
        let rows = eval_rule_plain(&db, &rule, None).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::sym("a")])]);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        // loop(X) <- g(X, X, _).
        let db = db_edges(&[("a", "a", 1), ("a", "b", 1)]);
        let rule = Rule::new(
            gbc_ast::Atom::new("loop", vec![Term::var(0)]),
            vec![Literal::pos("g", vec![Term::var(0), Term::var(0), Term::var(1)])],
            vec!["X".into(), "_".into()],
        );
        let rows = eval_rule_plain(&db, &rule, None).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::sym("a")])]);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let rule = Rule::new(
            gbc_ast::Atom::new("p", vec![Term::var(1)]),
            vec![
                Literal::pos("q", vec![Term::var(0)]),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(1),
                    Expr::binary(ArithOp::Div, Expr::var(0), Expr::int(0)),
                ),
            ],
            vec!["X".into(), "Y".into()],
        );
        let mut db = Database::new();
        db.insert_values("q", vec![Value::int(4)]);
        assert_eq!(eval_rule_plain(&db, &rule, None), Err(EngineError::DivideByZero));
    }

    #[test]
    fn arith_on_symbols_is_a_type_error() {
        let rule = Rule::new(
            gbc_ast::Atom::new("p", vec![Term::var(1)]),
            vec![
                Literal::pos("q", vec![Term::var(0)]),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(1),
                    Expr::binary(ArithOp::Add, Expr::var(0), Expr::int(1)),
                ),
            ],
            vec!["X".into(), "Y".into()],
        );
        let mut db = Database::new();
        db.insert_values("q", vec![Value::sym("a")]);
        assert!(matches!(eval_rule_plain(&db, &rule, None), Err(EngineError::TypeError { .. })));
    }

    #[test]
    fn max_min_work_on_any_values() {
        // m(M) <- q(X), r(Y), M = max(X, Y).
        let rule = Rule::new(
            gbc_ast::Atom::new("m", vec![Term::var(2)]),
            vec![
                Literal::pos("q", vec![Term::var(0)]),
                Literal::pos("r", vec![Term::var(1)]),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(2),
                    Expr::binary(ArithOp::Max, Expr::var(0), Expr::var(1)),
                ),
            ],
            vec!["X".into(), "Y".into(), "M".into()],
        );
        let mut db = Database::new();
        db.insert_values("q", vec![Value::int(3)]);
        db.insert_values("r", vec![Value::int(7)]);
        let rows = eval_rule_plain(&db, &rule, None).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::int(7)])]);
    }

    #[test]
    fn early_stop_halts_enumeration() {
        let rule = Rule::new(
            gbc_ast::Atom::new("p", vec![Term::var(0)]),
            vec![Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)])],
            vec!["X".into(), "Y".into(), "C".into()],
        );
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]);
        let mut count = 0;
        for_each_match(&db, &rule, None, &mut |_| {
            count += 1;
            Ok(count < 2)
        })
        .unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn unexpanded_next_is_rejected() {
        let rule = Rule::new(
            gbc_ast::Atom::new("p", vec![Term::var(0)]),
            vec![Literal::Next { var: VarId(0) }],
            vec!["I".into()],
        );
        let db = Database::new();
        assert!(matches!(
            eval_rule_plain(&db, &rule, None),
            Err(EngineError::UnexpandedNext { .. })
        ));
    }
}
