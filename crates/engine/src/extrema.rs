//! In-rule `least` / `most` evaluation.
//!
//! Per the paper (Section 2), `least(C, G)` in a rule body selects,
//! among the bindings that satisfy the rest of the body, those for which
//! no other binding with the same value of the grouping terms `G` has a
//! smaller value of `C`. `most` is the dual. This is the direct
//! (non-rewritten) implementation of the negation expansion:
//!
//! ```text
//! bttm(S, C, G) <- takes(S, C, G), G > 1,
//!                  ¬(takes(S', C, G'), G' > 1, G' < G).
//! ```
//!
//! The filter runs over the *complete* set of body matches, which is why
//! rules with extrema are never focused on a delta by the seminaive
//! driver (see [`crate::seminaive`]).

use gbc_ast::{Literal, Rule, Term, Value};
use gbc_storage::{Database, Row};

use crate::bindings::Bindings;
use crate::error::EngineError;
use crate::eval::{eval_term, for_each_match, instantiate_head, Focus};
use crate::plan::{for_each_match_plan, RulePlan};

/// Collect the binding frames of every body match (cloned snapshots).
pub fn collect_matches(
    db: &Database,
    rule: &Rule,
    focus: Option<Focus<'_>>,
) -> Result<Vec<Bindings>, EngineError> {
    let mut frames = Vec::new();
    for_each_match(db, rule, focus, &mut |b| {
        frames.push(b.clone());
        Ok(true)
    })?;
    Ok(frames)
}

/// [`collect_matches`] through a precompiled plan — the hot-path
/// variant used by the choice fixpoint and the greedy executor.
pub fn collect_matches_plan(
    db: &Database,
    rule: &Rule,
    plan: &RulePlan,
    focus: Option<Focus<'_>>,
) -> Result<Vec<Bindings>, EngineError> {
    let mut frames = Vec::new();
    for_each_match_plan(db, rule, plan, focus, &mut |b| {
        frames.push(b.clone());
        Ok(true)
    })?;
    Ok(frames)
}

fn eval_ground(t: &Term, b: &Bindings, rule: &Rule) -> Result<Value, EngineError> {
    eval_term(t, b).ok_or_else(|| EngineError::NonGroundHead { rule: rule.to_string() })
}

/// Apply every `least`/`most` goal of `rule` (in body order) to a set of
/// binding frames, returning the survivors.
pub fn filter_extrema(
    rule: &Rule,
    mut frames: Vec<Bindings>,
) -> Result<Vec<Bindings>, EngineError> {
    for lit in &rule.body {
        let (cost_t, group_t, is_least) = match lit {
            Literal::Least { cost, group } => (cost, group, true),
            Literal::Most { cost, group } => (cost, group, false),
            _ => continue,
        };
        // Pass 1: best cost per group value.
        let mut best: std::collections::HashMap<Vec<Value>, Value> =
            std::collections::HashMap::new();
        let mut keyed: Vec<(Vec<Value>, Value)> = Vec::with_capacity(frames.len());
        for b in &frames {
            let group: Vec<Value> =
                group_t.iter().map(|t| eval_ground(t, b, rule)).collect::<Result<_, _>>()?;
            let cost = eval_ground(cost_t, b, rule)?;
            match best.get_mut(&group) {
                Some(cur) => {
                    let better = if is_least { cost < *cur } else { cost > *cur };
                    if better {
                        *cur = cost.clone();
                    }
                }
                None => {
                    best.insert(group.clone(), cost.clone());
                }
            }
            keyed.push((group, cost));
        }
        // Pass 2: retain ties with the best cost.
        let mut keep =
            keyed.iter().map(|(g, c)| best.get(g) == Some(c)).collect::<Vec<bool>>().into_iter();
        frames.retain(|_| keep.next().unwrap_or(false));
    }
    Ok(frames)
}

/// Evaluate a rule that may contain extrema goals: all body matches,
/// extrema-filtered, heads instantiated (duplicates preserved — the
/// relation insert deduplicates).
pub fn eval_rule_with_extrema(db: &Database, rule: &Rule) -> Result<Vec<Row>, EngineError> {
    let frames = collect_matches(db, rule, None)?;
    let frames = filter_extrema(rule, frames)?;
    frames.iter().map(|b| instantiate_head(rule, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::term::Expr;
    use gbc_ast::{Atom, CmpOp};

    /// takes(St, Crs, G) facts from the paper's Example 1 (with grades).
    fn takes_db() -> Database {
        let mut db = Database::new();
        for (s, c, g) in
            [("andy", "engl", 4), ("mark", "engl", 2), ("ann", "math", 3), ("mark", "math", 2)]
        {
            db.insert_values("takes", vec![Value::sym(s), Value::sym(c), Value::int(g)]);
        }
        db
    }

    #[test]
    fn paper_bttm_st_example() {
        // bttm_st(St, Crs, G) <- takes(St, Crs, G), G > 1, least(G, Crs).
        let rule = Rule::new(
            Atom::new("bttm_st", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(CmpOp::Gt, Expr::var(2), Expr::int(1)),
                Literal::Least { cost: Term::var(2), group: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let mut rows = eval_rule_with_extrema(&takes_db(), &rule).unwrap();
        rows.sort();
        // Per course: engl → mark (2); math → mark (2).
        assert_eq!(
            rows,
            vec![
                Row::new(vec![Value::sym("mark"), Value::sym("engl"), Value::int(2)]),
                Row::new(vec![Value::sym("mark"), Value::sym("math"), Value::int(2)]),
            ]
        );
    }

    #[test]
    fn global_least_keeps_all_ties() {
        // m(St, Crs, G) <- takes(St, Crs, G), least(G).
        let rule = Rule::new(
            Atom::new("m", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::Least { cost: Term::var(2), group: vec![] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let mut rows = eval_rule_with_extrema(&takes_db(), &rule).unwrap();
        rows.sort();
        // Global minimum grade 2 is achieved twice.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[2] == Value::int(2)));
    }

    #[test]
    fn most_is_the_dual() {
        let rule = Rule::new(
            Atom::new("top", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::Most { cost: Term::var(2), group: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let mut rows = eval_rule_with_extrema(&takes_db(), &rule).unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                Row::new(vec![Value::sym("andy"), Value::sym("engl"), Value::int(4)]),
                Row::new(vec![Value::sym("ann"), Value::sym("math"), Value::int(3)]),
            ]
        );
    }

    #[test]
    fn sequential_extrema_compose() {
        // Among per-course minima, take the course(s) with the highest
        // such minimum: least(G, Crs) then most(G).
        let rule = Rule::new(
            Atom::new("x", vec![Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::Least { cost: Term::var(2), group: vec![Term::var(1)] },
                Literal::Most { cost: Term::var(2), group: vec![] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let rows = eval_rule_with_extrema(&takes_db(), &rule).unwrap();
        // Per-course minima are engl→2, math→2; both tie at the most step.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_match_set_survives() {
        let rule = Rule::new(
            Atom::new("m", vec![Term::var(0)]),
            vec![
                Literal::pos("nothing", vec![Term::var(0)]),
                Literal::Least { cost: Term::var(0), group: vec![] },
            ],
            vec!["X".into()],
        );
        let rows = eval_rule_with_extrema(&Database::new(), &rule).unwrap();
        assert!(rows.is_empty());
    }
}
