//! Stratified evaluation: the perfect model of programs with negation
//! and extrema outside recursion.
//!
//! The classic pipeline (Przymusinski; reference \[8\] of the paper):
//! build the predicate dependency graph, condense it into strongly
//! connected components, refuse programs where a negative (or extrema)
//! dependency stays inside a component, and otherwise saturate one
//! stratum at a time with the seminaive driver.

use std::collections::HashMap;

use gbc_ast::{Literal, Program, Rule, Symbol};
use gbc_storage::Database;

use crate::error::EngineError;
use crate::eval::fact_rows;
use crate::graph::DiGraph;
use crate::seminaive::Seminaive;

/// The predicate dependency structure of a program.
pub struct DependencyGraph {
    /// Dense id per predicate.
    pub pred_ids: HashMap<Symbol, usize>,
    /// Inverse of `pred_ids`.
    pub preds: Vec<Symbol>,
    /// Edges head → body predicate.
    pub graph: DiGraph,
    /// `(head, body)` pairs that are *negative* dependencies: through
    /// negation, or through any body atom of a rule with extrema (the
    /// `least`/`most` rewriting introduces negation over the whole body).
    pub negative: Vec<(usize, usize)>,
}

impl DependencyGraph {
    /// Build the dependency graph of `program`.
    pub fn build(program: &Program) -> DependencyGraph {
        let mut pred_ids: HashMap<Symbol, usize> = HashMap::new();
        let mut preds: Vec<Symbol> = Vec::new();
        let id = |s: Symbol, pred_ids: &mut HashMap<Symbol, usize>, preds: &mut Vec<Symbol>| {
            *pred_ids.entry(s).or_insert_with(|| {
                preds.push(s);
                preds.len() - 1
            })
        };
        // First pass: number every predicate.
        for r in &program.rules {
            id(r.head.pred, &mut pred_ids, &mut preds);
            for l in &r.body {
                if let Literal::Pos(a) | Literal::Neg(a) = l {
                    id(a.pred, &mut pred_ids, &mut preds);
                }
            }
        }
        let mut graph = DiGraph::new(preds.len());
        let mut negative = Vec::new();
        for r in &program.rules {
            let h = pred_ids[&r.head.pred];
            let rule_has_extrema = r.has_extrema();
            for l in &r.body {
                match l {
                    Literal::Pos(a) => {
                        let b = pred_ids[&a.pred];
                        graph.add_edge(h, b);
                        if rule_has_extrema {
                            negative.push((h, b));
                        }
                    }
                    Literal::Neg(a) => {
                        let b = pred_ids[&a.pred];
                        graph.add_edge(h, b);
                        negative.push((h, b));
                    }
                    _ => {}
                }
            }
        }
        DependencyGraph { pred_ids, preds, graph, negative }
    }

    /// SCCs in dependency-first order.
    pub fn strata(&self) -> Vec<Vec<usize>> {
        self.graph.sccs()
    }

    /// The recursive clique (SCC) containing `pred`, as predicate symbols.
    pub fn clique_of(&self, pred: Symbol) -> Vec<Symbol> {
        let Some(&pid) = self.pred_ids.get(&pred) else {
            return Vec::new();
        };
        self.strata()
            .into_iter()
            .find(|c| c.contains(&pid))
            .map(|c| c.into_iter().map(|i| self.preds[i]).collect())
            .unwrap_or_default()
    }
}

/// Evaluate a stratified program (negation/extrema allowed only across
/// strata; no `choice`, no `next`) over `edb`, returning the perfect
/// model. Facts embedded in the program are honoured as well.
pub fn evaluate_stratified(program: &Program, edb: &Database) -> Result<Database, EngineError> {
    program.validate()?;
    for r in &program.rules {
        if r.has_choice() || r.has_next() {
            return Err(EngineError::Unstratified {
                detail: format!("rule `{r}` uses choice/next; use the choice fixpoint instead"),
            });
        }
    }

    let dg = DependencyGraph::build(program);
    let strata = dg.strata();

    // Stratification check: no negative dependency inside an SCC.
    let mut comp_of = vec![usize::MAX; dg.preds.len()];
    for (ci, comp) in strata.iter().enumerate() {
        for &p in comp {
            comp_of[p] = ci;
        }
    }
    for &(h, b) in &dg.negative {
        if comp_of[h] == comp_of[b] {
            return Err(EngineError::Unstratified {
                detail: format!(
                    "negative/extrema dependency from `{}` to `{}` inside a recursive clique",
                    dg.preds[h], dg.preds[b]
                ),
            });
        }
    }

    let mut db = edb.clone();
    for (pred, row) in fact_rows(program) {
        db.insert(pred, row);
    }

    // Saturate stratum by stratum.
    let rules: Vec<&Rule> = program.proper_rules().collect();
    for comp in &strata {
        let comp_preds: Vec<Symbol> = comp.iter().map(|&i| dg.preds[i]).collect();
        let stratum_rules: Vec<Rule> = rules
            .iter()
            .filter(|r| comp_preds.contains(&r.head.pred))
            .map(|&r| r.clone())
            .collect();
        if stratum_rules.is_empty() {
            continue;
        }
        Seminaive::new(stratum_rules).saturate(&mut db)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::{Atom, Term, Value};

    fn rule(head: Atom, body: Vec<Literal>, vars: &[&str]) -> Rule {
        Rule::new(head, body, vars.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn negation_across_strata() {
        // reach(X) <- source(X).
        // reach(Y) <- reach(X), e(X, Y).
        // unreachable(X) <- node(X), not reach(X).
        let program = Program::from_rules(vec![
            rule(
                Atom::new("reach", vec![Term::var(0)]),
                vec![Literal::pos("source", vec![Term::var(0)])],
                &["X"],
            ),
            rule(
                Atom::new("reach", vec![Term::var(1)]),
                vec![
                    Literal::pos("reach", vec![Term::var(0)]),
                    Literal::pos("e", vec![Term::var(0), Term::var(1)]),
                ],
                &["X", "Y"],
            ),
            rule(
                Atom::new("unreachable", vec![Term::var(0)]),
                vec![
                    Literal::pos("node", vec![Term::var(0)]),
                    Literal::neg("reach", vec![Term::var(0)]),
                ],
                &["X"],
            ),
        ]);
        let mut edb = Database::new();
        for n in ["a", "b", "c", "d"] {
            edb.insert_values("node", vec![Value::sym(n)]);
        }
        edb.insert_values("source", vec![Value::sym("a")]);
        edb.insert_values("e", vec![Value::sym("a"), Value::sym("b")]);
        edb.insert_values("e", vec![Value::sym("c"), Value::sym("d")]);
        let m = evaluate_stratified(&program, &edb).unwrap();
        let unreachable = Symbol::intern("unreachable");
        let got: Vec<String> = m.facts_of(unreachable).iter().map(|r| r[0].to_string()).collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&"c".to_string()) && got.contains(&"d".to_string()));
    }

    #[test]
    fn rejects_negation_through_recursion() {
        // win(X) <- move(X, Y), not win(Y).  — not stratified.
        let program = Program::from_rules(vec![rule(
            Atom::new("win", vec![Term::var(0)]),
            vec![
                Literal::pos("move", vec![Term::var(0), Term::var(1)]),
                Literal::neg("win", vec![Term::var(1)]),
            ],
            &["X", "Y"],
        )]);
        assert!(matches!(
            evaluate_stratified(&program, &Database::new()),
            Err(EngineError::Unstratified { .. })
        ));
    }

    #[test]
    fn rejects_extrema_through_recursion() {
        // short(X, C) <- short(Y, C1), e(Y, X, C2), C = C1 + C2, least(C, X).
        let program = Program::from_rules(vec![rule(
            Atom::new("short", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("short", vec![Term::var(2), Term::var(3)]),
                Literal::pos("e", vec![Term::var(2), Term::var(0), Term::var(4)]),
                Literal::cmp(
                    gbc_ast::CmpOp::Eq,
                    gbc_ast::term::Expr::var(1),
                    gbc_ast::term::Expr::binary(
                        gbc_ast::term::ArithOp::Add,
                        gbc_ast::term::Expr::var(3),
                        gbc_ast::term::Expr::var(4),
                    ),
                ),
                Literal::Least { cost: Term::var(1), group: vec![Term::var(0)] },
            ],
            &["X", "C", "Y", "C1", "C2"],
        )]);
        assert!(matches!(
            evaluate_stratified(&program, &Database::new()),
            Err(EngineError::Unstratified { .. })
        ));
    }

    #[test]
    fn rejects_choice_rules() {
        let program = Program::from_rules(vec![rule(
            Atom::new("a", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("t", vec![Term::var(0), Term::var(1)]),
                Literal::Choice { left: vec![Term::var(0)], right: vec![Term::var(1)] },
            ],
            &["X", "Y"],
        )]);
        assert!(matches!(
            evaluate_stratified(&program, &Database::new()),
            Err(EngineError::Unstratified { .. })
        ));
    }

    #[test]
    fn program_facts_are_loaded() {
        let mut program = Program::new();
        program.push_fact("p", vec![Value::int(1)]);
        let m = evaluate_stratified(&program, &Database::new()).unwrap();
        assert_eq!(m.count(Symbol::intern("p")), 1);
    }

    #[test]
    fn extrema_on_lower_stratum_is_fine() {
        // best(X, C) <- arc(X, C), least(C, X).   (arc is EDB)
        let program = Program::from_rules(vec![rule(
            Atom::new("best", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("arc", vec![Term::var(0), Term::var(1)]),
                Literal::Least { cost: Term::var(1), group: vec![Term::var(0)] },
            ],
            &["X", "C"],
        )]);
        let mut edb = Database::new();
        edb.insert_values("arc", vec![Value::sym("a"), Value::int(3)]);
        edb.insert_values("arc", vec![Value::sym("a"), Value::int(1)]);
        let m = evaluate_stratified(&program, &edb).unwrap();
        assert_eq!(
            m.facts_of(Symbol::intern("best")),
            vec![gbc_storage::Row::new(vec![Value::sym("a"), Value::int(1)])]
        );
    }

    #[test]
    fn clique_of_reports_mutual_recursion() {
        // p <- q; q <- p.
        let program = Program::from_rules(vec![
            rule(
                Atom::new("p", vec![Term::var(0)]),
                vec![Literal::pos("q", vec![Term::var(0)])],
                &["X"],
            ),
            rule(
                Atom::new("q", vec![Term::var(0)]),
                vec![Literal::pos("p", vec![Term::var(0)])],
                &["X"],
            ),
        ]);
        let dg = DependencyGraph::build(&program);
        let clique = dg.clique_of(Symbol::intern("p"));
        assert_eq!(clique.len(), 2);
    }
}
