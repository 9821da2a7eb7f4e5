//! Exhaustive enumeration of choice models.
//!
//! Lemma 1/2 of the paper state that the Choice Fixpoint is
//! (non-deterministically) *complete*: every stable model of a choice
//! program is produced by some instantiation of the one-consequence
//! operator γ. This module realises that completeness constructively by
//! branching on **every** γ candidate at every step — a DFS over the
//! tree of fixpoint runs — and collecting the distinct terminal
//! databases. Exponential in general, it is meant for the small
//! instances used to validate semantics (experiment V2).

use std::collections::btree_map::{BTreeMap, Entry};

use gbc_ast::Program;
use gbc_storage::Database;

use crate::choice::{ChoiceFixpoint, ChoiceFixpointConfig};
use crate::error::EngineError;

/// Budget for the enumeration tree.
#[derive(Clone, Copy, Debug)]
pub struct EnumerateConfig {
    /// Stop (with an error) after visiting this many DFS nodes.
    pub max_nodes: u64,
    /// Stop (with an error) after collecting this many distinct models.
    pub max_models: usize,
}

impl Default for EnumerateConfig {
    fn default() -> Self {
        EnumerateConfig { max_nodes: 100_000, max_models: 10_000 }
    }
}

/// All choice models of `program` over `edb`, as canonically rendered
/// databases in sorted order.
pub fn all_choice_models(program: &Program, edb: &Database) -> Result<Vec<Database>, EngineError> {
    all_choice_models_with(program, edb, EnumerateConfig::default())
}

/// [`all_choice_models`] with explicit budgets.
pub fn all_choice_models_with(
    program: &Program,
    edb: &Database,
    config: EnumerateConfig,
) -> Result<Vec<Database>, EngineError> {
    let root = ChoiceFixpoint::with_config(
        program,
        edb,
        ChoiceFixpointConfig { max_gamma_steps: config.max_nodes },
    )?;
    // Keyed by canonical form: the text that dedups the models also
    // orders them, so each model renders once.
    let mut models: BTreeMap<String, Database> = BTreeMap::new();
    let mut nodes: u64 = 0;
    dfs(root, &mut models, &mut nodes, &config)?;
    Ok(models.into_values().collect())
}

fn dfs(
    mut state: ChoiceFixpoint,
    models: &mut BTreeMap<String, Database>,
    nodes: &mut u64,
    config: &EnumerateConfig,
) -> Result<(), EngineError> {
    *nodes += 1;
    if *nodes > config.max_nodes {
        return Err(EngineError::StepLimit { steps: *nodes });
    }
    state.saturate_flat()?;
    let cands = state.candidates()?;
    if cands.is_empty() {
        let full = models.len() >= config.max_models;
        if let Entry::Vacant(slot) = models.entry(state.database().canonical_form()) {
            if full {
                return Err(EngineError::StepLimit { steps: *nodes });
            }
            slot.insert(state.into_database());
        }
        return Ok(());
    }
    for cand in &cands {
        let mut branch = state.clone();
        branch.commit(cand);
        dfs(branch, models, nodes, config)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::{Atom, Literal, Rule, Symbol, Term, Value};

    /// Example 1 of the paper with the grade column, as printed there.
    fn example1_with_grades() -> (Program, Database) {
        let rule = Rule::new(
            Atom::new("a_st", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
                Literal::Choice { left: vec![Term::var(0)], right: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let mut edb = Database::new();
        for (s, c, g) in
            [("andy", "engl", 4), ("mark", "engl", 2), ("ann", "math", 3), ("mark", "math", 2)]
        {
            edb.insert_values("takes", vec![Value::sym(s), Value::sym(c), Value::int(g)]);
        }
        (Program::from_rules(vec![rule]), edb)
    }

    #[test]
    fn example_1_has_exactly_the_three_paper_models() {
        let (p, edb) = example1_with_grades();
        let models = all_choice_models(&p, &edb).unwrap();
        assert_eq!(models.len(), 3, "the paper lists M1, M2, M3");
        let a_st = Symbol::intern("a_st");
        let mut signatures: Vec<Vec<String>> = models
            .iter()
            .map(|m| {
                let mut v: Vec<String> =
                    m.facts_of(a_st).iter().map(|r| format!("{}-{}", r[0], r[1])).collect();
                v.sort();
                v
            })
            .collect();
        signatures.sort();
        assert_eq!(
            signatures,
            vec![
                vec!["andy-engl".to_string(), "ann-math".to_string()],
                vec!["andy-engl".to_string(), "mark-math".to_string()],
                vec!["ann-math".to_string(), "mark-engl".to_string()],
            ]
        );
    }

    #[test]
    fn bi_st_c_has_exactly_the_two_paper_models() {
        // bi_st_c(St, Crs, G) <- takes(St, Crs, G), G > 1, least(G),
        //                        choice(St, Crs), choice(Crs, St).
        let rule = Rule::new(
            Atom::new("bi_st_c", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(
                    gbc_ast::CmpOp::Gt,
                    gbc_ast::term::Expr::var(2),
                    gbc_ast::term::Expr::int(1),
                ),
                Literal::Least { cost: Term::var(2), group: vec![] },
                Literal::Choice { left: vec![Term::var(0)], right: vec![Term::var(1)] },
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
            ],
            vec!["St".into(), "Crs".into(), "G".into()],
        );
        let (_, edb) = example1_with_grades();
        let p = Program::from_rules(vec![rule]);
        let models = all_choice_models(&p, &edb).unwrap();
        let bi = Symbol::intern("bi_st_c");
        let mut sigs: Vec<String> = models
            .iter()
            .map(|m| {
                m.facts_of(bi)
                    .iter()
                    .map(|r| format!("{}-{}-{}", r[0], r[1], r[2]))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        sigs.sort();
        sigs.dedup();
        // The paper's M1 = {bi_st_c(mark, engl, 2)}, M2 = {bi_st_c(mark, math, 2)}.
        assert_eq!(sigs, vec!["mark-engl-2".to_string(), "mark-math-2".to_string()]);
    }

    #[test]
    fn program_without_choice_has_one_model() {
        let mut p = Program::new();
        p.push_fact("e", vec![Value::int(1)]);
        let models = all_choice_models(&p, &Database::new()).unwrap();
        assert_eq!(models.len(), 1);
    }

    #[test]
    fn node_budget_is_enforced() {
        let (p, edb) = example1_with_grades();
        let cfg = EnumerateConfig { max_nodes: 2, max_models: 10 };
        assert!(matches!(
            all_choice_models_with(&p, &edb, cfg),
            Err(EngineError::StepLimit { .. })
        ));
    }
}
