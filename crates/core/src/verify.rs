//! Theorem 1 validation: "every set of facts produced by the Choice
//! Fixpoint is a stable model".
//!
//! Given a run of either executor, reconstruct the model of the fully
//! rewritten (negative) program — the run's database plus the
//! `chosen_i` facts it committed, completed with the derived
//! `diffchoice_*` and `better_*` relations — and hand it to the
//! Gelfond–Lifschitz checker of `gbc-engine`.

use gbc_ast::{Program, Rule};
use gbc_storage::{Database, Row};

use crate::error::CoreError;
use crate::exec::{ChosenRecord, GreedyRun};
use crate::rewrite::next::with_stage_groups;
use crate::rewrite::rewrite_full;

/// Check that `run` is a stable model of `program ∪ edb`.
///
/// `program` is the *original* program (with `choice`/`least`/`next`),
/// one that [`crate::compile`] admitted;
/// the rewriting to negation happens here, after each next rule's
/// extremum is grouped by its stage variable
/// ([`with_stage_groups`]) — the semantics the greedy executor
/// implements. `run.chosen` must carry the committed choices (both
/// executors record them).
pub fn verify_stable_model(
    program: &Program,
    edb: &Database,
    run: &GreedyRun,
) -> Result<bool, CoreError> {
    let program = &with_stage_groups(program);
    let fr = rewrite_full(program);

    let choice_rules = choice_rule_indices(program);

    // M₀ = run database + chosen facts.
    let mut m0 = run.db.clone();
    for rec in &run.chosen {
        let ordinal = choice_rules.iter().position(|&i| i == rec.rule_idx).ok_or_else(|| {
            CoreError::NotStageProgram {
                detail: format!("chosen record for non-choice rule {}", rec.rule_idx),
            }
        })?;
        m0.insert(fr.chosen_preds[ordinal], Row::new(rec.chosen_args.clone()));
    }

    // Complete M with the auxiliary relations (diffchoice, better).
    let aux_rules: Vec<Rule> =
        fr.program.rules.iter().filter(|r| fr.aux_preds.contains(&r.head.pred)).cloned().collect();
    let m = gbc_engine::evaluate_stratified(&Program::from_rules(aux_rules), &m0)?;

    Ok(gbc_engine::is_stable_model(&fr.program, edb, &m)?)
}

/// The indices of `program`'s choice rules, in rule order: entry `k`
/// is the rule whose `chosen_k` the rewriting generates. A rule is a
/// choice rule once `next` is expanded, which adds choice goals in
/// place, so this reads the same off the original program and the
/// expanded one.
fn choice_rule_indices(program: &Program) -> Vec<usize> {
    let rules = program.rules.iter().enumerate();
    rules.filter(|(_, r)| r.has_choice() || r.has_next()).map(|(i, _)| i).collect()
}

/// Convenience: verify a run of the generic engine fixpoint by adapting
/// its committed-candidate log.
pub fn records_from_engine(
    fixpoint: &gbc_engine::ChoiceFixpoint,
    expanded: &Program,
) -> Vec<ChosenRecord> {
    let choice_rules = choice_rule_indices(expanded);
    fixpoint
        .committed()
        .iter()
        .map(|c| ChosenRecord {
            rule_idx: choice_rules[c.rule],
            chosen_args: c.chosen_args.clone(),
        })
        .collect()
}
