//! The paper's three meta-level rewritings, applied in this order
//! (Section 2, end: "the actual program defining this semantics is
//! obtained by applying first the `next` expansion, then the rewriting
//! for `choice` and, finally, the rewriting for `least`"):
//!
//! 1. `next::expand_next` — `next(I)` → `p(_, I1), I = I1 + 1,
//!    choice(I, W), choice(W, I)`;
//! 2. [`choice::rewrite_choice`] — `choice` goals → `chosen_i` /
//!    `diffchoice_i_j` rules with negation (Saccà–Zaniolo);
//! 3. [`least::rewrite_least`] — `least`/`most` goals → negated
//!    `better`-witness subgoals.
//!
//! The output of the full pipeline is an ordinary program with negation
//! whose **stable models define the semantics** of the original; the
//! operational engines (`gbc-engine`'s choice fixpoint, this crate's
//! greedy executor) are validated against it via the Gelfond–Lifschitz
//! checker (see [`crate::verify`]).

pub mod choice;
pub mod least;
pub mod next;

use gbc_ast::{Symbol, VarId};

/// Allocate a fresh variable named after `hint` (uniquified against the
/// existing names) and return its id.
pub(crate) fn fresh_var(var_names: &mut Vec<String>, hint: &str) -> VarId {
    let mut name = hint.to_owned();
    let mut k = 1;
    while var_names.iter().any(|n| n == &name) {
        k += 1;
        name = format!("{hint}{k}");
    }
    let id = VarId(var_names.len() as u32);
    var_names.push(name);
    id
}

/// Allocate a predicate symbol `base` uniquified against `taken`.
pub(crate) fn fresh_pred(base: &str, taken: &mut Vec<Symbol>) -> Symbol {
    let mut name = base.to_owned();
    let mut k = 1;
    loop {
        let s = Symbol::intern(&name);
        if !taken.contains(&s) {
            taken.push(s);
            return s;
        }
        k += 1;
        name = format!("{base}_{k}");
    }
}

/// Pipeline output: the fully rewritten (negative) program plus the
/// bookkeeping needed to reconstruct auxiliary relations from a run.
#[derive(Clone, Debug)]
pub struct FullRewrite {
    /// The negative program (positive atoms, negated atoms, comparisons).
    pub program: gbc_ast::Program,
    /// Per choice rule (in order of appearance among rules with choice
    /// goals in the `next`-expanded program): its `chosen_i` symbol.
    pub chosen_preds: Vec<Symbol>,
    /// Head symbols of all auxiliary rules (`chosen_i` excluded):
    /// `diffchoice_i_j` and `better_*`.
    pub aux_preds: Vec<Symbol>,
}

/// Run the complete pipeline on a program [`crate::compile`] admitted.
pub fn rewrite_full(program: &gbc_ast::Program) -> FullRewrite {
    let expanded = next::expand_next(program);
    let cr = choice::rewrite_choice(&expanded);
    let lr = least::rewrite_least(&cr.program);
    let mut aux_preds = cr.diffchoice_preds.clone();
    aux_preds.extend(lr.better_preds.iter().copied());
    FullRewrite { program: lr.program, chosen_preds: cr.chosen_preds, aux_preds }
}
