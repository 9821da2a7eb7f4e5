//! Example 3 — non-deterministic spanning trees, in both of the paper's
//! styles:
//!
//! * [`program_choice_text`] — the `next`-free original:
//!   `st(X, Y, C) <- st(_, X, _), g(X, Y, C), Y != SRC, choice(Y, (X, C))`,
//!   evaluated by the generic Choice Fixpoint (class `Choice`);
//! * [`program_stage_text`] — the stage-variable formulation of
//!   Section 3, run by the greedy executor (no `least`: the
//!   retrieve-least degenerates to the paper's *retrieve-any*).
//!
//! Both carry the root guard `Y != SRC` (see `prim` — the printed exit
//! fact cannot register the source in the recursive rule's FD).

use gbc_ast::Symbol;
use gbc_baselines::Edge;
use gbc_core::{compile, Compiled, CoreError};

use crate::graph::{decode_edges, Graph};

/// The `next`-free formulation (generic fixpoint).
pub fn program_choice_text(source: u32) -> String {
    format!(
        "st(nil, {source}, 0).
         st(X, Y, C) <- st(_, X, _), g(X, Y, C), Y != {source}, choice(Y, (X, C))."
    )
}

/// The stage formulation (greedy executor): Section 3's `next` version
/// with the frontier factored through `new_g` (composing the section's
/// two displays — the bare `next` display drops the frontier join that
/// its stage-variable display carries).
pub fn program_stage_text(source: u32) -> String {
    format!(
        "st(nil, {source}, 0, 0).
         st(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, Y != {source},
                           choice(Y, (X, C)).
         new_g(X, Y, C, J) <- st(_, X, _, J), g(X, Y, C)."
    )
}

/// Run the stage formulation greedily; returns tree edges.
pub fn run_stage(graph: &Graph, source: u32) -> Result<Vec<Edge>, CoreError> {
    let program = gbc_parser::parse_program(&program_stage_text(source)).expect("static text");
    let compiled = compile(program)?;
    let run = compiled.run_greedy(&graph.to_edb())?;
    Ok(decode_edges(&run.db.facts_of(Symbol::intern("st"))))
}

/// Run the `next`-free formulation with the generic choice fixpoint.
pub fn run_choice(graph: &Graph, source: u32) -> Result<Vec<Edge>, CoreError> {
    let program = gbc_parser::parse_program(&program_choice_text(source)).expect("static text");
    let compiled = compile(program)?;
    let run = compiled.run_generic(&graph.to_edb())?;
    Ok(decode_edges(&run.db.facts_of(Symbol::intern("st"))))
}

/// Compiled stage program (for benches).
pub fn compiled_stage(source: u32) -> Compiled {
    let program = gbc_parser::parse_program(&program_stage_text(source)).expect("static text");
    compile(program).expect("stage spanning tree is stage-stratified")
}

/// Is `tree` a spanning tree of `graph` rooted at `source`?
/// (n−1 edges, each non-source node entered exactly once, all edges
/// real, connected to the source.)
pub fn is_spanning_tree(graph: &Graph, source: u32, tree: &[Edge]) -> bool {
    if tree.len() + 1 != graph.n {
        return false;
    }
    let mut entered = vec![false; graph.n];
    entered[source as usize] = true;
    for e in tree {
        if !graph.edges.contains(e) || entered[e.to as usize] {
            return false;
        }
        entered[e.to as usize] = true;
    }
    // Connectivity: every edge's source must be reachable; walk in
    // insertion order — parents always precede children for both
    // evaluation styles, but verify defensively.
    let mut reach = vec![false; graph.n];
    reach[source as usize] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for e in tree {
            if reach[e.from as usize] && !reach[e.to as usize] {
                reach[e.to as usize] = true;
                changed = true;
            }
        }
    }
    reach.iter().all(|&r| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_core::ProgramClass;

    #[test]
    fn stage_version_is_stage_stratified_choice_version_is_choice() {
        let stage = compile(gbc_parser::parse_program(&program_stage_text(0)).unwrap()).unwrap();
        assert_eq!(*stage.class(), ProgramClass::StageStratified { alternating: true });
        assert!(stage.has_greedy_plan(), "{:?}", stage.plan_error());

        let choice = compile(gbc_parser::parse_program(&program_choice_text(0)).unwrap()).unwrap();
        assert_eq!(*choice.class(), ProgramClass::Choice);
    }

    #[test]
    fn both_styles_build_spanning_trees() {
        for seed in 0..4 {
            let g = crate::workload::connected_graph(14, 20, 30, seed);
            let stage = run_stage(&g, 0).unwrap();
            assert!(is_spanning_tree(&g, 0, &stage), "stage, seed {seed}: {stage:?}");
            let choice = run_choice(&g, 0).unwrap();
            assert!(is_spanning_tree(&g, 0, &choice), "choice, seed {seed}: {choice:?}");
        }
    }

    #[test]
    fn single_node_graph_has_empty_tree() {
        let g = Graph::new(1, vec![]);
        assert!(run_stage(&g, 0).unwrap().is_empty());
        assert!(run_choice(&g, 0).unwrap().is_empty());
    }

    #[test]
    fn checker_rejects_non_trees() {
        let g = Graph::new(3, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
        assert!(!is_spanning_tree(&g, 0, &[Edge::new(0, 1, 1)]), "too few edges");
        assert!(
            !is_spanning_tree(&g, 0, &[Edge::new(0, 1, 1), Edge::new(0, 1, 1)]),
            "duplicate entry"
        );
        assert!(
            !is_spanning_tree(&g, 0, &[Edge::new(0, 1, 1), Edge::new(2, 0, 9)]),
            "fake edge / re-enters root"
        );
    }
}
