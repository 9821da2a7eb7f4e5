//! Example 4 — Prim's algorithm, declaratively.
//!
//! ```text
//! prm(nil, SRC, 0, 0).
//! prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, Y != SRC,
//!                    least(C, I), choice(Y, X).
//! new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
//! ```
//!
//! One deviation from the paper's print: the guard `Y != SRC`. The exit
//! fact `prm(nil, SRC, 0, 0)` does not register SRC in the recursive
//! rule's choice FD, so without the guard the program (as printed)
//! admits one redundant re-entry of the source node. The guard restores
//! the evident intent; every other node is protected by `choice(Y, X)`.

use gbc_ast::Symbol;
use gbc_baselines::Edge;
use gbc_core::{compile, Compiled, CoreError, GreedyRun};
use gbc_storage::Database;

use crate::graph::{decode_edges, Graph};

/// The program text for `source`.
pub fn program_text(source: u32) -> String {
    format!(
        "prm(nil, {source}, 0, 0).
         prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, Y != {source},
                            least(C, I), choice(Y, X).
         new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C)."
    )
}

/// Compile the Prim program for `source`.
pub fn compiled(source: u32) -> Compiled {
    let program = gbc_parser::parse_program(&program_text(source)).expect("static program text");
    compile(program).expect("Prim is stage-stratified")
}

/// Extract MST edges from a run (the `nil` exit fact is dropped).
pub fn decode(run: &GreedyRun) -> Vec<Edge> {
    decode_edges(&run.db.facts_of(Symbol::intern("prm")))
}

/// Run Prim on `graph` with the greedy (R,Q,L) executor.
pub fn run_greedy(graph: &Graph, source: u32) -> Result<Vec<Edge>, CoreError> {
    let c = compiled(source);
    let run = c.run_greedy(&graph.to_edb())?;
    Ok(decode(&run))
}

/// Run Prim with the generic choice fixpoint (the A1 ablation baseline).
pub fn run_generic(graph: &Graph, source: u32) -> Result<Vec<Edge>, CoreError> {
    let c = compiled(source);
    let run = c.run_generic(&graph.to_edb())?;
    Ok(decode(&run))
}

/// Convenience for benches: a prepared `(compiled, edb)` pair.
pub fn prepared(graph: &Graph, source: u32) -> (Compiled, Database) {
    (compiled(source), graph.to_edb())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_baselines::{prim::prim_mst, total_cost};
    use gbc_core::ProgramClass;

    fn square() -> Graph {
        Graph::new(
            4,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 2), Edge::new(2, 3, 3), Edge::new(0, 3, 4)],
        )
        .symmetric_closure()
    }

    /// The benchmark's `prim_mst` instance (n = 2048, 3n chords) as one
    /// text: its 16 382 arcs and the exit fact load into the fact
    /// table, and only the two rules are `Rule`s.
    #[test]
    fn the_n_2048_instance_parses_to_two_rules_and_its_facts() {
        let g = crate::workload::connected_graph(2048, 3 * 2048, 1_000_000, 1);
        let mut text = program_text(0);
        for e in &g.edges {
            text.push_str(&format!("\ng({},{},{}).", e.from, e.to, e.cost));
        }
        let program = gbc_parser::parse_program(&text).unwrap();
        assert_eq!(program.rules.len(), 2);
        assert_eq!(program.facts.len(), 16_383);
        let g_rows = program.facts().filter(|(p, _, _)| p.as_str() == "g").count();
        assert_eq!(g_rows, 16_382);
    }

    #[test]
    fn classifies_as_alternating_stage_stratified() {
        let c = compiled(0);
        assert_eq!(*c.class(), ProgramClass::StageStratified { alternating: true });
        assert!(c.has_greedy_plan(), "{:?}", c.plan_error());
    }

    #[test]
    fn matches_the_procedural_mst_cost() {
        let g = square();
        let decl = run_greedy(&g, 0).unwrap();
        let proc_ = prim_mst(g.n, &g.edges, 0);
        assert_eq!(decl.len(), g.n - 1);
        assert_eq!(total_cost(&decl), total_cost(&proc_));
    }

    #[test]
    fn generic_and_greedy_paths_agree() {
        let g = square();
        let a = run_greedy(&g, 0).unwrap();
        let b = run_generic(&g, 0).unwrap();
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn random_graphs_match_baseline_cost() {
        for seed in 0..5 {
            let g = crate::workload::connected_graph(24, 40, 100, seed);
            let decl = run_greedy(&g, 0).unwrap();
            let proc_ = prim_mst(g.n, &g.edges, 0);
            assert_eq!(decl.len(), g.n - 1, "spanning: seed {seed}");
            assert_eq!(total_cost(&decl), total_cost(&proc_), "optimal: seed {seed}");
        }
    }

    #[test]
    fn each_node_entered_exactly_once() {
        let g = crate::workload::connected_graph(16, 20, 50, 9);
        let tree = run_greedy(&g, 0).unwrap();
        let mut targets: Vec<u32> = tree.iter().map(|e| e.to).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), g.n - 1);
        assert!(!targets.contains(&0), "source never re-entered");
    }
}
