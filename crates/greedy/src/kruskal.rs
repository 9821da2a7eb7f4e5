//! Example 8 — Kruskal's algorithm.
//!
//! The paper places this program *outside* strict stage stratification
//! ("the negation in flat rules are not necessarily strictly
//! stratified") — and indeed `gbc-core`'s classifier rejects it (the
//! component ids minted by `comp0`'s `next(K)` collide with the true
//! stage argument of `comp`, and `last_comp` applies an extremum over a
//! clique predicate). Its *intended* evaluation is nevertheless clear,
//! and Section 6 analyses it: a priority queue of edges plus an
//! explicit component table relabelled in `O(n)` per accepted edge —
//! total `O(e·n)`, versus the classical union-find `O(e log e)`.
//!
//! [`run_stage_views`] is that evaluation, done faithfully over the
//! program's own relations: it materialises `comp0`, `comp` (stage-
//! stamped relabel history) and `kruskal` facts into a [`Database`],
//! recomputing the `last_comp` view per stage instead of accumulating
//! it inflationarily. Experiment E4 measures the `O(e·n)` versus
//! `O(e log e)` gap this evaluation embodies.

use gbc_ast::{Symbol, Value};
use gbc_baselines::Edge;
use gbc_storage::{dictionary, Database, Rql};

use crate::graph::{decode_edges, Graph};

/// The paper's Example 8, safely phrased (`last_comp` selects the most
/// recent component fact per node).
pub const PROGRAM: &str = "kruskal(X, Y, C, 0) <- g(X, Y, C), least(C), choice((), (X, Y)).
kruskal(X, Y, C, I) <- next(I), g(X, Y, C), last_comp(X, J, I1), last_comp(Y, K, I1),
                       J != K, I1 < I, least(C).
last_comp(X, J, I) <- comp(X, J, I), most(I, X).
comp(X, K, 0) <- comp0(X, K).
comp(X, K, I) <- kruskal(A, B, C, I), last_comp(A, J, I1), last_comp(B, K, I2),
                 last_comp(X, J, I1).
comp0(nil, 0).
comp0(X, K) <- next(K), node(X).";

/// The result of a stage-view run: the materialised relations and the
/// accepted edges.
#[derive(Clone, Debug)]
pub struct KruskalRun {
    /// `kruskal`, `comp`, `comp0` and `g` facts, as the program defines
    /// them.
    pub db: Database,
    /// Accepted edges in stage order.
    pub tree: Vec<Edge>,
    /// Edges discarded as redundant (same component when popped) — the
    /// paper's `R`.
    pub redundant: u64,
}

/// Evaluate Example 8 with per-stage view recomputation — the paper's
/// `O(e·n)` cost model. The component table plays `last_comp`; each
/// accepted edge relabels one component in `O(n)` and stamps the new
/// `comp` facts with the stage.
pub fn run_stage_views(graph: &Graph) -> KruskalRun {
    let mut db = graph.to_edb();
    let n = graph.n;

    // comp0: node X gets component id X+1 at stage 0 (ids minted by the
    // paper's comp0 next-loop; the concrete numbering is immaterial).
    let mut comp: Vec<i64> = (0..n as i64).map(|x| x + 1).collect();
    db.insert_values("comp0", vec![Value::Nil, Value::int(0)]);
    for (x, &c) in comp.iter().enumerate() {
        db.insert_values("comp0", vec![Value::int(x as i64), Value::int(c)]);
        db.insert_values("comp", vec![Value::int(x as i64), Value::int(c), Value::int(0)]);
    }

    // The edge queue Q (cost-ordered, full-row congruence: Kruskal
    // considers every edge once).
    let mut q = Rql::new(3, &[0, 1, 2]);
    for e in &graph.edges {
        let row = dictionary::encode_row(&[
            Value::int(i64::from(e.from)),
            Value::int(i64::from(e.to)),
            Value::int(e.cost),
        ]);
        q.insert(row[2], &row);
    }

    let int_of = |id: u32| dictionary::decode_ref(id).as_int().expect("int edge field");
    let mut tree = Vec::new();
    let mut redundant = 0u64;
    let mut stage = 0i64;
    while let Some(popped) = q.pop_least() {
        let row = q.row(&popped);
        let x = int_of(row[0]) as usize;
        let y = int_of(row[1]) as usize;
        let c = int_of(row[2]);
        let (j, k) = (comp[x], comp[y]);
        if j == k {
            // Same component: redundant, the paper's move into R.
            q.discard(popped);
            redundant += 1;
            continue;
        }
        q.commit(popped);
        tree.push(Edge::new(x as u32, y as u32, c));
        db.insert_values(
            "kruskal",
            vec![Value::int(x as i64), Value::int(y as i64), Value::int(c), Value::int(stage)],
        );
        // Relabel component J as K — the O(n) sweep the paper charges
        // to the recursive comp rule — stamping new comp facts.
        for (node, slot) in comp.iter_mut().enumerate() {
            if *slot == j {
                *slot = k;
                db.insert_values(
                    "comp",
                    vec![Value::int(node as i64), Value::int(k), Value::int(stage + 1)],
                );
            }
        }
        stage += 1;
        if tree.len() + 1 == n {
            break;
        }
    }
    KruskalRun { db, tree, redundant }
}

/// Accepted edges of a run's `kruskal` relation, in stage order.
pub fn decode(run: &KruskalRun) -> Vec<Edge> {
    let mut rows = run.db.facts_of(Symbol::intern("kruskal"));
    rows.sort_by_key(|r| r[3].as_int().unwrap_or(i64::MAX));
    decode_edges(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_baselines::kruskal::{kruskal_mst, kruskal_relabel};
    use gbc_baselines::total_cost;
    use gbc_core::{classify, ProgramClass};

    #[test]
    fn the_paper_program_is_rejected_by_the_classifier() {
        let p = gbc_parser::parse_program(PROGRAM).unwrap();
        assert!(matches!(classify(&p).class, ProgramClass::NotStageStratified { .. }));
    }

    #[test]
    fn stage_views_compute_a_minimum_spanning_tree() {
        for seed in 0..5 {
            let g = crate::workload::connected_graph(20, 40, 100, seed);
            let run = run_stage_views(&g);
            let base = kruskal_mst(g.n, &g.edges);
            assert_eq!(run.tree.len(), g.n - 1, "seed {seed}");
            assert_eq!(total_cost(&run.tree), total_cost(&base), "seed {seed}");
        }
    }

    #[test]
    fn relations_are_materialised() {
        let g = crate::workload::connected_graph(8, 6, 20, 1);
        let run = run_stage_views(&g);
        assert_eq!(run.db.count(Symbol::intern("kruskal")), 7);
        assert_eq!(run.db.count(Symbol::intern("comp0")), 9); // n + nil
                                                              // comp: n stage-0 facts plus one per relabelled node.
        assert!(run.db.count(Symbol::intern("comp")) >= 8 + 7);
        assert_eq!(decode(&run).len(), 7);
    }

    #[test]
    fn agrees_with_the_relabel_baseline_cost_model() {
        let g = crate::workload::connected_graph(12, 20, 50, 3);
        let a = run_stage_views(&g);
        let b = kruskal_relabel(g.n, &g.edges);
        assert_eq!(total_cost(&a.tree), total_cost(&b));
    }

    #[test]
    fn redundant_edges_are_counted() {
        // The cycle-closing edge (0,2) is cheaper than the last tree
        // edge, so it is popped mid-run and moved to R.
        let g = Graph::new(
            4,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 2), Edge::new(0, 2, 3), Edge::new(2, 3, 4)],
        );
        let run = run_stage_views(&g);
        assert_eq!(run.tree.len(), 3);
        assert_eq!(run.redundant, 1);
    }

    #[test]
    fn evaluation_stops_once_the_tree_is_complete() {
        // Remaining queue entries are never popped after n−1 accepts.
        let g = Graph::new(3, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 2), Edge::new(0, 2, 3)]);
        let run = run_stage_views(&g);
        assert_eq!(run.tree.len(), 2);
        assert_eq!(run.redundant, 0);
    }
}
