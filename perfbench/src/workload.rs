//! The benchmark's workloads: seeded instances handed to the program as
//! inline `.dl` text, each with an independent reference answer.
//!
//! Every instance is a program plus its facts in one text, the shape
//! `gbc run FILE`, `gbc serve FILE` and `POST /load` all evaluate: the
//! engine sees an empty EDB and loads the facts itself. The program
//! receives only the generated text; the seed never reaches it.
//!
//! Why each workload exists, and which layer metric should move which
//! end-to-end metric on it, is recorded in `perfbench/README.md`.

use gbc_baselines::matching::greedy_matching;
use gbc_baselines::prim::prim_mst;
use gbc_baselines::sorts::heapsort;
use gbc_baselines::{total_cost, Edge};
use gbc_core::{compile, Compiled, GreedyRun};
use gbc_greedy::{matching, prim, sorting, workload};
use gbc_storage::Database;

/// A named workload from `BENCHMARK.json`.
#[derive(Clone, Copy)]
pub enum Workload {
    /// Prim (Example 4) on a sparse connected graph.
    PrimMst,
    /// Greedy matching (Example 7) on random arcs.
    MatchingGamma,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "prim_mst" => Ok(Workload::PrimMst),
            "matching_gamma" => Ok(Workload::MatchingGamma),
            other => {
                Err(format!("unknown workload `{other}` (expected prim_mst or matching_gamma)"))
            }
        }
    }

    /// The workload's instance.
    pub fn instance(self, seed: u64) -> Instance {
        match self {
            Workload::PrimMst => Instance::prim("prim", 2048, subseed(seed, 0)),
            Workload::MatchingGamma => {
                Instance::matching("matching", 4096, 16384, subseed(seed, 0))
            }
        }
    }

    /// A tiny instance of the workload's generator, for
    /// [`verify_stable`].
    fn small(self, seed: u64) -> Instance {
        match self {
            Workload::PrimMst => Instance::prim("prim", 10, subseed(seed, 9)),
            Workload::MatchingGamma => Instance::matching("matching", 8, 16, subseed(seed, 9)),
        }
    }
}

/// The three fixed tenants of the serve mix: Prim n = 256, sort
/// n = 1024 and matching e = 2048.
pub fn serve_tenants(seed: u64) -> Vec<Instance> {
    vec![
        Instance::prim("prim", 256, subseed(seed, 1)),
        Instance::sort("sort", 1024, subseed(seed, 2)),
        Instance::matching("matching", 512, 2048, subseed(seed, 3)),
    ]
}

/// Generation `generation` of the serve mix's churn tenant: a Prim
/// n = 256 graph with freshly seeded facts under one name, so each
/// `/load` replaces the tenant with facts and cost values the server has
/// not seen, and the value dictionary grows as it does under real churn.
pub fn serve_churn(seed: u64, generation: usize) -> Instance {
    Instance::prim("churn", 256, subseed(seed, 1000 + generation as u64))
}

/// Check Theorem 1 once per run, outside every timed loop: the
/// workload's program, and the serve mix's three programs, on tiny
/// instances of the same generators must produce stable models that also
/// match the references. The checker is exponential in practice (it
/// takes seconds at n = 64), hence the tiny sizes.
pub fn verify_stable(w: Workload, seed: u64) -> Result<(), String> {
    let small = [
        w.small(seed),
        Instance::prim("prim", 8, subseed(seed, 10)),
        Instance::sort("sort", 10, subseed(seed, 10)),
        Instance::matching("matching", 6, 12, subseed(seed, 10)),
    ];
    for inst in small {
        let compiled = inst.compile()?;
        let run = compiled
            .run_greedy(&Database::new())
            .map_err(|e| format!("{}: small run: {e}", inst.name))?;
        inst.check(&run)?;
        let stable = gbc_core::verify_stable_model(compiled.program(), &Database::new(), &run)
            .map_err(|e| format!("{}: stable-model check: {e}", inst.name))?;
        if !stable {
            return Err(format!("{}: small run is not a stable model", inst.name));
        }
    }
    Ok(())
}

/// A per-purpose seed derived from the workload seed (SplitMix64 step),
/// so the tenants of one run draw independent inputs.
fn subseed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The answer an instance's run must reproduce, computed by the
/// procedural baselines — code that shares nothing with the engine.
enum Reference {
    /// Prim from node 0: every other node entered once, at this total cost.
    Prim { n: usize, cost: i64 },
    /// Greedy matching: exactly these arcs (costs are unique).
    Matching(Vec<Edge>),
    /// Sorting: `(id, cost)` in heap-sort order, ranked `1..=n`.
    Sort(Vec<(i64, i64)>),
}

/// One program-plus-facts text and its reference answer.
pub struct Instance {
    /// Tenant name (the `name` of `POST /load`).
    pub name: String,
    /// Program and facts, as one `.dl` text.
    pub text: String,
    reference: Reference,
}

impl Instance {
    /// Prim over `connected_graph(n, 3n chords, cost ≤ 10^6)`.
    pub fn prim(name: &str, n: usize, seed: u64) -> Instance {
        let g = workload::connected_graph(n, 3 * n, 1_000_000, seed);
        let cost = total_cost(&prim_mst(g.n, &g.edges, 0));
        Instance {
            name: name.to_owned(),
            text: with_edges(&prim::program_text(0), &g.edges),
            reference: Reference::Prim { n, cost },
        }
    }

    /// Greedy matching over `random_arcs(n, m)`.
    pub fn matching(name: &str, n: usize, m: usize, seed: u64) -> Instance {
        let g = workload::random_arcs(n, m, seed);
        let mut expected = greedy_matching(g.n, &g.edges);
        expected.sort_unstable();
        Instance {
            name: name.to_owned(),
            text: with_edges(matching::PROGRAM, &g.edges),
            reference: Reference::Matching(expected),
        }
    }

    /// Sorting `random_items(n)` by cost.
    pub fn sort(name: &str, n: usize, seed: u64) -> Instance {
        let items = workload::random_items(n, seed);
        let mut text = format!("{}\n", sorting::PROGRAM);
        for &(x, c) in &items {
            text.push_str(&format!("p({x},{c}).\n"));
        }
        let mut by_cost: Vec<(i64, i64)> = items.iter().map(|&(x, c)| (c, x)).collect();
        heapsort(&mut by_cost);
        let expected = by_cost.into_iter().map(|(c, x)| (x, c)).collect();
        Instance { name: name.to_owned(), text, reference: Reference::Sort(expected) }
    }

    /// Parse and compile the text (the `/load` work, minus HTTP).
    pub fn compile(&self) -> Result<Compiled, String> {
        let program = gbc_parser::parse_program(&self.text)
            .map_err(|e| format!("{}: parse: {e:?}", self.name))?;
        let compiled = compile(program).map_err(|e| format!("{}: compile: {e}", self.name))?;
        match compiled.plan_error() {
            None => Ok(compiled),
            Some(e) => Err(format!("{}: no greedy plan: {e}", self.name)),
        }
    }

    /// Check a run's model against the reference answer.
    pub fn check(&self, run: &GreedyRun) -> Result<(), String> {
        let fail = |what: String| Err(format!("{}: {what}", self.name));
        match &self.reference {
            Reference::Prim { n, cost } => {
                let tree = prim::decode(run);
                let mut targets: Vec<u32> = tree.iter().map(|e| e.to).collect();
                targets.sort_unstable();
                targets.dedup();
                if tree.len() != n - 1 || targets.len() != n - 1 || targets.contains(&0) {
                    return fail(format!("{} tree edges do not span {n} nodes", tree.len()));
                }
                if total_cost(&tree) != *cost {
                    return fail(format!("tree cost {} != baseline {cost}", total_cost(&tree)));
                }
            }
            Reference::Matching(expected) => {
                let mut got = matching::decode(run);
                got.sort_unstable();
                if got != *expected {
                    return fail(format!(
                        "matching of {} arcs differs from the baseline's {}",
                        got.len(),
                        expected.len()
                    ));
                }
            }
            Reference::Sort(expected) => {
                let ranked = sorting::decode(run);
                let ranks_ok = ranked.iter().enumerate().all(|(i, r)| r.2 == i as i64 + 1);
                let order: Vec<(i64, i64)> = ranked.iter().map(|&(x, c, _)| (x, c)).collect();
                if !ranks_ok || order != *expected {
                    return fail("sorted order differs from heapsort".to_owned());
                }
            }
        }
        Ok(())
    }
}

/// `program` followed by one `g(X, Y, C).` fact per edge.
fn with_edges(program: &str, edges: &[Edge]) -> String {
    let mut text = String::with_capacity(program.len() + 24 * edges.len());
    text.push_str(program);
    text.push('\n');
    for e in edges {
        text.push_str(&format!("g({},{},{}).\n", e.from, e.to, e.cost));
    }
    text
}
