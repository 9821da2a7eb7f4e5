//! The γ step interns only the new stage value.
//!
//! The popped candidate already holds its cells as dictionary ids, so
//! choosing (the FD probes) and committing (the memo entries, the `W`
//! projection, the head row) reuse them; the one value a step can
//! introduce is its stage number. Flat saturation between steps builds
//! its head rows from the ids its frames hold (Prim's `new_g`), so it
//! interns nothing. Over `GreedyExecutor::run`, dictionary
//! encodes — probes answered by an existing id plus newly minted ids —
//! must therefore stay within the γ step count plus a constant, at every
//! instance size.
//!
//! The same bound holds for every whole evaluation of a [`Compiled`],
//! setup included, the first one too: `compile` encodes the inline
//! facts into the program's fact base, and every evaluation borrows
//! them.
//!
//! The dictionary counters are process-global, so this file holds a
//! single test: no other test can intern inside the measured window.

use gbc_core::exec::{build_plans, GreedyExecutor};
use gbc_core::{compile, Compiled, GreedyConfig};
use gbc_storage::{dict_stats, Database};
use gbc_telemetry::Rng;

/// Encodes a run may spend outside its γ steps.
const SLACK: u64 = 4;

const SORT: &str = "sp(nil, 0, 0).\n\
                    sp(X, C, I) <- next(I), p(X, C), least(C, I).\n";

const MATCHING: &str = "matching(nil, nil, 0, 0).\n\
                        matching(X, Y, C, I) <- next(I), g(X, Y, C), least(C, I),\n\
                        choice(Y, X), choice(X, Y).\n";

const PRIM: &str = "prm(nil, 0, 0, 0).\n\
                    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, Y != 0,\n\
                    least(C, I), choice(Y, X).\n\
                    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).\n";

/// A connected undirected graph over `n` nodes — a random spanning
/// tree plus `n` random chords — as Prim's `g` facts, both
/// orientations listed.
fn prim_text(n: usize, rng: &mut Rng) -> String {
    let mut text = PRIM.to_owned();
    for k in 1..2 * n {
        let (x, y) =
            if k < n { (k, rng.below_usize(k)) } else { (rng.below_usize(n), rng.below_usize(n)) };
        let c = rng.range_i64(1, 10_000);
        text.push_str(&format!("g({x}, {y}, {c}).\ng({y}, {x}, {c}).\n"));
    }
    text
}

/// `n` sort facts `p(kK, C)` with random costs.
fn sort_text(n: usize, rng: &mut Rng) -> String {
    let mut text = SORT.to_owned();
    for k in 0..n {
        text.push_str(&format!("p(k{k}, {}).\n", rng.range_i64(-1000, 1000)));
    }
    text
}

/// `m` random arcs `g(X, Y, C)` over `n` nodes.
fn matching_text(n: usize, m: usize, rng: &mut Rng) -> String {
    let mut text = MATCHING.to_owned();
    for _ in 0..m {
        let (x, y) = (rng.below_usize(n), rng.below_usize(n));
        text.push_str(&format!("g({x}, {y}, {}).\n", rng.range_i64(1, 10_000)));
    }
    text
}

/// Encodes spent by the executor's run phase, and its γ step count.
fn run_encodes(compiled: &Compiled) -> (u64, u64) {
    let plans = build_plans(compiled.program(), compiled.expanded(), &compiled.analysis().stages)
        .expect("greedy plan");
    let ex = GreedyExecutor::new(
        compiled.program(),
        compiled.expanded(),
        plans,
        &Database::new(),
        GreedyConfig::default(),
    );
    let before = dict_stats();
    let run = ex.run().expect("run");
    let spent = dict_stats().since(&before);
    (spent.encode_hits + spent.dict_entries, run.stats.gamma_steps)
}

/// Encodes spent by a whole `run_greedy_with` evaluation, setup
/// included, and its γ step count.
fn eval_encodes(compiled: &Compiled) -> (u64, u64) {
    let before = dict_stats();
    let run = compiled.run_greedy_with(&Database::new(), GreedyConfig::default()).expect("run");
    let spent = dict_stats().since(&before);
    (spent.encode_hits + spent.dict_entries, run.stats.gamma_steps)
}

#[test]
fn gamma_steps_bound_dictionary_encodes() {
    let mut rng = Rng::new(15);
    let instances = [
        ("sort n=64", sort_text(64, &mut rng)),
        ("sort n=512", sort_text(512, &mut rng)),
        ("matching e=128", matching_text(48, 128, &mut rng)),
        ("matching e=1024", matching_text(256, 1024, &mut rng)),
        ("prim n=64", prim_text(64, &mut rng)),
        ("prim n=256", prim_text(256, &mut rng)),
    ];
    for (name, text) in instances {
        let compiled =
            compile(gbc_parser::parse_program(&text).expect("parses")).expect("compiles");
        let (encodes, steps) = run_encodes(&compiled);
        assert!(steps > 0, "{name}: no γ steps");
        assert!(
            encodes <= steps + SLACK,
            "{name}: {encodes} dictionary encodes over {steps} γ steps (allowed {})",
            steps + SLACK
        );
        // `compile` encoded the facts: no evaluation does, the first
        // included.
        for k in 1..=3 {
            let (encodes, steps) = eval_encodes(&compiled);
            assert!(
                encodes <= steps + SLACK,
                "{name}: evaluation {k} spent {encodes} dictionary encodes over {steps} γ steps \
                 (allowed {})",
                steps + SLACK
            );
        }
    }
}
