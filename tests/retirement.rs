//! Retirement at commit: a γ commit removes from `Q_r` every queued
//! candidate its choice FDs block for good (`Rql::retire`), instead of
//! popping and discarding it later.
//!
//! Over seeded instances of three program shapes whose choice goals
//! index `Q_r` — matching (two FDs over the source columns), job
//! scheduling (`most`, two FDs) and the TSP chain (stage checks
//! `I = J + 1` on top of two FDs) — each run must:
//!
//! * give the greedy answer of an independent procedural baseline;
//! * be a stable model (Theorem 1), checked at n ≤ 10;
//! * account for every queued candidate: once the queues drain,
//!   `heap_inserts == heap_pops + rql_retired`;
//! * run identically with provenance and a trace recorded, which
//!   replays each retired candidate where its pop would have come.

use std::sync::Arc;

use gbc_ast::Value;
use gbc_baselines::matching::greedy_matching;
use gbc_baselines::scheduling::{job_sequencing, Job};
use gbc_baselines::total_cost;
use gbc_baselines::tsp::greedy_chain;
use gbc_core::{verify_stable_model, Compiled, GreedyConfig, GreedyRun};
use gbc_greedy::{matching, scheduling, tsp, workload};
use gbc_storage::{Database, ProvenanceArena};
use gbc_telemetry::rng::Rng;
use gbc_telemetry::{JournalBuffer, Telemetry};

/// Run `compiled` on `edb` twice, bare and with provenance and a trace
/// attached; both must agree on the model, the choices and every
/// counter, and every candidate must be popped or retired.
fn run_checked(compiled: &Compiled, edb: &Database, case: &str) -> GreedyRun {
    let bare = compiled
        .run_greedy_telemetry(edb, GreedyConfig::default(), &Telemetry::counters_only())
        .unwrap();
    let mut recorded_edb = edb.clone();
    let arena = ProvenanceArena::shared();
    recorded_edb.set_provenance(Arc::clone(&arena));
    let journal = Arc::new(JournalBuffer::new());
    let tel = Telemetry::counters_only().with_trace(journal.clone());
    let recorded =
        compiled.run_greedy_telemetry(&recorded_edb, GreedyConfig::default(), &tel).unwrap();
    assert_eq!(bare.db.canonical_form(), recorded.db.canonical_form(), "{case}");
    assert_eq!(bare.chosen, recorded.chosen, "{case}");
    assert_eq!(bare.snapshot, recorded.snapshot, "{case}");

    let s = &bare.snapshot;
    assert_eq!(s.heap_inserts, s.heap_pops + s.rql_retired, "{case}: {s:?}");
    // Every retired candidate is recorded once, as a discard event.
    let discards =
        journal.events().iter().filter(|e| e.to_string().contains("\"type\":\"discard\"")).count()
            as u64;
    assert_eq!(discards, s.discarded_pops + s.rql_retired, "{case}");
    bare
}

/// Matching: all arcs are queued before the first commit, so every
/// blocked arc is retired and no pop is wasted.
#[test]
fn matching_retires_every_blocked_arc() {
    let compiled = matching::compiled();
    let mut rng = Rng::new(0x5EED_0029);
    for case in 0..24 {
        let n = 3 + rng.below_usize(8);
        let m = 1 + rng.below_usize(n * (n - 1));
        let g = workload::random_arcs(n, m, rng.below(1_000));
        let case = format!("case {case}: n={n} m={m}");
        let run = run_checked(&compiled, &g.to_edb(), &case);
        let mut got = matching::decode(&run);
        let mut want = greedy_matching(g.n, &g.edges);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{case}");
        let s = &run.snapshot;
        assert_eq!(s.discarded_pops, 0, "{case}");
        assert_eq!(s.heap_pops, s.gamma_steps, "{case}");
        assert_eq!(s.diffchoice_rejections, s.rql_retired, "{case}");
        assert!(verify_stable_model(compiled.program(), &g.to_edb(), &run).unwrap(), "{case}");
    }
}

/// Job scheduling (`most` over a derived `cand` relation): the most
/// profitable jobs fill the latest free slots, as the procedural
/// greedy does.
#[test]
fn scheduling_retires_taken_jobs_and_slots() {
    let compiled = scheduling::compiled();
    let mut rng = Rng::new(0x5EED_0030);
    let mut retired = 0;
    for case in 0..24 {
        let k = 1 + rng.below_usize(6);
        let jobs: Vec<Job> = (0..k as u32)
            .map(|id| Job::new(id, rng.range_i64(1, 60), 1 + rng.below(4) as u32))
            .collect();
        let case = format!("case {case}: {jobs:?}");
        let edb = scheduling::edb(&jobs);
        let run = run_checked(&compiled, &edb, &case);
        retired += run.snapshot.rql_retired;
        let profit = scheduling::total_profit(&jobs, &scheduling::decode(&run));
        assert_eq!(profit, job_sequencing(&jobs).1, "{case}");
        assert!(verify_stable_model(compiled.program(), &edb, &run).unwrap(), "{case}");
    }
    assert!(retired > 0, "no scheduling case retired a candidate");
}

/// The TSP chain: a retired candidate's stage check (`I = J + 1`) may
/// fail before its FD does, and the replayed record must say so; the
/// chain still costs what the procedural one does.
#[test]
fn tsp_chain_retires_under_stage_checks() {
    let compiled = tsp::compiled();
    let mut rng = Rng::new(0x5EED_0031);
    let mut retired = 0;
    for case in 0..16 {
        let n = 2 + rng.below_usize(7);
        let g = workload::complete_geometric(n, rng.below(1_000));
        let case = format!("case {case}: n={n}");
        let run = run_checked(&compiled, &g.to_edb(), &case);
        retired += run.snapshot.rql_retired;
        let chain = tsp::decode(&run);
        assert_eq!(chain.len(), n - 1, "{case}");
        assert_eq!(total_cost(&chain), total_cost(&greedy_chain(g.n, &g.edges)), "{case}");
        assert!(verify_stable_model(compiled.program(), &g.to_edb(), &run).unwrap(), "{case}");
    }
    assert!(retired > 0, "no tsp case retired a candidate");
}

/// A goal whose right column lies in the congruence key but whose left
/// tuple is shared by several classes: `choice(X, Y)` over classes keyed
/// `(X, Y, Z)`. A commit of `(x, y, z1)` blocks `(x, y', z)` for
/// `y' ≠ y`, but not `(x, y, z2)`, which may still commit; retiring it
/// too would lose that fact. The greedy model must equal the generic
/// Choice Fixpoint's on every instance.
#[test]
fn retirement_spares_candidates_that_agree_with_the_commit() {
    let program = "r(nil, nil, nil, 0).
        r(X, Y, Z, I) <- next(I), q(X, Y, Z, C), least(C, I), choice(X, Y), choice(Z, X).";
    let compiled = gbc_core::compile(gbc_parser::parse_program(program).unwrap()).unwrap();
    assert!(compiled.has_greedy_plan(), "{:?}", compiled.plan_error());
    let mut rng = Rng::new(0x5EED_0033);
    let mut retired = 0;
    for case in 0..24 {
        let mut edb = Database::new();
        let m = 1 + rng.below_usize(10);
        // Distinct costs, so the greedy order is total.
        let mut costs: Vec<i64> = (1..=m as i64).collect();
        rng.shuffle(&mut costs);
        for c in costs {
            let row = [rng.below(3), rng.below(2), rng.below(3)].map(|v| Value::int(v as i64));
            edb.insert_values("q", [row.to_vec(), vec![Value::int(c)]].concat());
        }
        let case = format!("case {case}: {}", edb.canonical_form());
        let run = run_checked(&compiled, &edb, &case);
        retired += run.snapshot.rql_retired;
        let generic = compiled.run_generic(&edb).unwrap();
        assert_eq!(run.db.canonical_form(), generic.db.canonical_form(), "{case}");
    }
    assert!(retired > 0, "no case retired a candidate");
}
