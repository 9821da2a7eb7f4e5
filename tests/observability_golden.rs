//! Golden observability test — the telemetry counters for a fixed
//! workload are part of the repo's contract.
//!
//! Prim (Example 4, the paper's E1 complexity claim) runs on a
//! fixed-seed 64-node graph. Everything in the pipeline is
//! deterministic — the workload generator (in-tree xoshiro256**), the
//! greedy executor's sorted candidate handling, and the (R,Q,L)
//! structure — so every counter must come out *exactly* the same on
//! every run, on every machine. A drift in any of these numbers means
//! the executor's operational behaviour changed, which is precisely
//! what this test is here to catch.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gbc_ast::{SourceMap, Value};
use gbc_core::GreedyConfig;
use gbc_greedy::{prim, workload};
use gbc_storage::{Database, ProvenanceArena};
use gbc_telemetry::{BufferTrace, JournalBuffer, Snapshot, Telemetry};

/// The fixed workload: 64 nodes, 192 extra edges, costs ≤ 1000, seed 42.
fn fixed_graph() -> gbc_greedy::graph::Graph {
    workload::connected_graph(64, 192, 1000, 42)
}

#[test]
fn prim_counters_are_golden() {
    let g = fixed_graph();
    let (compiled, edb) = prim::prepared(&g, 0);
    let tel = Telemetry::enabled();
    let run = compiled.run_greedy_telemetry(&edb, GreedyConfig::default(), &tel).unwrap();
    let snap = &run.snapshot;

    // Structural facts first: a spanning tree of 64 nodes has 63 edges,
    // and the γ operator commits exactly one stage per tree edge
    // (Section 3's tuple ↔ stage bijection; the exit fact is ground and
    // loads with the program, so it is not a γ commit).
    assert_eq!(prim::decode(&run).len(), 63);
    assert_eq!(snap.gamma_steps, 63, "γ steps = n − 1");
    assert_eq!(run.stats.gamma_steps, 63);

    // The golden numbers. Hard-coded from the first recorded run;
    // byte-for-byte stable because every stage of the pipeline is
    // deterministic. If a legitimate executor change moves them, update
    // them *in the same commit* and say why in the message.
    assert_rql_counters(snap, GOLDEN_PRIM_RQL);
    assert_eq!(snap.congruence_replacements, snap.heap_replaces);
    assert_eq!(snap.tuples_derived, GOLDEN_TUPLES_DERIVED);

    // E1's machine-independent bound: heap operations stay within a
    // small constant of e·log₂e.
    let e = g.num_edges() as f64;
    let ratio = snap.heap_ops() as f64 / (e * e.log2());
    assert!(ratio < 3.0, "heap ops per e·lg e must stay O(1), got {ratio}");
}

/// The (R,Q,L) counter set: every counter the structure and the
/// retrieve-least loop move, pinned together so a drift names them all.
const RQL_COUNTERS: [&str; 9] = [
    "heap_inserts",
    "heap_replaces",
    "heap_pops",
    "rql_dominated",
    "rql_used_blocked",
    "rql_retired",
    "queue_peak",
    "heap_int_fast_compares",
    "discarded_pops",
];

/// Assert `snap`'s [`RQL_COUNTERS`] equal `golden`, in that order.
fn assert_rql_counters(snap: &Snapshot, golden: [u64; 9]) {
    let entries = snap.entries();
    let value = |name| entries.iter().find(|(n, _)| *n == name).expect("counter").1;
    let got: Vec<(&str, u64)> = RQL_COUNTERS.iter().map(|&n| (n, value(n))).collect();
    let want: Vec<(&str, u64)> = RQL_COUNTERS.into_iter().zip(golden).collect();
    assert_eq!(got, want);
}

// One queued representative per r-congruence class means exactly one
// pop per committed stage: 63 pops, zero discards — the paper's "no
// wasted pops" property, checked to the tuple.
const GOLDEN_PRIM_RQL: [u64; 9] = [63, 93, 63, 99, 244, 0, 45, 1074, 0];
const GOLDEN_TUPLES_DERIVED: u64 = 510;

/// E2 (sorting, Example 5) pinned alongside Prim: a fixed-seed item
/// list must produce exactly these counters. Sorting exercises the
/// γ/(R,Q,L) path with *no* flat rules, so this golden pins the
/// executor loop itself (feed, pop, commit) where the Prim golden
/// mostly pins seminaive + congruence behaviour.
#[test]
fn sort_counters_are_golden() {
    let items = gbc_greedy::workload::random_items(256, 42);
    let compiled = gbc_greedy::sorting::compiled();
    let edb = gbc_greedy::sorting::edb(&items);
    let tel = Telemetry::enabled();
    let run = compiled.run_greedy_telemetry(&edb, GreedyConfig::default(), &tel).unwrap();
    let snap = &run.snapshot;

    // One γ commit per item: the tuple ↔ stage bijection of Section 3.
    assert_eq!(snap.gamma_steps, 256, "γ steps = n");
    // Every item is its own congruence class (the key is the whole
    // row), so the heap sees exactly one insert and one pop per item —
    // heap-sort, operation for operation.
    assert_rql_counters(snap, GOLDEN_SORT_RQL);
    assert_eq!(snap.tuples_derived, 0);
}

const GOLDEN_SORT_RQL: [u64; 9] = [256, 0, 256, 0, 0, 0, 256, 3364, 0];

/// Example 7 (greedy matching), the γ-heavy workload: the shipped
/// `programs/matching.dl` and a fixed-seed 64-node, 256-arc instance.
/// The two choice FDs block most arcs; each commit retires the queued
/// arcs it blocks, so every pop commits (zero discarded pops) and
/// `heap_inserts == heap_pops + rql_retired` once the queue drains.
/// This pins the retirement path alongside the heap traffic.
#[test]
fn matching_counters_are_golden() {
    let shipped = fs::read_to_string(goldens_dir().join("../../programs/matching.dl"))
        .expect("shipped matching program");
    let compiled = gbc_core::compile(gbc_parser::parse_program(&shipped).unwrap()).unwrap();
    let tel = Telemetry::enabled();
    let run =
        compiled.run_greedy_telemetry(&Database::new(), GreedyConfig::default(), &tel).unwrap();
    assert_rql_counters(&run.snapshot, GOLDEN_MATCHING_SHIPPED_RQL);

    let g = workload::random_arcs(64, 256, 42);
    let tel = Telemetry::enabled();
    let run = gbc_greedy::matching::compiled()
        .run_greedy_telemetry(&g.to_edb(), GreedyConfig::default(), &tel)
        .unwrap();
    assert_rql_counters(&run.snapshot, GOLDEN_MATCHING_RQL);
}

const GOLDEN_MATCHING_SHIPPED_RQL: [u64; 9] = [6, 0, 4, 0, 0, 2, 6, 11, 0];

const GOLDEN_MATCHING_RQL: [u64; 9] = [256, 0, 52, 0, 0, 204, 256, 1647, 0];

/// The sort workload's choice audit, pinned: with the event journal
/// attached, the greedy executor reports exactly one `choice_audit`
/// event per γ commit, each having considered exactly one candidate
/// (the paper's "no wasted pops" property restated over the audit
/// trail), and the `diffChoice` counter stays at zero — sorting has a
/// fresh congruence class per item, so nothing ever conflicts.
#[test]
fn sort_choice_audit_is_golden() {
    let items = gbc_greedy::workload::random_items(256, 42);
    let compiled = gbc_greedy::sorting::compiled();
    let edb = gbc_greedy::sorting::edb(&items);
    let journal = Arc::new(JournalBuffer::new());
    let tel = Telemetry::enabled().with_trace(journal.clone());
    let run = compiled.run_greedy_telemetry(&edb, GreedyConfig::default(), &tel).unwrap();
    let snap = &run.snapshot;

    assert_eq!(snap.choice_candidates_considered, GOLDEN_SORT_CANDIDATES_CONSIDERED);
    assert_eq!(snap.diffchoice_rejections, 0);
    let audits = journal
        .events()
        .iter()
        .filter(|e| e.to_string().contains("\"type\":\"choice_audit\""))
        .count();
    assert_eq!(audits, GOLDEN_SORT_CHOICE_AUDITS);
}

const GOLDEN_SORT_CANDIDATES_CONSIDERED: u64 = 256;
const GOLDEN_SORT_CHOICE_AUDITS: usize = 256;

/// Example 8 (Kruskal) on the small shipped graph, under the generic
/// Choice Fixpoint with provenance recording on. The program is *not*
/// stage-stratified (the paper's point), so this pins the γ audit of
/// the fallback path: candidate counts, `diffChoice` rejections — both
/// as counters and as recorded provenance — and the journal's
/// `choice_audit` event count.
#[test]
fn kruskal_choice_audit_is_golden() {
    let (compiled, mut edb) = kruskal_small();
    assert!(!compiled.has_greedy_plan(), "Example 8 must take the generic path");
    let arena = ProvenanceArena::shared();
    edb.set_provenance(Arc::clone(&arena));
    let journal = Arc::new(JournalBuffer::new());
    let tel = Telemetry::enabled().with_trace(journal.clone());
    let run = compiled.run_telemetry(&edb, &tel).unwrap();
    let snap = &run.snapshot;

    assert_eq!(snap.choice_candidates_considered, GOLDEN_KRUSKAL_CANDIDATES_CONSIDERED);
    assert_eq!(snap.diffchoice_rejections, GOLDEN_KRUSKAL_DIFFCHOICE_REJECTIONS);
    let recorded = arena.rejections().iter().filter(|r| r.reason == "diffchoice").count();
    assert_eq!(recorded as u64, GOLDEN_KRUSKAL_DIFFCHOICE_RECORDED);
    let audits = journal
        .events()
        .iter()
        .filter(|e| e.to_string().contains("\"type\":\"choice_audit\""))
        .count();
    assert_eq!(audits, GOLDEN_KRUSKAL_CHOICE_AUDITS);
    assert!(
        run.db.count(gbc_ast::Symbol::intern("kruskal")) >= 5,
        "a spanning forest's worth of accepted edges"
    );
}

// 724 candidate instantiations across 33 γ decision points; 563 of
// them lose a `diffChoice` comparison (the counter sees every loss,
// the arena dedups repeats of the same (rule, goal, left, attempted)
// conflict down to 136 distinct rejections).
const GOLDEN_KRUSKAL_CANDIDATES_CONSIDERED: u64 = 724;
const GOLDEN_KRUSKAL_DIFFCHOICE_REJECTIONS: u64 = 563;
const GOLDEN_KRUSKAL_DIFFCHOICE_RECORDED: u64 = 136;
const GOLDEN_KRUSKAL_CHOICE_AUDITS: usize = 33;

/// Example 8's rules over the shipped `graph_small.dl` facts.
fn kruskal_small() -> (gbc_core::Compiled, Database) {
    let program = gbc_parser::parse_program(gbc_greedy::kruskal::PROGRAM).unwrap();
    let compiled = gbc_core::compile(program).unwrap();
    (compiled, kruskal_edb())
}

/// The small 6-node / 8-edge graph the audit and surface goldens share.
fn kruskal_edb() -> Database {
    let mut edb = Database::new();
    let edges =
        [(0, 1, 4), (0, 2, 3), (1, 2, 1), (1, 3, 2), (2, 3, 4), (3, 4, 2), (4, 5, 6), (2, 5, 5)];
    for (x, y, c) in edges {
        for (a, b) in [(x, y), (y, x)] {
            edb.insert_values("g", vec![Value::int(a), Value::int(b), Value::int(c)]);
        }
    }
    for n in 0..6 {
        edb.insert_values("node", vec![Value::int(n)]);
    }
    edb
}

// ---------------------------------------------------------------------------
// Decoded-surface goldens (pre-PR7 snapshots).
//
// `gbc run` model output, `gbc explain` trees and the choice-audit
// journal must render *surface* values — symbols, integers, functor
// terms — never storage-internal ids. The snapshots under
// `tests/goldens/` were captured before the columnar dictionary
// encoding landed (PR 7) and pin the decode boundary byte-for-byte.
//
// Regenerate (only for a deliberate surface-format change) with:
//
// ```text
// GBC_BLESS=1 cargo test --test observability_golden
// ```
// ---------------------------------------------------------------------------

fn goldens_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/cli; goldens live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .join("tests")
        .join("goldens")
}

fn compare_or_bless(name: &str, actual: &str) {
    let path = goldens_dir().join(name);
    if std::env::var_os("GBC_BLESS").is_some() {
        fs::create_dir_all(goldens_dir()).expect("goldens dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {} — run with GBC_BLESS=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "golden mismatch for {} — output must stay decoded surface syntax, \
         byte-identical to the pre-PR7 snapshot",
        path.display()
    );
}

/// The journal as JSON-lines, minus worker-lane events (the only event
/// kind carrying wall-clock, and absent from serial runs anyway).
fn journal_lines(journal: &JournalBuffer) -> String {
    journal
        .to_jsonl()
        .lines()
        .filter(|l| !l.contains("\"type\":\"worker_chunk\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Kruskal (Example 8, generic Choice Fixpoint) on the small graph:
/// the computed model, the explain tree for every accepted edge, and
/// the event journal must all match their pre-PR7 decoded snapshots.
#[test]
fn kruskal_surface_output_is_golden() {
    let mut sm = SourceMap::new();
    sm.add_file("kruskal.dl", gbc_greedy::kruskal::PROGRAM);
    let program = gbc_parser::parse_program(&sm.source()).unwrap();
    let compiled = gbc_core::compile(program.clone()).unwrap();
    let mut edb = kruskal_edb();
    let arena = ProvenanceArena::shared();
    edb.set_provenance(Arc::clone(&arena));
    let journal = Arc::new(JournalBuffer::new());
    let tel = Telemetry::enabled().with_trace(journal.clone());
    let run = compiled.run_telemetry(&edb, &tel).unwrap();

    compare_or_bless("kruskal_run.golden", &format!("{}\n", run.db.canonical_form()));

    let query = gbc_parser::parse_rule("query <- kruskal(X, Y, C, I).").unwrap();
    let explain = gbc_core::explain::explain_atom(&program, &sm, &run.db, &arena, &query).unwrap();
    compare_or_bless("kruskal_explain.golden", &explain);

    compare_or_bless("kruskal_journal.golden", &journal_lines(&journal));
}

/// Sorting (Example 5, greedy executor) over a small fixed-seed item
/// list: model, explain tree for the rank-1 fact, and journal, all
/// pinned against the pre-PR7 decoded snapshots.
#[test]
fn sort_surface_output_is_golden() {
    let items = gbc_greedy::workload::random_items(8, 42);
    let mut sm = SourceMap::new();
    sm.add_file("sorting.dl", gbc_greedy::sorting::PROGRAM);
    let program = gbc_parser::parse_program(&sm.source()).unwrap();
    let compiled = gbc_core::compile(program.clone()).unwrap();
    let mut edb = gbc_greedy::sorting::edb(&items);
    let arena = ProvenanceArena::shared();
    edb.set_provenance(Arc::clone(&arena));
    let journal = Arc::new(JournalBuffer::new());
    let tel = Telemetry::enabled().with_trace(journal.clone());
    let run = compiled.run_greedy_telemetry(&edb, GreedyConfig::default(), &tel).unwrap();

    compare_or_bless("sort_run.golden", &format!("{}\n", run.db.canonical_form()));

    let query = gbc_parser::parse_rule("query <- sp(X, C, 1).").unwrap();
    let explain = gbc_core::explain::explain_atom(&program, &sm, &run.db, &arena, &query).unwrap();
    compare_or_bless("sort_explain.golden", &explain);

    compare_or_bless("sort_journal.golden", &journal_lines(&journal));
}

/// Matching (Example 7, greedy executor) on the shipped program: the
/// explain tree pins the executor's provenance of a γ commit — both
/// original choice goals, both stage-FD goals of the `next` expansion,
/// and the `diffChoice` rejections of popped arcs with the pair each
/// lost to.
#[test]
fn matching_explain_is_golden() {
    let shipped = fs::read_to_string(goldens_dir().join("../../programs/matching.dl"))
        .expect("shipped matching program");
    let mut sm = SourceMap::new();
    sm.add_file("matching.dl", &shipped);
    let program = gbc_parser::parse_program(&sm.source()).unwrap();
    let compiled = gbc_core::compile(program.clone()).unwrap();
    assert!(compiled.has_greedy_plan(), "Example 7 must take the greedy path");
    let mut edb = Database::new();
    let arena = ProvenanceArena::shared();
    edb.set_provenance(Arc::clone(&arena));
    let run = compiled.run_greedy(&edb).unwrap();

    let query = gbc_parser::parse_rule("query <- matching(X, Y, C, I).").unwrap();
    let explain = gbc_core::explain::explain_atom(&program, &sm, &run.db, &arena, &query).unwrap();
    compare_or_bless("matching_explain.golden", &explain);
}

/// The shipped job schedule (`programs/scheduling.dl`) under `gbc
/// explain`: a commit retires the candidates it blocks, and the arena
/// records each where its pop would have come. `cand(4,15,2,…)` is
/// blocked first by slot 2's commit and then by job 4's; its pop would
/// have met job 4's FD first, so it is listed under `sched(4,3,3)`,
/// exactly as when the executor popped every blocked candidate.
#[test]
fn scheduling_explain_is_golden() {
    let shipped = fs::read_to_string(goldens_dir().join("../../programs/scheduling.dl"))
        .expect("shipped scheduling program");
    let mut sm = SourceMap::new();
    sm.add_file("scheduling.dl", &shipped);
    let program = gbc_parser::parse_program(&sm.source()).unwrap();
    let compiled = gbc_core::compile(program.clone()).unwrap();
    let mut edb = Database::new();
    let arena = ProvenanceArena::shared();
    edb.set_provenance(Arc::clone(&arena));
    let run = compiled.run_greedy(&edb).unwrap();
    assert!(run.snapshot.rql_retired > 0, "the schedule retires blocked candidates");

    let query = gbc_parser::parse_rule("query <- sched(J, S, I).").unwrap();
    let explain = gbc_core::explain::explain_atom(&program, &sm, &run.db, &arena, &query).unwrap();
    compare_or_bless("scheduling_explain.golden", &explain);
}

/// Two identical runs produce byte-identical counter reports and
/// byte-identical traces.
#[test]
fn observability_is_deterministic_across_runs() {
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..2 {
        let g = fixed_graph();
        let (compiled, edb) = prim::prepared(&g, 0);
        let buf = Arc::new(BufferTrace::new());
        let tel = Telemetry::enabled().with_trace(buf.clone());
        let run = compiled.run_greedy_telemetry(&edb, GreedyConfig::default(), &tel).unwrap();
        // The counters section of the JSON report (phase timings are
        // wall-clock and excluded by construction here).
        reports.push(run.snapshot.to_json().pretty());
        traces.push(buf.lines().join("\n"));
    }
    assert_eq!(reports[0], reports[1], "counter JSON must be byte-identical");
    assert_eq!(traces[0], traces[1], "trace must be byte-identical");
    assert!(traces[0].contains("γ stage"), "trace shows stage commits");
}

/// `gbc run --stats-json` times the whole command as top-level phases,
/// in this order: `parse`, `compile`, `setup`, `run` (with its
/// executor children), `render`, `write`. Only the names are pinned;
/// the timings are wall-clock.
#[test]
fn run_stats_json_lists_the_command_phases_in_order() {
    let root = goldens_dir().join("../..");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_stats_phases.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_gbc"))
        .current_dir(&root)
        .args(["run", "programs/prim.dl", "programs/graph_small.dl", "--stats-json"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("gbc runs");
    assert!(status.success());
    let report = gbc_telemetry::Json::parse(&fs::read_to_string(&out).unwrap()).unwrap();
    let Some(gbc_telemetry::Json::Arr(phases)) = report.get("phases") else {
        panic!("no phases array in {report}")
    };
    let names: Vec<&str> =
        phases.iter().map(|p| p.get("name").and_then(|n| n.as_str()).expect("named")).collect();
    compare_or_bless("run_stats_phases.golden", &format!("{}\n", names.join("\n")));
}
