//! Parallel saturation equivalence sweep — the determinism contract of
//! DESIGN.md §9, checked end to end.
//!
//! Every shipped program runs at 1, 2, 4 and 8 worker threads and must
//! produce, at every count, exactly what the serial engine produces:
//! the same canonical relation dump, the same semantic counters
//! (including the per-round `delta_history` — order matters, not just
//! totals), and the same stats JSON once timing floats are masked.
//! Thread count may only change *where* flat-rule joins execute, never
//! what they derive or in what order the results are merged.
//!
//! The shipped `.dl` programs are small (their saturation rounds mostly
//! stay under the pool's chunking threshold), so a generated Prim
//! workload big enough to genuinely fan out across workers is swept
//! too.

use gbc_core::GreedyConfig;
use gbc_greedy::{prim, workload};
use gbc_storage::Database;
use gbc_telemetry::{Json, Snapshot, Telemetry};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The ci.sh observability groupings: every shipped program with the
/// EDB file(s) it runs against.
const PROGRAMS: [&[&str]; 9] = [
    &["programs/prim.dl", "programs/graph_small.dl"],
    &["programs/spanning.dl", "programs/graph_small.dl"],
    &["programs/kruskal.dl", "programs/graph_small.dl"],
    &["programs/sort.dl"],
    &["programs/matching.dl"],
    &["programs/huffman.dl"],
    &["programs/scheduling.dl"],
    &["programs/tsp.dl"],
    &["programs/assignment.dl"],
];

/// Everything a run produced that must be invariant under the thread
/// count: relation contents, semantic counters (with delta history),
/// and the stats JSON with timing floats masked out.
#[derive(PartialEq)]
struct RunFingerprint {
    canonical: String,
    snapshot: Snapshot,
    stats_json: String,
}

impl std::fmt::Debug for RunFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunFingerprint")
            .field("canonical", &self.canonical)
            .field("snapshot", &self.snapshot)
            .field("stats_json", &self.stats_json)
            .finish()
    }
}

/// Replace every float in a stats JSON tree with null. Counters are
/// integers; the floats are exactly the wall-clock fields (phase and
/// profile seconds), which are the one thing a thread count is allowed
/// to change.
fn mask_timings(json: Json) -> Json {
    match json {
        Json::Float(_) => Json::Null,
        Json::Arr(items) => Json::Arr(items.into_iter().map(mask_timings).collect()),
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().map(|(k, v)| (k, mask_timings(v))).collect())
        }
        other => other,
    }
}

fn fingerprint(db: &Database, tel: &Telemetry) -> RunFingerprint {
    RunFingerprint {
        canonical: db.canonical_form(),
        snapshot: tel.snapshot(),
        stats_json: mask_timings(tel.to_json()).pretty(),
    }
}

/// Run one program group at `threads` workers, mirroring `gbc run`:
/// the Section 6 greedy executor when the program compiles to a greedy
/// plan, the generic fixpoint (always serial — choice resolution is
/// inherently sequential) otherwise.
fn run_group(files: &[&str], threads: usize) -> RunFingerprint {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut source = String::new();
    for f in files {
        let path = format!("{root}/{f}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        source.push_str(&text);
        source.push('\n');
    }
    let program = gbc_parser::parse_program(&source).expect("shipped program parses");
    let compiled = gbc_core::compile(program).expect("shipped program compiles");
    let edb = Database::new();
    let tel = Telemetry::enabled();
    if compiled.has_greedy_plan() {
        let config = GreedyConfig::with_threads(threads);
        let run = compiled.run_greedy_telemetry(&edb, config, &tel).expect("greedy run");
        fingerprint(&run.db, &tel)
    } else {
        let mut fixpoint =
            gbc_engine::ChoiceFixpoint::new(compiled.expanded(), &edb).expect("fixpoint");
        fixpoint.set_telemetry(tel.clone());
        fixpoint.run(&mut gbc_engine::DeterministicFirst).expect("fixpoint run");
        fingerprint(&fixpoint.into_database(), &tel)
    }
}

#[test]
fn shipped_programs_are_thread_count_invariant() {
    for files in PROGRAMS {
        let serial = run_group(files, 1);
        assert!(!serial.canonical.is_empty(), "{files:?} produced no facts");
        for threads in &THREAD_COUNTS[1..] {
            let parallel = run_group(files, *threads);
            assert_eq!(
                serial, parallel,
                "{files:?} diverged from the serial run at {threads} threads"
            );
        }
    }
}

/// A Prim instance large enough that saturation rounds cross the pool's
/// chunking threshold and genuinely execute on worker threads — the
/// shipped graph_small.dl never leaves the inline path.
#[test]
fn large_prim_fans_out_identically() {
    let g = workload::connected_graph(512, 3 * 512, 1_000_000, 42);
    let (compiled, edb) = prim::prepared(&g, 0);
    let mut serial = None;
    for threads in THREAD_COUNTS {
        let tel = Telemetry::enabled();
        let config = GreedyConfig::with_threads(threads);
        let run = compiled.run_greedy_telemetry(&edb, config, &tel).expect("prim run");
        assert_eq!(prim::decode(&run).len(), 511, "spanning tree edges");
        let fp = fingerprint(&run.db, &tel);
        match &serial {
            None => serial = Some(fp),
            Some(s) => assert_eq!(s, &fp, "prim n=512 diverged at {threads} threads"),
        }
    }
}
