//! `experiments` — regenerate every Section 6 analysis as a table.
//!
//! ```text
//! experiments [prim|sort|matching|kruskal|models|huffman|tsp|spanning|
//!              scheduling|ablation|seminaive|all]...
//!             [--quick] [--json <path>] [--label <name>]
//!             [--compare LABEL] [--tolerance PCT] [--ratio-gate]
//! ```
//!
//! Each experiment prints problem sizes, wall-clock medians (in-tree
//! warmup + median-of-k harness) for the declarative executor and its
//! procedural comparator, the fitted scaling exponent of each, the
//! correctness cross-checks, and — new with `gbc-telemetry` — the
//! operation counters that certify the paper's bounds independently of
//! the machine: heap operations per `e log e` for Prim (flat across
//! sizes ⇔ the `O(e log e)` claim), γ steps, discarded pops. Output is
//! recorded in `EXPERIMENTS.md`.
//!
//! `--json <path>` appends a machine-readable run (per-row median
//! nanoseconds plus the certificate counters for E1–E4) to `<path>`,
//! creating `{"runs": [...]}` on first use — the repo's perf
//! trajectory, kept in `BENCH_experiments.json` by `ci.sh`. Each run
//! carries a `meta` block (core count, OS/arch) so numbers from
//! different machines are never compared blind.
//!
//! `--compare LABEL` diffs the **newest** run in the `--json` file
//! against the most recent *earlier* run labelled `LABEL`. Semantic
//! counters must match exactly (hard failure, exit 1); timing columns
//! (`*_ns`) only warn beyond `--tolerance PCT` (default 25), because
//! shared CI boxes cannot hard-gate wall-clock.
//!
//! `--ratio-gate` checks the freshly measured largest-size rows of
//! E1/E2/E3: declarative wall-clock over classical (`classical_ns` for
//! prim and matching, `heapsort_ns` for sort) must stay under the
//! committed ceilings ([`PRIM_MAX_RATIO`], [`SORT_MAX_RATIO`],
//! [`MATCHING_MAX_RATIO`]). Exit 1 on breach, after the `--json` record
//! is appended so the evidence lands.
//!
//! E1/E2 rows also carry the value-dictionary movement of one dedicated
//! run (`dict_entries`/`encode_hits`/`decode_calls`): deterministic
//! columns certifying that interning work scales with the workload's
//! distinct values, not with rows scanned. E1/E3 rows carry `load_ns`
//! too: the median parse + compile of the same instance written as one
//! inline text (the program followed by its `g` facts), the load that
//! `gbc run FILE` and `POST /load` pay before evaluating.

use gbc_baselines::huffman::{huffman_tree, weighted_path_length as wpl_base};
use gbc_baselines::kruskal::{kruskal_mst, kruskal_relabel};
use gbc_baselines::matching::greedy_matching;
use gbc_baselines::prim::prim_mst;
use gbc_baselines::sorts::{heapsort, insertion_sort};
use gbc_baselines::tsp::{greedy_chain, is_hamiltonian_path, nearest_neighbour};
use gbc_baselines::{total_cost, Edge};
use gbc_bench::{fit_exponent, render_table, Harness, Sample, Timing};
use gbc_greedy::{huffman, kruskal, matching, prim, sorting, spanning, student, tsp, workload};
use gbc_telemetry::Json;

/// Print the full usage text plus `err` and exit 2 — every malformed
/// flag lands here instead of a panic backtrace.
fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!();
    eprintln!(
        "usage: experiments [prim|sort|matching|kruskal|models|huffman|tsp|spanning|\n\
         \u{20}                   scheduling|ablation|seminaive|all]...\n\
         \u{20}                  [--quick] [--json <path>] [--label <name>]\n\
         \u{20}                  [--compare LABEL] [--tolerance PCT] [--ratio-gate]"
    );
    std::process::exit(2);
}

/// The next argument after `flag`, or usage-and-exit when it is missing.
fn require_value(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> String {
    it.next().cloned().unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut json_path: Option<String> = None;
    let mut label = "run".to_owned();
    let mut compare: Option<String> = None;
    let mut tolerance = 25.0f64;
    let mut gate = false;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--ratio-gate" => gate = true,
            "--json" => json_path = Some(require_value(&mut it, "--json", "a path")),
            "--label" => label = require_value(&mut it, "--label", "a run label"),
            "--compare" => compare = Some(require_value(&mut it, "--compare", "a baseline label")),
            "--tolerance" => {
                let pct = require_value(&mut it, "--tolerance", "a percentage");
                tolerance =
                    pct.parse::<f64>().ok().filter(|p| p.is_finite() && *p >= 0.0).unwrap_or_else(
                        || usage(&format!("bad percentage `{pct}` in --tolerance")),
                    );
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag: {flag}")),
            name => names.push(name.to_owned()),
        }
    }

    if let Some(baseline) = compare {
        let Some(path) = json_path else { usage("--compare needs --json <path>") };
        std::process::exit(compare_runs(&path, &baseline, tolerance));
    }

    if names.is_empty() {
        names.push("all".to_owned());
    }

    let run = |name: &str| names.iter().any(|n| n == "all" || n == name);
    let mut rec = Recorder::default();
    if run("prim") {
        e1_prim(quick, &mut rec);
    }
    if run("sort") {
        e2_sort(quick, &mut rec);
    }
    if run("matching") {
        e3_matching(quick, &mut rec);
    }
    if run("kruskal") {
        e4_kruskal(quick, &mut rec);
    }
    if run("models") {
        e5_models();
    }
    if run("huffman") {
        e6_huffman(quick);
    }
    if run("tsp") {
        e7_tsp(quick);
    }
    if run("spanning") {
        e8_spanning(quick);
    }
    if run("scheduling") {
        e9_scheduling();
    }
    if run("ablation") {
        a1_ablation(quick);
    }
    if run("seminaive") {
        a2_seminaive(quick);
    }

    // Gate before the record is consumed, exit after it is appended:
    // a breached ceiling still lands in the JSON history for forensics.
    let gate_exit = if gate { ratio_gate(&rec) } else { 0 };
    if let Some(path) = json_path {
        append_run(&path, rec.into_run(&label));
        println!("\nappended run \"{label}\" to {path}");
    }
    if gate_exit != 0 {
        std::process::exit(gate_exit);
    }
}

/// Collects one JSON row per (experiment, problem size) for `--json`.
#[derive(Default)]
struct Recorder {
    experiments: Vec<(String, Vec<Json>)>,
}

impl Recorder {
    fn push(&mut self, exp: &str, fields: Vec<(&str, Json)>) {
        let row = Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        match self.experiments.iter_mut().find(|(name, _)| name == exp) {
            Some((_, rows)) => rows.push(row),
            None => self.experiments.push((exp.to_owned(), vec![row])),
        }
    }

    fn into_run(self, label: &str) -> Json {
        Json::obj(vec![
            // v2: older records in the trail also carry load-test rows
            // (p50_ns/p90_ns/p99_ns/req_per_sec); v1 rows are unchanged,
            // so readers only need the version to know which columns
            // can exist.
            ("schema_version", Json::UInt(2)),
            ("label", Json::Str(label.to_owned())),
            ("meta", run_meta()),
            (
                "experiments",
                Json::Arr(
                    self.experiments
                        .into_iter()
                        .map(|(name, rows)| {
                            Json::obj(vec![("name", Json::Str(name)), ("rows", Json::Arr(rows))])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Median seconds → integer nanoseconds for the JSON artifact.
fn ns(secs: f64) -> Json {
    Json::UInt((secs * 1e9).round() as u64)
}

/// Runs `f` once and returns the dictionary-counter movement it caused.
/// The dictionary is process-global, so callers must already have
/// interned the workload's values (the timed repetitions before this
/// call do) for the delta to be a deterministic per-run figure.
fn dict_delta(f: impl FnOnce()) -> gbc_storage::DictStats {
    let before = gbc_storage::dict_stats();
    f();
    gbc_storage::dict_stats().since(&before)
}

/// Committed wall-clock ceilings on declarative/classical at the
/// largest problem size, enforced by `--ratio-gate` (ci-quick runs it).
/// Measured on the columnar dictionary-encoded build with headroom for
/// CI noise; ratchet these down as the interpreter closes the gap.
/// Post-PR10 (batched γ feed: prim's `Y != 0` pre-check now compiles
/// to a columnar check, so its feed skips per-row `Bindings`): quick
/// prim median 29.8, observed max 32.4 over ten runs — ratcheted 35→33.
/// Sort stays at 30: its quick-mode baseline is microseconds and the
/// ratio spikes past 35 under scheduler noise even though the batch
/// kernel trims ~5% off the full-size declarative wall clock.
/// Prim with id-native flat heads and no confirming flat round: ten
/// quick runs on a 2-vCPU host read 12.8, 12.2, 13.1, 19.3, 12.3, 14.6,
/// 13.8, 12.7, 11.6, 13.2 (median 13.0); the build before it read
/// 12.2–22.1 (median 19.3) in runs alternating with those. Observed max
/// plus headroom: 33→25.
const PRIM_MAX_RATIO: f64 = 25.0;
const SORT_MAX_RATIO: f64 = 30.0;
/// Matching (E3, quick e = 4096) on the columnar (R,Q,L) build: ten
/// quick runs on a 2-vCPU host read 26.2–34.4 (median 31.9, decl
/// 4.5–7.7 ms); the build before it read 25.8–52.6 (median 47.6, decl
/// 8.0–12.2 ms) in runs alternating with those. Observed max plus
/// headroom: 40.
const MATCHING_MAX_RATIO: f64 = 40.0;

/// Checks the recorded largest-size rows of E1/E2/E3 against the
/// committed declarative/classical ceilings. Returns the process exit
/// code.
fn ratio_gate(rec: &Recorder) -> i32 {
    let mut failures = 0;
    for (exp, size_key, base_field, limit) in [
        ("prim", "n", "classical_ns", PRIM_MAX_RATIO),
        ("sort", "n", "heapsort_ns", SORT_MAX_RATIO),
        ("matching", "e", "classical_ns", MATCHING_MAX_RATIO),
    ] {
        let rows = rec.experiments.iter().find(|(name, _)| name == exp).map(|(_, r)| r.as_slice());
        let Some(rows) = rows else {
            eprintln!("ratio-gate FAIL: experiment \"{exp}\" was not run");
            failures += 1;
            continue;
        };
        let n_of = |r: &Json| r.get(size_key).and_then(Json::as_u64).unwrap_or(0);
        let n_max = rows.iter().map(n_of).max().unwrap_or(0);
        let Some(row) = rows.iter().find(|r| n_of(r) == n_max) else {
            eprintln!("ratio-gate FAIL: experiment \"{exp}\" recorded no rows");
            failures += 1;
            continue;
        };
        let decl = row.get("decl_ns").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let base = row.get(base_field).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let ratio = decl / base.max(1.0);
        let what = base_field.trim_end_matches("_ns");
        if ratio <= limit {
            println!(
                "ratio-gate ok:   {exp} {size_key}={n_max} decl/{what} = {ratio:.1} <= {limit}"
            );
        } else {
            eprintln!(
                "ratio-gate FAIL: {exp} {size_key}={n_max} decl/{what} = {ratio:.1} > {limit}"
            );
            failures += 1;
        }
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

/// The hardware/OS context a run was measured on. Timings from records
/// with different `meta` blocks are not comparable; counters are.
fn run_meta() -> Json {
    let cores = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0);
    Json::obj(vec![
        ("cores", Json::UInt(cores)),
        ("os", Json::Str(std::env::consts::OS.to_owned())),
        ("arch", Json::Str(std::env::consts::ARCH.to_owned())),
    ])
}

/// Append one run object to the `{"runs": [...]}` array at `path`,
/// creating the file on first use. The file is only ever written by
/// this function, so the splice can rely on its exact shape.
fn append_run(path: &str, run: Json) {
    let run_text = run.pretty();
    let out = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let Some(prefix) = trimmed.strip_suffix("]}") else {
                eprintln!("{path} does not end in \"]}}\" — not a bench-run file; refusing");
                std::process::exit(2);
            };
            let sep = if prefix.trim_end().ends_with('[') { "\n" } else { ",\n" };
            format!("{}{}{}\n]}}\n", prefix.trim_end(), sep, run_text)
        }
        Err(_) => format!("{{\"runs\": [\n{run_text}\n]}}\n"),
    };
    std::fs::write(path, out).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
}

fn harness(quick: bool) -> Harness {
    if quick {
        Harness::quick()
    } else {
        Harness::new()
    }
}

fn secs(s: f64) -> String {
    format!("{:.4}", s)
}

/// `program` followed by one `g(X,Y,C).` fact per edge: an instance as
/// one inline text, the shape `gbc run FILE` and `POST /load` read.
fn inline_text(program: &str, edges: &[Edge]) -> String {
    let mut text = format!("{program}\n");
    for e in edges {
        text.push_str(&format!("g({},{},{}).\n", e.from, e.to, e.cost));
    }
    text
}

/// The timing of loading `text`: parse plus compile, which encodes its
/// facts.
fn load_timing(h: &Harness, text: &str) -> Timing {
    let (_, t) = h.run(|| {
        let program = gbc_parser::parse_program(text).expect("inline instance parses");
        gbc_core::compile(program).expect("inline instance compiles")
    });
    t
}

fn e1_prim(quick: bool, rec: &mut Recorder) {
    println!("\n== E1  Prim (Example 4): declarative O(e log e) vs classical O(e log n) ==");
    let sizes: &[usize] = if quick { &[128, 256, 512] } else { &[128, 256, 512, 1024, 2048] };
    let h = harness(quick);
    let mut rows = Vec::new();
    let mut decl_samples = Vec::new();
    let mut base_samples = Vec::new();
    for &n in sizes {
        let g = workload::connected_graph(n, 3 * n, 1_000_000, 42);
        let e = g.num_edges();
        let (compiled, edb) = prim::prepared(&g, 0);
        let (base, t_base) = h.run(|| prim_mst(g.n, &g.edges, 0));
        let (run, t_decl) = h.run(|| compiled.run_greedy(&edb).unwrap());
        let (_, t_render) = h.run(|| run.db.canonical_form());
        let t_load = load_timing(&h, &inline_text(&prim::program_text(0), &g.edges));
        let decl_edges = prim::decode(&run);
        assert_eq!(total_cost(&decl_edges), total_cost(&base), "MST costs must agree");
        // Machine-independent certificate of O(e log e): total heap
        // operations per e·log₂e stay flat as e grows.
        let heap_ops = run.snapshot.heap_ops();
        let elog = e as f64 * (e as f64).log2();
        decl_samples.push(Sample { size: e as u64, secs: t_decl.median_secs });
        base_samples.push(Sample { size: e as u64, secs: t_base.median_secs });
        // Dictionary-counter movement of one dedicated run: the
        // timed repetitions above interned every value this workload
        // can produce, so the delta is the per-run interning
        // overhead (hits and boundary decodes; zero new entries).
        let dict = dict_delta(|| {
            compiled.run_greedy(&edb).unwrap();
        });
        rec.push(
            "prim",
            vec![
                ("n", Json::UInt(n as u64)),
                ("e", Json::UInt(e as u64)),
                ("decl_ns", ns(t_decl.median_secs)),
                ("classical_ns", ns(t_base.median_secs)),
                ("load_ns", ns(t_load.median_secs)),
                ("render_ns", ns(t_render.median_secs)),
                ("mst_cost", Json::Int(total_cost(&decl_edges))),
                ("heap_ops", Json::UInt(heap_ops)),
                ("gamma_steps", Json::UInt(run.snapshot.gamma_steps)),
                ("flat_rounds", Json::UInt(run.snapshot.flat_rounds)),
                ("discarded_pops", Json::UInt(run.snapshot.discarded_pops)),
                ("diffchoice_rejections", Json::UInt(run.snapshot.diffchoice_rejections)),
                ("tuples_derived", Json::UInt(run.snapshot.tuples_derived)),
                ("plan_cache_hits", Json::UInt(run.snapshot.plan_cache_hits)),
                ("dict_entries", Json::UInt(dict.dict_entries)),
                ("encode_hits", Json::UInt(dict.encode_hits)),
                ("decode_calls", Json::UInt(dict.decode_calls)),
            ],
        );
        rows.push(vec![
            n.to_string(),
            e.to_string(),
            secs(t_decl.median_secs),
            secs(t_base.median_secs),
            format!("{:.1}", t_decl.median_secs / t_base.median_secs.max(1e-9)),
            secs(t_load.median_secs),
            secs(t_render.median_secs),
            total_cost(&decl_edges).to_string(),
            heap_ops.to_string(),
            format!("{:.3}", heap_ops as f64 / elog),
            run.snapshot.flat_rounds.to_string(),
            run.snapshot.discarded_pops.to_string(),
            run.snapshot.diffchoice_rejections.to_string(),
            run.snapshot.plan_cache_hits.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "n",
                "e",
                "decl_s",
                "classical_s",
                "ratio",
                "load_s",
                "render_s",
                "mst_cost",
                "heap_ops",
                "ops/(e·lg e)",
                "flat_rounds",
                "discarded",
                "diffchoice",
                "plan_hits",
            ],
            &rows
        )
    );
    println!(
        "scaling exponent vs e: declarative {:.2}, classical {:.2} (both ≈ 1 = e·log e); \
         ops/(e·lg e) flat across sizes certifies the bound without a stopwatch",
        fit_exponent(&decl_samples),
        fit_exponent(&base_samples)
    );
}

fn e2_sort(quick: bool, rec: &mut Recorder) {
    println!("\n== E2  Sorting (Example 5): the fixpoint runs heap-sort, O(n log n) ==");
    let sizes: &[usize] = if quick { &[512, 1024, 2048] } else { &[512, 1024, 2048, 4096, 8192] };
    let h = harness(quick);
    let mut rows = Vec::new();
    let (mut decl_s, mut heap_s, mut ins_s) = (Vec::new(), Vec::new(), Vec::new());
    for &n in sizes {
        let items = workload::random_items(n, 42);
        let compiled = sorting::compiled();
        let edb = sorting::edb(&items);
        let (_, t_heap) = h.run(|| {
            let mut v: Vec<(i64, i64)> = items.iter().map(|&(x, c)| (c, x)).collect();
            heapsort(&mut v);
            v
        });
        let (_, t_ins) = h.run(|| {
            let mut v: Vec<(i64, i64)> = items.iter().map(|&(x, c)| (c, x)).collect();
            insertion_sort(&mut v);
            v
        });
        let (run, t_decl) = h.run(|| compiled.run_greedy(&edb).unwrap());
        assert_eq!(run.stats.gamma_steps as usize, n);
        decl_s.push(Sample { size: n as u64, secs: t_decl.median_secs });
        heap_s.push(Sample { size: n as u64, secs: t_heap.median_secs });
        ins_s.push(Sample { size: n as u64, secs: t_ins.median_secs });
        let dict = dict_delta(|| {
            compiled.run_greedy(&edb).unwrap();
        });
        rec.push(
            "sort",
            vec![
                ("n", Json::UInt(n as u64)),
                ("decl_ns", ns(t_decl.median_secs)),
                ("heapsort_ns", ns(t_heap.median_secs)),
                ("insertion_ns", ns(t_ins.median_secs)),
                ("heap_ops", Json::UInt(run.snapshot.heap_ops())),
                ("gamma_steps", Json::UInt(run.snapshot.gamma_steps)),
                ("flat_rounds", Json::UInt(run.snapshot.flat_rounds)),
                ("diffchoice_rejections", Json::UInt(run.snapshot.diffchoice_rejections)),
                ("plan_cache_hits", Json::UInt(run.snapshot.plan_cache_hits)),
                ("dict_entries", Json::UInt(dict.dict_entries)),
                ("encode_hits", Json::UInt(dict.encode_hits)),
                ("decode_calls", Json::UInt(dict.decode_calls)),
            ],
        );
        rows.push(vec![
            n.to_string(),
            secs(t_decl.median_secs),
            secs(t_heap.median_secs),
            secs(t_ins.median_secs),
            run.snapshot.heap_ops().to_string(),
            run.snapshot.gamma_steps.to_string(),
            run.snapshot.flat_rounds.to_string(),
            run.snapshot.diffchoice_rejections.to_string(),
            run.snapshot.plan_cache_hits.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "n",
                "decl_s",
                "heapsort_s",
                "insertion_s",
                "heap_ops",
                "γ_steps",
                "flat_rounds",
                "diffchoice",
                "plan_hits",
            ],
            &rows
        )
    );
    println!(
        "scaling exponents: declarative {:.2} (≈1, heap-sort-like), heapsort {:.2}, insertion {:.2} (≈2)",
        fit_exponent(&decl_s),
        fit_exponent(&heap_s),
        fit_exponent(&ins_s)
    );
}

fn e3_matching(quick: bool, rec: &mut Recorder) {
    println!("\n== E3  Matching (Example 7): greedy maximal matching, O(e log e) ==");
    let sizes: &[usize] =
        if quick { &[1024, 2048, 4096] } else { &[1024, 2048, 4096, 8192, 16384] };
    let h = harness(quick);
    let mut rows = Vec::new();
    let (mut decl_s, mut base_s) = (Vec::new(), Vec::new());
    for &e in sizes {
        let g = workload::random_arcs(e / 4, e, 42);
        let compiled = matching::compiled();
        let edb = g.to_edb();
        let (run, t_decl) = h.run(|| compiled.run_greedy(&edb).unwrap());
        let (_, t_render) = h.run(|| run.db.canonical_form());
        let (base, t_base) = h.run(|| greedy_matching(g.n, &g.edges));
        let t_load = load_timing(&h, &inline_text(matching::PROGRAM, &g.edges));
        let decl = matching::decode(&run);
        assert_eq!(total_cost(&decl), total_cost(&base), "same greedy matching");
        decl_s.push(Sample { size: e as u64, secs: t_decl.median_secs });
        base_s.push(Sample { size: e as u64, secs: t_base.median_secs });
        rec.push(
            "matching",
            vec![
                ("e", Json::UInt(e as u64)),
                ("matching_size", Json::UInt(decl.len() as u64)),
                ("decl_ns", ns(t_decl.median_secs)),
                ("classical_ns", ns(t_base.median_secs)),
                ("load_ns", ns(t_load.median_secs)),
                ("render_ns", ns(t_render.median_secs)),
                ("heap_ops", Json::UInt(run.snapshot.heap_ops())),
                ("gamma_steps", Json::UInt(run.snapshot.gamma_steps)),
                ("discarded_pops", Json::UInt(run.snapshot.discarded_pops)),
                ("plan_cache_hits", Json::UInt(run.snapshot.plan_cache_hits)),
            ],
        );
        rows.push(vec![
            e.to_string(),
            decl.len().to_string(),
            secs(t_decl.median_secs),
            secs(t_base.median_secs),
            format!("{:.1}", t_decl.median_secs / t_base.median_secs.max(1e-9)),
            secs(t_load.median_secs),
            secs(t_render.median_secs),
            run.snapshot.heap_ops().to_string(),
            run.snapshot.discarded_pops.to_string(),
            run.snapshot.plan_cache_hits.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "e",
                "|matching|",
                "decl_s",
                "classical_s",
                "ratio",
                "load_s",
                "render_s",
                "heap_ops",
                "discarded",
                "plan_hits",
            ],
            &rows
        )
    );
    println!(
        "scaling exponents vs e: declarative {:.2}, classical {:.2}",
        fit_exponent(&decl_s),
        fit_exponent(&base_s)
    );
}

fn e4_kruskal(quick: bool, rec: &mut Recorder) {
    println!("\n== E4  Kruskal (Example 8): declarative O(e·n) vs classical O(e log e) ==");
    let sizes: &[usize] = if quick { &[256, 512, 1024] } else { &[256, 512, 1024, 2048, 4096] };
    let h = harness(quick);
    let mut rows = Vec::new();
    let (mut decl_s, mut uf_s) = (Vec::new(), Vec::new());
    for &n in sizes {
        let g = workload::connected_graph(n, 3 * n, 1_000_000, 42);
        let (run, t_decl) = h.run(|| kruskal::run_stage_views(&g));
        let (relab, t_relab) = h.run(|| kruskal_relabel(g.n, &g.edges));
        let (uf, t_uf) = h.run(|| kruskal_mst(g.n, &g.edges));
        assert_eq!(total_cost(&run.tree), total_cost(&uf));
        assert_eq!(total_cost(&relab), total_cost(&uf));
        decl_s.push(Sample { size: n as u64, secs: t_decl.median_secs });
        uf_s.push(Sample { size: n as u64, secs: t_uf.median_secs });
        // `run_stage_views` drives `Rql` directly, outside telemetry —
        // timings and structural counts only for this one.
        rec.push(
            "kruskal",
            vec![
                ("n", Json::UInt(n as u64)),
                ("e", Json::UInt(g.num_edges() as u64)),
                ("decl_views_ns", ns(t_decl.median_secs)),
                ("relabel_ns", ns(t_relab.median_secs)),
                ("union_find_ns", ns(t_uf.median_secs)),
                ("tree_edges", Json::UInt(run.tree.len() as u64)),
                ("redundant_pops", Json::UInt(run.redundant)),
            ],
        );
        rows.push(vec![
            n.to_string(),
            g.num_edges().to_string(),
            secs(t_decl.median_secs),
            secs(t_relab.median_secs),
            secs(t_uf.median_secs),
            format!("{:.1}", t_decl.median_secs / t_uf.median_secs.max(1e-9)),
        ]);
    }
    println!(
        "{}",
        render_table(&["n", "e", "decl_views_s", "relabel_s", "union_find_s", "gap"], &rows)
    );
    println!(
        "scaling exponents vs n (e ∝ n): declarative {:.2} (≈2 = e·n), union-find {:.2} (≈1); \
         the gap grows with n, as the paper's analysis predicts",
        fit_exponent(&decl_s),
        fit_exponent(&uf_s)
    );
}

fn e5_models() {
    println!("\n== E5  Choice models (Examples 1-2, Section 2) ==");
    let models = student::enumerate_models().unwrap();
    println!(
        "Example 1 one-student-per-course: {} choice models (paper lists M1, M2, M3)",
        models.len()
    );
    let bi = student::enumerate_bi_models().unwrap();
    println!("bi_st_c (choice + least combination): {} stable models (paper lists 2)", bi.len());
    assert_eq!(models.len(), 3);
    assert_eq!(bi.len(), 2);
}

fn e6_huffman(quick: bool) {
    println!("\n== E6  Huffman (Example 6): optimal prefix trees ==");
    let sizes: &[usize] = if quick { &[8, 16, 32] } else { &[8, 16, 32, 64, 96] };
    let h = harness(quick);
    let mut rows = Vec::new();
    for &k in sizes {
        let w = workload::letter_freqs(k, 42);
        let (run, t_decl) = h.run(|| huffman::run_greedy(&w).unwrap());
        let decl_wpl = huffman::weighted_path_length(&run, &w).unwrap();
        let (base, t_base) = h.run(|| huffman_tree(&w).unwrap());
        let base_wpl = wpl_base(&base, &w);
        assert_eq!(decl_wpl, base_wpl, "equal weighted path length");
        rows.push(vec![
            k.to_string(),
            decl_wpl.to_string(),
            base_wpl.to_string(),
            secs(t_decl.median_secs),
            secs(t_base.median_secs),
        ]);
    }
    println!(
        "{}",
        render_table(&["k", "decl_wpl", "classical_wpl", "decl_s", "classical_s"], &rows)
    );
    println!("equal WPL on every row ⇒ the declarative tree is optimal");
}

fn e7_tsp(quick: bool) {
    println!("\n== E7  Greedy TSP chains (Section 5, sub-optimals) ==");
    let sizes: &[usize] = if quick { &[16, 32, 64] } else { &[16, 32, 64, 128] };
    let h = harness(quick);
    let mut rows = Vec::new();
    for &n in sizes {
        let g = workload::complete_geometric(n, 42);
        let (decl, t_decl) = h.run(|| tsp::run_greedy(&g).unwrap());
        assert!(is_hamiltonian_path(g.n, &decl));
        let (chain, _) = h.run(|| greedy_chain(g.n, &g.edges));
        let (nn, _) = h.run(|| nearest_neighbour(g.n, &g.edges, 0));
        rows.push(vec![
            n.to_string(),
            total_cost(&decl).to_string(),
            total_cost(&chain).to_string(),
            total_cost(&nn).to_string(),
            secs(t_decl.median_secs),
        ]);
    }
    println!(
        "{}",
        render_table(&["n", "decl_cost", "greedy_chain", "nearest_nb", "decl_s"], &rows)
    );
    println!("decl_cost equals greedy_chain on every row; both are heuristics near nearest_nb");
}

fn e8_spanning(quick: bool) {
    println!("\n== E8  Spanning trees (Example 3): every run yields a spanning tree ==");
    let sizes: &[usize] = if quick { &[64, 128] } else { &[64, 128, 256, 512] };
    let h = harness(quick);
    let mut rows = Vec::new();
    for &n in sizes {
        let g = workload::connected_graph(n, 2 * n, 100, 42);
        let (stage_tree, t_stage) = h.run(|| spanning::run_stage(&g, 0).unwrap());
        assert!(spanning::is_spanning_tree(&g, 0, &stage_tree));
        let (choice_tree, t_choice) = h.run(|| spanning::run_choice(&g, 0).unwrap());
        assert!(spanning::is_spanning_tree(&g, 0, &choice_tree));
        rows.push(vec![
            n.to_string(),
            stage_tree.len().to_string(),
            secs(t_stage.median_secs),
            secs(t_choice.median_secs),
        ]);
    }
    println!("{}", render_table(&["n", "tree_edges", "stage_exec_s", "generic_fixpoint_s"], &rows));
}

fn e9_scheduling() {
    println!("\n== E9  Job sequencing with deadlines (Section 5 'scheduling algorithms', most) ==");
    use gbc_baselines::scheduling::{job_sequencing, optimal_profit_bruteforce, Job};
    use gbc_telemetry::rng::Rng;
    let mut rows = Vec::new();
    for seed in [1u64, 2, 3, 4] {
        let mut rng = Rng::new(seed);
        let n = 8;
        let jobs: Vec<Job> =
            (0..n).map(|i| Job::new(i, rng.range_i64(1, 99), rng.range_i64(1, 5) as u32)).collect();
        let sched = gbc_greedy::scheduling::run_greedy(&jobs).unwrap();
        let decl = gbc_greedy::scheduling::total_profit(&jobs, &sched);
        let (_, base) = job_sequencing(&jobs);
        let opt = optimal_profit_bruteforce(&jobs);
        assert_eq!(decl, base);
        assert_eq!(decl, opt, "greedy is optimal (matroid)");
        rows.push(vec![
            seed.to_string(),
            n.to_string(),
            decl.to_string(),
            base.to_string(),
            opt.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["seed", "jobs", "decl_profit", "greedy_profit", "optimum"], &rows)
    );
    println!("declarative = procedural greedy = brute-force optimum on every row");
}

fn a1_ablation(quick: bool) {
    println!("\n== A1  Ablation: (R,Q,L) executor vs generic re-scan fixpoint (sorting) ==");
    let sizes: &[usize] = if quick { &[64, 128, 256] } else { &[64, 128, 256, 512, 1024] };
    let h = harness(quick);
    let mut rows = Vec::new();
    let (mut rql_s, mut gen_s) = (Vec::new(), Vec::new());
    for &n in sizes {
        let items = workload::random_items(n, 42);
        let compiled = sorting::compiled();
        let edb = sorting::edb(&items);
        let (rql_run, t_rql) = h.run(|| compiled.run_greedy(&edb).unwrap());
        let (gen_run, t_gen) = h.run(|| compiled.run_generic(&edb).unwrap());
        rql_s.push(Sample { size: n as u64, secs: t_rql.median_secs });
        gen_s.push(Sample { size: n as u64, secs: t_gen.median_secs });
        rows.push(vec![
            n.to_string(),
            secs(t_rql.median_secs),
            secs(t_gen.median_secs),
            format!("{:.0}", t_gen.median_secs / t_rql.median_secs.max(1e-9)),
            rql_run.snapshot.heap_ops().to_string(),
            gen_run.snapshot.tuples_derived.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["n", "rql_s", "generic_s", "speedup", "rql_heap_ops", "generic_tuples"],
            &rows
        )
    );
    println!(
        "scaling exponents: rql {:.2} (≈1), generic {:.2} (≈2+) — the storage structure \
         delivers the paper's bounds",
        fit_exponent(&rql_s),
        fit_exponent(&gen_s)
    );
}

fn a2_seminaive(quick: bool) {
    println!("\n== A2  Ablation: seminaive vs naive flat-rule saturation (transitive closure) ==");
    use gbc_ast::Value;
    use gbc_engine::eval::eval_rule_plain;
    use gbc_engine::seminaive::Seminaive;
    use gbc_storage::Database;
    use gbc_telemetry::Telemetry;

    fn tc_rules() -> Vec<gbc_ast::Rule> {
        gbc_parser::parse_program(
            "tc(X, Y) <- e(X, Y).
             tc(X, Z) <- tc(X, Y), e(Y, Z).",
        )
        .unwrap()
        .rules
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_values("e", vec![Value::int(i), Value::int(i + 1)]);
        }
        db
    }

    /// Naive evaluation: every rule fully re-evaluated each round.
    fn naive_saturate(db: &mut Database, rules: &[gbc_ast::Rule]) -> u64 {
        let mut total = 0u64;
        loop {
            let mut new_facts = 0u64;
            for rule in rules {
                for row in eval_rule_plain(db, rule, None).unwrap() {
                    if db.insert(rule.head.pred, row) {
                        new_facts += 1;
                    }
                }
            }
            if new_facts == 0 {
                return total;
            }
            total += new_facts;
        }
    }

    let sizes: &[i64] = if quick { &[32, 64] } else { &[32, 64, 128, 256] };
    let h = harness(quick);
    let mut rows = Vec::new();
    let (mut semi_s, mut naive_s) = (Vec::new(), Vec::new());
    for &n in sizes {
        let (facts, t_semi) = h.run(|| {
            let mut db = chain_db(n);
            Seminaive::new(tc_rules()).saturate(&mut db).unwrap()
        });
        let (naive_facts, t_naive) = h.run(|| {
            let mut db = chain_db(n);
            naive_saturate(&mut db, &tc_rules())
        });
        // One dedicated instrumented run for the counter column, so the
        // harness repetitions don't inflate it.
        let tel = Telemetry::counters_only();
        {
            let mut db = chain_db(n);
            let mut sn = Seminaive::new(tc_rules());
            sn.set_telemetry(tel.clone());
            sn.saturate(&mut db).unwrap();
        }
        assert_eq!(facts, naive_facts, "identical models");
        semi_s.push(Sample { size: n as u64, secs: t_semi.median_secs });
        naive_s.push(Sample { size: n as u64, secs: t_naive.median_secs });
        let snap = tel.snapshot();
        rows.push(vec![
            n.to_string(),
            facts.to_string(),
            secs(t_semi.median_secs),
            secs(t_naive.median_secs),
            format!("{:.0}", t_naive.median_secs / t_semi.median_secs.max(1e-9)),
            snap.flat_rounds.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["chain_n", "tc_facts", "seminaive_s", "naive_s", "speedup", "rounds"],
            &rows
        )
    );
    println!(
        "scaling exponents: seminaive {:.2}, naive {:.2} — deltas beat full re-derivation",
        fit_exponent(&semi_s),
        fit_exponent(&naive_s)
    );
}

// ---------------------------------------------------------------------
// `--compare`: the perf-regression gate.
// ---------------------------------------------------------------------

/// Fields that identify a row within an experiment. Everything else in
/// the row is a measurement and gets compared.
const KEY_FIELDS: &[&str] = &["n", "e", "threads", "seed"];

/// Timing columns move with the machine and load; they warn instead of
/// failing. Everything else is a machine-independent semantic counter.
fn is_timing_field(name: &str) -> bool {
    name.ends_with("_ns")
}

/// Human-readable identity of a row, built from whichever key fields it
/// carries.
fn row_key(row: &Json) -> String {
    let parts: Vec<String> =
        KEY_FIELDS.iter().filter_map(|k| row.get(k).map(|v| format!("{k}={v}"))).collect();
    parts.join(" ")
}

/// Diff the newest run in `path` against the latest *earlier* run
/// labelled `baseline_label`. Returns the process exit code: 0 when all
/// semantic counters match, 1 on counter drift or missing rows, 2 on a
/// malformed file. Timing drift beyond `tolerance` percent only warns.
fn compare_runs(path: &str, baseline_label: &str, tolerance: f64) -> i32 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let Some(runs) = doc.get("runs").and_then(|r| r.as_arr()) else {
        eprintln!("{path}: no \"runs\" array — not a bench-run file");
        std::process::exit(2);
    };
    let Some(newest) = runs.last() else {
        eprintln!("{path}: empty runs array");
        std::process::exit(2);
    };
    let Some(baseline) = runs[..runs.len() - 1]
        .iter()
        .rev()
        .find(|r| r.get("label").and_then(|l| l.as_str()) == Some(baseline_label))
    else {
        eprintln!("{path}: no run labelled \"{baseline_label}\" older than the newest run");
        std::process::exit(2);
    };
    let newest_label = newest.get("label").and_then(|l| l.as_str()).unwrap_or("?");
    println!("comparing newest run \"{newest_label}\" against baseline \"{baseline_label}\" (tolerance {tolerance}%)");

    let (mut checked, mut failures, mut warnings) = (0u64, 0u64, 0u64);
    let empty: [Json; 0] = [];
    let base_exps = baseline.get("experiments").and_then(|e| e.as_arr()).unwrap_or(&empty);
    for exp in base_exps {
        let name = exp.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let base_rows = exp.get("rows").and_then(|r| r.as_arr()).unwrap_or(&empty);
        let new_rows = newest
            .get("experiments")
            .and_then(|e| e.as_arr())
            .and_then(|exps| {
                exps.iter().find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            })
            .and_then(|e| e.get("rows"))
            .and_then(|r| r.as_arr());
        let Some(new_rows) = new_rows else {
            eprintln!("FAIL [{name}] experiment missing from the newest run");
            failures += 1;
            continue;
        };
        for base_row in base_rows {
            let key = row_key(base_row);
            let matches_key = |row: &&Json| {
                KEY_FIELDS.iter().all(|k| match (base_row.get(k), row.get(k)) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.to_string() == b.to_string(),
                    _ => false,
                })
            };
            let Some(new_row) = new_rows.iter().find(matches_key) else {
                eprintln!("FAIL [{name}] row {{{key}}} missing from the newest run");
                failures += 1;
                continue;
            };
            let Json::Obj(fields) = base_row else { continue };
            for (field, base_val) in fields {
                if KEY_FIELDS.contains(&field.as_str()) {
                    continue;
                }
                checked += 1;
                let Some(new_val) = new_row.get(field) else {
                    eprintln!("FAIL [{name}] {{{key}}}: field `{field}` missing");
                    failures += 1;
                    continue;
                };
                if is_timing_field(field) {
                    let (Some(b), Some(n)) = (base_val.as_f64(), new_val.as_f64()) else {
                        eprintln!("FAIL [{name}] {{{key}}}: `{field}` is not numeric");
                        failures += 1;
                        continue;
                    };
                    // Sub-microsecond nanosecond baselines are noise; 1µs floor.
                    let pct = (n - b).abs() / b.abs().max(1_000.0) * 100.0;
                    if pct > tolerance {
                        eprintln!(
                            "warn [{name}] {{{key}}}: `{field}` drifted {pct:.1}% ({b} → {n})"
                        );
                        warnings += 1;
                    }
                } else if base_val.to_string() != new_val.to_string() {
                    eprintln!(
                        "FAIL [{name}] {{{key}}}: `{field}` changed {base_val} → {new_val} \
                         (semantic counter — exact match required)"
                    );
                    failures += 1;
                }
            }
        }
    }
    println!(
        "compare: {checked} fields checked, {failures} hard failure(s), {warnings} timing warning(s)"
    );
    if failures > 0 {
        1
    } else {
        0
    }
}
