//! `gbc` — command-line front end for the Greedy-by-Choice system.
//!
//! ```text
//! gbc check   FILE... [--deny-warnings] [--diag-json PATH]
//! gbc run     FILE... [--generic] [--seed N] [--stats] [--trace]
//!                     [--profile] [--stats-json PATH] [--trace-json PATH]
//!                     [--journal-json PATH]
//! gbc models  FILE... [--max N] [--stats] [--stats-json PATH]
//! gbc rewrite FILE...            print the negative (rewritten) program
//! gbc verify  FILE... [--generic] [--seed N] [--stats] [--trace]
//!                     [--stats-json PATH]
//! gbc explain FILE... [--generic] [--seed N] -- 'ATOM'
//!                                print why matching facts are in the model
//! gbc serve   ADDR [FILE...] [--threads N]   long-running evaluation server
//! ```
//!
//! `gbc check` runs the full static pipeline — parse, validation,
//! Section 4 classification, lints — and renders every finding as a
//! rustc-style diagnostic with source snippets (codes `GBC0xx`; see
//! `gbc_ast::diag` for the registry). `--deny-warnings` turns a warning
//! count into a failing exit; `--diag-json PATH` additionally writes
//! the findings as JSON (`-` for stdout).
//!
//! Multiple files are concatenated (programs + facts mix freely), so
//! rules and EDB data can live in separate `.dl` files:
//!
//! ```text
//! gbc run programs/prim.dl programs/graph_small.dl --stats
//! ```
//!
//! Observability:
//!
//! * `--stats` prints the counter registry and the phase tree to
//!   stderr after the run;
//! * `--trace` streams one line per γ event (stage commits, exit
//!   commits, discards, flat rounds, rule firings, choice audits) to
//!   stderr as it happens — the paper's tuple ↔ stage bijection made
//!   visible;
//! * `--profile` prints a per-rule profile (firings, tuples derived,
//!   cumulative time, plan-cache hits), keyed back to `file:line`,
//!   which accounts for all of the run time;
//! * `--stats-json PATH` writes the stats report `GET /stats` serves
//!   (counters, per-round delta history, phase timings, per-rule
//!   profile, round latency, dictionary movement, and — with `--trace`
//!   — the structured event journal) as JSON to `PATH`;
//! * `--trace-json PATH` writes the event stream in Chrome trace-event
//!   format (load in Perfetto / `chrome://tracing`);
//! * `--journal-json PATH` writes the event stream as JSON-lines;
//! * `gbc explain FILE... -- 'atom'` re-runs the program with
//!   provenance recording on and prints the derivation tree of every
//!   fact matching the atom: the rule that fired it (cited by source
//!   span), its γ step, the committed choice FDs, the rejected
//!   `diffChoice` alternatives, and the parent facts, recursively.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use gbc_ast::diag::{error_count, render_all, warning_count};
use gbc_ast::{Program, SourceMap};
use gbc_core::{verify_stable_model, Compiled, GreedyRun};
use gbc_engine::enumerate::{all_choice_models_with, EnumerateConfig};
use gbc_engine::{DeterministicFirst, SeededRandom};
use gbc_storage::{dict_stats, Database, DictStats, ProvenanceArena};
use gbc_telemetry::{
    ChromeTrace, JournalBuffer, Recorder, StderrTrace, TeeTrace, Telemetry, TraceSink,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    files: Vec<String>,
    generic: bool,
    stats: bool,
    trace: bool,
    profile: bool,
    stats_json: Option<String>,
    trace_json: Option<String>,
    journal_json: Option<String>,
    seed: Option<u64>,
    max_models: usize,
    deny_warnings: bool,
    diag_json: Option<String>,
    /// `gbc analyze --analysis-json PATH|-`: write the whole-program
    /// analysis report as JSON instead of the text rendering.
    analysis_json: Option<String>,
    /// HTTP worker threads for `gbc serve --threads N`; a usage error
    /// for every other command, since an evaluation runs on one thread.
    threads: Option<usize>,
    /// The atom after `--` (for `gbc explain`).
    query: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        generic: false,
        stats: false,
        trace: false,
        profile: false,
        stats_json: None,
        trace_json: None,
        journal_json: None,
        seed: None,
        max_models: 1000,
        deny_warnings: false,
        diag_json: None,
        analysis_json: None,
        threads: None,
        query: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--generic" => opts.generic = true,
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--profile" => opts.profile = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--diag-json" => {
                let v = it.next().ok_or("--diag-json needs a path (or `-` for stdout)")?;
                opts.diag_json = Some(v.clone());
            }
            "--analysis-json" => {
                let v = it.next().ok_or("--analysis-json needs a path (or `-` for stdout)")?;
                opts.analysis_json = Some(v.clone());
            }
            "--stats-json" => {
                let v = it.next().ok_or("--stats-json needs a path")?;
                opts.stats_json = Some(v.clone());
            }
            "--trace-json" => {
                let v = it.next().ok_or("--trace-json needs a path")?;
                opts.trace_json = Some(v.clone());
            }
            "--journal-json" => {
                let v = it.next().ok_or("--journal-json needs a path")?;
                opts.journal_json = Some(v.clone());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--max" => {
                let v = it.next().ok_or("--max needs a value")?;
                opts.max_models = v.parse().map_err(|_| format!("bad max `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                opts.threads = Some(n);
            }
            "--" => {
                let rest: Vec<&str> = it.by_ref().map(String::as_str).collect();
                let joined = rest.join(" ");
                if joined.trim().is_empty() {
                    return Err("`--` needs a query atom after it".into());
                }
                opts.query = Some(joined);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(opts)
}

/// The structured sinks a run feeds, held so [`Options::report`] can
/// write them out afterwards.
struct Observers {
    journal: Option<Arc<JournalBuffer>>,
    chrome: Option<Arc<ChromeTrace>>,
}

impl Options {
    /// Build the telemetry bundle the flags ask for. Counters are always
    /// on; `--stats`/`--stats-json`/`--profile` additionally enable the
    /// timing recorder (phases, per-rule profile, round histogram) and
    /// the per-round delta history; `--trace` attaches a stderr sink;
    /// `--trace-json`/`--journal-json` (and `--trace --stats-json`)
    /// attach structured sinks, teed together when several are live.
    fn telemetry(&self) -> (Telemetry, Observers) {
        let tel = if self.stats || self.stats_json.is_some() || self.profile {
            Telemetry::enabled()
        } else {
            Telemetry::counters_only()
        };
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        if self.trace {
            sinks.push(Arc::new(StderrTrace));
        }
        let journal = if self.journal_json.is_some() || (self.trace && self.stats_json.is_some()) {
            let j = Arc::new(JournalBuffer::new());
            sinks.push(j.clone());
            Some(j)
        } else {
            None
        };
        let chrome = if self.trace_json.is_some() {
            let c = Arc::new(ChromeTrace::new());
            sinks.push(c.clone());
            Some(c)
        } else {
            None
        };
        let tel = match sinks.len() {
            0 => tel,
            1 => tel.with_trace(sinks.pop().expect("one sink")),
            _ => tel.with_trace(Arc::new(TeeTrace::new(sinks))),
        };
        (tel, Observers { journal, chrome })
    }

    /// Evaluate `compiled` over `edb` with the executor the flags select:
    /// `--seed N` or `--generic` run the generic Choice Fixpoint under a
    /// seeded-random or the deterministic chooser; otherwise the greedy
    /// executor runs when a plan exists, the generic one when not.
    fn evaluate(
        &self,
        compiled: &Compiled,
        edb: &Database,
        tel: &Telemetry,
    ) -> Result<GreedyRun, String> {
        match (self.seed, self.generic) {
            (Some(seed), _) => {
                compiled.run_generic_telemetry(edb, tel, &mut SeededRandom::new(seed))
            }
            (None, true) => compiled.run_generic_telemetry(edb, tel, &mut DeterministicFirst),
            (None, false) => compiled.run_telemetry(edb, tel),
        }
        .map_err(|e| e.to_string())
    }

    /// Emit the post-run reports the flags ask for. `dict_base` is the
    /// dictionary counter snapshot taken when the command started: the
    /// value dictionary is process-global, so the report shows this
    /// command's movement, not the process totals.
    fn report(
        &self,
        tel: &Telemetry,
        obs: &Observers,
        program: &Program,
        sm: &SourceMap,
        dict_base: &DictStats,
    ) -> Result<(), String> {
        if self.stats {
            eprint!("{}", tel.snapshot().render());
            let phases = tel.phases.render();
            if !phases.is_empty() {
                eprint!("{phases}");
            }
        }
        if self.profile {
            eprint!("{}", render_profile(tel, program, sm));
        }
        if let Some(path) = &self.stats_json {
            let report = gbc_core::stats_report(tel, dict_base, obs.journal.as_deref());
            let mut text = report.pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        }
        if let (Some(path), Some(chrome)) = (&self.trace_json, &obs.chrome) {
            let mut text = chrome.to_json().pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        }
        if let (Some(path), Some(journal)) = (&self.journal_json, &obs.journal) {
            std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    }
}

/// The `--profile` table: one line per rule that was profiled, sorted
/// by cumulative time, keyed back to the rule's source location, with a
/// closing line comparing attributed time (rules plus overhead) against
/// the whole `run` phase.
fn render_profile(tel: &Telemetry, program: &Program, sm: &SourceMap) -> String {
    let (profile, phases) = (tel.phases.profile(), tel.phases.entries());
    let mut entries = profile.entries();
    entries.sort_by(|a, b| b.1.nanos.cmp(&a.1.nanos).then(a.0.cmp(&b.0)));
    let mut out = String::new();
    out.push_str("per-rule profile:\n");
    out.push_str(&format!(
        "  {:<5} {:<14} {:<26} {:>9} {:>9} {:>11} {:>10}\n",
        "rule", "head", "source", "firings", "tuples", "time", "plan hits"
    ));
    for (rule, p) in &entries {
        let (head, site) = match program.rules.get(*rule) {
            Some(r) => {
                let site = match sm.locate(r.span().start) {
                    Some(loc) => format!("{}:{}", loc.file, loc.line),
                    None => "<no source>".to_owned(),
                };
                (r.head.pred.to_string(), site)
            }
            None => ("?".to_owned(), "<no source>".to_owned()),
        };
        out.push_str(&format!(
            "  #{:<4} {:<14} {:<26} {:>9} {:>9} {:>10.6}s {:>10}\n",
            rule,
            head,
            site,
            p.firings,
            p.tuples,
            p.secs(),
            p.plan_hits
        ));
    }
    let gamma: Vec<_> = phases
        .iter()
        .filter_map(|(name, secs, count)| Some((name.strip_prefix("run/gamma/")?, secs, count)))
        .collect();
    if !gamma.is_empty() {
        out.push_str("  gamma buckets:\n");
        for (bucket, secs, count) in gamma {
            out.push_str(&format!("    {bucket:<7} {secs:>10.6}s x{count}\n"));
        }
    }
    let attributed = profile.total_secs();
    match phases.iter().find(|(name, _, _)| name == "run") {
        Some((_, total, _)) if *total > 0.0 => out.push_str(&format!(
            "  attributed {attributed:.6}s of {total:.6}s run time ({:.1}%)\n",
            100.0 * attributed / total
        )),
        _ => out.push_str(&format!("  attributed {attributed:.6}s\n")),
    }
    out
}

/// `gbc serve ADDR [FILE...]`: bind the long-running evaluation server
/// on `ADDR` (port `0` picks an ephemeral port, printed on stderr),
/// preload each `FILE` as a session named after its file stem, and
/// serve until the process is killed. `--threads N` sizes the HTTP
/// worker pool (default: the machine's available parallelism); each
/// request evaluates on its worker. Endpoints and the metric name
/// registry are documented in DESIGN.md §13.
fn cmd_serve(opts: &Options) -> Result<(), String> {
    let (addr, preload) = opts.files.split_first().expect("parse_options requires an argument");
    let server = gbc_serve::Server::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    for file in preload {
        let name = std::path::Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.clone());
        let (compiled, _) = load(std::slice::from_ref(file), &Recorder::default())
            .map_err(|e| format!("{file}: {e}"))?;
        server.state().install(gbc_serve::Session::new(&name, file, compiled, Database::new()));
        eprintln!("loaded session `{name}` from {file}");
    }
    let workers = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    eprintln!("gbc serve listening on http://{} ({workers} workers)", server.local_addr());
    server.serve(workers).map_err(|e| e.to_string())
}

/// Read every input file into one [`SourceMap`] (programs + facts mix
/// freely; spans stay attributable to the file they came from).
fn read_sources(files: &[String]) -> Result<SourceMap, String> {
    let mut sm = SourceMap::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        sm.add_file(f, &text);
    }
    Ok(sm)
}

/// Read `files` and load them through the one loader,
/// [`gbc_serve::router::compile_source`], timing `parse` and `compile`
/// into `phases`.
fn load(files: &[String], phases: &Recorder) -> Result<(Compiled, SourceMap), String> {
    let sm = read_sources(files)?;
    let compiled = gbc_serve::router::compile_source(&sm, phases)?;
    Ok((compiled, sm))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let opts = parse_options(rest)?;
    if opts.threads.is_some() && cmd != "serve" {
        return Err(format!(
            "`--threads` sizes the `gbc serve` worker pool; `gbc {cmd}` evaluates on one thread"
        ));
    }
    match cmd.as_str() {
        "check" => cmd_check(&opts),
        "analyze" => cmd_analyze(&opts),
        "run" => cmd_run(&opts),
        "models" => cmd_models(&opts),
        "rewrite" => cmd_rewrite(&opts),
        "verify" => cmd_verify(&opts),
        "explain" => cmd_explain(&opts),
        "serve" => cmd_serve(&opts),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: gbc <check|analyze|run|models|rewrite|verify|explain> FILE... \
     [--generic] [--seed N] [--stats] [--trace] [--profile] \
     [--stats-json PATH] [--trace-json PATH] [--journal-json PATH] [--max N] \
     [--deny-warnings] [--diag-json PATH] [--analysis-json PATH] [-- 'atom']\n\
     \x20      gbc serve ADDR [FILE...] [--threads N]    (see DESIGN.md §13)"
        .to_owned()
}

fn cmd_check(opts: &Options) -> Result<(), String> {
    let sm = read_sources(&opts.files)?;
    let mut summary = Vec::new();
    let diagnostics = match gbc_parser::parse_program(&sm.source()) {
        Err(e) => vec![e.to_diagnostic()],
        Ok(program) => {
            let report = gbc_core::check_program(&program);
            // A non-ground body-less clause is a rule that counts as a
            // (rejected) fact.
            let bodiless = program.rules.iter().filter(|r| r.is_fact()).count();
            summary.push(format!("rules: {}", program.clause_count()));
            summary.push(format!(
                "facts: {}, proper rules: {}",
                program.facts.len() + bodiless,
                program.rules.len() - bodiless
            ));
            summary.push(format!("class: {}", report.analysis.class.summary()));
            for (i, c) in report.analysis.cliques.iter().enumerate() {
                let preds: Vec<String> = c.preds.iter().map(|p| p.to_string()).collect();
                summary.push(format!(
                    "clique {i}: {{{}}} next:{} flat:{} exit:{}{}",
                    preds.join(", "),
                    c.next_rules.len(),
                    c.flat_rules.len(),
                    c.exit_rules.len() + c.exit_facts,
                    if c.is_stage_clique {
                        if c.stage_stratified {
                            if c.alternating {
                                " [stage-stratified, alternating]"
                            } else {
                                " [stage-stratified]"
                            }
                        } else {
                            " [NOT stage-stratified]"
                        }
                    } else {
                        ""
                    }
                ));
            }
            match &report.plan {
                Some(Ok(())) => summary.push("greedy plan: available (Section 6 executor)".into()),
                Some(Err(e)) => summary.push(format!("greedy plan: unavailable — {e}")),
                None => {}
            }
            report.diagnostics
        }
    };

    let rendered = render_all(&diagnostics, &sm);
    if !rendered.is_empty() {
        print!("{rendered}");
    }
    for line in &summary {
        println!("{line}");
    }
    let errors = error_count(&diagnostics);
    let warnings = warning_count(&diagnostics);
    if errors > 0 || warnings > 0 {
        println!("{errors} error(s), {warnings} warning(s)");
    } else {
        println!("no diagnostics");
    }

    if let Some(path) = &opts.diag_json {
        let mut text = gbc_core::diagnostics_to_json(&diagnostics, &sm).pretty();
        text.push('\n');
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        }
    }

    if errors > 0 {
        Err(format!("check failed with {errors} error(s)"))
    } else if opts.deny_warnings && warnings > 0 {
        Err(format!("check failed with {warnings} warning(s) (--deny-warnings)"))
    } else {
        Ok(())
    }
}

fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let (compiled, _sm) = load(&opts.files, &Recorder::default())?;
    let report = compiled.analyze_report();
    match &opts.analysis_json {
        Some(path) => {
            let mut text = report.to_json().pretty();
            text.push('\n');
            if path == "-" {
                print!("{text}");
            } else {
                std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        None => print!("{}", report.render()),
    }
    Ok(())
}

/// `gbc run`: timed as the phases `parse` (parsing the files, once
/// read), `compile` (the admission gate and planning), `setup` and `run`
/// (the evaluation), `render` (the canonical text) and `write` (to
/// stdout).
fn cmd_run(opts: &Options) -> Result<(), String> {
    let dict_base = dict_stats();
    let (tel, obs) = opts.telemetry();
    let rec = &tel.phases;
    let (compiled, sm) = load(&opts.files, rec)?;

    let run = opts.evaluate(&compiled, &Database::new(), &tel)?;

    let text = rec.time("render", || run.db.canonical_form());
    rec.time("write", || {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{text}").and_then(|()| out.flush())
    })
    .map_err(|e| format!("stdout: {e}"))?;
    opts.report(&tel, &obs, compiled.program(), &sm, &dict_base)?;
    Ok(())
}

fn cmd_explain(opts: &Options) -> Result<(), String> {
    let Some(atom) = &opts.query else {
        return Err("explain needs a query: gbc explain FILE... -- 'pred(X, ...)'".into());
    };
    let (compiled, sm) = load(&opts.files, &Recorder::default())?;
    let query = gbc_parser::parse_rule(&format!("query <- {}.", atom.trim().trim_end_matches('.')))
        .map_err(|e| format!("bad query atom `{atom}`: {e}"))?;
    let mut edb = Database::new();
    let arena = ProvenanceArena::shared();
    edb.set_provenance(Arc::clone(&arena));
    let (tel, _obs) = opts.telemetry();
    let run = opts.evaluate(&compiled, &edb, &tel)?;
    let out = gbc_core::explain::explain_atom(compiled.program(), &sm, &run.db, &arena, &query)?;
    print!("{out}");
    Ok(())
}

fn cmd_models(opts: &Options) -> Result<(), String> {
    let dict_base = dict_stats();
    let (compiled, sm) = load(&opts.files, &Recorder::default())?;
    let config = EnumerateConfig { max_nodes: 1_000_000, max_models: opts.max_models };
    let (tel, obs) = opts.telemetry();
    // The enumerator needs a next-free program.
    let models = tel
        .phases
        .time("models", || all_choice_models_with(compiled.expanded(), &Database::new(), config))
        .map_err(|e| e.to_string())?;
    println!("{} model(s)", models.len());
    for (i, m) in models.iter().enumerate() {
        println!("--- model {}", i + 1);
        println!("{}", m.canonical_form());
    }
    opts.report(&tel, &obs, compiled.program(), &sm, &dict_base)?;
    Ok(())
}

fn cmd_rewrite(opts: &Options) -> Result<(), String> {
    let (compiled, _sm) = load(&opts.files, &Recorder::default())?;
    print!("{}", gbc_core::rewrite_full(compiled.program()).program);
    Ok(())
}

fn cmd_verify(opts: &Options) -> Result<(), String> {
    let dict_base = dict_stats();
    let (compiled, sm) = load(&opts.files, &Recorder::default())?;
    let program = compiled.program();
    let edb = Database::new();
    let (tel, obs) = opts.telemetry();
    let run = opts.evaluate(&compiled, &edb, &tel)?;
    let ok = verify_stable_model(program, &edb, &run).map_err(|e| e.to_string())?;
    println!(
        "stable model check: {}",
        if ok { "PASS (Theorem 1 holds for this run)" } else { "FAIL" }
    );
    opts.report(&tel, &obs, program, &sm, &dict_base)?;
    if ok {
        Ok(())
    } else {
        Err("run is not a stable model".into())
    }
}
