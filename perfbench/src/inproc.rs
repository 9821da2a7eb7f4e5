//! In-process measurement: the `gbc run` evaluation loop and the
//! per-layer breakdown of one evaluation.
//!
//! An evaluation is exactly what `gbc run` does after loading:
//! `Compiled::run_greedy_with(&Database::new(), GreedyConfig::with_threads(nproc))`
//! followed by `Database::canonical_form()`. The traced variant splits
//! the same work at the public call boundaries — `exec::build_plans` +
//! `GreedyExecutor::new`, `GreedyExecutor::run`, `canonical_form` — and
//! reads the executor's own phase timers, counters and pool report.

use std::process::Command;
use std::time::{Duration, Instant};

use gbc_core::exec::{build_plans, GreedyExecutor};
use gbc_core::{Compiled, GreedyConfig, GreedyRun};
use gbc_storage::{dict_stats, Database, DictStats};
use gbc_telemetry::{Snapshot, Telemetry};

use crate::stats::{median, ms, nproc, peak_rss_mb, quantile};
use crate::workload::{Instance, Workload};
use crate::Outcome;

/// Fresh processes timed for `setup_s`, spread evenly over the run; their
/// 90th percentile is reported.
const SETUP_PROBES: usize = 60;

/// Evaluations before timing starts (allocator and page-cache warm-up).
const WARMUP_EVALS: usize = 2;

/// Executor phase timers that split `GreedyExecutor::run`, with the
/// `exec.*_ms` metric each feeds.
const PHASES: [(&str, &str); 5] = [
    ("run/flat", "exec.flat_ms"),
    ("run/exit", "exec.exit_ms"),
    ("run/gamma/feed", "exec.feed_ms"),
    ("run/gamma/choose", "exec.choose_ms"),
    ("run/gamma/commit", "exec.commit_ms"),
];

/// The output every evaluation of one compiled instance must reproduce.
struct Expected {
    text: String,
    snapshot: Snapshot,
}

/// One evaluation, as `gbc run` performs it after loading.
fn eval(compiled: &Compiled, config: GreedyConfig) -> Result<(String, Snapshot), String> {
    let run = compiled.run_greedy_with(&Database::new(), config).map_err(|e| e.to_string())?;
    Ok((run.db.canonical_form(), run.snapshot))
}

/// Compile `inst`, run it once, check the model against the independent
/// reference, and keep the text and counters every later evaluation
/// must repeat exactly.
fn prepare(inst: &Instance, config: GreedyConfig) -> Result<(Compiled, Expected), String> {
    let compiled = inst.compile()?;
    let run = compiled.run_greedy_with(&Database::new(), config).map_err(|e| e.to_string())?;
    inst.check(&run)?;
    let want = Expected { text: run.db.canonical_form(), snapshot: run.snapshot };
    Ok((compiled, want))
}

/// Time parse + compile of the workload's text from a cold dictionary.
/// Runs in a child process (`--probe-setup`), so each probe starts with
/// an empty value dictionary, as a fresh `gbc run` does.
pub fn probe_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let inst = w.instance(seed);
    let t0 = Instant::now();
    inst.compile()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// One cold parse + compile timing, in seconds, from a child process
/// running `--probe-setup`; `Command::output` waits for it to exit.
fn setup_probe(w: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--probe-setup", w, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    match (out.status.success(), String::from_utf8_lossy(&out.stdout).trim().parse()) {
        (true, Ok(secs)) => Ok(secs),
        _ => Err(format!("setup probe failed: {}", String::from_utf8_lossy(&out.stderr).trim())),
    }
}

/// The untraced workload, for `seconds`: one caller in a closed loop of
/// evaluations, each followed by a parse + compile of the same text on
/// a warm dictionary (the in-process `/load`), with [`SETUP_PROBES`]
/// cold set-ups (`setup_s`) taken between them on a fixed schedule.
pub fn measure(w: Workload, name: &str, seed: u64, seconds: f64, out: &mut Outcome) {
    let inst = w.instance(seed);
    let config = GreedyConfig::with_threads(nproc());
    let (compiled, want) = match prepare(&inst, config) {
        Ok(p) => p,
        Err(e) => return out.error(e),
    };
    for _ in 0..WARMUP_EVALS {
        let _ = eval(&compiled, config);
    }

    // Each evaluation is followed by one load, so both sample the whole
    // run and the allocation pattern (and so the peak RSS) does not
    // depend on timing. The set-up probes run in children, so they leave
    // this process's allocations alone; spreading them over the run
    // samples the host's load the way the evaluations do.
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let probe_gap = Duration::from_secs_f64(seconds / SETUP_PROBES as f64);
    let (mut next_probe, mut setup) = (start, Vec::with_capacity(SETUP_PROBES));
    let (mut eval_ms, mut load_ms) = (Vec::new(), Vec::new());
    while Instant::now() < until || eval_ms.is_empty() {
        if Instant::now() >= next_probe {
            next_probe += probe_gap;
            out.attempted += 1;
            match setup_probe(name, seed) {
                Ok(secs) => setup.push(secs),
                Err(e) => return out.error(e),
            }
        }
        let t0 = Instant::now();
        let res = eval(&compiled, config);
        eval_ms.push(ms(t0.elapsed()));
        match res {
            Ok((text, snap)) if text == want.text && snap == want.snapshot => {}
            Ok(_) => out.fail(format!("{}: result or counters drifted", inst.name)),
            Err(e) => out.fail(format!("{}: {e}", inst.name)),
        }
        let t0 = Instant::now();
        let res = inst.compile();
        load_ms.push(ms(t0.elapsed()));
        if let Err(e) = res {
            out.fail(e);
        }
        out.attempted += 2;
    }

    out.put("setup_s", quantile(&setup, 0.90));
    out.put("latency_p90_ms", quantile(&eval_ms, 0.90));
    out.put("load_p90_ms", quantile(&load_ms, 0.90));
    match peak_rss_mb(None) {
        Ok(mb) => out.put("peak_rss_mb", mb),
        Err(e) => out.error(e),
    }
    eprintln!(
        "perfbench: {} evaluations, {} loads, {} set-ups",
        eval_ms.len(),
        load_ms.len(),
        setup.len()
    );
}

/// Span durations of the traced rounds, in milliseconds.
#[derive(Default)]
struct Spans {
    parse: Vec<f64>,
    compile: Vec<f64>,
    setup: Vec<f64>,
    run: Vec<f64>,
    render: Vec<f64>,
    eval: Vec<f64>,
    phases: [Vec<f64>; PHASES.len()],
}

/// One traced round: spans around each public call, from program text
/// to rendered result. Returns the run, its rendered text and the
/// dictionary counter movement of the evaluation (setup, run, render).
fn traced_round(
    inst: &Instance,
    config: GreedyConfig,
    spans: &mut Spans,
) -> Result<(GreedyRun, String, DictStats), String> {
    let t0 = Instant::now();
    let program = gbc_parser::parse_program(&inst.text).map_err(|e| format!("parse: {e:?}"))?;
    let t1 = Instant::now();
    let compiled = gbc_core::compile(program).map_err(|e| e.to_string())?;
    let t2 = Instant::now();

    // The dictionary is process-global; this loop is its only caller.
    let dict0 = dict_stats();
    let tel = Telemetry::enabled();
    let t3 = Instant::now();
    let plans = build_plans(compiled.program(), compiled.expanded(), &compiled.analysis().stages)
        .map_err(|e| e.to_string())?;
    let mut ex = GreedyExecutor::new(
        compiled.program(),
        compiled.expanded(),
        plans,
        &Database::new(),
        config,
    );
    ex.set_telemetry(tel.clone());
    let t4 = Instant::now();
    let run = ex.run().map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    let text = run.db.canonical_form();
    let t6 = Instant::now();
    let dict = dict_stats().since(&dict0);

    spans.parse.push(ms(t1 - t0));
    spans.compile.push(ms(t2 - t1));
    spans.setup.push(ms(t4 - t3));
    spans.run.push(ms(t5 - t4));
    spans.render.push(ms(t6 - t5));
    spans.eval.push(ms(t6 - t3));
    let phases = tel.phases.entries();
    for (k, (phase, _)) in PHASES.iter().enumerate() {
        let secs = phases.iter().find(|(n, _, _)| n == phase).map_or(0.0, |p| p.1);
        spans.phases[k].push(secs * 1e3);
    }
    Ok((run, text, dict))
}

/// The traced in-process breakdown of `w`'s instance within `budget`
/// seconds: untraced evaluations first (the baseline for the tracing
/// overhead and the attribution check), then traced rounds.
pub fn layers(w: Workload, seed: u64, budget: f64, out: &mut Outcome) {
    let inst = w.instance(seed);
    let config = GreedyConfig::with_threads(nproc());
    let (compiled, want) = match prepare(&inst, config) {
        Ok(p) => p,
        Err(e) => return out.error(e),
    };

    let mut untraced = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(budget * 0.3);
    while Instant::now() < until || untraced.len() < 3 {
        let t0 = Instant::now();
        let res = eval(&compiled, config);
        untraced.push(ms(t0.elapsed()));
        out.attempted += 1;
        if !matches!(res, Ok((text, _)) if text == want.text) {
            out.fail(format!("{}: untraced evaluation drifted", inst.name));
        }
    }

    let mut spans = Spans::default();
    let mut last = None;
    let until = Instant::now() + Duration::from_secs_f64(budget * 0.7);
    while Instant::now() < until || spans.eval.len() < 3 {
        out.attempted += 1;
        match traced_round(&inst, config, &mut spans) {
            Ok((run, text, dict)) if text == want.text => last = Some((run, text, dict)),
            Ok(_) => out.fail(format!("{}: traced evaluation drifted", inst.name)),
            Err(e) => out.fail(format!("{}: {e}", inst.name)),
        }
    }
    let Some((run, text, dict)) = last else {
        return out.error("no traced evaluation succeeded".to_owned());
    };

    let run_ms = median(&spans.run);
    let (setup_ms, render_ms) = (median(&spans.setup), median(&spans.render));
    let mut phased = 0.0;
    for (k, (_, metric)) in PHASES.iter().enumerate() {
        let v = median(&spans.phases[k]);
        phased += v;
        out.put(metric, v);
    }
    let untraced_ms = median(&untraced);
    out.put("parser.parse_ms", median(&spans.parse));
    out.put("core.compile_ms", median(&spans.compile));
    out.put("exec.setup_ms", setup_ms);
    out.put("exec.run_ms", run_ms);
    out.put("exec.unattributed_ms", run_ms - phased);
    out.put("exec.phase_coverage", phased / run_ms);
    out.put("storage.render_ms", render_ms);
    out.put("trace.eval_ms", median(&spans.eval));
    out.put("trace.untraced_eval_ms", untraced_ms);
    out.put("trace.overhead_ms", median(&spans.eval) - untraced_ms);
    out.put("trace.eval_coverage", (setup_ms + run_ms + render_ms) / untraced_ms);

    // Counts repeat exactly from round to round; report the last one's.
    let (stats, snap) = (&run.stats, &run.snapshot);
    let steps = stats.gamma_steps as f64;
    out.put("exec.gamma_steps", steps);
    out.put("exec.discarded_pops", stats.discarded as f64);
    out.put("exec.commit_ratio", steps / (steps + stats.discarded as f64));
    out.put("exec.queue_peak", stats.queue_peak as f64);
    out.put("engine.flat_rounds", snap.flat_rounds as f64);
    out.put("engine.rounds_per_step", snap.flat_rounds as f64 / steps);
    out.put("engine.tuples_derived", snap.tuples_derived as f64);
    out.put("engine.index_probes", snap.index_probes as f64);
    out.put("engine.plan_cache_hits", snap.plan_cache_hits as f64);
    let lanes = run.pool.as_ref().map_or(&[][..], |p| &p.workers[..]);
    out.put("pool.busy_share", run.pool.as_ref().map_or(0.0, |p| p.utilization()));
    out.put("pool.tasks", lanes.iter().map(|l| l.tasks).sum::<u64>() as f64);
    out.put("pool.steals", lanes.iter().map(|l| l.steals).sum::<u64>() as f64);
    out.put("storage.result_bytes", text.len() as f64);
    out.put("storage.heap_ops", snap.heap_ops() as f64);
    out.put("storage.encode_hits", dict.encode_hits as f64);
    out.put("storage.decode_calls", dict.decode_calls as f64);
    out.put("storage.dict_entries", dict_stats().dict_entries as f64);
}
