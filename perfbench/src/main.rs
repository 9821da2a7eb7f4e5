//! `perfbench` — the end-to-end and per-layer benchmark of the gbc
//! engine and of `gbc serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics with
//! no tracing; with `--trace 1` it runs the traced breakdown instead and
//! reports the per-layer metrics. Either way it checks every output
//! against an independent reference and prints, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with
//! every metric `BENCHMARK.json` declares for the mode, by name and
//! unit. It runs from the checkout root, normally through `run.py`,
//! which builds it and `gbc` first.

mod inproc;
mod serve;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use gbc_telemetry::Json;
use workload::Workload;

/// Share of a traced run spent on the in-process breakdown; the rest
/// is the serve phase.
const IN_PROCESS_SHARE: f64 = 0.6;

/// Failed operations whose reasons are echoed to stderr.
const ECHOED_FAILURES: u64 = 5;

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    /// Record metric `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Count one failed operation (wrong output, error status,
    /// transport error).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= ECHOED_FAILURES {
            eprintln!("perfbench: failed: {why}");
        }
    }

    /// Record a check that invalidates the whole run.
    pub fn error(&mut self, why: String) {
        eprintln!("perfbench: error: {why}");
        self.errors.push(why);
    }

    /// The result line, with every metric of `declared` as `(name,
    /// unit)`. A declared metric that was not measured or is not a
    /// finite number, and a measured one that is not declared, make the
    /// run incorrect.
    fn finish(mut self, declared: &[(String, String)]) -> (bool, String) {
        let undeclared: Vec<&str> = self
            .metrics
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !declared.iter().any(|(d, _)| d == name))
            .collect();
        for name in undeclared {
            self.error(format!("metric `{name}` is not declared in {MANIFEST}"));
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) if v.is_finite() => v,
                Some(_) | None => {
                    if self.errors.is_empty() {
                        self.error(format!("metric `{name}` was not measured"));
                    }
                    0.0
                }
            };
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        let correct = self.errors.is_empty() && self.failed == 0;
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        (correct, line)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, probe_setup: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--probe-setup" => {
                args.workload = value()?;
                args.probe_setup = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The benchmark manifest, read from the checkout root.
const MANIFEST: &str = "BENCHMARK.json";

/// The `(name, unit)` pairs of the manifest's `end_to_end` or
/// `per_layer` metrics.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let metrics =
        json.get(section).and_then(Json::as_arr).ok_or(format!("{MANIFEST}: no {section}"))?;
    metrics
        .iter()
        .map(|m| {
            match (m.get("name").and_then(Json::as_str), m.get("unit").and_then(Json::as_str)) {
                (Some(name), Some(unit)) => Ok((name.to_owned(), unit.to_owned())),
                _ => Err(format!("{MANIFEST}: a {section} metric lacks a name or unit")),
            }
        })
        .collect()
}

/// The `gbc` binary built beside this one.
fn gbc_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let gbc = exe.with_file_name("gbc");
    if gbc.is_file() {
        Ok(gbc)
    } else {
        Err(format!("{} not found; build it with run.py", gbc.display()))
    }
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let w = Workload::parse(&args.workload)?;
    if args.probe_setup {
        return Ok((true, inproc::probe_setup(w, args.seed)?.to_string()));
    }
    let declared = declared(if args.trace { "per_layer" } else { "end_to_end" })?;
    let mut out = Outcome::default();
    let t0 = Instant::now();
    if let Err(e) = workload::verify_stable(w, args.seed) {
        out.error(e);
    }
    if args.trace {
        inproc::layers(w, args.seed, args.seconds * IN_PROCESS_SHARE, &mut out);
        serve::layers(&gbc_binary()?, args.seed, args.seconds * (1.0 - IN_PROCESS_SHARE), &mut out);
    } else {
        inproc::measure(w, &args.workload, args.seed, args.seconds, &mut out);
    }
    eprintln!("perfbench: {} finished in {:.1} s", args.workload, t0.elapsed().as_secs_f64());
    Ok(out.finish(&declared))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
