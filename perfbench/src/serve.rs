//! The traced serve phase: a `gbc serve` child process, the serve mix
//! loaded the way deployed clients load it (`POST /load` with inline
//! program and facts), and an open-loop `/run` + `/load` schedule from
//! this process. It gives the `serve.*`, `loadgen.*` and `telemetry.*`
//! layer metrics of every traced run.
//!
//! The arrival schedule is fixed before the phase starts: evenly spaced
//! slots at [`RATE_RPS`], each slot's operation drawn from the seeded
//! RNG. At most `nproc` sender threads (connections) work through the
//! slots in order; a request is timed from the moment its slot was due,
//! so a stall charges its wait to every request queued behind it. The
//! generator's own lateness is reported (`loadgen.lag_p99_ms`), and a
//! run whose generator fell behind is marked invalid.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gbc_core::GreedyConfig;
use gbc_serve::client;
use gbc_serve::state::ENDPOINTS;
use gbc_storage::Database;
use gbc_telemetry::{Json, Rng, Telemetry};

use crate::stats::{median, ms, nproc, peak_rss_mb, quantile};
use crate::workload::{serve_churn, serve_tenants, Instance};
use crate::Outcome;

/// Offered rate of the serve phase, in requests per second: about a
/// third of what the server's `nproc` workers sustain on the mix.
const RATE_RPS: f64 = 30.0;

/// Share of slots that are `POST /load` of a fresh churn generation.
const LOAD_SHARE: f64 = 0.3;

/// A generator whose p99 lateness exceeds one inter-arrival gap has not
/// held the schedule, and the run is invalid.
const MAX_LAG_MS: f64 = 1e3 / RATE_RPS;

/// A running `gbc serve` child. Dropping it kills the process and
/// waits for it (and for the thread draining its stderr).
struct ServerChild {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Start `gbc serve` on an ephemeral port with `workers` request
    /// workers, and wait for it to announce its address.
    fn spawn(gbc: &Path, workers: usize) -> Result<ServerChild, String> {
        let mut child = Command::new(gbc)
            .args(["serve", "127.0.0.1:0", "--threads", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", gbc.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let (Some(addr), Some(tx)) = (line.split("http://").nth(1), tx.take()) {
                    let _ = tx.send(addr.split_whitespace().next().unwrap_or("").to_owned());
                }
            }
        });
        let mut server = ServerChild { child, addr: String::new(), drain: Some(drain) };
        server.addr = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "gbc serve did not announce its address".to_owned())?;
        Ok(server)
    }

    fn post(&self, target: &str, body: &str) -> Result<(u16, String), String> {
        client::post_json(&self.addr, target, body)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The `POST /load` body for `inst`.
fn load_body(inst: &Instance) -> String {
    Json::obj(vec![
        ("name", Json::Str(inst.name.clone())),
        ("program", Json::Str(inst.text.clone())),
    ])
    .to_string()
}

fn check_load(reply: Result<(u16, String), String>) -> Result<(), String> {
    match reply {
        Ok((200, body)) if body.contains("\"greedy_plan\": true") => Ok(()),
        Ok((status, body)) => Err(format!("/load answered {status}: {}", body.trim())),
        Err(e) => Err(e),
    }
}

/// The exact `/run` reply body for `inst`: an in-process run under the
/// server's instrumentation (full telemetry, one engine thread), checked
/// against the independent reference, serialized the way the server
/// serializes it. Result text and counters both have to match byte for
/// byte.
fn expected_reply(inst: &Instance) -> Result<String, String> {
    let tel = Telemetry::enabled().with_round_latency();
    let run = inst
        .compile()?
        .run_greedy_telemetry(&Database::new(), GreedyConfig::with_threads(1), &tel)
        .map_err(|e| format!("{}: {e}", inst.name))?;
    inst.check(&run)?;
    let body = Json::obj(vec![
        ("session", Json::Str(inst.name.clone())),
        ("result", Json::Str(run.db.canonical_form())),
        ("gamma_steps", Json::UInt(run.stats.gamma_steps)),
        ("counters", tel.snapshot().to_json()),
    ]);
    Ok(format!("{body}\n"))
}

/// One slot of the arrival schedule.
#[derive(Clone, Copy)]
enum Op {
    /// `POST /run` against tenant `i` (the churn tenant is last).
    Run(usize),
    /// `POST /load` of churn generation `g`.
    Load(usize),
}

/// One completed request.
struct Record {
    load: bool,
    latency_ms: f64,
    lag_ms: f64,
    backlog: usize,
    ok: bool,
    bytes: usize,
}

/// The serve mix, ready to replay: tenant names, prepared request
/// bodies, the expected replies and the schedule.
struct Mix {
    names: Vec<String>,
    run_bodies: Vec<String>,
    /// `POST /load` bodies per churn generation; 0 is loaded at set-up.
    churn_bodies: Vec<String>,
    setup_bodies: Vec<String>,
    /// Per tenant (churn last): the expected `/run` reply per generation.
    replies: Vec<Vec<String>>,
    /// Highest churn generation whose `/load` has been sent.
    loads_sent: AtomicUsize,
    schedule: Vec<Op>,
}

impl Mix {
    /// Draw the schedule for `seconds` and prepare every body and
    /// expected reply it can touch.
    fn new(seed: u64, seconds: f64) -> Result<Mix, String> {
        let tenants = serve_tenants(seed);
        let slots = (RATE_RPS * seconds).round().max(1.0) as usize;
        let mut rng = Rng::new(seed ^ 0x0005_EED0_FA11);
        let mut generation = 0;
        let schedule: Vec<Op> = (0..slots)
            .map(|_| {
                if rng.f64() < LOAD_SHARE {
                    generation += 1;
                    Op::Load(generation)
                } else {
                    Op::Run(rng.below_usize(tenants.len() + 1))
                }
            })
            .collect();
        let churn: Vec<Instance> = (0..=generation).map(|g| serve_churn(seed, g)).collect();
        let mut replies = tenants
            .iter()
            .map(|t| Ok(vec![expected_reply(t)?]))
            .collect::<Result<Vec<_>, String>>()?;
        replies.push(churn.iter().map(expected_reply).collect::<Result<_, String>>()?);
        let mut names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
        names.push(churn[0].name.clone());
        let mut setup_bodies: Vec<String> = tenants.iter().map(load_body).collect();
        setup_bodies.push(load_body(&churn[0]));
        Ok(Mix {
            run_bodies: names.iter().map(|n| format!("{{\"session\": \"{n}\"}}")).collect(),
            names,
            churn_bodies: churn.iter().map(load_body).collect(),
            setup_bodies,
            replies,
            loads_sent: AtomicUsize::new(0),
            schedule,
        })
    }

    /// Send one operation and wait for the reply.
    fn send(&self, server: &ServerChild, op: Op) -> Result<(u16, String), String> {
        match op {
            Op::Run(i) => server.post("/run", &self.run_bodies[i]),
            Op::Load(g) => {
                self.loads_sent.fetch_max(g, Ordering::SeqCst);
                server.post("/load", &self.churn_bodies[g])
            }
        }
    }

    /// Check a reply; `Ok(body bytes)` when it is right. A `/run` reply
    /// must equal the expected reply of a generation already loaded.
    fn check(&self, op: Op, reply: Result<(u16, String), String>) -> Result<usize, String> {
        match op {
            Op::Run(i) => {
                let gens = &self.replies[i];
                let newest = self.loads_sent.load(Ordering::SeqCst).min(gens.len() - 1);
                match reply? {
                    (200, body) if gens[..=newest].iter().rev().any(|want| *want == body) => {
                        Ok(body.len())
                    }
                    (200, _) => {
                        Err(format!("/run {}: reply differs from the reference", self.names[i]))
                    }
                    (status, body) => {
                        Err(format!("/run {}: {status}: {}", self.names[i], body.trim()))
                    }
                }
            }
            Op::Load(_) => check_load(reply).map(|()| 0),
        }
    }

    /// Replay the schedule open-loop over `nproc` connections. Returns
    /// the records and the phase's wall time in seconds.
    fn open_loop(&self, server: &ServerChild, out: &mut Outcome) -> (Vec<Record>, f64) {
        let next = AtomicUsize::new(0);
        let slots = self.schedule.len();
        let start = Instant::now() + Duration::from_millis(20);
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE_RPS);
        let errors = Mutex::new(Vec::new());
        let per_thread: Vec<Vec<Record>> = std::thread::scope(|scope| {
            let senders: Vec<_> = (0..nproc())
                .map(|_| {
                    scope.spawn(|| {
                        let mut records = Vec::new();
                        let mut free = Instant::now();
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= slots {
                                break records;
                            }
                            let due_at = due(i);
                            let now = Instant::now();
                            if now < due_at {
                                std::thread::sleep(due_at - now);
                            }
                            // Lag: how late the send was after the slot was
                            // due and this sender was free to take it.
                            // Backlog: slots already due but not yet taken.
                            let sent = Instant::now();
                            let lag = sent.saturating_duration_since(due_at.max(free));
                            let due_by = (sent.saturating_duration_since(start).as_secs_f64()
                                * RATE_RPS) as usize
                                + 1;
                            let op = self.schedule[i];
                            let reply = self.send(server, op);
                            let end = Instant::now();
                            let res = self.check(op, reply);
                            free = Instant::now();
                            if let Err(e) = &res {
                                errors.lock().expect("errors").push(e.clone());
                            }
                            records.push(Record {
                                load: matches!(op, Op::Load(_)),
                                latency_ms: ms(end.saturating_duration_since(due_at)),
                                lag_ms: ms(lag),
                                backlog: due_by.min(slots).saturating_sub(i + 1),
                                ok: res.is_ok(),
                                bytes: res.unwrap_or(0),
                            });
                        }
                    })
                })
                .collect();
            senders.into_iter().map(|h| h.join().expect("sender thread")).collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let records: Vec<Record> = per_thread.into_iter().flatten().collect();
        out.attempted += records.len() as u64;
        for e in errors.into_inner().expect("errors") {
            out.fail(e);
        }
        let lag_p99 = quantile(&records.iter().map(|r| r.lag_ms).collect::<Vec<_>>(), 0.99);
        if lag_p99 > MAX_LAG_MS {
            out.error(format!(
                "load generator fell behind schedule: lag p99 {lag_p99:.2} ms > {MAX_LAG_MS:.2} ms"
            ));
        }
        (records, wall_s)
    }
}

/// Dispatch-time summaries and counters scraped from `GET /metrics`.
#[derive(Default)]
struct Scrape {
    /// Per endpoint, in [`ENDPOINTS`] order: dispatch p50, p99 and sum
    /// (nanoseconds).
    dispatch: Vec<(f64, f64, f64)>,
    errors: f64,
    dict_entries: f64,
}

impl Scrape {
    fn endpoint(&self, ep: &str) -> (f64, f64, f64) {
        ENDPOINTS.iter().position(|e| *e == ep).map_or((0.0, 0.0, 0.0), |i| self.dispatch[i])
    }
}

fn scrape(server: &ServerChild) -> Result<Scrape, String> {
    let text = match client::get(&server.addr, "/metrics")? {
        (200, text) => text,
        (status, _) => return Err(format!("/metrics answered {status}")),
    };
    // The latency series render as summaries without their endpoint
    // label: one block per endpoint, in registration (ENDPOINTS) order.
    let mut s = Scrape::default();
    let mut in_block = false;
    for line in text.lines() {
        if line == "# TYPE gbc_http_request_nanoseconds summary" {
            s.dispatch.push((0.0, 0.0, 0.0));
            in_block = true;
            continue;
        }
        if line.starts_with("# TYPE") {
            in_block = false;
        }
        let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) else {
            continue;
        };
        if line.starts_with("gbc_http_errors_total ") {
            s.errors = v;
        } else if line.starts_with("gbc_dictionary_entries ") {
            s.dict_entries = v;
        } else if let (true, Some(d)) = (in_block, s.dispatch.last_mut()) {
            if line.contains("quantile=\"0.5\"") {
                d.0 = v;
            } else if line.contains("quantile=\"0.99\"") {
                d.1 = v;
            } else if line.starts_with("gbc_http_request_nanoseconds_sum ") {
                d.2 = v;
            }
        }
    }
    if s.dispatch.len() != ENDPOINTS.len() {
        return Err(format!(
            "/metrics has {} latency blocks, expected {}",
            s.dispatch.len(),
            ENDPOINTS.len()
        ));
    }
    Ok(s)
}

/// Telemetry overhead of `/run` on each serve tenant, in-process: full
/// telemetry with round latency plus the stats JSON, minus a plain run,
/// both at the server's default of one engine thread. Medians of
/// alternating pairs over `seconds`, summed over the tenants.
fn telemetry_overhead(tenants: &[Instance], seconds: f64, out: &mut Outcome) -> f64 {
    let serial = GreedyConfig::with_threads(1);
    let compiled = match tenants.iter().map(Instance::compile).collect::<Result<Vec<_>, _>>() {
        Ok(c) => c,
        Err(e) => {
            out.error(e);
            return f64::NAN;
        }
    };
    let mut on = vec![Vec::new(); tenants.len()];
    let mut off = vec![Vec::new(); tenants.len()];
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < until || on[0].len() < 3 {
        for (i, c) in compiled.iter().enumerate() {
            let t0 = Instant::now();
            let plain = c.run_greedy_with(&Database::new(), serial);
            off[i].push(ms(t0.elapsed()));
            let t0 = Instant::now();
            let tel = Telemetry::enabled().with_round_latency();
            let timed = c.run_greedy_telemetry(&Database::new(), serial, &tel);
            let report = tel.to_json().to_string();
            on[i].push(ms(t0.elapsed()));
            out.attempted += 2;
            if plain.is_err() || timed.is_err() || report.is_empty() {
                out.fail(format!("{}: telemetry comparison run failed", tenants[i].name));
            }
        }
    }
    on.iter().zip(&off).map(|(a, b)| median(a) - median(b)).sum()
}

/// The traced serve phase, `seconds` long: the telemetry comparison,
/// then the serve mix behind a `gbc serve` child under the open-loop
/// schedule, with the server's own `/metrics` series scraped around it.
pub fn layers(gbc: &Path, seed: u64, seconds: f64, out: &mut Outcome) {
    let tenants = serve_tenants(seed);
    let overhead = telemetry_overhead(&tenants, seconds * 0.2, out);
    out.put("telemetry.overhead_ms", overhead);

    let mix = match Mix::new(seed, seconds * 0.8) {
        Ok(m) => m,
        Err(e) => return out.error(e),
    };
    let server = match ServerChild::spawn(gbc, nproc()) {
        Ok(s) => s,
        Err(e) => return out.error(e),
    };
    for body in &mix.setup_bodies {
        if let Err(e) = check_load(server.post("/load", body)) {
            return out.error(e);
        }
    }
    let before = match scrape(&server) {
        Ok(s) => s,
        Err(e) => return out.error(e),
    };
    let (records, wall_s) = mix.open_loop(&server, out);
    let after = match scrape(&server) {
        Ok(s) => s,
        Err(e) => return out.error(e),
    };

    let runs: Vec<f64> = records.iter().filter(|r| !r.load).map(|r| r.latency_ms).collect();
    let busy_ns: f64 =
        ENDPOINTS.iter().map(|ep| after.endpoint(ep).2 - before.endpoint(ep).2).sum();
    let ok_runs: Vec<&Record> = records.iter().filter(|r| !r.load && r.ok).collect();
    let (run_p50, run_p99, _) = after.endpoint("/run");
    let (load_p50, load_p99, _) = after.endpoint("/load");
    out.put("serve.run_p50_ms", median(&runs));
    out.put("serve.run_p99_ms", quantile(&runs, 0.99));
    out.put(
        "serve.load_p50_ms",
        median(&records.iter().filter(|r| r.load).map(|r| r.latency_ms).collect::<Vec<_>>()),
    );
    out.put("serve.run_dispatch_p50_ms", run_p50 / 1e6);
    out.put("serve.run_dispatch_p99_ms", run_p99 / 1e6);
    out.put("serve.load_dispatch_p50_ms", load_p50 / 1e6);
    out.put("serve.load_dispatch_p99_ms", load_p99 / 1e6);
    out.put("serve.wait_p99_ms", quantile(&runs, 0.99) - run_p99 / 1e6);
    out.put("serve.busy_workers", busy_ns / (wall_s * 1e9));
    out.put(
        "serve.response_bytes",
        ok_runs.iter().map(|r| r.bytes as f64).sum::<f64>() / ok_runs.len().max(1) as f64,
    );
    out.put("serve.errors", after.errors - before.errors);
    out.put("serve.dict_growth", after.dict_entries - before.dict_entries);
    match peak_rss_mb(Some(server.child.id())) {
        Ok(mb) => out.put("serve.peak_rss_mb", mb),
        Err(e) => out.error(e),
    }
    let lags: Vec<f64> = records.iter().map(|r| r.lag_ms).collect();
    out.put("loadgen.lag_p99_ms", quantile(&lags, 0.99));
    out.put("loadgen.backlog_max", records.iter().map(|r| r.backlog).max().unwrap_or(0) as f64);
    out.put("loadgen.sent", records.len() as f64);
    out.put("loadgen.failed", records.iter().filter(|r| !r.ok).count() as f64);
}
