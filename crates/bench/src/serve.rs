//! Multi-tenant closed-loop load harness — the `gbc serve` dress
//! rehearsal.
//!
//! ROADMAP item 1 wants a long-lived server answering evaluation
//! requests over compiled programs; its stated prerequisite is sharing
//! a plan-compiled [`Compiled`] and its EDB across threads (`Send +
//! Sync`). This module exercises exactly that shape without the
//! network: a fixed set of **tenants** (program + EDB pairs, compiled
//! once), a pool of concurrent **sessions** that each issue a fixed
//! number of back-to-back evaluation requests against their tenant, and
//! per-request latency recorded into mergeable histograms
//! ([`gbc_telemetry::Histogram`]).
//!
//! The loop is *closed*: each session performs `requests` evaluations
//! and stops. That makes the semantic work of a load run — γ-steps,
//! heap operations, tuples derived per request — a machine-independent
//! constant, which is what lets `experiments --compare` hard-gate those
//! counters in CI while treating the timing columns as informational.
//!
//! Sessions are scheduled over `threads` scoped worker threads; each
//! request itself evaluates on one thread, so the measured concurrency
//! is request-level, not intra-query.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gbc_core::{Compiled, GreedyConfig};
use gbc_greedy::{matching, prim, sorting, workload};
use gbc_storage::Database;
use gbc_telemetry::{Histogram, Json, Snapshot};

/// One shareable workload: a compiled program and the EDB its requests
/// evaluate against.
pub struct Tenant {
    /// Stable name (the `tenant` column of the bench rows).
    pub name: &'static str,
    /// The plan-compiled program, shared read-only by every session.
    pub compiled: Compiled,
    /// The extensional database, shared read-only by every session.
    pub edb: Database,
}

/// The standard three-tenant mix: Prim's MST (graph workload, seeded),
/// sorting (the paper's heap-sort-by-choice), and greedy matching (two
/// choice FDs). Seeds are fixed so every run — local or CI — evaluates
/// the same requests.
pub fn standard_tenants() -> Vec<Tenant> {
    let g = workload::connected_graph(64, 3 * 64, 1000, 42);
    let (prim_c, prim_edb) = prim::prepared(&g, 0);
    let items = workload::random_items(256, 42);
    let arcs = workload::random_arcs(64, 256, 42);
    vec![
        Tenant { name: "prim", compiled: prim_c, edb: prim_edb },
        Tenant { name: "sort", compiled: sorting::compiled(), edb: sorting::edb(&items) },
        Tenant { name: "matching", compiled: matching::compiled(), edb: arcs.to_edb() },
    ]
}

/// Per-tenant aggregate of a load run.
pub struct TenantReport {
    /// Tenant name.
    pub name: &'static str,
    /// Sessions that ran against this tenant.
    pub sessions: usize,
    /// Total requests completed.
    pub requests: u64,
    /// Merged per-request latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Counter snapshot of ONE request — every request against a tenant
    /// performs identical semantic work, asserted during the run.
    pub per_request: Snapshot,
}

/// The outcome of one load run.
pub struct LoadReport {
    /// Per-tenant aggregates, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Worker threads the sessions were scheduled over.
    pub threads: usize,
    /// Requests per session.
    pub requests_per_session: u64,
    /// Wall-clock of the whole run, in seconds.
    pub wall_secs: f64,
}

impl LoadReport {
    /// Total requests completed across tenants.
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }

    /// Aggregate throughput in requests per second.
    pub fn req_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.total_requests() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// All tenants' latency histograms merged (exact — shared grid).
    pub fn merged_latency(&self) -> Histogram {
        let mut all = Histogram::default();
        for t in &self.tenants {
            all.merge(&t.latency);
        }
        all
    }
}

/// Run `sessions` concurrent closed-loop sessions over `threads`
/// workers, each issuing `requests_per_session` evaluation requests.
/// Session `s` talks to tenant `s % tenants.len()`, so every tenant
/// serves a deterministic share of the sessions.
///
/// # Panics
/// When a request fails to evaluate, or when two requests against the
/// same tenant disagree on their semantic counters — either would mean
/// the shared-database contract is broken, which is precisely what this
/// harness exists to catch.
pub fn serve_load(
    tenants: &[Tenant],
    sessions: usize,
    threads: usize,
    requests_per_session: u64,
) -> LoadReport {
    assert!(!tenants.is_empty() && sessions > 0 && requests_per_session > 0);
    let t_run = Instant::now();
    // One result per session: (latency histogram, per-request snapshot).
    let per_session: Vec<(Histogram, Snapshot)> = over_workers(sessions, threads, |s| {
        let tenant = &tenants[s % tenants.len()];
        let mut latency = Histogram::default();
        let mut snapshot: Option<Snapshot> = None;
        for _ in 0..requests_per_session {
            let t0 = Instant::now();
            let run = tenant
                .compiled
                .run_greedy_with(&tenant.edb, GreedyConfig::default())
                .unwrap_or_else(|e| panic!("tenant `{}` request failed: {e}", tenant.name));
            latency.record(t0.elapsed().as_nanos() as u64);
            match &snapshot {
                None => snapshot = Some(run.snapshot),
                Some(first) => assert_eq!(
                    *first, run.snapshot,
                    "tenant `{}`: request counters drifted within a session",
                    tenant.name
                ),
            }
        }
        (latency, snapshot.expect("at least one request"))
    });
    let wall_secs = t_run.elapsed().as_secs_f64();
    aggregate(tenants, per_session, sessions, threads, requests_per_session, wall_secs)
}

/// [`serve_load`] measured **end-to-end over TCP** against a real
/// `gbc-serve` server: an ephemeral-port [`gbc_serve::Server`] is
/// booted with every tenant installed as a session, and each session
/// loop issues its requests as `POST /run` over a fresh connection via
/// the in-tree blocking client — so the recorded latencies include
/// connect, HTTP framing, evaluation and response serialization, which
/// is what a deployed `gbc serve` client would see.
///
/// Per-request semantic counters are reconstructed from each response's
/// `counters` object ([`Snapshot::from_json`]) and held to the same
/// drift assertions as the in-process harness; canonical result text
/// must also be identical across every request to a tenant. Row keys
/// and counter values are byte-compatible with [`serve_load`] rows, so
/// `experiments --compare` gates the same columns either way.
///
/// # Panics
/// On any transport error, non-200 response, counter drift, or result
/// drift — each would mean the shared-server contract is broken.
pub fn serve_load_tcp(
    tenants: &[Tenant],
    sessions: usize,
    threads: usize,
    requests_per_session: u64,
) -> LoadReport {
    assert!(!tenants.is_empty() && sessions > 0 && requests_per_session > 0);
    let server = gbc_serve::Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    for t in tenants {
        server.state().install(gbc_serve::Session::new(
            t.name,
            "<bench>",
            t.compiled.clone(),
            t.edb.clone(),
        ));
    }
    let addr = server.local_addr().to_string();
    let handle = server.spawn(threads);

    let t_run = Instant::now();
    let per_session: Vec<(Histogram, Snapshot)> = over_workers(sessions, threads, |s| {
        let tenant = &tenants[s % tenants.len()];
        let body = format!("{{\"session\": \"{}\"}}", tenant.name);
        let mut latency = Histogram::default();
        let mut snapshot: Option<Snapshot> = None;
        let mut result: Option<String> = None;
        for _ in 0..requests_per_session {
            let t0 = Instant::now();
            let (status, reply) = gbc_serve::client::post_json(&addr, "/run", &body)
                .unwrap_or_else(|e| panic!("tenant `{}` request failed: {e}", tenant.name));
            latency.record(t0.elapsed().as_nanos() as u64);
            assert_eq!(status, 200, "tenant `{}` answered {status}: {reply}", tenant.name);
            let json = Json::parse(reply.trim())
                .unwrap_or_else(|e| panic!("tenant `{}` reply unparseable: {e}", tenant.name));
            let mut snap = json
                .get("counters")
                .ok_or_else(|| "reply missing `counters`".to_owned())
                .and_then(Snapshot::from_json)
                .unwrap_or_else(|e| panic!("tenant `{}`: {e}", tenant.name));
            // The server runs under full telemetry, so its snapshots
            // carry the per-round delta history; the in-process harness
            // runs counters-only. History is a stats-plane detail, not
            // a pinned counter — drop it so the two transports compare
            // (and gate) on identical semantic ground.
            snap.delta_history.clear();
            let text = json
                .get("result")
                .and_then(|r| r.as_str())
                .unwrap_or_else(|| panic!("tenant `{}` reply missing `result`", tenant.name));
            match &snapshot {
                None => snapshot = Some(snap),
                Some(first) => assert_eq!(
                    *first, snap,
                    "tenant `{}`: request counters drifted over TCP",
                    tenant.name
                ),
            }
            match &result {
                None => result = Some(text.to_owned()),
                Some(first) => assert_eq!(
                    first, text,
                    "tenant `{}`: canonical results drifted over TCP",
                    tenant.name
                ),
            }
        }
        (latency, snapshot.expect("at least one request"))
    });
    let wall_secs = t_run.elapsed().as_secs_f64();
    handle.shutdown();
    aggregate(tenants, per_session, sessions, threads, requests_per_session, wall_secs)
}

/// Run `session(0..sessions)` over `threads` scoped workers, each
/// claiming the next unstarted session, and return the results in
/// session order. A session's panic resumes on the caller.
fn over_workers<T: Send>(
    sessions: usize,
    threads: usize,
    session: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, sessions))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        if s >= sessions {
                            return out;
                        }
                        out.push((s, session(s)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|&(s, _)| s);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Fold per-session results into per-tenant reports, asserting counter
/// agreement across sessions of the same tenant.
fn aggregate(
    tenants: &[Tenant],
    per_session: Vec<(Histogram, Snapshot)>,
    sessions: usize,
    threads: usize,
    requests_per_session: u64,
    wall_secs: f64,
) -> LoadReport {
    let mut reports: Vec<TenantReport> = tenants
        .iter()
        .map(|t| TenantReport {
            name: t.name,
            sessions: 0,
            requests: 0,
            latency: Histogram::default(),
            per_request: Snapshot::default(),
        })
        .collect();
    for (s, (latency, snapshot)) in per_session.into_iter().enumerate() {
        let report = &mut reports[s % tenants.len()];
        if report.sessions == 0 {
            report.per_request = snapshot;
        } else {
            assert_eq!(
                report.per_request, snapshot,
                "tenant `{}`: request counters drifted across sessions",
                report.name
            );
        }
        report.sessions += 1;
        report.requests += requests_per_session;
        report.latency.merge(&latency);
    }
    LoadReport { tenants: reports, sessions, threads, requests_per_session, wall_secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_run_counts_every_request() {
        let tenants = standard_tenants();
        let report = serve_load(&tenants, 3, 2, 2);
        assert_eq!(report.total_requests(), 6);
        assert_eq!(report.tenants.len(), 3);
        for t in &report.tenants {
            assert_eq!(t.sessions, 1);
            assert_eq!(t.latency.count(), t.requests);
            assert!(t.per_request.gamma_steps > 0, "tenant `{}` did no γ work", t.name);
        }
        assert!(report.req_per_sec() > 0.0);
        assert_eq!(report.merged_latency().count(), 6);
    }

    #[test]
    fn tcp_transport_preserves_per_request_counters() {
        // The whole point of the TCP harness: going through the real
        // server must not change one semantic counter (or byte of
        // result) relative to calling the executor directly.
        let tenants = standard_tenants();
        let direct = serve_load(&tenants, 3, 1, 1);
        let over_tcp = serve_load_tcp(&tenants, 3, 2, 2);
        assert_eq!(over_tcp.total_requests(), 6);
        for (a, b) in direct.tenants.iter().zip(over_tcp.tenants.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.per_request, b.per_request, "tenant `{}` drifted over TCP", a.name);
        }
    }

    #[test]
    fn session_fanout_is_deterministic_in_counters() {
        // Same tenants, different concurrency: per-request counters must
        // be identical — only timings may differ.
        let tenants = standard_tenants();
        let serial = serve_load(&tenants, 3, 1, 1);
        let parallel = serve_load(&tenants, 6, 4, 2);
        for (a, b) in serial.tenants.iter().zip(parallel.tenants.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.per_request, b.per_request, "tenant `{}` drifted", a.name);
        }
    }
}
