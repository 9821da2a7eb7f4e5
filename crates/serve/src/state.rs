//! Shared server state: loaded sessions (compiled program + EDB pairs)
//! and the process-lifetime metrics plane.
//!
//! A **session** is one loaded program: compiled once, then evaluated
//! by any number of concurrent `/run` requests. [`gbc_core::Compiled`]
//! and [`gbc_storage::Database`] are both `Send + Sync` and read-only
//! during evaluation (every run materializes its own result database),
//! so sessions live behind plain `Arc`s — request workers never clone a
//! plan or an EDB.
//!
//! The metrics side is a [`MetricsRegistry`] (see
//! `gbc_telemetry::registry`): a plane deliberately separate from the
//! per-run [`gbc_telemetry::Metrics`] counters, so a `/metrics` scrape
//! can never perturb a run's counters — pinned run counters stay
//! byte-identical whether or not anyone is watching.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use gbc_core::Compiled;
use gbc_storage::Database;
use gbc_telemetry::metrics::Counter;
use gbc_telemetry::{Gauge, JournalBuffer, Json, MetricsRegistry, SharedHist};

/// One loaded program, shared read-only across request workers.
pub struct Session {
    /// Registration name (the `session` field of `/run` bodies).
    pub name: String,
    /// Where the program came from (file path or `<inline>`), for
    /// `GET /programs`.
    pub source: String,
    /// The compiled program: plans, analysis, expansion — built once.
    pub compiled: Arc<Compiled>,
    /// The extensional database requests evaluate against. Empty for
    /// programs that carry their facts inline (the `gbc run` shape).
    pub edb: Arc<Database>,
    /// Completed `/run` requests against this session.
    pub runs: AtomicU64,
    /// Stats report (schema v3, same shape as `--stats-json`) of the
    /// most recent run, served by `GET /stats`.
    pub last_stats: RwLock<Option<Json>>,
    /// Choice-audit journal of the most recent journaled run, served as
    /// JSON-lines by `GET /journal`. Written mid-run (the buffer is a
    /// live trace sink), so a concurrent reader sees the events
    /// committed so far.
    pub journal: RwLock<Option<Arc<JournalBuffer>>>,
}

impl Session {
    /// Wrap a compiled program + EDB as a fresh session.
    pub fn new(name: &str, source: &str, compiled: Compiled, edb: Database) -> Session {
        Session {
            name: name.to_owned(),
            source: source.to_owned(),
            compiled: Arc::new(compiled),
            edb: Arc::new(edb),
            runs: AtomicU64::new(0),
            last_stats: RwLock::new(None),
            journal: RwLock::new(None),
        }
    }

    /// Completed runs.
    pub fn run_count(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }
}

/// Handles to every pre-registered server metric. Registration happens
/// once at startup so `GET /metrics` always exposes the full name set
/// (a scrape before the first request still sees zeros, not absences).
pub struct ServerMetrics {
    /// The registry itself (rendered by `GET /metrics`).
    pub registry: MetricsRegistry,
    /// `gbc_http_requests_total{endpoint=...}` per known endpoint.
    requests: Vec<(&'static str, Arc<Counter>)>,
    /// `gbc_http_request_nanoseconds{endpoint=...}` per known endpoint.
    latency: Vec<(&'static str, Arc<SharedHist>)>,
    /// Requests answered with a non-2xx status.
    pub errors: Arc<Counter>,
    /// Completed evaluation runs, across sessions.
    pub runs: Arc<Counter>,
    /// Per-γ-round wall time, merged from every run's round histogram.
    pub gamma_rounds: Arc<SharedHist>,
    /// Loaded sessions.
    pub sessions: Arc<Gauge>,
    /// HTTP worker threads.
    pub pool_workers: Arc<Gauge>,
    /// Workers currently handling a request (the occupancy gauge).
    pub pool_busy: Arc<Gauge>,
    /// Global value-dictionary size (refreshed on scrape).
    pub dict_entries: Arc<Gauge>,
}

/// Every route the server answers; `/metrics` series are labelled by
/// these names plus the `other` catch-all.
pub const ENDPOINTS: &[&str] =
    &["/healthz", "/metrics", "/stats", "/journal", "/programs", "/load", "/run", "other"];

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = MetricsRegistry::new();
        let requests = ENDPOINTS
            .iter()
            .map(|ep| {
                let name = format!("gbc_http_requests_total{{endpoint=\"{ep}\"}}");
                (*ep, registry.counter(&name, "HTTP requests received, by endpoint"))
            })
            .collect();
        let latency = ENDPOINTS
            .iter()
            .map(|ep| {
                let name = format!("gbc_http_request_nanoseconds{{endpoint=\"{ep}\"}}");
                (*ep, registry.hist(&name, "End-to-end request handling latency, by endpoint"))
            })
            .collect();
        ServerMetrics {
            errors: registry
                .counter("gbc_http_errors_total", "HTTP requests answered with a non-2xx status"),
            runs: registry.counter("gbc_runs_total", "Completed evaluation runs"),
            gamma_rounds: registry
                .hist("gbc_gamma_round_nanoseconds", "Per-gamma-round wall time across runs"),
            sessions: registry.gauge("gbc_sessions_loaded", "Loaded program sessions"),
            pool_workers: registry.gauge("gbc_pool_workers", "HTTP worker threads"),
            pool_busy: registry
                .gauge("gbc_pool_busy_workers", "Workers currently handling a request"),
            dict_entries: registry
                .gauge("gbc_dictionary_entries", "Entries in the global value dictionary"),
            requests,
            latency,
            registry,
        }
    }

    /// The request counter for `path` (the `other` series for unknown
    /// paths).
    pub fn requests_for(&self, path: &str) -> &Arc<Counter> {
        self.requests
            .iter()
            .find(|(ep, _)| *ep == path)
            .or_else(|| self.requests.last())
            .map(|(_, c)| c)
            .expect("endpoint counters are pre-registered")
    }

    /// The latency histogram for `path` (the `other` series for unknown
    /// paths).
    pub fn latency_for(&self, path: &str) -> &Arc<SharedHist> {
        self.latency
            .iter()
            .find(|(ep, _)| *ep == path)
            .or_else(|| self.latency.last())
            .map(|(_, h)| h)
            .expect("endpoint histograms are pre-registered")
    }
}

/// Everything the request workers share.
pub struct ServerState {
    /// Loaded sessions, in load order (replacement keeps the slot).
    sessions: RwLock<Vec<Arc<Session>>>,
    /// The metrics plane.
    pub metrics: ServerMetrics,
    /// Server start, for `/healthz` uptime.
    pub started: Instant,
}

impl Default for ServerState {
    fn default() -> ServerState {
        ServerState::new()
    }
}

impl ServerState {
    /// Fresh state with an empty session table and all metrics
    /// registered at zero.
    pub fn new() -> ServerState {
        ServerState {
            sessions: RwLock::new(Vec::new()),
            metrics: ServerMetrics::new(),
            started: Instant::now(),
        }
    }

    /// Install (or replace) a session. Replacement keeps the original
    /// table position so `GET /programs` order is stable.
    pub fn install(&self, session: Session) {
        let session = Arc::new(session);
        let mut sessions = self.sessions.write().expect("session table");
        match sessions.iter_mut().find(|s| s.name == session.name) {
            Some(slot) => *slot = session,
            None => sessions.push(session),
        }
        self.metrics.sessions.set(sessions.len() as i64);
    }

    /// Look up a session by name.
    pub fn session(&self, name: &str) -> Option<Arc<Session>> {
        self.sessions.read().expect("session table").iter().find(|s| s.name == name).cloned()
    }

    /// Every session, in load order.
    pub fn sessions(&self) -> Vec<Arc<Session>> {
        self.sessions.read().expect("session table").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> Compiled {
        gbc_core::compile(gbc_parser::parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn install_replaces_by_name_and_tracks_the_gauge() {
        let state = ServerState::new();
        state.install(Session::new("a", "<inline>", compiled("p(1)."), Database::new()));
        state.install(Session::new("b", "<inline>", compiled("q(2)."), Database::new()));
        state.install(Session::new("a", "<inline>", compiled("p(3)."), Database::new()));
        let names: Vec<String> = state.sessions().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["a", "b"], "replacement keeps load order");
        assert_eq!(state.metrics.sessions.get(), 2);
        assert!(state.session("a").is_some() && state.session("missing").is_none());
    }

    #[test]
    fn endpoint_series_fall_back_to_other() {
        let m = ServerMetrics::new();
        m.requests_for("/run").inc();
        m.requests_for("/nope").inc();
        m.requests_for("/nope").inc();
        let text = m.registry.render_prometheus();
        assert!(text.contains("gbc_http_requests_total{endpoint=\"/run\"} 1\n"));
        assert!(text.contains("gbc_http_requests_total{endpoint=\"other\"} 2\n"));
    }
}
