//! # gbc-telemetry
//!
//! Engine-wide instrumentation for the Greedy-by-Choice system:
//!
//! * [`metrics`] — monotonic counters (tuples derived, heap operations,
//!   index builds/probes, γ steps, diffChoice rejections, …) behind
//!   relaxed atomics, always compiled and cheap enough to leave on;
//! * [`span`] — `Instant`-based phase timers with a hierarchical
//!   report (flat-rule saturation, γ choice, per-stage totals);
//! * [`trace`] — a [`trace::TraceSink`] trait with a human-readable
//!   one-line-per-event mode mirroring the paper's tuple ↔ stage
//!   bijection (Section 3), plus a structured JSON form per event;
//! * [`journal`] — structured sinks over the same event stream: an
//!   in-memory JSON journal (embeddable in `--stats-json`, exportable
//!   as JSON-lines) and a Chrome trace-event writer for Perfetto;
//! * [`profiler`] — a per-rule wall-clock profiler (firings, tuples,
//!   cumulative time, plan-cache hits) behind the same zero-cost-when-
//!   disabled discipline as the phase timers;
//! * [`json`] — a hand-rolled JSON value writer (no serde) for
//!   `--stats-json` trajectories;
//! * [`rng`] — a seeded SplitMix64 / xoshiro256** PRNG replacing the
//!   external `rand` crate, keeping the workspace free of registry
//!   dependencies.
//!
//! The crate deliberately depends on nothing but `std`, so every other
//! crate in the workspace can link it — including `gbc-storage` at the
//! bottom of the dependency stack.
//!
//! The one-stop handle is [`Telemetry`]: a cheap, clonable bundle of a
//! shared [`metrics::Metrics`] registry, a [`span::Phases`] timer, and
//! an optional trace sink, passed down through `exec`/`eval`.

pub mod hist;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profiler;
pub mod registry;
pub mod rng;
pub mod span;
pub mod trace;

use std::sync::{Arc, Mutex};

pub use hist::Histogram;
pub use journal::{ChromeTrace, JournalBuffer, TeeTrace};
pub use json::Json;
pub use metrics::{Counter, MaxGauge, Metrics, Snapshot};
pub use profiler::{RuleProf, RuleProfiler};
pub use registry::{Gauge, MetricsRegistry, SharedHist};
pub use rng::{Rng, SplitMix64};
pub use span::Phases;
pub use trace::{BufferTrace, DiscardReason, StderrTrace, TraceEvent, TraceSink};

/// Version of the `--stats-json` payload schema ([`Telemetry::to_json`]).
/// Bump when the report shape changes incompatibly; consumers should
/// check it before parsing (see DESIGN.md, "JSON schemas").
/// v2 added the `dictionary` block (value-interning counters); v3
/// dropped the batch-feed push counter, which only recounted heap
/// inserts; v4 dropped `latency.threads` and the profile's
/// `workers`/`merge_secs` fields with the intra-evaluation worker pool.
pub const STATS_SCHEMA_VERSION: u64 = 4;

/// The instrumentation bundle threaded through the executors.
///
/// Clones share state: counters, phase accumulators and the trace sink
/// all live behind `Arc`s, so a run can hand the same `Telemetry` to
/// the storage layer, the seminaive driver and the γ loop and read one
/// coherent picture at the end.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// The counter registry. Always counting (relaxed atomics).
    pub metrics: Arc<Metrics>,
    /// Phase timers. Disabled by default — `time` then runs the
    /// closure without touching the clock.
    pub phases: Arc<Phases>,
    /// Trace sink, absent unless `--trace`-style observation is on.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Per-rule profiler. Disabled by default — recording methods then
    /// return without touching the clock or any lock.
    pub profiler: Arc<RuleProfiler>,
    /// Per-round wall-time latency histogram, absent unless requested.
    /// Deliberately NOT part of [`Telemetry::to_json`]: bucket counts
    /// are timing-dependent integers and would break the run-to-run
    /// invariance of the stats report — the CLI embeds
    /// the summary into `--stats-json` itself, like the journal.
    pub rounds: Option<Arc<Mutex<Histogram>>>,
}

impl Telemetry {
    /// Counters only: phases off, no trace. The default for untimed
    /// runs — counter increments are relaxed atomics, cheap enough to
    /// leave on everywhere.
    pub fn counters_only() -> Telemetry {
        Telemetry::default()
    }

    /// Full observation: counters, per-iteration delta history and
    /// phase timers on.
    pub fn enabled() -> Telemetry {
        Telemetry {
            metrics: Arc::new(Metrics::with_history()),
            phases: Arc::new(Phases::enabled()),
            trace: None,
            profiler: Arc::default(),
            rounds: None,
        }
    }

    /// Attach a trace sink.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Telemetry {
        self.trace = Some(sink);
        self
    }

    /// Turn on per-rule profiling.
    pub fn with_profiler(mut self) -> Telemetry {
        self.profiler = Arc::new(RuleProfiler::enabled());
        self
    }

    /// Record per-γ-round wall-time latency into a histogram
    /// (retrieved via [`Telemetry::round_latency`]).
    pub fn with_round_latency(mut self) -> Telemetry {
        self.rounds = Some(Arc::new(Mutex::new(Histogram::default())));
        self
    }

    /// Record one γ-round duration, if round-latency tracking is on.
    pub fn record_round_nanos(&self, nanos: u64) {
        if let Some(cell) = &self.rounds {
            cell.lock().unwrap().record(nanos);
        }
    }

    /// Snapshot of the per-round latency histogram, when tracking is on.
    pub fn round_latency(&self) -> Option<Histogram> {
        self.rounds.as_ref().map(|cell| cell.lock().unwrap().clone())
    }

    /// Emit a trace event. The closure only runs when a sink is
    /// attached, so event construction costs nothing when tracing is
    /// off.
    pub fn trace_with(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.trace {
            sink.event(&make());
        }
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// The full report — counters plus phase timings, and the per-rule
    /// profile when profiling is on — as JSON.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::UInt(STATS_SCHEMA_VERSION)),
            ("counters", self.metrics.snapshot().to_json()),
            ("phases", self.phases.to_json()),
        ];
        if self.profiler.is_enabled() {
            fields.push(("profile", self.profiler.to_json()));
        }
        Json::obj(fields)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.metrics.snapshot())
            .field("phases", &self.phases)
            .field("trace", &self.trace.is_some())
            .field("profiler", &self.profiler.is_enabled())
            .field("rounds", &self.rounds.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_telemetry_counts_but_does_not_time() {
        let t = Telemetry::counters_only();
        t.metrics.gamma_steps.inc();
        let x = t.phases.time("unused", || 41 + 1);
        assert_eq!(x, 42);
        assert_eq!(t.snapshot().gamma_steps, 1);
        assert!(t.phases.entries().is_empty(), "disabled phases record nothing");
    }

    #[test]
    fn clones_share_counters() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.metrics.heap_pops.add(3);
        assert_eq!(t.snapshot().heap_pops, 3);
    }

    #[test]
    fn trace_closure_is_lazy() {
        let t = Telemetry::counters_only();
        t.trace_with(|| panic!("must not be constructed without a sink"));
        let buf = Arc::new(BufferTrace::new());
        let t = t.with_trace(buf.clone());
        t.trace_with(|| TraceEvent::FlatRound { round: 1, new_facts: 2 });
        assert_eq!(buf.lines().len(), 1);
    }

    #[test]
    fn json_report_has_both_sections() {
        let t = Telemetry::enabled();
        let s = t.to_json().to_string();
        assert!(s.contains("\"counters\""));
        assert!(s.contains("\"phases\""));
    }
}
