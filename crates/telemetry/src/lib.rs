//! # gbc-telemetry
//!
//! Engine-wide instrumentation for the Greedy-by-Choice system:
//!
//! * [`metrics`] — monotonic counters (tuples derived, heap operations,
//!   index builds/probes, γ steps, diffChoice rejections, …) behind
//!   relaxed atomics, always compiled and cheap enough to leave on;
//! * [`span`] — the timing recorder: hierarchical phase timers, the
//!   per-rule profile and the γ-round latency histogram, all charged
//!   from one chained clock, so they agree with each other and add up
//!   to the wall clock of the phases they cover;
//! * [`trace`] — a [`trace::TraceSink`] trait with a human-readable
//!   one-line-per-event mode mirroring the paper's tuple ↔ stage
//!   bijection (Section 3), plus a structured JSON form per event;
//! * [`journal`] — structured sinks over the same event stream: an
//!   in-memory JSON journal (embeddable in `--stats-json`, exportable
//!   as JSON-lines) and a Chrome trace-event writer for Perfetto;
//! * [`profiler`] — the recorder's per-rule rows (firings, tuples,
//!   charged time, plan-cache hits) and overhead bucket;
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
//! shared [`metrics::Metrics`] registry, a [`span::Recorder`], and an
//! optional trace sink, passed down through `exec`/`eval`.

pub mod hist;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profiler;
pub mod registry;
pub mod rng;
pub mod span;
pub mod trace;

use std::sync::Arc;

pub use hist::Histogram;
pub use journal::{ChromeTrace, JournalBuffer, TeeTrace};
pub use json::Json;
pub use metrics::{Counter, MaxGauge, Metrics, Snapshot};
pub use profiler::{Profile, RuleProf};
pub use registry::{Gauge, MetricsRegistry, SharedHist};
pub use rng::{Rng, SplitMix64};
pub use span::Recorder;
pub use trace::{BufferTrace, DiscardReason, StderrTrace, TraceEvent, TraceSink};

/// Version of the `--stats-json` payload schema ([`Telemetry::to_json`]).
/// Bump when the report shape changes incompatibly; consumers should
/// check it before parsing (see DESIGN.md, "JSON schemas").
/// v2 added the `dictionary` block (value-interning counters); v3
/// dropped the batch-feed push counter, which only recounted heap
/// inserts; v4 dropped `latency.threads` and the profile's
/// `workers`/`merge_secs` fields with the intra-evaluation worker pool;
/// v5 dropped the row-clone counter, which only the removed
/// value-keyed relation probe incremented. Since v5, every timed
/// report carries `profile` and `latency`, and `counters` carries
/// `rql_retired` (both additive).
pub const STATS_SCHEMA_VERSION: u64 = 5;

/// The instrumentation bundle threaded through the executors.
///
/// Clones share state: counters, the timing recorder and the trace sink
/// all live behind `Arc`s, so a run can hand the same `Telemetry` to
/// the storage layer, the seminaive driver and the γ loop and read one
/// coherent picture at the end.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// The counter registry. Always counting (relaxed atomics).
    pub metrics: Arc<Metrics>,
    /// The timing recorder: phases, per-rule profile and γ-round
    /// histogram. Disabled by default — it then reads no clock and
    /// takes no lock.
    pub phases: Arc<Recorder>,
    /// Trace sink, absent unless `--trace`-style observation is on.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl Telemetry {
    /// Counters only: timing off, no trace. The default for untimed
    /// runs — counter increments are relaxed atomics, cheap enough to
    /// leave on everywhere.
    pub fn counters_only() -> Telemetry {
        Telemetry::default()
    }

    /// Full observation: counters with per-iteration delta history, and
    /// the timing recorder (phases, per-rule profile, round histogram).
    pub fn enabled() -> Telemetry {
        Telemetry {
            metrics: Arc::new(Metrics::with_history()),
            phases: Arc::new(Recorder::enabled()),
            trace: None,
        }
    }

    /// Attach a trace sink.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Telemetry {
        self.trace = Some(sink);
        self
    }

    /// No-op: [`Telemetry::enabled`] records the round histogram.
    #[deprecated(note = "`Telemetry::enabled()` records round latency")]
    pub fn with_round_latency(self) -> Telemetry {
        self
    }

    /// Snapshot of the per-round latency histogram, when timing is on.
    pub fn round_latency(&self) -> Option<Histogram> {
        self.phases.is_enabled().then(|| self.phases.rounds())
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

    /// The report as JSON: counters and phase timings, plus — when
    /// timing is on — the per-rule profile and the `latency` object
    /// (the round histogram and the γ feed/choose/commit split).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::UInt(STATS_SCHEMA_VERSION)),
            ("counters", self.metrics.snapshot().to_json()),
            ("phases", self.phases.to_json()),
        ];
        if self.phases.is_enabled() {
            fields.push(("profile", self.phases.profile().to_json()));
            let entries = self.phases.entries();
            let gamma: Vec<(&str, Json)> = [
                ("feed_secs", "run/gamma/feed"),
                ("choose_secs", "run/gamma/choose"),
                ("commit_secs", "run/gamma/commit"),
            ]
            .into_iter()
            .filter_map(|(key, phase)| {
                Some((key, Json::Float(entries.iter().find(|e| e.0 == phase)?.1)))
            })
            .collect();
            let mut latency = vec![("rounds", self.phases.rounds().to_json())];
            if !gamma.is_empty() {
                latency.push(("gamma", Json::obj(gamma)));
            }
            fields.push(("latency", Json::obj(latency)));
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
        assert!(s.contains("\"profile\"") && s.contains("\"latency\""));
        let s = Telemetry::counters_only().to_json().to_string();
        assert!(!s.contains("\"profile\"") && !s.contains("\"latency\""));
    }
}
