//! Per-rule wall-clock profiling.
//!
//! A [`RuleProfiler`] accumulates, per rule id, the number of firings,
//! the tuples derived, the cumulative evaluation time, and the plan-
//! cache hits. Rule ids are indices into the *original* program's rule
//! list (the `next`-expansion is 1:1, so the same ids work on both
//! sides); the CLI resolves them to `file:line` locations through the
//! program's `RuleSpans` and the `SourceMap`.
//!
//! Like [`crate::span::Phases`], a disabled profiler (the default)
//! never touches the clock: [`RuleProfiler::start`] returns `None`
//! without an `Instant::now` call, and every recording method returns
//! immediately, so the instrumentation is safe to leave in hot loops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Accumulated per-rule figures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleProf {
    /// Rule evaluations (flat rules) or γ commits (choice/next rules).
    pub firings: u64,
    /// Facts the rule derived (post-deduplication inserts).
    pub tuples: u64,
    /// Cumulative wall-clock time charged to the rule, in nanoseconds.
    pub nanos: u64,
    /// Evaluations served by a cached compiled join plan.
    pub plan_hits: u64,
}

impl RuleProf {
    /// Charged time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// The per-rule profile registry. Shared via `Arc`; methods take
/// `&self`.
#[derive(Debug, Default)]
pub struct RuleProfiler {
    enabled: bool,
    /// Slot per rule id, grown on demand.
    rules: Mutex<Vec<RuleProf>>,
    /// Executor bookkeeping charged outside any single rule (seminaive
    /// round snapshots, mark advances, delta accounting), in
    /// nanoseconds — so the profile accounts for run time the per-rule
    /// rows cannot claim.
    overhead_nanos: AtomicU64,
    /// Per-worker busy time of the parallel evaluation lanes (slot per
    /// worker id), in nanoseconds. Lanes measure work done *inside* the
    /// coordinator's per-rule wall-clock intervals, so they are
    /// reported alongside the rules rather than added to
    /// [`RuleProfiler::total_secs`] — summing both would double-count.
    lane_nanos: Mutex<Vec<u64>>,
    /// Coordinator time spent merging per-worker buffers and inserting
    /// the merged rows after a parallel round barrier, in nanoseconds.
    /// Counted toward [`RuleProfiler::total_secs`] like the overhead
    /// bucket; stays 0 on serial runs.
    merge_nanos: AtomicU64,
}

impl RuleProfiler {
    /// A disabled profiler: every method is a cheap no-op.
    pub fn disabled() -> RuleProfiler {
        RuleProfiler::default()
    }

    /// An enabled profiler.
    pub fn enabled() -> RuleProfiler {
        RuleProfiler { enabled: true, ..RuleProfiler::default() }
    }

    /// Is profiling on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Begin a timing interval. Returns `None` — without reading the
    /// clock — when disabled; pair with [`RuleProfiler::finish`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close an interval opened by [`RuleProfiler::start`], charging
    /// the elapsed time (plus `firings`/`tuples`) to `rule`.
    #[inline]
    pub fn finish(&self, t0: Option<Instant>, rule: usize, firings: u64, tuples: u64) {
        if let Some(t0) = t0 {
            self.record(rule, firings, tuples, t0.elapsed());
        }
    }

    /// Charge `dur` (plus `firings`/`tuples`) to `rule` directly.
    pub fn record(&self, rule: usize, firings: u64, tuples: u64, dur: Duration) {
        if !self.enabled {
            return;
        }
        let mut rules = self.rules.lock().expect("profiler lock");
        if rules.len() <= rule {
            rules.resize(rule + 1, RuleProf::default());
        }
        let p = &mut rules[rule];
        p.firings += firings;
        p.tuples += tuples;
        p.nanos += dur.as_nanos() as u64;
    }

    /// Count one plan-cache hit for `rule`.
    pub fn record_plan_hit(&self, rule: usize) {
        if !self.enabled {
            return;
        }
        let mut rules = self.rules.lock().expect("profiler lock");
        if rules.len() <= rule {
            rules.resize(rule + 1, RuleProf::default());
        }
        rules[rule].plan_hits += 1;
    }

    /// Close an interval opened by [`RuleProfiler::start`], charging
    /// the elapsed time to the executor-overhead bucket instead of a
    /// rule.
    #[inline]
    pub fn finish_overhead(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.add_overhead(t0.elapsed());
        }
    }

    /// Charge `dur` to the executor-overhead bucket directly.
    #[inline]
    pub fn add_overhead(&self, dur: Duration) {
        if self.enabled {
            self.overhead_nanos.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Executor bookkeeping time charged outside any rule, in seconds.
    pub fn overhead_secs(&self) -> f64 {
        self.overhead_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Begin a worker-lane interval. Like [`RuleProfiler::start`] but
    /// intended for use *on* a pool worker; pair with
    /// [`RuleProfiler::record_lane`].
    #[inline]
    pub fn lane_start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Charge `dur` of busy time to `worker`'s lane. Lanes are
    /// informational (they show how evenly a parallel round spread) and
    /// do not feed [`RuleProfiler::total_secs`] — the coordinator's
    /// per-rule intervals already cover the same wall-clock span.
    pub fn record_lane(&self, worker: usize, dur: Duration) {
        if !self.enabled {
            return;
        }
        let mut lanes = self.lane_nanos.lock().expect("profiler lock");
        if lanes.len() <= worker {
            lanes.resize(worker + 1, 0);
        }
        lanes[worker] += dur.as_nanos() as u64;
    }

    /// Per-worker lane busy time in seconds, indexed by worker id.
    /// Empty unless a parallel round ran with profiling on.
    pub fn lane_secs(&self) -> Vec<f64> {
        self.lane_nanos.lock().expect("profiler lock").iter().map(|&n| n as f64 / 1e9).collect()
    }

    /// Charge `dur` to the parallel merge bucket (coordinator time
    /// spent concatenating per-worker buffers and inserting the merged
    /// rows after a round barrier).
    #[inline]
    pub fn add_merge(&self, dur: Duration) {
        if self.enabled {
            self.merge_nanos.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Parallel merge/insert time, in seconds. 0 on serial runs.
    pub fn merge_secs(&self) -> f64 {
        self.merge_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// `(rule_id, profile)` pairs for every rule with recorded
    /// activity, in rule-id order.
    pub fn entries(&self) -> Vec<(usize, RuleProf)> {
        self.rules
            .lock()
            .expect("profiler lock")
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != RuleProf::default())
            .map(|(i, p)| (i, p.clone()))
            .collect()
    }

    /// Total charged time across all rules, in seconds — excluding the
    /// executor-overhead bucket.
    pub fn rules_secs(&self) -> f64 {
        self.rules.lock().expect("profiler lock").iter().map(RuleProf::secs).sum()
    }

    /// Everything the profile accounts for: per-rule time plus the
    /// executor-overhead and parallel-merge buckets, in seconds. Worker
    /// lanes are excluded — they overlap the per-rule intervals.
    pub fn total_secs(&self) -> f64 {
        self.charged_nanos() as f64 / 1e9
    }

    /// [`RuleProfiler::total_secs`] in nanoseconds: a caller that reads
    /// it at both ends of an interval learns how much of the interval
    /// the profile already accounts for.
    pub fn charged_nanos(&self) -> u64 {
        let rules: u64 = self.rules.lock().expect("profiler lock").iter().map(|p| p.nanos).sum();
        rules
            + self.overhead_nanos.load(Ordering::Relaxed)
            + self.merge_nanos.load(Ordering::Relaxed)
    }

    /// `{rules: [{rule, firings, tuples, secs, plan_hits}, …],
    /// overhead_secs}`, plus `workers`/`merge_secs` fields when a
    /// parallel round recorded lane or merge time (serial output is
    /// unchanged byte for byte).
    pub fn to_json(&self) -> Json {
        let rules = Json::Arr(
            self.entries()
                .into_iter()
                .map(|(rule, p)| {
                    Json::obj(vec![
                        ("rule", Json::UInt(rule as u64)),
                        ("firings", Json::UInt(p.firings)),
                        ("tuples", Json::UInt(p.tuples)),
                        ("secs", Json::Float(p.secs())),
                        ("plan_hits", Json::UInt(p.plan_hits)),
                    ])
                })
                .collect(),
        );
        let mut fields =
            vec![("rules", rules), ("overhead_secs", Json::Float(self.overhead_secs()))];
        let lanes = self.lane_secs();
        if lanes.iter().any(|&s| s > 0.0) {
            let workers = lanes
                .into_iter()
                .enumerate()
                .map(|(w, busy)| {
                    Json::obj(vec![
                        ("worker", Json::UInt(w as u64)),
                        ("busy_secs", Json::Float(busy)),
                    ])
                })
                .collect();
            fields.push(("workers", Json::Arr(workers)));
        }
        if self.merge_nanos.load(Ordering::Relaxed) > 0 {
            fields.push(("merge_secs", Json::Float(self.merge_secs())));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = RuleProfiler::disabled();
        assert!(p.start().is_none(), "disabled start must not read the clock");
        p.record(3, 1, 5, Duration::from_millis(1));
        p.record_plan_hit(3);
        assert!(p.entries().is_empty());
        assert_eq!(p.total_secs(), 0.0);
    }

    #[test]
    fn enabled_profiler_accumulates_per_rule() {
        let p = RuleProfiler::enabled();
        p.record(2, 1, 10, Duration::from_millis(2));
        p.record(2, 1, 5, Duration::from_millis(1));
        p.record(0, 1, 0, Duration::from_millis(4));
        p.record_plan_hit(2);
        let e = p.entries();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].0, 0);
        assert_eq!(e[1].0, 2);
        assert_eq!(e[1].1.firings, 2);
        assert_eq!(e[1].1.tuples, 15);
        assert_eq!(e[1].1.plan_hits, 1);
        assert!((p.total_secs() - 0.007).abs() < 1e-9);
    }

    #[test]
    fn start_finish_charges_elapsed_time() {
        let p = RuleProfiler::enabled();
        let t0 = p.start();
        assert!(t0.is_some());
        p.finish(t0, 1, 1, 3);
        let e = p.entries();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].1.firings, 1);
        assert_eq!(e[0].1.tuples, 3);
    }

    #[test]
    fn overhead_bucket_counts_toward_the_total() {
        let p = RuleProfiler::enabled();
        p.record(0, 1, 1, Duration::from_millis(2));
        let t0 = p.start();
        p.finish_overhead(t0);
        assert!(p.overhead_secs() > 0.0);
        assert!(p.total_secs() > p.rules_secs());
        assert!(p.to_json().to_string().contains("\"overhead_secs\":"));
    }

    #[test]
    fn lanes_and_merge_stay_silent_on_serial_runs() {
        let p = RuleProfiler::enabled();
        p.record(0, 1, 1, Duration::from_millis(1));
        let s = p.to_json().to_string();
        assert!(!s.contains("\"workers\""), "no lanes recorded: {s}");
        assert!(!s.contains("\"merge_secs\""), "no merge recorded: {s}");

        p.record_lane(1, Duration::from_millis(2));
        p.add_merge(Duration::from_millis(3));
        let s = p.to_json().to_string();
        assert!(s.contains("\"workers\""));
        assert!(s.contains("\"busy_secs\""));
        assert!(s.contains("\"merge_secs\""));
        assert_eq!(p.lane_secs().len(), 2);
        // Merge counts toward the accounted total; lanes do not.
        assert!((p.total_secs() - 0.004).abs() < 1e-9);
    }

    #[test]
    fn disabled_profiler_ignores_lanes_and_merge() {
        let p = RuleProfiler::disabled();
        assert!(p.lane_start().is_none());
        p.record_lane(0, Duration::from_millis(1));
        p.add_merge(Duration::from_millis(1));
        assert!(p.lane_secs().is_empty());
        assert_eq!(p.merge_secs(), 0.0);
    }

    #[test]
    fn json_lists_only_active_rules() {
        let p = RuleProfiler::enabled();
        p.record(5, 2, 7, Duration::from_micros(10));
        let s = p.to_json().to_string();
        assert!(s.contains("\"rule\":5"));
        assert!(s.contains("\"firings\":2"));
        assert!(!s.contains("\"rule\":0"), "untouched slots are elided: {s}");
    }
}
