//! The timing recorder: phase timers, the per-rule profile and the
//! γ-round histogram, all charged from one chained clock.
//!
//! Phase names use `/` as a hierarchy separator (`run/gamma/feed`).
//! Each clock read closes the interval since the previous read and
//! charges it exactly once: to the current leaf phase, and — inside
//! [`PROFILED_PHASE`] — to either the rule that just ran or the
//! profile's overhead bucket. A parent's
//! time is the sum of its leaves'; its count is the number of times it
//! was entered. A round boundary records the time since the previous
//! boundary into the round histogram from the same reading. So phases,
//! profile and histogram agree by construction. A disabled recorder
//! reads no clock and takes no lock, so it is safe in hot loops.

use std::iter::successors;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json::Json;
use crate::profiler::Profile;

/// The phase the per-rule profile attributes. Time spent in other
/// top-level phases (`parse`, `setup`, `render`, …) reaches the phase
/// tree only, so rules plus overhead add up to exactly this phase.
pub const PROFILED_PHASE: &str = "run";

#[derive(Debug)]
struct Node {
    name: String,
    /// Inside [`PROFILED_PHASE`].
    profiled: bool,
    /// Registered before this node, so its index is smaller.
    parent: Option<usize>,
    /// Time charged while this node was the current leaf.
    nanos: u64,
    count: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Phases in first-use order; ancestors precede descendants.
    nodes: Vec<Node>,
    /// While the clock runs: the current leaf, the previous clock read
    /// and the previous round boundary.
    clock: Option<(usize, Instant, Instant)>,
    profile: Profile,
    rounds: Histogram,
}

impl State {
    /// Find `name`, registering it and its missing ancestors.
    fn node(&mut self, name: &str) -> usize {
        if let Some(i) = self.nodes.iter().position(|n| n.name == name) {
            return i;
        }
        let parent = name.rsplit_once('/').map(|(p, _)| self.node(p));
        let profiled = parent.map_or(name == PROFILED_PHASE, |p| self.nodes[p].profiled);
        self.nodes.push(Node { name: name.to_owned(), parent, profiled, nanos: 0, count: 0 });
        self.nodes.len() - 1
    }

    /// Charge the interval ending at `now` to the current leaf and,
    /// inside [`PROFILED_PHASE`], to `rule` (`(id, firings, tuples)`)
    /// or the overhead bucket.
    fn close(&mut self, now: Instant, rule: Option<(usize, u64, u64)>) {
        let mut nanos = 0;
        if let Some((leaf, last, _)) = &mut self.clock {
            let leaf = &mut self.nodes[*leaf];
            let spent = now.saturating_duration_since(*last).as_nanos() as u64;
            leaf.nanos += spent;
            if leaf.profiled {
                nanos = spent;
            }
            *last = now;
        }
        match rule {
            Some((id, firings, tuples)) => self.profile.charge(id, firings, tuples, nanos),
            None => self.profile.charge_overhead(nanos),
        }
    }

    /// Make `to` the current leaf (`None` stops the clock), counting an
    /// entry for each phase on its path that the old leaf was not on.
    /// Returns the old leaf.
    fn switch(&mut self, now: Instant, to: Option<usize>) -> Option<usize> {
        let from = self.clock.map(|(leaf, _, _)| leaf);
        let nodes = &mut self.nodes;
        let mut at = to;
        while let Some(i) = at.filter(|&i| successors(from, |&j| nodes[j].parent).all(|j| j != i)) {
            nodes[i].count += 1;
            at = nodes[i].parent;
        }
        let round_start = self.clock.map_or(now, |(_, _, start)| start);
        self.clock = to.map(|leaf| (leaf, now, round_start));
        from
    }

    fn enter(&mut self, now: Instant, phase: &str) -> Option<usize> {
        self.close(now, None);
        let to = self.node(phase);
        self.switch(now, Some(to))
    }
}

/// The timing recorder. Shared via `Arc`; all methods take `&self`.
/// `Recorder::default()` is disabled: every method is a no-op that
/// reads no clock.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    state: Mutex<State>,
}

impl Recorder {
    /// An enabled recorder.
    pub fn enabled() -> Recorder {
        Recorder { enabled: true, ..Recorder::default() }
    }

    /// Is timing on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("recorder lock")
    }

    /// The locked state and one clock read; `None` when disabled.
    fn read(&self) -> Option<(MutexGuard<'_, State>, Instant)> {
        self.enabled.then(|| (self.state(), Instant::now()))
    }

    /// Make `phase` the current leaf, charging the interval that ends
    /// here to the overhead bucket. Starts the clock if it is stopped.
    #[inline]
    pub fn enter(&self, phase: &str) {
        if let Some((mut s, now)) = self.read() {
            s.enter(now, phase);
        }
    }

    /// Charge the interval that ends here (plus `firings`/`tuples`) to
    /// `rule`. With the clock stopped only the counts are recorded.
    #[inline]
    pub fn charge(&self, rule: usize, firings: u64, tuples: u64) {
        if let Some((mut s, now)) = self.read() {
            s.close(now, Some((rule, firings, tuples)));
        }
    }

    /// Charge the interval that ends here to the overhead bucket.
    #[inline]
    pub fn overhead(&self) {
        if let Some((mut s, now)) = self.read() {
            s.close(now, None);
        }
    }

    /// Close a round: charge the interval that ends here to the overhead
    /// bucket and record the time since the previous round boundary (or
    /// the clock's start) into the round histogram.
    #[inline]
    pub fn end_round(&self) {
        if let Some((mut guard, now)) = self.read() {
            let s = &mut *guard;
            s.close(now, None);
            if let Some((_, _, start)) = &mut s.clock {
                let nanos = now.saturating_duration_since(std::mem::replace(start, now));
                s.rounds.record(nanos.as_nanos() as u64);
            }
        }
    }

    /// Count one plan-cache hit for `rule`. Reads no clock.
    #[inline]
    pub fn plan_hit(&self, rule: usize) {
        if self.enabled {
            self.state().profile.plan_hit(rule);
        }
    }

    /// Run `f` in phase `name`, then return to the phase that was
    /// current before (stopping the clock if none was). `f` may enter
    /// other phases.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let outer = self.read().map(|(mut s, now)| s.enter(now, name));
        let out = f();
        if let (Some(outer), Some((mut s, now))) = (outer, self.read()) {
            s.close(now, None);
            s.switch(now, outer);
        }
        out
    }

    /// `(name, seconds, count)` triples in tree order: each parent
    /// before its children, siblings in first-use order.
    pub fn entries(&self) -> Vec<(String, f64, u64)> {
        let s = self.state();
        let mut nanos: Vec<u64> = s.nodes.iter().map(|n| n.nanos).collect();
        for (i, n) in s.nodes.iter().enumerate().rev() {
            if let Some(p) = n.parent {
                nanos[p] += nanos[i];
            }
        }
        let mut order: Vec<usize> = (0..s.nodes.len()).collect();
        order.sort_by_cached_key(|&i| {
            let mut path: Vec<usize> = successors(Some(i), |&j| s.nodes[j].parent).collect();
            path.reverse();
            path
        });
        order
            .into_iter()
            .map(|i| (s.nodes[i].name.clone(), nanos[i] as f64 / 1e9, s.nodes[i].count))
            .collect()
    }

    /// Snapshot of the per-rule profile.
    pub fn profile(&self) -> Profile {
        self.state().profile.clone()
    }

    /// Snapshot of the round histogram.
    pub fn rounds(&self) -> Histogram {
        self.state().rounds.clone()
    }

    /// Hierarchical plain-text report. Top-level phases are listed with
    /// their share of the top-level total; children (`parent/child`)
    /// indent beneath their parent.
    pub fn render(&self) -> String {
        let entries = self.entries();
        let top_total: f64 =
            entries.iter().filter(|(n, _, _)| !n.contains('/')).map(|(_, s, _)| s).sum();
        let name_w = entries.iter().map(|(n, _, _)| n.len() + 2).max().unwrap_or(0);
        let mut out = String::new();
        for (name, secs, count) in &entries {
            let depth = name.matches('/').count();
            let leaf = name.rsplit('/').next().unwrap_or(name);
            let label = format!("{}{leaf}", "  ".repeat(depth));
            let pct = if top_total > 0.0 && depth == 0 {
                format!("{:5.1}%", 100.0 * secs / top_total)
            } else {
                " ".repeat(6)
            };
            out.push_str(&format!("{label:<name_w$}  {secs:>10.6}s  {pct}  ×{count}\n"));
        }
        out
    }

    /// JSON array of `{name, secs, count}` objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries()
                .into_iter()
                .map(|(name, secs, count)| {
                    let (secs, count) = (Json::Float(secs), Json::UInt(count));
                    Json::obj(vec![("name", Json::Str(name)), ("secs", secs), ("count", count)])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// An enabled recorder after clock reads at `(milliseconds, phase
    /// entered)`; `None` stops the clock.
    fn replay(steps: &[(u64, Option<&str>)]) -> Recorder {
        let r = Recorder::enabled();
        let (mut s, t0) = r.read().unwrap();
        for &(ms, phase) in steps {
            let now = t0 + Duration::from_millis(ms);
            s.close(now, None);
            let to = phase.map(|p| s.node(p));
            s.switch(now, to);
        }
        drop(s);
        r
    }

    fn lines(steps: &[(u64, Option<&str>)]) -> Vec<String> {
        replay(steps).render().lines().map(str::to_owned).collect()
    }

    fn count(r: &Recorder, name: &str) -> u64 {
        r.entries().into_iter().find(|e| e.0 == name).map_or(0, |e| e.2)
    }

    #[test]
    fn disabled_phases_record_nothing() {
        let r = Recorder::default();
        assert_eq!(r.time("x", || 7), 7);
        r.enter("y");
        r.end_round();
        assert!(r.entries().is_empty() && r.rounds().count() == 0);
    }

    #[test]
    fn enabled_phases_accumulate_and_count() {
        let r = replay(&[
            (0, Some("run/flat")),
            (3, Some("run/exit")),
            (5, Some("run/flat")),
            (10, None),
        ]);
        let e = r.entries();
        let names: Vec<(&str, u64)> = e.iter().map(|(n, _, c)| (n.as_str(), *c)).collect();
        assert_eq!(names, [("run", 1), ("run/flat", 2), ("run/exit", 1)]);
        assert!((e[0].1 - 0.010).abs() < 1e-9 && (e[1].1 - 0.008).abs() < 1e-9);
        // Every interval landed in the overhead bucket too.
        assert!((r.profile().total_secs() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn parents_render_before_children_recorded_first() {
        // Two leaves of `run` first used apart, around another top-level
        // phase: the report still nests them under their parent.
        let steps =
            [(0, Some("run/gamma/feed")), (1, Some("load")), (2, Some("run/flat")), (4, None)];
        let names: Vec<String> = replay(&steps).entries().into_iter().map(|e| e.0).collect();
        assert_eq!(names, ["run", "run/gamma", "run/gamma/feed", "run/flat", "load"]);
        let lines = lines(&steps);
        assert!(lines[1].starts_with("  gamma") && lines[3].starts_with("  flat"), "{lines:?}");
    }

    #[test]
    fn a_parent_is_entered_once_per_visit() {
        let gamma = ["run/gamma/feed", "run/gamma/choose", "run/gamma/commit", "run/flat"];
        let steps: Vec<_> = (0..8).map(|ms| (ms, Some(gamma[ms as usize % 4]))).collect();
        let r = replay(&steps);
        assert_eq!((count(&r, "run/gamma"), count(&r, "run/gamma/feed")), (2, 2));
        assert_eq!((count(&r, "run"), count(&r, "run/gamma/commit")), (1, 2));
    }

    #[test]
    fn report_indents_children() {
        let lines = lines(&[(0, Some("run/gamma")), (4, Some("run/flat")), (10, None)]);
        assert!(lines[0].starts_with("run ") && lines[0].contains("100.0%"), "{lines:?}");
        assert!(lines[1].starts_with("  gamma"), "{lines:?}");
    }

    #[test]
    fn report_indents_by_nesting_depth() {
        let lines = lines(&[(0, Some("run/flat/delta")), (2, Some("run/flat")), (5, None)]);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("run ") && lines[1].starts_with("  flat"), "{lines:?}");
        // Leaf labels drop the parent path prefix.
        assert!(lines[2].starts_with("    delta "), "{lines:?}");
    }

    #[test]
    fn percentages_split_across_top_level_phases_only() {
        let lines = lines(&[(0, Some("load")), (25, Some("run/gamma")), (100, None)]);
        // Top-level shares are taken against the top-level sum (100 ms);
        // children never get a percentage column.
        assert!(lines[0].contains(" 25.0%") && lines[1].contains(" 75.0%"), "{lines:?}");
        assert!(!lines[2].contains('%'), "{lines:?}");
    }

    #[test]
    fn disabled_phases_render_empty_and_skip_the_clock() {
        let r = Recorder::default();
        let mut ran = false;
        r.time("x", || ran = true);
        assert!(ran && !r.is_enabled());
        assert_eq!((r.render().as_str(), r.to_json().to_string().as_str()), ("", "[]"));
    }

    #[test]
    fn time_measures_something() {
        let r = Recorder::enabled();
        r.time("run", || r.end_round());
        let e = r.entries();
        assert_eq!((e[0].2, r.rounds().count()), (1, 1));
        // The clock stopped with the closure: later reads charge nothing.
        r.overhead();
        assert_eq!(r.entries()[0].1, e[0].1);
        assert!((r.profile().total_secs() - e[0].1).abs() < 1e-9);
    }

    #[test]
    fn profile_attributes_only_the_profiled_phase() {
        let r =
            replay(&[(0, Some("parse")), (2, Some("run/flat")), (5, Some("render")), (9, None)]);
        let names: Vec<String> = r.entries().into_iter().map(|e| e.0).collect();
        assert_eq!(names, ["parse", "run", "run/flat", "render"]);
        assert!((r.profile().total_secs() - 0.003).abs() < 1e-9);
    }

    #[test]
    fn json_has_name_secs_count() {
        let s = replay(&[(0, Some("a")), (1, None)]).to_json().to_string();
        assert!(s.contains("\"name\":\"a\"") && s.contains("\"count\":1"), "{s}");
    }
}
