//! The per-rule profile: one row per rule (firings, tuples derived,
//! charged time, plan-cache hits) plus the overhead bucket.
//!
//! A [`Profile`] is plain data filled by [`crate::span::Recorder`],
//! whose chained clock charges every interval either to the rule that
//! just ran or to the overhead bucket — so rows plus overhead account
//! for exactly the time of the recorded phases. Rule ids are indices
//! into the *original* program's rule list (the `next`-expansion is
//! 1:1); the CLI resolves them to `file:line` through the program's
//! `RuleSpans` and the `SourceMap`.

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

/// Per-rule rows and the overhead bucket.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Slot per rule id, grown on demand.
    rules: Vec<RuleProf>,
    /// Time charged to no single rule (round snapshots, mark advances,
    /// phase switches, loop bookkeeping), in nanoseconds.
    overhead_nanos: u64,
}

impl Profile {
    fn row(&mut self, rule: usize) -> &mut RuleProf {
        if self.rules.len() <= rule {
            self.rules.resize(rule + 1, RuleProf::default());
        }
        &mut self.rules[rule]
    }

    /// Charge `nanos` (plus `firings`/`tuples`) to `rule`.
    pub fn charge(&mut self, rule: usize, firings: u64, tuples: u64, nanos: u64) {
        let p = self.row(rule);
        p.firings += firings;
        p.tuples += tuples;
        p.nanos += nanos;
    }

    /// Charge `nanos` to the overhead bucket.
    pub fn charge_overhead(&mut self, nanos: u64) {
        self.overhead_nanos += nanos;
    }

    /// Count one plan-cache hit for `rule`.
    pub fn plan_hit(&mut self, rule: usize) {
        self.row(rule).plan_hits += 1;
    }

    /// `(rule_id, profile)` pairs for every rule with recorded
    /// activity, in rule-id order.
    pub fn entries(&self) -> Vec<(usize, RuleProf)> {
        let active = self.rules.iter().enumerate().filter(|(_, p)| **p != RuleProf::default());
        active.map(|(i, p)| (i, p.clone())).collect()
    }

    /// Per-rule time plus the overhead bucket, in seconds.
    pub fn total_secs(&self) -> f64 {
        let rules: u64 = self.rules.iter().map(|p| p.nanos).sum();
        (rules + self.overhead_nanos) as f64 / 1e9
    }

    /// `{rules: [{rule, firings, tuples, secs, plan_hits}, …],
    /// overhead_secs}`.
    pub fn to_json(&self) -> Json {
        let rules = self.entries().into_iter().map(|(rule, p)| {
            Json::obj(vec![
                ("rule", Json::UInt(rule as u64)),
                ("firings", Json::UInt(p.firings)),
                ("tuples", Json::UInt(p.tuples)),
                ("secs", Json::Float(p.secs())),
                ("plan_hits", Json::UInt(p.plan_hits)),
            ])
        });
        let overhead = Json::Float(self.overhead_nanos as f64 / 1e9);
        Json::obj(vec![("rules", Json::Arr(rules.collect())), ("overhead_secs", overhead)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;

    #[test]
    fn disabled_profiler_records_nothing() {
        let r = Recorder::default();
        r.enter("run/flat");
        r.charge(3, 1, 5);
        r.plan_hit(3);
        assert!(r.profile().entries().is_empty() && r.profile().total_secs() == 0.0);
    }

    #[test]
    fn enabled_profiler_accumulates_per_rule() {
        let mut p = Profile::default();
        p.charge(2, 1, 10, 2_000_000);
        p.charge(2, 1, 5, 1_000_000);
        p.charge(0, 1, 0, 4_000_000);
        p.plan_hit(2);
        let e = p.entries();
        assert_eq!((e.len(), e[0].0, e[1].0), (2, 0, 2));
        assert_eq!(e[1].1, RuleProf { firings: 2, tuples: 15, nanos: 3_000_000, plan_hits: 1 });
        assert!((p.total_secs() - 0.007).abs() < 1e-9);
    }

    #[test]
    fn chained_charge_bills_the_elapsed_interval() {
        // With the clock stopped a charge records counts but no time.
        let r = Recorder::enabled();
        r.charge(1, 1, 3);
        assert_eq!(r.profile().entries()[0].1.nanos, 0);
        // In a phase it closes the interval since the previous read: the
        // profile and the phases account for the same time.
        r.time("run/flat", || {
            std::hint::black_box((0..1000).sum::<u64>());
            r.charge(1, 1, 3);
        });
        let e = r.profile().entries();
        assert_eq!((e.len(), e[0].1.firings, e[0].1.tuples), (1, 2, 6));
        let run = r.entries()[0].1;
        assert!((r.profile().total_secs() - run).abs() < 1e-9);
    }

    #[test]
    fn overhead_bucket_counts_toward_the_total() {
        let mut p = Profile::default();
        p.charge(0, 1, 1, 2_000_000);
        p.charge_overhead(500);
        assert!((p.total_secs() - 0.0020005).abs() < 1e-12);
        assert!(p.to_json().to_string().contains("\"overhead_secs\":"));
    }

    #[test]
    fn json_lists_only_active_rules() {
        let mut p = Profile::default();
        p.charge(5, 2, 7, 10_000);
        let s = p.to_json().to_string();
        assert!(s.contains("\"rule\":5") && s.contains("\"firings\":2"), "{s}");
        assert!(!s.contains("\"rule\":0"), "untouched slots are elided: {s}");
    }
}
