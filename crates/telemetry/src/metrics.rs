//! Monotonic counters for every layer of the executor path.
//!
//! All counters use relaxed atomics — they are single-writer in
//! practice (the executors are sequential) and only ever read at
//! report time, so `Relaxed` ordering is sufficient and the increment
//! compiles to one uncontended `lock xadd`/`ldadd`. The registry is
//! always compiled in; "disabled" simply means nobody reads it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// A monotonic `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge (records the maximum value ever observed).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Raise the mark to `v` if larger.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The counter registry threaded through `exec`/`eval`. One instance
/// per run (shared via `Arc`); every field is independently updatable
/// through `&self`.
#[derive(Debug, Default)]
pub struct Metrics {
    // -- derivation --
    /// Facts derived by flat-rule (seminaive) saturation.
    pub tuples_derived: Counter,
    /// Seminaive rounds executed.
    pub flat_rounds: Counter,
    // -- storage: indices --
    /// Hash indices built (first probe of a column set).
    pub index_builds: Counter,
    /// Index probes (every keyed `select_ids_into`).
    pub index_probes: Counter,
    /// Rule evaluations served by a cached compiled join plan instead
    /// of a fresh compilation.
    pub plan_cache_hits: Counter,
    // -- storage: the (R,Q,L) structure --
    /// Fresh insertions into some `Q_r` heap.
    pub heap_inserts: Counter,
    /// In-place replacements of a queued class's row and cost
    /// (`Rql::insert`'s decrease-key).
    pub heap_replaces: Counter,
    /// Pops from some `Q_r` heap.
    pub heap_pops: Counter,
    /// r-congruence replacements: a queued representative displaced by
    /// a cheaper congruent fact (the paper's "f1 is deleted from Q_r
    /// and f is inserted" case).
    pub congruence_replacements: Counter,
    /// Inserts dominated by a cheaper queued congruent fact.
    pub rql_dominated: Counter,
    /// Inserts blocked because the congruence class already fired
    /// (`∈ L_r`).
    pub rql_used_blocked: Counter,
    /// Queued candidates moved from `Q_r` to `R_r` by a commit whose
    /// choice FD blocked them for good (`Rql::retire`). When every
    /// queue drains, `heap_inserts == heap_pops + rql_retired`.
    pub rql_retired: Counter,
    /// Largest `|Q_r|` observed across all rules.
    pub queue_peak: MaxGauge,
    /// Heap cost comparisons between two entries whose costs are both
    /// `Int`, served from the inline `i64` without the dictionary
    /// (zero when no two queued costs are integers).
    pub heap_int_fast_compares: Counter,
    // -- γ --
    /// Committed γ steps (next-rule and exit-rule firings).
    pub gamma_steps: Counter,
    /// Candidates popped from some `Q_r` and discarded to `R_r`.
    pub discarded_pops: Counter,
    /// Candidates rejected by the on-the-fly `diffChoice`
    /// functional-dependency test: popped and discarded, or retired
    /// from `Q_r` by the commit that blocked them.
    pub diffchoice_rejections: Counter,
    /// Discards caused by the next-expansion's `choice(W, I)` goal
    /// (the tuple ↔ stage bijection of Section 3).
    pub stage_reuse_rejections: Counter,
    /// Choice candidates weighed at γ decision points: heap pops on
    /// the greedy path, matched frames per choice rule on the generic
    /// and exit paths.
    pub choice_candidates_considered: Counter,
    // -- history --
    /// Per-round seminaive delta sizes, recorded only when built with
    /// [`Metrics::with_history`] (unbounded growth otherwise).
    record_history: bool,
    delta_history: Mutex<Vec<u64>>,
}

impl Metrics {
    /// A registry that does not retain per-round history.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// A registry that records per-round seminaive delta sizes.
    pub fn with_history() -> Metrics {
        Metrics { record_history: true, ..Metrics::default() }
    }

    /// Record the new-fact count of one seminaive round.
    pub fn record_delta(&self, new_facts: u64) {
        self.flat_rounds.inc();
        self.tuples_derived.add(new_facts);
        if self.record_history {
            self.delta_history.lock().expect("delta history lock").push(new_facts);
        }
    }

    /// Copy every counter into a plain, comparable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            tuples_derived: self.tuples_derived.get(),
            flat_rounds: self.flat_rounds.get(),
            index_builds: self.index_builds.get(),
            index_probes: self.index_probes.get(),
            plan_cache_hits: self.plan_cache_hits.get(),
            heap_inserts: self.heap_inserts.get(),
            heap_replaces: self.heap_replaces.get(),
            heap_pops: self.heap_pops.get(),
            congruence_replacements: self.congruence_replacements.get(),
            rql_dominated: self.rql_dominated.get(),
            rql_used_blocked: self.rql_used_blocked.get(),
            rql_retired: self.rql_retired.get(),
            queue_peak: self.queue_peak.get(),
            heap_int_fast_compares: self.heap_int_fast_compares.get(),
            gamma_steps: self.gamma_steps.get(),
            discarded_pops: self.discarded_pops.get(),
            diffchoice_rejections: self.diffchoice_rejections.get(),
            stage_reuse_rejections: self.stage_reuse_rejections.get(),
            choice_candidates_considered: self.choice_candidates_considered.get(),
            delta_history: self.delta_history.lock().expect("delta history lock").clone(),
        }
    }
}

/// A plain-value copy of [`Metrics`], suitable for equality assertions
/// (determinism tests) and serialization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub tuples_derived: u64,
    pub flat_rounds: u64,
    pub index_builds: u64,
    pub index_probes: u64,
    pub plan_cache_hits: u64,
    pub heap_inserts: u64,
    pub heap_replaces: u64,
    pub heap_pops: u64,
    pub congruence_replacements: u64,
    pub rql_dominated: u64,
    pub rql_used_blocked: u64,
    pub rql_retired: u64,
    pub queue_peak: u64,
    pub heap_int_fast_compares: u64,
    pub gamma_steps: u64,
    pub discarded_pops: u64,
    pub diffchoice_rejections: u64,
    pub stage_reuse_rejections: u64,
    pub choice_candidates_considered: u64,
    pub delta_history: Vec<u64>,
}

impl Snapshot {
    /// `(name, value)` pairs for every scalar counter, in report order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("gamma_steps", self.gamma_steps),
            ("tuples_derived", self.tuples_derived),
            ("flat_rounds", self.flat_rounds),
            ("heap_inserts", self.heap_inserts),
            ("heap_replaces", self.heap_replaces),
            ("heap_pops", self.heap_pops),
            ("congruence_replacements", self.congruence_replacements),
            ("rql_dominated", self.rql_dominated),
            ("rql_used_blocked", self.rql_used_blocked),
            ("rql_retired", self.rql_retired),
            ("queue_peak", self.queue_peak),
            ("heap_int_fast_compares", self.heap_int_fast_compares),
            ("discarded_pops", self.discarded_pops),
            ("diffchoice_rejections", self.diffchoice_rejections),
            ("stage_reuse_rejections", self.stage_reuse_rejections),
            ("choice_candidates_considered", self.choice_candidates_considered),
            ("index_builds", self.index_builds),
            ("index_probes", self.index_probes),
            ("plan_cache_hits", self.plan_cache_hits),
        ]
    }

    /// Total heap operations — the quantity the Section 6 analysis
    /// bounds by `O(e log e)` for Prim-style programs.
    pub fn heap_ops(&self) -> u64 {
        self.heap_inserts + self.heap_replaces + self.heap_pops
    }

    /// Render as a JSON object (scalar counters plus the delta
    /// history array).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> =
            self.entries().into_iter().map(|(k, v)| (k.to_owned(), Json::UInt(v))).collect();
        fields.push((
            "delta_history".to_owned(),
            Json::Arr(self.delta_history.iter().map(|&d| Json::UInt(d)).collect()),
        ));
        Json::Obj(fields)
    }

    /// Rebuild a snapshot from the JSON [`Snapshot::to_json`] wrote —
    /// the wire format of `gbc serve`'s `/run` response. Every scalar
    /// counter must be present and integral; `delta_history` is
    /// optional (runs recorded without history simply have none).
    /// The exact round trip is what lets a TCP client assert the same
    /// counter equalities an in-process caller would.
    pub fn from_json(json: &Json) -> Result<Snapshot, String> {
        let field = |name: &str| {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("counters JSON: missing or non-integral `{name}`"))
        };
        let delta_history = match json.get("delta_history") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("counters JSON: `delta_history` is not an array")?
                .iter()
                .map(|d| d.as_u64().ok_or("counters JSON: non-integral delta"))
                .collect::<Result<Vec<u64>, _>>()?,
        };
        Ok(Snapshot {
            tuples_derived: field("tuples_derived")?,
            flat_rounds: field("flat_rounds")?,
            index_builds: field("index_builds")?,
            index_probes: field("index_probes")?,
            plan_cache_hits: field("plan_cache_hits")?,
            heap_inserts: field("heap_inserts")?,
            heap_replaces: field("heap_replaces")?,
            heap_pops: field("heap_pops")?,
            congruence_replacements: field("congruence_replacements")?,
            rql_dominated: field("rql_dominated")?,
            rql_used_blocked: field("rql_used_blocked")?,
            rql_retired: field("rql_retired")?,
            queue_peak: field("queue_peak")?,
            heap_int_fast_compares: field("heap_int_fast_compares")?,
            gamma_steps: field("gamma_steps")?,
            discarded_pops: field("discarded_pops")?,
            diffchoice_rejections: field("diffchoice_rejections")?,
            stage_reuse_rejections: field("stage_reuse_rejections")?,
            choice_candidates_considered: field("choice_candidates_considered")?,
            delta_history,
        })
    }

    /// A human-readable multi-line rendering, one `name: value` per
    /// line, aligned.
    pub fn render(&self) -> String {
        let entries = self.entries();
        let w = entries.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in entries {
            out.push_str(&format!("{k:<w$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.gamma_steps.inc();
        m.gamma_steps.add(4);
        m.queue_peak.observe(7);
        m.queue_peak.observe(3);
        let s = m.snapshot();
        assert_eq!(s.gamma_steps, 5);
        assert_eq!(s.queue_peak, 7);
    }

    #[test]
    fn history_is_opt_in() {
        let off = Metrics::new();
        off.record_delta(10);
        assert_eq!(off.snapshot().tuples_derived, 10);
        assert!(off.snapshot().delta_history.is_empty());

        let on = Metrics::with_history();
        on.record_delta(10);
        on.record_delta(0);
        assert_eq!(on.snapshot().delta_history, vec![10, 0]);
        assert_eq!(on.snapshot().flat_rounds, 2);
    }

    #[test]
    fn snapshots_compare_by_value() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.heap_pops.add(2);
        b.heap_pops.add(2);
        assert_eq!(a.snapshot(), b.snapshot());
        b.heap_pops.inc();
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn json_rendering_includes_every_counter() {
        let m = Metrics::with_history();
        m.record_delta(3);
        let json = m.snapshot().to_json().to_string();
        for (name, _) in m.snapshot().entries() {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing from {json}");
        }
        assert!(json.contains("\"delta_history\":[3]"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::with_history();
        m.gamma_steps.add(7);
        m.heap_pops.add(3);
        m.queue_peak.observe(11);
        m.record_delta(5);
        m.record_delta(0);
        let snap = m.snapshot();
        let parsed = Json::parse(&snap.to_json().to_string()).expect("valid JSON");
        assert_eq!(Snapshot::from_json(&parsed).expect("round trip"), snap);
        // A history-free snapshot round-trips too (delta_history: []).
        let bare = Metrics::new().snapshot();
        let parsed = Json::parse(&bare.to_json().to_string()).expect("valid JSON");
        assert_eq!(Snapshot::from_json(&parsed).expect("round trip"), bare);
        // Missing counters are a structured error, not a default.
        assert!(Snapshot::from_json(&Json::obj(vec![("gamma_steps", Json::UInt(1))]))
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn heap_ops_sums_the_heap_counters() {
        let m = Metrics::new();
        m.heap_inserts.add(10);
        m.heap_replaces.add(2);
        m.heap_pops.add(7);
        assert_eq!(m.snapshot().heap_ops(), 19);
    }
}
