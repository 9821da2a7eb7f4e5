//! Structural contracts of the exported observability artefacts:
//!
//! * the `--trace-json` payload must be valid Chrome trace-event JSON
//!   (the object format Perfetto and `chrome://tracing` load): a
//!   `traceEvents` array whose entries carry `name`/`ph`/`ts`/`pid`/
//!   `tid`, instant-scope markers, and the typed payload under `args`;
//! * the `--profile` per-rule profiler must attribute at least 95% of
//!   the run phase's wall-clock time to rules on a non-trivial
//!   workload — anything less means an executor code path is escaping
//!   attribution;
//! * an evaluation runs on one thread, so every trace event is an
//!   instant event (`ph: "i"`) on `tid 1`.

use std::sync::Arc;

use gbc_core::GreedyConfig;
use gbc_greedy::{prim, workload};
use gbc_telemetry::{ChromeTrace, Json, Telemetry};

fn traced_prim_run(tel: &Telemetry, n: usize) {
    let g = workload::connected_graph(n, n * 3, 1000, 42);
    let (compiled, edb) = prim::prepared(&g, 0);
    compiled.run_greedy_telemetry(&edb, GreedyConfig::default(), tel).unwrap();
}

/// Look up a field of a JSON object by key.
fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn chrome_trace_has_the_trace_event_shape() {
    let chrome = Arc::new(ChromeTrace::new());
    let tel = Telemetry::enabled().with_trace(chrome.clone());
    traced_prim_run(&tel, 64);

    let file = chrome.to_json();
    let events = match field(&file, "traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "a 64-node Prim run must emit events");
    assert!(
        matches!(field(&file, "displayTimeUnit"), Some(Json::Str(u)) if u == "ms"),
        "displayTimeUnit hint missing"
    );

    let mut last_ts = 0u64;
    for ev in events {
        // Mandatory trace-event fields, with the types the viewers expect.
        assert!(matches!(field(ev, "name"), Some(Json::Str(n)) if !n.is_empty()));
        assert!(matches!(field(ev, "ph"), Some(Json::Str(ph)) if ph == "i"));
        assert!(matches!(field(ev, "pid"), Some(Json::UInt(_))));
        assert!(matches!(field(ev, "tid"), Some(Json::UInt(_))));
        assert!(matches!(field(ev, "s"), Some(Json::Str(s)) if s == "t"));
        let Some(Json::UInt(ts)) = field(ev, "ts") else {
            panic!("ts must be an unsigned microsecond count")
        };
        assert!(*ts >= last_ts, "timestamps must be monotone");
        last_ts = *ts;
        // The typed payload rides in args, tagged like the journal.
        let args = field(ev, "args").expect("args payload");
        assert!(matches!(field(args, "type"), Some(Json::Str(_))));
    }
    // The γ loop's signature events are all present.
    let names: Vec<String> = events
        .iter()
        .filter_map(|e| match field(e, "name") {
            Some(Json::Str(n)) => Some(n.clone()),
            _ => None,
        })
        .collect();
    for expected in ["flat_round", "stage_commit", "choice_audit", "rule_fired"] {
        assert!(names.iter().any(|n| n == expected), "missing event kind `{expected}`");
    }
}

#[test]
fn serial_trace_has_no_worker_lanes() {
    // Instant events only, everything on tid 1.
    let chrome = Arc::new(ChromeTrace::new());
    let tel = Telemetry::enabled().with_trace(chrome.clone());
    traced_prim_run(&tel, 128);

    let file = chrome.to_json();
    let events = match field(&file, "traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    for ev in events {
        assert!(matches!(field(ev, "ph"), Some(Json::Str(ph)) if ph == "i"));
        assert!(matches!(field(ev, "tid"), Some(Json::UInt(1))));
    }
}

#[test]
fn profiler_attributes_nearly_all_run_time() {
    // A 256-node graph: large enough that per-rule join work dominates
    // the executor's fixed per-round bookkeeping.
    let tel = Telemetry::enabled().with_profiler();
    traced_prim_run(&tel, 256);

    let attributed = tel.profiler.total_secs();
    let run_secs = tel
        .phases
        .entries()
        .iter()
        .find(|(name, _, _)| name == "run")
        .map(|(_, secs, _)| *secs)
        .expect("run phase timed");
    assert!(run_secs > 0.0);
    let coverage = attributed / run_secs;
    assert!(
        coverage >= 0.95,
        "profiler must attribute ≥95% of run time, got {:.1}% ({attributed:.6}s of {run_secs:.6}s)",
        coverage * 100.0
    );
    assert!(coverage <= 1.02, "attributed time cannot exceed the run phase, got {coverage}");
}
