//! Structural contracts of the exported observability artefacts:
//!
//! * the `--trace-json` payload must be valid Chrome trace-event JSON
//!   (the object format Perfetto and `chrome://tracing` load): a
//!   `traceEvents` array whose entries carry `name`/`ph`/`ts`/`pid`/
//!   `tid`, instant-scope markers, and the typed payload under `args`;
//! * the timing recorder's views must agree exactly, on the greedy and
//!   the generic path: per-rule plus overhead time equals the `run`
//!   phase, `run`'s children sum to `run`, and the round histogram
//!   closes one round per `run/flat` entry;
//! * an evaluation runs on one thread, so every trace event is an
//!   instant event (`ph: "i"`) on `tid 1`.

use std::sync::Arc;

use gbc_core::GreedyConfig;
use gbc_engine::DeterministicFirst;
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

/// `(seconds, count)` of phase `name`.
fn phase(tel: &Telemetry, name: &str) -> (f64, u64) {
    let found = tel.phases.entries().into_iter().find(|(n, _, _)| n == name);
    found.map(|(_, secs, count)| (secs, count)).unwrap_or_else(|| panic!("no phase {name}"))
}

/// The recorder's views agree to 1 µs of float rounding: per-rule plus
/// overhead time equals `run`, `run`'s children sum to `run`, and the
/// histogram closes one round per `run/flat` entry.
fn assert_exact_attribution(tel: &Telemetry) {
    let (run, runs) = phase(tel, "run");
    assert!(run > 0.0 && runs == 1);
    let attributed = tel.phases.profile().total_secs();
    assert!((attributed - run).abs() <= 1e-6, "profile {attributed:.9}s vs run {run:.9}s");
    let child = |name: &str| name.strip_prefix("run/").is_some_and(|leaf| !leaf.contains('/'));
    let entries = tel.phases.entries();
    let children: f64 = entries.iter().filter(|e| child(&e.0)).map(|e| e.1).sum();
    assert!((children - run).abs() <= 1e-6, "children {children:.9}s vs run {run:.9}s");
    assert_eq!(tel.round_latency().unwrap().count(), phase(tel, "run/flat").1);
}

#[test]
fn profile_attributes_exactly_the_run_time() {
    let tel = Telemetry::enabled();
    traced_prim_run(&tel, 256);
    assert_exact_attribution(&tel);
    assert_eq!(phase(&tel, "run/gamma").1, phase(&tel, "run/gamma/feed").1);
}

#[test]
fn generic_profile_attributes_exactly_the_run_time() {
    let tel = Telemetry::enabled();
    let (compiled, edb) = prim::prepared(&workload::connected_graph(32, 96, 1000, 42), 0);
    compiled.run_generic_telemetry(&edb, &tel, &mut DeterministicFirst).unwrap();
    assert_exact_attribution(&tel);
    assert_eq!(phase(&tel, "run/gamma").1, phase(&tel, "run/gamma/choose").1);
}
