//! Structured event journal sinks.
//!
//! [`crate::trace::TraceEvent`] carries the typed payload; this module
//! provides the sinks that keep the structure instead of flattening to
//! stderr strings:
//!
//! - [`JournalBuffer`] — in-memory list of JSON events, exportable as a
//!   JSON array (embedded in `--stats-json`) or as JSON-lines
//!   (`--journal-json`).
//! - [`ChromeTrace`] — Chrome trace-event JSON (the `{"traceEvents":
//!   [...]}` object format), loadable in Perfetto or `chrome://tracing`
//!   via `--trace-json`. Events are recorded as *instant* events
//!   (`"ph": "i"`) with microsecond timestamps relative to sink
//!   creation; the typed payload rides in `args`. An evaluation runs
//!   on one thread, so every event sits on one lane (`tid` 1).
//! - [`TeeTrace`] — fans one event stream out to several sinks so the
//!   stderr rendering and the structured captures can coexist.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::trace::{TraceEvent, TraceSink};

/// Collects events as structured JSON objects, in order.
#[derive(Debug, Default)]
pub struct JournalBuffer {
    events: Mutex<Vec<Json>>,
}

impl JournalBuffer {
    /// Empty journal.
    pub fn new() -> JournalBuffer {
        JournalBuffer::default()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("journal lock").len()
    }

    /// Has nothing been captured?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The captured events, as JSON values.
    pub fn events(&self) -> Vec<Json> {
        self.events.lock().expect("journal lock").clone()
    }

    /// The journal as one JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.events())
    }

    /// The journal as JSON-lines: one compact object per line, with a
    /// trailing newline when non-empty.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for JournalBuffer {
    fn event(&self, ev: &TraceEvent) {
        self.events.lock().expect("journal lock").push(ev.to_json());
    }
}

/// Records events in the Chrome trace-event JSON format.
#[derive(Debug)]
pub struct ChromeTrace {
    epoch: Instant,
    events: Mutex<Vec<Json>>,
}

impl Default for ChromeTrace {
    fn default() -> ChromeTrace {
        ChromeTrace::new()
    }
}

impl ChromeTrace {
    /// Empty trace; timestamps count from this call.
    pub fn new() -> ChromeTrace {
        ChromeTrace { epoch: Instant::now(), events: Mutex::new(Vec::new()) }
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("chrome trace lock").len()
    }

    /// Has nothing been captured?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full trace file contents: the Chrome trace-event object
    /// format (`traceEvents` array plus a display hint).
    pub fn to_json(&self) -> Json {
        let events = self.events.lock().expect("chrome trace lock").clone();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_owned())),
        ])
    }
}

impl TraceSink for ChromeTrace {
    fn event(&self, ev: &TraceEvent) {
        let ts = self.epoch.elapsed().as_micros() as u64;
        let entry = Json::obj(vec![
            ("name", Json::Str(ev.kind().to_owned())),
            ("ph", Json::Str("i".to_owned())),
            ("ts", Json::UInt(ts)),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(1)),
            ("s", Json::Str("t".to_owned())),
            ("args", ev.to_json()),
        ]);
        self.events.lock().expect("chrome trace lock").push(entry);
    }
}

/// Forwards every event to each wrapped sink, in order.
pub struct TeeTrace {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeTrace {
    /// Tee over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> TeeTrace {
        TeeTrace { sinks }
    }
}

impl std::fmt::Debug for TeeTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeTrace").field("sinks", &self.sinks.len()).finish()
    }
}

impl TraceSink for TeeTrace {
    fn event(&self, ev: &TraceEvent) {
        for sink in &self.sinks {
            sink.event(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DiscardReason;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::FlatRound { round: 1, new_facts: 4 },
            TraceEvent::Discard {
                pred: "prm".into(),
                reason: DiscardReason::DiffChoice,
                row: "(1, 2)".into(),
            },
            TraceEvent::ChoiceAudit { rule: 0, pred: "prm".into(), considered: 3, rejected: 1 },
        ]
    }

    #[test]
    fn journal_keeps_structured_events_in_order() {
        let j = JournalBuffer::new();
        for ev in sample_events() {
            j.event(&ev);
        }
        assert_eq!(j.len(), 3);
        let evs = j.events();
        assert_eq!(evs[0].to_string(), r#"{"type":"flat_round","round":1,"new_facts":4}"#);
        assert!(evs[2].to_string().contains("\"type\":\"choice_audit\""));
    }

    #[test]
    fn jsonl_is_one_compact_object_per_line() {
        let j = JournalBuffer::new();
        for ev in sample_events() {
            j.event(&ev);
        }
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        }
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_wraps_instant_events() {
        let c = ChromeTrace::new();
        for ev in sample_events() {
            c.event(&ev);
        }
        let Json::Obj(fields) = c.to_json() else { panic!("trace file must be an object") };
        assert_eq!(fields[0].0, "traceEvents");
        let Json::Arr(events) = &fields[0].1 else { panic!("traceEvents must be an array") };
        assert_eq!(events.len(), 3);
        for ev in events {
            let s = ev.to_string();
            assert!(s.contains("\"ph\":\"i\""), "not an instant event: {s}");
            assert!(s.contains("\"ts\":"), "missing timestamp: {s}");
            assert!(s.contains("\"args\":{\"type\":"), "missing typed args: {s}");
        }
    }

    #[test]
    fn serial_traces_carry_no_lane_metadata() {
        let c = ChromeTrace::new();
        for ev in sample_events() {
            c.event(&ev);
        }
        let file = c.to_json();
        let Some(Json::Arr(events)) = file.get("traceEvents") else { panic!("traceEvents") };
        assert_eq!(events.len(), 3, "no metadata events");
        for ev in events {
            assert_eq!(ev.get("tid"), Some(&Json::UInt(1)));
            assert_eq!(ev.get("ph"), Some(&Json::Str("i".into())));
        }
    }

    #[test]
    fn tee_fans_out_to_every_sink() {
        let a = Arc::new(JournalBuffer::new());
        let b = Arc::new(JournalBuffer::new());
        let tee = TeeTrace::new(vec![a.clone(), b.clone()]);
        tee.event(&TraceEvent::FlatRound { round: 1, new_facts: 2 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
