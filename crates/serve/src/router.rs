//! Endpoint dispatch: one parsed [`Request`] in, one [`Response`] out.
//!
//! | Method | Path        | Body / query                 | Answer |
//! |--------|-------------|------------------------------|--------|
//! | GET    | `/healthz`  | —                            | liveness JSON |
//! | GET    | `/metrics`  | —                            | Prometheus text |
//! | GET    | `/stats`    | `?session=NAME` (optional)   | schema-v4 stats JSON |
//! | GET    | `/journal`  | `?session=NAME`              | choice-audit JSON-lines |
//! | GET    | `/programs` | —                            | loaded-session table |
//! | POST   | `/load`     | `{"name", "program"}`        | compile summary |
//! | POST   | `/run`      | `{"session", "journal"?}`    | canonical result + counters |
//!
//! Every handler is synchronous and runs on the worker thread that
//! accepted the connection; `/run` is the only one that does real work.
//! Malformed input — unparseable HTTP, bad JSON, unknown fields —
//! answers 400 with an `{"error": ...}` envelope; unknown sessions 404;
//! evaluation failures 500.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use gbc_ast::diag::{error_count, render_all};
use gbc_ast::SourceMap;
use gbc_core::{compile, Compiled};
use gbc_storage::{dict_stats, Database};
use gbc_telemetry::{JournalBuffer, Json, Telemetry, TraceSink};

use crate::http::{Request, Response};
use crate::state::{ServerState, Session};

/// Route one request. Infallible by construction — every failure mode
/// maps to an error response.
pub fn dispatch(state: &ServerState, req: &Request) -> Response {
    let t0 = Instant::now();
    state.metrics.requests_for(&req.path).inc();
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/stats") => stats(state, req),
        ("GET", "/journal") => journal(state, req),
        ("GET", "/programs") => programs(state),
        ("POST", "/load") => load(state, req),
        ("POST", "/run") => run(state, req),
        (_, "/healthz" | "/metrics" | "/stats" | "/journal" | "/programs") => {
            Response::error(405, &format!("{} does not accept {}", req.path, req.method))
        }
        (_, "/load" | "/run") => {
            Response::error(405, &format!("{} requires POST, not {}", req.path, req.method))
        }
        _ => Response::error(404, &format!("no such endpoint `{}`", req.path)),
    };
    if response.status >= 300 {
        state.metrics.errors.inc();
    }
    state.metrics.latency_for(&req.path).record(t0.elapsed().as_nanos() as u64);
    response
}

fn healthz(state: &ServerState) -> Response {
    let body = Json::obj(vec![
        ("status", Json::Str("ok".into())),
        ("sessions", Json::UInt(state.sessions().len() as u64)),
        ("uptime_secs", Json::UInt(state.started.elapsed().as_secs())),
    ]);
    Response::json(200, format!("{body}\n"))
}

fn metrics(state: &ServerState) -> Response {
    // The dictionary gauge tracks a process-global quantity; refresh it
    // at scrape time rather than guessing when interning happens.
    state.metrics.dict_entries.set(dict_stats().dict_entries as i64);
    Response::text(200, "text/plain; version=0.0.4", state.metrics.registry.render_prometheus())
}

fn stats(state: &ServerState, req: &Request) -> Response {
    match req.query("session") {
        Some(name) => match state.session(name) {
            None => Response::error(404, &format!("no session `{name}`")),
            Some(s) => match s.last_stats.read().expect("stats cell").clone() {
                None => Response::error(404, &format!("session `{name}` has not run yet")),
                Some(json) => Response::json(200, format!("{}\n", json.pretty())),
            },
        },
        None => {
            let sessions = state
                .sessions()
                .iter()
                .map(|s| {
                    let stats =
                        s.last_stats.read().expect("stats cell").clone().unwrap_or(Json::Null);
                    (s.name.clone(), stats)
                })
                .collect();
            let body = Json::Obj(vec![
                ("schema_version".into(), Json::UInt(gbc_telemetry::STATS_SCHEMA_VERSION)),
                ("sessions".into(), Json::Obj(sessions)),
            ]);
            Response::json(200, format!("{}\n", body.pretty()))
        }
    }
}

fn journal(state: &ServerState, req: &Request) -> Response {
    let Some(name) = req.query("session") else {
        return Response::error(400, "GET /journal requires ?session=NAME");
    };
    let Some(session) = state.session(name) else {
        return Response::error(404, &format!("no session `{name}`"));
    };
    let buffer = session.journal.read().expect("journal cell").clone();
    match buffer {
        None => Response::error(
            404,
            &format!("session `{name}` has no journaled run (POST /run with \"journal\": true)"),
        ),
        // A run may still be writing to this buffer; to_jsonl serves the
        // events committed so far — that is the "live" in live journal.
        Some(journal) => Response::text(200, "application/jsonl", journal.to_jsonl()),
    }
}

fn programs(state: &ServerState) -> Response {
    let rows = state
        .sessions()
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("source", Json::Str(s.source.clone())),
                ("rules", Json::UInt(s.compiled.program().rules.len() as u64)),
                ("class", Json::Str(s.compiled.class().summary())),
                ("greedy_plan", Json::Bool(s.compiled.has_greedy_plan())),
                ("edb_facts", Json::UInt(s.edb.total_facts() as u64)),
                ("runs", Json::UInt(s.run_count())),
            ])
        })
        .collect();
    let body = Json::obj(vec![("programs", Json::Arr(rows))]);
    Response::json(200, format!("{}\n", body.pretty()))
}

/// Parse the body as a JSON object and reject unknown fields — catching
/// a misspelled `"sesion"` at the door beats silently running defaults.
fn body_object(req: &Request, allowed: &[&str]) -> Result<Json, Response> {
    let json =
        Json::parse(&req.body).map_err(|e| Response::error(400, &format!("request body: {e}")))?;
    let Json::Obj(fields) = &json else {
        return Err(Response::error(400, "request body must be a JSON object"));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(Response::error(
                400,
                &format!("unknown field `{key}` (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(json)
}

fn load(state: &ServerState, req: &Request) -> Response {
    let body = match body_object(req, &["name", "program"]) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(name) = body.get("name").and_then(Json::as_str) else {
        return Response::error(400, "POST /load requires a string `name`");
    };
    let Some(text) = body.get("program").and_then(Json::as_str) else {
        return Response::error(400, "POST /load requires a string `program`");
    };
    let source = "<inline>";
    let mut sm = SourceMap::new();
    sm.add_file(source, text);
    let compiled = match compile_source(&sm) {
        Ok(c) => c,
        Err(e) => return Response::error(400, &e),
    };
    let summary = Json::obj(vec![
        ("loaded", Json::Str(name.to_owned())),
        ("rules", Json::UInt(compiled.program().rules.len() as u64)),
        ("class", Json::Str(compiled.class().summary())),
        ("greedy_plan", Json::Bool(compiled.has_greedy_plan())),
    ]);
    state.install(Session::new(name, source, compiled, Database::new()));
    Response::json(200, format!("{}\n", summary.pretty()))
}

/// Parse + validate + compile the sources in `sm`, rendering
/// diagnostics into the error string exactly like `gbc run` does.
pub fn compile_source(sm: &SourceMap) -> Result<Compiled, String> {
    let program = gbc_parser::parse_program(&sm.source())
        .map_err(|e| render_failure(&[e.to_diagnostic()], sm))?;
    let diags = program.diagnostics();
    if error_count(&diags) > 0 {
        return Err(render_failure(&diags, sm));
    }
    compile(program).map_err(|e| e.to_string())
}

fn render_failure(diags: &[gbc_ast::Diagnostic], sm: &SourceMap) -> String {
    format!("invalid program\n{}{} error(s) emitted", render_all(diags, sm), error_count(diags))
}

fn run(state: &ServerState, req: &Request) -> Response {
    let body = match body_object(req, &["session", "journal"]) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(name) = body.get("session").and_then(Json::as_str) else {
        return Response::error(400, "POST /run requires a string `session`");
    };
    let journal = match body.get("journal") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Response::error(400, "`journal` must be a boolean"),
    };
    let Some(session) = state.session(name) else {
        return Response::error(404, &format!("no session `{name}`"));
    };

    let dict_base = dict_stats();
    let mut tel = Telemetry::enabled().with_round_latency();
    let buffer = if journal {
        let b = Arc::new(JournalBuffer::new());
        // Publish the buffer *before* the run so `GET /journal` can
        // stream a run in flight.
        *session.journal.write().expect("journal cell") = Some(Arc::clone(&b));
        tel = tel.with_trace(Arc::clone(&b) as Arc<dyn TraceSink>);
        Some(b)
    } else {
        None
    };

    // The greedy (Section 6) executor when a plan exists, the generic
    // choice fixpoint otherwise — the same split `gbc run` makes, so
    // results and counters are byte-identical to the CLI.
    let run = match session.compiled.run_telemetry(&session.edb, &tel) {
        Ok(run) => run,
        Err(e) => return Response::error(500, &format!("evaluation failed: {e}")),
    };

    // Feed the metrics plane: per-γ-round latencies merge into the
    // process-lifetime histogram; the run counter ticks once.
    if let Some(rounds) = tel.round_latency() {
        state.metrics.gamma_rounds.merge(&rounds);
    }
    state.metrics.runs.inc();
    session.runs.fetch_add(1, Ordering::Relaxed);

    // Assemble the schema-v4 stats report — same shape `gbc run
    // --stats-json` writes (counters + phases + latency + dictionary,
    // plus the journal when recorded) — and pin it to the session.
    let mut stats = tel.to_json();
    if let (Some(hist), Json::Obj(fields)) = (tel.round_latency(), &mut stats) {
        fields.push(("latency".to_owned(), Json::obj(vec![("rounds", hist.to_json())])));
    }
    if let Json::Obj(fields) = &mut stats {
        let d = dict_stats().since(&dict_base);
        fields.push((
            "dictionary".to_owned(),
            Json::obj(vec![
                ("dict_entries", Json::UInt(d.dict_entries)),
                ("encode_hits", Json::UInt(d.encode_hits)),
                ("decode_calls", Json::UInt(d.decode_calls)),
            ]),
        ));
    }
    if let (Some(journal), Json::Obj(fields)) = (&buffer, &mut stats) {
        fields.push(("journal".to_owned(), journal.to_json()));
    }
    *session.last_stats.write().expect("stats cell") = Some(stats);

    let body = Json::obj(vec![
        ("session", Json::Str(session.name.clone())),
        ("result", Json::Str(run.db.canonical_form())),
        ("gamma_steps", Json::UInt(run.stats.gamma_steps)),
        ("counters", tel.snapshot().to_json()),
    ]);
    Response::json(200, format!("{body}\n"))
}
