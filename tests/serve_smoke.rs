//! Real-TCP smoke test for `gbc serve` — the server is bound on an
//! ephemeral port and every interaction goes through `std::net` sockets
//! via the in-tree HTTP client, exactly as an external client would.
//!
//! The contract under test is the PR's acceptance bar:
//!
//! * a program loaded over `POST /load` and evaluated by **concurrent**
//!   `/run` sessions returns results **byte-identical** to `gbc run`
//!   on the same files, with identical pinned semantic counters on
//!   every request;
//! * a `GET /metrics` scrape taken **while runs are in flight** changes
//!   neither results nor counters, and the scrape itself carries the
//!   §13 metric families;
//! * `/stats`, `/journal`, `/programs`, `/healthz` answer, and
//!   malformed requests are a structured 400, not a hang or a crash;
//! * `/load` takes program text only, reads no server-side files, and
//!   decodes a near-cap body in linear time.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gbc_serve::{client, Server, Session};
use gbc_storage::Database;
use gbc_telemetry::Json;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; fixtures live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

/// The text of `programs/prim.dl` followed by `programs/graph_small.dl`.
fn prim_source() -> String {
    let root = repo_root();
    let mut source = String::new();
    for f in ["programs/prim.dl", "programs/graph_small.dl"] {
        source.push_str(&std::fs::read_to_string(root.join(f)).unwrap());
        source.push('\n');
    }
    source
}

/// What `gbc run programs/prim.dl programs/graph_small.dl` prints
/// (minus the trailing newline), plus its counter snapshot — computed
/// in-process through the same layers the CLI uses.
fn expected_prim_run() -> (String, Json) {
    let program = gbc_parser::parse_program(&prim_source()).unwrap();
    let compiled = gbc_core::compile(program).unwrap();
    let tel = gbc_telemetry::Telemetry::enabled();
    let run = compiled.run_telemetry(&Database::new(), &tel).unwrap();
    (run.db.canonical_form(), tel.snapshot().to_json())
}

fn start_server() -> (String, gbc_serve::ServerHandle) {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, server.spawn(4))
}

/// A `POST /load` body carrying `program` inline.
fn load_body(name: &str, program: &str) -> String {
    Json::obj(vec![("name", Json::Str(name.into())), ("program", Json::Str(program.into()))])
        .to_string()
}

fn load_prim(addr: &str) {
    let body = load_body("prim", &prim_source());
    let (status, reply) = client::post_json(addr, "/load", &body).expect("POST /load");
    assert_eq!(status, 200, "load failed: {reply}");
    let json = Json::parse(reply.trim()).unwrap();
    assert_eq!(json.get("greedy_plan"), Some(&Json::Bool(true)));
}

#[test]
fn concurrent_runs_match_gbc_run_byte_for_byte() {
    let (expected_result, expected_counters) = expected_prim_run();
    let (addr, handle) = start_server();
    load_prim(&addr);

    // Four concurrent clients, each issuing two /run requests, with a
    // /metrics scrape racing them from a fifth thread mid-run.
    let results: Vec<(String, Json)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        let (status, reply) =
                            client::post_json(&addr, "/run", "{\"session\": \"prim\"}")
                                .expect("POST /run");
                        assert_eq!(status, 200, "{reply}");
                        let json = Json::parse(reply.trim()).unwrap();
                        out.push((
                            json.get("result").and_then(|r| r.as_str()).unwrap().to_owned(),
                            json.get("counters").unwrap().clone(),
                        ));
                    }
                    out
                })
            })
            .collect();
        let scraper = {
            let addr = addr.clone();
            s.spawn(move || {
                for _ in 0..10 {
                    let (status, text) = client::get(&addr, "/metrics").expect("GET /metrics");
                    assert_eq!(status, 200);
                    assert!(text.contains("# TYPE gbc_runs_total counter"), "{text}");
                }
            })
        };
        scraper.join().unwrap();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });

    assert_eq!(results.len(), 8);
    for (result, counters) in &results {
        assert_eq!(result, &expected_result, "server result differs from `gbc run`");
        let pinned = ["gamma_steps", "heap_pops", "tuples_derived", "flat_rounds"];
        for key in pinned {
            assert_eq!(
                counters.get(key),
                expected_counters.get(key),
                "pinned counter `{key}` drifted under concurrency + mid-run scrape"
            );
        }
    }

    // After the storm: the metrics plane saw every run.
    let (status, text) = client::get(&addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    assert!(text.contains("gbc_runs_total 8\n"), "{text}");
    assert!(text.contains("gbc_http_requests_total{endpoint=\"/run\"} 8\n"));
    assert!(text.contains("gbc_gamma_round_nanoseconds_count"));
    assert!(text.contains("gbc_sessions_loaded 1\n"));
    handle.shutdown();
}

#[test]
fn introspection_endpoints_answer_over_tcp() {
    let (addr, handle) = start_server();
    load_prim(&addr);
    let (status, reply) =
        client::post_json(&addr, "/run", "{\"session\": \"prim\", \"journal\": true}").unwrap();
    assert_eq!(status, 200, "{reply}");

    let (status, body) = client::get(&addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""));

    let (status, body) = client::get(&addr, "/programs").unwrap();
    assert_eq!(status, 200);
    let json = Json::parse(body.trim()).unwrap();
    let programs = json.get("programs").and_then(|p| p.as_arr()).unwrap();
    assert_eq!(programs.len(), 1);
    assert_eq!(programs[0].get("name").and_then(|n| n.as_str()), Some("prim"));
    assert_eq!(programs[0].get("runs").and_then(|r| r.as_u64()), Some(1));

    let (status, body) = client::get(&addr, "/stats?session=prim").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(body.trim()).unwrap();
    assert_eq!(
        stats.get("schema_version").and_then(|v| v.as_u64()),
        Some(gbc_telemetry::STATS_SCHEMA_VERSION)
    );
    assert!(stats.get("counters").is_some() && stats.get("latency").is_some());
    assert!(stats.get("dictionary").is_some() && stats.get("journal").is_some());

    let (status, jsonl) = client::get(&addr, "/journal?session=prim").unwrap();
    assert_eq!(status, 200);
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "journaled run produced no events");
    for line in &lines {
        Json::parse(line).unwrap_or_else(|e| panic!("journal line not JSON ({e}): {line}"));
    }
    assert!(lines.iter().any(|l| l.contains("\"type\":\"stage_commit\"")), "{jsonl:?}");
    handle.shutdown();
}

#[test]
fn error_paths_are_structured_not_fatal() {
    let (addr, handle) = start_server();

    let (status, body) = client::post_json(&addr, "/run", "{\"session\": \"ghost\"}").unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""));

    let (status, body) = client::post_json(&addr, "/run", "{not json").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""));

    // The depth-limited JSON parser guards the request body path.
    let bomb = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let (status, body) = client::post_json(&addr, "/run", &bomb).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("nesting deeper than"), "{body}");

    // An evaluation runs on one thread: `threads` is an unknown field.
    load_prim(&addr);
    let (status, body) =
        client::post_json(&addr, "/run", "{\"session\": \"prim\", \"threads\": 2}").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown field `threads`"), "{body}");

    let (status, _) = client::get(&addr, "/nowhere").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "DELETE", "/metrics", None).unwrap();
    assert_eq!(status, 405);

    // A raw non-HTTP payload answers 400 (the server survives garbage).
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // And the server still answers normally afterwards.
    let (status, _) = client::get(&addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn load_rejects_bad_programs_with_rendered_diagnostics() {
    let (addr, handle) = start_server();
    let (status, body) =
        client::post_json(&addr, "/load", "{\"name\": \"broken\", \"program\": \"p(X) <- q(Y).\"}")
            .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");

    let session = Session::new(
        "ok",
        "<inline>",
        gbc_core::compile(gbc_parser::parse_program("p(1).").unwrap()).unwrap(),
        Database::new(),
    );
    drop(session); // Session construction stays available to embedders.
    handle.shutdown();
}

#[test]
fn load_reads_no_server_side_files() {
    let (addr, handle) = start_server();
    let (status, body) =
        client::post_json(&addr, "/load", "{\"name\": \"leak\", \"files\": [\"/etc/hostname\"]}")
            .unwrap();
    assert_eq!(status, 400, "{body}");
    // The reply is exactly the unknown-field envelope: nothing read
    // from the named file can ride along.
    let json = Json::parse(body.trim()).unwrap();
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("unknown field `files` (expected one of: name, program)")
    );
    let (_, programs) = client::get(&addr, "/programs").unwrap();
    assert!(!programs.contains("leak"), "{programs}");
    handle.shutdown();
}

#[test]
fn near_cap_load_body_decodes_in_linear_time() {
    // About 900 KB of comments, below the 1 MiB body cap. Decoding the
    // JSON string must stay linear in its length: a per-character
    // rescan of the rest of the body takes tens of seconds here.
    let line = "% a comment line that the lexer skips, padded to sixty bytes\n";
    let program = line.repeat(900_000 / line.len());
    let (addr, handle) = start_server();
    let t0 = Instant::now();
    let (status, body) =
        client::post_json(&addr, "/load", &load_body("comments", &program)).unwrap();
    let took = t0.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(took < Duration::from_secs(1), "a 900 KB /load took {took:?}");
    handle.shutdown();
}
