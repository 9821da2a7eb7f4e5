//! # gbc-serve — the long-running Greedy-by-Choice evaluation service
//!
//! Load `.dl` programs **once** into shared state
//! (compiled plans + interned EDBs behind `Arc`), then answer
//! evaluation requests from concurrent clients over plain HTTP/JSON —
//! built entirely on `std::net`, keeping the workspace's
//! zero-registry-dependency policy intact.
//!
//! The crate splits into:
//!
//! * [`http`] — a minimal HTTP/1.1 request reader / response writer
//!   with hard limits on untrusted input;
//! * [`state`] — the session table ([`state::Session`] = compiled
//!   program + EDB) and the process-lifetime metrics plane
//!   ([`gbc_telemetry::MetricsRegistry`]);
//! * [`router`] — endpoint dispatch (`/healthz`, `/metrics`, `/stats`,
//!   `/journal`, `/programs`, `/load`, `/run`);
//! * [`client`] — a tiny blocking HTTP client over `TcpStream`, used by
//!   the smoke tests and CI (no curl dependency).
//!
//! Concurrency model: one acceptor thread, a fixed pool of request
//! workers fed over an `mpsc` channel, one request per connection
//! (`Connection: close`). Each evaluation runs on the worker that
//! accepted it (DESIGN.md §9), so concurrent requests leave results and
//! semantic counters byte-identical to a lone `gbc run` — the serve
//! smoke test and `ci-serve` hold the server to that.
//!
//! ```no_run
//! let server = gbc_serve::Server::bind("127.0.0.1:0").unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn(4);
//! let (status, body) =
//!     gbc_serve::client::get(&addr.to_string(), "/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"ok\""));
//! handle.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod router;
pub mod state;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use state::{ServerState, Session};

/// How long a worker waits for a slow peer before giving up on the
/// read or write half of a connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound-but-not-yet-serving server. Binding is separate from
/// serving so callers can learn the ephemeral port (`local_addr`) and
/// pre-install sessions before the first request can arrive.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7171`, or port `0` for an
    /// OS-assigned ephemeral port) with fresh state.
    pub fn bind(addr: &str) -> io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)?, state: Arc::new(ServerState::new()) })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The shared state, for pre-installing sessions (the CLI preloads
    /// its `.dl` files this way).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Serve on a background acceptor thread with `workers` request
    /// workers; returns a handle that can stop the server.
    pub fn spawn(self, workers: usize) -> ServerHandle {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || self.accept_loop(workers, &stop))
        };
        ServerHandle { addr, state, stop, acceptor }
    }

    /// Serve on the calling thread until `stop` is set (never, for the
    /// CLI's foreground mode — ^C is the shutdown story there).
    pub fn serve(self, workers: usize) -> io::Result<()> {
        let stop = AtomicBool::new(false);
        self.accept_loop(workers, &stop)
    }

    fn accept_loop(self, workers: usize, stop: &AtomicBool) -> io::Result<()> {
        let workers = workers.max(1);
        self.state.metrics.pool_workers.set(workers as i64);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&self.state);
                scope.spawn(move || {
                    loop {
                        // Hold the receiver lock only while waiting, so
                        // idle workers queue up fairly.
                        let stream = match rx.lock().expect("worker queue").recv() {
                            Ok(s) => s,
                            Err(_) => break, // acceptor gone, drain done
                        };
                        serve_connection(&state, stream, router::dispatch);
                    }
                });
            }
            for conn in self.listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    // A failed accept (peer reset mid-handshake) is the
                    // peer's problem, not a server fault.
                    Err(_) => continue,
                }
            }
            drop(tx); // close the queue: workers drain and exit
            Ok(())
        })
    }
}

/// Answer one connection on a worker, counted busy meanwhile: read a
/// request, `dispatch` it, write the response, close. Unparseable
/// requests answer 400; an empty connection (probe) just closes. A
/// panic in `dispatch` answers 500 and counts in
/// `gbc_worker_panics_total`, and the worker goes on to its next
/// connection.
fn serve_connection(
    state: &ServerState,
    mut stream: TcpStream,
    dispatch: impl FnOnce(&ServerState, &http::Request) -> http::Response,
) {
    state.metrics.pool_busy.add(1);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match http::read_request(&mut stream) {
        Ok(None) => None,
        // The state a panicking dispatch leaves behind is the shared
        // session table and metrics, each behind its own lock or atomic.
        Ok(Some(req)) => Some(
            panic::catch_unwind(AssertUnwindSafe(|| dispatch(state, &req))).unwrap_or_else(|_| {
                state.metrics.worker_panics.inc();
                state.metrics.errors.inc();
                http::Response::error(500, "internal error: the request's handler panicked")
            }),
        ),
        Err(e) => {
            state.metrics.errors.inc();
            Some(http::Response::error(400, &format!("malformed request: {e}")))
        }
    };
    if let Some(response) = response {
        let _ = response.write(&mut stream);
    }
    state.metrics.pool_busy.add(-1);
}

/// A running server: address, shared state, and the stop switch.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server answers on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (sessions + metrics), for in-process callers.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stop accepting, drain in-flight requests, join the acceptor.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; poke it awake with a bare
        // connection (which it will see after reading the stop flag).
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_storage::Database;

    fn compiled(src: &str) -> gbc_core::Compiled {
        gbc_core::compile(gbc_parser::parse_program(src).unwrap()).unwrap()
    }

    fn test_server() -> (SocketAddr, ServerHandle) {
        let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
        server.state().install(Session::new(
            "tiny",
            "<inline>",
            compiled("sp(nil, 0, 0). sp(X, C, I) <- next(I), p(X, C), least(C, I). p(a, 10). p(b, 30). p(c, 20)."),
            Database::new(),
        ));
        let addr = server.local_addr();
        (addr, server.spawn(2))
    }

    #[test]
    fn healthz_programs_and_shutdown() {
        let (addr, handle) = test_server();
        let addr = addr.to_string();
        let (status, body) = client::get(&addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        let (status, body) = client::get(&addr, "/programs").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"name\": \"tiny\""));
        handle.shutdown();
        assert!(client::get(&addr, "/healthz").is_err(), "server is down after shutdown");
    }

    #[test]
    fn run_returns_canonical_results_and_counters() {
        let (addr, handle) = test_server();
        let addr = addr.to_string();
        let (status, body) = client::post_json(&addr, "/run", "{\"session\": \"tiny\"}").unwrap();
        assert_eq!(status, 200, "body: {body}");
        let json = gbc_telemetry::Json::parse(body.trim()).unwrap();
        let result = json.get("result").and_then(|r| r.as_str()).unwrap();
        assert!(result.contains("sp(a,10,1)"), "greedy ranking present: {result}");
        assert!(json.get("counters").and_then(|c| c.get("gamma_steps")).is_some());
        // Unknown session and malformed JSON take the error paths.
        let (status, _) = client::post_json(&addr, "/run", "{\"session\": \"no\"}").unwrap();
        assert_eq!(status, 404);
        let (status, body) = client::post_json(&addr, "/run", "{nope").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("\"error\""));
        handle.shutdown();
    }

    #[test]
    fn load_then_run_round_trip() {
        let (addr, handle) = test_server();
        let addr = addr.to_string();
        let program = "q(X) <- e(X). e(1). e(2).";
        let body = format!("{{\"name\": \"edges\", \"program\": \"{program}\"}}");
        let (status, reply) = client::post_json(&addr, "/load", &body).unwrap();
        assert_eq!(status, 200, "load failed: {reply}");
        let (status, reply) = client::post_json(&addr, "/run", "{\"session\": \"edges\"}").unwrap();
        assert_eq!(status, 200);
        let json = gbc_telemetry::Json::parse(reply.trim()).unwrap();
        let result = json.get("result").and_then(|r| r.as_str()).unwrap();
        assert!(result.contains("q(1)") && result.contains("q(2)"), "{result}");
        // A bad program is a 400 with rendered diagnostics, not a crash.
        let (status, reply) =
            client::post_json(&addr, "/load", "{\"name\": \"bad\", \"program\": \"p(X) <- q(.\"}")
                .unwrap();
        assert_eq!(status, 400);
        assert!(reply.contains("\"error\""));
        handle.shutdown();
    }

    #[test]
    fn a_panicking_dispatch_answers_500_and_keeps_the_worker() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap().to_string();
        let state = ServerState::new();
        let metrics = &state.metrics;
        std::thread::scope(|scope| {
            let client = scope.spawn(|| client::post_json(&addr, "/run", "{}"));
            let (stream, _) = listener.accept().unwrap();
            serve_connection(&state, stream, |_, _| panic!("dispatch blew up"));
            let (status, body) = client.join().unwrap().unwrap();
            assert_eq!(status, 500);
            assert!(body.contains("panicked"), "{body}");
        });
        assert_eq!(metrics.worker_panics.get(), 1);
        assert_eq!(metrics.errors.get(), 1);
        assert_eq!(metrics.pool_busy.get(), 0, "the busy gauge is restored");
        // The same worker answers its next connection.
        std::thread::scope(|scope| {
            let client = scope.spawn(|| client::get(&addr, "/healthz"));
            let (stream, _) = listener.accept().unwrap();
            serve_connection(&state, stream, router::dispatch);
            assert_eq!(client.join().unwrap().unwrap().0, 200);
        });
        assert_eq!(metrics.worker_panics.get(), 1);
        assert_eq!(metrics.pool_busy.get(), 0);
        assert!(metrics.registry.render_prometheus().contains("gbc_worker_panics_total 1"));
    }
}
