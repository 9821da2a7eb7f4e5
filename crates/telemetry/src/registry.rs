//! A concurrent, named metrics registry for long-running processes —
//! the `gbc serve` observability plane.
//!
//! [`crate::metrics::Metrics`] is a *per-run* counter bundle: one
//! instance per evaluation, snapshotted when the run ends, and part of
//! the determinism contract (DESIGN.md §9) — its values must be
//! byte-identical from run to run, however many requests run beside
//! it. A server needs the opposite
//! shape: *process-lifetime* series that accumulate across thousands of
//! runs, are scraped mid-flight, and may carry timing (which the §9
//! contract forbids in run counters). [`MetricsRegistry`] is that
//! second plane, kept deliberately separate so scraping it can never
//! perturb a run's pinned counters:
//!
//! * [`Counter`]s and [`Gauge`]s are relaxed
//!   atomics — increments from request workers never take a lock;
//! * latency series are **shard-merged histograms** ([`SharedHist`]):
//!   each recording thread hashes to one of a fixed set of
//!   `Mutex<Histogram>` shards, so concurrent requests contend only
//!   rarely, and a scrape merges the shards into one exact aggregate
//!   ([`Histogram::merge`] is exact on a shared bucket grid);
//! * everything is registered by name (get-or-create, idempotent) and
//!   rendered in the Prometheus text exposition format by
//!   [`MetricsRegistry::render_prometheus`].
//!
//! Metric names follow the Prometheus conventions: `snake_case`, a
//! `gbc_` namespace prefix, unit suffixes (`_total` for counters,
//! `_seconds`/`_nanoseconds` spelled out). Labels are baked into the
//! registration key (`name{label="v"}`) — the cardinality is tiny
//! (endpoints, tenants), so a flat map beats a label tree.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::hist::Histogram;
use crate::json::Json;
use crate::metrics::Counter;

/// Number of histogram shards. Recording threads hash to a shard, so
/// this bounds worst-case lock contention; 8 covers the request
/// concurrency of `gbc serve`'s worker threads while keeping
/// scrape-time merging trivial.
const HIST_SHARDS: usize = 8;

/// A settable instantaneous value (pool occupancy, sessions loaded,
/// dictionary size). Unlike [`Counter`] it can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sharded, mergeable histogram: concurrent writers spread over
/// a fixed number of mutex-protected shards; readers merge the shards
/// into one exact [`Histogram`] snapshot.
#[derive(Debug)]
pub struct SharedHist {
    shards: Vec<Mutex<Histogram>>,
}

impl Default for SharedHist {
    fn default() -> SharedHist {
        SharedHist { shards: (0..HIST_SHARDS).map(|_| Mutex::new(Histogram::default())).collect() }
    }
}

impl SharedHist {
    /// Record one value, taking only the recording thread's shard lock.
    pub fn record(&self, value: u64) {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let shard = (h.finish() as usize) % self.shards.len();
        self.shards[shard].lock().expect("hist shard").record(value);
    }

    /// Merge one whole histogram in (e.g. a finished run's per-γ-round
    /// latency histogram). Lands in shard 0; merge is exact either way.
    pub fn merge(&self, other: &Histogram) {
        self.shards[0].lock().expect("hist shard").merge(other);
    }

    /// The shard-merged aggregate. Exact: all shards share the default
    /// bucket grid, so this equals one histogram having recorded every
    /// value.
    pub fn snapshot(&self) -> Histogram {
        let mut all = Histogram::default();
        for shard in &self.shards {
            all.merge(&shard.lock().expect("hist shard"));
        }
        all
    }
}

/// One registered metric family, in registration order.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<SharedHist>),
}

/// The process-lifetime metrics plane: named counters, gauges, and
/// sharded histograms, renderable as Prometheus text.
///
/// Registration is get-or-create and idempotent; the hot path
/// (increment / record on an already-held `Arc`) never touches the
/// registry lock. Scraping takes the read lock plus each histogram's
/// shard locks one at a time — never any lock a request writer holds
/// for more than one bucket increment.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: RwLock<Vec<(String, String, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        pick: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Metric),
    ) -> Arc<T> {
        if let Some(found) = self
            .metrics
            .read()
            .expect("registry lock")
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, _, m)| pick(m))
        {
            return found;
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        // Double-checked: another thread may have registered between
        // the read unlock and the write lock.
        if let Some(found) =
            metrics.iter().find(|(n, _, _)| n == name).and_then(|(_, _, m)| pick(m))
        {
            return found;
        }
        assert!(
            !metrics.iter().any(|(n, _, _)| n == name),
            "metric `{name}` already registered with a different type"
        );
        let (handle, metric) = make();
        metrics.push((name.to_owned(), help.to_owned(), metric));
        handle
    }

    /// Get or register a counter.
    ///
    /// # Panics
    /// When `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            |m| if let Metric::Counter(c) = m { Some(Arc::clone(c)) } else { None },
            || {
                let c = Arc::new(Counter::default());
                (Arc::clone(&c), Metric::Counter(c))
            },
        )
    }

    /// Get or register a gauge.
    ///
    /// # Panics
    /// When `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            |m| if let Metric::Gauge(g) = m { Some(Arc::clone(g)) } else { None },
            || {
                let g = Arc::new(Gauge::default());
                (Arc::clone(&g), Metric::Gauge(g))
            },
        )
    }

    /// Get or register a sharded histogram.
    ///
    /// # Panics
    /// When `name` is already registered as a different metric type.
    pub fn hist(&self, name: &str, help: &str) -> Arc<SharedHist> {
        self.get_or_insert(
            name,
            help,
            |m| if let Metric::Hist(h) = m { Some(Arc::clone(h)) } else { None },
            || {
                let h = Arc::new(SharedHist::default());
                (Arc::clone(&h), Metric::Hist(h))
            },
        )
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format, in registration order. Histograms render as summaries:
    /// `{quantile="..."}` series plus `_sum` and `_count`, which is the
    /// scrape-side convention for client-computed quantiles.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, metric) in self.metrics.read().expect("registry lock").iter() {
            // A labelled key (`name{l="v"}`) shares the family metadata
            // of its base name; emit HELP/TYPE against the base.
            let base = name.split('{').next().unwrap_or(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} counter\n"));
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} gauge\n"));
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Metric::Hist(h) => {
                    let snap = h.snapshot();
                    out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} summary\n"));
                    for (q, v) in [
                        ("0.5", snap.p50()),
                        ("0.9", snap.p90()),
                        ("0.99", snap.p99()),
                        ("0.999", snap.p999()),
                    ] {
                        out.push_str(&format!("{base}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{base}_sum {}\n", snap.sum()));
                    out.push_str(&format!("{base}_count {}\n", snap.count()));
                }
            }
        }
        out
    }

    /// The registry as one JSON object (`name -> value`), for the
    /// machine-readable side of the introspection plane. Histograms
    /// render through [`Histogram::to_json`].
    pub fn to_json(&self) -> Json {
        let fields = self
            .metrics
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, _, metric)| {
                let value = match metric {
                    Metric::Counter(c) => Json::UInt(c.get()),
                    Metric::Gauge(g) => Json::Int(g.get()),
                    Metric::Hist(h) => h.snapshot().to_json(),
                };
                (name.clone(), value)
            })
            .collect();
        Json::Obj(fields)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.metrics.read().expect("registry lock");
        f.debug_struct("MetricsRegistry").field("metrics", &metrics.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shares_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("gbc_requests_total", "requests");
        let b = reg.counter("gbc_requests_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit the same counter");
        let g = reg.gauge("gbc_sessions", "sessions");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("gbc_sessions", "sessions").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn name_collisions_across_types_panic() {
        let reg = MetricsRegistry::new();
        reg.counter("gbc_thing", "a counter");
        reg.gauge("gbc_thing", "now a gauge");
    }

    #[test]
    fn sharded_histogram_snapshot_merges_every_shard() {
        let reg = MetricsRegistry::new();
        let h = reg.hist("gbc_latency_ns", "latency");
        // Record from several threads so multiple shards are hit.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..100u64 {
                        h.record(1000 * t + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 400, "no sample may be lost to sharding");
        assert!(snap.max() >= 3000);
    }

    #[test]
    fn merge_folds_a_whole_histogram_in() {
        let reg = MetricsRegistry::new();
        let h = reg.hist("gbc_rounds_ns", "rounds");
        let mut run = Histogram::default();
        run.record(10);
        run.record(20);
        h.merge(&run);
        h.merge(&run);
        assert_eq!(h.snapshot().count(), 4);
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_series() {
        let reg = MetricsRegistry::new();
        reg.counter("gbc_http_requests_total{endpoint=\"/run\"}", "HTTP requests").add(7);
        reg.gauge("gbc_pool_workers", "worker threads").set(4);
        let h = reg.hist("gbc_request_nanoseconds", "request latency");
        h.record(1000);
        h.record(2000);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP gbc_http_requests_total HTTP requests\n"));
        assert!(text.contains("# TYPE gbc_http_requests_total counter\n"));
        assert!(text.contains("gbc_http_requests_total{endpoint=\"/run\"} 7\n"));
        assert!(text.contains("# TYPE gbc_pool_workers gauge\n"));
        assert!(text.contains("gbc_pool_workers 4\n"));
        assert!(text.contains("# TYPE gbc_request_nanoseconds summary\n"));
        assert!(text.contains("gbc_request_nanoseconds{quantile=\"0.5\"}"));
        assert!(text.contains("gbc_request_nanoseconds_count 2\n"));
        assert!(text.contains("gbc_request_nanoseconds_sum 3000\n"));
    }

    #[test]
    fn json_rendering_carries_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a").inc();
        reg.gauge("b", "b").set(-2);
        reg.hist("c_ns", "c").record(5);
        let json = reg.to_json();
        assert_eq!(json.get("a_total"), Some(&Json::UInt(1)));
        assert_eq!(json.get("b"), Some(&Json::Int(-2)));
        assert_eq!(json.get("c_ns").and_then(|h| h.get("count")).and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn scraping_while_recording_loses_nothing_recorded_before_the_scrape() {
        // The mid-run-scrape contract: a snapshot taken concurrently
        // with recording sees a prefix of the stream (all samples
        // recorded-before), and the final snapshot sees everything.
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.hist("gbc_live_ns", "live");
        let c = reg.counter("gbc_live_total", "live");
        std::thread::scope(|s| {
            let hw = Arc::clone(&h);
            let cw = Arc::clone(&c);
            let writer = s.spawn(move || {
                for i in 0..2000u64 {
                    hw.record(i + 1);
                    cw.inc();
                }
            });
            for _ in 0..20 {
                let seen = h.snapshot().count();
                assert!(seen <= 2000);
                let _ = reg.render_prometheus();
            }
            writer.join().unwrap();
        });
        assert_eq!(h.snapshot().count(), 2000);
        assert_eq!(c.get(), 2000);
    }
}
