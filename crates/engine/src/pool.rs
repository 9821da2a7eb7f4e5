//! In-tree scoped worker pool for parallel flat-rule evaluation.
//!
//! The workspace has a zero-registry-dependency policy, so this is a
//! plain `std::thread::scope` fan-out rather than rayon: a
//! [`WorkerPool`] is just a thread count, and [`WorkerPool::run`]
//! spawns that many scoped workers which pull task indices from a
//! shared atomic counter (work stealing over a fixed task list) and
//! deposit results into per-task slots. The scope joins every worker
//! before returning, so tasks may freely borrow the caller's stack —
//! in particular the `&Database` the seminaive round reads.
//!
//! Determinism contract: results come back **in task order**, no matter
//! which worker ran which task or in what interleaving. Callers
//! partition work into contiguous chunks ([`WorkerPool::chunk_ranges`])
//! and concatenate the returned buffers, which reproduces the serial
//! enumeration order byte for byte (see DESIGN.md §9).
//!
//! γ-steps, choice commits and `(R,Q,L)` heap maintenance never enter
//! the pool — only the side-effect-free enumeration half of a
//! saturation round does; all inserts happen on the calling thread
//! after the merge.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gbc_telemetry::{Histogram, RuleProfiler, TraceEvent, TraceSink};

/// The smallest slice of delta rows (or first-scan ids) worth handing
/// to a worker. Rounds below `2 * MIN_CHUNK` run inline on the calling
/// thread: the typical alternation round between γ-steps derives a
/// handful of tuples, and a thread round-trip costs more than the join
/// itself. The threshold only gates *where* work runs — results are
/// identical either way.
pub const MIN_CHUNK: usize = 64;

/// An upper bound on chunks per round, as a multiple of the thread
/// count — enough slack for work stealing to even out skewed chunks
/// without drowning the merge in tiny buffers.
const CHUNKS_PER_THREAD: usize = 4;

/// Resolve the thread count the CLI default asks for: the `GBC_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("GBC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Per-worker occupancy counters, updated with relaxed atomics from the
/// worker thread itself (single writer per lane — the atomics only make
/// the cross-thread read at report time sound).
#[derive(Debug, Default)]
pub struct LaneStats {
    /// Nanoseconds spent executing tasks.
    busy_nanos: AtomicU64,
    /// Nanoseconds inside the pool but not executing (queue contention,
    /// waiting for the scope to wind down).
    idle_nanos: AtomicU64,
    /// Tasks this lane executed.
    tasks: AtomicU64,
    /// Tasks claimed outside the lane's fair contiguous share — the
    /// work-stealing traffic that evens out skewed chunks.
    steals: AtomicU64,
}

/// Shared accumulator for pool-level observability: per-worker lanes,
/// the serial merge cost, and a histogram of chunk sizes. One instance
/// lives for a whole run and is attached to the saturation driver; the
/// CLI snapshots it via [`PoolStats::report`] at the end.
#[derive(Debug)]
pub struct PoolStats {
    lanes: Vec<LaneStats>,
    merge_nanos: AtomicU64,
    chunk_items: Mutex<Histogram>,
}

impl PoolStats {
    /// Fresh counters for a pool of `threads` workers.
    pub fn new(threads: usize) -> PoolStats {
        PoolStats {
            lanes: (0..threads.max(1)).map(|_| LaneStats::default()).collect(),
            merge_nanos: AtomicU64::new(0),
            chunk_items: Mutex::new(Histogram::default()),
        }
    }

    /// Charge serial merge time (concatenating worker buffers on the
    /// calling thread).
    pub fn record_merge(&self, nanos: u64) {
        self.merge_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record the size of one fanned-out chunk.
    pub fn record_chunk(&self, items: u64) {
        self.chunk_items.lock().expect("pool stats lock").record(items);
    }

    /// A plain snapshot of everything recorded so far.
    pub fn report(&self) -> PoolReport {
        PoolReport {
            workers: self
                .lanes
                .iter()
                .map(|l| LaneReport {
                    busy_nanos: l.busy_nanos.load(Ordering::Relaxed),
                    idle_nanos: l.idle_nanos.load(Ordering::Relaxed),
                    tasks: l.tasks.load(Ordering::Relaxed),
                    steals: l.steals.load(Ordering::Relaxed),
                })
                .collect(),
            merge_nanos: self.merge_nanos.load(Ordering::Relaxed),
            chunks: self.chunk_items.lock().expect("pool stats lock").clone(),
        }
    }
}

/// Observability hooks carried into a parallel fan-out: the per-rule
/// profiler's lane clocks, the pool occupancy accumulator, and the
/// trace sink (tagged with the id of the rule being fanned out, so
/// chunk events land on the right rule). All optional and borrowed —
/// `FanoutObs::default()` is the "no observers" case and costs nothing.
#[derive(Clone, Copy, Default)]
pub struct FanoutObs<'a> {
    /// Per-rule profiler; fan-outs charge each chunk's wall time to the
    /// executing worker's lane.
    pub profiler: Option<&'a RuleProfiler>,
    /// Pool occupancy accumulator ([`PoolStats`]); fan-outs record
    /// chunk sizes and per-lane busy/idle time into it.
    pub stats: Option<&'a PoolStats>,
    /// Trace sink plus the rule id chunk events are attributed to.
    pub trace: Option<(&'a dyn TraceSink, usize)>,
}

impl<'a> FanoutObs<'a> {
    /// Emit one `worker_chunk` trace event, when a sink is attached.
    pub fn chunk_event(&self, worker: usize, items: u64, dur_us: u64) {
        if let Some((sink, rule)) = self.trace {
            sink.event(&TraceEvent::WorkerChunk { worker, rule, items, dur_us });
        }
    }
}

/// Snapshot of one worker lane (see [`PoolStats::report`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneReport {
    /// Nanoseconds the lane spent executing tasks.
    pub busy_nanos: u64,
    /// Nanoseconds the lane spent in the pool without a task.
    pub idle_nanos: u64,
    /// Tasks the lane executed.
    pub tasks: u64,
    /// Tasks the lane claimed outside its fair contiguous share.
    pub steals: u64,
}

/// Snapshot of a run's pool activity.
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// One entry per worker lane.
    pub workers: Vec<LaneReport>,
    /// Serial merge time on the calling thread, in nanoseconds.
    pub merge_nanos: u64,
    /// Distribution of fanned-out chunk sizes (delta rows per chunk).
    pub chunks: Histogram,
}

impl PoolReport {
    /// Total busy time across lanes, in seconds.
    pub fn busy_secs(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_nanos).sum::<u64>() as f64 / 1e9
    }

    /// Mean busy fraction across lanes that saw any pool time.
    pub fn utilization(&self) -> f64 {
        let (mut busy, mut total) = (0u64, 0u64);
        for w in &self.workers {
            busy += w.busy_nanos;
            total += w.busy_nanos + w.idle_nanos;
        }
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }
}

/// A fixed-width scoped worker pool. Copyable configuration — threads
/// are spawned per [`WorkerPool::run`] call (and only for rounds big
/// enough to cross [`MIN_CHUNK`]), living exactly as long as the
/// borrowed data they read.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool { threads: threads.max(1) }
    }

    /// The single-threaded pool: every `run` executes inline.
    pub fn serial() -> WorkerPool {
        WorkerPool { threads: 1 }
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Would this pool ever fan out?
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Partition `len` items into contiguous `(start, end)` ranges.
    /// Returns a single full range when the pool is serial or `len` is
    /// below the parallel threshold; otherwise up to
    /// `threads * CHUNKS_PER_THREAD` ranges of at least [`MIN_CHUNK`]
    /// items. Concatenating the ranges always re-yields `0..len` in
    /// order.
    pub fn chunk_ranges(&self, len: usize) -> Vec<(usize, usize)> {
        if !self.is_parallel() || len < 2 * MIN_CHUNK {
            return if len == 0 { Vec::new() } else { vec![(0, len)] };
        }
        let max_chunks = self.threads * CHUNKS_PER_THREAD;
        let n_chunks = len.div_ceil(MIN_CHUNK).min(max_chunks).max(1);
        let chunk = len.div_ceil(n_chunks);
        (0..n_chunks)
            .map(|i| (i * chunk, ((i + 1) * chunk).min(len)))
            .filter(|(lo, hi)| lo < hi)
            .collect()
    }

    /// Run `n_tasks` tasks across the pool and return their results in
    /// task order. `task(index, worker)` receives the task index and
    /// the id (0-based) of the worker executing it; it must not rely on
    /// which worker that is. Runs inline, in order, on the calling
    /// thread when the pool is serial or there is at most one task.
    /// Worker panics propagate to the caller when the scope joins.
    pub fn run<T, F>(&self, n_tasks: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        self.run_stats(n_tasks, None, task)
    }

    /// [`WorkerPool::run`] with per-lane occupancy accounting. When
    /// `stats` is given, every worker charges its busy/idle time, task
    /// count and steal count to its lane. A *steal* is a task index
    /// outside the worker's fair contiguous share of `0..n_tasks` —
    /// with the shared-counter queue that means the worker outran its
    /// proportional allotment and is draining a slower lane's work.
    /// Identical results to `run` in every other respect.
    pub fn run_stats<T, F>(&self, n_tasks: usize, stats: Option<&PoolStats>, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        if !self.is_parallel() || n_tasks <= 1 {
            return (0..n_tasks)
                .map(|i| {
                    let t0 = stats.map(|_| Instant::now());
                    let out = task(i, 0);
                    if let (Some(stats), Some(t0)) = (stats, t0) {
                        if let Some(lane) = stats.lanes.first() {
                            lane.busy_nanos
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            lane.tasks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    out
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(n_tasks);
        // Fair contiguous share per worker, for steal attribution.
        let share = n_tasks.div_ceil(workers);
        let t_fanout = stats.map(|_| Instant::now());
        std::thread::scope(|s| {
            let (next, slots, task) = (&next, &slots, &task);
            for w in 0..workers {
                let lane = stats.and_then(|st| st.lanes.get(w));
                s.spawn(move || {
                    let entered = Instant::now();
                    let mut busy = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = task(i, w);
                        *slots[i].lock().expect("pool slot lock") = Some(out);
                        if let Some(lane) = lane {
                            let nanos = t0.elapsed().as_nanos() as u64;
                            busy += nanos;
                            lane.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
                            lane.tasks.fetch_add(1, Ordering::Relaxed);
                            if i / share != w {
                                lane.steals.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if let Some(lane) = lane {
                        let lifetime = entered.elapsed().as_nanos() as u64;
                        lane.idle_nanos.fetch_add(lifetime.saturating_sub(busy), Ordering::Relaxed);
                    }
                });
            }
        });
        // Coarse fan-outs (fewer tasks than threads) spawn only
        // `workers` lanes; the remaining lanes sat out the whole
        // fan-out. Charge them the fan-out's wall time as idle so the
        // utilization table reports occupancy over the pool's
        // configured width, not just the lanes that ran.
        if let (Some(st), Some(t0)) = (stats, t_fanout) {
            let wall = t0.elapsed().as_nanos() as u64;
            for lane in st.lanes.iter().skip(workers) {
                lane.idle_nanos.fetch_add(wall, Ordering::Relaxed);
            }
        }
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("pool slot lock").expect("every task index is claimed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = WorkerPool::serial();
        let order = Mutex::new(Vec::new());
        let out = pool.run(5, |i, w| {
            assert_eq!(w, 0);
            order.lock().unwrap().push(i);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_pool_returns_results_in_task_order() {
        let pool = WorkerPool::new(4);
        for _ in 0..16 {
            let out = pool.run(37, |i, _| i as u64 * 3);
            assert_eq!(out, (0..37u64).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_once_in_order() {
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            for len in [0usize, 1, 63, 64, 127, 128, 129, 1000, 4096, 100_000] {
                let ranges = pool.chunk_ranges(len);
                let mut pos = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, pos, "gapless at len {len} threads {threads}");
                    assert!(hi > lo);
                    pos = hi;
                }
                assert_eq!(pos, len, "covering at len {len} threads {threads}");
            }
        }
    }

    #[test]
    fn small_rounds_stay_single_chunk() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.chunk_ranges(2 * MIN_CHUNK - 1).len(), 1);
        assert!(pool.chunk_ranges(2 * MIN_CHUNK).len() > 1);
        // Serial pools never split, no matter the size.
        assert_eq!(WorkerPool::serial().chunk_ranges(1_000_000).len(), 1);
    }

    #[test]
    fn workers_share_borrowed_data() {
        let data: Vec<u64> = (0..10_000).collect();
        let pool = WorkerPool::new(4);
        let ranges = pool.chunk_ranges(data.len());
        let sums = pool.run(ranges.len(), |ci, _| {
            let (lo, hi) = ranges[ci];
            data[lo..hi].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn run_stats_accounts_every_task_to_a_lane() {
        let pool = WorkerPool::new(4);
        let stats = PoolStats::new(pool.threads());
        let out = pool.run_stats(40, Some(&stats), |i, _| {
            // Make the tasks non-trivially long so busy time registers.
            (0..1000u64).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        });
        assert_eq!(out.len(), 40);
        let report = stats.report();
        assert_eq!(report.workers.len(), 4);
        assert_eq!(report.workers.iter().map(|w| w.tasks).sum::<u64>(), 40);
        assert!(report.workers.iter().map(|w| w.busy_nanos).sum::<u64>() > 0);
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
    }

    #[test]
    fn coarse_fanouts_charge_idle_to_unspawned_lanes() {
        // 2 tasks on a 4-thread pool: only 2 lanes spawn; the other 2
        // must still accumulate idle time so utilization reflects the
        // configured pool width instead of reading 100% busy.
        let pool = WorkerPool::new(4);
        let stats = PoolStats::new(pool.threads());
        pool.run_stats(2, Some(&stats), |i, _| {
            (0..200_000u64).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        });
        let report = stats.report();
        assert_eq!(report.workers.iter().map(|w| w.tasks).sum::<u64>(), 2);
        for lane in &report.workers[2..] {
            assert_eq!(lane.tasks, 0);
            assert_eq!(lane.busy_nanos, 0);
            assert!(lane.idle_nanos > 0, "unspawned lane must report the fan-out as idle");
        }
        // With half the lanes fully idle, utilization cannot exceed the
        // spawned fraction (busy lanes also carry some startup idle).
        assert!(report.utilization() <= 0.5 + f64::EPSILON, "{}", report.utilization());
    }

    #[test]
    fn run_stats_matches_run_results() {
        let pool = WorkerPool::new(3);
        let stats = PoolStats::new(pool.threads());
        let a = pool.run(25, |i, _| i * 7);
        let b = pool.run_stats(25, Some(&stats), |i, _| i * 7);
        assert_eq!(a, b);
    }

    #[test]
    fn serial_stats_land_on_lane_zero() {
        let pool = WorkerPool::serial();
        let stats = PoolStats::new(1);
        pool.run_stats(5, Some(&stats), |i, _| i);
        let report = stats.report();
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].tasks, 5);
        assert_eq!(report.workers[0].steals, 0);
    }

    #[test]
    fn chunk_histogram_and_merge_time_accumulate() {
        let stats = PoolStats::new(2);
        stats.record_chunk(100);
        stats.record_chunk(300);
        stats.record_merge(5_000);
        stats.record_merge(7_000);
        let report = stats.report();
        assert_eq!(report.chunks.count(), 2);
        assert_eq!(report.chunks.min(), 100);
        assert_eq!(report.merge_nanos, 12_000);
        assert_eq!(report.busy_secs(), 0.0);
    }

    #[test]
    fn env_override_parses_positive_integers_only() {
        // default_threads reads the live environment; exercise the
        // parse through the public contract instead of mutating env in
        // a test process that may run threaded siblings.
        assert!(default_threads() >= 1);
    }
}
