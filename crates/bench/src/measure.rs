//! Timing and scaling-fit utilities: single-shot timers, a
//! warmup + median-of-k repetition harness with a minimum timed window
//! (the in-tree replacement for criterion), and log-log scaling fits.

use std::time::Instant;

/// One measurement: problem size and elapsed seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Problem size (n, e, …).
    pub size: u64,
    /// Elapsed wall-clock seconds.
    pub secs: f64,
}

/// Time one execution of `f`, returning `(result, seconds)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds of timed work [`Harness::new`] collects at least: it keeps
/// repeating past `reps` until the timed runs add up to this, so one
/// short spell of host load cannot set the median of a fast workload.
const MIN_WINDOW_SECS: f64 = 0.5;

/// The repetition harness: `warmup` unmeasured runs, then at least
/// `reps` timed runs reported as their median.
///
/// The median is robust against the one-off outliers (allocator warmup,
/// scheduler preemption) that make min/mean noisy on shared machines,
/// which is all the statistical machinery these tables need.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    /// Unmeasured warmup executions before timing starts.
    pub warmup: usize,
    /// Least number of timed repetitions; the median is reported. Must
    /// be ≥ 1.
    pub reps: usize,
    /// Least total of the timed repetitions, seconds:
    /// [`MIN_WINDOW_SECS`] for [`Harness::new`], zero for
    /// [`Harness::quick`].
    window_secs: f64,
}

/// The result of a [`Harness::run`]: the last value `f` produced plus
/// the timing distribution.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median of the timed repetitions, seconds.
    pub median_secs: f64,
    /// Fastest repetition, seconds.
    pub min_secs: f64,
    /// Slowest repetition, seconds.
    pub max_secs: f64,
}

impl Harness {
    /// The default harness: 1 warmup run, then the median of at least
    /// 5 runs that together take at least half a second.
    pub fn new() -> Harness {
        Harness { warmup: 1, reps: 5, window_secs: MIN_WINDOW_SECS }
    }

    /// A reduced harness for `--quick` sweeps: no warmup, median of 3.
    pub fn quick() -> Harness {
        Harness { warmup: 0, reps: 3, window_secs: 0.0 }
    }

    /// Run `f` under the harness, returning its last result and the
    /// timing distribution over the measured repetitions.
    pub fn run<T>(&self, mut f: impl FnMut() -> T) -> (T, Timing) {
        assert!(self.reps >= 1, "harness needs at least one repetition");
        for _ in 0..self.warmup {
            f();
        }
        let mut times = Vec::with_capacity(self.reps);
        let (mut out, mut timed) = (None, 0.0);
        while times.len() < self.reps || timed < self.window_secs {
            let (v, secs) = time_once(&mut f);
            out = Some(v);
            timed += secs;
            times.push(secs);
        }
        times.sort_by(f64::total_cmp);
        let timing = Timing {
            median_secs: times[times.len() / 2],
            min_secs: times[0],
            max_secs: times[times.len() - 1],
        };
        (out.expect("reps >= 1"), timing)
    }
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

/// Least-squares slope of `log(time)` against `log(size)` — the
/// empirical scaling exponent. `O(n)` ⇒ ≈1, `O(n log n)` ⇒ slightly
/// above 1, `O(n²)` ⇒ ≈2.
pub fn fit_exponent(samples: &[Sample]) -> f64 {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.secs > 0.0 && s.size > 0)
        .map(|s| ((s.size as f64).ln(), s.secs.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(f: impl Fn(f64) -> f64) -> Vec<Sample> {
        [1024u64, 4096, 16384, 65536]
            .iter()
            .map(|&size| Sample { size, secs: f(size as f64) })
            .collect()
    }

    #[test]
    fn linear_fits_to_one() {
        let e = fit_exponent(&samples(|n| 3e-6 * n));
        assert!((e - 1.0).abs() < 0.01, "{e}");
    }

    #[test]
    fn quadratic_fits_to_two() {
        let e = fit_exponent(&samples(|n| 1e-9 * n * n));
        assert!((e - 2.0).abs() < 0.01, "{e}");
    }

    #[test]
    fn nlogn_fits_between() {
        let e = fit_exponent(&samples(|n| 1e-7 * n * n.ln()));
        assert!(e > 1.05 && e < 1.25, "{e}");
    }

    #[test]
    fn degenerate_inputs_are_nan() {
        assert!(fit_exponent(&[]).is_nan());
        assert!(fit_exponent(&[Sample { size: 8, secs: 1.0 }]).is_nan());
    }

    #[test]
    fn time_once_returns_the_value() {
        let (v, secs) = time_once(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn harness_runs_warmup_plus_reps_and_reports_median() {
        let mut calls = 0u32;
        let h = Harness { warmup: 2, reps: 5, ..Harness::quick() };
        let (last, timing) = h.run(|| {
            calls += 1;
            calls
        });
        assert_eq!(calls, 7, "2 warmup + 5 measured");
        assert_eq!(last, 7);
        assert!(timing.min_secs <= timing.median_secs);
        assert!(timing.median_secs <= timing.max_secs);
    }

    #[test]
    fn default_harness_samples_its_whole_window() {
        // Five 20 ms runs fall short of the window, so sampling goes
        // on; 25 runs of at least 20 ms fill it, so it stops by then.
        let mut calls = 0u32;
        Harness::new().run(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        assert!((1 + 6..=1 + 25).contains(&calls), "{calls} calls");
    }

    #[test]
    fn quick_harness_skips_warmup() {
        let mut calls = 0u32;
        let (_, _) = Harness::quick().run(|| calls += 1);
        assert_eq!(calls, 3);
    }
}
