//! Log-linear (HDR-style) latency histograms.
//!
//! A [`Histogram`] records `u64` values (nanoseconds, item counts, …)
//! into buckets whose width grows with magnitude: values below
//! `2^BITS` land in exact unit buckets, and each octave above is split
//! into `2^BITS` sub-buckets, so every recorded value is reproduced to
//! a relative error of at most `2^-BITS` at any scale. That bound is
//! what makes the γ-round quantiles of `--stats-json`, `/stats` and
//! `/metrics` trustworthy without storing raw samples.
//!
//! The representation is **mergeable**: every histogram shares one
//! bucket boundary grid, so [`Histogram::merge`] adds bucket counts and
//! is exact — `gbc serve` merging each run's round histogram into its
//! process-lifetime one loses nothing relative to recording every
//! sample into one shared (contended) histogram. Merge is associative
//! and commutative by construction, so concurrent runs may merge in
//! any order.
//!
//! No atomics: recording is single-writer per histogram. Concurrent
//! use is per-thread histograms merged after the fact — the cheap,
//! contention-free discipline the rest of the workspace follows.

use crate::json::Json;

/// Sub-bucket precision bits: `2^-7` ≈ 0.8% worst-case relative
/// error, plenty for latency percentiles, with at most a few thousand
/// buckets across the full `u64` range.
pub const BITS: u32 = 7;

/// A mergeable log-linear histogram over `u64` values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, grown on demand (index via [`bucket_index`]).
    counts: Vec<u64>,
    /// Total recorded values.
    count: u64,
    /// Sum of recorded values (for the mean; saturating).
    sum: u128,
    /// Exact smallest recorded value.
    min: u64,
    /// Exact largest recorded value.
    max: u64,
}

impl Default for Histogram {
    /// An empty histogram.
    fn default() -> Histogram {
        Histogram { counts: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value as u128 * n as u128);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Is the histogram empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of the recorded values (saturating at `u128::MAX`).
    /// Survives [`Histogram::merge`] exactly — merged sums add — which
    /// is what lets a mean be recomputed after any bucket merge.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (`0.0 ..= 1.0`): an upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value, clamped to the exact
    /// observed extremes — so the result is within `2^-BITS` relative
    /// error of the true order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Add every bucket of `other` into `self`. Exact: both histograms
    /// share the same boundary grid, so the result is identical to
    /// having recorded both value streams into one histogram — which
    /// is what makes merge associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Summary as a JSON object: precision, count, exact sum and
    /// min/max, mean, and the standard latency percentiles. `sum` is
    /// what makes the mean recomputable after downstream bucket merges
    /// (merged counts and sums both add exactly); it saturates to
    /// `u64::MAX` in the unlikely event the u128 accumulator exceeds it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bits", Json::UInt(u64::from(BITS))),
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(u64::try_from(self.sum).unwrap_or(u64::MAX))),
            ("min", Json::UInt(self.min())),
            ("max", Json::UInt(self.max())),
            ("mean", Json::Float(self.mean())),
            ("p50", Json::UInt(self.p50())),
            ("p90", Json::UInt(self.p90())),
            ("p99", Json::UInt(self.p99())),
            ("p999", Json::UInt(self.p999())),
        ])
    }
}

/// Bucket index of `value` on the grid. Values below `2^BITS` map to
/// themselves (exact unit buckets); above, each octave contributes
/// `2^BITS` sub-buckets.
fn bucket_index(value: u64) -> usize {
    let m = BITS;
    if value < (1 << m) {
        return value as usize;
    }
    let e = 63 - value.leading_zeros();
    let region = (e - m + 1) as usize;
    let mantissa = ((value >> (e - m)) & ((1 << m) - 1)) as usize;
    (region << m) + mantissa
}

/// Largest value mapping to bucket `idx` — the reported representative.
fn bucket_upper(idx: usize) -> u64 {
    let m = BITS;
    if idx < (1 << m) {
        return idx as u64;
    }
    let region = (idx >> m) as u32;
    let mantissa = (idx & ((1 << m) - 1)) as u64;
    let shift = region - 1;
    let lower = ((1u64 << m) + mantissa) << shift;
    lower + ((1u64 << shift) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn unit_buckets_are_exact_below_the_linear_threshold() {
        let mut h = Histogram::default();
        for v in 0..(1u64 << BITS) {
            h.record(v);
        }
        // Every value below 2^BITS has its own bucket: quantiles of a
        // single-value histogram reproduce the value exactly.
        for v in [0u64, 1, (1 << BITS) - 1] {
            let mut one = Histogram::default();
            one.record(v);
            assert_eq!(one.p50(), v, "value {v}");
            assert_eq!(one.p999(), v, "value {v}");
        }
        assert_eq!(h.count(), 1 << BITS);
    }

    #[test]
    fn quantile_error_stays_within_the_per_config_bound() {
        // Pin the promised bound: any recorded value is reported within
        // a 2^-BITS relative error at every scale.
        let bound = 1.0 / (1u64 << BITS) as f64;
        let mut rng = Rng::new(0xB17 + BITS as u64);
        for _ in 0..2_000 {
            let scale = rng.range_i64(0, 40) as u32;
            let v = (rng.next_u64() >> scale).max(1);
            let mut h = Histogram::default();
            h.record(v);
            let got = h.p50() as f64;
            let err = (got - v as f64).abs() / v as f64;
            assert!(err <= bound, "value {v} reported {got}, err {err} > {bound}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped_to_observed_extremes() {
        let mut h = Histogram::default();
        for v in [10u64, 20, 30, 40, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000_000);
        let qs: Vec<u64> =
            [0.0, 0.25, 0.5, 0.75, 0.99, 1.0].iter().map(|&q| h.quantile(q)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        assert!(qs[0] >= 10 && qs[5] <= 1_000_000);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!((h.count(), h.min(), h.max(), h.p50(), h.p999()), (0, 0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_the_combined_stream() {
        // Seeded-loop contract: merge(a, b) is EXACT — its buckets, and
        // therefore its quantiles, equal the histogram of the combined
        // stream, not merely approximate it.
        let mut rng = Rng::new(42);
        for _ in 0..20 {
            let mut a = Histogram::default();
            let mut b = Histogram::default();
            let mut combined = Histogram::default();
            for i in 0..500 {
                let v = rng.next_u64() >> (rng.range_i64(0, 50) as u32);
                if i % 2 == 0 {
                    a.record(v);
                } else {
                    b.record(v);
                }
                combined.record(v);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged, combined, "bucket-level merge must be exact");
            for q in [0.5, 0.9, 0.99, 0.999] {
                assert_eq!(merged.quantile(q), combined.quantile(q));
            }
            // Sums add exactly under merge — the invariant that lets a
            // mean be recomputed from any downstream aggregate.
            assert_eq!(merged.sum(), a.sum() + b.sum());
            assert_eq!(merged.sum(), combined.sum());
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = Rng::new(7);
        let mut hs: Vec<Histogram> = (0..3)
            .map(|_| {
                let mut h = Histogram::default();
                for _ in 0..200 {
                    h.record(rng.next_u64() >> 32);
                }
                h
            })
            .collect();
        let (c, b, a) = (hs.pop().unwrap(), hs.pop().unwrap(), hs.pop().unwrap());
        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "associativity");
        // b ∪ a == a ∪ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    fn json_summary_has_the_percentile_fields() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.to_json().to_string();
        for key in ["bits", "count", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999"] {
            assert!(s.contains(&format!("\"{key}\":")), "{key} missing from {s}");
        }
        assert!(s.contains("\"count\":1000"));
        // sum = 1000·1001/2 · 1000 — exact, so the mean is recomputable
        // from the JSON alone: sum / count.
        assert!(s.contains("\"sum\":500500000"), "exact sum missing from {s}");
    }

    #[test]
    fn json_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
        assert_eq!(h.to_json().get("sum").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record_n(12345, 7);
        for _ in 0..7 {
            b.record(12345);
        }
        assert_eq!(a, b);
    }
}
