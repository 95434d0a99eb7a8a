//! Measurement collectors: counters, latency statistics and histograms.
//!
//! Every experiment in the reproduction reports either a mean latency,
//! a throughput, or a distribution; these types are the single place
//! those are computed so that all crates aggregate identically.

use std::fmt;

use crate::persist_fields;
use crate::snapshot::{Persist, RestoreError, SnapReader};
use crate::time::SimTime;

/// A simple named monotonic counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// Online latency statistics: count, sum, min, max and mean, without
/// storing samples.
///
/// # Example
///
/// ```
/// use contutto_sim::{LatencyStats, SimTime};
/// let mut s = LatencyStats::new();
/// s.record(SimTime::from_ns(10));
/// s.record(SimTime::from_ns(20));
/// assert_eq!(s.mean().as_ns(), 15);
/// assert_eq!(s.min().unwrap().as_ns(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    sum_ps: u128,
    min: Option<SimTime>,
    max: Option<SimTime>,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: SimTime) {
        self.count += 1;
        self.sum_ps += u128::from(sample.as_ps());
        self.min = Some(match self.min {
            Some(m) => m.min(sample),
            None => sample,
        });
        self.max = Some(match self.max {
            Some(m) => m.max(sample),
            None => sample,
        });
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample; [`SimTime::ZERO`] when empty.
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ps((self.sum_ps / u128::from(self.count)) as u64)
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<SimTime> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<SimTime> {
        self.max
    }

    /// Total of all samples.
    pub fn sum(&self) -> SimTime {
        SimTime::from_ps(self.sum_ps.min(u128::from(u64::MAX)) as u64)
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        for m in [other.min, other.max].into_iter().flatten() {
            self.record_minmax(m);
        }
    }

    fn record_minmax(&mut self, sample: SimTime) {
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} min={} max={}",
            self.count,
            self.mean(),
            self.min.unwrap_or(SimTime::ZERO),
            self.max.unwrap_or(SimTime::ZERO),
        )
    }
}

/// An HDR-style log-bucketed histogram over the full `u64` range:
/// log2 major buckets subdivided linearly, so recording can never
/// overflow and every quantile is reported with a bounded *relative*
/// error instead of a fixed absolute resolution with a silent overflow
/// bucket.
///
/// Layout with `n = 2^sub_bits` linear slots:
///
/// * values `< n` are exact (one slot per value);
/// * values in `[2^m, 2^(m+1))` for `m >= sub_bits` land in one of
///   `n/2` slots of width `2^(m - sub_bits + 1)`, so the reported
///   upper edge overstates a contained value by at most a factor of
///   `1 + 2^(1 - sub_bits)` ([`LogHistogram::relative_error_bound`]).
///
/// Two histograms with the same `sub_bits` merge losslessly
/// (bucket-wise addition), and merging is associative and commutative
/// — shards can fold their histograms in any grouping and produce the
/// identical aggregate, which the deterministic campaigns assert by
/// direct equality.
///
/// # Example
///
/// ```
/// use contutto_sim::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in [10, 20, 30, 5_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.0), 10);       // exact: below 2^sub_bits
/// let p99 = h.quantile(0.99);
/// assert!(p99 >= 5_000_000);             // never under-reported
/// assert!((p99 as f64) <= 5_000_000.0 * (1.0 + h.relative_error_bound()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    sub_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Default linear precision: 2^6 = 64 exact low slots, 32 sub-buckets
/// per octave, ≤ 3.125 % relative error on every reported quantile.
pub const LOG_HISTOGRAM_DEFAULT_SUB_BITS: u32 = 6;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram at the default precision
    /// ([`LOG_HISTOGRAM_DEFAULT_SUB_BITS`]).
    pub fn new() -> Self {
        LogHistogram::with_sub_bits(LOG_HISTOGRAM_DEFAULT_SUB_BITS)
    }

    /// Creates an empty histogram with `2^sub_bits` linear slots per
    /// scale (relative error bound `2^(1 - sub_bits)`).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= sub_bits <= 16` (below 2 the error bound is
    /// useless; above 16 the table is pointlessly large).
    pub fn with_sub_bits(sub_bits: u32) -> Self {
        assert!(
            (2..=16).contains(&sub_bits),
            "sub_bits must be within 2..=16"
        );
        let n = 1usize << sub_bits;
        let majors = 64 - sub_bits as usize;
        LogHistogram {
            sub_bits,
            buckets: vec![0; n + majors * (n / 2)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The configured precision exponent.
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// The largest relative error any reported quantile can carry:
    /// `2^(1 - sub_bits)`.
    pub fn relative_error_bound(&self) -> f64 {
        f64::powi(2.0, 1 - self.sub_bits as i32)
    }

    fn index(&self, value: u64) -> usize {
        let n = 1u64 << self.sub_bits;
        if value < n {
            return value as usize;
        }
        let top = 63 - value.leading_zeros();
        let major = top - self.sub_bits + 1;
        let sub = (value >> major) - (n >> 1);
        (n + u64::from(major - 1) * (n >> 1) + sub) as usize
    }

    /// The upper edge (inclusive upper bound reported for quantiles)
    /// of bucket `idx`, saturating at `u64::MAX` for the top bucket.
    fn bucket_edge(&self, idx: usize) -> u64 {
        let n = 1u64 << self.sub_bits;
        if (idx as u64) < n {
            return idx as u64 + 1;
        }
        let rel = idx as u64 - n;
        let major = rel / (n >> 1) + 1;
        let sub = rel % (n >> 1);
        let edge = (u128::from((n >> 1) + sub) + 1) << major;
        edge.min(u128::from(u64::MAX)) as u64
    }

    /// Records one value. Total, never lossy: every `u64` has a bucket.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value` at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index(value);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (exact), if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (exact), if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all recorded values (exact sum, truncating division);
    /// 0 when empty.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// The value at or below which `q` (0.0–1.0) of samples fall.
    /// Reported as the containing bucket's upper edge, clamped into
    /// `[min, max]` of the recorded values, so the answer is exact at
    /// the extremes and never more than
    /// [`LogHistogram::relative_error_bound`] above the true quantile.
    /// Returns 0 when empty (the histogram records that state via
    /// [`LogHistogram::count`], never silently).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        if q == 0.0 {
            return self.min;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return self.bucket_edge(i).clamp(self.min, self.max);
            }
        }
        // Unreachable: every recorded value has a bucket. Keep a sane
        // answer rather than a panic in release builds.
        self.max
    }

    /// Merges another histogram into this one (bucket-wise addition).
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ — merging across layouts would
    /// silently degrade the error bound.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot merge LogHistograms of different precision"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} min={} p50={} p99={} p99.9={} max={}",
            self.count,
            self.min,
            self.quantile(0.5),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max,
        )
    }
}

persist_fields!(Counter { value });

persist_fields!(LatencyStats {
    count,
    sum_ps,
    min,
    max
});

impl Persist for LogHistogram {
    fn persist(&self, out: &mut Vec<u8>) {
        self.sub_bits.persist(out);
        self.buckets.persist(out);
        self.count.persist(out);
        self.sum.persist(out);
        self.min.persist(out);
        self.max.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let sub_bits = r.u32()?;
        if !(2..=16).contains(&sub_bits) {
            return Err(RestoreError::Malformed {
                context: "log-histogram precision",
            });
        }
        let buckets: Vec<u64> = Vec::restore(r)?;
        let n = 1usize << sub_bits;
        let majors = 64 - sub_bits as usize;
        if buckets.len() != n + majors * (n / 2) {
            return Err(RestoreError::Malformed {
                context: "log-histogram bucket count",
            });
        }
        Ok(LogHistogram {
            sub_bits,
            buckets,
            count: r.u64()?,
            sum: r.u128()?,
            min: r.u64()?,
            max: r.u64()?,
        })
    }
}

/// Computes throughput in operations per second from a count and an
/// elapsed simulated duration. Returns 0.0 for zero elapsed time.
pub fn ops_per_sec(ops: u64, elapsed: SimTime) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        ops as f64 / secs
    }
}

/// Computes throughput in bytes/second from a byte count and duration.
pub fn bytes_per_sec(bytes: u64, elapsed: SimTime) -> f64 {
    ops_per_sec(bytes, elapsed)
}

/// Formats a bytes/second figure with a binary-ish engineering unit
/// (GB/s meaning 1e9, matching the paper's units).
pub fn fmt_gbps(bytes_per_sec: f64) -> String {
    format!("{:.2} GB/s", bytes_per_sec / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn latency_stats_mean_min_max() {
        let mut s = LatencyStats::new();
        for ns in [5, 10, 15] {
            s.record(SimTime::from_ns(ns));
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), SimTime::from_ns(10));
        assert_eq!(s.min(), Some(SimTime::from_ns(5)));
        assert_eq!(s.max(), Some(SimTime::from_ns(15)));
        assert_eq!(s.sum(), SimTime::from_ns(30));
    }

    #[test]
    fn latency_stats_empty() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), SimTime::ZERO);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::new();
        a.record(SimTime::from_ns(10));
        let mut b = LatencyStats::new();
        b.record(SimTime::from_ns(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimTime::from_ns(20));
        assert_eq!(a.max(), Some(SimTime::from_ns(30)));
    }

    #[test]
    fn log_histogram_exact_below_linear_range() {
        let mut h = LogHistogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Every value below 2^sub_bits has its own bucket: quantiles
        // are exact (upper edge = value + 1, clamped by max).
        assert_eq!(h.quantile(0.5), 32);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn log_histogram_never_overflows() {
        let mut h = LogHistogram::new();
        for v in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn log_histogram_empty_reports_zero_not_garbage() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn log_histogram_relative_error_bound_holds() {
        // Property: for a deterministic pseudo-random sample set, every
        // reported quantile lies in [true_quantile, true_quantile * (1
        // + bound)] where the true quantile comes from the sorted data.
        let mut h = LogHistogram::new();
        let mut samples = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..4096 {
            // xorshift-style scramble; spans many octaves via masking.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (x % 48);
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let bound = h.relative_error_bound();
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let reported = h.quantile(q);
            let rank = ((q * samples.len() as f64).ceil().max(1.0) as usize).min(samples.len()) - 1;
            let truth = samples[rank];
            assert!(
                reported >= truth,
                "q={q}: reported {reported} under-reports true {truth}"
            );
            assert!(
                reported as f64 <= truth as f64 * (1.0 + bound) + 1.0,
                "q={q}: reported {reported} exceeds error bound over {truth}"
            );
        }
    }

    #[test]
    fn log_histogram_merge_is_associative_and_commutative() {
        let mut parts = Vec::new();
        let mut x: u64 = 42;
        for p in 0..3u64 {
            let mut h = LogHistogram::new();
            for i in 0..500u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(p + i);
                h.record(x >> (x % 50));
            }
            parts.push(h);
        }
        // (a ∪ b) ∪ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ∪ (b ∪ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        // c ∪ b ∪ a
        let mut rev = parts[2].clone();
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(left, right);
        assert_eq!(left, rev);
        assert_eq!(left.count(), 1500);
    }

    #[test]
    fn log_histogram_merge_equals_single_recording() {
        // Merging shards is lossless: identical to recording the union
        // into one histogram, asserted by direct structural equality.
        let values = [3u64, 64, 100, 5_000, 1 << 40, u64::MAX];
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn log_histogram_merge_rejects_mixed_precision() {
        let mut a = LogHistogram::with_sub_bits(6);
        let b = LogHistogram::with_sub_bits(7);
        a.merge(&b);
    }

    #[test]
    fn log_histogram_bucket_math_round_trips() {
        // Every recorded value must land in a bucket whose edge bounds
        // it: lower_edge <= v < upper edge is implied by idx monotonic
        // in v and edge(idx) > v >= edge(idx - 1).
        let h = LogHistogram::new();
        let mut probe = vec![0u64, 1, 63, 64, 65, 127, 128, 129];
        for shift in 7..64 {
            probe.push(1u64 << shift);
            probe.push((1u64 << shift) - 1);
            probe.push((1u64 << shift) + 1);
        }
        probe.push(u64::MAX);
        let mut last_idx = 0usize;
        let mut sorted = probe.clone();
        sorted.sort_unstable();
        for v in sorted {
            let idx = h.index(v);
            assert!(idx >= last_idx, "index not monotone at {v}");
            assert!(idx < h.buckets.len(), "index out of range at {v}");
            assert!(h.bucket_edge(idx) >= v.max(1), "edge below value at {v}");
            last_idx = idx;
        }
    }

    #[test]
    fn throughput_helpers() {
        assert_eq!(ops_per_sec(1000, SimTime::from_secs(2)), 500.0);
        assert_eq!(ops_per_sec(1000, SimTime::ZERO), 0.0);
        assert_eq!(bytes_per_sec(2_000_000_000, SimTime::from_secs(1)), 2e9);
        assert_eq!(fmt_gbps(6.0e9), "6.00 GB/s");
    }
}
