//! Striped log2 latency histograms.
//!
//! Production graph services watch tail latency (the paper's Fig. 9/10
//! numbers are exactly such measurements); this module gives every
//! subsystem a cheap always-on recorder with power-of-two nanosecond
//! buckets and percentile estimates read on demand. Formerly
//! `crates/server/src/latency.rs`; it moved here so storage, WAL, and
//! pipeline stages record through the same type the server uses.
//!
//! Serving histograms record once per request from several lanes at once,
//! so a recording touches only the calling thread's stripe — the same
//! per-thread index [`Counter`](crate::Counter) uses: three relaxed adds
//! (bucket, count, sum) on cache lines no other stripe shares, and a
//! `fetch_max` only when the observation beats the stripe's maximum.
//! Readers sum the stripes.

use crate::metrics::{stripe_index, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` ns; bucket 63 is the overflow bucket (> ~4.6 h).
const BUCKETS: usize = 64;

/// One thread stripe: its own buckets and totals, cache-line aligned.
#[repr(align(64))]
#[derive(Debug)]
struct Stripe {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Stripe {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A concurrent histogram over durations with power-of-two buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    stripes: [Stripe; STRIPES],
}

/// A point-in-time, serializable view of a [`Histogram`]: exact
/// count/mean/sum/max plus log2-resolution percentiles and the non-empty
/// bucket counts, so stage and cluster histograms can be dumped into bench
/// JSON instead of ad-hoc prints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact mean in nanoseconds (not bucketed).
    pub mean_ns: u64,
    /// p50 upper bound in nanoseconds (log2 bucket resolution).
    pub p50_ns: u64,
    /// p95 upper bound in nanoseconds.
    pub p95_ns: u64,
    /// p99 upper bound in nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum observation in nanoseconds.
    pub max_ns: u64,
    /// Exact sum of observations in nanoseconds (drives Prometheus `_sum`).
    pub sum_ns: u64,
    /// Non-empty buckets as `(log2_lower_bound, count)`: bucket `e` holds
    /// durations in `[2^e, 2^(e+1))` ns.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Merge `other` into `self`, exactly: log2 bucket counts, `count`,
    /// and `sum_ns` add (a merged bucket holds the true total of both
    /// sides — log2 buckets from different processes align by exponent,
    /// so merging loses nothing the individual snapshots had); `max_ns`
    /// takes the max; `mean_ns` and the percentiles are recomputed from
    /// the merged totals. This is what lets a fleet admin plane fold N
    /// per-server histograms into one without a resolution cliff.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: std::collections::BTreeMap<u32, u64> =
            self.buckets.iter().copied().collect();
        for &(exp, n) in &other.buckets {
            *merged.entry(exp).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.mean_ns = self.sum_ns.checked_div(self.count).unwrap_or(0);
        // The walk `Histogram::quantile` does over its live buckets, so
        // merged snapshots report percentiles identically to a histogram
        // that recorded every observation itself.
        let quantile = |q| bucket_quantile(self.buckets.iter().copied(), self.count, q);
        (self.p50_ns, self.p95_ns, self.p99_ns) = (quantile(0.5), quantile(0.95), quantile(0.99));
    }

    /// Render as a JSON object (the workspace vendors no JSON serializer,
    /// so the report format is emitted by hand).
    pub fn to_json(&self) -> String {
        let mut buckets = String::from("[");
        for (i, (exp, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{exp},{n}]"));
        }
        buckets.push(']');
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"sum_ns\":{},\"buckets\":{}}}",
            self.count, self.mean_ns, self.p50_ns, self.p95_ns, self.p99_ns, self.max_ns,
            self.sum_ns, buckets
        )
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Record one observation given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        let stripe = &self.stripes[stripe_index()];
        stripe.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns > stripe.max_ns.load(Ordering::Relaxed) {
            stripe.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// `field` of every stripe, summed.
    fn total(&self, field: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        let each = self
            .stripes
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed));
        each.fold(0, u64::wrapping_add)
    }

    /// Exact maximum recorded duration (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns())
    }

    fn max_ns(&self) -> u64 {
        let each = self
            .stripes
            .iter()
            .map(|s| s.max_ns.load(Ordering::Relaxed));
        each.max().unwrap_or(0)
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total(|s| &s.count)
    }

    /// Exact sum of recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.total(|s| &s.sum_ns)
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum_ns().checked_div(self.count()).unwrap_or(0))
    }

    /// Per-bucket counts summed over the stripes.
    fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.total(|s| &s.buckets[i]))
    }

    /// Upper bound of the bucket containing quantile `q ∈ [0, 1]`
    /// (log2-resolution estimate; zero when empty).
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q));
        let counts = self.bucket_counts();
        let n = counts.iter().sum();
        Duration::from_nanos(bucket_quantile((0..).zip(counts), n, q))
    }

    /// Serializable snapshot: count, exact mean/sum/max, p50/p95/p99 and
    /// the non-empty bucket counts. The buckets are read once and `count`
    /// is their sum, so a snapshot taken under concurrent recording is
    /// still self-consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        let count = counts.iter().sum();
        let sum_ns = self.sum_ns();
        let quantile = |q| bucket_quantile((0..).zip(counts), count, q);
        HistogramSnapshot {
            count,
            mean_ns: sum_ns.checked_div(count).unwrap_or(0),
            p50_ns: quantile(0.5),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            max_ns: self.max_ns(),
            sum_ns,
            buckets: (0..BUCKETS as u32)
                .zip(counts)
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }
}

/// Upper bound in nanoseconds of the log2 bucket holding quantile `q` of
/// `n` observations, given `(exponent, count)` buckets in ascending order
/// (zero when `n` is 0).
fn bucket_quantile(buckets: impl IntoIterator<Item = (u32, u64)>, n: u64, q: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    let target = ((n as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (exp, count) in buckets {
        seen += count;
        if seen >= target {
            return if exp >= 63 { u64::MAX } else { 1 << (exp + 1) };
        }
    }
    u64::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }

    #[test]
    fn buckets_bound_the_observation() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(1000)); // bucket [512, 1024)
        let p = h.quantile(1.0);
        assert!(p >= Duration::from_nanos(1000), "{p:?}");
        assert!(p <= Duration::from_nanos(2048), "{p:?}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        for us in [1u64, 10, 100, 1_000, 10_000] {
            for _ in 0..20 {
                h.record(Duration::from_micros(us));
            }
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50:?} {p90:?} {p99:?}");
        // p99 must sit in the top decade.
        assert!(p99 >= Duration::from_micros(10_000));
    }

    #[test]
    fn mean_is_exact_not_bucketed() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(300));
        assert_eq!(h.mean(), Duration::from_nanos(200));
        assert_eq!(h.sum_ns(), 400);
    }

    #[test]
    fn snapshot_is_serializable_and_consistent() {
        let h = Histogram::new();
        for us in [1u64, 50, 50, 2_000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.max_ns, 2_000_000);
        assert_eq!(s.mean_ns, h.mean().as_nanos() as u64);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        // Bucket counts must sum to the total count.
        assert_eq!(s.buckets.iter().map(|(_, n)| n).sum::<u64>(), 4);
        // Every bucket's lower bound must bound the max.
        for (exp, _) in &s.buckets {
            assert!(1u64 << exp <= s.max_ns);
        }
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"count\":4"), "{json}");
        assert!(json.contains("\"max_ns\":2000000"), "{json}");
        assert!(json.contains("\"sum_ns\":2101000"), "{json}");
        assert!(json.contains("\"buckets\":[["), "{json}");
    }

    #[test]
    fn merge_is_exact_and_sum_preserving() {
        // Two processes each record part of a workload; merging their
        // snapshots must equal the snapshot of one histogram that saw it
        // all — buckets, count, sum, max, mean, and percentiles.
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for us in [1u64, 5, 50, 800] {
            a.record(Duration::from_micros(us));
            whole.record(Duration::from_micros(us));
        }
        for us in [2u64, 50, 50, 9_000, 9_001] {
            b.record(Duration::from_micros(us));
            whole.record(Duration::from_micros(us));
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = Histogram::new();
        for ns in [100u64, 4_000, 1 << 40] {
            h.record(Duration::from_nanos(ns));
        }
        let snap = h.snapshot();
        let mut merged = snap.clone();
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, snap);
        let mut from_empty = HistogramSnapshot::default();
        from_empty.merge(&snap);
        assert_eq!(from_empty, snap);
    }

    #[test]
    fn merge_associativity_across_three_servers() {
        let hs: Vec<Histogram> = (0..3).map(|_| Histogram::new()).collect();
        for (i, h) in hs.iter().enumerate() {
            for k in 0..50u64 {
                h.record(Duration::from_nanos((i as u64 + 1) * 1000 + k * 97));
            }
        }
        let mut left = hs[0].snapshot();
        left.merge(&hs[1].snapshot());
        left.merge(&hs[2].snapshot());
        let mut right = hs[1].snapshot();
        right.merge(&hs[2].snapshot());
        let mut first = hs[0].snapshot();
        first.merge(&right);
        assert_eq!(left, first);
        assert_eq!(left.count, 150);
    }

    #[test]
    fn striped_recording_is_exact_across_threads() {
        // Thread t records t*1000 + 1 ..= t*1000 + 1000 ns, so every total
        // is known in closed form.
        let h = Histogram::new();
        let whole = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || (1..=1000).for_each(|i| h.record_ns(t * 1000 + i)));
            }
        });
        (1..=4000).for_each(|ns| whole.record_ns(ns));
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum_ns(), 4000 * 4001 / 2);
        assert_eq!(h.max(), Duration::from_nanos(4000));
        let snap = h.snapshot();
        assert_eq!(
            snap.count,
            snap.buckets.iter().map(|&(_, n)| n).sum::<u64>()
        );
        assert_eq!(snap, whole.snapshot(), "buckets match one-thread recording");
        assert_eq!(h.quantile(0.5), whole.quantile(0.5));
    }

    #[test]
    fn concurrent_recording() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        h.record(Duration::from_nanos(i + 1));
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
