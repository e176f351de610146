//! Hot-path metric primitives: sharded-atomic counters and plain gauges.
//!
//! A counter increment is the single most frequent observability operation
//! on the serving path (every routed request, every samtree op). A lone
//! `AtomicU64` turns that into a cache-line ping-pong between shard worker
//! threads, so [`Counter`] stripes its value across cache-line-padded
//! atomics indexed by a per-thread slot: increments touch a thread-local
//! line, reads sum the stripes. Reads are O(stripes) — cheap, but meant
//! for snapshots, not inner loops.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripe count; power of two so the thread slot maps with a mask.
pub(crate) const STRIPES: usize = 8;

/// One cache line per stripe so concurrent writers never share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Index of the calling thread's stripe: threads get a round-robin slot on
/// first use and keep it for life, spreading writers across the stripes.
/// Histograms and the span ring stripe by the same index.
pub(crate) fn stripe_index() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s) & (STRIPES - 1)
}

/// A monotonically increasing counter with a striped-atomic hot path.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all stripes. Concurrent increments may
    /// or may not be included, but nothing is ever lost or double-counted.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A signed instantaneous value (queue depth, resident edges, version).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Create a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn counter_add_batches() {
        let c = Counter::new();
        c.add(5);
        c.add(7);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn gauge_set_and_adjust() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.add(5);
        assert_eq!(g.get(), 12);
    }
}
