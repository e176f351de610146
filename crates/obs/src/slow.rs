//! Slow-operation log: a bounded ring of over-threshold operations, each
//! captured with its span tree and request provenance.
//!
//! Latency histograms say *that* the p99 moved; they cannot say *why one
//! request* was slow. The slow log closes that gap: when an instrumented
//! operation (today: `Cluster::sample`) finishes above a configurable
//! threshold, the caller snapshots the spans belonging to that request —
//! [`span_subtree`] walks the tracer ring from the request's root span —
//! and records them together with a human-readable provenance line
//! (vertex, shard, fanout, degradation) and the caller-supplied trace id.
//! The ring keeps the most recent captures; `GET /debug/slow` on the admin
//! server serves it live.
//!
//! The threshold is an atomic so operators can retune it on a running
//! cluster without locks on the request path: the fast path is one relaxed
//! load plus a comparison, and only actually-slow requests pay for the
//! span walk and the ring mutex.

use crate::metrics::Counter;
use crate::span::SpanRecord;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default slow-op ring capacity: enough history to debug a bad minute
/// without retaining a whole bad day.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// Threshold a fresh log starts at: far above an in-process sample, so
/// only real stalls are captured.
const DEFAULT_THRESHOLD: Duration = Duration::from_millis(100);

/// One captured slow operation.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowOpRecord {
    /// Operation name, e.g. `"cluster.sample"` (borrowed where it was
    /// captured, owned once it has crossed the wire).
    pub op: Cow<'static, str>,
    /// Caller-supplied request trace id, if the request carried one.
    pub trace_id: Option<u64>,
    /// Request provenance (vertex, shard, fanout, degradation, ...).
    pub detail: String,
    /// End-to-end duration in nanoseconds.
    pub duration_ns: u64,
    /// The operation's span tree (root first, entry order), as recovered
    /// from the tracer ring at capture time.
    pub spans: Vec<SpanRecord>,
}

/// Bounded ring of [`SlowOpRecord`]s with an atomically tunable threshold.
///
/// Created armed at 100 ms; [`SlowLog::set_threshold`] retunes it. One
/// lives in every [`Registry`](crate::Registry).
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: AtomicU64,
    captured: Arc<Counter>,
    capacity: usize,
    ring: Mutex<VecDeque<SlowOpRecord>>,
}

impl Default for SlowLog {
    fn default() -> Self {
        Self::with_counter(DEFAULT_SLOW_CAPACITY, Arc::default())
    }
}

impl SlowLog {
    /// Build a log that tallies captures into `captured` (the registry
    /// wires its `obs.slow_ops` counter here).
    pub(crate) fn with_counter(capacity: usize, captured: Arc<Counter>) -> Self {
        Self {
            threshold_ns: AtomicU64::new(DEFAULT_THRESHOLD.as_nanos() as u64),
            captured,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Retune the log: operations at or above `threshold` should be
    /// recorded. `Duration::ZERO` captures everything (test/debug).
    pub fn set_threshold(&self, threshold: Duration) {
        let ns = threshold.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The current threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Whether an operation of this duration qualifies as slow. This is
    /// the request-path check: one relaxed load and a compare.
    pub fn is_slow(&self, elapsed: Duration) -> bool {
        elapsed.as_nanos() >= u128::from(self.threshold_ns())
    }

    /// Append a capture, evicting the oldest if the ring is full.
    pub fn record(&self, record: SlowOpRecord) {
        self.captured.inc();
        let mut ring = self.ring.lock().expect("slow ring");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The most recent captures, oldest first.
    pub fn recent(&self) -> Vec<SlowOpRecord> {
        self.ring
            .lock()
            .expect("slow ring")
            .iter()
            .cloned()
            .collect()
    }

    /// Total operations ever captured (including evicted ones).
    pub fn captured(&self) -> u64 {
        self.captured.get()
    }
}

/// Extract the span subtree rooted at `root_id` from a tracer ring dump.
///
/// Relies on the tracer's id discipline: ids are assigned at span *entry*,
/// monotonically, so a parent's id is always smaller than its children's.
/// Sorting by id therefore yields parents before children and one forward
/// pass suffices; the result is in entry order (root first).
pub fn span_subtree(spans: &[SpanRecord], root_id: u64) -> Vec<SpanRecord> {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| s.id);
    let mut members = BTreeSet::new();
    let mut out = Vec::new();
    for s in sorted {
        if s.id == root_id || s.parent.is_some_and(|p| members.contains(&p)) {
            members.insert(s.id);
            out.push(s.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTracer;

    fn rec(op: &'static str, duration_ns: u64) -> SlowOpRecord {
        SlowOpRecord {
            op: op.into(),
            trace_id: None,
            detail: String::new(),
            duration_ns,
            spans: Vec::new(),
        }
    }

    #[test]
    fn armed_at_100ms_by_default_and_retuned_by_threshold() {
        let log = SlowLog::default();
        assert_eq!(log.threshold_ns(), 100_000_000, "starts at 100 ms");
        assert!(!log.is_slow(Duration::from_millis(99)));
        assert!(log.is_slow(Duration::from_millis(100)));
        log.set_threshold(Duration::from_millis(5));
        assert!(!log.is_slow(Duration::from_millis(4)));
        assert!(log.is_slow(Duration::from_millis(5)), "threshold inclusive");
        assert!(log.is_slow(Duration::from_millis(50)));
    }

    #[test]
    fn ring_is_bounded_and_counter_keeps_totals() {
        let log = SlowLog::with_counter(3, Arc::default());
        for i in 0..7 {
            log.record(rec("op", i));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].duration_ns, 4, "oldest surviving capture");
        assert_eq!(recent[2].duration_ns, 6);
        assert_eq!(log.captured(), 7, "evictions still counted");
    }

    #[test]
    fn subtree_extracts_only_descendants() {
        let t = SpanTracer::default();
        let root_id;
        {
            let root = t.span("root");
            root_id = root.id();
            {
                let _child = t.span("child");
                drop(t.span("grandchild"));
            }
            drop(root);
        }
        // A second, unrelated tree recorded after the first.
        {
            let _other = t.span("other_root");
            drop(t.span("other_child"));
        }
        let tree = span_subtree(&t.recent(), root_id);
        let names: Vec<&str> = tree.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["root", "child", "grandchild"], "entry order");
        assert_eq!(tree[0].parent, None);
        assert_eq!(tree[1].parent, Some(tree[0].id));
        assert_eq!(tree[2].parent, Some(tree[1].id));
    }

    #[test]
    fn subtree_of_unknown_root_is_empty() {
        let t = SpanTracer::default();
        drop(t.span("solo"));
        assert!(span_subtree(&t.recent(), 999).is_empty());
    }
}
