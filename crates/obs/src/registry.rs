//! The metrics registry: named counters, gauges, and histograms plus a
//! span tracer, snapshotted as one unit.
//!
//! Lock discipline: the name → handle maps are behind `RwLock`s that are
//! taken only at registration and snapshot time. Components resolve their
//! handles once (an `Arc<Counter>` etc.) and keep them, so the hot path is
//! pure striped-atomic arithmetic — no lock, no map lookup, no string
//! hashing.
//!
//! Registries are per-instance, not global: each [`Cluster`] owns one and
//! lends it to the storage, WAL, and pipeline layers stacked on top, so
//! concurrently running tests (or tenants) never see each other's counts.
//!
//! [`Cluster`]: ../platod2gl_server/struct.Cluster.html

use crate::hist::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};
use crate::slow::{SlowLog, SlowOpRecord, DEFAULT_SLOW_CAPACITY};
use crate::span::{SpanGuard, SpanRecord, SpanTracer, DEFAULT_SPAN_CAPACITY};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A named-metric registry with an attached span tracer and slow-op log.
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    tracer: SpanTracer,
    slow: SlowLog,
}

impl Default for Registry {
    /// An empty registry with the observability-of-observability counters
    /// pre-registered: `obs.spans_dropped` (tracer ring evictions) and
    /// `obs.slow_ops` (slow-log captures) appear in every snapshot from
    /// the start, so trace loss is never silent.
    fn default() -> Self {
        let spans_dropped = Arc::new(Counter::default());
        let slow_ops = Arc::new(Counter::default());
        let mut counters = BTreeMap::new();
        counters.insert("obs.spans_dropped".to_string(), Arc::clone(&spans_dropped));
        counters.insert("obs.slow_ops".to_string(), Arc::clone(&slow_ops));
        Registry {
            counters: RwLock::new(counters),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
            tracer: SpanTracer::with_drop_counter(DEFAULT_SPAN_CAPACITY, spans_dropped),
            slow: SlowLog::with_counter(DEFAULT_SLOW_CAPACITY, slow_ops),
        }
    }
}

/// Resolve `name` in one of the registry's maps, registering a fresh
/// default metric on first use. Double-checked so the common case is a
/// read lock.
fn get_or_register<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(existing) = map.read().expect("registry map").get(name) {
        return Arc::clone(existing);
    }
    let mut map = map.write().expect("registry map");
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default())),
    )
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (or register) the counter named `name`. Names are
    /// dot-separated lowercase paths, e.g. `"cluster.requests"`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_register(&self.counters, name)
    }

    /// Resolve (or register) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_register(&self.gauges, name)
    }

    /// Resolve (or register) the histogram named `name`. Histograms of
    /// durations end in `_ns` by convention.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_register(&self.histograms, name)
    }

    /// Enter a tracing span (records into the ring buffer on drop).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.tracer.span(name)
    }

    /// Enter a span that starts distributed trace `trace_id` (see
    /// [`SpanTracer::span_traced`]).
    pub fn span_traced(&self, name: &'static str, trace_id: u64) -> SpanGuard<'_> {
        self.tracer.span_traced(name, trace_id)
    }

    /// Enter the server-side root of a cross-process request (see
    /// [`SpanTracer::span_remote`]).
    pub fn span_remote(
        &self,
        name: &'static str,
        trace_id: u64,
        remote_parent: u64,
    ) -> SpanGuard<'_> {
        self.tracer.span_remote(name, trace_id, remote_parent)
    }

    /// Enter a span under an explicit local parent, for cross-thread
    /// fan-out (see [`SpanTracer::span_with_parent`]).
    pub fn span_with_parent(
        &self,
        name: &'static str,
        parent: u64,
        trace_id: u64,
    ) -> SpanGuard<'_> {
        self.tracer.span_with_parent(name, parent, trace_id)
    }

    /// The span tracer, for direct inspection.
    pub fn tracer(&self) -> &SpanTracer {
        &self.tracer
    }

    /// The slow-op log (armed at 100 ms until a threshold is set).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    /// Point-in-time snapshot of every registered metric plus the recent
    /// spans and slow-op captures, suitable for JSON or Prometheus
    /// exposition and for the `ObsExport` reply.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry map")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry map")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry map")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            spans: self.tracer.recent(),
            slow: self.slow.recent(),
        }
    }
}

/// A point-in-time view of a whole [`Registry`]. Metric entries are sorted
/// by name (the maps are BTree-ordered), which makes exposition output
/// deterministic and golden-testable.
///
/// This is also what a fleet member ships in an `ObsExport` reply, minus
/// the span ring: spans cross the wire only per trace id (`SpanExport`),
/// so a snapshot decoded from a reply has `spans` empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Recent completed spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Recent slow-op captures, oldest first.
    pub slow: Vec<SlowOpRecord>,
}

impl ObsSnapshot {
    /// Look up a counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge value by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.add(4);
        assert_eq!(r.snapshot().counter("x.hits"), Some(7));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(-5);
        r.histogram("h_ns").record(Duration::from_micros(3));
        drop(r.span("phase"));
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(1));
        assert_eq!(s.gauge("g"), Some(-5));
        assert_eq!(s.histogram("h_ns").map(|h| h.count), Some(1));
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].name, "phase");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        r.counter("m.middle").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "a.first",
                "m.middle",
                "obs.slow_ops",
                "obs.spans_dropped",
                "z.last"
            ]
        );
    }

    #[test]
    fn obs_meta_counters_are_pre_registered_and_wired() {
        let r = Registry::new();
        let s = r.snapshot();
        assert_eq!(s.counter("obs.spans_dropped"), Some(0));
        assert_eq!(s.counter("obs.slow_ops"), Some(0));
        // The tracer's eviction counter is the registered one.
        for _ in 0..(crate::span::DEFAULT_SPAN_CAPACITY + 3) {
            drop(r.span("spin"));
        }
        assert_eq!(r.snapshot().counter("obs.spans_dropped"), Some(3));
    }

    #[test]
    fn missing_names_read_none() {
        let r = Registry::new();
        let s = r.snapshot();
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.gauge("nope"), None);
        assert!(s.histogram("nope").is_none());
    }
}
