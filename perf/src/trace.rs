//! Bench-side tracing: spans recorded around the calls into each layer, a
//! `GraphService` decorator that records them at the service boundary, and
//! the self-time arithmetic the ledger is built from.
//!
//! Spans live in a pre-allocated vector and are written out when the run
//! ends. The driver thread keeps the open-span chain in `current`; the one
//! other thread that records (the RPC event loop, in `sample_remote`) adds
//! its busy time to an accumulator that the blocked client call drains into
//! a child span, so a server-side span always hangs under the client span
//! that caused it.

use platod2gl::{
    BatchReport, Error, GraphService, GraphTxn, Registry, SampleRequest, SampleResponse,
    ShardHealth, TxnError, TxnReceipt, UpdateOp,
};
use rand::RngCore;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span. `count` is 1 except for aggregated spans, which
/// stand for `count` back-to-back calls whose durations sum to `end - start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Mini-batch (or round) ordinal shared by every span of one request.
    pub batch: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u32,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Busy time a foreign thread (the RPC event loop) spent inside the wrapped
/// service since the client last drained it.
#[derive(Default)]
struct ForeignBusy {
    first_start_ns: AtomicU64,
    sum_ns: AtomicU64,
    calls: AtomicU32,
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
    next_id: AtomicU32,
    current: AtomicU32,
    batch: AtomicU32,
    foreign: ForeignBusy,
}

/// An open span on the driver thread; closing it records the span.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            batch: AtomicU32::new(0),
            foreign: ForeignBusy::default(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span buffer lock").push(rec);
    }

    /// Set the batch ordinal stamped on spans recorded from here on.
    pub fn set_batch(&self, batch: u32) {
        self.batch.store(batch, Ordering::Relaxed);
    }

    /// Open a span on the driver thread, nested under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Run `f` inside a span.
    pub fn in_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Add one call's busy time from a thread other than the driver.
    fn add_foreign(&self, start_ns: u64, end_ns: u64) {
        if self.foreign.calls.fetch_add(1, Ordering::AcqRel) == 0 {
            self.foreign
                .first_start_ns
                .store(start_ns, Ordering::Release);
        }
        self.foreign
            .sum_ns
            .fetch_add(end_ns.saturating_sub(start_ns), Ordering::AcqRel);
    }

    /// Turn the foreign busy time gathered while the innermost open span was
    /// blocked into one aggregated child of it. The client has its replies,
    /// so every server-side call for this request has already finished.
    fn drain_foreign(&self, name: &'static str) {
        let calls = self.foreign.calls.swap(0, Ordering::AcqRel);
        if calls == 0 {
            return;
        }
        let sum = self.foreign.sum_ns.swap(0, Ordering::AcqRel);
        let start = self.foreign.first_start_ns.load(Ordering::Acquire);
        self.push(SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            batch: self.batch.load(Ordering::Relaxed),
            name,
            start_ns: start,
            end_ns: start + sum,
            count: calls,
        });
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Write the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock").iter() {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"batch\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.id, s.parent, s.batch, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        self.tracer.current.store(self.parent, Ordering::Relaxed);
        self.tracer.push(SpanRec {
            id: self.id,
            parent: self.parent,
            batch: self.tracer.batch.load(Ordering::Relaxed),
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            count: 1,
        });
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their direct children cover.
    pub self_ns: u64,
    /// Number of calls (aggregated spans count all theirs).
    pub calls: u64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the summed durations of its direct children, floored at zero.
pub fn totals_by_name(spans: &[SpanRec]) -> HashMap<&'static str, NameTotals> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
        t.calls += u64::from(s.count);
    }
    out
}

/// Summed duration of the root spans: the traced time the ledger divides up.
pub fn root_ns(spans: &[SpanRec]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(SpanRec::duration_ns)
        .sum()
}

/// An RNG that replays pre-drawn seeds: lets the decorator see the one seed
/// per request the determinism contract consumes without changing it, and
/// lets a replay hand a captured request its original seed.
pub struct SeedReplay<'a> {
    seeds: &'a [u64],
    at: usize,
}

impl<'a> SeedReplay<'a> {
    pub fn new(seeds: &'a [u64]) -> Self {
        Self { seeds, at: 0 }
    }
}

impl RngCore for SeedReplay<'_> {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = self.seeds[self.at];
        self.at += 1;
        s
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Which side of the service boundary a [`Traced`] sits on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Called by the driver thread: records spans and captures requests.
    Client,
    /// Handed to `GraphServiceServer::bind`: called by the event loop,
    /// reports busy time to the blocked client span.
    Server,
}

/// The request stream a client-side [`Traced`] saw, for replay in isolation.
#[derive(Default)]
pub struct Capture {
    /// `(request, per-request seed)` in issue order, up to the capture cap.
    pub reads: Vec<(SampleRequest, u64)>,
    /// Requests issued in total (captured or not).
    pub reads_total: u64,
}

/// A `GraphService` decorator that records a span around every sampling and
/// update call and captures the exact `(vertex, fanout, window, seed)`
/// request stream.
pub struct Traced<S> {
    inner: Arc<S>,
    tracer: Arc<Tracer>,
    side: Side,
    capture: Mutex<Capture>,
    capture_cap: usize,
}

impl<S: GraphService + Send> Traced<S> {
    /// Wrap the service the driver thread calls.
    pub fn client(inner: Arc<S>, tracer: Arc<Tracer>, capture_cap: usize) -> Self {
        Self {
            inner,
            tracer,
            side: Side::Client,
            capture: Mutex::new(Capture {
                reads: Vec::with_capacity(capture_cap),
                reads_total: 0,
            }),
            capture_cap,
        }
    }

    /// Wrap the service handed to the RPC server.
    pub fn server(inner: Arc<S>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            side: Side::Server,
            capture: Mutex::new(Capture::default()),
            capture_cap: 0,
        }
    }

    /// Take the captured request stream.
    pub fn take_capture(&self) -> Capture {
        std::mem::take(&mut *self.capture.lock().expect("capture lock"))
    }

    fn foreign<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = self.tracer.now_ns();
        let out = f();
        self.tracer.add_foreign(start, self.tracer.now_ns());
        out
    }
}

impl<S: GraphService + Send> GraphService for Traced<S> {
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        match self.side {
            Side::Server => self.foreign(|| self.inner.sample_one(req, rng)),
            Side::Client => self
                .sample_many(std::slice::from_ref(req), rng)
                .pop()
                .expect("one response per request"),
        }
    }

    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        if self.side == Side::Server {
            return self.foreign(|| self.inner.sample_many(reqs, rng));
        }
        let seeds: Vec<u64> = reqs.iter().map(|_| rng.next_u64()).collect();
        {
            let mut cap = self.capture.lock().expect("capture lock");
            cap.reads_total += reqs.len() as u64;
            let room = self.capture_cap.saturating_sub(cap.reads.len());
            cap.reads
                .extend(reqs.iter().copied().zip(seeds.iter().copied()).take(room));
        }
        let _span = self.tracer.enter("service.sample_many");
        let out = self.inner.sample_many(reqs, &mut SeedReplay::new(&seeds));
        self.tracer.drain_foreign("server.sample_one");
        out
    }

    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        if self.side == Side::Server {
            return self.foreign(|| self.inner.apply_updates(ops));
        }
        let _span = self.tracer.enter("service.apply_updates");
        let out = self.inner.apply_updates(ops);
        self.tracer.drain_foreign("server.apply_updates");
        out
    }

    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        if self.side == Side::Server {
            return self.foreign(|| self.inner.apply_txn(txn));
        }
        let _span = self.tracer.enter("service.apply_txn");
        let out = self.inner.apply_txn(txn);
        self.tracer.drain_foreign("server.apply_txn");
        out
    }

    fn graph_version(&self) -> u64 {
        self.inner.graph_version()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn shard_healths(&self) -> Vec<ShardHealth> {
        self.inner.shard_healths()
    }

    fn heal(&self, shard: usize) -> usize {
        self.inner.heal(shard)
    }

    fn registry(&self) -> &Arc<Registry> {
        self.inner.registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            batch: 0,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span(1, 0, "batch", 0, 100),
            span(2, 1, "sample_block", 0, 60),
            span(3, 2, "service.sample_many", 10, 30),
            span(4, 2, "service.sample_many", 35, 55),
            span(5, 1, "train", 60, 95),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["batch"].self_ns, 5);
        assert_eq!(t["sample_block"].total_ns, 60);
        assert_eq!(t["sample_block"].self_ns, 20);
        assert_eq!(t["service.sample_many"].total_ns, 40);
        assert_eq!(t["service.sample_many"].self_ns, 40);
        assert_eq!(t["service.sample_many"].calls, 2);
        assert_eq!(t["train"].self_ns, 35);
        assert_eq!(root_ns(&spans), 100);
        // Self times partition the root exactly.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // An aggregated child can sum to more than its parent's wall time
        // (its calls ran on another thread); the parent floors at zero.
        let spans = [span(1, 0, "rpc", 0, 10), span(2, 1, "server", 0, 25)];
        assert_eq!(totals_by_name(&spans)["rpc"].self_ns, 0);
    }

    #[test]
    fn guards_nest_and_restore_the_parent() {
        let tracer = Tracer::new(8);
        tracer.set_batch(7);
        {
            let _outer = tracer.enter("outer");
            tracer.in_span("inner", || ());
            tracer.in_span("inner", || ());
        }
        tracer.in_span("sibling", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == outer.id && s.batch == 7));
        let sibling = spans.iter().find(|s| s.name == "sibling").expect("sibling");
        assert_eq!(sibling.parent, 0);
    }

    #[test]
    fn foreign_busy_time_becomes_one_aggregated_child() {
        let tracer = Tracer::new(8);
        {
            let _client = tracer.enter("service.sample_many");
            tracer.add_foreign(100, 130);
            tracer.add_foreign(140, 150);
            tracer.drain_foreign("server.sample_one");
        }
        let spans = tracer.spans();
        let server = spans
            .iter()
            .find(|s| s.name == "server.sample_one")
            .expect("aggregated span");
        let client = spans
            .iter()
            .find(|s| s.name == "service.sample_many")
            .expect("client span");
        assert_eq!(server.parent, client.id);
        assert_eq!(server.count, 2);
        assert_eq!(server.duration_ns(), 40);
        assert_eq!(server.start_ns, 100);
        // Nothing left to drain.
        tracer.drain_foreign("server.sample_one");
        assert_eq!(tracer.spans().len(), 2);
    }

    #[test]
    fn seed_replay_hands_back_the_drawn_seeds_in_order() {
        let mut r = SeedReplay::new(&[5, 9]);
        assert_eq!(r.next_u64(), 5);
        assert_eq!(r.next_u64(), 9);
    }
}
