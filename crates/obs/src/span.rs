//! Lightweight span tracing: enter/exit timing with parent linkage.
//!
//! A [`SpanTracer`] hands out RAII [`SpanGuard`]s. Entering a span takes
//! the next id from the tracer's one shared atomic (ids are entry-ordered
//! tracer-wide, so a parent's id is always below its children's), stamps a
//! monotonic start and pushes the span onto a thread-local stack (so
//! nested spans record their parent); dropping the guard — or
//! [`SpanGuard::finish`], which also returns the duration — measures it and
//! appends a [`SpanRecord`] to a bounded ring of recent completions.
//!
//! Spans fire per request on the serving path (`cluster.sample` →
//! `shard.sample` → `samtree.sample` for every sampled vertex), from
//! several lanes at once, so completion must not funnel through one lock
//! or one cache line. The ring is striped by the calling thread, with the
//! same per-thread index that [`Counter`] uses: each stripe keeps its own
//! `capacity` most recent spans under its own lock, and the completed
//! count is a striped [`Counter`]. [`SpanTracer::recent`] merges the
//! stripes by completion time and keeps the `capacity` newest, so on one
//! thread it returns exactly the single ring's sequence.

use crate::metrics::{stripe_index, Counter, STRIPES};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One completed span. The same type in the tracer ring, in a slow-op
/// capture and on the wire: a span recorded in this process borrows its
/// static name (entering and completing a span allocates nothing), one
/// decoded from a `SpanExport` reply owns it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `"wal.checkpoint"`.
    pub name: Cow<'static, str>,
    /// Unique id within this tracer (monotonic from 1).
    pub id: u64,
    /// Id of the span that was active on this thread when this span
    /// started, if any.
    pub parent: Option<u64>,
    /// Distributed trace this span belongs to (`0` = untraced). Children
    /// inherit the trace of their parent; roots take it from an explicit
    /// [`SpanTracer::span_traced`] / [`SpanTracer::span_remote`] call.
    pub trace_id: u64,
    /// Span id of the *remote* parent — the caller's span in another
    /// process — when this span is the server-side root of a cross-process
    /// request. Remote ids live in the caller's tracer id space; trace
    /// reassembly resolves them per fleet member.
    pub remote_parent: Option<u64>,
    /// Start offset in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub duration_ns: u64,
}

/// Cross-process trace context: carried in v2 wire frames so a server can
/// link its root span back to the client span that issued the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Distributed trace id (never 0 on the wire).
    pub trace_id: u64,
    /// The caller's span id, to become the callee root's `remote_parent`.
    pub parent_span: u64,
}

thread_local! {
    /// Stack of (tracer epoch id, span id, trace id) for parent linkage.
    /// The tracer epoch distinguishes spans from different tracers
    /// interleaved on one thread; a span only parents spans of the same
    /// tracer. The trace id rides along so children inherit their parent's
    /// trace and [`current_trace_context`] can read the ambient context.
    static ACTIVE: RefCell<Vec<(u64, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active traced span on this thread, as a wire-ready
/// [`TraceContext`]. Scans the active-span stack top-down for the first
/// entry with a nonzero trace id, across tracers: an RPC client embedded
/// in a fleet node picks up the trace opened by the serving dispatch even
/// though the two sides use different registries.
pub fn current_trace_context() -> Option<TraceContext> {
    ACTIVE.with(|stack| {
        stack
            .borrow()
            .iter()
            .rev()
            .find(|&&(_, _, trace)| trace != 0)
            .map(|&(_, id, trace)| TraceContext {
                trace_id: trace,
                parent_span: id,
            })
    })
}

/// Process-wide tracer instance counter (keys the thread-local stack).
static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

/// One thread stripe of the ring: its own lock and its own `capacity`
/// most recent completions, on a cache line of its own.
#[repr(align(64))]
#[derive(Debug, Default)]
struct RingStripe(Mutex<VecDeque<SpanRecord>>);

/// The next span id, on a cache line of its own: every span entry on
/// every thread bumps it, and the fields every span only reads must not
/// share its line.
#[repr(align(64))]
#[derive(Debug)]
struct NextId(AtomicU64);

/// Records recent spans into a bounded, thread-striped ring.
#[derive(Debug)]
pub struct SpanTracer {
    tracer_id: u64,
    epoch: Instant,
    /// The next span id; also the count of ids handed out.
    next_id: NextId,
    finished: Counter,
    capacity: usize,
    ring: [RingStripe; STRIPES],
    dropped: Arc<Counter>,
}

/// Default ring capacity: enough to hold every span of a short run and the
/// recent tail of a long one.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

impl Default for SpanTracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanTracer {
    /// Create a tracer whose [`SpanTracer::recent`] returns the `capacity`
    /// most recent spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_drop_counter(capacity, Arc::default())
    }

    /// Like [`SpanTracer::with_capacity`], tallying ring evictions into
    /// `dropped` (the registry wires its `obs.spans_dropped` counter here,
    /// so silent trace loss is visible in every snapshot). A stripe evicts
    /// its oldest span when it already holds `capacity`.
    pub fn with_drop_counter(capacity: usize, dropped: Arc<Counter>) -> Self {
        Self {
            tracer_id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_id: NextId(AtomicU64::new(1)),
            finished: Counter::new(),
            capacity: capacity.max(1),
            ring: Default::default(),
            dropped,
        }
    }

    /// Enter a span; it completes (and is recorded) when the guard drops.
    /// Inherits the trace id of its parent span, if any.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.enter(name, None, None, None)
    }

    /// Enter a span that *starts* trace `trace_id` (a client-side trace
    /// root). Children opened under it inherit the trace.
    pub fn span_traced(&self, name: &'static str, trace_id: u64) -> SpanGuard<'_> {
        self.enter(name, Some(trace_id), None, None)
    }

    /// Enter the server-side root of a cross-process request: the span
    /// joins trace `trace_id` and records `remote_parent` — the caller's
    /// span id in *its* process — for later cross-process stitching.
    pub fn span_remote(
        &self,
        name: &'static str,
        trace_id: u64,
        remote_parent: u64,
    ) -> SpanGuard<'_> {
        self.enter(name, Some(trace_id), None, Some(remote_parent))
    }

    /// Enter a span with an explicit local parent, for work handed to
    /// another thread (the thread-local stack cannot see across threads).
    /// The span is pushed onto this thread's stack, so nested spans link
    /// under it as usual.
    pub fn span_with_parent(
        &self,
        name: &'static str,
        parent: u64,
        trace_id: u64,
    ) -> SpanGuard<'_> {
        self.enter(name, Some(trace_id), Some(parent), None)
    }

    fn enter(
        &self,
        name: &'static str,
        trace_id: Option<u64>,
        explicit_parent: Option<u64>,
        remote_parent: Option<u64>,
    ) -> SpanGuard<'_> {
        let id = self.next_id.0.fetch_add(1, Ordering::Relaxed);
        let (parent, trace_id) = ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            let inherited = stack
                .iter()
                .rev()
                .find(|(t, _, _)| *t == self.tracer_id)
                .map(|&(_, id, trace)| (id, trace));
            let parent = explicit_parent.or(inherited.map(|(id, _)| id));
            let trace = trace_id.unwrap_or_else(|| inherited.map_or(0, |(_, t)| t));
            stack.push((self.tracer_id, id, trace));
            (parent, trace)
        });
        SpanGuard {
            tracer: self,
            name,
            id,
            parent,
            trace_id,
            remote_parent,
            start: Instant::now(),
            not_send: PhantomData,
        }
    }

    /// Spans entered so far: the ids handed out.
    pub fn started(&self) -> u64 {
        self.next_id.0.load(Ordering::Relaxed) - 1
    }

    /// Spans completed so far (including any evicted from the ring).
    pub fn finished(&self) -> u64 {
        self.finished.get()
    }

    /// Completed spans evicted from the ring before anyone read them.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The `capacity` most recently completed spans, oldest first. The
    /// stripes merge by completion time (`start_ns + duration_ns`, one
    /// monotonic clock), stably, so a thread's spans keep their completion
    /// order even when two end in the same nanosecond.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut spans = Vec::new();
        for stripe in &self.ring {
            spans.extend(stripe.0.lock().expect("span ring").iter().cloned());
        }
        spans.sort_by_key(|s| s.start_ns.saturating_add(s.duration_ns));
        let older = spans.len().saturating_sub(self.capacity);
        spans.drain(..older);
        spans
    }

    fn complete(&self, record: SpanRecord) {
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the top of the stack; a guard dropped out of order
            // is removed wherever it sits. Guards are not `Send`, so this
            // is always the stack of the thread that entered the span.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, id, _)| t == self.tracer_id && id == record.id)
            {
                stack.remove(pos);
            }
        });
        self.finished.inc();
        let mut ring = self.ring[stripe_index()].0.lock().expect("span ring");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(record);
    }
}

/// RAII guard for an in-flight span; records on drop or
/// [`SpanGuard::finish`].
///
/// Not `Send`: the span sits on the entering thread's span stack until it
/// completes, so a guard completed on another thread would leave a
/// finished span there as the parent of that thread's later spans. Work
/// handed to another thread opens its own span there with
/// [`SpanTracer::span_with_parent`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a SpanTracer,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    trace_id: u64,
    remote_parent: Option<u64>,
    start: Instant,
    not_send: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// This span's id (usable as an explicit parent reference).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to (`0` = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Complete the span now and return the duration it recorded, so a
    /// caller that also wants the latency reads the clock once.
    pub fn finish(self) -> Duration {
        std::mem::ManuallyDrop::new(self).record()
    }

    fn record(&mut self) -> Duration {
        let duration = self.start.elapsed();
        let nanos = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.tracer.complete(SpanRecord {
            name: Cow::Borrowed(self.name),
            id: self.id,
            parent: self.parent,
            trace_id: self.trace_id,
            remote_parent: self.remote_parent,
            start_ns: nanos(self.start.duration_since(self.tracer.epoch)),
            duration_ns: nanos(duration),
        });
        duration
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_with_parent_linkage() {
        let t = SpanTracer::default();
        {
            let outer = t.span("outer");
            let inner = t.span("inner");
            assert_eq!(t.recent().len(), 0, "nothing recorded until drop");
            drop(inner);
            drop(outer);
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 2);
        // Inner completes first; its parent is outer.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert!(spans[1].duration_ns >= spans[0].duration_ns);
        assert_eq!(t.started(), 2);
        assert_eq!(t.finished(), 2);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let t = SpanTracer::default();
        let outer = t.span("outer");
        let outer_id = outer.id();
        t.span("a");
        t.span("b");
        drop(outer);
        let spans = t.recent();
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(spans[1].parent, Some(outer_id));
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = SpanTracer::with_capacity(4);
        for i in 0..10 {
            let _g = t.span(if i % 2 == 0 { "even" } else { "odd" });
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 4);
        assert_eq!(t.finished(), 10);
        assert_eq!(t.dropped(), 6, "evictions are tallied");
        // Oldest-first: ids 7..=10 survive.
        assert_eq!(spans.first().map(|s| s.id), Some(7));
        assert_eq!(spans.last().map(|s| s.id), Some(10));
    }

    #[test]
    fn external_drop_counter_observes_evictions() {
        let dropped = Arc::new(Counter::new());
        let t = SpanTracer::with_drop_counter(2, Arc::clone(&dropped));
        for _ in 0..5 {
            let _g = t.span("s");
        }
        assert_eq!(dropped.get(), 3);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn two_tracers_do_not_cross_parent() {
        let a = SpanTracer::default();
        let b = SpanTracer::default();
        let ga = a.span("a_outer");
        let gb = b.span("b_only");
        drop(gb);
        drop(ga);
        assert_eq!(b.recent()[0].parent, None, "b must not parent under a");
    }

    #[test]
    fn parent_linkage_is_thread_local_and_tracer_local() {
        let a = SpanTracer::default();
        let b = SpanTracer::default();
        // Main thread holds an `a` root open across the worker's lifetime.
        let root = a.span("a_root");
        std::thread::scope(|s| {
            s.spawn(|| {
                // Same tracer, different thread: no inherited parent.
                drop(a.span("a_worker"));
                // Interleave both tracers on this thread; each child must
                // link under its own tracer's root only.
                let ra = a.span("a_inner_root");
                let rb = b.span("b_root");
                drop(a.span("a_child"));
                drop(b.span("b_child"));
                drop(rb);
                drop(ra);
            });
        });
        drop(root);
        let sa = a.recent();
        let by_name = |spans: &[SpanRecord], n: &str| {
            spans.iter().find(|s| s.name == n).cloned().expect("span")
        };
        assert_eq!(
            by_name(&sa, "a_worker").parent,
            None,
            "parent stack is thread-local: the open a_root on the main \
             thread must not parent a worker-thread span"
        );
        let a_inner = by_name(&sa, "a_inner_root");
        assert_eq!(by_name(&sa, "a_child").parent, Some(a_inner.id));
        let sb = b.recent();
        let b_root = by_name(&sb, "b_root");
        assert_eq!(
            b_root.parent, None,
            "tracer b must not parent under tracer a's open span"
        );
        assert_eq!(by_name(&sb, "b_child").parent, Some(b_root.id));
    }

    #[test]
    fn children_inherit_the_trace_and_context_is_readable() {
        let t = SpanTracer::default();
        assert_eq!(current_trace_context(), None);
        let root = t.span_traced("root", 77);
        let ctx = current_trace_context().expect("ambient context");
        assert_eq!(ctx.trace_id, 77);
        assert_eq!(ctx.parent_span, root.id());
        {
            let child = t.span("child");
            // The innermost traced span wins.
            assert_eq!(
                current_trace_context().map(|c| c.parent_span),
                Some(child.id())
            );
        }
        drop(root);
        assert_eq!(current_trace_context(), None);
        let spans = t.recent();
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].trace_id, 77, "children inherit the trace");
        assert_eq!(spans[1].trace_id, 77);
        assert_eq!(spans[1].remote_parent, None);
    }

    #[test]
    fn remote_root_records_the_callers_span() {
        let t = SpanTracer::default();
        {
            let _server_root = t.span_remote("rpc.server.request", 9, 41);
            drop(t.span("inner"));
        }
        let spans = t.recent();
        assert_eq!(spans[1].name, "rpc.server.request");
        assert_eq!(spans[1].remote_parent, Some(41));
        assert_eq!(spans[1].trace_id, 9);
        assert_eq!(spans[1].parent, None, "remote parent is not a local id");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].trace_id, 9);
    }

    #[test]
    fn explicit_parent_bridges_threads() {
        let t = SpanTracer::default();
        let root = t.span_traced("fan_out", 5);
        let (root_id, trace) = (root.id(), root.trace_id());
        std::thread::scope(|s| {
            s.spawn(|| {
                let g = t.span_with_parent("group", root_id, trace);
                assert_eq!(
                    current_trace_context().map(|c| c.parent_span),
                    Some(g.id()),
                    "explicit-parent spans join the thread's stack"
                );
                drop(t.span("leaf"));
            });
        });
        drop(root);
        let by_name = |spans: &[SpanRecord], n: &str| {
            spans.iter().find(|s| s.name == n).cloned().expect("span")
        };
        let spans = t.recent();
        let group = by_name(&spans, "group");
        assert_eq!(group.parent, Some(root_id));
        assert_eq!(group.trace_id, 5);
        assert_eq!(by_name(&spans, "leaf").parent, Some(group.id));
        assert_eq!(by_name(&spans, "leaf").trace_id, 5);
    }

    /// Compile-time check that `SpanGuard` is not `Send`: were it `Send`,
    /// both impls below would apply and the `_` could not be inferred.
    #[allow(dead_code)]
    trait AmbiguousIfSend<A> {
        fn some_item() {}
    }
    impl<T: ?Sized> AmbiguousIfSend<()> for T {}
    impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
    const _: fn() = || {
        let _ = <SpanGuard<'static> as AmbiguousIfSend<_>>::some_item;
    };

    #[test]
    fn finish_records_and_returns_the_duration() {
        let t = SpanTracer::default();
        let outer = t.span("outer");
        let d = t.span("inner").finish();
        assert_eq!(t.recent().len(), 1, "finish records at once");
        let inner = t.recent()[0].clone();
        assert_eq!(inner.duration_ns, d.as_nanos() as u64);
        assert_eq!(inner.parent, Some(outer.id()));
        // The finished span left the stack: the next one parents under
        // `outer`, not under it.
        drop(t.span("sibling"));
        assert_eq!(t.recent()[1].parent, Some(outer.id()));
        drop(outer);
        assert_eq!((t.started(), t.finished()), (3, 3));
    }

    #[test]
    fn striped_ring_is_exact_and_ordered_across_threads() {
        const PER_THREAD: u64 = 50;
        let t = SpanTracer::with_capacity(1024);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let outer = t.span("outer");
                        drop(t.span("inner"));
                        drop(outer);
                    }
                });
            }
        });
        assert_eq!(t.started(), 4 * 2 * PER_THREAD);
        assert_eq!(t.finished(), t.started());
        assert_eq!(t.dropped(), 0);
        let spans = t.recent();
        assert_eq!(spans.len() as u64, t.finished());
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len(), "no span appears twice");
        let end = |s: &SpanRecord| s.start_ns + s.duration_ns;
        assert!(spans.windows(2).all(|w| end(&w[0]) <= end(&w[1])));
        // Within a thread (one root chain per outer span), every inner
        // completes before its outer and after the previous outer.
        for s in spans.iter().filter(|s| s.name == "inner") {
            let at = |id| spans.iter().position(|x| x.id == id).expect("span");
            let parent = s.parent.expect("inner has its outer as parent");
            assert!(at(s.id) < at(parent), "a child completes first");
        }
    }

    #[test]
    fn ring_keeps_the_newest_capacity_across_threads() {
        let t = SpanTracer::with_capacity(8);
        std::thread::scope(|s| {
            s.spawn(|| (0..20).for_each(|_| drop(t.span("worker"))));
        });
        for _ in 0..20 {
            drop(t.span("main"));
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 8);
        // The main thread's spans all completed after the worker joined.
        assert!(spans.iter().all(|s| s.name == "main"), "{spans:?}");
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, (33..=40).collect::<Vec<_>>());
    }

    #[test]
    fn lane_span_on_another_thread_keeps_its_whole_chain() {
        let t = SpanTracer::default();
        let root = t.span_traced("cluster.sample_many", 3);
        let (root_id, trace) = (root.id(), root.trace_id());
        std::thread::scope(|s| {
            s.spawn(|| {
                let lane = t.span_with_parent("cluster.sample_lane", root_id, trace);
                let req = t.span("cluster.sample");
                drop(t.span("shard.sample"));
                drop(req);
                drop(lane);
            });
        });
        drop(t.span("cluster.sample"));
        drop(root);
        drop(t.span("unrelated"));
        let tree = crate::slow::span_subtree(&t.recent(), root_id);
        let names: Vec<&str> = tree.iter().map(|s| &*s.name).collect();
        assert_eq!(
            names,
            [
                "cluster.sample_many",
                "cluster.sample_lane",
                "cluster.sample",
                "shard.sample",
                "cluster.sample"
            ]
        );
        assert!(tree.iter().all(|s| s.trace_id == 3));
    }

    #[test]
    fn concurrent_span_recording() {
        let t = SpanTracer::with_capacity(1024);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _outer = t.span("outer");
                        let _inner = t.span("inner");
                    }
                });
            }
        });
        assert_eq!(t.finished(), 1600);
        assert_eq!(t.recent().len(), 1024);
    }
}
