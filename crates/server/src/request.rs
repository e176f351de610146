//! The unified sampling API: one request/response pair (the historical
//! `sample_neighbors` / `sample_neighbors_detailed` split is gone).
//!
//! A [`SampleRequest`] names the vertex, relation, fanout, and what the
//! router should do when the owning shard cannot answer; a
//! [`SampleResponse`] carries the draws plus per-slot provenance, so a
//! trainer can tell a real weighted draw from degraded padding without
//! re-deriving it from context.

use platod2gl_graph::{EdgeType, TimeWindow, VertexId};

/// What a degraded read (failed shard, exhausted retry budget) returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Return an empty neighbor set — the historical behavior; callers
    /// that pad (the k-hop sampler) do their own self-looping.
    #[default]
    EmptySet,
    /// Return `fanout` copies of the queried vertex, pre-padded: the
    /// standard GraphSAGE self-loop fallback, done router-side so shapes
    /// stay static for callers that cannot pad.
    SelfLoop,
}

/// Where one response slot came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotSource {
    /// A weighted draw served by the owning shard.
    Sampled,
    /// Self-loop padding produced by [`DegradedPolicy::SelfLoop`].
    SelfLoop,
}

/// A neighbor-sampling request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleRequest {
    /// The vertex whose out-neighborhood is sampled.
    pub vertex: VertexId,
    /// The relation to sample within.
    pub etype: EdgeType,
    /// Number of weighted draws requested.
    pub fanout: usize,
    /// Fallback behavior when the owning shard cannot answer.
    pub on_degraded: DegradedPolicy,
    /// Caller-supplied correlation id. Carried through the router and into
    /// any slow-op capture of this request, so an operator can find one
    /// known-bad request in `GET /debug/slow` by the id their client
    /// logged. Not interpreted by the router.
    pub trace_id: Option<u64>,
    /// Restrict draws to edges whose timestamp falls inside this window
    /// (timeless `ts == 0` edges always qualify). `None` samples the full
    /// neighborhood — the pre-temporal behavior.
    pub window: Option<TimeWindow>,
}

impl SampleRequest {
    /// A request with the default degraded policy ([`DegradedPolicy::EmptySet`]),
    /// no trace id, and no time window.
    pub fn new(vertex: VertexId, etype: EdgeType, fanout: usize) -> Self {
        Self {
            vertex,
            etype,
            fanout,
            on_degraded: DegradedPolicy::default(),
            trace_id: None,
            window: None,
        }
    }

    /// Set the degraded policy.
    pub fn on_degraded(mut self, policy: DegradedPolicy) -> Self {
        self.on_degraded = policy;
        self
    }

    /// Attach a correlation id for end-to-end tracing.
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.trace_id = Some(trace_id);
        self
    }

    /// Restrict this request to edges inside `window` (time-respecting
    /// sampling).
    pub fn in_window(mut self, window: TimeWindow) -> Self {
        self.window = Some(window);
        self
    }
}

/// The answer to a [`SampleRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleResponse {
    /// The drawn neighbor IDs (possibly fewer than `fanout` when the
    /// neighborhood is empty, or empty under [`DegradedPolicy::EmptySet`]).
    pub neighbors: Vec<VertexId>,
    /// Per-slot provenance, parallel to `neighbors`.
    pub sources: Vec<SlotSource>,
    /// True when the owning shard could not answer and the response is the
    /// degraded fallback.
    pub degraded: bool,
    /// The shard that owns (or would have owned) the request.
    pub shard: usize,
}

impl SampleResponse {
    /// The fallback for a request whose owning shard cannot answer, shaped
    /// by the request's own [`DegradedPolicy`]. Every layer that gives up
    /// on a request — the router on a failed shard, the rpc server past a
    /// deadline, the clients past their retry budget — answers with this,
    /// so a trainer sees one degraded shape wherever the fault sits.
    pub fn degraded(req: &SampleRequest, shard: usize) -> Self {
        let (neighbors, sources) = match req.on_degraded {
            DegradedPolicy::EmptySet => (Vec::new(), Vec::new()),
            DegradedPolicy::SelfLoop => (
                vec![req.vertex; req.fanout],
                vec![SlotSource::SelfLoop; req.fanout],
            ),
        };
        Self {
            neighbors,
            sources,
            degraded: true,
            shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_defaults_to_empty_set() {
        let r = SampleRequest::new(VertexId(1), EdgeType(0), 5);
        assert_eq!(r.on_degraded, DegradedPolicy::EmptySet);
        let r = r.on_degraded(DegradedPolicy::SelfLoop);
        assert_eq!(r.on_degraded, DegradedPolicy::SelfLoop);
        assert_eq!(r.fanout, 5);
        assert_eq!(r.trace_id, None);
        assert_eq!(r.window, None);
        assert_eq!(r.with_trace_id(99).trace_id, Some(99));
        assert_eq!(
            r.in_window(TimeWindow::new(5, 10)).window,
            Some(TimeWindow::new(5, 10))
        );
    }
}
