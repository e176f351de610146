//! # Graph model, dataset profiles and workload generators
//!
//! PlatoD2GL operates on *simple directed weighted heterogeneous* graphs
//! (paper Sec. II-A): multiple vertex/edge types, one weight per edge, and a
//! stream of updates over time.
//!
//! This crate provides:
//!
//! * the core value types ([`VertexId`], [`Edge`], [`UpdateOp`], …),
//! * the [`GraphStore`] trait every storage engine in the workspace
//!   implements (PlatoD2GL's samtree store and both baselines), so the
//!   operator layer and benchmarks are engine-agnostic,
//! * [`DatasetProfile`]s reproducing the paper's Table III datasets (OGBN,
//!   Reddit, WeChat) at configurable scale, and
//! * deterministic [`EdgeStream`] / [`UpdateStream`] generators with
//!   Zipf-distributed degrees, standing in for the production traces we do
//!   not have (see DESIGN.md §3 for the substitution argument).

pub mod conformance;
pub mod cursor;
mod edgelist;
mod error;
mod generator;
mod health;
mod profile;
mod store;
mod txn;

pub use edgelist::{for_each_edge, read_edge_list, write_edge_list};
pub use error::Error;
pub use generator::{EdgeStream, UpdateStream, ZipfSampler};
pub use health::ShardHealth;
pub use profile::{DatasetProfile, RelationSpec};
pub use store::GraphStore;
pub use txn::{
    merge_parts, validate_and_lower, validate_part, GraphTxn, TxnError, TxnOp, TxnReceipt, TxnView,
    TxnViolation, ViolationKind,
};

use serde::{Deserialize, Serialize};

/// A vertex identifier: 64 bits, with the vertex type packed into the top 16
/// bits and the per-type index in the low 48.
///
/// Packing the type into the ID mirrors production deployments (and the
/// paper's Fig. 7 compression example, where IDs in one tree node share long
/// hexadecimal prefixes): vertices of one type form a contiguous ID range,
/// so samtree nodes hold IDs with common prefixes that CP-ID compression can
/// exploit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u64);

impl VertexId {
    /// Compose an ID from a vertex type and a per-type index.
    ///
    /// # Panics
    /// If `index` does not fit in 48 bits.
    pub fn compose(vtype: VertexType, index: u64) -> Self {
        assert!(index < (1 << 48), "vertex index overflows 48 bits");
        Self(((vtype.0 as u64) << 48) | index)
    }

    /// The raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The vertex type packed in the top 16 bits.
    #[inline]
    pub fn vtype(self) -> VertexType {
        VertexType((self.0 >> 48) as u16)
    }

    /// The per-type index in the low 48 bits.
    #[inline]
    pub fn index(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

impl std::fmt::Debug for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}:{}", self.vtype().0, self.index())
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// A vertex type tag (user, live-room, tag, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct VertexType(pub u16);

/// An edge type tag (relation), e.g. the WeChat dataset's `User-Live`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct EdgeType(pub u16);

impl EdgeType {
    /// The default relation for homogeneous graphs.
    pub const DEFAULT: EdgeType = EdgeType(0);
}

/// A directed weighted typed edge `e(u, v, w)` with an event timestamp.
///
/// `ts` is the edge's event time in whatever unit the workload chooses
/// (seconds, milliseconds, logical ticks). `ts == 0` means "no timestamp":
/// static workloads never set it, and the temporal plane (windowed
/// sampling, recency decay) treats such edges as timeless — always
/// in-window, never decayed.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
    pub etype: EdgeType,
    pub weight: f64,
    pub ts: u64,
}

impl Edge {
    /// An edge in the default relation (timeless: `ts == 0`).
    pub fn new(src: VertexId, dst: VertexId, weight: f64) -> Self {
        Self {
            src,
            dst,
            etype: EdgeType::DEFAULT,
            weight,
            ts: 0,
        }
    }

    /// The same edge stamped with an event time.
    pub fn at(self, ts: u64) -> Self {
        Self { ts, ..self }
    }

    /// The same edge in the opposite direction (the paper's datasets are all
    /// bi-directed).
    pub fn reversed(&self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            etype: self.etype,
            weight: self.weight,
            ts: self.ts,
        }
    }
}

/// An inclusive event-time window `[min_ts, max_ts]` constraining sampling.
///
/// A windowed sample request only returns neighbors whose edge timestamp
/// lies inside the window; edges with `ts == 0` (timeless) are always
/// considered in-window so static data keeps working when a window is
/// applied. The window is part of the `NeighborCache` key, the wire v2
/// sample-batch trailer, and the k-hop sampler's hop-to-hop propagation
/// contract (a child hop can never see edges newer than its seed allows).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct TimeWindow {
    pub min_ts: u64,
    pub max_ts: u64,
}

impl TimeWindow {
    /// A window covering `[min_ts, max_ts]` inclusive.
    pub fn new(min_ts: u64, max_ts: u64) -> Self {
        Self { min_ts, max_ts }
    }

    /// Everything at or before `max_ts` — the time-respecting sampler's
    /// "never newer than the seed" contract.
    pub fn until(max_ts: u64) -> Self {
        Self { min_ts: 0, max_ts }
    }

    /// Whether an edge timestamp is inside the window. Timeless edges
    /// (`ts == 0`) always pass.
    #[inline]
    pub fn contains(&self, ts: u64) -> bool {
        ts == 0 || (self.min_ts <= ts && ts <= self.max_ts)
    }
}

/// splitmix64: the workspace's one full-avalanche 64-bit mix. Shard and
/// partition routing, rendezvous scores, derived txn ids, cache segment
/// choice and hash features all go through it, so processes that must
/// agree on a hash agree by construction.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Ingest-boundary policy for edge weights.
///
/// Sampling probabilities are `w_{v,u} / w_v`: a single NaN or infinite
/// weight poisons every weight sum and CDF above it in the samtree, turning
/// one bad record into corrupted sampling for the whole neighborhood. Every
/// storage engine therefore sanitizes weights once, at the ingest boundary
/// (insert / update-weight / batch apply):
///
/// * debug builds **assert**, so tests catch the producer of the bad value;
/// * release builds **clamp** non-finite weights to `0.0` (the edge exists
///   but is never sampled), preferring a degraded edge over a poisoned
///   index or a crashed ingest pipeline.
pub fn sanitize_weight(weight: f64) -> f64 {
    debug_assert!(
        weight.is_finite(),
        "non-finite edge weight {weight} reached the ingest boundary"
    );
    if weight.is_finite() {
        weight
    } else {
        0.0
    }
}

/// A dynamic-graph update operation (paper Sec. II-B lists the three cases:
/// new insertion, in-place weight update, deletion).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Insert a new edge (or, if it already exists, update its weight — the
    /// semantics of Alg. 2 lines 3-6).
    Insert(Edge),
    /// Remove an edge.
    Delete {
        src: VertexId,
        dst: VertexId,
        etype: EdgeType,
    },
    /// Set the weight of an existing edge.
    UpdateWeight(Edge),
}

impl UpdateOp {
    /// The source vertex the op routes on (all stores shard by source).
    pub fn src(&self) -> VertexId {
        match self {
            UpdateOp::Insert(e) | UpdateOp::UpdateWeight(e) => e.src,
            UpdateOp::Delete { src, .. } => *src,
        }
    }

    /// The destination vertex.
    pub fn dst(&self) -> VertexId {
        match self {
            UpdateOp::Insert(e) | UpdateOp::UpdateWeight(e) => e.dst,
            UpdateOp::Delete { dst, .. } => *dst,
        }
    }

    /// The edge type.
    pub fn etype(&self) -> EdgeType {
        match self {
            UpdateOp::Insert(e) | UpdateOp::UpdateWeight(e) => e.etype,
            UpdateOp::Delete { etype, .. } => *etype,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_packs_type_and_index() {
        let v = VertexId::compose(VertexType(3), 12345);
        assert_eq!(v.vtype(), VertexType(3));
        assert_eq!(v.index(), 12345);
        assert_eq!(v.raw(), (3u64 << 48) | 12345);
    }

    #[test]
    fn vertex_ids_of_same_type_are_contiguous() {
        let a = VertexId::compose(VertexType(1), 0);
        let b = VertexId::compose(VertexType(1), 1);
        assert_eq!(b.raw(), a.raw() + 1);
        // Different types live in disjoint ranges.
        let c = VertexId::compose(VertexType(2), 0);
        assert!(c.raw() > VertexId::compose(VertexType(1), (1 << 48) - 1).raw());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn vertex_index_overflow_panics() {
        VertexId::compose(VertexType(0), 1 << 48);
    }

    #[test]
    fn edge_reversed_swaps_endpoints() {
        let e = Edge::new(VertexId(1), VertexId(2), 0.5).at(42);
        let r = e.reversed();
        assert_eq!(r.src, VertexId(2));
        assert_eq!(r.dst, VertexId(1));
        assert_eq!(r.weight, 0.5);
        assert_eq!(r.ts, 42);
        assert_eq!(r.reversed(), e);
    }

    #[test]
    fn time_window_contains_is_inclusive_and_timeless_edges_pass() {
        let w = TimeWindow::new(10, 20);
        assert!(w.contains(10));
        assert!(w.contains(20));
        assert!(!w.contains(9));
        assert!(!w.contains(21));
        // ts == 0 means "no timestamp": always in-window.
        assert!(w.contains(0));
        let u = TimeWindow::until(5);
        assert!(u.contains(1) && u.contains(5) && !u.contains(6));
    }

    #[test]
    fn update_op_accessors() {
        let e = Edge::new(VertexId(1), VertexId(2), 1.0);
        assert_eq!(UpdateOp::Insert(e).src(), VertexId(1));
        assert_eq!(UpdateOp::Insert(e).dst(), VertexId(2));
        let d = UpdateOp::Delete {
            src: VertexId(9),
            dst: VertexId(8),
            etype: EdgeType(2),
        };
        assert_eq!(d.src(), VertexId(9));
        assert_eq!(d.dst(), VertexId(8));
        assert_eq!(d.etype(), EdgeType(2));
    }

    #[test]
    fn display_is_hex_like_the_papers_compression_figure() {
        let v = VertexId(0x10);
        assert_eq!(v.to_string(), "0x0000000000000010");
    }
}
