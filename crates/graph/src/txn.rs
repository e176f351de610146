//! Typed graph transactions: the two-phase validated batch-op layer.
//!
//! PlatoD2GL's dynamic-graph premise is only trustworthy if a batch of
//! updates is all-or-nothing — across shards and across crashes. A
//! [`GraphTxn`] is the typed front half of that contract:
//!
//! * **Phase 1** ([`validate_and_lower`]) checks the *whole* batch against
//!   live topology (through a [`TxnView`]) before anything mutates:
//!   dangling deletes and weight patches, duplicate ops on one key,
//!   non-finite weights, unknown edge types, empty transactions. Any
//!   violation aborts the transaction with a structured [`TxnError`]
//!   carrying *every* violation found — zero changes applied. Validation
//!   runs one sorted plan, not op-by-op bookkeeping: the edge ops and
//!   vertex-delete claims are sorted once by `(src, etype, dst)`, so every
//!   conflict is between neighbours in the plan and no hash map is needed
//!   (the paper's PALM sort-then-partition, Sec. VI-B / App. B, applied to
//!   validation). Every conflict is between ops with one source vertex, so
//!   the plan also runs per part ([`validate_part`]): the cluster cuts a
//!   transaction by owning shard, walks each shard's plan on its own
//!   thread and merges the verdicts ([`merge_parts`]) into exactly what the
//!   whole-txn walk returns. [`validate_and_lower`] is the one-part case.
//! * **Phase 2** applies the lowered [`UpdateOp`] list atomically through
//!   the executing store (the durable store logs it as one WAL record;
//!   the cluster fans it out per shard). Phase 2
//!   never revalidates: lowering already resolved every op against
//!   pre-transaction state, and the duplicate-key rule guarantees the
//!   lowered ops are key-disjoint, so apply order within the batch cannot
//!   change the outcome.
//!
//! The op vocabulary is deliberately higher-level than [`UpdateOp`]:
//! [`TxnOp::DeleteVertex`] expands to deletes of the vertex's *current*
//! out-neighbors at validation time, and [`TxnOp::UpsertVertex`] is a
//! validation anchor that lowers to nothing (vertices materialize with
//! their first edge in every engine here).
//!
//! All ops in one transaction read **pre-transaction state**: that is what
//! the duplicate-key rejection buys. Two ops on one `(src, dst, etype)`
//! key — or an edge op under a [`TxnOp::DeleteVertex`] claiming the whole
//! `(src, etype, *)` range — would make the outcome order-dependent, so
//! phase 1 rejects the pair instead of picking a winner.

use crate::{Edge, EdgeType, Error, UpdateOp, VertexId};
use std::fmt;

/// One typed operation inside a [`GraphTxn`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TxnOp {
    /// Insert an edge (or update its weight if present — Alg. 2 upsert
    /// semantics, same as [`UpdateOp::Insert`]).
    InsertEdge(Edge),
    /// Delete an edge that must exist at validation time.
    DeleteEdge {
        src: VertexId,
        dst: VertexId,
        etype: EdgeType,
    },
    /// Set the weight of an edge that must exist at validation time.
    PatchWeight(Edge),
    /// Assert a vertex into existence. Engines here materialize vertices
    /// with their first edge, so this lowers to no [`UpdateOp`]s; it
    /// participates in duplicate-key validation and documents intent.
    UpsertVertex { vertex: VertexId },
    /// Delete every current out-edge of `vertex` in the relation. Expands
    /// at validation time to one delete per neighbor; claims the whole
    /// `(vertex, etype, *)` keyspace for conflict purposes.
    DeleteVertex { vertex: VertexId, etype: EdgeType },
}

impl TxnOp {
    /// The vertex that owns the op: the source every store and fleet map
    /// routes on, as [`UpdateOp::src`] is for lowered ops.
    pub fn src(&self) -> VertexId {
        match self {
            TxnOp::InsertEdge(e) | TxnOp::PatchWeight(e) => e.src,
            TxnOp::DeleteEdge { src, .. } => *src,
            TxnOp::UpsertVertex { vertex } | TxnOp::DeleteVertex { vertex, .. } => *vertex,
        }
    }
}

/// A transaction: a client-chosen id plus its typed ops.
///
/// The id is the retry/idempotence token: a remote client re-sends the
/// same id when a reply is lost, and the server's transaction ledger
/// answers replays from the committed receipt instead of re-applying.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphTxn {
    id: u64,
    ops: Vec<TxnOp>,
}

impl GraphTxn {
    /// Start an empty transaction with a client-chosen id.
    pub fn new(id: u64) -> Self {
        GraphTxn {
            id,
            ops: Vec::new(),
        }
    }

    /// The transaction id (idempotence token).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The typed ops, in submission order.
    pub fn ops(&self) -> &[TxnOp] {
        &self.ops
    }

    /// Number of typed ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no ops have been added (phase 1 rejects empty txns).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append any op.
    pub fn push(&mut self, op: TxnOp) {
        self.ops.push(op);
    }

    /// Builder: insert (or upsert) an edge.
    pub fn insert_edge(mut self, edge: Edge) -> Self {
        self.ops.push(TxnOp::InsertEdge(edge));
        self
    }

    /// Builder: delete an existing edge.
    pub fn delete_edge(mut self, src: VertexId, dst: VertexId, etype: EdgeType) -> Self {
        self.ops.push(TxnOp::DeleteEdge { src, dst, etype });
        self
    }

    /// Builder: set the weight of an existing edge.
    pub fn patch_weight(mut self, edge: Edge) -> Self {
        self.ops.push(TxnOp::PatchWeight(edge));
        self
    }

    /// Builder: assert a vertex into existence.
    pub fn upsert_vertex(mut self, vertex: VertexId) -> Self {
        self.ops.push(TxnOp::UpsertVertex { vertex });
        self
    }

    /// Builder: delete all of a vertex's out-edges in one relation.
    pub fn delete_vertex(mut self, vertex: VertexId, etype: EdgeType) -> Self {
        self.ops.push(TxnOp::DeleteVertex { vertex, etype });
        self
    }
}

/// Why one op failed phase-1 validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// [`TxnOp::DeleteEdge`] names an edge that does not exist.
    DanglingDelete,
    /// [`TxnOp::PatchWeight`] names an edge that does not exist.
    DanglingPatch,
    /// Two ops touch one key (or a [`TxnOp::DeleteVertex`] claim overlaps
    /// an edge op), making the outcome order-dependent.
    DuplicateKey,
    /// A NaN or infinite weight reached the transaction boundary.
    NonFiniteWeight,
    /// The op names an edge type outside the view's registered range.
    UnknownEtype,
    /// The transaction carries no ops.
    Empty,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::DanglingDelete => "dangling delete",
            ViolationKind::DanglingPatch => "dangling weight patch",
            ViolationKind::DuplicateKey => "duplicate key",
            ViolationKind::NonFiniteWeight => "non-finite weight",
            ViolationKind::UnknownEtype => "unknown edge type",
            ViolationKind::Empty => "empty transaction",
        })
    }
}

/// One phase-1 violation: which op, what rule, and the specifics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnViolation {
    /// Index of the offending op in [`GraphTxn::ops`].
    pub op_index: usize,
    pub kind: ViolationKind,
    /// Human-readable specifics (the key, the conflicting op index, …).
    pub detail: String,
}

impl fmt::Display for TxnViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {}: {}: {}", self.op_index, self.kind, self.detail)
    }
}

/// Why a transaction did not commit.
#[derive(Debug)]
pub enum TxnError {
    /// Phase 1 rejected the batch; zero changes were applied. Carries
    /// every violation found, not just the first.
    Rejected {
        txn_id: u64,
        violations: Vec<TxnViolation>,
    },
    /// Phase 2 could not run (shard down/panicked, WAL I/O failure). For
    /// the durable store, recovery drops a torn transaction record whole,
    /// so the on-disk outcome is still all-or-nothing.
    Store(Error),
}

impl TxnError {
    /// The phase-1 violations, empty for store-side failures.
    pub fn violations(&self) -> &[TxnViolation] {
        match self {
            TxnError::Rejected { violations, .. } => violations,
            TxnError::Store(_) => &[],
        }
    }

    /// True when phase 1 rejected the batch (a clean, zero-change abort).
    pub fn is_rejected(&self) -> bool {
        matches!(self, TxnError::Rejected { .. })
    }
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Rejected { txn_id, violations } => {
                write!(
                    f,
                    "txn {txn_id} rejected with {} violation(s)",
                    violations.len()
                )?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            TxnError::Store(e) => write!(f, "txn store failure: {e}"),
        }
    }
}

impl std::error::Error for TxnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Store(e) => Some(e),
            TxnError::Rejected { .. } => None,
        }
    }
}

impl From<Error> for TxnError {
    fn from(e: Error) -> Self {
        TxnError::Store(e)
    }
}

impl From<std::io::Error> for TxnError {
    fn from(e: std::io::Error) -> Self {
        TxnError::Store(Error::Io(e))
    }
}

/// Commit acknowledgement: what a successful [`GraphTxn`] applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnReceipt {
    /// The transaction id echoed back.
    pub txn_id: u64,
    /// Lowered [`UpdateOp`]s applied (0 for pure-upsert transactions).
    pub ops_applied: u64,
    /// The service's graph version after the commit (0 where the executor
    /// has no version counter, e.g. a bare durable store).
    pub graph_version: u64,
    /// True when this receipt answered a replayed txn id from the ledger
    /// instead of a fresh apply (idempotent retry).
    pub deduped: bool,
}

/// Read access to live topology for phase-1 validation.
///
/// Implemented by any executor that can answer point lookups: the durable
/// store validates against its in-memory store (`DynamicGraphStore`), the
/// cluster against its routed shards. `known_etype` defaults to accepting
/// everything — views with a registered relation schema override it.
pub trait TxnView {
    /// Weight of the edge, if it exists.
    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64>;

    /// All current out-neighbors of `v` with weights (drives
    /// [`TxnOp::DeleteVertex`] expansion).
    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)>;

    /// Whether the edge type is registered. Defaults to `true` (no schema).
    fn known_etype(&self, etype: EdgeType) -> bool {
        let _ = etype;
        true
    }
}

/// One entry of the validation plan: an edge op (`edge`), or a
/// [`TxnOp::DeleteVertex`] claim on the whole `(src, etype, *)` range. The
/// derived order sorts a group's claims ahead of its edge ops, the edge
/// ops by destination, and equal keys by op index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlanEntry {
    src: u64,
    etype: u16,
    edge: bool,
    /// The destination; 0 for a claim.
    dst: u64,
    op: usize,
}

/// The checks one op goes through, in the order an op-by-op pass runs
/// them: sorting violations by `(op_index, Check)` lists them in that
/// pass's order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Check {
    /// Second op on an edge key, a vertex-delete range or a vertex upsert.
    Duplicate,
    /// An edge op and a vertex delete on one `(src, etype)` range.
    ClaimConflict,
    UnknownEtype,
    Dangling,
    NonFinite,
}

/// Phase 1: validate the whole transaction against `view` and lower it to
/// a key-disjoint, deterministically ordered [`UpdateOp`] batch.
///
/// The one-part case of [`validate_part`] and [`merge_parts`]: every op is
/// one part. Collects **every** violation before returning (an operator
/// fixing a rejected feed batch wants the full list, not a
/// fix-one-resubmit loop), in op order: by op index, then in the order of
/// the checks one op goes through. On success the lowered ops are sorted by
/// `(src, etype, dst)` — a total order, because duplicate-key rejection made
/// the keys disjoint — so the WAL record of a given logical transaction is
/// reproducible regardless of submission order.
pub fn validate_and_lower(txn: &GraphTxn, view: &dyn TxnView) -> Result<Vec<UpdateOp>, TxnError> {
    let whole = validate_part(txn, 0..txn.ops.len(), view);
    Ok(merge_parts(txn, vec![whole])?.pop().unwrap_or_default())
}

/// Phase 1 for one part of a transaction: the ops at indices `ops` (into
/// [`GraphTxn::ops`], each at most once), validated against `view` and
/// lowered.
///
/// A part must hold every op with a given source vertex that the
/// transaction carries, so that every conflict it can have is inside the
/// part: splitting by [`TxnOp::src`], as the cluster splits by owning
/// shard, does that. Violations and their `detail` strings name the ops by
/// their index in the whole transaction.
///
/// One sorted plan does the work: every edge op and every
/// [`TxnOp::DeleteVertex`] claim becomes a `(src, etype, dst, op index)`
/// entry, the list is sorted once, and the walk goes group by group over
/// `(src, etype)`. A duplicate edge key is two adjacent entries with one
/// destination; a claim conflict is the group's first claim against its
/// first edge op. [`TxnOp::UpsertVertex`] claims sort on their own.
/// Deletes and patches are probed one [`TxnView::edge_weight`] each: in the
/// benchmark's transactions a group holds about 1.2 probed ops, too few
/// for a per-group probe to pay for itself.
///
/// `Ok` holds the part's lowered ops sorted by `(src, etype, dst)`; `Err`
/// holds its violations in op order. [`merge_parts`] turns the parts'
/// verdicts into the transaction's.
pub fn validate_part(
    txn: &GraphTxn,
    ops: impl IntoIterator<Item = usize>,
    view: &dyn TxnView,
) -> Result<Vec<UpdateOp>, Vec<TxnViolation>> {
    let ops = ops.into_iter();
    let mut plan: Vec<PlanEntry> = Vec::with_capacity(ops.size_hint().0);
    let mut upserts: Vec<(u64, usize)> = Vec::new();
    for op in ops {
        let txn_op = txn.ops[op];
        let src = txn_op.src().raw();
        let (etype, dst) = match txn_op {
            TxnOp::InsertEdge(e) | TxnOp::PatchWeight(e) => (e.etype, Some(e.dst)),
            TxnOp::DeleteEdge { dst, etype, .. } => (etype, Some(dst)),
            TxnOp::DeleteVertex { etype, .. } => (etype, None),
            TxnOp::UpsertVertex { .. } => {
                upserts.push((src, op));
                continue;
            }
        };
        plan.push(PlanEntry {
            src,
            etype: etype.0,
            edge: dst.is_some(),
            dst: dst.map_or(0, VertexId::raw),
            op,
        });
    }
    plan.sort_unstable();
    upserts.sort_unstable();

    let mut flagged: Vec<(Check, TxnViolation)> = Vec::new();
    let mut flag = |op_index, check, kind, detail| {
        let violation = TxnViolation {
            op_index,
            kind,
            detail,
        };
        flagged.push((check, violation));
    };
    let mut lowered: Vec<UpdateOp> = Vec::with_capacity(plan.len());
    for group in plan.chunk_by(|a, b| (a.src, a.etype) == (b.src, b.etype)) {
        let (src, etype) = (VertexId(group[0].src), EdgeType(group[0].etype));
        let (claims, edges) = group.split_at(group.partition_point(|e| !e.edge));
        let known = view.known_etype(etype);
        let first_claim = claims.first().map(|c| c.op);
        let first_edge = edges.iter().map(|e| e.op).min();

        for c in claims {
            if let Some(j) = first_claim.filter(|&j| j < c.op) {
                flag(
                    c.op,
                    Check::Duplicate,
                    ViolationKind::DuplicateKey,
                    format!("vertex {src:?} etype {} already deleted by op {j}", etype.0),
                );
            }
            if let Some(j) = first_edge.filter(|&j| j < c.op) {
                flag(
                    c.op,
                    Check::ClaimConflict,
                    ViolationKind::DuplicateKey,
                    format!(
                        "op {j} touches an edge of {src:?} etype {} covered by this delete",
                        etype.0
                    ),
                );
            }
            if !known {
                flag(
                    c.op,
                    Check::UnknownEtype,
                    ViolationKind::UnknownEtype,
                    format!("etype {} is not registered", etype.0),
                );
            }
        }
        if known && first_claim.is_some() {
            // Expand against pre-transaction topology. A vertex with no
            // out-edges is a legal no-op delete.
            let start = lowered.len();
            let neighbors = view.neighbors(src, etype).into_iter();
            lowered.extend(neighbors.map(|(dst, _w)| UpdateOp::Delete { src, dst, etype }));
            lowered[start..].sort_unstable_by_key(|op| op.dst().raw());
        }

        for run in edges.chunk_by(|a, b| a.dst == b.dst) {
            let dst = VertexId(run[0].dst);
            for (k, e) in run.iter().enumerate() {
                if k > 0 {
                    flag(
                        e.op,
                        Check::Duplicate,
                        ViolationKind::DuplicateKey,
                        format!(
                            "edge ({src:?} -> {dst:?}, etype {}) already touched by op {}",
                            etype.0, run[0].op
                        ),
                    );
                }
                if let Some(j) = first_claim.filter(|&j| j < e.op) {
                    flag(
                        e.op,
                        Check::ClaimConflict,
                        ViolationKind::DuplicateKey,
                        format!(
                            "op {j} deletes vertex {src:?} in etype {}, covering this edge",
                            etype.0
                        ),
                    );
                }
                if !known {
                    flag(
                        e.op,
                        Check::UnknownEtype,
                        ViolationKind::UnknownEtype,
                        format!("etype {} is not registered", etype.0),
                    );
                }
                // (lowered op, violation if the edge is missing, weight).
                let (op, dangling, weighed) = match txn.ops[e.op] {
                    TxnOp::InsertEdge(edge) => {
                        (UpdateOp::Insert(edge), None, Some((edge.weight, "insert")))
                    }
                    TxnOp::DeleteEdge { .. } => (
                        UpdateOp::Delete { src, dst, etype },
                        Some(ViolationKind::DanglingDelete),
                        None,
                    ),
                    TxnOp::PatchWeight(edge) => (
                        UpdateOp::UpdateWeight(edge),
                        Some(ViolationKind::DanglingPatch),
                        Some((edge.weight, "patch")),
                    ),
                    TxnOp::UpsertVertex { .. } | TxnOp::DeleteVertex { .. } => {
                        unreachable!("the plan's edge entries are edge ops")
                    }
                };
                lowered.push(op);
                let missing = || view.edge_weight(src, dst, etype).is_none();
                if let Some(kind) = dangling.filter(|_| known && missing()) {
                    flag(
                        e.op,
                        Check::Dangling,
                        kind,
                        format!(
                            "edge ({src:?} -> {dst:?}, etype {}) does not exist",
                            etype.0
                        ),
                    );
                }
                if let Some((weight, verb)) = weighed.filter(|(w, _)| !w.is_finite()) {
                    flag(
                        e.op,
                        Check::NonFinite,
                        ViolationKind::NonFiniteWeight,
                        format!("{verb} of ({src:?} -> {dst:?}) carries weight {weight}"),
                    );
                }
            }
        }
    }
    for run in upserts.chunk_by(|a, b| a.0 == b.0) {
        let (vertex, first) = (VertexId(run[0].0), run[0].1);
        for &(_, op) in &run[1..] {
            flag(
                op,
                Check::Duplicate,
                ViolationKind::DuplicateKey,
                format!("vertex {vertex:?} already upserted by op {first}"),
            );
        }
    }

    if flagged.is_empty() {
        return Ok(lowered);
    }
    flagged.sort_unstable_by_key(|(check, v)| (v.op_index, *check));
    Err(flagged.into_iter().map(|(_, v)| v).collect())
}

/// The transaction's phase-1 verdict from its parts' ([`validate_part`]):
/// the lowered ops of each part, in part order, or every violation.
///
/// The empty-transaction check is whole-txn, so it lives here. Every op
/// sits in exactly one part and each part lists its violations in op
/// order, so a stable sort by op index yields the list one part holding
/// every op would have produced: the same violations in the same order.
pub fn merge_parts(
    txn: &GraphTxn,
    parts: Vec<Result<Vec<UpdateOp>, Vec<TxnViolation>>>,
) -> Result<Vec<Vec<UpdateOp>>, TxnError> {
    let rejected = |violations| TxnError::Rejected {
        txn_id: txn.id,
        violations,
    };
    if txn.ops.is_empty() {
        return Err(rejected(vec![TxnViolation {
            op_index: 0,
            kind: ViolationKind::Empty,
            detail: "transaction carries no ops".to_string(),
        }]));
    }
    let mut lowered = Vec::with_capacity(parts.len());
    let mut violations = Vec::new();
    for part in parts {
        match part {
            Ok(ops) => lowered.push(ops),
            Err(found) => violations.extend(found),
        }
    }
    if violations.is_empty() {
        return Ok(lowered);
    }
    violations.sort_by_key(|v| v.op_index);
    Err(rejected(violations))
}

/// The op-by-op validator [`validate_and_lower`] replaced, kept unchanged
/// as the oracle its sorted plan is checked against.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::HashMap;

    pub fn validate_and_lower(
        txn: &GraphTxn,
        view: &dyn TxnView,
    ) -> Result<Vec<UpdateOp>, TxnError> {
        let mut violations: Vec<TxnViolation> = Vec::new();
        if txn.ops.is_empty() {
            violations.push(TxnViolation {
                op_index: 0,
                kind: ViolationKind::Empty,
                detail: "transaction carries no ops".to_string(),
            });
            return Err(TxnError::Rejected {
                txn_id: txn.id,
                violations,
            });
        }

        // Conflict tracking. Keys are raw ids so one map covers all op kinds:
        //  * edge_keys    — first op per (src, etype, dst)
        //  * edge_sources — first edge op per (src, etype) (DeleteVertex overlap)
        //  * source_claims— DeleteVertex claims on a whole (src, etype) range
        //  * vertex_claims— UpsertVertex claims per vertex
        let mut edge_keys: HashMap<(u64, u16, u64), usize> = HashMap::new();
        let mut edge_sources: HashMap<(u64, u16), usize> = HashMap::new();
        let mut source_claims: HashMap<(u64, u16), usize> = HashMap::new();
        let mut vertex_claims: HashMap<u64, usize> = HashMap::new();
        let mut lowered: Vec<UpdateOp> = Vec::with_capacity(txn.ops.len());

        let violate = |violations: &mut Vec<TxnViolation>, i: usize, kind, detail: String| {
            violations.push(TxnViolation {
                op_index: i,
                kind,
                detail,
            });
        };

        for (i, op) in txn.ops.iter().enumerate() {
            // Edge-granular ops share the key bookkeeping.
            let mut claim_edge_key = |violations: &mut Vec<TxnViolation>,
                                      src: VertexId,
                                      dst: VertexId,
                                      etype: EdgeType| {
                let key = (src.raw(), etype.0, dst.raw());
                if let Some(&j) = edge_keys.get(&key) {
                    violate(
                        violations,
                        i,
                        ViolationKind::DuplicateKey,
                        format!(
                            "edge ({src:?} -> {dst:?}, etype {}) already touched by op {j}",
                            etype.0
                        ),
                    );
                } else {
                    edge_keys.insert(key, i);
                }
                if let Some(&j) = source_claims.get(&(src.raw(), etype.0)) {
                    violate(
                        violations,
                        i,
                        ViolationKind::DuplicateKey,
                        format!(
                            "op {j} deletes vertex {src:?} in etype {}, covering this edge",
                            etype.0
                        ),
                    );
                }
                edge_sources.entry((src.raw(), etype.0)).or_insert(i);
            };

            match op {
                TxnOp::InsertEdge(e) => {
                    claim_edge_key(&mut violations, e.src, e.dst, e.etype);
                    if !view.known_etype(e.etype) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::UnknownEtype,
                            format!("etype {} is not registered", e.etype.0),
                        );
                    }
                    if !e.weight.is_finite() {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::NonFiniteWeight,
                            format!(
                                "insert of ({:?} -> {:?}) carries weight {}",
                                e.src, e.dst, e.weight
                            ),
                        );
                    }
                    lowered.push(UpdateOp::Insert(*e));
                }
                TxnOp::DeleteEdge { src, dst, etype } => {
                    claim_edge_key(&mut violations, *src, *dst, *etype);
                    if !view.known_etype(*etype) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::UnknownEtype,
                            format!("etype {} is not registered", etype.0),
                        );
                    } else if view.edge_weight(*src, *dst, *etype).is_none() {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::DanglingDelete,
                            format!(
                                "edge ({src:?} -> {dst:?}, etype {}) does not exist",
                                etype.0
                            ),
                        );
                    }
                    lowered.push(UpdateOp::Delete {
                        src: *src,
                        dst: *dst,
                        etype: *etype,
                    });
                }
                TxnOp::PatchWeight(e) => {
                    claim_edge_key(&mut violations, e.src, e.dst, e.etype);
                    if !view.known_etype(e.etype) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::UnknownEtype,
                            format!("etype {} is not registered", e.etype.0),
                        );
                    } else if view.edge_weight(e.src, e.dst, e.etype).is_none() {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::DanglingPatch,
                            format!(
                                "edge ({:?} -> {:?}, etype {}) does not exist",
                                e.src, e.dst, e.etype.0
                            ),
                        );
                    }
                    if !e.weight.is_finite() {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::NonFiniteWeight,
                            format!(
                                "patch of ({:?} -> {:?}) carries weight {}",
                                e.src, e.dst, e.weight
                            ),
                        );
                    }
                    lowered.push(UpdateOp::UpdateWeight(*e));
                }
                TxnOp::UpsertVertex { vertex } => {
                    if let Some(&j) = vertex_claims.get(&vertex.raw()) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::DuplicateKey,
                            format!("vertex {vertex:?} already upserted by op {j}"),
                        );
                    } else {
                        vertex_claims.insert(vertex.raw(), i);
                    }
                    // Lowers to nothing: vertices materialize with their first
                    // edge in every engine here.
                }
                TxnOp::DeleteVertex { vertex, etype } => {
                    let range = (vertex.raw(), etype.0);
                    if let Some(&j) = source_claims.get(&range) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::DuplicateKey,
                            format!(
                                "vertex {vertex:?} etype {} already deleted by op {j}",
                                etype.0
                            ),
                        );
                    } else {
                        source_claims.insert(range, i);
                    }
                    if let Some(&j) = edge_sources.get(&range) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::DuplicateKey,
                            format!(
                            "op {j} touches an edge of {vertex:?} etype {} covered by this delete",
                            etype.0
                        ),
                        );
                    }
                    if !view.known_etype(*etype) {
                        violate(
                            &mut violations,
                            i,
                            ViolationKind::UnknownEtype,
                            format!("etype {} is not registered", etype.0),
                        );
                    } else {
                        // Expand against pre-transaction topology. A vertex
                        // with no out-edges is a legal no-op delete.
                        for (dst, _w) in view.neighbors(*vertex, *etype) {
                            lowered.push(UpdateOp::Delete {
                                src: *vertex,
                                dst,
                                etype: *etype,
                            });
                        }
                    }
                }
            }
        }

        if !violations.is_empty() {
            return Err(TxnError::Rejected {
                txn_id: txn.id,
                violations,
            });
        }
        // Keys are disjoint, so (src, etype, dst) is a total order: the lowered
        // batch (and therefore its WAL record) is canonical.
        lowered.sort_by_key(|op| (op.src().raw(), op.etype().0, op.dst().raw()));
        Ok(lowered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// In-memory view: a set of (src, etype, dst) -> weight.
    #[derive(Default)]
    struct MockView {
        edges: HashMap<(u64, u16, u64), f64>,
        etype_limit: Option<u16>,
    }

    impl MockView {
        fn with(edges: &[(u64, u16, u64, f64)]) -> Self {
            MockView {
                edges: edges.iter().map(|&(s, t, d, w)| ((s, t, d), w)).collect(),
                etype_limit: None,
            }
        }
    }

    impl TxnView for MockView {
        fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
            self.edges.get(&(src.raw(), etype.0, dst.raw())).copied()
        }

        fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
            let mut out: Vec<(VertexId, f64)> = self
                .edges
                .iter()
                .filter(|(&(s, t, _), _)| s == v.raw() && t == etype.0)
                .map(|(&(_, _, d), &w)| (VertexId(d), w))
                .collect();
            out.sort_by_key(|(d, _)| d.raw());
            out
        }

        fn known_etype(&self, etype: EdgeType) -> bool {
            self.etype_limit.is_none_or(|limit| etype.0 < limit)
        }
    }

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    fn kinds(err: &TxnError) -> Vec<ViolationKind> {
        err.violations().iter().map(|vl| vl.kind).collect()
    }

    #[test]
    fn builder_collects_ops_in_order() {
        let txn = GraphTxn::new(7)
            .insert_edge(Edge::new(v(1), v(2), 1.0))
            .delete_edge(v(3), v(4), EdgeType(1))
            .upsert_vertex(v(9));
        assert_eq!(txn.id(), 7);
        assert_eq!(txn.len(), 3);
        assert!(matches!(txn.ops()[2], TxnOp::UpsertVertex { .. }));
    }

    #[test]
    fn valid_txn_lowers_sorted_by_key() {
        let view = MockView::with(&[(5, 0, 6, 1.0)]);
        let txn = GraphTxn::new(1)
            .insert_edge(Edge::new(v(9), v(1), 2.0))
            .delete_edge(v(5), v(6), EdgeType::DEFAULT)
            .insert_edge(Edge::new(v(2), v(3), 1.0));
        let lowered = validate_and_lower(&txn, &view).expect("valid");
        let srcs: Vec<u64> = lowered.iter().map(|op| op.src().raw()).collect();
        assert_eq!(srcs, vec![2, 5, 9], "canonical (src, etype, dst) order");
    }

    #[test]
    fn empty_txn_is_rejected() {
        let err = validate_and_lower(&GraphTxn::new(3), &MockView::default()).unwrap_err();
        assert_eq!(kinds(&err), vec![ViolationKind::Empty]);
        assert!(err.is_rejected());
    }

    #[test]
    fn dangling_delete_and_patch_are_rejected_together() {
        let view = MockView::with(&[(1, 0, 2, 1.0)]);
        let txn = GraphTxn::new(4)
            .delete_edge(v(1), v(9), EdgeType::DEFAULT) // missing
            .patch_weight(Edge::new(v(8), v(9), 3.0)) // missing
            .delete_edge(v(1), v(2), EdgeType::DEFAULT); // fine
        let err = validate_and_lower(&txn, &view).unwrap_err();
        assert_eq!(
            kinds(&err),
            vec![ViolationKind::DanglingDelete, ViolationKind::DanglingPatch],
            "all violations reported, valid op not flagged"
        );
        assert_eq!(err.violations()[0].op_index, 0);
        assert_eq!(err.violations()[1].op_index, 1);
    }

    #[test]
    fn duplicate_edge_key_is_rejected() {
        let view = MockView::with(&[(1, 0, 2, 1.0)]);
        let txn = GraphTxn::new(5)
            .patch_weight(Edge::new(v(1), v(2), 3.0))
            .delete_edge(v(1), v(2), EdgeType::DEFAULT);
        let err = validate_and_lower(&txn, &view).unwrap_err();
        assert_eq!(kinds(&err), vec![ViolationKind::DuplicateKey]);
        assert!(err.violations()[0].detail.contains("op 0"));
    }

    #[test]
    fn delete_vertex_conflicts_with_edge_ops_in_both_orders() {
        let view = MockView::with(&[(1, 0, 2, 1.0), (1, 0, 3, 1.0)]);
        // DeleteVertex after an edge op on the claimed range.
        let txn = GraphTxn::new(6)
            .delete_edge(v(1), v(2), EdgeType::DEFAULT)
            .delete_vertex(v(1), EdgeType::DEFAULT);
        let err = validate_and_lower(&txn, &view).unwrap_err();
        assert_eq!(kinds(&err), vec![ViolationKind::DuplicateKey]);
        // And before.
        let txn = GraphTxn::new(7)
            .delete_vertex(v(1), EdgeType::DEFAULT)
            .insert_edge(Edge::new(v(1), v(9), 1.0));
        let err = validate_and_lower(&txn, &view).unwrap_err();
        assert_eq!(kinds(&err), vec![ViolationKind::DuplicateKey]);
        // A different etype does not conflict.
        let txn = GraphTxn::new(8)
            .delete_vertex(v(1), EdgeType::DEFAULT)
            .insert_edge(Edge {
                src: v(1),
                dst: v(9),
                etype: EdgeType(1),
                weight: 1.0,
                ts: 0,
            });
        assert!(validate_and_lower(&txn, &view).is_ok());
    }

    #[test]
    fn delete_vertex_expands_to_current_neighbors() {
        let view = MockView::with(&[(4, 0, 7, 1.0), (4, 0, 8, 2.0), (4, 1, 9, 1.0)]);
        let txn = GraphTxn::new(9).delete_vertex(v(4), EdgeType::DEFAULT);
        let lowered = validate_and_lower(&txn, &view).expect("valid");
        assert_eq!(
            lowered,
            vec![
                UpdateOp::Delete {
                    src: v(4),
                    dst: v(7),
                    etype: EdgeType::DEFAULT
                },
                UpdateOp::Delete {
                    src: v(4),
                    dst: v(8),
                    etype: EdgeType::DEFAULT
                },
            ],
            "only the claimed relation is expanded"
        );
        // No out-edges: a legal no-op.
        let txn = GraphTxn::new(10).delete_vertex(v(99), EdgeType::DEFAULT);
        assert!(validate_and_lower(&txn, &view).expect("valid").is_empty());
    }

    #[test]
    fn upsert_vertex_lowers_to_nothing_and_dedupes() {
        let view = MockView::default();
        let txn = GraphTxn::new(11).upsert_vertex(v(5)).upsert_vertex(v(6));
        assert!(validate_and_lower(&txn, &view).expect("valid").is_empty());
        let txn = GraphTxn::new(12).upsert_vertex(v(5)).upsert_vertex(v(5));
        let err = validate_and_lower(&txn, &view).unwrap_err();
        assert_eq!(kinds(&err), vec![ViolationKind::DuplicateKey]);
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        let view = MockView::with(&[(1, 0, 2, 1.0)]);
        let txn = GraphTxn::new(13)
            .insert_edge(Edge::new(v(3), v(4), f64::NAN))
            .patch_weight(Edge::new(v(1), v(2), f64::INFINITY));
        let err = validate_and_lower(&txn, &view).unwrap_err();
        assert_eq!(
            kinds(&err),
            vec![
                ViolationKind::NonFiniteWeight,
                ViolationKind::NonFiniteWeight
            ]
        );
    }

    #[test]
    fn unknown_etype_is_rejected_under_a_limit() {
        let mut view = MockView::with(&[(1, 0, 2, 1.0)]);
        view.etype_limit = Some(2);
        let ok = GraphTxn::new(14).insert_edge(Edge {
            src: v(1),
            dst: v(9),
            etype: EdgeType(1),
            weight: 1.0,
            ts: 0,
        });
        assert!(validate_and_lower(&ok, &view).is_ok());
        let bad = GraphTxn::new(15).insert_edge(Edge {
            src: v(1),
            dst: v(9),
            etype: EdgeType(2),
            weight: 1.0,
            ts: 0,
        });
        let err = validate_and_lower(&bad, &view).unwrap_err();
        assert_eq!(kinds(&err), vec![ViolationKind::UnknownEtype]);
    }

    #[test]
    fn rejection_display_names_every_violation() {
        let view = MockView::default();
        let txn = GraphTxn::new(16)
            .delete_edge(v(1), v(2), EdgeType::DEFAULT)
            .delete_edge(v(1), v(2), EdgeType::DEFAULT);
        let err = validate_and_lower(&txn, &view).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("txn 16 rejected"), "{msg}");
        assert!(msg.contains("dangling delete"), "{msg}");
        assert!(msg.contains("duplicate key"), "{msg}");
    }

    /// Any op over 8 vertices and 3 etypes, so duplicate keys and
    /// `DeleteVertex` overlaps are common; a quarter of the weights are NaN
    /// or infinite.
    fn any_op() -> impl Strategy<Value = TxnOp> {
        let weight = (0u8..12, -2.0..2.0f64).prop_map(|(k, w)| match k {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => w,
        });
        (0u8..5, (0u64..8, 0u64..8), 0u16..3, weight).prop_map(|(kind, (s, d), t, w)| {
            let (src, dst, etype) = (v(s), v(d), EdgeType(t));
            let edge = Edge {
                src,
                dst,
                etype,
                weight: w,
                ts: 0,
            };
            match kind {
                0 => TxnOp::InsertEdge(edge),
                1 => TxnOp::DeleteEdge { src, dst, etype },
                2 => TxnOp::PatchWeight(edge),
                3 => TxnOp::UpsertVertex { vertex: src },
                _ => TxnOp::DeleteVertex { vertex: src, etype },
            }
        })
    }

    proptest! {
        // Most random txns are rejected; enough cases that a few hundred
        // commit and compare their lowered batches too.
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn sorted_plan_matches_the_op_by_op_validator(
            live in proptest::collection::vec((0u64..8, 0u16..3, 0u64..8, 0.1..4.0f64), 0..48),
            limit in 0u16..3,
            ops in proptest::collection::vec(any_op(), 0..16),
        ) {
            let mut view = MockView::with(&live);
            view.etype_limit = (limit > 0).then_some(limit);
            let mut txn = GraphTxn::new(42);
            ops.into_iter().for_each(|op| txn.push(op));
            let whole = validate_and_lower(&txn, &view);
            match (&whole, reference::validate_and_lower(&txn, &view)) {
                (Ok(plan), Ok(oracle)) => prop_assert_eq!(plan, &oracle),
                (Err(plan), Err(oracle)) => {
                    prop_assert_eq!(plan.violations(), oracle.violations());
                }
                (plan, oracle) => prop_assert!(false, "plan {:?} vs oracle {:?}", plan, oracle),
            }
            // Cut by source into three parts: each part lowers its share of
            // the whole walk, and the merged violations are the whole list.
            let part_of = |src: VertexId| (src.raw() % 3) as usize;
            let ops = txn.ops();
            let part = |k| (0..ops.len()).filter(move |&i| part_of(ops[i].src()) == k);
            let parts = (0..3).map(|k| validate_part(&txn, part(k), &view)).collect();
            match (merge_parts(&txn, parts), whole) {
                (Ok(parts), Ok(whole)) => {
                    for (k, part) in parts.iter().enumerate() {
                        let share: Vec<UpdateOp> =
                            whole.iter().copied().filter(|op| part_of(op.src()) == k).collect();
                        prop_assert_eq!(part, &share);
                    }
                }
                (Err(parts), Err(whole)) => prop_assert_eq!(parts.violations(), whole.violations()),
                (parts, whole) => prop_assert!(false, "parts {:?} vs whole {:?}", parts, whole),
            }
        }
    }
}
