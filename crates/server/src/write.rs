//! The write pipeline: **route → admit → apply → settle**, once.
//!
//! Every mutation the router accepts — a routed single op, an update
//! batch, a lowered transaction, first-hand or on the replica channel —
//! ends in the same batch-parallel apply on the owning shard (the paper's
//! PALM-style batch updater, Sec. VI-B). What differs between the entry
//! points is only *policy* — what to do about a shard that cannot take its
//! partition ([`Admission`]), and who gets to see the write ([`Origin`]) —
//! and this module is the one place that knows it. The fault
//! verdict/retry/backoff loop is shared with the fault-routed read path
//! ([`Cluster::call_shard`]).

use crate::faults::Verdict;
use crate::service::{fan_out, group_by_owner};
use crate::txn::etype_within;
use crate::{wire, BatchReport, Cluster, GraphServer};
use platod2gl_graph::{
    merge_parts, validate_part, EdgeType, Error, GraphStore, GraphTxn, ShardHealth, TxnError,
    TxnReceipt, TxnView, UpdateOp, VertexId,
};
use platod2gl_storage::DynamicGraphStore;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Retry budget for transient shard faults.
pub(crate) const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry, in microseconds; doubles per attempt.
const BACKOFF_BASE_MICROS: u64 = 50;

/// What a write does about a shard that cannot take its partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admission {
    /// Update batches, single ops, reads — availability over atomicity: a
    /// failed, unavailable or retry-budget-exhausted shard is marked and
    /// its ops **queued** for [`Cluster::heal_shard`]; a transient marks
    /// the shard `Degraded`.
    Lenient,
    /// Transactions — atomicity over availability: the whole write is
    /// **refused** before any shard applies anything; nothing is queued and
    /// shard health is left to the lenient paths to discover.
    Strict,
}

impl Admission {
    /// What the rpc transport ships for one shard's partition (request
    /// frame size by op count, reply frame size), and the worker's name in
    /// an injected crash's panic message.
    fn wire(self) -> (fn(usize) -> u64, u64, &'static str) {
        match self {
            Admission::Lenient => (
                wire::update_frame_bytes,
                wire::UPDATE_REPLY_FRAME_BYTES,
                "batch",
            ),
            Admission::Strict => (wire::txn_frame_bytes, wire::TXN_REPLY_FRAME_BYTES, "txn"),
        }
    }
}

/// Which channel a write arrived on. A queued op keeps its origin until
/// the heal drain settles it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Origin {
    /// A first-hand logical write: advances [`Cluster::graph_version`] and
    /// feeds the live-migration journal.
    Client,
    /// Replica fan-out or a migration stream — a data *move*, silent on
    /// both: a version bump would invalidate trainer caches fleet-wide, and
    /// journaling would let a migrated partition's new owner echo drained
    /// ops back into the source's journal forever.
    Replica,
}

/// An admitted shard's marching orders (scripted by the fault injector).
#[derive(Clone, Copy)]
struct Go {
    delay: Option<Duration>,
    panic: bool,
}

/// Why a write did not (fully) land.
enum WriteError {
    /// Strict admission refused before any shard applied anything.
    Refused { shard: usize, why: &'static str },
    /// A shard worker panicked mid-apply: that shard is now `Failed`, every
    /// other shard's partition applied.
    Panicked(Error),
}

impl From<WriteError> for Error {
    fn from(e: WriteError) -> Error {
        match e {
            WriteError::Refused { shard, .. } => Error::ShardUnavailable { shard },
            WriteError::Panicked(e) => e,
        }
    }
}

impl Cluster {
    /// One shard's verdict under the fault policy: honor the injector,
    /// retry transients with exponential backoff, and — under lenient
    /// admission only — mark shard health. `Err` names why the shard
    /// cannot take the request. `batch` arms a scripted worker crash.
    fn admit(&self, shard: usize, batch: bool, admission: Admission) -> Result<Go, &'static str> {
        let state = &self.shard_states[shard];
        let lenient = admission == Admission::Lenient;
        let why = if !lenient && self.faults.take_abort_txn(shard) {
            "scripted txn abort"
        } else if state.health() == ShardHealth::Failed {
            "failed"
        } else {
            for attempt in 0..=MAX_RETRIES {
                let (delay, panic) = match self.faults.verdict(shard, batch) {
                    Verdict::Proceed => (None, false),
                    Verdict::ProceedAfter(delay) => (Some(delay), false),
                    Verdict::PanicBatch => (None, true),
                    Verdict::Transient => {
                        self.m.retried_requests.inc();
                        if lenient {
                            state.set_health(ShardHealth::Degraded);
                        }
                        std::thread::sleep(Duration::from_micros(BACKOFF_BASE_MICROS << attempt));
                        continue;
                    }
                    Verdict::Unavailable => break,
                };
                return Ok(Go { delay, panic });
            }
            // The injector said so, or the retry budget ran out.
            "unavailable"
        };
        self.m.failed_requests.inc();
        if lenient {
            state.set_health(ShardHealth::Failed);
        }
        Err(why)
    }

    /// Run one request against a shard under the (lenient) fault policy.
    /// `Err` means the shard is (now) unavailable.
    pub(crate) fn call_shard<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&GraphServer) -> T,
    ) -> Result<T, Error> {
        let go = self
            .admit(shard, false, Admission::Lenient)
            .map_err(|_| Error::ShardUnavailable { shard })?;
        if let Some(delay) = go.delay {
            std::thread::sleep(delay);
        }
        self.shard_states[shard].mark_success();
        Ok(f(&self.servers[shard]))
    }

    /// Queue an update op for a failed shard (drained by
    /// [`Cluster::heal_shard`]), re-checking health *under the pending
    /// lock*: a writer that observed the shard failed may reach here after
    /// a concurrent [`Cluster::heal_shard`] already drained the queue and
    /// marked the shard healthy — queueing then would strand the op forever.
    /// In that case the op is applied (and journaled) directly instead —
    /// the heal completed its drain before flipping health, so ordering is
    /// preserved.
    ///
    /// Returns `true` if the op was queued, `false` if it was applied.
    fn queue_op(&self, shard: usize, op: UpdateOp, origin: Origin) -> bool {
        let state = &self.shard_states[shard];
        let mut pending = state.lock_pending();
        if state.health() != ShardHealth::Failed {
            drop(pending);
            self.servers[shard].topology.apply(&op);
            if origin == Origin::Client {
                self.record_migration_ops(std::slice::from_ref(&op));
            }
            return false;
        }
        pending.push((op, origin));
        self.m.queued_ops.inc();
        true
    }

    /// Clear any scripted fault on a shard, mark it healthy, and drain its
    /// queued updates through the batch-parallel path, settling each op by
    /// the origin it was queued with. Returns the number of drained ops.
    ///
    /// Drain and health transition coordinate with writers through the
    /// pending mutex: the queue is re-checked after every drained batch
    /// (writers still observing the shard as failed may queue concurrently
    /// with a drain), and the shard is marked healthy only in the same
    /// critical section that observes the queue empty. After that, any
    /// late writer re-checks health under the same lock when it goes to
    /// queue and applies directly, so no op is ever parked on a healthy
    /// shard.
    pub fn heal_shard(&self, shard: usize) -> usize {
        let _span = self.registry.span("cluster.heal");
        self.m.heals.inc();
        let state = &self.shard_states[shard];
        let mut drained = 0;
        loop {
            let pending = {
                let mut guard = state.lock_pending();
                if guard.is_empty() {
                    self.faults.clear(shard);
                    state.set_health(ShardHealth::Healthy);
                    self.m.healed_ops.add(drained as u64);
                    return drained;
                }
                std::mem::take(&mut *guard)
            };
            drained += pending.len();
            let ops: Vec<UpdateOp> = pending.iter().map(|(op, _)| *op).collect();
            self.servers[shard].topology.apply_batch_parallel(&ops, 1);
            let first_hand: Vec<UpdateOp> = pending
                .iter()
                .filter(|(_, origin)| *origin == Origin::Client)
                .map(|(op, _)| *op)
                .collect();
            if !first_hand.is_empty() {
                self.record_migration_ops(&first_hand);
                self.bump_version();
            }
        }
    }

    /// One routed op under the fault policy — the `GraphStore` single-op
    /// writes. Returns what the shard reported (`true` for an insert;
    /// whether the edge existed for a delete or a weight patch) and `false`
    /// when the op was queued: prior existence is unknown then.
    pub(crate) fn write_one(&self, op: UpdateOp) -> bool {
        self.tally(
            1,
            wire::update_frame_bytes(1),
            wire::UPDATE_REPLY_FRAME_BYTES,
        );
        let shard = self.route(op.src());
        let landed = self.call_shard(shard, |s| match op {
            UpdateOp::Insert(e) => {
                s.topology.insert_edge(e);
                true
            }
            UpdateOp::Delete { src, dst, etype } => s.topology.delete_edge(src, dst, etype),
            UpdateOp::UpdateWeight(e) => s.topology.update_weight(e),
        });
        match landed {
            Ok(changed) => {
                if changed {
                    self.record_migration_ops(std::slice::from_ref(&op));
                    self.bump_version();
                }
                changed
            }
            Err(_) => {
                // `queue_op` journals itself when a heal race applies
                // the op directly.
                if !self.queue_op(shard, op, Origin::Client) {
                    self.bump_version();
                }
                false
            }
        }
    }

    /// The write pipeline. It takes the ops already partitioned by owning
    /// shard (`per_shard[s]` is shard `s`'s partition): an update batch is
    /// routed by its entry point, a transaction's partitions come out of
    /// validation. Every involved shard is admitted *before* any shard
    /// applies anything; admitted partitions apply through the PALM batch
    /// updater, all shards in parallel (they are independent machines in
    /// production), each worker catching its own panic; each joined shard
    /// is settled (journal, health, first panic) and the version bumps once.
    ///
    /// `started` is when the entry point began (it may have validated
    /// first); the update-latency histogram observes from there.
    fn write(
        &self,
        per_shard: &[Vec<UpdateOp>],
        admission: Admission,
        origin: Origin,
        started: Instant,
    ) -> Result<BatchReport, WriteError> {
        // One request frame per shard that receives a partition, one reply
        // frame back from each — exactly what the rpc transport ships.
        let (frame_bytes, reply_bytes, worker) = admission.wire();
        let live_shards = per_shard.iter().filter(|p| !p.is_empty());
        let (frames, req_bytes) =
            live_shards.fold((0u64, 0u64), |(n, b), p| (n + 1, b + frame_bytes(p.len())));
        self.tally(frames, req_bytes, frames * reply_bytes);

        let mut report = BatchReport::default();
        let mut admitted: Vec<(usize, Go)> = Vec::new();
        for (shard, shard_ops) in per_shard.iter().enumerate() {
            if shard_ops.is_empty() {
                continue;
            }
            match self.admit(shard, true, admission) {
                Ok(go) => admitted.push((shard, go)),
                Err(why) if admission == Admission::Strict => {
                    return Err(WriteError::Refused { shard, why });
                }
                Err(_) => {
                    // queue_op may apply directly if a concurrent heal
                    // raced in; count whichever actually happened.
                    for op in shard_ops {
                        if self.queue_op(shard, *op, origin) {
                            report.queued_ops += 1;
                        } else {
                            report.applied_ops += 1;
                        }
                    }
                }
            }
        }

        let mut first_panic = None;
        let mut any_applied = false;
        // One spawned worker per admitted shard, the caller only joining:
        // unlike a read lane (`service::fan_out`), a write allocates the
        // shard's trees in its thread's malloc arena. Applied on the caller,
        // a bulk load from the main thread put one shard's trees among the
        // caller's own allocations, and reads served from another thread
        // then ran 12–20 % slower (`perf` `sample_remote`, 2-core host).
        std::thread::scope(|s| {
            let handles: Vec<_> = admitted
                .into_iter()
                .map(|(shard, go)| {
                    let (server, shard_ops) = (&self.servers[shard], &per_shard[shard]);
                    let handle = s.spawn(move || {
                        // Each worker catches its own panic so one crashed
                        // shard cannot abort the write (or the process).
                        std::panic::catch_unwind(AssertUnwindSafe(|| {
                            if let Some(delay) = go.delay {
                                std::thread::sleep(delay);
                            }
                            if go.panic {
                                panic!("injected fault: shard {shard} {worker} worker crashed");
                            }
                            server.topology.apply_batch_parallel(shard_ops, 1);
                        }))
                        .map_err(|payload| panic_message(&*payload))
                    });
                    (shard, handle)
                })
                .collect();
            for (shard, handle) in handles {
                let outcome = handle
                    .join()
                    .unwrap_or_else(|payload| Err(panic_message(&*payload)));
                match outcome {
                    Ok(()) => {
                        any_applied = true;
                        report.applied_ops += per_shard[shard].len();
                        if origin == Origin::Client {
                            self.record_migration_ops(&per_shard[shard]);
                        }
                    }
                    Err(detail) => {
                        self.shard_states[shard].set_health(ShardHealth::Failed);
                        self.m.failed_requests.inc();
                        if first_panic.is_none() {
                            first_panic = Some(Error::ShardPanicked { shard, detail });
                        }
                    }
                }
            }
        });
        self.m.update_latency.record(started.elapsed());

        let mutated = match admission {
            // Conservative: queued-only batches also bump (a cache refresh
            // is cheap; serving around a missed invalidation is not).
            Admission::Lenient => per_shard.iter().any(|p| !p.is_empty()),
            // Only when shard state actually changed — a refused txn leaves
            // caches valid. A partial panic still counts: the surviving
            // shards mutated.
            Admission::Strict => any_applied,
        };
        if origin == Origin::Client && mutated {
            self.bump_version();
        }
        match first_panic {
            Some(e) => Err(WriteError::Panicked(e)),
            None => Ok(report),
        }
    }

    /// An update batch is a write with lenient admission: a failed shard's
    /// partition is queued (see [`BatchReport::queued_ops`] and
    /// [`Cluster::heal_shard`]); a panicking shard worker is caught, the
    /// shard is marked [`ShardHealth::Failed`], every *other* shard's
    /// partition still applies, and the panic surfaces as
    /// [`Error::ShardPanicked`].
    pub(crate) fn apply_updates_from(
        &self,
        ops: &[UpdateOp],
        origin: Origin,
    ) -> Result<BatchReport, Error> {
        let _span = self.registry.span("cluster.apply_batch");
        let started = Instant::now();
        let mut per_shard: Vec<Vec<UpdateOp>> = vec![Vec::new(); self.servers.len()];
        for op in ops {
            per_shard[self.route(op.src())].push(*op);
        }
        Ok(self.write(&per_shard, Admission::Lenient, origin, started)?)
    }

    /// Apply a typed transaction: two-phase, all-or-nothing across shards.
    ///
    /// **Phase 1** validates the batch against live topology, one sorted
    /// plan per owning shard with every shard at once
    /// ([`validate_part`]), and rejects it — zero changes — on any
    /// violation. **Phase 2** sends the lowered ops down the write pipeline
    /// with *strict* admission: a transaction is atomic across shards, so
    /// if any involved shard is failed, unavailable after retries, or
    /// scripted with [`FaultKind::AbortNextTxn`](crate::FaultKind), the
    /// whole transaction aborts cleanly (nothing is queued — atomicity over
    /// availability). Admission aborts never mutate shard health; the
    /// lenient update path owns failure discovery. A *worker panic*
    /// mid-apply is a real shard crash: the shard is marked failed and the
    /// error surfaces as [`Error::ShardPanicked`]. The graph version bumps
    /// once on commit.
    ///
    /// Replaying an already-committed txn id answers from the idempotence
    /// ledger with `deduped = true` instead of applying twice — the server
    /// half of the RPC retry contract.
    pub fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        self.apply_txn_from(txn, Origin::Client)
    }

    /// [`Cluster::apply_txn`] for either channel: a replicated txn has the
    /// same validation and dedupe-ledger semantics, but it is an echo of a
    /// commit the owner already versioned, not a new logical write.
    pub(crate) fn apply_txn_from(
        &self,
        txn: &GraphTxn,
        origin: Origin,
    ) -> Result<TxnReceipt, TxnError> {
        let root = self.registry.span("cluster.apply_txn");
        let started = Instant::now();

        if let Some(mut receipt) = self.txn.lookup(txn.id()) {
            receipt.deduped = true;
            self.m.txn_deduped.inc();
            self.txn
                .log(txn.id(), "deduped", receipt.ops_applied, String::new());
            return Ok(receipt);
        }

        // Phase 1, on the owning shards.
        let per_shard = match self.validate_on_shards(txn, root.id(), root.trace_id()) {
            Ok(per_shard) => per_shard,
            Err(e) => {
                self.note_txn_abort(
                    txn.id(),
                    "rejected",
                    format!("{} violation(s)", e.violations().len()),
                );
                return Err(e);
            }
        };

        // Phase 2.
        if let Err(e) = self.write(&per_shard, Admission::Strict, origin, started) {
            let (outcome, detail) = match &e {
                WriteError::Refused { shard, why } => {
                    ("unavailable", format!("shard {shard}: {why}"))
                }
                WriteError::Panicked(e) => ("panicked", e.to_string()),
            };
            self.note_txn_abort(txn.id(), outcome, detail);
            return Err(TxnError::Store(e.into()));
        }

        let receipt = TxnReceipt {
            txn_id: txn.id(),
            ops_applied: per_shard.iter().map(Vec::len).sum::<usize>() as u64,
            graph_version: self.graph_version(),
            deduped: false,
        };
        self.txn.record_commit(receipt);
        self.txn.abort_streak.store(0, Ordering::Relaxed);
        self.m.txn_abort_streak.set(0);
        self.m.txn_committed.inc();
        self.m.txn_ops_applied.add(receipt.ops_applied);
        self.txn
            .log(txn.id(), "committed", receipt.ops_applied, String::new());
        Ok(receipt)
    }

    /// Phase 1 on every owning shard at once: the txn's op indices are
    /// grouped by the shard that owns their source (`group_by_owner`, the
    /// grouping step `sample_many` uses too), each group's sorted
    /// plan ([`validate_part`]) is walked against that shard's store on
    /// its own lane, and the verdicts are merged ([`merge_parts`]). The
    /// caller's thread serves the first lane and a scoped thread each
    /// other one (`service::fan_out`), so a single-shard txn spawns
    /// nothing. Every conflict is between ops with one source, so the
    /// answer is exactly `validate_and_lower(txn, self)`: the same
    /// violations in the same order, or its lowered ops cut by shard
    /// (`Ok(per_shard)`, `per_shard[s]` sorted by `(src, etype, dst)`).
    ///
    /// The lanes open `cluster.txn_validate_lane` under the caller's
    /// `cluster.apply_txn` span (`root`, `trace`).
    fn validate_on_shards(
        &self,
        txn: &GraphTxn,
        root: u64,
        trace: u64,
    ) -> Result<Vec<Vec<UpdateOp>>, TxnError> {
        let lanes = group_by_owner(txn.ops(), self.servers.len(), |op| self.route(op.src()));
        // One read per txn: every lane judges etypes by the same schema.
        let etype_limit = self.txn.etype_limit.load(Ordering::Relaxed);
        let verdicts = fan_out(&lanes, |(shard, ops)| {
            let _lane = self
                .registry
                .span_with_parent("cluster.txn_validate_lane", root, trace);
            let view = ShardView {
                store: &self.servers[*shard].topology,
                etype_limit,
            };
            validate_part(txn, ops.iter().copied(), &view)
        });
        let mut per_shard: Vec<Vec<UpdateOp>> = vec![Vec::new(); self.servers.len()];
        for ((shard, _), lowered) in lanes.iter().zip(merge_parts(txn, verdicts)?) {
            per_shard[*shard] = lowered;
        }
        Ok(per_shard)
    }

    /// Record one aborted transaction: counter, streak, journal.
    fn note_txn_abort(&self, txn_id: u64, outcome: &'static str, detail: String) {
        self.m.txn_aborted.inc();
        let streak = self.txn.abort_streak.fetch_add(1, Ordering::Relaxed) + 1;
        self.m.txn_abort_streak.set(streak as i64);
        self.txn.log(txn_id, outcome, 0, detail);
    }
}

/// One shard's phase-1 reads, judging etypes by the limit its txn read.
struct ShardView<'a> {
    store: &'a DynamicGraphStore,
    etype_limit: u32,
}

impl TxnView for ShardView<'_> {
    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        TxnView::edge_weight(self.store, src, dst, etype)
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        TxnView::neighbors(self.store, v, etype)
    }

    fn known_etype(&self, etype: EdgeType) -> bool {
        etype_within(self.etype_limit, etype)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use platod2gl_graph::{validate_and_lower, Edge, TxnOp, TxnViolation, ViolationKind};
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    /// Four shards with etypes 0 and 1 registered. Sources `0..8` have
    /// out-edges to two in three of `0..6` in both etypes; sources `8..12`
    /// have none.
    fn txn_cluster() -> Cluster {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(4)
                .build()
                .expect("valid config"),
        );
        c.set_etype_limit(Some(2));
        for s in 0..8u64 {
            for d in (0..6u64).filter(|d| (s + d) % 3 != 0) {
                for t in 0..2 {
                    c.insert_edge(Edge {
                        src: VertexId(s),
                        dst: VertexId(d),
                        etype: EdgeType(t),
                        weight: 1.0 + d as f64,
                        ts: 0,
                    });
                }
            }
        }
        c
    }

    /// Any op over sources `0..12`, destinations `0..6` and etypes `0..3`
    /// (2 is past the limit): duplicate keys, claim conflicts, dangling
    /// deletes and patches, repeated upserts and deletes of empty vertices
    /// are all common. One weight in eight is NaN.
    fn any_op() -> impl Strategy<Value = TxnOp> {
        let weight = (0u8..8, 0.5..4.0f64).prop_map(|(k, w)| if k == 0 { f64::NAN } else { w });
        (0u8..5, (0u64..12, 0u64..6), 0u16..3, weight).prop_map(|(kind, (s, d), t, w)| {
            let (src, dst, etype) = (VertexId(s), VertexId(d), EdgeType(t));
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

    fn txn_of(id: u64, ops: impl IntoIterator<Item = TxnOp>) -> GraphTxn {
        let mut txn = GraphTxn::new(id);
        ops.into_iter().for_each(|op| txn.push(op));
        txn
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn sharded_phase_one_matches_the_whole_txn_walk(ops in proptest::collection::vec(any_op(), 2..10)) {
            let c = txn_cluster();
            let txn = txn_of(9, ops);
            let shards: BTreeSet<usize> = txn.ops().iter().map(|op| c.route(op.src())).collect();
            prop_assume!(shards.len() >= 2);
            match (c.validate_on_shards(&txn, 0, 0), validate_and_lower(&txn, &c)) {
                (Ok(per_shard), Ok(whole)) => {
                    let mut cut = vec![Vec::new(); c.num_shards()];
                    for op in whole {
                        cut[c.route(op.src())].push(op);
                    }
                    prop_assert_eq!(per_shard, cut);
                }
                (Err(sharded), Err(whole)) => {
                    prop_assert!(sharded.is_rejected());
                    prop_assert_eq!(sharded.violations(), whole.violations());
                }
                (sharded, whole) => prop_assert!(false, "sharded {:?} vs whole {:?}", sharded, whole),
            }
        }
    }

    #[test]
    fn violations_on_two_shards_merge_in_op_order_and_nothing_lands() {
        let c = txn_cluster();
        let a = VertexId(0);
        let b = (1..8)
            .map(VertexId)
            .find(|&v| c.route(v) != c.route(a))
            .expect("two shards");
        // Ops alternate between the shards, so the merged list interleaves
        // the two lanes' violations.
        let txn = txn_of(
            77,
            [
                TxnOp::InsertEdge(Edge::new(a, VertexId(100), 1.0)),
                TxnOp::DeleteEdge {
                    src: b,
                    dst: VertexId(99),
                    etype: EdgeType(0),
                },
                TxnOp::PatchWeight(Edge::new(a, VertexId(98), 2.0)),
                TxnOp::InsertEdge(Edge::new(b, VertexId(97), f64::NAN)),
                TxnOp::DeleteVertex {
                    vertex: b,
                    etype: EdgeType(2),
                },
            ],
        );
        let whole = validate_and_lower(&txn, &c).expect_err("rejected");
        let sharded = c.validate_on_shards(&txn, 0, 0).expect_err("rejected");
        assert_eq!(sharded.violations(), whole.violations());
        let got: Vec<(usize, ViolationKind)> = sharded
            .violations()
            .iter()
            .map(|v: &TxnViolation| (v.op_index, v.kind))
            .collect();
        assert_eq!(
            got,
            [
                (1, ViolationKind::DanglingDelete),
                (2, ViolationKind::DanglingPatch),
                (3, ViolationKind::NonFiniteWeight),
                (4, ViolationKind::UnknownEtype),
            ]
        );

        let (version, edges) = (c.graph_version(), GraphStore::num_edges(&c));
        let err = c.apply_txn(&txn).expect_err("rejected");
        assert_eq!(err.violations(), whole.violations());
        assert_eq!(c.graph_version(), version, "no version bump");
        assert_eq!(GraphStore::num_edges(&c), edges, "nothing applied");
        assert_eq!(
            TxnView::edge_weight(&c, a, VertexId(100), EdgeType(0)),
            None
        );
        assert!(
            (0..c.num_shards()).all(|s| c.pending_ops(s) == 0),
            "nothing queued"
        );
        assert_eq!(c.txn_journal().last().map(|e| e.outcome), Some("rejected"));
    }

    #[test]
    fn validation_lanes_carry_the_callers_trace() {
        let c = txn_cluster();
        // One insert per shard: four lanes, three of them on scoped threads.
        let mut ops = Vec::new();
        for shard in 0..c.num_shards() {
            let v = (0..64)
                .map(VertexId)
                .find(|&v| c.route(v) == shard)
                .expect("owned vertex");
            ops.push(TxnOp::InsertEdge(Edge::new(v, VertexId(500), 1.0)));
        }
        let trace = 0x7A11;
        let caller_span = {
            let root = c.obs().span_traced("test.caller", trace);
            c.apply_txn(&txn_of(5, ops)).expect("commits");
            root.id()
        };
        let spans = c.obs().trace_spans(trace);
        let by_id: HashMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
        let lanes: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "cluster.txn_validate_lane")
            .collect();
        assert_eq!(lanes.len(), c.num_shards(), "every lane joined the trace");
        for lane in lanes {
            assert_eq!(
                by_id[&lane.parent.expect("parented")].name,
                "cluster.apply_txn"
            );
            let mut at = lane;
            while at.parent != Some(caller_span) {
                let parent = at.parent.expect("parent chain reaches the caller");
                at = by_id[&parent];
            }
        }
    }
}
