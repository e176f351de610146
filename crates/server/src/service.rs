//! The graph-service abstraction: one sampling/update surface served by
//! both the in-process [`Cluster`] and a remote graph server.
//!
//! The paper's deployed architecture (Sec. VII) is trainers issuing
//! sampling and update RPCs against graph servers that own hash-partitioned
//! shards. [`GraphService`] is that boundary as a trait: the k-hop sampler
//! and the training pipeline are generic over it, so the same trainer binary
//! runs against a `Cluster` in its own address space or against a
//! `RemoteCluster` (`platod2gl-rpc`) talking to a graph server over TCP —
//! unmodified.
//!
//! ## Determinism contract
//!
//! [`GraphService::sample_many`] must consume **exactly one** `next_u64`
//! from the caller's RNG per request — the per-request seed. The in-process
//! implementation derives a fresh `StdRng` from that seed before sampling;
//! the remote client ships the seed inside the request record and the graph
//! server performs the same derivation. Consequently a trainer with a fixed
//! seed produces bit-identical mini-batches whether the service is local or
//! remote, which is what makes the two deployments testable against each
//! other.
//!
//! A service that splits a batch by owner — `Cluster` by shard, the fleet
//! client by server — keeps the contract through one routine,
//! [`sample_by_owner`]: the seeds are drawn in request order before any
//! owner group runs, so which thread serves a request changes no draw.

use crate::request::{SampleRequest, SampleResponse};
use crate::write::Origin;
use crate::{partition_for, BatchReport, Cluster, MigrationState, CENSUS_PAGE_EDGES};
use platod2gl_graph::{
    Edge, EdgeType, Error, GraphTxn, ShardHealth, TxnError, TxnReceipt, UpdateOp, VertexId,
};
use platod2gl_obs::Registry;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The sampling/update surface of a graph service, local or remote.
///
/// `Sync` is required so prefetch workers can share one service reference
/// across threads (the training pipeline's producer pool does exactly
/// that).
pub trait GraphService: Sync {
    /// Weighted neighbor sampling for one request.
    ///
    /// Consumes exactly one `next_u64` from `rng` (see the module docs'
    /// determinism contract).
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse;

    /// Weighted neighbor sampling for a batch of requests.
    ///
    /// Responses are positionally parallel to `reqs`. Implementations may
    /// coalesce the batch into fewer network round trips (the remote client
    /// packs a whole frontier into pipelined frames) or serve it on every
    /// owning shard at once (`Cluster`); the default simply loops, which
    /// consumes the RNG identically.
    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        reqs.iter().map(|r| self.sample_one(r, rng)).collect()
    }

    /// Apply a batch of update ops, partitioned to owning shards.
    ///
    /// Ops queued against failed shards surface in
    /// [`BatchReport::queued_ops`]; a shard worker panic surfaces as
    /// [`Error::ShardPanicked`]. All three op kinds are idempotent
    /// (insert-or-update, set-weight, delete), so remote implementations
    /// may retry a batch whose reply was lost.
    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error>;

    /// Apply a typed transaction: phase-1 validated against live topology,
    /// all-or-nothing, idempotent on txn-id replay (see
    /// [`Cluster::apply_txn`]). Remote implementations retry with the
    /// *same* txn id so a lost reply never double-applies.
    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError>;

    /// The service's monotone graph version (bumped on every mutation);
    /// bounded-staleness caches key entries to this.
    fn graph_version(&self) -> u64;

    /// Number of shards behind the service.
    fn num_shards(&self) -> usize;

    /// Health of every shard, shard order.
    fn shard_healths(&self) -> Vec<ShardHealth>;

    /// Clear faults on a shard and drain its queued updates. Returns the
    /// number of drained ops.
    fn heal(&self, shard: usize) -> usize;

    /// The observability registry telemetry for this service records into.
    /// Layers stacked on the service (pipeline, caches) register their own
    /// metrics here so one snapshot covers the whole stack.
    fn registry(&self) -> &Arc<Registry>;

    // ------------------------------------------------------------------
    // Fleet plane (scale-out). Defaults make every service usable behind
    // a single server; fleet-aware implementations override.
    // ------------------------------------------------------------------

    /// Apply a batch that arrived on the replication channel (leader →
    /// replica fan-out). Same semantics as
    /// [`GraphService::apply_updates`], but implementations must **not**
    /// re-forward to their own replicas — that is what breaks the
    /// leader→replica→leader loop.
    fn apply_replica_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        self.apply_updates(ops)
    }

    /// Apply a transaction that arrived on the replication channel. The
    /// leader forwards the txn under its *original* id, so the replica's
    /// dedupe ledger absorbs retries exactly like first-hand submissions.
    fn apply_replica_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        self.apply_txn(txn)
    }

    /// The fleet partition map this service carries, as `(epoch, encoded
    /// bytes)` — `None` when the service is not fleet-aware. New clients
    /// bootstrap their routing table from any server via this.
    fn fleet_map_bytes(&self) -> Option<(u64, Vec<u8>)> {
        None
    }

    /// Install a (newer) fleet partition map. Returns the epoch now in
    /// effect. Implementations must be epoch-monotonic: an install older
    /// than the resident map is a no-op that reports the resident epoch.
    fn install_fleet_map(&self, _epoch: u64, _bytes: &[u8]) -> Result<u64, Error> {
        Err(Error::invalid_config(
            "this service does not carry a fleet partition map",
        ))
    }

    /// Arm a partition move on its source: take the census — the
    /// partition's resident `(src, etype)` keys across every local shard,
    /// sorted, taken once — and journal every first-hand update op that
    /// lands on the partition from now on. Returns the census size `C`:
    /// [`GraphService::migration_tail`] serves positions below `C` as
    /// census pages and position `C + s` as journal op `s`. One migration
    /// at a time per server; a second `begin` is rejected.
    fn begin_migration(&self, _partition: u32, _num_partitions: u32) -> Result<u64, Error> {
        Err(Error::invalid_config(
            "this service does not support live migration",
        ))
    }

    /// The armed move's stream from position `from`, plus the position to
    /// resume from. Below the census size `C` it is one **census page**:
    /// whole keys from census position `from` on, each key's rows as they
    /// are now as `Insert` ops, up to a server-side edge budget but at
    /// least one key (a key deleted since the arm contributes no ops). At
    /// or past `C` it is the **journal**: every op from sequence
    /// `from - C` on. The mover reads pages until it reaches `C`, then
    /// drains the journal in rounds until a round comes back empty. Every
    /// op is idempotent and the journal replays after the census, so a
    /// key's rows read when its page is served end in the same state as
    /// rows read at the arm.
    fn migration_tail(&self, _partition: u32, _from: u64) -> Result<(Vec<UpdateOp>, u64), Error> {
        Err(Error::invalid_config(
            "this service does not support live migration",
        ))
    }

    /// Disarm the move; returns the stream's end position (census size
    /// plus the ops journaled).
    fn end_migration(&self, _partition: u32) -> Result<u64, Error> {
        Err(Error::invalid_config(
            "this service does not support live migration",
        ))
    }

    /// Remove every resident key of one partition from this server and
    /// return the edges removed: a move's target drops whatever copy it
    /// holds — an earlier move's leftover or a replica's — before the new
    /// stream lands. A data move, so neither the graph version nor a
    /// migration journal sees it.
    fn drop_partition(&self, _partition: u32, _num_partitions: u32) -> Result<u64, Error> {
        Err(Error::invalid_config(
            "this service does not support live migration",
        ))
    }

    /// Resident `(src, etype)` directory keys per partition, across all
    /// local shards — the `/debug/partitions` load view. Services without
    /// partition-level accounting report zeros.
    fn partition_key_counts(&self, num_partitions: u32) -> Vec<u64> {
        vec![0; num_partitions.max(1) as usize]
    }
}

impl GraphService for Cluster {
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        // Same derivation the graph server applies to the wire seed.
        let mut derived = StdRng::seed_from_u64(rng.next_u64());
        self.sample(req, &mut derived)
    }

    /// Serves the batch on every owning shard at once: one lane per shard
    /// with work ([`sample_by_owner`]). Bit-identical to the `sample_one`
    /// loop, since each request samples from its own seed.
    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        if reqs.is_empty() {
            return Vec::new();
        }
        // Lanes on other threads re-anchor under this root, so every
        // `cluster.sample` carries the caller's trace whoever serves it.
        let root = self.registry.span("cluster.sample_many");
        let (root_id, trace) = (root.id(), root.trace_id());
        let owner = |req: &SampleRequest| self.route(req.vertex);
        sample_by_owner(reqs, rng, self.num_shards(), owner, |_, lane| {
            let _lane = self
                .registry
                .span_with_parent("cluster.sample_lane", root_id, trace);
            lane.iter()
                .map(|(req, seed)| self.sample(req, &mut StdRng::seed_from_u64(*seed)))
                .collect()
        })
    }

    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        self.apply_updates_from(ops, Origin::Client)
    }

    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        Cluster::apply_txn(self, txn)
    }

    fn apply_replica_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        self.apply_updates_from(ops, Origin::Replica)
    }

    fn apply_replica_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        self.apply_txn_from(txn, Origin::Replica)
    }

    fn graph_version(&self) -> u64 {
        Cluster::graph_version(self)
    }

    fn num_shards(&self) -> usize {
        Cluster::num_shards(self)
    }

    fn shard_healths(&self) -> Vec<ShardHealth> {
        self.health()
    }

    fn heal(&self, shard: usize) -> usize {
        self.heal_shard(shard)
    }

    fn registry(&self) -> &Arc<Registry> {
        self.obs()
    }

    fn begin_migration(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        if num_partitions == 0 || partition >= num_partitions {
            return Err(Error::invalid_config("partition out of range"));
        }
        let mut guard = self.migration.lock();
        if guard.is_some() {
            return Err(Error::invalid_config(
                "a migration is already in progress on this server",
            ));
        }
        *guard = Some(MigrationState {
            partition,
            num_partitions,
            census: None,
            ops: Vec::new(),
            overflowed: false,
        });
        self.migration.armed.store(true, Ordering::Release);
        drop(guard);
        // The census scan runs after the arm and outside the lock, so
        // writers journaling meanwhile do not wait on it. No key is missed
        // by both: a write journals after it lands, so one that found the
        // journal unarmed landed before the scan began.
        let census: Arc<[(u64, u16)]> = self.partition_keys(partition, num_partitions).into();
        let count = census.len() as u64;
        match self.migration.lock().as_mut() {
            Some(state) if state.partition == partition && state.census.is_none() => {
                state.census = Some(census);
                Ok(count)
            }
            _ => Err(Error::invalid_config(
                "the migration ended during its census",
            )),
        }
    }

    fn migration_tail(&self, partition: u32, from: u64) -> Result<(Vec<UpdateOp>, u64), Error> {
        let guard = self.migration.lock();
        let Some(state) = guard.as_ref() else {
            return Err(Error::invalid_config("no migration in progress"));
        };
        if state.partition != partition {
            return Err(Error::invalid_config("tail for the wrong partition"));
        }
        if state.overflowed {
            return Err(Error::Corrupt {
                what: "migration journal overflowed; restart the migration".to_string(),
            });
        }
        let Some(census) = &state.census else {
            return Err(Error::invalid_config(
                "the migration's census is not taken yet",
            ));
        };
        let census_len = census.len() as u64;
        if from >= census_len {
            let seq = usize::try_from(from - census_len).unwrap_or(usize::MAX);
            let ops = state.ops.get(seq..).unwrap_or_default().to_vec();
            return Ok((ops, census_len + state.ops.len() as u64));
        }
        // A census page reads trees outside the lock, so writers journaling
        // meanwhile do not wait on it.
        let census = Arc::clone(census);
        drop(guard);
        let mut ops = Vec::new();
        let mut next = from as usize;
        for &(src, etype) in &census[from as usize..] {
            let (src, etype) = (VertexId(src), EdgeType(etype));
            let server = &self.servers[self.route(src)];
            let rows = server.topology.adjacency_of(src, etype).unwrap_or_default();
            if next > from as usize && ops.len() + rows.len() > CENSUS_PAGE_EDGES {
                break;
            }
            next += 1;
            ops.extend(rows.into_iter().map(|(dst, weight, ts)| {
                UpdateOp::Insert(Edge {
                    src,
                    dst: VertexId(dst),
                    etype,
                    weight,
                    ts,
                })
            }));
        }
        Ok((ops, next as u64))
    }

    fn end_migration(&self, partition: u32) -> Result<u64, Error> {
        let mut guard = self.migration.lock();
        match guard.as_ref() {
            Some(state) if state.partition == partition => {
                let census = state.census.as_ref().map_or(0, |c| c.len());
                let end = (census + state.ops.len()) as u64;
                *guard = None;
                self.migration.armed.store(false, Ordering::Release);
                Ok(end)
            }
            Some(_) => Err(Error::invalid_config("ending the wrong partition")),
            None => Err(Error::invalid_config("no migration in progress")),
        }
    }

    fn drop_partition(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        if num_partitions == 0 || partition >= num_partitions {
            return Err(Error::invalid_config("partition out of range"));
        }
        let mut removed = 0u64;
        for (src, etype) in self.partition_keys(partition, num_partitions) {
            let server = &self.servers[self.route(VertexId(src))];
            removed += server
                .topology
                .delete_source(VertexId(src), EdgeType(etype))
                .len() as u64;
        }
        Ok(removed)
    }

    fn partition_key_counts(&self, num_partitions: u32) -> Vec<u64> {
        let mut counts = vec![0u64; num_partitions.max(1) as usize];
        for server in &self.servers {
            server.topology.for_each_source(|src, _etype, _edges| {
                counts[partition_for(src, num_partitions.max(1)) as usize] += 1;
            });
        }
        counts
    }
}

/// The determinism contract of a service that splits a sample batch by
/// owner (`Cluster` by shard, the fleet client by server), written once.
/// It draws exactly one `next_u64` per request, in request order, before
/// any group runs; groups the requests by `owner` (an index below
/// `num_owners`); serves each non-empty group as `serve(owner, (request,
/// seed) pairs)`, the first on the caller's thread and one scoped thread
/// each for the others; and stitches the responses, which `serve` gives in
/// pair order, back by position. A group that panics unwinds into the
/// caller with its own payload.
pub fn sample_by_owner(
    reqs: &[SampleRequest],
    rng: &mut dyn RngCore,
    num_owners: usize,
    owner: impl Fn(&SampleRequest) -> usize,
    serve: impl Fn(usize, &[(SampleRequest, u64)]) -> Vec<SampleResponse> + Sync,
) -> Vec<SampleResponse> {
    let seeds: Vec<u64> = reqs.iter().map(|_| rng.next_u64()).collect();
    let groups = group_by_owner(reqs, num_owners, owner);
    let served = fan_out(&groups, |(at, idxs)| {
        let lane: Vec<(SampleRequest, u64)> = idxs.iter().map(|&i| (reqs[i], seeds[i])).collect();
        serve(*at, &lane)
    });
    let mut out: Vec<Option<SampleResponse>> = vec![None; reqs.len()];
    let positions = groups.iter().flat_map(|(_, idxs)| idxs);
    for (&i, resp) in positions.zip(served.into_iter().flatten()) {
        out[i] = Some(resp);
    }
    out.into_iter()
        .map(|r| r.expect("every request answered"))
        .collect()
}

/// Item indices grouped by owner in one pass, one vector per owner index
/// below `num_owners`: the non-empty groups as `(owner, indices)`, owners
/// ascending and indices in item order.
pub(crate) fn group_by_owner<T>(
    items: &[T],
    num_owners: usize,
    owner: impl Fn(&T) -> usize,
) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_owners];
    for (i, item) in items.iter().enumerate() {
        groups[owner(item)].push(i);
    }
    groups
        .into_iter()
        .enumerate()
        .filter(|(_, idxs)| !idxs.is_empty())
        .collect()
}

/// The per-shard fan-out of read batches and txn validation: `serve` runs
/// once per lane, the first on the caller's thread and each other one on
/// its own scoped thread, and the results come back in lane order. A
/// single lane spawns nothing. A lane that panics unwinds into the caller
/// once every lane has finished.
pub(crate) fn fan_out<L: Sync, T: Send>(lanes: &[L], serve: impl Fn(&L) -> T + Sync) -> Vec<T> {
    let Some((first, rest)) = lanes.split_first() else {
        return Vec::new();
    };
    let serve = &serve;
    std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter()
            .map(|lane| s.spawn(move || serve(lane)))
            .collect();
        let mut out = vec![serve(first)];
        out.extend(handles.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, DegradedPolicy, SlotSource};
    use platod2gl_graph::{Edge, EdgeType, GraphStore, TimeWindow, VertexId};
    use std::time::Duration;

    fn service_cluster() -> Cluster {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        );
        for i in 1..=6u64 {
            c.insert_edge(Edge::new(VertexId(0), VertexId(i), 1.0));
        }
        c
    }

    #[test]
    fn sample_one_consumes_exactly_one_u64() {
        let c = service_cluster();
        let req = SampleRequest::new(VertexId(0), EdgeType(0), 4);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let resp = GraphService::sample_one(&c, &req, &mut a);
        assert_eq!(resp.neighbors.len(), 4);
        // Manually perform the contract's derivation on the twin stream:
        // the two must agree draw for draw.
        let mut derived = StdRng::seed_from_u64(b.next_u64());
        let twin = c.sample(&req, &mut derived);
        assert_eq!(twin.neighbors, resp.neighbors);
        // And both streams must now be at the same position.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// A 4-shard cluster of stamped hubs (vertices `0..48`, 12 edges each
    /// at ts 10..=120), with `slow_op_threshold` as given.
    fn lane_cluster(slow_op_threshold: Duration) -> Cluster {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(4)
                .build()
                .expect("valid config"),
        );
        c.obs().slow_log().set_threshold(slow_op_threshold);
        for v in 0..48u64 {
            for k in 1..=12u64 {
                c.insert_edge(
                    Edge::new(VertexId(v), VertexId(1_000 + v * 16 + k), k as f64).at(k * 10),
                );
            }
        }
        c
    }

    /// A mixed batch: windowed and unwindowed requests, both degraded
    /// policies, isolated vertices (`48..53` and one far away).
    fn lane_batch() -> Vec<SampleRequest> {
        (0..240u64)
            .map(|i| {
                let v = if i == 17 {
                    VertexId(999_999)
                } else {
                    VertexId(i % 53)
                };
                let req = SampleRequest::new(v, EdgeType(0), 1 + (i % 5) as usize);
                let req = if i % 2 == 0 {
                    req.on_degraded(DegradedPolicy::SelfLoop)
                } else {
                    req
                };
                if i % 3 == 0 {
                    req.in_window(TimeWindow::new(30, 80))
                } else {
                    req
                }
            })
            .collect()
    }

    #[test]
    fn sample_many_matches_sequential_sample_one() {
        let c = lane_cluster(Duration::from_millis(100));
        c.faults().fail_shard(3);
        let reqs = lane_batch();
        let mut a = StdRng::seed_from_u64(7);
        let batch = GraphService::sample_many(&c, &reqs, &mut a);
        let mut b = StdRng::seed_from_u64(7);
        let seq: Vec<SampleResponse> = reqs
            .iter()
            .map(|r| GraphService::sample_one(&c, r, &mut b))
            .collect();
        assert_eq!(batch, seq);
        assert_eq!(a.next_u64(), b.next_u64(), "one seed per request");
        // The batch really spanned every lane and every case.
        let shards: std::collections::BTreeSet<usize> = batch.iter().map(|r| r.shard).collect();
        assert_eq!(shards.len(), 4);
        assert!(batch
            .iter()
            .any(|r| r.degraded && r.sources.contains(&SlotSource::SelfLoop)));
        assert!(batch.iter().any(|r| !r.degraded && r.neighbors.is_empty()));
        assert!(batch.iter().any(|r| !r.degraded && !r.neighbors.is_empty()));
    }

    #[test]
    fn concurrent_sample_many_callers_each_get_their_sequential_answer() {
        let c = lane_cluster(Duration::from_millis(100));
        let reqs = lane_batch();
        let expected: Vec<Vec<SampleResponse>> = (0..4)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                reqs.iter()
                    .map(|r| GraphService::sample_one(&c, r, &mut rng))
                    .collect()
            })
            .collect();
        // All four callers enter `sample_many` together.
        let start = std::sync::Barrier::new(expected.len());
        std::thread::scope(|s| {
            for (seed, want) in expected.iter().enumerate() {
                let (c, reqs, start) = (&c, &reqs, &start);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed as u64);
                    start.wait();
                    assert_eq!(&GraphService::sample_many(c, reqs, &mut rng), want);
                });
            }
        });
    }

    #[test]
    fn lanes_carry_the_callers_trace() {
        // Zero threshold: every request is captured. Two unwindowed
        // requests per shard keep the ring (256 spans) far from full.
        let c = lane_cluster(Duration::ZERO);
        let mut reqs = Vec::new();
        for shard in 0..4 {
            let owned = (0..48u64).map(VertexId).filter(|v| c.route(*v) == shard);
            reqs.extend(owned.take(2).map(|v| SampleRequest::new(v, EdgeType(0), 3)));
        }
        assert_eq!(reqs.len(), 8);
        let trace = 0x7ACE;
        let caller_span = {
            let root = c.obs().span_traced("test.caller", trace);
            let _ = GraphService::sample_many(&c, &reqs, &mut StdRng::seed_from_u64(3));
            root.id()
        };
        let spans = c.obs().trace_spans(trace);
        let by_id: std::collections::HashMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
        let samples: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "cluster.sample")
            .collect();
        assert_eq!(samples.len(), reqs.len(), "every request joined the trace");
        for span in samples {
            let mut at = span;
            while at.parent != Some(caller_span) {
                let parent = at.parent.expect("parent chain reaches the caller");
                at = by_id[&parent];
            }
        }
        // The caller serves the lowest shard's lane; shard 1's lane ran on
        // a scoped thread and its captures still hold the whole chain.
        let captures = c.obs().slow_log().recent();
        let off_caller = captures
            .iter()
            .find(|cap| cap.detail.contains(" shard=1 "))
            .expect("a capture from shard 1");
        let names: Vec<&str> = off_caller.spans.iter().map(|s| &*s.name).collect();
        assert_eq!(
            names,
            [
                "cluster.sample",
                "shard.sample",
                "samtree.sample",
                "samtree.fts_draw"
            ]
        );
        let lane = off_caller.spans[0]
            .parent
            .expect("re-anchored under a lane");
        assert_eq!(by_id[&lane].name, "cluster.sample_lane");
        for pair in off_caller.spans.windows(2) {
            assert_eq!(pair[1].parent, Some(pair[0].id), "chain is linked");
        }
        assert!(off_caller.spans.iter().all(|s| s.trace_id == trace));
    }

    #[test]
    fn fan_out_serves_the_first_lane_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = |&lane: &usize| (lane, std::thread::current().id() == caller);
        assert_eq!(
            fan_out(&[0, 1, 2], on_caller),
            [(0, true), (1, false), (2, false)]
        );
        assert_eq!(
            fan_out(&[7], on_caller),
            [(7, true)],
            "one lane spawns nothing"
        );
        // A panicking lane reaches the caller, as in a sequential loop.
        let crashed = std::panic::catch_unwind(|| {
            fan_out(&[0, 1], |&lane: &usize| {
                assert_eq!(lane, 0, "lane 1 crashes")
            })
        });
        assert!(crashed.is_err());
    }

    #[test]
    fn sample_by_owner_draws_in_order_and_stitches_by_position() {
        // Owners 1, 2 and 3 hold one, four and two requests, interleaved;
        // owner 0 holds none, so owner 1's group is the first.
        let owners = [2, 1, 2, 3, 2, 3, 2];
        let reqs: Vec<SampleRequest> = (0..owners.len() as u64)
            .map(|i| SampleRequest::new(VertexId(i), EdgeType(0), 1))
            .collect();
        let owner = |req: &SampleRequest| owners[req.vertex.raw() as usize];
        // A response names its request, its seed and the group that served it.
        let answer = |req: &SampleRequest, seed: u64, at: usize| SampleResponse {
            neighbors: vec![req.vertex, VertexId(seed)],
            sources: Vec::new(),
            degraded: false,
            shard: at,
        };
        let caller = std::thread::current().id();
        let on_caller = std::sync::Mutex::new(Vec::new());
        let mut rng = StdRng::seed_from_u64(11);
        let out = sample_by_owner(&reqs, &mut rng, 4, owner, |at, lane| {
            if std::thread::current().id() == caller {
                on_caller.lock().expect("unpoisoned").push(at);
            }
            lane.iter()
                .map(|(req, seed)| answer(req, *seed, at))
                .collect()
        });
        let mut twin = StdRng::seed_from_u64(11);
        let want: Vec<SampleResponse> = reqs
            .iter()
            .map(|req| answer(req, twin.next_u64(), owner(req)))
            .collect();
        assert_eq!(out, want, "seeds in request order, answers by position");
        assert_eq!(rng.next_u64(), twin.next_u64(), "one draw per request");
        assert_eq!(
            *on_caller.lock().expect("unpoisoned"),
            [1],
            "the first group, and only it, runs on the caller"
        );

        // A panicking group's own message reaches the caller.
        let crashed = std::panic::catch_unwind(|| {
            sample_by_owner(
                &reqs,
                &mut StdRng::seed_from_u64(11),
                4,
                owner,
                |at, lane| {
                    assert_ne!(at, 3, "owner 3 crashed");
                    lane.iter()
                        .map(|(req, seed)| answer(req, *seed, at))
                        .collect()
                },
            )
        })
        .expect_err("owner 3's group panics");
        let message = crashed.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("owner 3 crashed"), "{message}");
    }

    #[test]
    fn trait_surface_mirrors_cluster_inherent_api() {
        let c = service_cluster();
        let svc: &dyn GraphService = &c;
        assert_eq!(svc.num_shards(), 2);
        assert_eq!(svc.graph_version(), Cluster::graph_version(&c));
        assert_eq!(svc.shard_healths().len(), 2);
        let report = svc
            .apply_updates(&[UpdateOp::Insert(Edge::new(VertexId(9), VertexId(10), 1.0))])
            .expect("no faults");
        assert_eq!(report.applied_ops, 1);
        assert_eq!(svc.heal(0), 0, "healthy shard drains nothing");
        let receipt = svc
            .apply_txn(&GraphTxn::new(1).insert_edge(Edge::new(VertexId(11), VertexId(12), 1.0)))
            .expect("commits");
        assert_eq!(receipt.ops_applied, 1);
        assert!(!receipt.deduped);
        assert!(
            svc.apply_txn(&GraphTxn::new(1).insert_edge(Edge::new(
                VertexId(11),
                VertexId(12),
                1.0
            )))
            .expect("replay answers from the ledger")
            .deduped
        );
    }
}
