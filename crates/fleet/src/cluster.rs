//! The fleet client: one [`GraphService`] routed across N servers.
//!
//! [`FleetCluster`] keeps its routing in a roster — the newest
//! [`PartitionMap`] plus a [`RemoteCluster`] per fleet server, dialed the
//! first time a request needs it — and implements [`GraphService`], so
//! `KHopSampler` and `TrainingPipeline` train through a whole fleet
//! unmodified — exactly as they run against one `Cluster` or one
//! `RemoteCluster`.
//!
//! ## Determinism
//!
//! [`FleetCluster::sample_many`] keeps the service determinism contract
//! through the same routine `Cluster` uses,
//! [`sample_by_owner`](platod2gl_server::sample_by_owner): exactly one
//! `next_u64` per request, *in request order, before any I/O*, then
//! `(request, seed)` pairs grouped by owning server, each group shipped
//! with its seeds pinned — the first on the caller's thread, one scoped
//! thread each for the others — and the replies stitched back by
//! position. Each server derives the same per-request RNG a single server
//! would have, so a fixed-seed trainer produces bit-identical batches
//! whether the graph lives on one server or ten — and a replica retry with
//! the same pinned seed is bit-identical too, which is what makes failover
//! invisible to a training run.
//!
//! ## Degraded reads
//!
//! A request whose owner cannot answer (connection dead, or the owning
//! shard faulted) retries on the partition's replica with the same seed.
//! Only when both copies fail does the request degrade under its own
//! [`DegradedPolicy`](platod2gl_server::DegradedPolicy), client-side.

use crate::map::PartitionMap;
use crate::node::{derive_txn_id, group_by_server, merge_receipt, sub_txn, CH_OWNER_SPLIT};
use crate::roster::Roster;
use platod2gl_graph::{Error, GraphTxn, ShardHealth, TxnError, TxnReceipt, UpdateOp};
use platod2gl_obs::{current_trace_context, Counter, ObsSnapshot, Registry, SpanRecord};
use platod2gl_rpc::{ClientConfig, RemoteCluster};
use platod2gl_server::{sample_by_owner, BatchReport, GraphService, SampleRequest, SampleResponse};
use rand::RngCore;
use std::sync::Arc;

struct FleetMetrics {
    replica_reads: Arc<Counter>,
    degraded_requests: Arc<Counter>,
    map_refreshes: Arc<Counter>,
}

/// A partition-routed client over a fleet of graph servers.
pub struct FleetCluster {
    /// The resident map and one connection per server it names.
    pub(crate) roster: Roster,
    registry: Arc<Registry>,
    m: FleetMetrics,
}

impl FleetCluster {
    /// Join a fleet through any of its members: ask every address for its
    /// partition map and adopt the highest-epoch one. One live member that
    /// carries a map is enough — the servers the map names are dialed when
    /// a request first needs them, so a dead member costs only its own
    /// partitions' owner reads (their replicas answer). Naming several
    /// members means one that lags behind a migration cannot pin the
    /// client to its stale map. Errors if no address answers, or if none
    /// of those that answer carries a map — a fleet client needs a fleet,
    /// not a bag of plain servers.
    pub fn connect<A: AsRef<str>>(addrs: &[A], client: ClientConfig) -> Result<Self, Error> {
        if addrs.is_empty() {
            return Err(Error::invalid_config("fleet address list is empty"));
        }
        let mut dial_err = None;
        let newest = addrs
            .iter()
            .filter_map(|a| {
                RemoteCluster::connect(a.as_ref(), client)
                    .map_err(|e| dial_err = Some(e))
                    .ok()
            })
            .filter_map(|seed| seed.fleet_map_bytes())
            .max_by_key(|&(epoch, _)| epoch);
        let bytes = match (newest, dial_err) {
            (Some((_, bytes)), _) => bytes,
            (None, Some(e)) => return Err(e),
            (None, None) => {
                return Err(Error::invalid_config(
                    "seed server carries no fleet partition map",
                ))
            }
        };
        let roster = Roster::new(client);
        roster.install(PartitionMap::decode(&bytes)?);
        let registry = Arc::new(Registry::new());
        let m = FleetMetrics {
            replica_reads: registry.counter("fleet.client.replica_reads"),
            degraded_requests: registry.counter("fleet.client.degraded_requests"),
            map_refreshes: registry.counter("fleet.client.map_refreshes"),
        };
        Ok(Self {
            roster,
            registry,
            m,
        })
    }

    /// The resident map.
    pub(crate) fn map(&self) -> Arc<PartitionMap> {
        self.roster.map().expect("connect installs a map")
    }

    /// The resident map's epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map().epoch()
    }

    /// Snapshot the resident map.
    pub fn map_snapshot(&self) -> PartitionMap {
        PartitionMap::clone(&self.map())
    }

    /// Adopt a newer map (no-op at or below the resident epoch).
    pub(crate) fn install_local(&self, map: PartitionMap) {
        if self.roster.install(map).1 {
            self.m.map_refreshes.inc();
        }
    }

    /// Connection to the server at roster index `idx` under `map`.
    pub(crate) fn conn(&self, map: &PartitionMap, idx: u32) -> Result<Arc<RemoteCluster>, Error> {
        self.roster.conn(&map.servers()[idx as usize])
    }

    /// Sample one owner group of `(request, seed)` pairs, falling back
    /// per request to the replica and then to the degraded policy.
    /// Returns responses parallel to `batch`. A group may run on a thread
    /// of its own, so `(root_id, trace)` re-anchor the fan-out span there:
    /// the outbound RPCs then carry the trace context the thread-local
    /// stack would otherwise lose.
    fn sample_group(
        &self,
        map: &PartitionMap,
        owner: u32,
        batch: &[(SampleRequest, u64)],
        (root_id, trace): (u64, u64),
    ) -> Vec<SampleResponse> {
        let _group_span = self
            .registry
            .span_with_parent("fleet.sample_group", root_id, trace);
        let primary = self
            .conn(map, owner)
            .ok()
            .and_then(|c| c.sample_with_seeds(batch).ok());
        let mut out: Vec<Option<SampleResponse>> = match primary {
            Some(v) => v.into_iter().map(Some).collect(),
            None => vec![None; batch.len()],
        };

        // The positions that still need an answer, grouped by the
        // partition's replica server.
        let unanswered: Vec<usize> = (0..out.len())
            .filter(|&pos| out[pos].as_ref().is_none_or(|r| r.degraded))
            .collect();
        let retry = group_by_server(&unanswered, |&pos| {
            map.replica_index(map.partition_of(batch[pos].0.vertex))
                .filter(|&r| r != owner)
        });
        for (ridx, positions) in retry {
            // The failover leg gets its own span (child of the group
            // span), so a stitched trace shows the replica read under the
            // retrying client rather than as a second unexplained RPC.
            let _retry_span = self.registry.span("fleet.replica_retry");
            let sub: Vec<(SampleRequest, u64)> = positions.iter().map(|&pos| batch[pos]).collect();
            let replies = self
                .conn(map, ridx)
                .ok()
                .and_then(|c| c.sample_with_seeds(&sub).ok());
            if let Some(replies) = replies {
                for (k, &pos) in positions.iter().enumerate() {
                    let better = !replies[k].degraded || out[pos].is_none();
                    if better {
                        if !replies[k].degraded {
                            self.m.replica_reads.inc();
                        }
                        out[pos] = Some(replies[k].clone());
                    }
                }
            }
        }

        out.into_iter()
            .enumerate()
            .map(|(pos, slot)| match slot {
                Some(r) => {
                    if r.degraded {
                        self.m.degraded_requests.inc();
                    }
                    r
                }
                None => {
                    self.m.degraded_requests.inc();
                    SampleResponse::degraded(&batch[pos].0, 0)
                }
            })
            .collect()
    }

    /// Label a roster member for merged telemetry: stable across map
    /// epochs (the id survives migrations; the address may not).
    fn member_label(id: u64) -> String {
        format!("server-{id}")
    }

    /// Pull every span of `trace_id` from this client's own registry and
    /// from every roster member (`SpanExport` RPC), labeled by member in
    /// roster order. Unreachable members contribute an empty list — the
    /// trace view degrades, it does not fail.
    pub fn fleet_trace(&self, trace_id: u64) -> Vec<(String, Vec<SpanRecord>)> {
        let map = self.map();
        let mut out = vec![("client".to_string(), self.registry.trace_spans(trace_id))];
        for entry in map.servers() {
            let spans = self
                .roster
                .conn(entry)
                .and_then(|c| c.export_spans(trace_id))
                .ok()
                .unwrap_or_default();
            out.push((Self::member_label(entry.id), spans));
        }
        out
    }

    /// Pull the registry snapshot (metrics with exact histogram buckets,
    /// plus recent slow ops) from this client and every reachable roster
    /// member, labeled by member in roster order.
    pub fn fleet_obs(&self) -> Vec<(String, ObsSnapshot)> {
        let map = self.map();
        let mut out = vec![("client".to_string(), self.registry.snapshot())];
        for entry in map.servers() {
            if let Ok(snap) = self.roster.conn(entry).and_then(|c| c.export_obs()) {
                out.push((Self::member_label(entry.id), snap));
            }
        }
        out
    }

    /// Per-server shard-index offsets, map roster order — the fleet's
    /// global shard numbering for `shard_healths`/`heal`. A server that
    /// cannot be dialed contributes no shards.
    fn shard_layout(&self) -> Vec<(Arc<RemoteCluster>, usize)> {
        self.map()
            .servers()
            .iter()
            .filter_map(|e| self.roster.conn(e).ok())
            .map(|c| {
                let n = c.num_shards();
                (c, n)
            })
            .collect()
    }
}

impl GraphService for FleetCluster {
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        self.sample_many(std::slice::from_ref(req), rng)
            .pop()
            .expect("one request yields one response")
    }

    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        if reqs.is_empty() {
            return Vec::new();
        }
        // Root span of the whole fan-out. An ambient trace (the caller
        // opened one) is inherited; otherwise the first traced request
        // names the trace, so one request id stitches client, owner, and
        // replica spans across processes.
        let root = match (
            current_trace_context(),
            reqs.iter().find_map(|r| r.trace_id),
        ) {
            (None, Some(t)) => self.registry.span_traced("fleet.sample", t),
            _ => self.registry.span("fleet.sample"),
        };
        let anchor = (root.id(), root.trace_id());
        let map = self.map();
        // The groups hit different servers, so their round trips overlap.
        let owner = |req: &SampleRequest| map.owner_of(req.vertex) as usize;
        sample_by_owner(reqs, rng, map.servers().len(), owner, |at, batch| {
            self.sample_group(&map, at as u32, batch, anchor)
        })
    }

    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        let map = self.map();
        let mut report = BatchReport::default();
        for (owner, batch) in group_by_server(ops, |op| Some(map.owner_of(op.src()))) {
            let r = self.conn(&map, owner)?.apply_updates(&batch)?;
            report.applied_ops += r.applied_ops;
            report.queued_ops += r.queued_ops;
        }
        Ok(report)
    }

    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        let map = self.map();
        let route = |owner: u32| self.conn(&map, owner).map_err(TxnError::Store);
        let legs = group_by_server(txn.ops(), |op| Some(map.owner_of(op.src())));
        match legs.as_slice() {
            [] => route(0)?.apply_txn(txn),
            [(owner, _)] => route(*owner)?.apply_txn(txn),
            many => {
                // A txn spanning owners splits into per-owner sub-txns
                // with ids derived deterministically from the original —
                // each leg stays idempotent on retry, but atomicity is
                // per-server, not fleet-wide (see DESIGN.md §6g).
                let mut receipt = TxnReceipt {
                    txn_id: txn.id(),
                    deduped: true,
                    ..TxnReceipt::default()
                };
                for (owner, ops) in many {
                    let server_id = map.servers()[*owner as usize].id;
                    let id = derive_txn_id(txn.id(), server_id, CH_OWNER_SPLIT);
                    merge_receipt(&mut receipt, route(*owner)?.apply_txn(&sub_txn(id, ops))?);
                }
                Ok(receipt)
            }
        }
    }

    fn graph_version(&self) -> u64 {
        self.shard_layout()
            .iter()
            .map(|(c, _)| c.graph_version())
            .sum()
    }

    fn num_shards(&self) -> usize {
        self.shard_layout().iter().map(|(_, n)| n).sum()
    }

    fn shard_healths(&self) -> Vec<ShardHealth> {
        self.shard_layout()
            .iter()
            .flat_map(|(c, _)| c.shard_healths())
            .collect()
    }

    fn heal(&self, shard: usize) -> usize {
        let mut offset = 0usize;
        for (conn, n) in self.shard_layout() {
            if shard < offset + n {
                return conn.heal(shard - offset);
            }
            offset += n;
        }
        0
    }

    fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}
