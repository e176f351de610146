//! The server-side fleet member: a [`Cluster`] plus routing awareness.
//!
//! A [`FleetNode`] wraps one in-process `Cluster` and makes it a citizen
//! of a fleet. It keeps a roster, the same type the client routes with:
//! its copy of the [`PartitionMap`] and a connection per peer, dialed when
//! a write first needs that peer. Through it the node fans writes it owns
//! out to the partition's replica and relays writes it does *not* own to
//! the current owner — the path that keeps clients routing on a stale map
//! correct during a migration.
//!
//! ## Why replication cannot loop
//!
//! First-hand writes (`apply_updates` / `apply_txn`) fan out; writes that
//! arrive on the **replica channel** (`apply_replica_updates` /
//! `apply_replica_txn`, dedicated wire frames) apply locally and are never
//! re-forwarded. Owner → replica is therefore always one hop.
//!
//! Relays (stale-routed first-hand writes) forward first-hand, so the
//! receiving owner does its own replica fan-out. Both write paths relay
//! **only the foreign subset** of a batch/txn — the receiver owns
//! everything it is handed (under the sender's map), so it has nothing of
//! the sender's to bounce back. A relay ping-pong would additionally need
//! two servers that each believe the *other* owns a partition, which
//! epoch-monotonic installs plus the migration driver's install order
//! (new owner first — see [`crate::FleetCluster::migrate_partition`])
//! rule out: by the time the old owner relays, the new owner's map
//! already names itself. And because a relayed txn keeps its original id,
//! even a pathological bounce dedupes against the sender's ledger instead
//! of re-applying.

use crate::map::PartitionMap;
use crate::roster::Roster;
use platod2gl_graph::{
    splitmix64, Error, GraphTxn, ShardHealth, TxnError, TxnOp, TxnReceipt, UpdateOp, VertexId,
};
use platod2gl_obs::{Counter, Registry};
use platod2gl_rpc::{RemoteCluster, RemoteClusterConfig};
use platod2gl_server::{BatchReport, Cluster, GraphService, SampleRequest, SampleResponse};
use rand::RngCore;
use std::sync::Arc;

/// Channel tag for the client-side cross-owner split
/// ([`crate::FleetCluster::apply_txn`]).
pub(crate) const CH_OWNER_SPLIT: u64 = 1;
/// Channel tag for owner → replica sub-txns ([`FleetNode::apply_txn`]).
pub(crate) const CH_REPLICA: u64 = 2;

/// The id a per-server sub-txn carries in place of its parent's.
/// Deterministic, so a retried leg dedupes at the receiver; fully mixed,
/// so a derived id colliding with an unrelated client txn id in a
/// server's dedupe ledger is a 64-bit birthday event, not (as a plain
/// XOR derivation was) a single-flip coincidence. The channel tag keeps
/// the owner-split and replica legs a server may receive for the *same*
/// parent txn from deduping each other away.
pub(crate) fn derive_txn_id(base: u64, server_id: u64, channel: u64) -> u64 {
    splitmix64(base ^ splitmix64(server_id ^ channel.rotate_left(56)))
}

/// A sub-txn carrying `ops` under `id`.
pub(crate) fn sub_txn(id: u64, ops: &[TxnOp]) -> GraphTxn {
    let mut sub = GraphTxn::new(id);
    for op in ops {
        sub.push(*op);
    }
    sub
}

/// Fold one leg's receipt into the receipt of the txn it was split from.
pub(crate) fn merge_receipt(into: &mut TxnReceipt, leg: TxnReceipt) {
    into.ops_applied += leg.ops_applied;
    into.graph_version = into.graph_version.max(leg.graph_version);
    into.deduped &= leg.deduped;
}

/// Group ops by the server `key` names for them, servers in first-seen
/// order and ops in submission order within a group (`None` drops the op).
/// The one split every fleet write uses, whatever the op type.
pub(crate) fn group_by_server<T: Copy>(
    ops: &[T],
    key: impl Fn(&T) -> Option<u32>,
) -> Vec<(u32, Vec<T>)> {
    let mut groups: Vec<(u32, Vec<T>)> = Vec::new();
    for op in ops {
        let Some(server) = key(op) else { continue };
        match groups.iter_mut().find(|(s, _)| *s == server) {
            Some((_, group)) => group.push(*op),
            None => groups.push((server, vec![*op])),
        }
    }
    groups
}

/// One first-hand write split under a node's map: the ops this node owns,
/// their replica legs, and the stale-routed legs other servers own.
struct Split<T> {
    map: Arc<PartitionMap>,
    owned: Vec<T>,
    replicas: Vec<(u32, Vec<T>)>,
    foreign: Vec<(u32, Vec<T>)>,
}

struct NodeMetrics {
    replica_fanouts: Arc<Counter>,
    replica_errors: Arc<Counter>,
    relayed_ops: Arc<Counter>,
    map_installs: Arc<Counter>,
}

/// One fleet member: a local [`Cluster`] served over RPC, plus the
/// roster (partition map and peer connections) that makes it replicate
/// and relay.
pub struct FleetNode {
    cluster: Arc<Cluster>,
    server_id: u64,
    roster: Roster,
    m: NodeMetrics,
}

impl FleetNode {
    /// Wrap a cluster as fleet member `server_id`. The node starts
    /// map-less (it behaves exactly like the bare cluster) until a map is
    /// installed — locally via [`FleetNode::install`] during bootstrap, or
    /// over the wire via the `MapInstall` frame.
    pub fn new(cluster: Arc<Cluster>, server_id: u64, peer_cfg: RemoteClusterConfig) -> Self {
        let registry = cluster.obs().clone();
        let m = NodeMetrics {
            replica_fanouts: registry.counter("fleet.node.replica_fanouts"),
            replica_errors: registry.counter("fleet.node.replica_errors"),
            relayed_ops: registry.counter("fleet.node.relayed_ops"),
            map_installs: registry.counter("fleet.node.map_installs"),
        };
        Self {
            cluster,
            server_id,
            roster: Roster::new(peer_cfg),
            m,
        }
    }

    /// This node's stable fleet identity.
    pub fn server_id(&self) -> u64 {
        self.server_id
    }

    /// The wrapped cluster (tests and admin wiring reach through).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Install a map directly (bootstrap path). Epoch-monotonic: an
    /// install at or below the resident epoch is a no-op. Returns the
    /// epoch now in effect.
    pub fn install(&self, map: PartitionMap) -> u64 {
        let (epoch, adopted) = self.roster.install(map);
        if adopted {
            self.m.map_installs.inc();
        }
        epoch
    }

    /// Snapshot the resident map.
    pub fn map_snapshot(&self) -> Option<PartitionMap> {
        self.roster.map().map(|map| PartitionMap::clone(&map))
    }

    /// Whether the resident map names this node `partition`'s owner;
    /// `None` while the node is map-less, not (yet) a roster member, or
    /// the partition is outside the map's keyspace.
    fn owns(&self, partition: u32) -> Option<bool> {
        let map = self.roster.map()?;
        let me = map.index_of(self.server_id)?;
        (partition < map.num_partitions()).then(|| map.owner_index(partition) == me)
    }

    /// Split a first-hand write by `src` under the resident map: ops this
    /// node owns apply locally and fan out to their partitions' replicas;
    /// stale-routed ops relay to their owner *without* applying here — a
    /// local copy of a foreign partition would never see the owner's later
    /// deletes, and could resurrect them if the partition ever migrates
    /// here. Relaying only the foreign subset is also what keeps relays
    /// loop-free (see the module docs): the receiver owns everything in
    /// its leg. `None` while the node is map-less or not (yet) a roster
    /// member — it then behaves exactly like the bare cluster.
    fn split<T: Copy>(&self, ops: &[T], src: impl Fn(&T) -> VertexId) -> Option<Split<T>> {
        let map = self.roster.map()?;
        let my_idx = map.index_of(self.server_id)?;
        let (owned, stale): (Vec<T>, Vec<T>) =
            ops.iter().partition(|op| map.owner_of(src(op)) == my_idx);
        let replicas = group_by_server(&owned, |op| {
            map.replica_index(map.partition_of(src(op)))
                .filter(|r| *r != my_idx)
        });
        let foreign = group_by_server(&stale, |op| Some(map.owner_of(src(op))));
        Some(Split {
            map,
            owned,
            replicas,
            foreign,
        })
    }

    /// Ship a split write's legs. Owner → replica fan-out is best-effort:
    /// a down replica degrades reads (clients fall back to the owner's
    /// answer), it must not fail the owner's write path — failures are
    /// counted and swallowed. Stale-routed legs relay first-hand to the
    /// real owner, who does its own replica fan-out; this node did not
    /// apply them, so a dropped relay would silently lose an acked write —
    /// relay failures are hard errors.
    fn forward<T, E: From<Error>>(
        &self,
        split: &Split<T>,
        to_replica: impl Fn(&RemoteCluster, u64, &[T]) -> Result<(), E>,
        mut relay: impl FnMut(&RemoteCluster, &[T]) -> Result<(), E>,
    ) -> Result<(), E> {
        let servers = split.map.servers();
        for (ridx, leg) in &split.replicas {
            let replica = &servers[*ridx as usize];
            let sent = self
                .roster
                .conn(replica)
                .map_err(E::from)
                .and_then(|peer| to_replica(&peer, replica.id, leg));
            match sent {
                Ok(()) => self.m.replica_fanouts.inc(),
                Err(_) => self.m.replica_errors.inc(),
            }
        }
        for (owner, leg) in &split.foreign {
            relay(&*self.roster.conn(&servers[*owner as usize])?, leg)?;
            self.m.relayed_ops.add(leg.len() as u64);
        }
        Ok(())
    }
}

impl GraphService for FleetNode {
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        GraphService::sample_one(&*self.cluster, req, rng)
    }

    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        GraphService::sample_many(&*self.cluster, reqs, rng)
    }

    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        let Some(split) = self.split(ops, UpdateOp::src) else {
            return self.cluster.apply_updates(ops);
        };
        let mut report = self.cluster.apply_updates(&split.owned)?;
        self.forward(
            &split,
            |peer, _, leg| peer.apply_replica_updates(leg).map(drop),
            |peer, leg| {
                let relayed = peer.apply_updates(leg)?;
                report.applied_ops += relayed.applied_ops;
                report.queued_ops += relayed.queued_ops;
                Ok(())
            },
        )?;
        Ok(report)
    }

    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        // An empty txn has no owner to split by: the local phase 1 rejects
        // it, exactly as a bare cluster does.
        let split = self.split(txn.ops(), TxnOp::src);
        let Some(split) = split.filter(|_| !txn.ops().is_empty()) else {
            return self.cluster.apply_txn(txn);
        };
        let mut receipt = if split.owned.is_empty() {
            // Nothing of ours — the receipt aggregates the relay legs.
            TxnReceipt {
                txn_id: txn.id(),
                deduped: true,
                ..TxnReceipt::default()
            }
        } else {
            self.cluster.apply_txn(&sub_txn(txn.id(), &split.owned))?
        };
        self.forward(
            &split,
            // One sub-txn per replica holding exactly the partitions it
            // replicates, under a derived id (a server can receive a relay
            // leg and a replica leg of the same parent txn — distinct ids
            // keep them from deduping each other away).
            |peer, server_id, leg| {
                let id = derive_txn_id(txn.id(), server_id, CH_REPLICA);
                peer.apply_replica_txn(&sub_txn(id, leg)).map(drop)
            },
            // The relay leg keeps the *original* txn id: a client retry
            // landing on either server dedupes, and a bounce from a staler
            // receiver dedupes against our own ledger.
            |peer, leg| {
                merge_receipt(&mut receipt, peer.apply_txn(&sub_txn(txn.id(), leg))?);
                Ok(())
            },
        )?;
        Ok(receipt)
    }

    fn apply_replica_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        // Replica channel: apply locally, never re-forward. The cluster's
        // replica origin is version-silent, which keeps replication and
        // migration streams from masquerading as logical writes to fleet
        // clients (whose trainer caches invalidate on the fleet-wide
        // version sum).
        self.cluster.apply_replica_updates(ops)
    }

    fn apply_replica_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        self.cluster.apply_replica_txn(txn)
    }

    fn fleet_map_bytes(&self) -> Option<(u64, Vec<u8>)> {
        self.roster.map().map(|m| (m.epoch(), m.encode()))
    }

    fn install_fleet_map(&self, epoch: u64, bytes: &[u8]) -> Result<u64, Error> {
        let map = PartitionMap::decode(bytes)?;
        if map.epoch() != epoch {
            return Err(Error::invalid_config(
                "map install frame epoch disagrees with encoded map",
            ));
        }
        let epoch = self.install(map.clone());
        // An install at the resident epoch is a no-op, so a different map
        // at that epoch (promoted from a stale one) is refused, not acked.
        match self.roster.map() {
            Some(cur) if cur.epoch() == map.epoch() && *cur != map => Err(Error::invalid_config(
                "a different map is already installed at this epoch",
            )),
            _ => Ok(epoch),
        }
    }

    fn begin_migration(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        // A move's source is the partition's owner; a driver naming another
        // member routes on a map the fleet has moved past.
        if self.owns(partition) == Some(false) {
            return Err(Error::invalid_config(format!(
                "partition {partition} is not owned here; the mover's map is stale"
            )));
        }
        self.cluster.begin_migration(partition, num_partitions)
    }

    fn migration_tail(&self, partition: u32, from: u64) -> Result<(Vec<UpdateOp>, u64), Error> {
        self.cluster.migration_tail(partition, from)
    }

    fn end_migration(&self, partition: u32) -> Result<u64, Error> {
        self.cluster.end_migration(partition)
    }

    fn drop_partition(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        // The owner's copy is the partition itself: only a driver routing
        // on a stale map names the owner a move's target.
        if self.owns(partition) == Some(true) {
            return Err(Error::invalid_config(format!(
                "partition {partition} is owned here; the mover's map is stale"
            )));
        }
        self.cluster.drop_partition(partition, num_partitions)
    }

    fn partition_key_counts(&self, num_partitions: u32) -> Vec<u64> {
        self.cluster.partition_key_counts(num_partitions)
    }

    fn graph_version(&self) -> u64 {
        self.cluster.graph_version()
    }

    fn num_shards(&self) -> usize {
        self.cluster.num_shards()
    }

    fn shard_healths(&self) -> Vec<ShardHealth> {
        self.cluster.health()
    }

    fn heal(&self, shard: usize) -> usize {
        self.cluster.heal_shard(shard)
    }

    fn registry(&self) -> &Arc<Registry> {
        self.cluster.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::{derive_txn_id, CH_OWNER_SPLIT, CH_REPLICA};
    use std::collections::HashSet;

    #[test]
    fn derived_txn_ids_are_distinct_per_leg_and_well_mixed() {
        let mut seen = HashSet::new();
        for base in [0u64, 1, 42, u64::MAX, 0x4242_4242] {
            assert!(seen.insert(base), "bases themselves are distinct");
            for server_id in 1..=8u64 {
                for channel in [CH_OWNER_SPLIT, CH_REPLICA] {
                    let id = derive_txn_id(base, server_id, channel);
                    assert!(
                        seen.insert(id),
                        "derived ids must collide with neither bases nor each other"
                    );
                }
            }
        }
        // Deterministic: a retried leg re-derives the same id.
        assert_eq!(
            derive_txn_id(7, 3, CH_REPLICA),
            derive_txn_id(7, 3, CH_REPLICA)
        );
    }
}
