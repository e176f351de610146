//! Horizontal scale-out for PlatoD2GL: a partition-routed fleet of graph
//! servers with leader/replica replication and live shard migration.
//!
//! The paper's deployment (Sec. VII) shards billion-scale graphs across a
//! fleet of graph servers; trainers route sampling and update RPCs to the
//! owning server. This crate is that tier:
//!
//! * [`PartitionMap`] — the versioned routing table. Vertices hash onto a
//!   fixed partition keyspace; partitions map onto servers by rendezvous
//!   hashing, so membership changes move only ~1/(N+1) of the keyspace. A
//!   monotone epoch makes staleness detectable and installs safe.
//! * A private roster — the newest map plus one lazily dialed connection
//!   per server id, with the fleet's one epoch-monotonic install. The
//!   client and every member keep their routing state in one.
//! * [`FleetNode`] — the server-side member: a local `Cluster` that fans
//!   first-hand writes out to each partition's replica (over dedicated
//!   replica-channel frames that are never re-forwarded) and relays
//!   stale-routed writes to the current owner.
//! * [`FleetCluster`] — the client: implements `GraphService` by routing
//!   every request to the owning server, retrying reads on the replica
//!   with the *same pinned seed* (bit-identical failover), and falling
//!   back to the request's `DegradedPolicy` only when both copies fail.
//!   `KHopSampler` and `TrainingPipeline` run on top unmodified.
//! * [`FleetCluster::migrate_partition`] / [`FleetCluster::join_and_migrate`]
//!   — live migration: stream a partition to a new owner while serving,
//!   drain the source's op journal, bump the map epoch, re-route. A
//!   training run straddling a migration sees zero failed batches.

mod admin_view;
mod cluster;
mod map;
mod migrate;
mod node;
mod roster;

pub use cluster::FleetCluster;
pub use map::{PartitionMap, ServerEntry};
pub use migrate::{JoinReport, MigrationReport};
pub use node::FleetNode;
