//! # Simulated distributed deployment
//!
//! The paper evaluates on a 74-server cluster, 54 of which store graph data
//! (Sec. VII-A). Under hash-by-source partitioning each graph server owns a
//! disjoint set of source vertices and serves updates/samples for them
//! independently — there is no cross-server coordination on the storage
//! path. That independence is what makes a single-process simulation
//! faithful: a [`Cluster`] holds `S` [`GraphServer`] shards running the real
//! storage engine, routes every request by source-vertex hash exactly as the
//! production router would, and counts the request/response bytes that
//! would have crossed the network.
//!
//! [`Cluster`] itself implements [`GraphStore`], so the operator layer and
//! every benchmark can run against "a cluster" without changes.
//!
//! ## Fault tolerance
//!
//! At 74-server scale individual machines fail routinely, so the router
//! degrades instead of crashing (see DESIGN.md "Durability & failure
//! model"). A [`FaultInjector`] scripts per-shard faults; the router
//! reacts:
//!
//! * **transient faults** are retried with exponential backoff
//!   (the `cluster.retried_requests` counter in [`Cluster::obs`]);
//! * **failed shards** serve *degraded* reads — sampling returns an empty
//!   neighbor set flagged via [`SampleResponse::degraded`] instead of
//!   panicking — and their updates are **queued**
//!   (`cluster.queued_ops`) until [`Cluster::heal_shard`] drains
//!   them;
//! * a **panicking batch worker** is caught per shard
//!   ([`GraphService::apply_updates`] returns a `Result`), the shard is
//!   marked [`ShardHealth::Failed`], and the other shards' work completes.
//!
//! Maintenance paths (snapshots, attribute access) talk to
//! shard storage directly and are not fault-routed.
//!
//! ## One write pipeline
//!
//! Every write — routed single op, update batch, transaction, first-hand or
//! on the replica channel — runs the same **route → admit → apply → settle**
//! pipeline in the private `write` module: an update batch is a transaction
//! minus validation, with lenient instead of strict admission. DESIGN.md
//! §6b has the admission table.

mod faults;
mod request;
mod service;
mod txn;
pub mod wire;
mod write;

pub use faults::{FaultInjector, FaultKind};
pub use platod2gl_obs::HistogramSnapshot;
pub use request::{DegradedPolicy, SampleRequest, SampleResponse, SlotSource};
pub use service::{sample_by_owner, GraphService};
pub use txn::TxnLogEntry;

use platod2gl_graph::{
    splitmix64, Edge, EdgeType, Error, GraphStore, ShardHealth, TxnView, UpdateOp, VertexId,
};
use platod2gl_obs::{Counter, Gauge, Histogram, Registry};
use platod2gl_storage::{AttributeStore, DynamicGraphStore, StoreConfig, StoreMemory};
use rand::RngCore;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use txn::TxnPlane;
use write::Origin;

/// Cluster-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of simulated graph servers.
    pub num_shards: usize,
    /// Storage configuration applied to every shard.
    pub store: StoreConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            store: StoreConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Start building a validated configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`ClusterConfig`] that validates at [`build`] time instead of
/// panicking deep inside `Cluster::new` / tree construction.
///
/// [`build`]: ClusterConfigBuilder::build
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Number of simulated graph servers.
    pub fn num_shards(mut self, n: usize) -> Self {
        self.config.num_shards = n;
        self
    }

    /// Storage configuration applied to every shard.
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.config.store = store;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ClusterConfig, Error> {
        let c = self.config;
        if c.num_shards == 0 {
            return Err(Error::invalid_config("num_shards must be at least 1"));
        }
        c.store.tree.check().map_err(Error::invalid_config)?;
        Ok(c)
    }
}

/// One simulated graph server: the storage engine plus its attribute store.
pub struct GraphServer {
    shard_id: usize,
    topology: DynamicGraphStore,
    attributes: AttributeStore,
}

impl GraphServer {
    /// This server's shard index.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// The server's topology store.
    pub fn topology(&self) -> &DynamicGraphStore {
        &self.topology
    }

    /// The server's attribute store.
    pub fn attributes(&self) -> &AttributeStore {
        &self.attributes
    }
}

/// Per-shard router-side state: observed health plus updates parked while
/// the shard is down, each with the channel it arrived on.
struct ShardState {
    health: AtomicU8,
    pending: Mutex<Vec<(UpdateOp, Origin)>>,
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_FAILED: u8 = 2;

impl ShardState {
    fn new() -> Self {
        ShardState {
            health: AtomicU8::new(HEALTH_HEALTHY),
            pending: Mutex::new(Vec::new()),
        }
    }

    fn health(&self) -> ShardHealth {
        match self.health.load(Ordering::Relaxed) {
            HEALTH_FAILED => ShardHealth::Failed,
            HEALTH_DEGRADED => ShardHealth::Degraded,
            _ => ShardHealth::Healthy,
        }
    }

    fn set_health(&self, h: ShardHealth) {
        let v = match h {
            ShardHealth::Healthy => HEALTH_HEALTHY,
            ShardHealth::Degraded => HEALTH_DEGRADED,
            ShardHealth::Failed => HEALTH_FAILED,
        };
        self.health.store(v, Ordering::Relaxed);
    }

    /// Degraded -> Healthy on a clean success (never resurrects Failed).
    fn mark_success(&self) {
        let _ = self.health.compare_exchange(
            HEALTH_DEGRADED,
            HEALTH_HEALTHY,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Vec<(UpdateOp, Origin)>> {
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Outcome of a sharded batch application.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Ops applied to healthy shards.
    pub applied_ops: usize,
    /// Ops queued because their shard is failed (drained by
    /// [`Cluster::heal_shard`]).
    pub queued_ops: usize,
}

/// Resident memory of one shard, as walked by
/// [`Cluster::memory_breakdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardMemory {
    /// Shard id.
    pub shard: usize,
    /// Topology store breakdown (samtree payload/index + directory).
    pub topology: StoreMemory,
    /// Vertex attribute blob bytes.
    pub attr_bytes: usize,
    /// Resident edges on this shard.
    pub edges: usize,
}

/// Cluster-wide resident memory: the paper's Table IV accounting, walked
/// live over every shard's `DeepSize` implementations. Produced by
/// [`Cluster::memory_breakdown`], which also refreshes the
/// `graph.mem.samtree_bytes` / `graph.mem.timestamp_bytes` /
/// `graph.mem.attr_bytes` gauges so the split appears in every snapshot and
/// on `/metrics`.
#[derive(Clone, Debug, Default)]
pub struct ClusterMemory {
    /// Per-shard breakdowns, shard order.
    pub per_shard: Vec<ShardMemory>,
    /// Total topology bytes (leaf + internal + directory) across shards —
    /// the value published as `graph.mem.samtree_bytes`.
    pub samtree_bytes: usize,
    /// Samtree leaf bytes across shards:
    /// `leaf_payload_bytes + leaf_slack_bytes`.
    pub leaf_bytes: usize,
    /// Leaf rows themselves across shards (rows × bytes per row).
    pub leaf_payload_bytes: usize,
    /// Spare leaf column capacity across shards.
    pub leaf_slack_bytes: usize,
    /// Samtree internal-node (index) bytes across shards.
    pub internal_bytes: usize,
    /// Cuckoo directory bytes across shards.
    pub directory_bytes: usize,
    /// Leaf timestamp-column bytes across shards, outside `samtree_bytes`
    /// (`graph.mem.timestamp_bytes`; 0 on a timeless graph).
    pub timestamp_bytes: usize,
    /// Attribute blob bytes across shards (`graph.mem.attr_bytes`).
    pub attr_bytes: usize,
}

/// Pre-resolved handles into the cluster's [`Registry`], so the serving hot
/// path never touches the registry's name maps (one `Arc` deref + striped
/// atomic per event).
struct ClusterMetrics {
    requests: Arc<Counter>,
    request_bytes: Arc<Counter>,
    response_bytes: Arc<Counter>,
    failed_requests: Arc<Counter>,
    retried_requests: Arc<Counter>,
    degraded_responses: Arc<Counter>,
    queued_ops: Arc<Counter>,
    heals: Arc<Counter>,
    healed_ops: Arc<Counter>,
    batch_apply_errors: Arc<Counter>,
    txn_committed: Arc<Counter>,
    txn_aborted: Arc<Counter>,
    txn_deduped: Arc<Counter>,
    txn_ops_applied: Arc<Counter>,
    txn_abort_streak: Arc<Gauge>,
    sample_latency: Arc<Histogram>,
    update_latency: Arc<Histogram>,
    graph_version: Arc<Gauge>,
    mem_samtree: Arc<Gauge>,
    mem_timestamp: Arc<Gauge>,
    mem_attr: Arc<Gauge>,
}

impl ClusterMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("cluster.requests"),
            request_bytes: registry.counter("cluster.request_bytes"),
            response_bytes: registry.counter("cluster.response_bytes"),
            failed_requests: registry.counter("cluster.failed_requests"),
            retried_requests: registry.counter("cluster.retried_requests"),
            degraded_responses: registry.counter("cluster.degraded_responses"),
            queued_ops: registry.counter("cluster.queued_ops"),
            heals: registry.counter("cluster.heals"),
            healed_ops: registry.counter("cluster.healed_ops"),
            batch_apply_errors: registry.counter("cluster.batch_apply_errors"),
            txn_committed: registry.counter("txn.committed"),
            txn_aborted: registry.counter("txn.aborted"),
            txn_deduped: registry.counter("txn.deduped"),
            txn_ops_applied: registry.counter("txn.ops_applied"),
            txn_abort_streak: registry.gauge("txn.abort_streak"),
            sample_latency: registry.histogram("cluster.sample_latency_ns"),
            update_latency: registry.histogram("cluster.update_latency_ns"),
            graph_version: registry.gauge("cluster.graph_version"),
            mem_samtree: registry.gauge("graph.mem.samtree_bytes"),
            mem_timestamp: registry.gauge("graph.mem.timestamp_bytes"),
            mem_attr: registry.gauge("graph.mem.attr_bytes"),
        }
    }
}

/// A routing facade over `S` graph servers.
pub struct Cluster {
    servers: Vec<GraphServer>,
    shard_states: Vec<ShardState>,
    faults: FaultInjector,
    /// Unified observability registry: cluster counters/histograms plus the
    /// per-shard storage metrics (`samtree.*`, `storage.*`) — every shard
    /// store is built against this same registry, so samtree activity
    /// aggregates across shards.
    registry: Arc<Registry>,
    m: ClusterMetrics,
    /// Transaction-plane state: the idempotence ledger answering RPC
    /// retries, the `/debug/txns` journal, the abort streak fed to
    /// `/healthz`, and the declared relation schema.
    txn: TxnPlane,
    /// Monotone graph-version counter, bumped on every mutation that lands
    /// on a shard (see [`Cluster::graph_version`]). Bounded-staleness
    /// caches key their entries to this. Mirrored, with the shards' decay
    /// ticks, into the `cluster.graph_version` gauge at each bump.
    version: AtomicU64,
    /// Live-migration plane: while a partition is being streamed to a new
    /// owner, its census and the journal of first-hand ops landing on it.
    migration: MigrationLog,
}

/// Hash-by-source routing, as a free function so remote clients
/// (`platod2gl-rpc`) can predict shard ownership without a cluster handle.
pub fn route_for(v: VertexId, num_shards: usize) -> usize {
    (splitmix64(v.raw()) % num_shards.max(1) as u64) as usize
}

/// Fleet-level partition of a vertex: the unit of ownership, replication
/// and migration across *servers* (`platod2gl-fleet`), one level above the
/// per-server shard hash of [`route_for`]. Salted so the partition split
/// is independent of the shard split — a partition's vertices spread over
/// all of a server's local shards.
pub fn partition_for(v: VertexId, num_partitions: u32) -> u32 {
    (splitmix64(v.raw() ^ 0xf1ee_7000_0000_0001) % u64::from(num_partitions.max(1))) as u32
}

/// Cap on the ops a single migration journal may buffer before the
/// migration is declared failed (the mover must restart it). Bounds
/// memory under a runaway writer.
const MIGRATION_JOURNAL_CAP: usize = 1 << 20;

/// Edge budget of one census page of a migration stream (a page always
/// holds at least one whole key).
const CENSUS_PAGE_EDGES: usize = 4096;

/// The source side of a partition move, one ordered stream of positions:
/// armed by `begin_migration`, which then takes the partition's
/// `(src, etype)` keys once (the **census**); served in pages by `migration_tail`;
/// disarmed by `end_migration`. Position `i < census.len()` is census key
/// `i`, served as that key's rows at the time its page is read; position
/// `census.len() + s` is journal op `s`, a **first-hand** update op applied
/// to the partition after the arm. Replica-channel applies are never
/// journaled — after the promote they are the new owner's echoes of ops
/// the target already holds, and journaling them would keep the final
/// drain from ever converging. The `armed` flag keeps the write hot path at
/// one relaxed atomic load when no migration is running.
struct MigrationLog {
    armed: AtomicBool,
    inner: Mutex<Option<MigrationState>>,
}

struct MigrationState {
    partition: u32,
    num_partitions: u32,
    /// The partition's keys, sorted, scanned just after the arm; `None`
    /// while `begin_migration` is still scanning. Shared with page readers,
    /// which read rows outside the lock.
    census: Option<Arc<[(u64, u16)]>>,
    /// Journal op `s` is `ops[s]`.
    ops: Vec<UpdateOp>,
    overflowed: bool,
}

impl MigrationLog {
    fn new() -> Self {
        Self {
            armed: AtomicBool::new(false),
            inner: Mutex::new(None),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<MigrationState>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Byte size of a vertex/scalar field on the *maintenance* read paths
/// (degree, weight sums, attribute fetches). Those paths are not
/// part of the RPC wire protocol, so their traffic is modeled, not
/// codec-derived; the serving paths (sampling, update batches) account
/// with the real frame sizes from [`wire`].
const ID_BYTES: u64 = 8;

impl Cluster {
    /// Boot a cluster with its own fresh observability registry.
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_registry(config, Arc::new(Registry::new()))
    }

    /// Boot a cluster that records into a caller-provided registry (so a
    /// pipeline, a WAL sidecar, and the cluster can share one snapshot).
    /// The registry's slow-op threshold stays as the caller left it.
    pub fn with_registry(config: ClusterConfig, registry: Arc<Registry>) -> Self {
        assert!(config.num_shards >= 1);
        let m = ClusterMetrics::new(&registry);
        Self {
            servers: (0..config.num_shards)
                .map(|shard_id| GraphServer {
                    shard_id,
                    topology: DynamicGraphStore::with_registry(config.store, Arc::clone(&registry)),
                    attributes: AttributeStore::new(),
                })
                .collect(),
            shard_states: (0..config.num_shards).map(|_| ShardState::new()).collect(),
            faults: FaultInjector::new(config.num_shards),
            registry,
            m,
            txn: TxnPlane::new(),
            version: AtomicU64::new(0),
            migration: MigrationLog::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.servers.len()
    }

    /// Hash-by-source routing: the shard owning vertex `v`'s out-edges.
    pub fn route(&self, v: VertexId) -> usize {
        route_for(v, self.servers.len())
    }

    /// Access a shard directly (diagnostics; production clients only talk
    /// through the router).
    pub fn server(&self, shard: usize) -> &GraphServer {
        &self.servers[shard]
    }

    /// All shards.
    pub fn servers(&self) -> &[GraphServer] {
        &self.servers
    }

    /// The fault injector scripting this cluster's failures.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The router's view of one shard's health.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.shard_states[shard].health()
    }

    /// Health of every shard.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shard_states.iter().map(ShardState::health).collect()
    }

    /// Update ops currently queued for a failed shard.
    pub fn pending_ops(&self, shard: usize) -> usize {
        self.shard_states[shard].lock_pending().len()
    }

    fn shard_for(&self, v: VertexId) -> &GraphServer {
        &self.servers[self.route(v)]
    }

    fn tally(&self, requests: u64, req_bytes: u64, resp_bytes: u64) {
        self.m.requests.add(requests);
        self.m.request_bytes.add(req_bytes);
        self.m.response_bytes.add(resp_bytes);
    }

    /// The cluster's graph version: a monotone counter bumped once per
    /// client-origin mutation that reaches a shard — each update batch or
    /// committed transaction, each routed single-op write, each heal drain,
    /// bulk delete, or restore — plus every shard's recency-decay ticks
    /// that changed a weight ([`DynamicGraphStore::decay_ticks`]). Readers
    /// that cache derived state (e.g. the pipeline's neighbor cache)
    /// compare entry versions against this to bound staleness under
    /// concurrent updates. A plain read: the `cluster.graph_version`
    /// gauge is refreshed at each bump, so a decay tick reaches the gauge
    /// with the next mutation.
    pub fn graph_version(&self) -> u64 {
        let decay: u64 = self.servers.iter().map(|s| s.topology.decay_ticks()).sum();
        self.version.load(Ordering::Acquire) + decay
    }

    /// Advance the graph version after a mutation landed.
    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
        self.m.graph_version.set(self.graph_version() as i64);
    }

    /// The cluster's observability registry: cluster traffic/fault counters,
    /// serving-latency histograms, and the aggregated `samtree.*` /
    /// `storage.*` metrics of every shard store. Snapshot it for a unified
    /// view (`cluster.obs().snapshot().to_json()` / `.to_prometheus()`).
    pub fn obs(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Fault-routed read with a degraded fallback value.
    fn read_or<T>(&self, shard: usize, fallback: T, f: impl FnOnce(&GraphServer) -> T) -> T {
        match self.call_shard(shard, f) {
            Ok(v) => v,
            Err(_) => {
                self.m.degraded_responses.inc();
                fallback
            }
        }
    }

    /// Per-shard edge counts (load-balance diagnostics).
    pub fn shard_edge_counts(&self) -> Vec<usize> {
        self.servers
            .iter()
            .map(|s| s.topology.num_edges())
            .collect()
    }

    /// Set a vertex's feature bytes on its owning shard.
    pub fn set_vertex_attr(&self, v: VertexId, data: bytes::Bytes) {
        self.tally(1, ID_BYTES + data.len() as u64, 0);
        self.shard_for(v).attributes.set_vertex(v, data);
    }

    /// Fetch a vertex's feature bytes from its owning shard.
    pub fn vertex_attr(&self, v: VertexId) -> Option<bytes::Bytes> {
        let got = self.shard_for(v).attributes.vertex(v);
        self.tally(1, ID_BYTES, got.as_ref().map_or(0, |b| b.len() as u64));
        got
    }

    /// Declare the relation schema: edge types `0..limit` are known, and a
    /// transaction naming any other etype is rejected in phase 1 with
    /// [`ViolationKind::UnknownEtype`](platod2gl_graph::ViolationKind).
    /// `None` (the default) removes the restriction. Only the transactional
    /// path validates against the schema; raw update batches are unchecked.
    pub fn set_etype_limit(&self, limit: Option<u16>) {
        let raw = limit.map_or(u32::MAX, u32::from);
        self.txn.etype_limit.store(raw, Ordering::Relaxed);
    }

    /// The `/debug/txns` journal: recent transaction outcomes, oldest first.
    pub fn txn_journal(&self) -> Vec<TxnLogEntry> {
        self.txn.recent()
    }

    /// Consecutive transaction aborts since the last commit (a storage
    /// sickness signal for `/healthz`, distinct from shard health).
    pub fn txn_abort_streak(&self) -> u64 {
        self.txn.abort_streak.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Live shard migration (fleet plane)
    // ------------------------------------------------------------------

    /// Record ops that just landed on a shard into the migration journal,
    /// if one is armed for their partition. One relaxed load when idle.
    fn record_migration_ops(&self, ops: &[UpdateOp]) {
        if !self.migration.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.migration.lock();
        let Some(state) = guard.as_mut() else { return };
        for op in ops {
            if partition_for(op.src(), state.num_partitions) != state.partition {
                continue;
            }
            if state.ops.len() >= MIGRATION_JOURNAL_CAP {
                state.overflowed = true;
                return;
            }
            state.ops.push(*op);
        }
    }

    /// The partition's resident `(src, etype)` keys across every shard,
    /// sorted.
    fn partition_keys(&self, partition: u32, num_partitions: u32) -> Vec<(u64, u16)> {
        let mut keys = Vec::new();
        for server in &self.servers {
            server.topology.for_each_source(|src, etype, _| {
                if partition_for(src, num_partitions) == partition {
                    keys.push((src.raw(), etype.0));
                }
            });
        }
        keys.sort_unstable();
        keys
    }

    /// Drop a source vertex's whole out-neighborhood on its owning shard
    /// (account deletion). Returns the number of edges removed — `0` if the
    /// shard is unavailable (the caller must re-issue after
    /// [`Cluster::heal_shard`]; bulk deletion is not queueable as update
    /// ops). A migration armed for the vertex's partition journals one
    /// first-hand `Delete` per removed edge.
    pub fn delete_source(&self, v: VertexId, etype: EdgeType) -> usize {
        self.tally(1, ID_BYTES, 8);
        let removed = self.read_or(self.route(v), Vec::new(), |s| {
            s.topology.delete_source(v, etype)
        });
        if !removed.is_empty() {
            let deletes: Vec<UpdateOp> = removed
                .iter()
                .map(|&(dst, _, _)| UpdateOp::Delete {
                    src: v,
                    dst: VertexId(dst),
                    etype,
                })
                .collect();
            self.record_migration_ops(&deletes);
            self.bump_version();
        }
        removed.len()
    }

    /// Weighted neighbor sampling — the single sampling entry point.
    ///
    /// If the owning shard cannot answer (failed, or exhausted its retry
    /// budget), the response is degraded according to
    /// [`SampleRequest::on_degraded`]: an empty neighbor set
    /// ([`DegradedPolicy::EmptySet`], the historical behavior) or `fanout`
    /// self-loop slots ([`DegradedPolicy::SelfLoop`]). Either way the
    /// trainer keeps running instead of crashing; `degraded` and the
    /// per-slot `sources` make the fallback explicit.
    pub fn sample(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        // Root span of this request's trace: shard dispatch, samtree
        // descent, and FTS draws all nest under it (same thread, same
        // registry), so the whole tree is recoverable from the ring by id.
        // Its duration is the request's latency.
        let root = self.registry.span("cluster.sample");
        let root_id = root.id();
        let shard = self.route(req.vertex);
        let response = match self.call_shard(shard, |s| {
            let _dispatch = self.registry.span("shard.sample");
            s.topology
                .sample_neighbors_windowed(req.vertex, req.etype, req.fanout, req.window, rng)
        }) {
            Ok(ids) => {
                let sources = vec![SlotSource::Sampled; ids.len()];
                SampleResponse {
                    neighbors: ids,
                    sources,
                    degraded: false,
                    shard,
                }
            }
            Err(_) => {
                self.m.degraded_responses.inc();
                SampleResponse::degraded(req, shard)
            }
        };
        // Degraded responses are real frames too (the graph server answers
        // them on the wire), so they are tallied at their encoded size —
        // this keeps in-process and remote `net.*` numbers comparable. A
        // windowed request carries the optional time-window trailer.
        let window_bytes = if req.window.is_some() {
            wire::time_window_block_bytes(1)
        } else {
            0
        };
        self.tally(
            1,
            wire::sample_request_frame_bytes(1) + window_bytes,
            wire::sample_response_frame_bytes([response.neighbors.len()]),
        );
        // Complete the root before reading the ring so the capture below
        // sees it.
        let elapsed = root.finish();
        self.m.sample_latency.record(elapsed);
        let slow = self.registry.slow_log();
        if slow.is_slow(elapsed) {
            slow.record(platod2gl_obs::SlowOpRecord {
                op: "cluster.sample".into(),
                trace_id: req.trace_id,
                detail: format!(
                    "vertex={} etype={} fanout={} shard={} degraded={} returned={}",
                    req.vertex.raw(),
                    req.etype.0,
                    req.fanout,
                    shard,
                    response.degraded,
                    response.neighbors.len()
                ),
                duration_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                spans: platod2gl_obs::span_subtree(&self.registry.tracer().recent(), root_id),
            });
        }
        response
    }

    /// Checkpoint the whole cluster's topology into one stream, shard by
    /// shard (one shard's rows in memory at a time). The format is
    /// shard-count independent, so a checkpoint taken on 4 shards restores
    /// onto 8 (re-sharding without re-partitioning tools — the operation
    /// static stores need a full redeploy for).
    pub fn snapshot_to(&self, w: impl std::io::Write) -> Result<(), Error> {
        let _span = self.registry.span("cluster.snapshot");
        let shards = self.servers.iter().map(|s| &s.topology);
        platod2gl_storage::write_checkpoint(w, shards)?;
        Ok(())
    }

    /// Restore a cluster checkpoint, routing every source vertex to its
    /// owning shard and bulk-loading each shard's trees with whole keys.
    pub fn restore_from(&self, r: impl std::io::Read) -> Result<(), Error> {
        let _span = self.registry.span("cluster.restore");
        self.bump_version();
        platod2gl_storage::read_checkpoint(r, |batch| {
            let mut per_shard: Vec<Vec<Edge>> = vec![Vec::new(); self.servers.len()];
            for e in batch {
                per_shard[self.route(e.src)].push(e);
            }
            for (server, edges) in self.servers.iter().zip(per_shard) {
                if !edges.is_empty() {
                    server.topology.bulk_build(edges);
                }
            }
        })?;
        Ok(())
    }

    /// Aggregate topology memory across shards (Table IV at cluster scope).
    pub fn total_topology_bytes(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.topology.topology_bytes())
            .sum()
    }

    /// Walk every shard's `DeepSize` accounting and refresh the
    /// `graph.mem.samtree_bytes` / `graph.mem.timestamp_bytes` /
    /// `graph.mem.attr_bytes` gauges.
    /// Diagnostics-priced (takes each samtree's read lock in turn); the
    /// admin server calls it per `/metrics` and `/debug/memory` request.
    pub fn memory_breakdown(&self) -> ClusterMemory {
        let _span = self.registry.span("cluster.memory_walk");
        let mut mem = ClusterMemory::default();
        for s in &self.servers {
            let topology = s.topology.memory_breakdown();
            let attr_bytes = s.attributes.attribute_bytes();
            mem.samtree_bytes += topology.total_bytes;
            mem.leaf_bytes += topology.leaf_bytes;
            mem.leaf_payload_bytes += topology.leaf_payload_bytes;
            mem.leaf_slack_bytes += topology.leaf_slack_bytes;
            mem.internal_bytes += topology.internal_bytes;
            mem.directory_bytes += topology.directory_bytes;
            mem.timestamp_bytes += topology.timestamp_bytes;
            mem.attr_bytes += attr_bytes;
            mem.per_shard.push(ShardMemory {
                shard: s.shard_id,
                topology,
                attr_bytes,
                edges: s.topology.num_edges(),
            });
        }
        self.m.mem_samtree.set(mem.samtree_bytes as i64);
        self.m.mem_timestamp.set(mem.timestamp_bytes as i64);
        self.m.mem_attr.set(mem.attr_bytes as i64);
        mem
    }
}

/// Phase-1 validation reads, routed to the owning shards. Reads go to shard
/// storage directly (validation is a maintenance-grade path, not
/// fault-routed): a transaction that touches an unavailable shard is caught
/// at admission, not during validation.
impl TxnView for Cluster {
    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        TxnView::edge_weight(&self.shard_for(src).topology, src, dst, etype)
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        TxnView::neighbors(&self.shard_for(v).topology, v, etype)
    }

    fn known_etype(&self, etype: EdgeType) -> bool {
        txn::etype_within(self.txn.etype_limit.load(Ordering::Relaxed), etype)
    }
}

impl GraphStore for Cluster {
    fn name(&self) -> &'static str {
        "PlatoD2GL-cluster"
    }

    fn insert_edge(&self, edge: Edge) {
        self.write_one(UpdateOp::Insert(edge));
    }

    fn delete_edge(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> bool {
        self.write_one(UpdateOp::Delete { src, dst, etype })
    }

    fn update_weight(&self, edge: Edge) -> bool {
        self.write_one(UpdateOp::UpdateWeight(edge))
    }

    fn apply_batch(&self, ops: &[UpdateOp]) {
        // The infallible trait signature reports shard loss via
        // `shard_health` / the `cluster.*` counters instead of a panic: a worker panic
        // is already captured per shard and recorded by the time the
        // write returns. The swallow is deliberate — but it is *counted*,
        // so a snapshot of `cluster.batch_apply_errors` reveals how many
        // batches lost their error this way.
        if self.apply_updates_from(ops, Origin::Client).is_err() {
            self.m.batch_apply_errors.inc();
        }
    }

    fn degree(&self, v: VertexId, etype: EdgeType) -> usize {
        self.tally(1, ID_BYTES, 8);
        self.read_or(self.route(v), 0, |s| s.topology.degree(v, etype))
    }

    fn weight_sum(&self, v: VertexId, etype: EdgeType) -> f64 {
        self.tally(1, ID_BYTES, 8);
        self.read_or(self.route(v), 0.0, |s| s.topology.weight_sum(v, etype))
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        self.tally(1, 2 * ID_BYTES, 8);
        self.read_or(self.route(src), None, |s| {
            GraphStore::edge_weight(&s.topology, src, dst, etype)
        })
    }

    fn sample_neighbors(
        &self,
        v: VertexId,
        etype: EdgeType,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        self.sample(&SampleRequest::new(v, etype, k), rng).neighbors
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        let out = self.read_or(self.route(v), Vec::new(), |s| {
            GraphStore::neighbors(&s.topology, v, etype)
        });
        self.tally(1, ID_BYTES, out.len() as u64 * (ID_BYTES + 8));
        out
    }

    fn num_edges(&self) -> usize {
        self.servers.iter().map(|s| s.topology.num_edges()).sum()
    }

    fn topology_bytes(&self) -> usize {
        self.total_topology_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::MAX_RETRIES;
    use platod2gl_graph::{conformance, DatasetProfile};
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::time::Duration;

    fn cluster_with_shards(n: usize) -> Cluster {
        Cluster::new(
            ClusterConfig::builder()
                .num_shards(n)
                .build()
                .expect("valid config"),
        )
    }

    fn small_cluster() -> Cluster {
        cluster_with_shards(3)
    }

    /// A `cluster.*` counter, read from a registry snapshot.
    fn count(c: &Cluster, name: &str) -> u64 {
        c.obs()
            .snapshot()
            .counter(name)
            .expect("registered counter")
    }

    #[test]
    fn conformance_suite() {
        conformance::run_all(small_cluster);
    }

    #[test]
    fn routing_is_stable_and_covers_shards() {
        let c = cluster_with_shards(8);
        let mut seen = [false; 8];
        for v in 0..1_000u64 {
            let r = c.route(VertexId(v));
            assert_eq!(r, c.route(VertexId(v)), "routing must be deterministic");
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards should receive load");
    }

    #[test]
    fn edges_land_on_owner_shards_only() {
        let c = small_cluster();
        for e in DatasetProfile::tiny().edge_stream(1) {
            c.insert_edge(e);
        }
        let total: usize = c.shard_edge_counts().iter().sum();
        assert_eq!(total, c.num_edges());
        // Every source's edges must be on exactly its routed shard.
        for src in DatasetProfile::tiny().sample_sources(50, 2) {
            let owner = c.route(src);
            for (i, server) in c.servers().iter().enumerate() {
                let deg = server.topology.degree(src, EdgeType(0));
                if i == owner {
                    continue;
                }
                assert_eq!(deg, 0, "shard {i} holds foreign vertex {src:?}");
            }
        }
    }

    #[test]
    fn sharded_batches_match_single_store() {
        let profile = DatasetProfile::tiny();
        let ops = profile.update_stream(5).next_batch(10_000);
        let cluster = small_cluster();
        let report = cluster.apply_updates(&ops).expect("no faults");
        assert_eq!(report.applied_ops, ops.len());
        assert_eq!(report.queued_ops, 0);
        let single = DynamicGraphStore::new(StoreConfig::default());
        single.apply_batch(&ops);
        assert_eq!(cluster.num_edges(), single.num_edges());
        for src in profile.sample_sources(64, 9) {
            assert_eq!(
                cluster.degree(src, EdgeType(0)),
                single.degree(src, EdgeType(0)),
                "degree mismatch for {src:?}"
            );
        }
    }

    #[test]
    fn traffic_accounting_counts_requests() {
        let c = small_cluster();
        let before = c.obs().snapshot();
        c.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = c.sample_neighbors(VertexId(1), EdgeType(0), 10, &mut rng);
        let grew = |name: &str| count(&c, name) - before.counter(name).expect("registered");
        assert_eq!(grew("cluster.requests"), 2);
        assert!(grew("cluster.request_bytes") > 0);
        assert!(grew("cluster.response_bytes") >= 80);
        assert_eq!(count(&c, "cluster.failed_requests"), 0);
        assert_eq!(count(&c, "cluster.degraded_responses"), 0);
    }

    #[test]
    fn attributes_are_shard_local() {
        let c = small_cluster();
        let v = VertexId(77);
        c.set_vertex_attr(v, bytes::Bytes::from_static(b"feat"));
        assert_eq!(c.vertex_attr(v).as_deref(), Some(&b"feat"[..]));
        let owner = c.route(v);
        for (i, s) in c.servers().iter().enumerate() {
            let here = s.attributes.vertex(v).is_some();
            assert_eq!(here, i == owner);
        }
        assert_eq!(c.vertex_attr(VertexId(999)), None);
    }

    #[test]
    fn delete_source_routes_to_owner() {
        let c = small_cluster();
        for i in 0..100u64 {
            c.insert_edge(Edge::new(VertexId(5), VertexId(1_000 + i), 1.0));
        }
        assert_eq!(c.delete_source(VertexId(5), EdgeType(0)), 100);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.delete_source(VertexId(5), EdgeType(0)), 0);
    }

    #[test]
    fn latency_histograms_observe_the_serving_path() {
        let c = small_cluster();
        for e in DatasetProfile::tiny().edge_stream(1).take(1_000) {
            c.insert_edge(e);
        }
        let sample_latency = c.obs().histogram("cluster.sample_latency_ns");
        assert_eq!(sample_latency.count(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for v in DatasetProfile::tiny().sample_sources(32, 2) {
            let _ = c.sample_neighbors(v, EdgeType(0), 10, &mut rng);
        }
        assert_eq!(sample_latency.count(), 32);
        let snap = sample_latency.snapshot();
        assert!(snap.mean_ns > 0);
        assert!(snap.p50_ns <= snap.p99_ns);
        assert!(snap.max_ns >= snap.mean_ns);
        c.apply_updates(&DatasetProfile::tiny().update_stream(3).next_batch(100))
            .expect("no faults");
        assert_eq!(c.obs().histogram("cluster.update_latency_ns").count(), 1);
    }

    #[test]
    fn cluster_snapshot_restores_onto_different_shard_count() {
        let src_cluster = cluster_with_shards(3);
        let profile = DatasetProfile::tiny();
        for e in profile.edge_stream(2) {
            src_cluster.insert_edge(e);
        }
        let mut bytes = Vec::new();
        src_cluster.snapshot_to(&mut bytes).expect("snapshot");
        let dst_cluster = cluster_with_shards(7);
        dst_cluster.restore_from(bytes.as_slice()).expect("restore");
        assert_eq!(dst_cluster.num_edges(), src_cluster.num_edges());
        for v in profile.sample_sources(50, 4) {
            assert_eq!(
                dst_cluster.degree(v, EdgeType(0)),
                src_cluster.degree(v, EdgeType(0)),
                "degree mismatch at {v:?}"
            );
            assert!(
                (dst_cluster.weight_sum(v, EdgeType(0)) - src_cluster.weight_sum(v, EdgeType(0)))
                    .abs()
                    < 1e-9
            );
        }
        // Edges live only on their routed shard in the new layout.
        for server in dst_cluster.servers() {
            server.topology().check_invariants().expect("invariants");
        }
    }

    #[test]
    fn partition_for_is_stable_and_covers_partitions() {
        let p = 64u32;
        let mut seen = vec![false; p as usize];
        for v in 0..10_000u64 {
            let a = partition_for(VertexId(v), p);
            assert_eq!(a, partition_for(VertexId(v), p), "stable");
            assert!(a < p);
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every partition gets keys");
        // The partition hash must not collapse onto shard routing: vertices
        // in one partition still spread over shards and vice versa.
        let c = cluster_with_shards(3);
        let shards: std::collections::HashSet<usize> = (0..10_000u64)
            .filter(|v| partition_for(VertexId(*v), p) == 0)
            .map(|v| c.route(VertexId(v)))
            .collect();
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn migration_journal_lifecycle() {
        let c = small_cluster();
        let p = 8u32;
        // Idle: nothing journaled, tail errors.
        assert!(c.migration_tail(0, 0).is_err());
        c.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));

        // Find a vertex in partition 3 and one outside it.
        let inside = (0..).find(|v| partition_for(VertexId(*v), p) == 3).unwrap();
        let outside = (0..).find(|v| partition_for(VertexId(*v), p) != 3).unwrap();

        let census = c.begin_migration(3, p).expect("arms");
        assert!(c.begin_migration(1, p).is_err(), "one at a time");
        c.insert_edge(Edge::new(VertexId(inside), VertexId(10), 1.0));
        c.insert_edge(Edge::new(VertexId(outside), VertexId(11), 1.0));
        c.apply_updates(&[
            UpdateOp::Insert(Edge::new(VertexId(inside), VertexId(12), 2.0)),
            UpdateOp::Insert(Edge::new(VertexId(outside), VertexId(13), 2.0)),
        ])
        .expect("no faults");
        assert!(c.delete_edge(VertexId(inside), VertexId(10), EdgeType(0)));

        let (ops, next) = c.migration_tail(3, census).expect("tail");
        assert_eq!(next, census + 3, "only partition-3 ops are journaled");
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[2], UpdateOp::Delete { .. }));
        // Resume from a mid-stream sequence.
        let (rest, _) = c.migration_tail(3, census + 2).expect("tail");
        assert_eq!(rest.len(), 1);
        assert!(c.migration_tail(5, 0).is_err(), "wrong partition");

        assert_eq!(c.end_migration(3).expect("disarms"), census + 3);
        assert!(c.end_migration(3).is_err());
        // Disarmed: later writes are not journaled.
        let census = c.begin_migration(3, p).expect("re-arms");
        let (ops, _) = c.migration_tail(3, census).expect("tail");
        assert!(ops.is_empty());
        c.end_migration(3).expect("disarms");
    }

    #[test]
    fn delete_source_on_an_armed_partition_is_journaled() {
        let c = small_cluster();
        let p = 4u32;
        let v = (0..)
            .map(VertexId)
            .find(|v| partition_for(*v, p) == 1)
            .unwrap();
        for dst in 0..4u64 {
            c.insert_edge(Edge::new(v, VertexId(100 + dst), 1.0));
        }
        let census = c.begin_migration(1, p).expect("arms");
        assert_eq!(c.delete_source(v, EdgeType(0)), 4);
        let (ops, next) = c.migration_tail(1, census).expect("tail");
        assert_eq!(next, census + 4);
        let mut dsts: Vec<u64> = ops
            .iter()
            .map(|op| match *op {
                UpdateOp::Delete { src, dst, etype } => {
                    assert_eq!((src, etype), (v, EdgeType(0)));
                    dst.raw()
                }
                other => panic!("expected a delete, got {other:?}"),
            })
            .collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![100, 101, 102, 103]);
        c.end_migration(1).expect("disarms");
    }

    #[test]
    fn migration_census_pages_rebuild_the_partition() {
        let c = small_cluster();
        let p = 2u32;
        // ~4,500 edges a partition: more than one census page.
        for v in 0..3_000u64 {
            for k in 0..3u64 {
                c.insert_edge(Edge::new(
                    VertexId(v),
                    VertexId(v + 5_000 + k),
                    1.0 + k as f64,
                ));
            }
        }
        for partition in 0..p {
            let census = c.begin_migration(partition, p).expect("arms");
            let in_partition = |v: &u64| partition_for(VertexId(*v), p) == partition;
            assert_eq!(census, (0..3_000u64).filter(in_partition).count() as u64);
            // After the arm: one key is deleted before its page is read, and
            // a new key appears.
            let gone = (0..3_000u64).rev().find(in_partition).unwrap();
            let fresh = (10_000u64..).find(in_partition).unwrap();
            assert_eq!(c.delete_source(VertexId(gone), EdgeType(0)), 3);
            c.insert_edge(Edge::new(VertexId(fresh), VertexId(1), 2.0));

            let rebuilt = cluster_with_shards(2);
            let mut seen = HashSet::new();
            let (mut from, mut pages) = (0u64, 0usize);
            while from < census {
                let (ops, next) = c.migration_tail(partition, from).expect("page");
                assert!(next > from, "a page serves at least one key");
                let keys: HashSet<u64> = ops.iter().map(|op| op.src().raw()).collect();
                for key in keys {
                    assert!(seen.insert(key), "key {key} served twice");
                }
                assert!(ops.len() <= CENSUS_PAGE_EDGES);
                assert!(ops.iter().all(|op| matches!(op, UpdateOp::Insert(_))));
                rebuilt.apply_updates(&ops).expect("no faults");
                (from, pages) = (next, pages + 1);
            }
            assert_eq!(from, census);
            assert!(pages > 1, "the partition spans pages");
            assert!(!seen.contains(&gone) && !seen.contains(&fresh));
            // Every census key arrived once, with identical adjacency.
            for v in (0..3_000u64).filter(in_partition).filter(|v| *v != gone) {
                let (v, et) = (VertexId(v), EdgeType(0));
                assert_eq!(rebuilt.degree(v, et), c.degree(v, et));
                assert!((rebuilt.weight_sum(v, et) - c.weight_sum(v, et)).abs() < 1e-9);
            }
            // The deleted key's removal and the new key arrive only at
            // journal positions.
            let (journal, end) = c.migration_tail(partition, census).expect("journal");
            assert_eq!(journal.len(), 4);
            assert!(journal[..3]
                .iter()
                .all(|op| matches!(op, UpdateOp::Delete { src, .. } if src.raw() == gone)));
            assert_eq!(journal[3].src(), VertexId(fresh));
            assert_eq!(c.end_migration(partition).expect("disarms"), end);
        }
        // Key counts sum to the number of resident (src, etype) keys.
        let counts = c.partition_key_counts(p);
        assert_eq!(counts.len(), p as usize);
        assert_eq!(counts.iter().sum::<u64>(), 3_000);
        assert!(c.begin_migration(9, 4).is_err());
    }

    #[test]
    fn zipf_load_is_skewed_but_all_shards_used() {
        let c = cluster_with_shards(4);
        let profile = DatasetProfile::ogbn().scaled_to_edges(20_000);
        for e in profile.edge_stream(3).with_bidirected(false) {
            c.insert_edge(e);
        }
        let counts = c.shard_edge_counts();
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
    }

    #[test]
    fn graph_version_advances_on_every_mutation_path() {
        let c = small_cluster();
        let v0 = c.graph_version();
        c.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let v1 = c.graph_version();
        assert!(v1 > v0, "routed insert must bump the version");
        // Reads leave the version alone.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = c.sample_neighbors(VertexId(1), EdgeType(0), 4, &mut rng);
        let _ = c.degree(VertexId(1), EdgeType(0));
        assert_eq!(c.graph_version(), v1, "reads must not bump the version");
        // A sharded batch bumps once.
        c.apply_updates(&[
            UpdateOp::Insert(Edge::new(VertexId(3), VertexId(4), 1.0)),
            UpdateOp::Insert(Edge::new(VertexId(5), VertexId(6), 1.0)),
        ])
        .expect("no faults");
        let v2 = c.graph_version();
        assert!(v2 > v1);
        // Deleting a present edge bumps; deleting a missing one does not.
        assert!(c.delete_edge(VertexId(1), VertexId(2), EdgeType(0)));
        let v3 = c.graph_version();
        assert!(v3 > v2);
        assert!(!c.delete_edge(VertexId(1), VertexId(2), EdgeType(0)));
        assert_eq!(c.graph_version(), v3);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// A vertex owned by the given shard of `c`.
    fn vertex_on_shard(c: &Cluster, shard: usize) -> VertexId {
        (0..)
            .map(VertexId)
            .find(|v| c.route(*v) == shard)
            .expect("some vertex routes to every shard")
    }

    #[test]
    fn failed_shard_serves_degraded_samples_not_panics() {
        let c = cluster_with_shards(4);
        for e in DatasetProfile::tiny().edge_stream(7) {
            c.insert_edge(e);
        }
        c.faults().fail_shard(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let dead = vertex_on_shard(&c, 2);
        let resp = c.sample(&SampleRequest::new(dead, EdgeType(0), 8), &mut rng);
        assert!(resp.degraded, "failed shard must flag degradation");
        assert!(resp.neighbors.is_empty());
        assert_eq!(resp.shard, 2);
        assert_eq!(c.shard_health(2), ShardHealth::Failed);
        // Vertices on healthy shards still sample at full fidelity.
        let mut healthy_sampled = false;
        for v in DatasetProfile::tiny().sample_sources(64, 5) {
            if c.route(v) == 2 {
                continue;
            }
            let resp = c.sample(&SampleRequest::new(v, EdgeType(0), 8), &mut rng);
            assert!(!resp.degraded, "healthy shard degraded for {v:?}");
            assert!(resp.sources.iter().all(|s| *s == SlotSource::Sampled));
            healthy_sampled |= !resp.neighbors.is_empty();
        }
        assert!(healthy_sampled, "healthy shards must keep serving data");
        assert!(count(&c, "cluster.failed_requests") >= 1);
        assert!(count(&c, "cluster.degraded_responses") >= 1);
    }

    #[test]
    fn updates_to_failed_shard_queue_and_drain_on_heal() {
        let c = cluster_with_shards(4);
        c.faults().fail_shard(1);
        let dead = vertex_on_shard(&c, 1);
        let live = vertex_on_shard(&c, 0);
        let ops = vec![
            UpdateOp::Insert(Edge::new(dead, VertexId(900), 1.0)),
            UpdateOp::Insert(Edge::new(dead, VertexId(901), 2.0)),
            UpdateOp::Insert(Edge::new(live, VertexId(902), 3.0)),
        ];
        let report = c.apply_updates(&ops).expect("queueing is not an error");
        assert_eq!(report.applied_ops, 1, "live shard's op applies");
        assert_eq!(report.queued_ops, 2, "dead shard's ops queue");
        assert_eq!(c.pending_ops(1), 2);
        assert_eq!(c.degree(live, EdgeType(0)), 1);
        assert_eq!(
            c.server(1).topology().num_edges(),
            0,
            "nothing applied while failed"
        );
        let drained = c.heal_shard(1);
        assert_eq!(drained, 2);
        assert_eq!(c.pending_ops(1), 0);
        assert_eq!(c.shard_health(1), ShardHealth::Healthy);
        assert_eq!(c.degree(dead, EdgeType(0)), 2, "queued ops applied on heal");
        assert_eq!(count(&c, "cluster.queued_ops"), 2);
    }

    #[test]
    fn queued_replica_op_keeps_its_channel_through_the_heal_drain() {
        // A replica-channel write is version- and journal-silent on a
        // healthy shard; parking it behind a failed shard must not turn it
        // into a first-hand write when the heal drains it.
        let c = cluster_with_shards(4);
        c.begin_migration(0, 1).expect("arms");
        c.faults().fail_shard(1);
        let dead = vertex_on_shard(&c, 1);
        let report = c
            .apply_replica_updates(&[UpdateOp::Insert(Edge::new(dead, VertexId(900), 1.0))])
            .expect("queueing is not an error");
        assert_eq!((report.applied_ops, report.queued_ops), (0, 1));
        assert_eq!(c.heal_shard(1), 1);
        assert_eq!(c.degree(dead, EdgeType(0)), 1, "the op did land");
        assert_eq!(c.graph_version(), 0, "a data move is not a new version");
        let (tail, _) = c.migration_tail(0, 0).expect("armed");
        assert!(tail.is_empty(), "a replica echo must not be journaled");
    }

    #[test]
    fn transient_faults_are_retried_with_backoff() {
        let c = small_cluster();
        c.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let shard = c.route(VertexId(1));
        c.faults().inject_transient(shard, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let resp = c.sample(&SampleRequest::new(VertexId(1), EdgeType(0), 4), &mut rng);
        assert!(!resp.degraded, "retries must succeed within budget");
        assert_eq!(resp.neighbors.len(), 4);
        assert_eq!(count(&c, "cluster.retried_requests"), 2);
        assert_eq!(count(&c, "cluster.failed_requests"), 0);
        assert_eq!(
            c.shard_health(shard),
            ShardHealth::Healthy,
            "recovered shard returns to healthy on success"
        );
    }

    #[test]
    fn transient_beyond_budget_fails_the_shard() {
        let c = small_cluster();
        c.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let shard = c.route(VertexId(1));
        c.faults().inject_transient(shard, 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let resp = c.sample(&SampleRequest::new(VertexId(1), EdgeType(0), 4), &mut rng);
        assert!(resp.degraded);
        assert_eq!(c.shard_health(shard), ShardHealth::Failed);
        assert!(count(&c, "cluster.retried_requests") >= MAX_RETRIES as u64);
        c.heal_shard(shard);
        let resp = c.sample(&SampleRequest::new(VertexId(1), EdgeType(0), 4), &mut rng);
        assert!(!resp.degraded, "healed shard serves again");
    }

    #[test]
    fn panicking_batch_worker_is_captured_and_isolated() {
        let c = cluster_with_shards(4);
        let dead = vertex_on_shard(&c, 3);
        let live = vertex_on_shard(&c, 0);
        c.faults().panic_next_batch(3);
        let ops = vec![
            UpdateOp::Insert(Edge::new(dead, VertexId(900), 1.0)),
            UpdateOp::Insert(Edge::new(live, VertexId(901), 1.0)),
        ];
        let err = c.apply_updates(&ops).expect_err("panic must surface");
        match err {
            Error::ShardPanicked { shard, ref detail } => {
                assert_eq!(shard, 3);
                assert!(detail.contains("injected fault"), "{detail}");
            }
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(c.shard_health(3), ShardHealth::Failed);
        assert_eq!(
            c.degree(live, EdgeType(0)),
            1,
            "other shards' partitions still applied"
        );
        // The next batch routes around the dead shard by queueing.
        let report = c
            .apply_updates(&[UpdateOp::Insert(Edge::new(dead, VertexId(902), 1.0))])
            .expect("queued, not panicked");
        assert_eq!(report.queued_ops, 1);
    }

    #[test]
    fn heal_never_strands_ops_on_a_healthy_shard() {
        // Writers race a fail/heal cycler. The invariant under test: an op
        // may only sit in the pending queue while the shard reports Failed
        // — queueing after a heal's drain (shard Healthy) would strand it
        // forever. queue_op re-checks health under the pending lock, and
        // heal_shard flips health in the critical section that observes
        // the queue empty, so the combination cannot happen.
        let c = cluster_with_shards(2);
        let writers = 4usize;
        let per_writer = 200usize;
        std::thread::scope(|s| {
            for w in 0..writers {
                let c = &c;
                s.spawn(move || {
                    for i in 0..per_writer {
                        let src = VertexId((w * per_writer + i) as u64);
                        c.insert_edge(Edge::new(src, VertexId(9_999_999), 1.0));
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..50 {
                    c.faults().fail_shard(1);
                    std::thread::yield_now();
                    c.heal_shard(1);
                }
            });
        });
        for shard in 0..c.num_shards() {
            if c.shard_health(shard) == ShardHealth::Healthy {
                assert_eq!(
                    c.pending_ops(shard),
                    0,
                    "ops stranded in the queue of a healthy shard {shard}"
                );
            }
            // A late writer that observed a pre-heal failure verdict may
            // legitimately re-fail the shard and queue; one more heal must
            // deliver everything.
            c.heal_shard(shard);
        }
        assert_eq!(
            c.num_edges(),
            writers * per_writer,
            "every acked insert must land exactly once"
        );
    }

    #[test]
    fn slow_shard_still_serves() {
        let c = small_cluster();
        c.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let shard = c.route(VertexId(1));
        c.faults().slow_shard(shard, Duration::from_millis(5));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let started = std::time::Instant::now();
        let resp = c.sample(&SampleRequest::new(VertexId(1), EdgeType(0), 2), &mut rng);
        assert!(!resp.degraded);
        assert_eq!(resp.neighbors.len(), 2);
        assert!(
            started.elapsed() >= Duration::from_millis(5),
            "slow fault must add latency"
        );
    }

    #[test]
    fn degraded_reads_fall_back_per_endpoint() {
        let c = small_cluster();
        for i in 0..10u64 {
            c.insert_edge(Edge::new(VertexId(4), VertexId(100 + i), 1.0));
        }
        let shard = c.route(VertexId(4));
        c.faults().fail_shard(shard);
        assert_eq!(c.degree(VertexId(4), EdgeType(0)), 0);
        assert_eq!(c.weight_sum(VertexId(4), EdgeType(0)), 0.0);
        assert_eq!(
            GraphStore::edge_weight(&c, VertexId(4), VertexId(100), EdgeType(0)),
            None
        );
        assert!(GraphStore::neighbors(&c, VertexId(4), EdgeType(0)).is_empty());
        assert!(count(&c, "cluster.degraded_responses") >= 4);
        c.heal_shard(shard);
        assert_eq!(
            c.degree(VertexId(4), EdgeType(0)),
            10,
            "data survives the outage"
        );
    }

    // ------------------------------------------------------------------
    // Config builder, unified sample API, observability
    // ------------------------------------------------------------------

    #[test]
    fn config_builder_validates() {
        assert!(ClusterConfig::builder().build().is_ok());
        let cfg = ClusterConfig::builder()
            .num_shards(6)
            .build()
            .expect("valid");
        assert_eq!(cfg.num_shards, 6);

        let err = ClusterConfig::builder().num_shards(0).build().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
        let mut bad_store = StoreConfig::default();
        bad_store.tree.capacity = 2;
        assert!(ClusterConfig::builder().store(bad_store).build().is_err());
        let mut bad_alpha = StoreConfig::default();
        bad_alpha.tree.alpha = bad_alpha.tree.capacity; // >= capacity/2
        assert!(ClusterConfig::builder().store(bad_alpha).build().is_err());
    }

    #[test]
    fn builder_applies_configuration() {
        let mut store = StoreConfig::default();
        store.tree.capacity = 64;
        store.tree.alpha = 4;
        store.tree.compression = false;
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .store(store)
                .build()
                .expect("valid"),
        );
        assert_eq!(c.num_shards(), 2);
        let cfg = c.server(0).topology().tree_config();
        assert_eq!(cfg.capacity, 64);
        assert_eq!(cfg.alpha, 4);
        assert!(!cfg.compression);
    }

    #[test]
    fn ingest_profile_reports_counts() {
        let c = cluster_with_shards(2);
        let profile = DatasetProfile::tiny();
        profile.ingest_into(&c, 3);
        let offered = profile.edge_stream(3).count();
        assert_eq!(offered, profile.total_edges() as usize);
        assert!(c.num_edges() > 0);
        assert!(c.num_edges() <= offered);
        assert_eq!(c.num_edges(), c.shard_edge_counts().iter().sum::<usize>());
        assert_eq!(count(&c, "cluster.batch_apply_errors"), 0);
    }

    #[test]
    fn facade_sampling_is_deterministic_per_seed() {
        let c = Cluster::new(ClusterConfig::default());
        for i in 0..50u64 {
            c.insert_edge(Edge::new(VertexId(1), VertexId(100 + i), 1.0));
        }
        let draw = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            c.sample_neighbors(VertexId(1), EdgeType::DEFAULT, 20, &mut rng)
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
    }

    #[test]
    fn memory_report_sums_shards() {
        let c = cluster_with_shards(3);
        DatasetProfile::tiny().ingest_into(&c, 1);
        let mem = c.memory_breakdown();
        assert_eq!(mem.per_shard.len(), 3);
        let per_shard: usize = mem.per_shard.iter().map(|s| s.topology.total_bytes).sum();
        assert_eq!(mem.samtree_bytes, per_shard);
        assert!(mem.samtree_bytes > 0);
    }

    #[test]
    fn op_stats_aggregate_across_shards() {
        // Every shard store records into the cluster's one registry, so each
        // shard's `op_stats()` already is the cluster-wide total.
        let c = cluster_with_shards(2);
        DatasetProfile::tiny().ingest_into(&c, 2);
        let leaf_ops = count(&c, "samtree.leaf_ops");
        assert!(leaf_ops > 0);
        for s in c.servers() {
            assert_eq!(s.topology().op_stats().leaf_ops, leaf_ops);
        }
    }

    #[test]
    fn self_loop_policy_pads_degraded_samples() {
        let c = cluster_with_shards(4);
        c.faults().fail_shard(2);
        let dead = vertex_on_shard(&c, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let req = SampleRequest::new(dead, EdgeType(0), 5).on_degraded(DegradedPolicy::SelfLoop);
        let resp = c.sample(&req, &mut rng);
        assert!(resp.degraded);
        assert_eq!(resp.neighbors, vec![dead; 5]);
        assert_eq!(resp.sources, vec![SlotSource::SelfLoop; 5]);
    }

    #[test]
    fn obs_registry_aggregates_cluster_and_storage_metrics() {
        let c = small_cluster();
        for e in DatasetProfile::tiny().edge_stream(1).take(500) {
            c.insert_edge(e);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for v in DatasetProfile::tiny().sample_sources(8, 3) {
            let _ = c.sample_neighbors(v, EdgeType(0), 4, &mut rng);
        }
        c.heal_shard(0);
        let snap = c.obs().snapshot();
        // Cluster-side counters: 500 routed inserts + 8 samples.
        assert_eq!(snap.counter("cluster.requests"), Some(508));
        assert_eq!(snap.counter("cluster.heals"), Some(1));
        // Storage-side counters from all shards aggregate into the same
        // registry (500 routed inserts → 500 leaf ops across shards).
        assert!(snap.counter("samtree.leaf_ops").unwrap() >= 500);
        assert_eq!(snap.counter("samtree.sample_requests"), Some(8));
        // Serving latency is exposed as a histogram.
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "cluster.sample_latency_ns")
            .expect("sample latency histogram registered");
        assert_eq!(hist.count, 8);
        // The graph-version gauge tracks the monotone counter.
        assert_eq!(
            snap.gauge("cluster.graph_version"),
            Some(c.graph_version() as i64)
        );
        // Spans from heal_shard land in the tracer ring.
        assert!(snap.spans.iter().any(|s| s.name == "cluster.heal"));
    }

    #[test]
    fn slow_request_is_captured_with_full_span_tree() {
        // Zero threshold: every request qualifies, no timing dependence.
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(3)
                .build()
                .expect("valid config"),
        );
        c.obs().slow_log().set_threshold(Duration::ZERO);
        for e in DatasetProfile::tiny().edge_stream(4).take(200) {
            c.insert_edge(e);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let v = DatasetProfile::tiny()
            .sample_sources(1, 9)
            .pop()
            .expect("a source");
        let resp = c.sample(
            &SampleRequest::new(v, EdgeType(0), 4).with_trace_id(0xC0FFEE),
            &mut rng,
        );
        let slow = c.obs().slow_log();
        assert_eq!(slow.captured(), 1);
        assert_eq!(c.obs().snapshot().counter("obs.slow_ops"), Some(1));
        let captures = slow.recent();
        let cap = &captures[0];
        assert_eq!(cap.op, "cluster.sample");
        assert_eq!(cap.trace_id, Some(0xC0FFEE));
        assert!(
            cap.detail.contains(&format!("vertex={}", v.raw()))
                && cap.detail.contains(&format!("shard={}", resp.shard)),
            "provenance missing: {}",
            cap.detail
        );
        // The span tree must cover cluster -> shard -> samtree, correctly
        // parent-linked (entry order, root first).
        let names: Vec<&str> = cap.spans.iter().map(|s| &*s.name).collect();
        assert_eq!(
            names,
            [
                "cluster.sample",
                "shard.sample",
                "samtree.sample",
                "samtree.fts_draw"
            ],
            "expected the full dispatch chain"
        );
        assert_eq!(cap.spans[0].parent, None);
        for pair in cap.spans.windows(2) {
            assert_eq!(pair[1].parent, Some(pair[0].id), "chain is linked");
        }
    }

    #[test]
    fn a_registry_keeps_the_slow_op_threshold_it_was_given() {
        let registry = Arc::new(Registry::new());
        registry.slow_log().set_threshold(Duration::from_millis(5));
        let c = Cluster::with_registry(ClusterConfig::default(), registry);
        assert_eq!(c.obs().slow_log().threshold_ns(), 5_000_000);
    }

    #[test]
    fn fast_requests_are_not_captured() {
        // Default threshold (100ms) is far above an in-process sample.
        let c = small_cluster();
        for e in DatasetProfile::tiny().edge_stream(5).take(100) {
            c.insert_edge(e);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for v in DatasetProfile::tiny().sample_sources(8, 2) {
            let _ = c.sample(&SampleRequest::new(v, EdgeType(0), 4), &mut rng);
        }
        assert_eq!(c.obs().slow_log().captured(), 0);
        assert_eq!(c.obs().snapshot().counter("obs.slow_ops"), Some(0));
    }

    #[test]
    fn leaf_payload_and_slack_add_up_on_a_churned_cluster() {
        let c = small_cluster();
        let edges: Vec<Edge> = DatasetProfile::tiny().edge_stream(8).take(3_000).collect();
        // Churn: batched and single inserts, stamped re-writes, and a third
        // of the edges deleted again, so columns both grew and shrank.
        let ops: Vec<UpdateOp> = edges[..2_000]
            .iter()
            .map(|&e| UpdateOp::Insert(e))
            .collect();
        c.apply_updates(&ops).expect("batch applies");
        for &e in &edges[2_000..] {
            c.insert_edge(e);
        }
        for e in edges.iter().step_by(5) {
            c.update_weight(e.at(9));
        }
        for e in edges.iter().step_by(3) {
            c.delete_edge(e.src, e.dst, e.etype);
        }
        let mem = c.memory_breakdown();
        assert_eq!(mem.samtree_bytes, c.total_topology_bytes());
        assert_eq!(
            mem.leaf_bytes + mem.internal_bytes + mem.directory_bytes,
            mem.samtree_bytes
        );
        assert_eq!(
            mem.leaf_payload_bytes + mem.leaf_slack_bytes,
            mem.leaf_bytes
        );
        for s in &mem.per_shard {
            let t = &s.topology;
            assert_eq!(t.leaf_payload_bytes + t.leaf_slack_bytes, t.leaf_bytes);
            // One Fenwick entry plus a 1- to 8-byte id per resident edge.
            assert!(t.leaf_payload_bytes >= 9 * s.edges, "{t:?}");
            assert!(t.leaf_payload_bytes <= 16 * s.edges, "{t:?}");
        }
        let sum = |f: fn(&StoreMemory) -> usize| {
            mem.per_shard.iter().map(|s| f(&s.topology)).sum::<usize>()
        };
        assert_eq!(sum(|t| t.leaf_payload_bytes), mem.leaf_payload_bytes);
        assert_eq!(sum(|t| t.leaf_slack_bytes), mem.leaf_slack_bytes);
    }

    #[test]
    fn memory_breakdown_refreshes_gauges_and_adds_up() {
        let c = small_cluster();
        for e in DatasetProfile::tiny().edge_stream(6).take(400) {
            c.insert_edge(e);
        }
        c.set_vertex_attr(VertexId(1), bytes::Bytes::from(vec![0u8; 4096]));
        let mem = c.memory_breakdown();
        assert_eq!(mem.per_shard.len(), c.num_shards());
        assert_eq!(mem.samtree_bytes, c.total_topology_bytes());
        assert_eq!(
            mem.leaf_bytes + mem.internal_bytes + mem.directory_bytes,
            mem.samtree_bytes,
            "split must be exact"
        );
        assert!(mem.attr_bytes >= 4096);
        let snap = c.obs().snapshot();
        assert_eq!(
            snap.gauge("graph.mem.samtree_bytes"),
            Some(mem.samtree_bytes as i64)
        );
        assert_eq!(
            snap.gauge("graph.mem.attr_bytes"),
            Some(mem.attr_bytes as i64)
        );
        // Timeless so far: no leaf has a timestamp column.
        assert_eq!(mem.timestamp_bytes, 0);
        assert_eq!(snap.gauge("graph.mem.timestamp_bytes"), Some(0));
        // Stamping edges grows the column gauge and nothing else.
        for e in DatasetProfile::tiny().edge_stream(6).take(400) {
            c.update_weight(e.at(77));
        }
        let stamped = c.memory_breakdown();
        assert!(stamped.timestamp_bytes > 0);
        assert_eq!(stamped.samtree_bytes, mem.samtree_bytes);
        assert_eq!(
            stamped.timestamp_bytes,
            stamped
                .per_shard
                .iter()
                .map(|s| s.topology.timestamp_bytes)
                .sum::<usize>()
        );
        assert_eq!(
            c.obs().snapshot().gauge("graph.mem.timestamp_bytes"),
            Some(stamped.timestamp_bytes as i64)
        );
    }
}
