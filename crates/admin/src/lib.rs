//! Live introspection plane for a running PlatoD2GL cluster.
//!
//! The paper's claims are operational measurements — per-stage latency
//! (Sec. VIII) and memory after graph build (Table IV) — and the WeChat
//! deployment it describes is monitored continuously, not via offline
//! bench reports. [`AdminServer`] makes a running cluster inspectable from
//! the outside: it binds a TCP listener, serves a hand-rolled HTTP/1.0
//! (the workspace vendors no HTTP crate — `std::net::TcpListener` and
//! ~100 lines of request parsing are the whole protocol stack), and
//! answers:
//!
//! | endpoint        | payload |
//! |-----------------|---------|
//! | `/metrics`      | Prometheus text exposition of the whole registry |
//! | `/healthz`      | per-shard health, queued ops, graph version (503 when any shard is failed) |
//! | `/debug/memory` | live `DeepSize` walk: samtree leaf payload/slack, index, directory, timestamp columns, attributes, WAL |
//! | `/debug/spans`  | the tracer's recent-span ring plus started/finished/dropped counts |
//! | `/debug/slow`   | the slow-op log: over-threshold requests with their span trees |
//! | `/debug/txns`   | txn commit/abort/dedupe counts, the abort streak and the recent txn journal |
//!
//! Every response is computed from the shared [`Cluster`] +
//! [`Registry`](platod2gl_obs::Registry) on the accept thread — no
//! background aggregation, no staleness. The registry is the one ledger:
//! request and byte counts, degradations and the rpc event loop's
//! connection counts are `/metrics` series, not separate endpoints.
//! `/metrics` and `/debug/memory` refresh the `graph.mem.*` gauges via
//! [`Cluster::memory_breakdown`] before rendering, so scrapes always see
//! current memory.
//!
//! The server owns one accept thread; requests are served sequentially.
//! That is deliberate: this is an operator plane for one scraper and a
//! human with `curl`, not a data plane, and a single thread cannot
//! amplify a misbehaving client into cluster-wide lock pressure. A
//! request head gets 2 s and 8 KiB in total, so a slow or endless head
//! cannot hold that thread either.

use platod2gl_graph::{GraphStore, ShardHealth};
use platod2gl_obs::{json_escape, ObsSnapshot, SlowOpRecord, SpanRecord};
use platod2gl_server::Cluster;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll interval of the accept loop while idle (the listener is
/// non-blocking so shutdown needs no self-connect trick).
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Time budget for reading one whole request head.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Byte budget of one request head; a head cut here is routed on what
/// was read.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

const CT_TEXT: &str = "text/plain; charset=utf-8";
/// Prometheus text exposition format version marker.
const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_JSON: &str = "application/json";

/// The admin HTTP server: one accept thread serving a shared [`Cluster`].
///
/// Binds eagerly in [`AdminServer::bind`] (so the caller learns the
/// ephemeral port immediately) and shuts down on drop or
/// [`AdminServer::shutdown`].
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `cluster` on a background thread.
    pub fn bind(addr: impl ToSocketAddrs, cluster: Arc<Cluster>) -> io::Result<Self> {
        Self::bind_routed(addr, move |path| route(path, &cluster))
    }

    /// Bind an admin plane for a whole fleet: `/healthz` aggregates
    /// partition ownership across servers (one replica down is degraded
    /// but 200; an unowned partition is 503) and `/debug/partitions`
    /// renders the routing table with per-partition health and load.
    pub fn bind_fleet<F>(addr: impl ToSocketAddrs, fleet: Arc<F>) -> io::Result<Self>
    where
        F: FleetIntrospect + Send + Sync + 'static,
    {
        Self::bind_routed(addr, move |path| route_fleet(path, fleet.as_ref()))
    }

    /// Bind with an arbitrary GET router — the shared accept loop behind
    /// both the single-cluster and the fleet admin planes.
    fn bind_routed<R>(addr: impl ToSocketAddrs, route_fn: R) -> io::Result<Self>
    where
        R: Fn(&str) -> (u16, &'static str, String) + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("platod2gl-admin".to_string())
            .spawn(move || serve(&listener, &route_fn, &thread_stop))?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve<R>(listener: &TcpListener, route_fn: &R, stop: &AtomicBool)
where
    R: Fn(&str) -> (u16, &'static str, String),
{
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A broken client connection must not take the admin plane
                // down; drop the error and keep accepting.
                let _ = handle_connection(stream, route_fn);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// A request head's byte source: each read waits only until `deadline`,
/// so the head as a whole — not each line of it — gets [`READ_TIMEOUT`].
struct HeadReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for HeadReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        Read::read(&mut self.stream, buf)
    }
}

/// Read a request head and return its request line. The headers up to
/// the blank line are drained and ignored (no bodies on GET, responses
/// always close the connection).
fn read_request_line(stream: &TcpStream) -> io::Result<String> {
    let head = HeadReader {
        stream,
        deadline: Instant::now() + READ_TIMEOUT,
    };
    let mut reader = BufReader::new(head.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut header = String::new();
    while reader.read_line(&mut header)? > 0 && header != "\r\n" && header != "\n" {
        header.clear();
    }
    Ok(request_line)
}

fn handle_connection<R>(stream: TcpStream, route_fn: &R) -> io::Result<()>
where
    R: Fn(&str) -> (u16, &'static str, String),
{
    stream.set_nonblocking(false)?;
    let request_line = read_request_line(&stream)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = if method != "GET" {
        (405, CT_TEXT, "method not allowed\n".to_string())
    } else {
        route_fn(path)
    };
    write_response(stream, status, content_type, &body)
}

fn write_response(
    mut stream: TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let header = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The endpoints every index page lists first.
const INDEX_COMMON: [&str; 2] = ["/metrics", "/healthz"];
/// What [`route`] serves beside them.
const INDEX_CLUSTER: [&str; 4] = [
    "/debug/memory",
    "/debug/spans",
    "/debug/slow",
    "/debug/txns",
];

/// The `GET /` body: `title`, then [`INDEX_COMMON`] and `endpoints`, one
/// path per line.
fn index_page(title: &str, endpoints: &[&str]) -> (u16, &'static str, String) {
    let mut body = format!("{title}\n\n");
    for path in INDEX_COMMON.iter().chain(endpoints) {
        body.push_str(path);
        body.push('\n');
    }
    (200, CT_TEXT, body)
}

/// Append `items` to `out` as comma-separated JSON values, each written
/// by `write`.
fn join_json<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
}

/// Dispatch one GET to its endpoint. Split out (and `pub` for tests) so
/// endpoint behavior is testable without sockets.
pub fn route(path: &str, cluster: &Cluster) -> (u16, &'static str, String) {
    match path {
        "/" => index_page("PlatoD2GL admin", &INDEX_CLUSTER),
        "/metrics" => {
            // Refresh graph.mem.* so every scrape carries current memory.
            cluster.memory_breakdown();
            (200, CT_PROM, cluster.obs().snapshot().to_prometheus())
        }
        "/healthz" => healthz(cluster),
        "/debug/memory" => (200, CT_JSON, memory_json(cluster)),
        "/debug/spans" => (200, CT_JSON, spans_json(cluster)),
        "/debug/slow" => (200, CT_JSON, slow_json(cluster)),
        "/debug/txns" => (200, CT_JSON, txns_json(cluster)),
        _ => (404, CT_TEXT, "not found\n".to_string()),
    }
}

// ---------------------------------------------------------------------
// Fleet introspection: the admin view of a multi-server deployment.
// ---------------------------------------------------------------------

/// One fleet server as the admin plane sees it.
#[derive(Clone, Debug)]
pub struct FleetServerView {
    /// Stable fleet identity.
    pub id: u64,
    /// Dialable graph-service address.
    pub addr: String,
    /// Whether a health probe currently succeeds.
    pub reachable: bool,
}

/// One partition's routing row plus its live health and load.
#[derive(Clone, Debug)]
pub struct FleetPartitionView {
    /// Partition index in the keyspace.
    pub partition: u32,
    /// Owning server id.
    pub owner: u64,
    /// Replica server id, if the fleet has one.
    pub replica: Option<u64>,
    /// Owner currently reachable.
    pub owner_up: bool,
    /// Replica present *and* reachable.
    pub replica_up: bool,
    /// Resident `(src, etype)` keys on the owner.
    pub keys: u64,
}

/// Point-in-time fleet state for `/healthz` and `/debug/partitions`.
#[derive(Clone, Debug, Default)]
pub struct FleetSnapshot {
    /// Partition-map epoch in effect.
    pub epoch: u64,
    /// Partition keyspace size.
    pub num_partitions: u32,
    /// Roster, map order.
    pub servers: Vec<FleetServerView>,
    /// One row per partition.
    pub partitions: Vec<FleetPartitionView>,
}

/// What a fleet must expose to be served by [`AdminServer::bind_fleet`].
/// Implemented by `platod2gl_fleet::FleetCluster`; the trait lives here so
/// the admin plane needs no fleet dependency.
pub trait FleetIntrospect {
    /// Probe the fleet and assemble the current snapshot.
    fn fleet_snapshot(&self) -> FleetSnapshot;

    /// The fleet client's own metric registry (for `/metrics`).
    fn registry(&self) -> &Arc<platod2gl_obs::Registry>;

    /// Every span of `trace_id` each fleet member holds, labeled by
    /// member, the local client first. Default: the local registry only —
    /// an implementation with remote members overrides this with a
    /// `SpanExport` pull per member (`GET /debug/trace/<id>` stitches
    /// the result into one cross-process tree).
    fn fleet_trace(&self, trace_id: u64) -> Vec<(String, Vec<SpanRecord>)> {
        vec![("client".to_string(), self.registry().trace_spans(trace_id))]
    }

    /// Each member's registry snapshot (exact histogram buckets plus
    /// recent slow ops), labeled by member. Default: the local registry
    /// only; fleet implementations override with an `ObsExport` pull per
    /// member (`GET /fleet/metrics` and `GET /fleet/slow` merge these).
    fn fleet_obs(&self) -> Vec<(String, ObsSnapshot)> {
        vec![("client".to_string(), self.registry().snapshot())]
    }
}

/// Dispatch one GET against a fleet. Split out (and `pub` for tests) so
/// endpoint behavior is testable without sockets.
pub fn route_fleet(path: &str, fleet: &dyn FleetIntrospect) -> (u16, &'static str, String) {
    if let Some(rest) = path.strip_prefix("/debug/trace/") {
        return match rest.parse::<u64>() {
            Ok(trace_id) if trace_id != 0 => (
                200,
                CT_JSON,
                trace_json(trace_id, &fleet.fleet_trace(trace_id)),
            ),
            _ => (
                404,
                CT_TEXT,
                "trace id must be a nonzero integer\n".to_string(),
            ),
        };
    }
    match path {
        "/" => index_page(
            "PlatoD2GL fleet admin",
            &[
                "/debug/partitions",
                "/debug/trace/<id>",
                "/fleet/metrics",
                "/fleet/slow",
            ],
        ),
        "/metrics" => (200, CT_PROM, fleet.registry().snapshot().to_prometheus()),
        // The merged exposition and the single-process `/metrics` share
        // obs's scalar/histogram emitters: HELP text, `_total` suffixes and
        // base-unit conversion cannot drift between the two.
        "/fleet/metrics" => (
            200,
            CT_PROM,
            platod2gl_obs::fleet_prometheus(&fleet.fleet_obs()),
        ),
        "/fleet/slow" => (200, CT_JSON, fleet_slow_json(&fleet.fleet_obs())),
        "/healthz" => fleet_healthz(&fleet.fleet_snapshot()),
        "/debug/partitions" => (200, CT_JSON, partitions_json(&fleet.fleet_snapshot())),
        _ => (404, CT_TEXT, "not found\n".to_string()),
    }
}

/// The `"ops":[..]}` tail of both slow-log bodies: `/debug/slow` renders
/// its captures untagged, `/fleet/slow` tags each with its member.
fn push_slow_ops<'a>(
    body: &mut String,
    ops: impl Iterator<Item = (Option<&'a str>, &'a SlowOpRecord)>,
) {
    join_json(body, ops, |out, (server, op)| {
        out.push_str(&op.to_json_tagged(server))
    });
    body.push_str("]}");
}

/// The fleet-wide slow-op log: every member's captures tagged with their
/// origin, slowest first (ties keep member order — deterministic for a
/// given input).
fn fleet_slow_json(members: &[(String, ObsSnapshot)]) -> String {
    let mut ops: Vec<(Option<&str>, &SlowOpRecord)> = members
        .iter()
        .flat_map(|(label, e)| e.slow.iter().map(move |op| (Some(label.as_str()), op)))
        .collect();
    ops.sort_by_key(|&(_, op)| std::cmp::Reverse(op.duration_ns));
    let mut body = format!("{{\"captured\":{},\"ops\":[", ops.len());
    push_slow_ops(&mut body, ops.into_iter());
    body
}

/// One node of the stitched trace tree: a span plus where it ran.
struct TraceNode<'a> {
    member: &'a str,
    span: &'a SpanRecord,
    children: Vec<usize>,
}

/// Assemble the cross-process span tree for one trace id.
///
/// Span ids are only unique within their origin process, so nodes key as
/// `(member, span id)`. A local `parent` resolves within the same member;
/// a server-side root's `remote_parent` names a span in the *caller's*
/// process and resolves against other members first (own member last), in
/// member-list order — deterministic, and correct for the honest case
/// where the caller is a different process. Unresolvable spans become
/// additional roots rather than being dropped: a partial trace renders
/// partially, never silently shrinks.
fn trace_json(trace_id: u64, members: &[(String, Vec<SpanRecord>)]) -> String {
    use std::collections::HashMap;
    let mut nodes: Vec<TraceNode<'_>> = Vec::new();
    // (member index, span id) -> node index; first occurrence wins.
    let mut by_key: HashMap<(usize, u64), usize> = HashMap::new();
    for (mi, (member, spans)) in members.iter().enumerate() {
        for span in spans {
            let key = (mi, span.id);
            if let std::collections::hash_map::Entry::Vacant(e) = by_key.entry(key) {
                e.insert(nodes.len());
                nodes.push(TraceNode {
                    member,
                    span,
                    children: Vec::new(),
                });
            }
        }
    }
    let member_index: HashMap<&str, usize> = members
        .iter()
        .enumerate()
        .map(|(i, (m, _))| (m.as_str(), i))
        .collect();
    let mut roots: Vec<usize> = Vec::new();
    for i in 0..nodes.len() {
        let mi = member_index[nodes[i].member];
        let parent = match (nodes[i].span.parent, nodes[i].span.remote_parent) {
            (Some(p), _) => by_key.get(&(mi, p)).copied(),
            (None, Some(rp)) => (0..members.len())
                .filter(|&m| m != mi)
                .chain(std::iter::once(mi))
                .find_map(|m| by_key.get(&(m, rp)).copied())
                .filter(|&p| p != i),
            (None, None) => None,
        };
        match parent {
            Some(p) => nodes[p].children.push(i),
            None => roots.push(i),
        }
    }
    // Deterministic sibling order: member order, then start offset, then
    // span id (start offsets are per-process epochs — comparable within a
    // member, which is the only place ties matter).
    let keys: Vec<(usize, u64, u64)> = nodes
        .iter()
        .map(|n| (member_index[n.member], n.span.start_ns, n.span.id))
        .collect();
    roots.sort_by_key(|&i| keys[i]);
    for node in &mut nodes {
        node.children.sort_by_key(|&i| keys[i]);
    }
    let processes = {
        let mut seen: Vec<&str> = nodes.iter().map(|n| n.member).collect();
        seen.sort_by_key(|m| member_index[m]);
        seen.dedup();
        seen
    };
    let mut body = format!(
        "{{\"trace_id\":{trace_id},\"span_count\":{},\"processes\":[",
        nodes.len()
    );
    join_json(&mut body, processes, |out, m| {
        out.push_str(&format!("\"{}\"", json_escape(m)));
    });
    body.push_str("],\"roots\":[");
    join_json(&mut body, roots, |out, root| {
        write_trace_node(out, &nodes, root)
    });
    body.push_str("]}");
    body
}

fn write_trace_node(out: &mut String, nodes: &[TraceNode<'_>], i: usize) {
    let n = &nodes[i];
    let opt = |v: Option<u64>| match v {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    out.push_str(&format!(
        "{{\"member\":\"{}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"remote_parent\":{},\
         \"start_ns\":{},\"duration_ns\":{},\"children\":[",
        json_escape(n.member),
        json_escape(&n.span.name),
        n.span.id,
        opt(n.span.parent),
        opt(n.span.remote_parent),
        n.span.start_ns,
        n.span.duration_ns
    ));
    join_json(out, &n.children, |out, &child| {
        write_trace_node(out, nodes, child)
    });
    out.push_str("]}");
}

/// Fleet health is about *coverage*, not individual boxes: a partition
/// whose owner is down but whose replica still answers is degraded yet
/// serving (200); a partition with neither copy reachable is unowned —
/// reads fail — and that flips the probe to 503.
fn fleet_healthz(snap: &FleetSnapshot) -> (u16, &'static str, String) {
    let unowned: Vec<u32> = snap
        .partitions
        .iter()
        .filter(|p| !p.owner_up && !p.replica_up)
        .map(|p| p.partition)
        .collect();
    let degraded = snap
        .partitions
        .iter()
        .any(|p| !p.owner_up || (p.replica.is_some() && !p.replica_up))
        || snap.servers.iter().any(|s| !s.reachable);
    let status_str = if !unowned.is_empty() {
        "unowned"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let mut body = format!(
        "{{\"status\":\"{status_str}\",\"epoch\":{},\"num_partitions\":{},\
         \"servers_reachable\":{},\"servers_total\":{},\"unowned_partitions\":[",
        snap.epoch,
        snap.num_partitions,
        snap.servers.iter().filter(|s| s.reachable).count(),
        snap.servers.len()
    );
    join_json(&mut body, &unowned, |out, p| out.push_str(&p.to_string()));
    body.push_str("]}");
    let status = if unowned.is_empty() { 200 } else { 503 };
    (status, CT_JSON, body)
}

fn partitions_json(snap: &FleetSnapshot) -> String {
    let mut body = format!(
        "{{\"epoch\":{},\"num_partitions\":{},\"servers\":[",
        snap.epoch, snap.num_partitions
    );
    join_json(&mut body, &snap.servers, |out, s| {
        out.push_str(&format!(
            "{{\"id\":{},\"addr\":\"{}\",\"reachable\":{}}}",
            s.id,
            json_escape(&s.addr),
            s.reachable
        ));
    });
    body.push_str("],\"partitions\":[");
    join_json(&mut body, &snap.partitions, |out, p| {
        let replica = match p.replica {
            Some(r) => r.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"partition\":{},\"owner\":{},\"replica\":{replica},\"owner_up\":{},\
             \"replica_up\":{},\"keys\":{}}}",
            p.partition, p.owner, p.owner_up, p.replica_up, p.keys
        ));
    });
    body.push_str("]}");
    body
}

fn health_str(h: ShardHealth) -> &'static str {
    match h {
        ShardHealth::Healthy => "healthy",
        ShardHealth::Degraded => "degraded",
        ShardHealth::Failed => "failed",
    }
}

/// Consecutive txn aborts at which the storage plane reports degraded: a
/// one-off rejection is normal validation traffic, a streak means writers
/// are systematically failing to commit.
const ABORT_STREAK_DEGRADED: u64 = 3;

fn healthz(cluster: &Cluster) -> (u16, &'static str, String) {
    let health = cluster.health();
    let status_str = if health.contains(&ShardHealth::Failed) {
        "failed"
    } else if health.contains(&ShardHealth::Degraded) {
        "degraded"
    } else {
        "ok"
    };
    // Storage sickness is a *distinct* axis from shard health: WAL
    // append/fsync failures and txn abort streaks mean writes are in
    // trouble even while every shard still answers reads. It never flips
    // the probe to 503 — the cluster is still serving.
    let wal_append_errors = cluster
        .obs()
        .snapshot()
        .counter("wal.append_errors")
        .unwrap_or(0);
    let abort_streak = cluster.txn_abort_streak();
    let storage_status = if wal_append_errors > 0 || abort_streak >= ABORT_STREAK_DEGRADED {
        "degraded"
    } else {
        "ok"
    };
    let mut body = format!(
        "{{\"status\":\"{status_str}\",\"graph_version\":{},\"num_edges\":{},\
         \"storage\":{{\"status\":\"{storage_status}\",\"wal_append_errors\":{wal_append_errors},\
         \"txn_abort_streak\":{abort_streak}}},\"shards\":[",
        cluster.graph_version(),
        cluster.num_edges()
    );
    join_json(&mut body, health.iter().enumerate(), |out, (shard, &h)| {
        out.push_str(&format!(
            "{{\"shard\":{shard},\"health\":\"{}\",\"pending_ops\":{}}}",
            health_str(h),
            cluster.pending_ops(shard)
        ));
    });
    body.push_str("]}");
    // A failed shard flips the probe: orchestrators treat 503 as unhealthy
    // while degraded-but-serving stays 200 (it can still answer queries).
    let status = if status_str == "failed" { 503 } else { 200 };
    (status, CT_JSON, body)
}

fn memory_json(cluster: &Cluster) -> String {
    let mem = cluster.memory_breakdown();
    // The WAL gauge is maintained by the durable store sharing this
    // registry (zero when the cluster runs without durability).
    let wal_bytes = cluster
        .obs()
        .snapshot()
        .gauge("graph.mem.wal_bytes")
        .unwrap_or(0);
    let mut body = format!(
        "{{\"samtree_bytes\":{},\"samtree_leaf_bytes\":{},\"samtree_leaf_payload_bytes\":{},\
         \"samtree_leaf_slack_bytes\":{},\"samtree_internal_bytes\":{},\
         \"directory_bytes\":{},\"timestamp_bytes\":{},\"attr_bytes\":{},\
         \"wal_bytes\":{wal_bytes},\"per_shard\":[",
        mem.samtree_bytes,
        mem.leaf_bytes,
        mem.leaf_payload_bytes,
        mem.leaf_slack_bytes,
        mem.internal_bytes,
        mem.directory_bytes,
        mem.timestamp_bytes,
        mem.attr_bytes
    );
    join_json(&mut body, &mem.per_shard, |out, s| {
        out.push_str(&format!(
            "{{\"shard\":{},\"topology_bytes\":{},\"leaf_bytes\":{},\"leaf_payload_bytes\":{},\
             \"leaf_slack_bytes\":{},\"internal_bytes\":{},\"directory_bytes\":{},\
             \"timestamp_bytes\":{},\"attr_bytes\":{},\"edges\":{}}}",
            s.shard,
            s.topology.total_bytes,
            s.topology.leaf_bytes,
            s.topology.leaf_payload_bytes,
            s.topology.leaf_slack_bytes,
            s.topology.internal_bytes,
            s.topology.directory_bytes,
            s.topology.timestamp_bytes,
            s.attr_bytes,
            s.edges
        ));
    });
    body.push_str("]}");
    body
}

fn spans_json(cluster: &Cluster) -> String {
    let tracer = cluster.obs().tracer();
    let mut body = format!(
        "{{\"started\":{},\"finished\":{},\"dropped\":{},\"spans\":[",
        tracer.started(),
        tracer.finished(),
        tracer.dropped()
    );
    join_json(&mut body, &tracer.recent(), |out, s| {
        out.push_str(&s.to_json())
    });
    body.push_str("]}");
    body
}

fn slow_json(cluster: &Cluster) -> String {
    let slow = cluster.obs().slow_log();
    // Tail context for the captures: the p99 of every latency histogram
    // in the registry, so an operator reading one slow op can see whether
    // the tail as a whole moved (`rpc.server.request_ns` is the one the
    // serving core maintains).
    let snap = cluster.obs().snapshot();
    let mut body = format!(
        "{{\"threshold_ns\":{},\"captured\":{},\"p99_ns\":{{",
        slow.threshold_ns(),
        slow.captured()
    );
    join_json(&mut body, &snap.histograms, |out, (name, h)| {
        out.push_str(&format!("\"{}\":{}", json_escape(name), h.p99_ns));
    });
    body.push_str("},\"ops\":[");
    push_slow_ops(&mut body, snap.slow.iter().map(|op| (None, op)));
    body
}

fn txns_json(cluster: &Cluster) -> String {
    let snap = cluster.obs().snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let mut body = format!(
        "{{\"committed\":{},\"aborted\":{},\"deduped\":{},\"ops_applied\":{},\
         \"abort_streak\":{},\"recent\":[",
        count("txn.committed"),
        count("txn.aborted"),
        count("txn.deduped"),
        count("txn.ops_applied"),
        cluster.txn_abort_streak()
    );
    join_json(&mut body, &cluster.txn_journal(), |out, entry| {
        out.push_str(&format!(
            "{{\"txn_id\":{},\"outcome\":\"{}\",\"ops\":{},\"detail\":\"{}\"}}",
            entry.txn_id,
            entry.outcome,
            entry.ops,
            json_escape(&entry.detail)
        ));
    });
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::{Edge, EdgeType, VertexId};
    use platod2gl_server::ClusterConfig;

    fn tiny_cluster() -> Arc<Cluster> {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        );
        for i in 1..=8u64 {
            c.insert_edge(Edge::new(VertexId(0), VertexId(i), 1.0));
        }
        Arc::new(c)
    }

    #[test]
    fn route_serves_every_endpoint_and_404s_the_rest() {
        let c = tiny_cluster();
        for path in [
            "/",
            "/metrics",
            "/healthz",
            "/debug/memory",
            "/debug/spans",
            "/debug/slow",
            "/debug/txns",
        ] {
            let (status, _, body) = route(path, &c);
            assert_eq!(status, 200, "{path}");
            assert!(!body.is_empty(), "{path}");
        }
        assert_eq!(route("/nope", &c).0, 404);
        assert_eq!(route("/metricsx", &c).0, 404);
    }

    #[test]
    fn healthz_reflects_shard_failure_and_heal() {
        let c = tiny_cluster();
        let (status, _, body) = route("/healthz", &c);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        c.faults().fail_shard(1);
        // A request must hit the failed shard before the router marks it.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dead = (0..)
            .map(VertexId)
            .find(|&v| c.route(v) == 1)
            .expect("a vertex on shard 1");
        use platod2gl_server::SampleRequest;
        let _ = c.sample(&SampleRequest::new(dead, EdgeType(0), 4), &mut rng);
        let (status, _, body) = route("/healthz", &c);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"health\":\"failed\""), "{body}");
        c.heal_shard(1);
        let (status, _, body) = route("/healthz", &c);
        assert_eq!(status, 200);
        assert!(body.contains("\"health\":\"healthy\""), "{body}");
    }

    #[test]
    fn txns_endpoint_and_healthz_storage_field_track_the_txn_plane() {
        use platod2gl_graph::GraphTxn;
        let c = tiny_cluster();
        let (_, _, body) = route("/healthz", &c);
        assert!(body.contains("\"storage\":{\"status\":\"ok\""), "{body}");

        let receipt = c
            .apply_txn(&GraphTxn::new(41).insert_edge(Edge::new(VertexId(20), VertexId(21), 1.0)))
            .expect("commits");
        assert_eq!(receipt.ops_applied, 1);
        // Three dangling deletes in a row: a storage-degraded abort streak.
        for id in 50..53u64 {
            let txn = GraphTxn::new(id).delete_edge(VertexId(999), VertexId(998), EdgeType(0));
            assert!(c.apply_txn(&txn).is_err());
        }
        let (status, ct, body) = route("/debug/txns", &c);
        assert_eq!((status, ct), (200, CT_JSON));
        assert!(body.contains("\"committed\":1"), "{body}");
        assert!(body.contains("\"aborted\":3"), "{body}");
        assert!(body.contains("\"abort_streak\":3"), "{body}");
        assert!(body.contains("\"outcome\":\"rejected\""), "{body}");

        // The storage axis degrades, but shard health keeps the probe 200.
        let (status, _, body) = route("/healthz", &c);
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains("\"storage\":{\"status\":\"degraded\""),
            "{body}"
        );
        assert!(body.contains("\"txn_abort_streak\":3"), "{body}");
        assert!(body.contains("\"status\":\"ok\""), "shards stay ok: {body}");

        // A commit clears the streak and the degraded storage status.
        c.apply_txn(&GraphTxn::new(60).insert_edge(Edge::new(VertexId(30), VertexId(31), 1.0)))
            .expect("commits");
        let (_, _, body) = route("/healthz", &c);
        assert!(body.contains("\"storage\":{\"status\":\"ok\""), "{body}");
    }

    #[test]
    fn metrics_scrape_refreshes_memory_gauges() {
        let c = tiny_cluster();
        let (_, ct, text) = route("/metrics", &c);
        assert!(ct.starts_with("text/plain"));
        assert!(text.contains("plato_graph_mem_samtree_bytes"), "{text}");
        let published = c
            .obs()
            .snapshot()
            .gauge("graph.mem.samtree_bytes")
            .expect("gauge refreshed by scrape");
        assert!(published > 0);
        // The timestamp column is its own series and its own JSON line: 0
        // on a timeless graph, the gauge's value once edges are stamped.
        assert!(text.contains("plato_graph_mem_timestamp_bytes 0"), "{text}");
        assert!(c.update_weight(Edge::new(VertexId(0), VertexId(1), 1.0).at(5)));
        let (_, _, memory) = route("/debug/memory", &c);
        let bytes = c
            .obs()
            .snapshot()
            .gauge("graph.mem.timestamp_bytes")
            .expect("gauge refreshed by /debug/memory");
        assert!(bytes > 0);
        assert!(
            memory.contains(&format!("\"timestamp_bytes\":{bytes},")),
            "{memory}"
        );
        // The leaf bytes split into payload and spare column capacity.
        let mem = c.memory_breakdown();
        assert!(
            memory.contains(&format!(
                "\"samtree_leaf_bytes\":{},\"samtree_leaf_payload_bytes\":{},\"samtree_leaf_slack_bytes\":{},",
                mem.leaf_bytes, mem.leaf_payload_bytes, mem.leaf_slack_bytes
            )),
            "{memory}"
        );
        assert!(memory.contains("\"leaf_payload_bytes\":"), "{memory}");
    }

    struct StubFleet {
        snap: FleetSnapshot,
        registry: Arc<platod2gl_obs::Registry>,
    }

    impl FleetIntrospect for StubFleet {
        fn fleet_snapshot(&self) -> FleetSnapshot {
            self.snap.clone()
        }
        fn registry(&self) -> &Arc<platod2gl_obs::Registry> {
            &self.registry
        }
    }

    fn stub_fleet(owner_up: bool, replica_up: bool) -> StubFleet {
        StubFleet {
            snap: FleetSnapshot {
                epoch: 4,
                num_partitions: 2,
                servers: vec![
                    FleetServerView {
                        id: 1,
                        addr: "127.0.0.1:7001".into(),
                        reachable: owner_up,
                    },
                    FleetServerView {
                        id: 2,
                        addr: "127.0.0.1:7002".into(),
                        reachable: replica_up,
                    },
                ],
                partitions: (0..2)
                    .map(|p| FleetPartitionView {
                        partition: p,
                        owner: 1,
                        replica: Some(2),
                        owner_up,
                        replica_up,
                        keys: 7,
                    })
                    .collect(),
            },
            registry: Arc::new(platod2gl_obs::Registry::new()),
        }
    }

    #[test]
    fn slow_endpoint_reports_histogram_p99s() {
        let c = tiny_cluster();
        // Record into a histogram so the p99 map has a row.
        c.obs()
            .histogram("rpc.server.request_ns")
            .record(Duration::from_micros(80));
        let (status, _, body) = route("/debug/slow", &c);
        assert_eq!(status, 200);
        assert!(body.contains("\"p99_ns\":{"), "{body}");
        assert!(body.contains("\"rpc.server.request_ns\":"), "{body}");
    }

    #[test]
    fn fleet_healthz_distinguishes_degraded_from_unowned() {
        let healthy = stub_fleet(true, true);
        let (status, _, body) = route_fleet("/healthz", &healthy);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        // One replica down: degraded but still serving — 200.
        let degraded = stub_fleet(true, false);
        let (status, _, body) = route_fleet("/healthz", &degraded);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");

        // Owner *and* replica down: the partition is unowned — 503.
        let dark = stub_fleet(false, false);
        let (status, _, body) = route_fleet("/healthz", &dark);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"status\":\"unowned\""), "{body}");
        assert!(body.contains("\"unowned_partitions\":[0,1]"), "{body}");
    }

    #[test]
    fn fleet_partitions_endpoint_renders_the_routing_table() {
        let fleet = stub_fleet(true, true);
        let (status, ct, body) = route_fleet("/debug/partitions", &fleet);
        assert_eq!((status, ct), (200, CT_JSON));
        assert!(body.contains("\"epoch\":4"), "{body}");
        assert!(body.contains("\"addr\":\"127.0.0.1:7001\""), "{body}");
        assert!(
            body.contains("\"partition\":1,\"owner\":1,\"replica\":2"),
            "{body}"
        );
        assert!(body.contains("\"keys\":7"), "{body}");
        assert_eq!(route_fleet("/nope", &fleet).0, 404);
        let (_, ct, _) = route_fleet("/metrics", &fleet);
        assert!(ct.starts_with("text/plain"));
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let c = tiny_cluster();
        let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&c)).expect("bind");
        let addr = admin.local_addr();
        assert_ne!(addr.port(), 0);
        // GET / over a real socket.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET / HTTP/1.0\r\nHost: test\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        use std::io::Read;
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("/debug/slow"), "{response}");
        admin.shutdown();
        // Post-shutdown connections are refused or die unanswered — either
        // way the port stops serving; the join above proves thread exit.
    }

    /// A peer trickling one header line every 300 ms never times out a
    /// single line, but its head as a whole runs out of time: a concurrent
    /// scrape is answered in about the head budget, not after the peer
    /// decides to stop.
    #[test]
    fn a_trickled_request_head_cannot_hold_the_admin_thread() {
        let admin = AdminServer::bind("127.0.0.1:0", tiny_cluster()).expect("bind");
        let addr = admin.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let (connected_tx, connected) = std::sync::mpsc::channel();
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\n");
                connected_tx.send(()).expect("test waits");
                let started = Instant::now();
                while !stop.load(Ordering::Acquire) && started.elapsed() < Duration::from_secs(8) {
                    std::thread::sleep(Duration::from_millis(300));
                    // Writes fail once the server gives up on the head.
                    let _ = stream.write_all(b"X-Trickle: 1\r\n");
                }
            })
        };
        // Queued behind the trickler: the admin thread accepts in order.
        connected.recv().expect("trickler connected");
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .expect("read timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let waited = started.elapsed();
        stop.store(true, Ordering::Release);
        trickler.join().expect("trickler");

        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(
            waited < Duration::from_secs(5),
            "/healthz waited {waited:?} behind a trickled head"
        );
        admin.shutdown();
    }
}
