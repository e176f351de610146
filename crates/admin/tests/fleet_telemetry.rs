//! The fleet telemetry plane, exercised through `route_fleet` without
//! sockets: the merged `/fleet/metrics` exposition against a golden file
//! (regenerate with `UPDATE_GOLDEN=1 cargo test -p platod2gl-admin --test
//! fleet_telemetry`), the `/debug/trace/<id>` cross-process tree
//! assembly, the merged `/fleet/slow` log, and the fleet views of one
//! member against that member's own local endpoints.

use platod2gl_admin::{route, route_fleet, FleetIntrospect, FleetSnapshot};
use platod2gl_graph::{Edge, EdgeType, GraphStore, VertexId};
use platod2gl_obs::{ObsSnapshot, Registry, SlowOpRecord, SpanRecord};
use platod2gl_server::{Cluster, ClusterConfig, SampleRequest};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A fleet stub with canned per-member telemetry. `fleet_snapshot` is
/// unused by the endpoints under test.
struct CannedFleet {
    registry: Arc<Registry>,
    obs: Vec<(String, ObsSnapshot)>,
    trace: Vec<(String, Vec<SpanRecord>)>,
}

impl FleetIntrospect for CannedFleet {
    fn fleet_snapshot(&self) -> FleetSnapshot {
        FleetSnapshot::default()
    }
    fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
    fn fleet_trace(&self, _trace_id: u64) -> Vec<(String, Vec<SpanRecord>)> {
        self.trace.clone()
    }
    fn fleet_obs(&self) -> Vec<(String, ObsSnapshot)> {
        self.obs.clone()
    }
}

/// One member's deterministic export: fixed counters/gauge plus a
/// histogram fed exact nanosecond observations.
fn member_export(requests: u64, edges: i64, lat_ns: &[u64]) -> ObsSnapshot {
    let r = Registry::new();
    r.counter("cluster.requests").add(requests);
    r.gauge("storage.edges").set(edges);
    let h = r.histogram("cluster.sample_latency_ns");
    for &ns in lat_ns {
        h.record_ns(ns);
    }
    r.snapshot()
}

fn span(
    name: &str,
    id: u64,
    parent: Option<u64>,
    remote_parent: Option<u64>,
    start_ns: u64,
) -> SpanRecord {
    SpanRecord {
        name: name.to_string().into(),
        id,
        parent,
        trace_id: 42,
        remote_parent,
        start_ns,
        duration_ns: 1_000,
    }
}

fn canned_fleet() -> CannedFleet {
    CannedFleet {
        registry: Arc::new(Registry::new()),
        obs: vec![
            ("client".to_string(), member_export(10, 5, &[100, 1_000])),
            ("server-1".to_string(), member_export(7, 9, &[1_023])),
            ("server-2".to_string(), member_export(3, 2, &[15_000])),
        ],
        // client root (span 1) fans out to two servers; server-1 relays
        // to server-2 (its span 7 is the remote parent of server-2's 4).
        trace: vec![
            (
                "client".to_string(),
                vec![
                    span("fleet.sample", 1, None, None, 0),
                    span("fleet.sample_group", 2, Some(1), None, 10),
                ],
            ),
            (
                "server-1".to_string(),
                vec![
                    span("rpc.server.sample", 7, None, Some(2), 0),
                    span("cluster.sample", 8, Some(7), None, 5),
                ],
            ),
            (
                "server-2".to_string(),
                vec![span("rpc.server.update", 4, None, Some(7), 0)],
            ),
        ],
    }
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "merged exposition drifted from {} — run with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn fleet_metrics_merge_matches_golden() {
    let fleet = canned_fleet();
    let (status, ct, body) = route_fleet("/fleet/metrics", &fleet);
    assert_eq!(status, 200);
    assert!(ct.starts_with("text/plain"), "{ct}");
    check_golden("fleet_metrics.prom", &body);
    // Deterministic: the same members render the same bytes.
    assert_eq!(body, route_fleet("/fleet/metrics", &fleet).2);
}

#[test]
fn fleet_metrics_merge_is_exact() {
    let fleet = canned_fleet();
    let (_, _, body) = route_fleet("/fleet/metrics", &fleet);
    // Counter sum: 10 + 7 + 3.
    assert!(
        body.contains("plato_cluster_requests_total{server=\"fleet\"} 20"),
        "{body}"
    );
    // Histogram merge is sum-preserving: total count is the sum of the
    // per-member counts, and the fleet `_sum` is the exact sum of every
    // observation (100 + 1000 + 1023 + 15000 ns).
    assert!(
        body.contains("plato_cluster_sample_latency_seconds_count{server=\"fleet\"} 4"),
        "{body}"
    );
    assert!(
        body.contains("plato_cluster_sample_latency_seconds_sum{server=\"fleet\"} 0.000017123"),
        "{body}"
    );
    // The shared formatter carries the single-process HELP conventions.
    assert!(
        body.contains(
            "# HELP plato_cluster_requests_total Sample requests routed by the cluster front door"
        ),
        "{body}"
    );
}

#[test]
fn debug_trace_stitches_one_tree_across_processes() {
    let fleet = canned_fleet();
    let (status, ct, body) = route_fleet("/debug/trace/42", &fleet);
    assert_eq!(status, 200);
    assert_eq!(ct, "application/json");
    assert!(
        body.starts_with("{\"trace_id\":42,\"span_count\":5"),
        "{body}"
    );
    assert!(
        body.contains("\"processes\":[\"client\",\"server-1\",\"server-2\"]"),
        "{body}"
    );
    // One root — the client's fan-out span — everything else nested.
    assert_eq!(body.matches("\"member\":\"client\"").count(), 2);
    let roots_at = body.find("\"roots\":[").expect("roots array");
    let first_root = &body[roots_at..];
    assert!(
        first_root.starts_with("\"roots\":[{\"member\":\"client\",\"name\":\"fleet.sample\""),
        "{body}"
    );
    // Exactly one top-level tree: the roots array holds a single object.
    assert_eq!(body.matches("\"remote_parent\":2").count(), 1);
    // Nesting: server-1's remote root sits under the client group span,
    // and server-2's under server-1's span 7.
    let group = body.find("\"name\":\"fleet.sample_group\"").expect("group");
    let srv1 = body.find("\"member\":\"server-1\"").expect("server-1");
    let srv2 = body.find("\"member\":\"server-2\"").expect("server-2");
    assert!(group < srv1 && srv1 < srv2, "{body}");
}

#[test]
fn debug_trace_rejects_bad_ids() {
    let fleet = canned_fleet();
    assert_eq!(route_fleet("/debug/trace/0", &fleet).0, 404);
    assert_eq!(route_fleet("/debug/trace/nope", &fleet).0, 404);
    assert_eq!(route_fleet("/debug/trace/", &fleet).0, 404);
}

#[test]
fn fleet_slow_merges_and_orders_by_duration() {
    let mut fleet = canned_fleet();
    fleet.obs[0].1.slow.push(SlowOpRecord {
        op: "rpc.client.sample".into(),
        trace_id: Some(42),
        detail: "batch=64".to_string(),
        duration_ns: 5_000,
        spans: Vec::new(),
    });
    fleet.obs[1].1.slow.push(SlowOpRecord {
        op: "cluster.sample".into(),
        trace_id: Some(42),
        detail: "vertex=7".to_string(),
        duration_ns: 9_000,
        spans: Vec::new(),
    });
    let (status, _, body) = route_fleet("/fleet/slow", &fleet);
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"captured\":2,"), "{body}");
    // Slowest first, each op tagged with its origin member.
    let srv = body.find("\"server\":\"server-1\"").expect("server-1 op");
    let cli = body.find("\"server\":\"client\"").expect("client op");
    assert!(srv < cli, "slowest first: {body}");
    assert!(
        body.contains("\"op\":\"cluster.sample\",\"trace_id\":42"),
        "{body}"
    );
}

#[test]
fn index_advertises_the_telemetry_endpoints() {
    let fleet = canned_fleet();
    let (_, _, index) = route_fleet("/", &fleet);
    for needle in ["/debug/trace/<id>", "/fleet/metrics", "/fleet/slow"] {
        assert!(index.contains(needle), "{index}");
    }
}

/// The captures of a slow-log body, one string per op, server tag
/// removed, sorted (the fleet view orders by duration, the local one by
/// age).
fn slow_ops(body: &str) -> Vec<String> {
    let tail = body.split_once("\"ops\":[").expect("ops array").1;
    let tail = tail.strip_suffix("]}").expect("closed body");
    let mut ops: Vec<String> = tail
        .replace("{\"server\":\"client\",\"op\":", "{\"op\":")
        .split("{\"op\":")
        .skip(1)
        .map(|op| op.trim_end_matches(',').to_string())
        .collect();
    ops.sort();
    ops
}

/// A fleet of one member is that member's local view under a `server`
/// label: `/fleet/slow` holds the ops `/debug/slow` holds and
/// `/fleet/metrics` the samples `/metrics` holds, series by series — the
/// two planes render one snapshot type through one set of emitters.
#[test]
fn one_member_fleet_renders_what_the_local_endpoints_render() {
    let config = ClusterConfig::builder()
        .num_shards(2)
        .build()
        .expect("valid config");
    let cluster = Cluster::new(config);
    cluster.obs().slow_log().set_threshold(Duration::ZERO);
    for dst in 1..=4u64 {
        cluster.insert_edge(Edge::new(VertexId(0), VertexId(dst), 1.0));
    }
    for trace in 1..=3u64 {
        let req = SampleRequest::new(VertexId(0), EdgeType::DEFAULT, 2).with_trace_id(trace);
        cluster.sample(&req, &mut rand::rngs::StdRng::seed_from_u64(trace));
    }
    // `/metrics` refreshes the memory gauges; snapshot after it.
    let local_metrics = route("/metrics", &cluster).2;
    let local_slow = route("/debug/slow", &cluster).2;
    let fleet = CannedFleet {
        registry: Arc::clone(cluster.obs()),
        obs: vec![("client".to_string(), cluster.obs().snapshot())],
        trace: Vec::new(),
    };
    let fleet_metrics = route_fleet("/fleet/metrics", &fleet).2;
    let fleet_slow = route_fleet("/fleet/slow", &fleet).2;

    let ops = slow_ops(&local_slow);
    assert_eq!(ops.len(), 3, "{local_slow}");
    assert_eq!(slow_ops(&fleet_slow), ops);
    assert_eq!(fleet_slow.matches("\"server\":\"client\"").count(), 3);

    let mut samples = 0;
    for line in local_metrics.lines() {
        if line.starts_with('#') {
            assert!(fleet_metrics.contains(line), "missing {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let labelled = match series.split_once('{') {
            Some((name, labels)) => format!("{name}{{server=\"client\",{labels}"),
            None => format!("{series}{{server=\"client\"}}"),
        };
        let expected = format!("{labelled} {value}\n");
        assert!(fleet_metrics.contains(&expected), "missing {expected}");
        samples += 1;
    }
    assert!(samples > 20, "the local exposition is not trivial");
    assert_eq!(
        fleet_metrics.matches("server=\"client\"").count(),
        samples,
        "no series the local view lacks"
    );
}
