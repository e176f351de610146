//! Exposition: render an [`ObsSnapshot`] as Prometheus text or JSON.
//!
//! Both formats are emitted by hand — the workspace vendors no JSON
//! serializer — and both are deterministic for a given snapshot (metric
//! entries are name-sorted), so they can be golden-file tested.

use crate::hist::HistogramSnapshot;
use crate::registry::ObsSnapshot;
use crate::slow::SlowOpRecord;
use crate::span::SpanRecord;
use std::fmt::Write;

/// Map a registry metric name to a Prometheus metric name: prefix with
/// `plato_`, lowercase, and replace every character outside `[a-z0-9_]`
/// (dots, dashes) with `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("plato_");
    for c in name.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus name for a duration histogram. The registry convention is a
/// `_ns` suffix; the exposition renders bucket bounds and sums in seconds,
/// so per the Prometheus naming rules the series carries the `_seconds`
/// unit suffix instead.
fn prom_hist_name(name: &str) -> String {
    let base = name.strip_suffix("_ns").unwrap_or(name);
    let mut p = prom_name(base);
    if !p.ends_with("_seconds") {
        p.push_str("_seconds");
    }
    p
}

/// Hand-written help strings for the load-bearing metrics; everything else
/// falls back to a generated line naming the registry metric.
fn known_help(name: &str) -> Option<&'static str> {
    Some(match name {
        "cluster.requests" => "Sample requests routed by the cluster front door",
        "cluster.degraded_responses" => "Sample requests answered degraded (shard down)",
        "cluster.sample_latency_ns" => "End-to-end cluster sample request latency",
        "cluster.update_latency_ns" => "End-to-end cluster update latency",
        "cluster.graph_version" => "Monotonic graph version, bumped per applied update round",
        "graph.mem.samtree_bytes" => "Resident heap bytes of samtree topology across shards",
        "graph.mem.timestamp_bytes" => {
            "Resident heap bytes of samtree leaf timestamp columns across shards"
        }
        "graph.mem.attr_bytes" => "Resident heap bytes of vertex attribute blobs across shards",
        "graph.mem.wal_bytes" => "Write-ahead log bytes since the last checkpoint",
        "obs.spans_dropped" => "Span records evicted from the tracer ring before export",
        "obs.slow_ops" => "Operations captured by the slow-op log",
        "samtree.leaf_ops" => "Samtree leaf-level edge operations",
        "samtree.sample_requests" => "Neighbor-sampling requests served by samtree stores",
        "storage.edges" => "Resident edges across shards",
        "wal.appends" => "WAL record appends",
        _ => return None,
    })
}

/// Write the `# HELP` line for one metric (`kind` feeds the fallback).
fn help_line(out: &mut String, prom: &str, name: &str, kind: &str) {
    match known_help(name) {
        Some(help) => {
            let _ = writeln!(out, "# HELP {prom} {help}");
        }
        None => {
            let _ = writeln!(out, "# HELP {prom} PlatoD2GL {kind} {name}");
        }
    }
}

/// Write one scalar (counter or gauge) series: HELP, TYPE, then one sample
/// line per row. A `None` server label renders the bare single-process
/// form; `Some(label)` adds `{server="label"}`. Single-process and fleet
/// exposition share this emitter, so the merged fleet output can never
/// drift from the golden-tested conventions (counter `_total` suffix,
/// curated HELP text, HELP-before-TYPE ordering).
fn emit_scalar(out: &mut String, name: &str, kind: &str, rows: &[(Option<&str>, String)]) {
    let p = if kind == "counter" {
        format!("{}_total", prom_name(name))
    } else {
        prom_name(name)
    };
    help_line(out, &p, name, kind);
    let _ = writeln!(out, "# TYPE {p} {kind}");
    for (server, value) in rows {
        match server {
            Some(s) => {
                let _ = writeln!(out, "{p}{{server=\"{s}\"}} {value}");
            }
            None => {
                let _ = writeln!(out, "{p} {value}");
            }
        }
    }
}

/// Write one histogram series (cumulative `_bucket` lines in seconds plus
/// `_sum`/`_count`) per row, sharing HELP/TYPE. Same label convention as
/// [`emit_scalar`]; the `server` label precedes `le` so fleet output stays
/// deterministic.
fn emit_histogram(out: &mut String, name: &str, rows: &[(Option<&str>, &HistogramSnapshot)]) {
    let p = prom_hist_name(name);
    help_line(out, &p, name, "histogram");
    let _ = writeln!(out, "# TYPE {p} histogram");
    for (server, h) in rows {
        let labels = |le: &str| match server {
            Some(s) => format!("{{server=\"{s}\",le=\"{le}\"}}"),
            None => format!("{{le=\"{le}\"}}"),
        };
        let suffix = match server {
            Some(s) => format!("{{server=\"{s}\"}}"),
            None => String::new(),
        };
        let mut cumulative = 0u64;
        for &(exp, n) in &h.buckets {
            cumulative += n;
            // Bucket upper bound 2^(exp+1) ns, rendered in seconds.
            let le = 2f64.powi(exp as i32 + 1) / 1e9;
            let _ = writeln!(out, "{p}_bucket{} {cumulative}", labels(&le.to_string()));
        }
        let _ = writeln!(out, "{p}_bucket{} {}", labels("+Inf"), h.count);
        let _ = writeln!(out, "{p}_sum{suffix} {}", h.sum_ns as f64 / 1e9);
        let _ = writeln!(out, "{p}_count{suffix} {}", h.count);
    }
}

/// Merge N per-server snapshots into one Prometheus exposition. Every
/// metric name appearing on any server gets one HELP/TYPE block followed
/// by a `{server="<label>"}` sample per member (member order preserved)
/// and a `{server="fleet"}` aggregate: counters and gauges sum, histograms
/// merge exactly via [`HistogramSnapshot::merge`] (log2 buckets align by
/// exponent, so fleet percentiles are computed from true total counts, not
/// averaged per-server estimates). Output is deterministic for a given
/// member list, so it is golden-testable like the single-process format.
pub fn fleet_prometheus(members: &[(String, ObsSnapshot)]) -> String {
    use std::collections::BTreeMap;
    let mut counters: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, Vec<(&str, i64)>> = BTreeMap::new();
    let mut hists: BTreeMap<&str, Vec<(&str, &HistogramSnapshot)>> = BTreeMap::new();
    for (server, snap) in members {
        for (name, v) in &snap.counters {
            counters.entry(name).or_default().push((server, *v));
        }
        for (name, v) in &snap.gauges {
            gauges.entry(name).or_default().push((server, *v));
        }
        for (name, h) in &snap.histograms {
            hists.entry(name).or_default().push((server, h));
        }
    }
    let mut out = String::new();
    for (name, rows) in &counters {
        let total: u64 = rows.iter().map(|&(_, v)| v).sum();
        let mut series: Vec<(Option<&str>, String)> = rows
            .iter()
            .map(|&(s, v)| (Some(s), v.to_string()))
            .collect();
        series.push((Some("fleet"), total.to_string()));
        emit_scalar(&mut out, name, "counter", &series);
    }
    for (name, rows) in &gauges {
        let total: i64 = rows.iter().map(|&(_, v)| v).sum();
        let mut series: Vec<(Option<&str>, String)> = rows
            .iter()
            .map(|&(s, v)| (Some(s), v.to_string()))
            .collect();
        series.push((Some("fleet"), total.to_string()));
        emit_scalar(&mut out, name, "gauge", &series);
    }
    for (name, rows) in &hists {
        let mut merged = HistogramSnapshot::default();
        for &(_, h) in rows {
            merged.merge(h);
        }
        let mut series: Vec<(Option<&str>, &HistogramSnapshot)> =
            rows.iter().map(|&(s, h)| (Some(s), h)).collect();
        series.push((Some("fleet"), &merged));
        emit_histogram(&mut out, name, &series);
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// the one escaper behind every hand-rendered JSON body in the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl ObsSnapshot {
    /// Render in the Prometheus text exposition format. Counters get a
    /// `_total` suffix; histograms expand into cumulative
    /// `_bucket{le="..."}` series (bucket upper bounds in seconds) plus
    /// `_sum` and `_count`. Spans are not exposed here — they are trace
    /// data, not time series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            emit_scalar(&mut out, name, "counter", &[(None, value.to_string())]);
        }
        for (name, value) in &self.gauges {
            emit_scalar(&mut out, name, "gauge", &[(None, value.to_string())]);
        }
        for (name, h) in &self.histograms {
            emit_histogram(&mut out, name, &[(None, h)]);
        }
        out
    }

    /// Render as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..},"spans":[..]}`
    /// (slow-op captures have their own endpoint and are not repeated
    /// here). Histogram values use the same shape as
    /// [`HistogramSnapshot::to_json`], so existing consumers of the bench
    /// report format parse unchanged.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), value);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), h.to_json());
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl SpanRecord {
    /// Render as one JSON object:
    /// `{"name":..,"id":..,"parent":..,"trace_id":..,"remote_parent":..,
    /// "start_ns":..,"duration_ns":..}`.
    pub fn to_json(&self) -> String {
        let parent = match self.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let remote = match self.remote_parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace_id\":{},\"remote_parent\":{},\
             \"start_ns\":{},\"duration_ns\":{}}}",
            json_escape(&self.name),
            self.id,
            parent,
            self.trace_id,
            remote,
            self.start_ns,
            self.duration_ns
        )
    }
}

impl SlowOpRecord {
    /// Render as one JSON object with the span tree inlined (root first),
    /// optionally tagged with the server it came from: `/debug/slow`
    /// renders `None`, the fleet-merged `/fleet/slow` carries provenance.
    pub fn to_json_tagged(&self, server: Option<&str>) -> String {
        let trace = match self.trace_id {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        let mut out = String::from("{");
        if let Some(s) = server {
            let _ = write!(out, "\"server\":\"{}\",", json_escape(s));
        }
        let _ = write!(
            out,
            "\"op\":\"{}\",\"trace_id\":{},\"duration_ns\":{},\"detail\":\"{}\",\"spans\":[",
            json_escape(&self.op),
            trace,
            self.duration_ns,
            json_escape(&self.detail)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Re-exported so exposition consumers can name the histogram shape
/// without importing the `hist` module path.
pub type HistogramJson = HistogramSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::time::Duration;

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("cluster.requests"), "plato_cluster_requests");
        assert_eq!(prom_name("WAL.append-bytes"), "plato_wal_append_bytes");
    }

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let r = Registry::new();
        r.counter("cluster.requests").add(42);
        r.gauge("storage.edges").set(17);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE plato_cluster_requests_total counter"));
        assert!(text.contains("plato_cluster_requests_total 42\n"));
        assert!(text.contains("# TYPE plato_storage_edges gauge"));
        assert!(text.contains("plato_storage_edges 17\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_ns");
        h.record(Duration::from_nanos(3)); // bucket exp 1
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1000)); // bucket exp 9
        let text = r.snapshot().to_prometheus();
        // `_ns` histograms are rendered in seconds and so take the
        // `_seconds` unit suffix.
        assert!(
            text.contains("# TYPE plato_lat_seconds histogram"),
            "{text}"
        );
        assert!(!text.contains("plato_lat_ns"), "{text}");
        // exp 1 -> le = 2^2 ns = 4e-9 s, cumulative 2.
        assert!(
            text.contains("plato_lat_seconds_bucket{le=\"0.000000004\"} 2"),
            "{text}"
        );
        // exp 9 -> le = 2^10 ns, cumulative 3.
        assert!(
            text.contains("plato_lat_seconds_bucket{le=\"0.000001024\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("plato_lat_seconds_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("plato_lat_seconds_count 3"), "{text}");
    }

    #[test]
    fn every_series_gets_a_help_line() {
        let r = Registry::new();
        r.counter("cluster.requests").inc();
        r.counter("made.up_counter").inc();
        r.gauge("storage.edges").set(1);
        r.histogram("cluster.sample_latency_ns")
            .record(Duration::from_micros(5));
        let text = r.snapshot().to_prometheus();
        // Known names get the curated text; unknown names the fallback.
        assert!(
            text.contains(
                "# HELP plato_cluster_requests_total Sample requests \
                 routed by the cluster front door"
            ),
            "{text}"
        );
        assert!(
            text.contains("# HELP plato_made_up_counter_total PlatoD2GL counter made.up_counter"),
            "{text}"
        );
        assert!(
            text.contains("# HELP plato_storage_edges Resident edges across shards"),
            "{text}"
        );
        assert!(
            text.contains(
                "# HELP plato_cluster_sample_latency_seconds End-to-end \
                 cluster sample request latency"
            ),
            "{text}"
        );
        // HELP precedes TYPE for each series.
        for series in [
            "plato_cluster_requests_total",
            "plato_cluster_sample_latency_seconds",
        ] {
            let help = text.find(&format!("# HELP {series} ")).expect(series);
            let typ = text.find(&format!("# TYPE {series} ")).expect(series);
            assert!(help < typ, "HELP must precede TYPE for {series}");
        }
    }

    #[test]
    fn fleet_exposition_labels_members_and_merges_exactly() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("cluster.requests").add(10);
        b.counter("cluster.requests").add(32);
        b.counter("only.on_b").add(1);
        a.gauge("storage.edges").set(5);
        b.gauge("storage.edges").set(7);
        a.histogram("lat_ns").record(Duration::from_nanos(3));
        b.histogram("lat_ns").record(Duration::from_nanos(3));
        b.histogram("lat_ns").record(Duration::from_nanos(1000));
        let text = fleet_prometheus(&[
            ("s1".to_string(), a.snapshot()),
            ("s2".to_string(), b.snapshot()),
        ]);
        // Per-server samples plus the summed fleet aggregate, one shared
        // HELP/TYPE block with the curated single-process text.
        assert!(
            text.contains(
                "# HELP plato_cluster_requests_total Sample requests \
                 routed by the cluster front door"
            ),
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE plato_cluster_requests_total counter")
                .count(),
            1
        );
        assert!(
            text.contains("plato_cluster_requests_total{server=\"s1\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("plato_cluster_requests_total{server=\"s2\"} 32"),
            "{text}"
        );
        assert!(
            text.contains("plato_cluster_requests_total{server=\"fleet\"} 42"),
            "{text}"
        );
        // A metric present on one member still gets a fleet aggregate.
        assert!(
            text.contains("plato_only_on_b_total{server=\"fleet\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("plato_storage_edges{server=\"fleet\"} 12"),
            "{text}"
        );
        // Histogram buckets merge by exponent: both exp-1 observations
        // land in one fleet bucket, cumulative over the exp-9 one.
        assert!(
            text.contains("plato_lat_seconds_bucket{server=\"fleet\",le=\"0.000000004\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("plato_lat_seconds_bucket{server=\"fleet\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("plato_lat_seconds_count{server=\"s1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("plato_lat_seconds_count{server=\"fleet\"} 3"),
            "{text}"
        );
        // Deterministic: same members, same bytes.
        let again = fleet_prometheus(&[
            ("s1".to_string(), a.snapshot()),
            ("s2".to_string(), b.snapshot()),
        ]);
        assert_eq!(text, again);
    }

    #[test]
    fn slow_op_record_renders_span_tree_json() {
        let r = Registry::new();
        let root_id;
        {
            let root = r.span("cluster.sample");
            root_id = root.id();
            drop(r.span("samtree.sample"));
        }
        let rec = crate::slow::SlowOpRecord {
            op: "cluster.sample".into(),
            trace_id: Some(7),
            detail: "vertex=1 shard=0".to_string(),
            duration_ns: 123,
            spans: crate::slow::span_subtree(&r.tracer().recent(), root_id),
        };
        let json = rec.to_json_tagged(None);
        assert!(json.starts_with("{\"op\":\"cluster.sample\",\"trace_id\":7,"));
        assert!(json.contains("\"detail\":\"vertex=1 shard=0\""), "{json}");
        assert!(json.contains("\"name\":\"cluster.sample\""), "{json}");
        assert!(json.contains("\"name\":\"samtree.sample\""), "{json}");
    }

    #[test]
    fn json_has_all_sections() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(2);
        r.histogram("h").record(Duration::from_nanos(5));
        drop(r.span("unit"));
        let json = r.snapshot().to_json();
        assert!(
            json.starts_with("{\"counters\":{\"c\":1,\"obs.slow_ops\":0,\"obs.spans_dropped\":0}"),
            "{json}"
        );
        assert!(json.contains("\"gauges\":{\"g\":2}"), "{json}");
        assert!(
            json.contains("\"histograms\":{\"h\":{\"count\":1"),
            "{json}"
        );
        assert!(
            json.contains("\"spans\":[{\"name\":\"unit\",\"id\":1,\"parent\":null"),
            "{json}"
        );
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let r = Registry::new();
        r.counter("weird\"name\\here").inc();
        let json = r.snapshot().to_json();
        assert!(json.contains("\"weird\\\"name\\\\here\":1"), "{json}");
    }
}
