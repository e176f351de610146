//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` is generated from these tables
//! (`perf catalog`) and a unit test keeps the two in step; README.md carries
//! the prose.

use crate::json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What it measures and which end-to-end metric, on which workload, it
    /// should move (`->`) or leave alone (`!=`).
    pub moves: &'static str,
}

/// Seconds one run measures; also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 18;
/// Seed used when none is given, and by `perf agree`.
pub const DEFAULT_SEED: u64 = 20_240_513;
/// Held out: never use this seed while tuning a change; a claimed gain must
/// also hold on it.
pub const HELD_OUT_SEED: u64 = 77_003_141;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "train_local",
        why: "The trainer's whole path in process: gnn does most of the work, gather next, sampling little, rpc nothing; dense-kernel, gather and cache work shows here and storage work does not.",
    },
    WorkloadSpec {
        name: "sample_remote",
        why: "Serving capacity as a remote trainer sees it: cache-bypassed unwindowed 2-hop sampling over TCP; codec, event loop and client stitch load rpc, storage the rest, gnn nothing. Control for workload 3.",
    },
    WorkloadSpec {
        name: "sample_temporal_hub",
        why: "Time-respecting sampling on a stamped hub graph with popularity-weighted seeds: rejection, fallback scans and timestamp lookups in storage are nearly all the work; rpc and gnn do nothing.",
    },
    WorkloadSpec {
        name: "ingest_mixed",
        why: "Writes beside reads on one thread: update batches and valid txns load samtree insert/split/merge, FSTable update and txn validation while the same index and cache are sampled.",
    },
];

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "seeds_per_s",
        unit: "seeds/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "update_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "topology_bytes_per_edge",
        unit: "B/edge",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 79] = [
    // fenwick / sampling: the index tables under every samtree draw.
    pl("fenwick.fts_draw_ns", "ns", "lower", "FsTable::sample_unit, n=256 -> seeds_per_s@sample_temporal_hub > sample_remote; != train_local"),
    pl("fenwick.fts_draw_n65536_ns", "ns", "lower", "FsTable::sample_unit, n=65536 (ROADMAP anomaly d) -> none directly"),
    pl("fenwick.update_ns", "ns", "lower", "FsTable set/push/swap_delete mix, n=256 -> update_ops_per_s@ingest_mixed"),
    pl("sampling.its_draw_ns", "ns", "lower", "CsTable::its_search, n=256 -> seeds_per_s@sample_temporal_hub, sample_remote"),
    pl("sampling.its_draw_n65536_ns", "ns", "lower", "CsTable::its_search, n=65536 -> none directly"),
    // samtree.
    pl("samtree.sample_ns_per_draw", "ns", "lower", "SamTree::sample_k on trees rebuilt for the captured request vertices -> seeds_per_s@sample_remote, sample_temporal_hub"),
    pl("samtree.sample_hub_ns_per_draw", "ns", "lower", "SamTree::sample_k on the 16 largest hubs -> seeds_per_s, batch_ms_p95@sample_temporal_hub"),
    pl("samtree.insert_ns", "ns", "lower", "SamTree::insert of new ids into captured-vertex trees -> update_ops_per_s, txn_ops_per_s@ingest_mixed"),
    pl("samtree.delete_ns", "ns", "lower", "SamTree::delete -> update_ops_per_s, txn_ops_per_s@ingest_mixed"),
    pl("samtree.update_weight_ns", "ns", "lower", "SamTree::update_weight -> update_ops_per_s, txn_ops_per_s@ingest_mixed"),
    pl("samtree.leaf_splits_per_kop", "1/kop", "lower", "exact registry count per 1k applied update ops -> update_ops_per_s@ingest_mixed"),
    pl("samtree.merges_per_kop", "1/kop", "lower", "exact registry count per 1k applied update ops -> update_ops_per_s@ingest_mixed"),
    pl("samtree.internal_ops_share", "share", "lower", "internal ops / (leaf + internal ops), paper Table V -> update_ops_per_s@ingest_mixed"),
    // storage.
    pl("storage.sample_ns_per_req", "ns", "lower", "DynamicGraphStore::sample_neighbors_windowed(None) replaying captured requests -> seeds_per_s@sample_remote, train_local, ingest_mixed"),
    pl("storage.sample_windowed_ns_per_req", "ns", "lower", "same requests under until(t) windows -> seeds_per_s, batch_ms_p95@sample_temporal_hub; != sample_remote"),
    pl("storage.window_accept_share", "share", "higher", "kept / attempted rejection draws in the windowed replay -> seeds_per_s@sample_temporal_hub"),
    pl("storage.window_fallbacks_per_req", "count", "lower", "filtered fallback slots per windowed request -> batch_ms_p95@sample_temporal_hub"),
    pl("storage.apply_batch.b256_ns_per_op", "ns", "lower", "apply_batch_parallel, 256-op batches -> update_ops_per_s@ingest_mixed"),
    pl("storage.apply_batch.b4096_ns_per_op", "ns", "lower", "apply_batch_parallel, 4096-op batches -> update_ops_per_s, write_ms_p95@ingest_mixed"),
    pl("storage.apply_batch.b16384_ns_per_op", "ns", "lower", "apply_batch_parallel, 16384-op batches (ROADMAP anomaly a) -> none directly"),
    pl("storage.wal.append_ns_per_op", "ns", "lower", "DurableGraphStore::try_apply_batch minus the in-memory apply -> none (no workload is durable yet)"),
    pl("storage.wal.bytes_per_op", "B", "lower", "WAL bytes per logged op -> none"),
    pl("storage.checkpoint_s", "s", "lower", "DurableGraphStore::checkpoint -> none"),
    pl("storage.recover_s", "s", "lower", "DurableGraphStore::open replaying the WAL -> none"),
    // server / graph.
    pl("server.sample_self_ns_per_req", "ns", "lower", "Cluster sample_one replay minus the storage replay -> seeds_per_s@sample_remote"),
    pl("server.sample_many_ns_per_req", "ns", "lower", "Cluster::sample_many over captured batches -> seeds_per_s@train_local, sample_temporal_hub, ingest_mixed"),
    pl("server.apply_updates.b256_ns_per_op", "ns", "lower", "Cluster::apply_updates, 256-op batches -> update_ops_per_s@ingest_mixed"),
    pl("server.apply_updates.b4096_ns_per_op", "ns", "lower", "Cluster::apply_updates, 4096-op batches -> update_ops_per_s, write_ms_p95@all"),
    pl("server.apply_updates.b16384_ns_per_op", "ns", "lower", "Cluster::apply_updates, 16384-op batches -> none directly"),
    pl("server.apply_txn.b256_ns_per_op", "ns", "lower", "Cluster::apply_txn, 256-op valid txns -> txn_ops_per_s@ingest_mixed"),
    pl("server.apply_txn.b4096_ns_per_op", "ns", "lower", "Cluster::apply_txn, 4096-op valid txns -> txn_ops_per_s@all"),
    pl("server.apply_txn.b16384_ns_per_op", "ns", "lower", "Cluster::apply_txn, 16384-op valid txns (BENCH_6 debt) -> none directly"),
    pl("graph.txn.validate_ns_per_op", "ns", "lower", "validate_and_lower against live topology -> txn_ops_per_s@ingest_mixed"),
    // rpc.
    pl("rpc.codec.encode_request_ns_per_req", "ns", "lower", "codec::encode_sample_batch on captured batches -> seeds_per_s, batch_ms_p50@sample_remote; != others"),
    pl("rpc.codec.decode_request_ns_per_req", "ns", "lower", "codec::decode_sample_batch -> seeds_per_s@sample_remote"),
    pl("rpc.codec.encode_reply_ns_per_req", "ns", "lower", "codec::encode_sample_reply -> seeds_per_s@sample_remote"),
    pl("rpc.codec.decode_reply_ns_per_req", "ns", "lower", "codec::decode_sample_reply -> seeds_per_s@sample_remote"),
    pl("rpc.roundtrip_ns_per_req", "ns", "lower", "client sample_many span minus server-side service time, pooled mode -> seeds_per_s, batch_ms_p50@sample_remote"),
    pl("rpc.transport_self_ns_per_req", "ns", "lower", "roundtrip minus the four codec costs: sockets, event loop, stitch -> seeds_per_s@sample_remote"),
    pl("rpc.mux_roundtrip_ns_per_req", "ns", "lower", "same under ConnectionMode::Multiplexed (evidence for deleting Pooled) -> none today"),
    pl("rpc.bytes_per_req", "B", "lower", "wire bytes (request + reply) per sample request, exact -> seeds_per_s@sample_remote"),
    pl("rpc.frames_per_block", "count", "lower", "server frames per sampled block, exact -> batch_ms_p50@sample_remote"),
    // pipeline.
    pl("pipeline.sample_block_self_ns_per_seed", "ns", "lower", "sample_block span minus service calls: dedup + cache + stitch -> seeds_per_s@train_local, ingest_mixed reads; != sample_remote"),
    pl("pipeline.cache.lookup_hit_ns", "ns", "lower", "NeighborCache::lookup on resident keys -> seeds_per_s@train_local, ingest_mixed"),
    pl("pipeline.cache.lookup_miss_ns", "ns", "lower", "NeighborCache::lookup on absent keys -> seeds_per_s@sample_temporal_hub"),
    pl("pipeline.cache.insert_ns", "ns", "lower", "NeighborCache::insert -> seeds_per_s@sample_temporal_hub, ingest_mixed"),
    pl("pipeline.cache.hit_share", "share", "higher", "cache-served / distinct expansions in the traced pass, exact; ~0 on sample_temporal_hub is a finding -> seeds_per_s@train_local"),
    pl("pipeline.cache.stale_evictions_per_batch", "count", "lower", "entries dropped past the staleness bound per mini-batch -> seeds_per_s@ingest_mixed"),
    pl("pipeline.dedup_share", "share", "higher", "frontier slots removed by dedup, exact -> seeds_per_s@all"),
    pl("pipeline.requests_per_seed", "count", "lower", "service requests issued per seed, exact -> seeds_per_s@all"),
    pl("pipeline.driver_self_share", "share", "lower", "TrainingPipeline epoch wall minus its stage histograms, over the wall -> seeds_per_s@train_local"),
    // gnn.
    pl("gnn.gather_ns_per_row", "ns", "lower", "gather_features per feature row -> seeds_per_s@train_local only"),
    pl("gnn.train_step_ms_per_batch", "ms", "lower", "SageNet::train_step_features on one 256-seed block -> seeds_per_s, batch_ms_p50@train_local only"),
    pl("gnn.train_flops_per_batch", "count", "lower", "forward + backward matmul flops computed from shapes -> none (explains train_step)"),
    pl("gnn.train_gflops", "GFLOP/s", "higher", "flops / train_step time -> seeds_per_s@train_local"),
    // obs / temporal / fleet.
    pl("obs.span_ns", "ns", "lower", "Registry::span open + close (Cluster::sample opens three) -> seeds_per_s@sample_remote"),
    pl("obs.counter_inc_ns", "ns", "lower", "Counter::inc -> seeds_per_s@sample_remote"),
    pl("obs.histogram_record_ns", "ns", "lower", "Histogram::record -> seeds_per_s@sample_remote"),
    pl("temporal.decay_edges_per_s", "edges/s", "higher", "RecencyDecay ticks over the graph: writes against the index sample_temporal_hub reads -> none today"),
    pl("fleet.map.owner_of_ns", "ns", "lower", "PartitionMap::owner_of (reserved for the sample_fleet workload) -> none today"),
    // ledger: share of the time under the trace roots (every call into the
    // system; the driver's own time between calls is harness.think_share).
    pl("ledger.gnn_share", "share", "lower", "gather + train_step spans; >= 0.5 on train_local, 0 elsewhere"),
    pl("ledger.pipeline_share", "share", "lower", "sample_block self time"),
    pl("ledger.rpc_share", "share", "lower", "client call minus server-side service time; >= 0.25 on sample_remote, 0 elsewhere"),
    pl("ledger.server_share", "share", "lower", "Cluster routing, spans, tallies, per-shard thread fan-out (reads and writes)"),
    pl("ledger.graph_share", "share", "lower", "txn phase-1 validation"),
    pl("ledger.storage_share", "share", "lower", "DynamicGraphStore self time: directory, windows, batch grouping; >= 0.5 on sample_temporal_hub"),
    pl("ledger.samtree_share", "share", "lower", "samtree descents and structural updates"),
    pl("ledger.sampling_share", "share", "lower", "CsTable ITS draws inside internal nodes"),
    pl("ledger.fenwick_share", "share", "lower", "FsTable FTS draws and leaf updates"),
    pl("ledger.write_path_share", "share", "lower", "server apply + graph txn + storage apply + samtree/fenwick updates; >= 0.5 on ingest_mixed, 0 elsewhere"),
    pl("ledger.coverage_share", "share", "higher", "time under the trace roots attributed to a layer; must stay >= 0.90"),
    pl("ledger.replay_scale", "share", "lower", "in-situ service time / isolated replay of the same requests: how much slower a layer runs in context"),
    pl("ledger.obs_disagreement_share", "share", "lower", "largest relative gap between a bench span sum and the obs histogram of the same calls; > 0.15 is warned"),
    // harness.
    pl("trace.overhead_share", "share", "lower", "median traced step time / median untraced step time - 1 over the same steps; must stay <= 0.10"),
    pl("harness.think_share", "share", "lower", "generator and check time between calls / phase wall"),
    pl("batch_ms_p99", "ms", "lower", "informational tail of batch_ms"),
    pl("batch_ms_max", "ms", "lower", "informational tail of batch_ms"),
    pl("failed_share", "share", "lower", "(degraded samples + rejected or errored writes + failed checks) / attempted; any non-zero value fails the run"),
    pl("traced_seeds_per_s", "seeds/s", "higher", "seeds_per_s of the traced pass, to compare with the untraced figure"),
];

/// The metric glossary as markdown table rows, for README.md.
pub fn glossary_markdown() -> String {
    let mut out = String::from("| metric | unit | better | bound | what it measures -> what it should move |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | see \"End-to-end metrics\" |\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | - | {} |\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    out
}

/// `BENCHMARK.json`, generated: exactly the contract's six keys.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json::quote(w.name),
            json::quote(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 << 10);
    }

    #[test]
    fn readme_glossary_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("README.md beside Cargo.toml");
        assert!(
            readme.contains(&glossary_markdown()),
            "regenerate the glossary table with `perf glossary`"
        );
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            assert!(
                readme.contains(&seed.to_string()),
                "README names seed {seed}"
            );
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `perf catalog`");
        let v = json::parse(&on_disk).expect("valid json");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
