//! The shared graph `G` every workload runs on, and the seeded generators
//! derived from `--seed`.

use crate::calib::Calibrator;
use crate::txngen::EdgeLedger;
use platod2gl::{
    Cluster, ClusterConfig, DatasetProfile, EdgeType, GraphService, GraphStore, RelationSpec,
    UpdateOp, VertexId, VertexType,
};
use std::sync::Arc;

pub const ETYPE: EdgeType = EdgeType(0);
const VTYPE: VertexType = VertexType(0);
/// Ops per `apply_updates` / `apply_txn` call, for loading and for writes.
pub const WRITE_BATCH: usize = 4096;
/// Seeds per mini-batch.
pub const BATCH_SEEDS: usize = 256;
pub const FANOUTS: [usize; 2] = [10, 10];
pub const SHARDS: usize = 2;

/// Size of `G`: one homogeneous bi-directed relation, Zipf 0.9 on both
/// endpoints.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub vertices: u64,
    /// Generated edges; the graph receives twice as many directed inserts.
    pub edges: u64,
}

impl Scale {
    /// 2.0 M directed inserts, ≈ 1.51 M distinct edges, median out-degree
    /// 11, p99 ≈ 300, largest hub ≈ 25 k neighbors (a two-level samtree at
    /// capacity 256): the paper's hub regime at a size whose set-up can be
    /// repeated three times per run inside the contract's time cap.
    pub const FULL: Scale = Scale {
        vertices: 50_000,
        edges: 1_000_000,
    };
    pub const SMOKE: Scale = Scale {
        vertices: 10_000,
        edges: 100_000,
    };
}

/// Sub-seed for one generator, so `--seed` drives every input and no two
/// generators share a stream.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The profile of `G`, or of a key space `vertex_factor` times as wide
/// (the write generators use 2 so that some ops create new sources).
pub fn profile(scale: Scale, vertex_factor: u64) -> DatasetProfile {
    DatasetProfile {
        name: "G".to_string(),
        bidirected: true,
        relations: vec![RelationSpec {
            name: "V-V".to_string(),
            etype: ETYPE,
            src_type: VTYPE,
            dst_type: VTYPE,
            num_src: scale.vertices * vertex_factor,
            num_dst: scale.vertices * vertex_factor,
            num_edges: scale.edges,
            zipf_exponent: 0.9,
        }],
    }
}

pub fn vertex(index: u64) -> VertexId {
    VertexId::compose(VTYPE, index)
}

/// A loaded graph with the bench-side mirror of its live edges.
pub struct Graph {
    pub cluster: Arc<Cluster>,
    pub ledger: EdgeLedger,
    /// Largest event time in the graph; 0 when the graph is timeless.
    pub horizon: u64,
}

/// Build `G` through `GraphService::apply_updates` in 4 096-op batches into
/// a 2-shard cluster with the default store configuration. `stamped` gives
/// insert `i` the event time `i / 2 + 1` (an edge and its reverse share
/// one); otherwise every edge is timeless, which keeps the store's
/// `num_stamped == 0` guard on the static hot path. The calibrator gets a
/// turn after every batch, so a set-up can be priced at nominal host speed.
pub fn build(scale: Scale, seed: u64, stamped: bool, calib: &mut Calibrator) -> Graph {
    let cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(SHARDS)
            .build()
            .expect("the default cluster configuration is valid"),
    ));
    let mut ledger = EdgeLedger::with_capacity(scale.edges as usize * 2);
    let mut batch: Vec<UpdateOp> = Vec::with_capacity(WRITE_BATCH);
    let mut horizon = 0;
    let flush = |batch: &mut Vec<UpdateOp>| {
        let report = cluster
            .apply_updates(batch)
            .expect("loading a healthy cluster cannot fail");
        assert_eq!(report.applied_ops, batch.len(), "load batch fully applied");
        batch.clear();
    };
    for (i, edge) in profile(scale, 1)
        .edge_stream(sub_seed(seed, "graph"))
        .enumerate()
    {
        let edge = if stamped {
            horizon = i as u64 / 2 + 1;
            edge.at(horizon)
        } else {
            edge
        };
        ledger.insert(edge.src, edge.dst);
        batch.push(UpdateOp::Insert(edge));
        if batch.len() == WRITE_BATCH {
            flush(&mut batch);
            calib.tick();
        }
    }
    if !batch.is_empty() {
        flush(&mut batch);
    }
    assert_eq!(
        cluster.num_edges(),
        ledger.len(),
        "loaded edge count equals the bench-side ledger"
    );
    Graph {
        cluster,
        ledger,
        horizon,
    }
}

/// An endless stream of popularity-weighted seed batches: the sources of
/// `DatasetProfile::sample_sources`' distribution (hubs recur), drawn from
/// one continuing generator so batches never repeat a prefix.
pub struct SeedStream {
    sources: Box<dyn Iterator<Item = VertexId>>,
}

impl SeedStream {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let profile = profile(scale, 1);
        // `sample_sources(n, s)` is the first `n` sources of this stream;
        // restarting it whenever it runs dry keeps the distribution.
        let mut round = 0u64;
        let sources = std::iter::from_fn(move || {
            round += 1;
            Some(profile.edge_stream(sub_seed(seed, "seeds").wrapping_add(round)))
        })
        .flatten()
        .map(|e| e.src);
        Self {
            sources: Box::new(sources),
        }
    }

    pub fn next_batch(&mut self) -> Vec<VertexId> {
        self.sources.by_ref().take(BATCH_SEEDS).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(sub_seed(1, "graph"), sub_seed(1, "seeds"));
        assert_ne!(sub_seed(1, "graph"), sub_seed(2, "graph"));
        assert_eq!(sub_seed(9, "x"), sub_seed(9, "x"));
    }

    #[test]
    fn build_is_deterministic_and_ledger_exact() {
        let tiny = Scale {
            vertices: 300,
            edges: 3_000,
        };
        let calib = &mut Calibrator::new();
        let a = build(tiny, 5, true, calib);
        let b = build(tiny, 5, true, calib);
        assert_eq!(a.cluster.num_edges(), b.cluster.num_edges());
        assert_eq!(a.ledger.len(), a.cluster.num_edges());
        assert_eq!(a.horizon, 3_000);
        assert_eq!(build(tiny, 5, false, calib).horizon, 0);
        assert_ne!(
            build(tiny, 6, false, calib).cluster.total_topology_bytes(),
            0,
            "another seed still builds a graph"
        );
    }

    #[test]
    fn seed_stream_yields_full_batches_deterministically() {
        let tiny = Scale {
            vertices: 50,
            edges: 100,
        };
        let mut a = SeedStream::new(tiny, 1);
        let mut b = SeedStream::new(tiny, 1);
        for _ in 0..4 {
            let batch = a.next_batch();
            assert_eq!(batch.len(), BATCH_SEEDS);
            assert_eq!(batch, b.next_batch());
        }
    }
}
