//! Quickstart: boot a PlatoD2GL cluster, build a small dynamic graph, sample
//! neighbors while the graph changes, and inspect memory/operation stats.
//!
//! Run with: `cargo run -p platod2gl --release --example quickstart`

use platod2gl::{
    human_bytes, Cluster, ClusterConfig, Edge, EdgeType, GraphStore, NeighborSampler,
    SubgraphSampler, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A cluster of 2 simulated graph servers with the paper's default
    // samtree parameters (capacity 256, alpha 0, CP-ID compression on).
    let store = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    );
    let sample = |k, seed| {
        NeighborSampler::new(EdgeType::DEFAULT, k).sample(
            &store,
            &[VertexId(1)],
            &mut StdRng::seed_from_u64(seed),
        )
    };

    // --- Build the paper's Fig. 3 example graph ------------------------
    let edges = [
        (1u64, 2u64, 0.1),
        (1, 3, 0.4),
        (1, 5, 0.2),
        (3, 4, 0.6),
        (3, 7, 0.7),
    ];
    for (src, dst, w) in edges {
        store.insert_edge(Edge::new(VertexId(src), VertexId(dst), w));
    }
    println!("built graph with {} edges", store.num_edges());
    println!(
        "out-degree of v1 = {}, weight sum = {:.1}",
        store.degree(VertexId(1), EdgeType::DEFAULT),
        store.weight_sum(VertexId(1), EdgeType::DEFAULT),
    );

    // --- Weighted neighbor sampling ------------------------------------
    // v1's neighbors are {2: 0.1, 3: 0.4, 5: 0.2}; neighbor 3 should be
    // drawn roughly 4x more often than neighbor 2.
    let samples = sample(10_000, 42);
    let mut counts = std::collections::BTreeMap::new();
    for v in &samples[0] {
        *counts.entry(v.raw()).or_insert(0usize) += 1;
    }
    println!("10k weighted samples from v1: {counts:?}");

    // --- The graph is dynamic ------------------------------------------
    // Crank up the weight of edge (1 -> 2); sampling reflects it instantly,
    // in O(log n) maintenance time instead of PlatoGL's O(n).
    store.update_weight(Edge::new(VertexId(1), VertexId(2), 10.0));
    let samples = sample(10_000, 43);
    let heavy = samples[0].iter().filter(|v| v.raw() == 2).count();
    println!("after boosting w(1->2) to 10.0: neighbor 2 drawn {heavy}/10000 times");

    // Delete an edge; it can never be sampled again.
    store.delete_edge(VertexId(1), VertexId(5), EdgeType::DEFAULT);
    let samples = sample(1_000, 44);
    assert!(samples[0].iter().all(|v| v.raw() != 5));
    println!("after deleting (1 -> 5): neighbor 5 never sampled again");

    // --- 2-hop subgraph sampling ----------------------------------------
    let sg = SubgraphSampler::new(EdgeType::DEFAULT, vec![3, 3]).sample(
        &store,
        &[VertexId(1)],
        &mut StdRng::seed_from_u64(45),
    );
    println!(
        "2-hop subgraph from v1: layers {:?}, {} sampled edges",
        sg.layers
            .iter()
            .map(|l| l.iter().map(|v| v.raw()).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
        sg.edges.len()
    );

    // --- Introspection ---------------------------------------------------
    let mem = store.memory_breakdown();
    let snap = store.obs().snapshot();
    let leaf_ops = snap.counter("samtree.leaf_ops").unwrap_or(0) as f64;
    let internal_ops = snap.counter("samtree.internal_ops").unwrap_or(0) as f64;
    println!(
        "topology memory: {} across {} shards; {:.2}% of update ops hit samtree leaves",
        human_bytes(mem.samtree_bytes),
        mem.per_shard.len(),
        leaf_ops / (leaf_ops + internal_ops).max(1.0) * 100.0
    );
}
