//! Operate PlatoD2GL like a production service: load a user-supplied edge
//! list, checkpoint the cluster, and restore the checkpoint onto a cluster
//! with a different shard count — the re-deployment dance that static graph
//! stores need full re-partitioning pipelines for.
//!
//! Run with: `cargo run -p platod2gl --release --example checkpoint_reshard`

use platod2gl::{
    read_edge_list, write_edge_list, Cluster, ClusterConfig, DatasetProfile, EdgeType,
    GraphService, GraphStore, NeighborSampler, UpdateOp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cluster(num_shards: usize) -> Cluster {
    Cluster::new(
        ClusterConfig::builder()
            .num_shards(num_shards)
            .build()
            .expect("valid config"),
    )
}

fn main() {
    // --- 1. A user-supplied edge list (here: generated, then serialized
    //        through the text format to prove the loader path). -----------
    let profile = DatasetProfile::ogbn().scaled_to_edges(50_000);
    let edges: Vec<_> = profile.edge_stream(1).collect();
    let mut text = Vec::new();
    write_edge_list(&mut text, &edges).expect("serialize edge list");
    println!(
        "edge list: {} lines, {:.1} MB of text",
        edges.len(),
        text.len() as f64 / 1e6
    );

    // --- 2. Load it into a 2-shard cluster. ------------------------------
    let small = cluster(2);
    let parsed = read_edge_list(text.as_slice()).expect("parse edge list");
    small
        .apply_updates(
            &parsed
                .iter()
                .map(|&e| UpdateOp::Insert(e))
                .collect::<Vec<_>>(),
        )
        .expect("no shard faults");
    println!(
        "loaded into 2 shards: {} edges, shard load {:?}",
        small.num_edges(),
        small.shard_edge_counts()
    );

    // --- 3. Checkpoint. ----------------------------------------------------
    let mut snapshot = Vec::new();
    small.snapshot_to(&mut snapshot).expect("checkpoint");
    println!(
        "checkpoint: {:.1} MB binary ({:.1} bytes/edge)",
        snapshot.len() as f64 / 1e6,
        snapshot.len() as f64 / small.num_edges() as f64
    );

    // --- 4. Restore onto a 6-shard cluster (scale-out without replay). ----
    let big = cluster(6);
    let t = std::time::Instant::now();
    big.restore_from(snapshot.as_slice()).expect("restore");
    println!(
        "restored onto 6 shards in {:.2?}: {} edges, shard load {:?}",
        t.elapsed(),
        big.num_edges(),
        big.shard_edge_counts()
    );
    assert_eq!(big.num_edges(), small.num_edges());

    // --- 5. Verify a few vertices survived with identical state. ----------
    let probes = profile.sample_sources(100, 5);
    for &v in &probes {
        assert_eq!(
            small.degree(v, EdgeType(0)),
            big.degree(v, EdgeType(0)),
            "degree diverged at {v:?}"
        );
    }
    println!(
        "verified {} probe vertices identical across deployments",
        probes.len()
    );

    // --- 6. The restored cluster is live: keep updating and sampling. -----
    let mut stream = profile.update_stream(9);
    big.apply_updates(&stream.next_batch(10_000))
        .expect("no shard faults");
    let sampled = NeighborSampler::new(EdgeType(0), 25).sample(
        &big,
        &probes[..8],
        &mut StdRng::seed_from_u64(3),
    );
    println!(
        "post-restore updates + sampling OK ({} sample lists)",
        sampled.len()
    );
}
