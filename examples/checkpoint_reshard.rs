//! Operate PlatoD2GL like a production service: load a user-supplied edge
//! list, checkpoint the cluster, and restore the checkpoint onto a cluster
//! with a different shard count — the re-deployment dance that static graph
//! stores need full re-partitioning pipelines for.
//!
//! Run with: `cargo run -p platod2gl --release --example checkpoint_reshard`

use platod2gl::{
    read_edge_list, write_edge_list, Cluster, ClusterConfig, DatasetProfile, Edge, EdgeType,
    GraphService, GraphStore, NeighborSampler, UpdateOp,
};
use platod2gl_storage::read_checkpoint;
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

/// One adjacency row: `(src, etype, dst, weight bits, ts)`.
type Row = (u64, u16, u64, u64, u64);

fn row(e: &Edge) -> Row {
    (e.src.0, e.etype.0, e.dst.0, e.weight.to_bits(), e.ts)
}

/// Every row of every shard, sorted: the same graph gives the same list
/// whatever the shard count.
fn adjacency(cluster: &Cluster) -> Vec<Row> {
    let mut rows: Vec<Row> = cluster
        .servers()
        .iter()
        .flat_map(|s| s.topology().export_adjacency())
        .flat_map(|((src, etype), rows)| {
            rows.into_iter()
                .map(move |(dst, w, ts)| (src, etype, dst, w.to_bits(), ts))
        })
        .collect();
    rows.sort_unstable();
    rows
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
        "checkpoint: {:.1} MB binary, {:.1} bytes/edge",
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

    // --- 5. Verify the whole adjacency: the checkpoint carries every row
    //        bit for bit, and the restored trees hold the same keys,
    //        neighbors and timestamps, reading weights back as Fenwick
    //        prefix-sum differences (within reconstruction ULPs). ----------
    let before = adjacency(&small);
    let mut carried = Vec::new();
    let rows = |key: Vec<Edge>| carried.extend(key.iter().map(row));
    read_checkpoint(snapshot.as_slice(), rows).expect("read checkpoint");
    carried.sort_unstable();
    assert!(carried == before, "checkpoint rows differ");
    let after = adjacency(&big);
    let same = |(a, b): (&Row, &Row)| {
        let (wa, wb) = (f64::from_bits(a.3), f64::from_bits(b.3));
        (a.0, a.1, a.2, a.4) == (b.0, b.1, b.2, b.4) && (wa - wb).abs() <= 1e-9 * wa.abs()
    };
    assert!(after.len() == before.len() && before.iter().zip(&after).all(same));
    println!(
        "verified all {} rows across deployments (checkpoint bit for bit; keys, \
         neighbors, timestamps exact; weights within 1e-9)",
        after.len()
    );

    // --- 6. The restored cluster is live: keep updating and sampling. -----
    let mut stream = profile.update_stream(9);
    big.apply_updates(&stream.next_batch(10_000))
        .expect("no shard faults");
    let probes = profile.sample_sources(100, 5);
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
