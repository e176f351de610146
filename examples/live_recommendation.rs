//! Live-streaming recommendation: the paper's motivating WeChat scenario.
//!
//! A heterogeneous User/Live/Tag graph evolves in real time as users click
//! into live rooms. The recommender must (a) absorb update batches fast and
//! (b) answer metapath sampling queries (User-Live -> Live-Tag) with fresh
//! topology, because "if a GNN-based recommendation model cannot capture the
//! instant user interest, the user might not be interested in the
//! recommended items" (paper Sec. I).
//!
//! Run with: `cargo run -p platod2gl --release --example live_recommendation`

use platod2gl::{
    Cluster, ClusterConfig, DatasetProfile, EdgeType, GraphService, GraphStore, MetapathSampler,
    NeighborSampler, UpdateOp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // WeChat profile (Table III shape: User-Live, User-Attr, Live-Live,
    // Live-Tag) scaled to ~400k edges for a laptop run.
    let profile = DatasetProfile::wechat().scaled_to_edges(400_000);
    println!("dataset: {} relations", profile.relations.len());
    for r in &profile.relations {
        println!(
            "  {:<10} {:>9} src x {:>9} dst, {:>9} edges (density {:.2})",
            r.name,
            r.num_src,
            r.num_dst,
            r.num_edges,
            r.density()
        );
    }

    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(4)
            .build()
            .expect("valid config"),
    );

    // --- Initial bulk build ---------------------------------------------
    let t = Instant::now();
    profile.ingest_into(&cluster, 1);
    let elapsed = t.elapsed();
    println!(
        "\nbuilt {} edges in {:.2?} ({:.0} edges/s)",
        cluster.num_edges(),
        elapsed,
        cluster.num_edges() as f64 / elapsed.as_secs_f64()
    );

    // --- Live update stream ----------------------------------------------
    // Users keep clicking: apply 20 batches of 4096 mixed updates and watch
    // per-batch latency (the paper's Fig. 9 regime).
    let mut stream = profile.update_stream(7);
    let mut latencies = Vec::new();
    for _ in 0..20 {
        let batch: Vec<UpdateOp> = stream.next_batch(4096);
        let t = Instant::now();
        cluster.apply_updates(&batch).expect("no shard faults");
        latencies.push(t.elapsed());
    }
    latencies.sort();
    println!(
        "update batches of 4096: median {:.2?}, p95 {:.2?}",
        latencies[latencies.len() / 2],
        latencies[latencies.len() * 19 / 20]
    );

    // --- Recommendation queries ------------------------------------------
    // Metapath User -[User-Live]-> Live -[Live-Tag]-> Tag: which tags is
    // this user's neighborhood about right now?
    let users = profile.sample_sources(8, 99);
    let metapath = MetapathSampler::new(vec![(EdgeType(0), 10), (EdgeType(3), 5)]);
    let mut rng = StdRng::seed_from_u64(5);
    let t = Instant::now();
    let mut total_tags = 0usize;
    for &user in &users {
        let layers = metapath.sample(&cluster, &[user], &mut rng);
        total_tags += layers[2].len();
    }
    println!(
        "metapath (User-Live -> Live-Tag) for {} users: {} tags reached in {:.2?}",
        users.len(),
        total_tags,
        t.elapsed()
    );

    // --- Fresh-interest check ---------------------------------------------
    // A user clicks into a brand-new live room; the next recommendation
    // query must already see it.
    let user = users[0];
    let new_live = platod2gl::VertexId::compose(platod2gl::VertexType(1), 999_999);
    cluster
        .apply_updates(&[UpdateOp::Insert(platod2gl::Edge {
            src: user,
            dst: new_live,
            etype: EdgeType(0),
            weight: 50.0, // a strong, fresh interest signal
            ts: 0,
        })])
        .expect("no shard faults");
    let samples = NeighborSampler::new(EdgeType(0), 200).sample(
        &cluster,
        &[user],
        &mut StdRng::seed_from_u64(11),
    );
    let hits = samples[0].iter().filter(|v| **v == new_live).count();
    println!("after one live click with weight 50: new room appears in {hits}/200 samples");
    assert!(hits > 0, "fresh interest must be sampled immediately");

    let mem = cluster.memory_breakdown();
    println!(
        "\ntopology memory {} | shard edges {:?}",
        platod2gl::human_bytes(mem.samtree_bytes),
        cluster.shard_edge_counts()
    );
}
