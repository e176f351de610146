//! Temporal link prediction, end to end: a time-stamped interaction
//! stream with **time-ordered negative sampling** (negative partners are
//! drawn only from vertices already active before the event, so future
//! entities never leak into the training data), trained through the
//! `TrainingPipeline` in windowed mode so every seed samples only its own
//! past — with three proofs along the way:
//!
//! 1. **Zero future-edge leaks** — a windowed k-hop sweep over every seed
//!    is audited slot by slot against the known event times;
//! 2. **Time matters** — the same model trained with shuffled seed times
//!    (the standard temporal-GNN ablation) converges to a higher loss,
//!    because wrong windows admit the heavy off-class "future" events;
//! 3. **The wire preserves it** — the same windowed epochs over a
//!    3-server partition-routed fleet are bit-identical to the local run.
//!
//! Closes with a recency-decay sweep over the aged store, the temporal
//! plane's other half.
//!
//! `scripts/verify.sh` greps the marker lines this prints, so the example
//! doubles as the CI smoke test for the temporal plane.
//!
//! Run with: `cargo run -p platod2gl --release --example temporal_link_prediction`

use platod2gl::{
    CacheConfig, Cluster, ClusterConfig, DecayConfig, Edge, EdgeType, FleetCluster, FleetNode,
    GraphService, GraphServiceServer, HashFeatures, KHopSampler, NeighborCache, PartitionMap,
    PipelineConfig, RecencyDecay, RemoteClusterConfig, SageNet, SageNetConfig, ServerEntry,
    TimeWindow, TrainingPipeline, UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const N: u64 = 240;
const CLASSES: usize = 4;
const PARTITIONS: u32 = 64;
const EPOCHS: u64 = 4;
const FANOUTS: [usize; 2] = [4, 4];

/// The synthetic interaction dynamics: until its cutover time `t_u`,
/// vertex `u` links to partners whose feature class matches its target
/// class `u % CLASSES`; after `t_u`, heavier off-class interactions take
/// over. Predicting the class of `u`'s next partner therefore requires
/// sampling `u`'s past — and only its past.
struct EventStream {
    /// Service-level ops, sorted by event time — a true temporal stream.
    ops: Vec<UpdateOp>,
    /// `(src, dst) -> event time`, for the leak audit.
    ts_of: HashMap<(u64, u64), u64>,
    seeds: Vec<VertexId>,
    labels: Vec<usize>,
    seed_times: Vec<u64>,
    /// Candidate negatives rejected for violating time order (redrawn).
    negative_redraws: usize,
}

fn cutover(u: u64) -> u64 {
    40 + (u * 13) % 80
}

fn build_stream(provider: &HashFeatures) -> EventStream {
    let mut rng = StdRng::seed_from_u64(0xE7E27);
    let mut by_class: Vec<Vec<u64>> = vec![Vec::new(); CLASSES];
    for v in 0..N {
        by_class[provider.label(VertexId(v))].push(v);
    }

    // Phase 1, the class-assortative past: every vertex links to six
    // partners of its target class, spread over `[1, t_u]`.
    let mut events: Vec<(u64, u64, f64, u64)> = Vec::new(); // (src, dst, weight, t)
    for u in 0..N {
        let class = (u % CLASSES as u64) as usize;
        let t_u = cutover(u);
        let pool = &by_class[class];
        for i in 0..6u64 {
            let mut dst = pool[rng.random_range(0..pool.len())];
            while dst == u {
                dst = pool[rng.random_range(0..pool.len())];
            }
            events.push((u, dst, 1.0, (1 + (t_u - 1) * i / 6).max(1)));
        }
    }
    // First activity per vertex: the time-ordered negative sampler may
    // only draw partners already active strictly before the event.
    let mut first_active: HashMap<u64, u64> = HashMap::new();
    for &(src, dst, _, t) in &events {
        for v in [src, dst] {
            let e = first_active.entry(v).or_insert(t);
            *e = (*e).min(t);
        }
    }

    // Phase 2, the off-class future: heavier negative interactions, each
    // partner drawn time-ordered — a candidate must be active before `t`
    // and of a different class, or it is redrawn.
    let mut negative_redraws = 0usize;
    for u in 0..N {
        let class = (u % CLASSES as u64) as usize;
        let t_u = cutover(u);
        for i in 0..6u64 {
            let t = t_u + 1 + (200 - t_u - 1) * i / 6;
            let dst = loop {
                let cand = rng.random_range(0..N);
                let active = first_active.get(&cand).is_some_and(|&f| f < t);
                if cand != u && active && provider.label(VertexId(cand)) != class {
                    break cand;
                }
                negative_redraws += 1;
            };
            events.push((u, dst, 3.0, t));
        }
    }

    // One stream, sorted by time. A repeat interaction would restamp the
    // earlier edge, so only the first (src, dst) occurrence is kept.
    events.sort_by_key(|&(src, dst, _, t)| (t, src, dst));
    let mut ts_of = HashMap::new();
    let mut ops = Vec::new();
    for (src, dst, w, t) in events {
        if ts_of.contains_key(&(src, dst)) {
            continue;
        }
        ts_of.insert((src, dst), t);
        ops.push(UpdateOp::Insert(
            Edge::new(VertexId(src), VertexId(dst), w).at(t),
        ));
    }

    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    EventStream {
        labels: seeds
            .iter()
            .map(|v| (v.raw() % CLASSES as u64) as usize)
            .collect(),
        seed_times: seeds.iter().map(|v| cutover(v.raw())).collect(),
        seeds,
        ops,
        ts_of,
        negative_redraws,
    }
}

fn local_cluster(ops: &[UpdateOp]) -> Cluster {
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    );
    cluster.apply_updates(ops).expect("ingest");
    cluster
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig::builder()
        .etype(ET)
        .fanouts(FANOUTS.to_vec())
        .batch_size(30)
        // Sequential production keeps epochs deterministic, which both the
        // ablation comparison and the fleet parity check rely on.
        .prefetch_depth(0)
        .seed(42)
        .build()
        .expect("valid pipeline config")
}

fn fresh_net() -> SageNet {
    SageNet::new(SageNetConfig {
        num_classes: CLASSES,
        fanouts: FANOUTS.to_vec(),
        lr: 0.05,
        seed: 17,
        ..Default::default()
    })
}

/// Audit a windowed k-hop block: every non-padding slot must have been
/// reached over an edge stamped inside its seed's window. Returns
/// `(slots_checked, leaks)`.
fn audit_block(
    levels: &[Vec<VertexId>],
    windows: &[TimeWindow],
    ts_of: &HashMap<(u64, u64), u64>,
) -> (usize, usize) {
    let (mut checked, mut leaks) = (0, 0);
    let mut group = 1usize; // level-(d+1) slots per seed
    for d in 0..levels.len() - 1 {
        group *= FANOUTS[d];
        for (j, &child) in levels[d + 1].iter().enumerate() {
            let parent = levels[d][j / FANOUTS[d]];
            if child == parent {
                continue; // self-loop padding (the stream has no self-events)
            }
            checked += 1;
            if !windows[j / group].contains(ts_of[&(parent.raw(), child.raw())]) {
                leaks += 1;
            }
        }
    }
    (checked, leaks)
}

fn main() {
    let provider = HashFeatures::new(16, CLASSES, 7);
    let stream = build_stream(&provider);
    println!(
        "temporal stream: {} events over {} vertices, {} time-ordered negative redraws",
        stream.ops.len(),
        N,
        stream.negative_redraws
    );

    let local = local_cluster(&stream.ops);

    // 1. The time-respecting invariant, audited slot by slot against the
    //    known event times.
    let sampler = KHopSampler::new(ET, FANOUTS.to_vec());
    let cache = NeighborCache::new(CacheConfig::disabled());
    let windows: Vec<TimeWindow> = stream
        .seed_times
        .iter()
        .map(|&t| TimeWindow::until(t))
        .collect();
    let opt_windows: Vec<Option<TimeWindow>> = windows.iter().copied().map(Some).collect();
    let mut rng = StdRng::seed_from_u64(5);
    let out = sampler.sample_block_windowed(&local, &cache, &stream.seeds, &opt_windows, &mut rng);
    let (checked, leaks) = audit_block(&out.levels, &windows, &stream.ts_of);
    assert_eq!(leaks, 0, "windowed sampling must never cross a seed's time");
    println!("time-respecting k-hop: 0 future-edge leaks across {checked} sampled slots");

    // 2. Windowed training vs the shuffled-time ablation.
    let pipe = TrainingPipeline::new(&local, pipeline_config());
    let mut net = fresh_net();
    let mut local_reports = Vec::new();
    for epoch in 0..EPOCHS {
        let report = pipe.run_epoch_windowed(
            &mut net,
            &provider,
            &stream.seeds,
            &stream.labels,
            &stream.seed_times,
            epoch,
        );
        println!(
            "windowed epoch {epoch}: {} batches, mean loss {:.4}, accuracy {:.3}",
            report.batches, report.mean_loss, report.mean_accuracy
        );
        local_reports.push(report);
    }

    // The ablation permutes the seed times (same multiset of windows,
    // wrong assignment): a seed handed a later vertex's time samples the
    // heavy off-class "future" events. Same net init, same pipeline seed,
    // same shuffle order — only the time assignment differs.
    let mut ablated_times = stream.seed_times.clone();
    ablated_times.shuffle(&mut StdRng::seed_from_u64(99));
    let ablation_cluster = local_cluster(&stream.ops);
    let ablation_pipe = TrainingPipeline::new(&ablation_cluster, pipeline_config());
    let mut ablation_net = fresh_net();
    let mut ablation_loss = f64::INFINITY;
    for epoch in 0..EPOCHS {
        ablation_loss = ablation_pipe
            .run_epoch_windowed(
                &mut ablation_net,
                &provider,
                &stream.seeds,
                &stream.labels,
                &ablated_times,
                epoch,
            )
            .mean_loss;
    }
    let final_loss = local_reports.last().expect("trained").mean_loss;
    assert!(
        final_loss < ablation_loss,
        "time-respecting training must beat the shuffled-time ablation: \
         {final_loss:.4} vs {ablation_loss:.4}"
    );
    println!(
        "temporal training beats shuffled-time ablation: loss {final_loss:.4} < {ablation_loss:.4}"
    );

    // 3. The same windowed epochs over a 3-server partition-routed fleet.
    let client_cfg = RemoteClusterConfig::default().request_timeout(Duration::from_secs(5));
    let mut nodes = Vec::new();
    let mut servers = Vec::new();
    for id in 1..=3u64 {
        let cluster = Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        ));
        let node = Arc::new(FleetNode::new(cluster, id, client_cfg));
        let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&node)).expect("bind");
        nodes.push(node);
        servers.push(server);
    }
    let roster: Vec<ServerEntry> = nodes
        .iter()
        .zip(&servers)
        .map(|(node, server)| ServerEntry {
            id: node.server_id(),
            addr: server.local_addr().to_string(),
        })
        .collect();
    let map = PartitionMap::build(roster, PARTITIONS).expect("valid roster");
    for node in &nodes {
        node.install(map.clone());
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let fleet = FleetCluster::connect(&addrs, client_cfg).expect("connect");
    fleet.apply_updates(&stream.ops).expect("ingest");

    let fleet_pipe = TrainingPipeline::new(&fleet, pipeline_config());
    let mut fleet_net = fresh_net();
    for epoch in 0..EPOCHS {
        let report = fleet_pipe.run_epoch_windowed(
            &mut fleet_net,
            &provider,
            &stream.seeds,
            &stream.labels,
            &stream.seed_times,
            epoch,
        );
        let want = &local_reports[epoch as usize];
        assert_eq!(
            report.mean_loss.to_bits(),
            want.mean_loss.to_bits(),
            "epoch {epoch}: fleet and local windowed losses must be bit-identical"
        );
        assert_eq!(report.degraded_batches, 0);
    }
    println!("fleet windowed epochs bit-identical to local across {EPOCHS} epochs");
    for server in servers {
        server.shutdown();
    }

    // 4. Recency decay over the aged store. Training is done; time moves
    //    on. The maintenance worker sweeps each shard, shrinking every
    //    stamped edge toward the floor at `w * exp(-lambda * age)` — the
    //    old heavy "future" edges lose their grip on the samplers without
    //    a rebuild.
    let mut decay = RecencyDecay::new(
        DecayConfig {
            lambda: 0.01,
            floor: 1e-6,
            batch_sources: 32,
        },
        local.obs(),
    )
    .expect("valid policy");
    let mut decayed = 0usize;
    let mut scanned = 0usize;
    for shard in 0..local.num_shards() {
        let tick = decay.run_sweep(local.server(shard).topology(), 250);
        decayed += tick.decayed;
        scanned += tick.scanned;
    }
    assert!(decayed > 0, "aged stamped edges must decay");
    println!(
        "recency decay: {decayed} of {scanned} scanned edges decayed across {} shards",
        local.num_shards()
    );
    println!("temporal link prediction complete");
}
