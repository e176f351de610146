//! Integration tests for the mini-batch training pipeline: end-to-end
//! learning under concurrent updates, fault-path degradation and healing,
//! and statistical correctness of composed k-hop sampling.

use platod2gl::{
    gather_features, CacheConfig, Cluster, ClusterConfig, Edge, EdgeType, GraphService, GraphStore,
    HashFeatures, KHopSampler, NeighborCache, PipelineConfig, SageNet, SageNetConfig,
    TrainingPipeline, UpdateOp, VertexId, WindowedBatch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

const ET: EdgeType = EdgeType::DEFAULT;

/// Two-community graph: same-label vertices connect densely, cross-label
/// edges are rare. Learnable by GraphSAGE from hash features alone.
fn community_cluster(
    provider: &HashFeatures,
    n: u64,
    num_shards: usize,
) -> (Cluster, Vec<VertexId>, Vec<usize>) {
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(num_shards)
            .build()
            .expect("valid config"),
    );
    let vertices: Vec<VertexId> = (0..n).map(VertexId).collect();
    let labels: Vec<usize> = vertices.iter().map(|&v| provider.label(v)).collect();
    let by_label: Vec<Vec<VertexId>> = (0..2)
        .map(|c| {
            vertices
                .iter()
                .copied()
                .filter(|&v| provider.label(v) == c)
                .collect()
        })
        .collect();
    let mut state = 0xdead_beefu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ops = Vec::new();
    for &v in &vertices {
        let c = provider.label(v);
        for _ in 0..6 {
            let peers = &by_label[c];
            let u = peers[next() as usize % peers.len()];
            ops.push(UpdateOp::Insert(Edge::new(v, u, 1.0)));
        }
        // One rare cross-community edge in ten.
        if next() % 10 == 0 {
            let peers = &by_label[1 - c];
            let u = peers[next() as usize % peers.len()];
            ops.push(UpdateOp::Insert(Edge::new(v, u, 0.25)));
        }
    }
    cluster.apply_updates(&ops).expect("bulk load");
    (cluster, vertices, labels)
}

#[test]
fn loss_decreases_under_concurrent_updates() {
    let provider = HashFeatures::new(16, 2, 7);
    let (cluster, vertices, labels) = community_cluster(&provider, 300, 4);
    let cfg = PipelineConfig {
        etype: ET,
        fanouts: vec![4, 4],
        batch_size: 64,
        prefetch_depth: 4,
        cache: CacheConfig {
            capacity: 1 << 14,
            shards: 4,
            max_staleness: 64,
        },
        seed: 11,
    };
    let pipeline = TrainingPipeline::new(&cluster, cfg);
    let mut net = SageNet::new(SageNetConfig {
        fanouts: vec![4, 4],
        lr: 0.1,
        ..Default::default()
    });

    let stop = AtomicBool::new(false);
    let (first, last) = std::thread::scope(|scope| {
        // Writer streams label-preserving edges while training runs: the
        // pipeline must keep learning on the mutating graph.
        scope.spawn(|| {
            let mut state = 0x5eedu64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            while !stop.load(Ordering::Relaxed) {
                let mut ops = Vec::with_capacity(16);
                for _ in 0..16 {
                    let v = VertexId(next() % 300);
                    let mut u = VertexId(next() % 300);
                    // Keep the stream label-preserving so the task the
                    // model is learning does not drift mid-test.
                    for _ in 0..8 {
                        if provider.label(u) == provider.label(v) {
                            break;
                        }
                        u = VertexId(next() % 300);
                    }
                    ops.push(UpdateOp::Insert(Edge::new(v, u, 1.0)));
                }
                let _ = cluster.apply_updates(&ops);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });

        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for epoch in 0..12 {
            let report = pipeline.run_epoch(&mut net, &provider, &vertices, &labels, epoch);
            assert!(report.mean_loss.is_finite());
            if epoch == 0 {
                first = report.mean_loss;
            }
            last = report.mean_loss;
        }
        stop.store(true, Ordering::Relaxed);
        (first, last)
    });

    assert!(
        last < first * 0.7,
        "loss did not drop under concurrent updates: {first} -> {last}"
    );
    let stats = pipeline.stats();
    assert!(stats.cache.lookups() > 0);
    assert!(
        stats.cache.hit_rate() > 0.1,
        "cache never served: {:?}",
        stats.cache
    );
    // Dedup must have collapsed repeated frontier vertices.
    assert!(stats.distinct_sampled < stats.frontier_slots);
    // The JSON snapshot is well-formed enough to embed in bench output.
    let json = stats.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"sample\"") && json.contains("\"hit_rate\""));
}

#[test]
fn shard_failure_mid_epoch_degrades_then_heals() {
    let provider = HashFeatures::new(16, 2, 7);
    let (cluster, vertices, labels) = community_cluster(&provider, 240, 4);
    // Cache disabled so degradation is visible on every sample, not
    // masked by entries cached before the failure.
    let cfg = PipelineConfig {
        etype: ET,
        fanouts: vec![3, 3],
        batch_size: 48,
        prefetch_depth: 2,
        cache: CacheConfig::disabled(),
        seed: 23,
    };
    let pipeline = TrainingPipeline::new(&cluster, cfg);
    let mut net = SageNet::new(SageNetConfig {
        fanouts: vec![3, 3],
        lr: 0.05,
        ..Default::default()
    });

    let batches: Vec<WindowedBatch> = vertices
        .chunks(48)
        .zip(labels.chunks(48))
        .map(|(s, l)| (s.to_vec(), l.to_vec(), Vec::new()))
        .collect();
    let half = batches.len() / 2;

    // First half of the epoch: healthy cluster.
    let healthy = pipeline.run_batches(&mut net, &provider, batches[..half].to_vec(), 0);
    assert_eq!(healthy.batches as usize, half);
    assert_eq!(healthy.degraded_batches, 0);

    // A shard dies mid-epoch; training must complete, counting the
    // affected batches as degraded instead of failing.
    cluster.faults().fail_shard(1);
    let degraded = pipeline.run_batches(&mut net, &provider, batches[half..].to_vec(), 0);
    assert_eq!(degraded.batches as usize, batches.len() - half);
    assert!(
        degraded.degraded_batches > 0,
        "a failed shard must surface as degraded batches"
    );
    assert!(degraded.mean_loss.is_finite());

    // Heal: queued state drains and the next epoch is clean again.
    cluster.heal_shard(1);
    let healed = pipeline.run_epoch(&mut net, &provider, &vertices, &labels, 1);
    assert_eq!(healed.batches as usize, batches.len());
    assert_eq!(healed.degraded_batches, 0, "healed shard still degrading");
}

/// Upper-tail chi-square critical values at significance 0.001. A false
/// failure rate of 1e-3 per draw keeps the test stable in CI while still
/// detecting real distributional bugs.
fn chi2_crit(df: usize) -> f64 {
    match df {
        2 => 13.816,
        3 => 16.266,
        _ => panic!("no critical value tabulated for df={df}"),
    }
}

#[test]
fn two_hop_frequencies_match_composed_single_hop_marginals() {
    // Weighted two-level graph. Every mid vertex has out-edges, so no
    // self-padding pollutes the hop-2 support.
    //
    //   0 -> 1 (w 1), 2 (w 2), 3 (w 3)
    //   1 -> 10 (w 1), 11 (w 2)
    //   2 -> 10 (w 3), 12 (w 1)
    //   3 -> 11 (w 1), 12 (w 1), 13 (w 2)
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(3)
            .build()
            .expect("valid config"),
    );
    let edges = [
        (0u64, 1u64, 1.0f64),
        (0, 2, 2.0),
        (0, 3, 3.0),
        (1, 10, 1.0),
        (1, 11, 2.0),
        (2, 10, 3.0),
        (2, 12, 1.0),
        (3, 11, 1.0),
        (3, 12, 1.0),
        (3, 13, 2.0),
    ];
    for &(s, d, w) in &edges {
        cluster.insert_edge(Edge::new(VertexId(s), VertexId(d), w));
    }
    // Single-hop marginals straight from the edge weights.
    let p1 = [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0]; // mids 1, 2, 3
    let cond: [&[(u64, f64)]; 3] = [
        &[(10, 1.0 / 3.0), (11, 2.0 / 3.0)],
        &[(10, 3.0 / 4.0), (12, 1.0 / 4.0)],
        &[(11, 1.0 / 4.0), (12, 1.0 / 4.0), (13, 2.0 / 4.0)],
    ];
    // Composed two-hop marginal: P2(x) = sum_m P1(m) * P(x | m).
    let mut p2: HashMap<u64, f64> = HashMap::new();
    for (m, &pm) in p1.iter().enumerate() {
        for &(x, px) in cond[m] {
            *p2.entry(x).or_insert(0.0) += pm * px;
        }
    }

    // Sample N independent 2-hop chains with fanout [1, 1]. The cache
    // must be off: cached draws would freeze the chain and destroy
    // independence across blocks.
    let sampler = KHopSampler::new(ET, vec![1, 1]);
    let cache = NeighborCache::new(CacheConfig::disabled());
    let mut rng = StdRng::seed_from_u64(42);
    let n = 30_000u64;
    let mut hop1: HashMap<u64, u64> = HashMap::new();
    let mut hop2: HashMap<u64, u64> = HashMap::new();
    for _ in 0..n {
        let out = sampler.sample_block(&cluster, &cache, &[VertexId(0)], &mut rng);
        assert_eq!(out.degraded_samples, 0);
        *hop1.entry(out.levels[1][0].raw()).or_insert(0) += 1;
        *hop2.entry(out.levels[2][0].raw()).or_insert(0) += 1;
    }

    // Hop 1 must match the FTS marginal (df = 3 - 1).
    let mut chi1 = 0.0;
    for (m, &pm) in p1.iter().enumerate() {
        let observed = *hop1.get(&(m as u64 + 1)).unwrap_or(&0) as f64;
        let expected = pm * n as f64;
        chi1 += (observed - expected).powi(2) / expected;
    }
    assert!(hop1.len() == 3, "unexpected hop-1 support: {hop1:?}");
    assert!(chi1 < chi2_crit(2), "hop-1 chi2 {chi1} (counts {hop1:?})");

    // Hop 2 must match the composition (support {10..13}, df = 4 - 1).
    let mut chi2 = 0.0;
    for (&x, &px) in &p2 {
        let observed = *hop2.get(&x).unwrap_or(&0) as f64;
        let expected = px * n as f64;
        chi2 += (observed - expected).powi(2) / expected;
    }
    assert!(hop2.len() == 4, "unexpected hop-2 support: {hop2:?}");
    assert!(chi2 < chi2_crit(3), "hop-2 chi2 {chi2} (counts {hop2:?})");
}

#[test]
fn prefetch_and_sync_paths_train_equivalently() {
    // Same data, same model init: the sync path and the prefetch path
    // must both learn — block order differs but the math is the same.
    let provider = HashFeatures::new(16, 2, 7);
    let (cluster, vertices, labels) = community_cluster(&provider, 200, 3);
    for depth in [0usize, 3] {
        let cfg = PipelineConfig {
            etype: ET,
            fanouts: vec![4, 4],
            batch_size: 50,
            prefetch_depth: depth,
            cache: CacheConfig::default(),
            seed: 31,
        };
        let pipeline = TrainingPipeline::new(&cluster, cfg);
        let mut net = SageNet::new(SageNetConfig {
            fanouts: vec![4, 4],
            lr: 0.1,
            ..Default::default()
        });
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for epoch in 0..10 {
            let r = pipeline.run_epoch(&mut net, &provider, &vertices, &labels, epoch);
            assert_eq!(r.batches, 4);
            if epoch == 0 {
                first = r.mean_loss;
            }
            last = r.mean_loss;
        }
        assert!(
            last < first * 0.7,
            "depth={depth}: loss did not drop ({first} -> {last})"
        );
    }
}

/// A synchronous, cache-less pipeline over `fanouts`: every step samples
/// its block fresh.
fn sync_pipeline(
    cluster: &Cluster,
    fanouts: Vec<usize>,
    batch_size: usize,
) -> TrainingPipeline<'_> {
    let cfg = PipelineConfig::builder()
        .fanouts(fanouts)
        .batch_size(batch_size)
        .prefetch_depth(0)
        .cache(CacheConfig::disabled())
        .build()
        .expect("valid config");
    TrainingPipeline::new(cluster, cfg)
}

#[test]
fn training_reduces_loss_and_learns() {
    let provider = HashFeatures::new(16, 2, 7);
    let (cluster, vertices, labels) = community_cluster(&provider, 300, 2);
    let pipeline = sync_pipeline(&cluster, vec![4, 4], 64);
    let mut net = SageNet::new(SageNetConfig {
        fanouts: vec![4, 4],
        lr: 0.1,
        ..Default::default()
    });
    let reports: Vec<_> = (0..15)
        .map(|epoch| pipeline.run_epoch(&mut net, &provider, &vertices, &labels, epoch))
        .collect();
    let (first, last) = (&reports[0], &reports[14]);
    assert!(
        last.mean_loss < first.mean_loss * 0.6,
        "loss did not drop: {} -> {}",
        first.mean_loss,
        last.mean_loss
    );
    assert!(
        last.mean_accuracy > 0.8,
        "final accuracy {}",
        last.mean_accuracy
    );
}

#[test]
fn predictions_match_trained_labels() {
    let provider = HashFeatures::new(16, 2, 3);
    let (cluster, vertices, labels) = community_cluster(&provider, 200, 2);
    let pipeline = sync_pipeline(&cluster, vec![3], 64);
    let mut net = SageNet::new(SageNetConfig {
        fanouts: vec![3],
        lr: 0.1,
        hidden_dim: 16,
        ..Default::default()
    });
    for epoch in 0..30 {
        pipeline.run_epoch(&mut net, &provider, &vertices, &labels, epoch);
    }
    // One block over every vertex, sampled as the pipeline samples.
    let cache = NeighborCache::new(CacheConfig::disabled());
    let mut rng = StdRng::seed_from_u64(2);
    let block = KHopSampler::new(ET, vec![3]).sample_block(&cluster, &cache, &vertices, &mut rng);
    let gather = |nodes: &Vec<VertexId>| gather_features(&provider, nodes, 16);
    let feats: Vec<_> = block.nodes.iter().map(gather).collect();
    let preds = net.predict(&feats, &block.child);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    let accuracy = correct as f64 / labels.len() as f64;
    assert!(accuracy > 0.85, "accuracy {accuracy}");
}

#[test]
fn isolated_seeds_train_without_panicking() {
    let provider = HashFeatures::new(8, 2, 5);
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ); // no edges at all
    let pipeline = sync_pipeline(&cluster, vec![3, 3], 10);
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: 8,
        hidden_dim: 8,
        fanouts: vec![3, 3],
        ..Default::default()
    });
    let seeds: Vec<VertexId> = (0..10).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|v| provider.label(*v)).collect();
    let report = pipeline.run_epoch(&mut net, &provider, &seeds, &labels, 0);
    assert_eq!(report.batches, 1);
    assert!(report.mean_loss.is_finite());
}
