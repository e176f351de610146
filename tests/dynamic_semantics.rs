//! Dynamic-graph semantics under churn and concurrency: the properties that
//! make PlatoD2GL usable for online training.

use platod2gl::{
    Cluster, ClusterConfig, DatasetProfile, DynamicGraphStore, Edge, EdgeType, GraphService,
    GraphStore, NeighborSampler, SamTreeConfig, StoreConfig, UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A 2-shard cluster whose samtrees have node capacity `capacity`.
fn cluster(capacity: usize) -> Cluster {
    let mut store = StoreConfig::default();
    store.tree.capacity = capacity;
    Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .store(store)
            .build()
            .expect("valid config"),
    )
}

/// Heavy mixed churn against a reference map; the store must track exactly.
#[test]
fn churn_matches_reference_model() {
    let store = DynamicGraphStore::new(StoreConfig {
        tree: SamTreeConfig {
            capacity: 8,
            alpha: 1,
            compression: true,
        },
    });
    let profile = DatasetProfile::tiny();
    let mut reference: HashMap<(u64, u64), f64> = HashMap::new();
    let mut stream = profile.update_stream(71);
    for _ in 0..40_000 {
        let op = stream.next_op();
        store.apply(&op);
        match op {
            UpdateOp::Insert(e) => {
                reference.insert((e.src.raw(), e.dst.raw()), e.weight);
            }
            UpdateOp::UpdateWeight(e) => {
                if let Some(w) = reference.get_mut(&(e.src.raw(), e.dst.raw())) {
                    *w = e.weight;
                }
            }
            UpdateOp::Delete { src, dst, .. } => {
                reference.remove(&(src.raw(), dst.raw()));
            }
        }
    }
    assert_eq!(store.num_edges(), reference.len());
    store
        .check_invariants()
        .expect("samtree invariants under churn");
    for (&(src, dst), &w) in reference.iter().take(2_000) {
        let got = store
            .edge_weight(VertexId(src), VertexId(dst), EdgeType(0))
            .unwrap_or_else(|| panic!("missing edge {src}->{dst}"));
        assert!((got - w).abs() < 1e-6);
    }
}

/// Sampling freshness: every update is visible to the next sampling call.
#[test]
fn sampling_sees_every_update_immediately() {
    let store = cluster(8);
    let src = VertexId(7);
    let mut live = Vec::new();
    let mut rng_seed = 0u64;
    for round in 0..50u64 {
        // Add a vertex, delete the oldest once we have 10.
        let v = VertexId(1_000 + round);
        store.insert_edge(Edge::new(src, v, 1.0));
        live.push(v);
        if live.len() > 10 {
            let gone = live.remove(0);
            assert!(store.delete_edge(src, gone, EdgeType::DEFAULT));
        }
        rng_seed += 1;
        let samples = NeighborSampler::new(EdgeType::DEFAULT, 64).sample(
            &store,
            &[src],
            &mut StdRng::seed_from_u64(rng_seed),
        );
        for s in &samples[0] {
            assert!(live.contains(s), "round {round}: stale sample {s:?}");
        }
        // The newest vertex must be reachable (weights are uniform, 64
        // draws over <= 10 neighbors miss one with prob (9/10)^64 ~ 0.1%).
        let newest_seen = samples[0].contains(&v);
        if !newest_seen {
            // Allow the rare statistical miss but verify it is samplable.
            assert!(store.edge_weight(src, v, EdgeType::DEFAULT).is_some());
        }
    }
}

/// Concurrent mixed readers/writers across shards stay consistent.
#[test]
fn concurrent_updates_and_sampling_are_consistent() {
    let cluster = cluster(16);
    let profile = DatasetProfile::tiny();
    profile.ingest_into(&cluster, 1);
    let sources = profile.sample_sources(32, 3);
    crossbeam::scope(|s| {
        // Writers: 4 threads of batched updates.
        for t in 0..4u64 {
            let cluster = &cluster;
            let profile = &profile;
            s.spawn(move |_| {
                let mut stream = profile.update_stream(100 + t);
                for _ in 0..20 {
                    let batch = stream.next_batch(256);
                    cluster.apply_updates(&batch).expect("no shard faults");
                }
            });
        }
        // Readers: sampling must never return a vertex that was never a
        // neighbor candidate (i.e. outside the profile's dst space) and
        // never panic.
        for t in 0..4u64 {
            let cluster = &cluster;
            let sources = &sources;
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(t);
                for round in 0..200 {
                    let src = sources[(round + t as usize) % sources.len()];
                    let out = cluster.sample_neighbors(src, EdgeType(0), 20, &mut rng);
                    for v in out {
                        assert!(v.index() < 400, "impossible vertex {v:?}");
                    }
                }
            });
        }
    })
    .expect("threads join");
    for server in cluster.servers() {
        server.topology().check_invariants().expect("invariants");
    }
}

/// Weight updates adjust both the edge and all aggregate views.
#[test]
fn aggregates_track_weight_updates() {
    let store = DynamicGraphStore::with_defaults();
    let src = VertexId(1);
    for i in 0..300u64 {
        store.insert_edge(Edge::new(src, VertexId(100 + i), 1.0));
    }
    assert!((store.weight_sum(src, EdgeType::DEFAULT) - 300.0).abs() < 1e-6);
    // Double every tenth edge's weight via a batch.
    let ops: Vec<UpdateOp> = (0..30u64)
        .map(|i| UpdateOp::UpdateWeight(Edge::new(src, VertexId(100 + i * 10), 2.0)))
        .collect();
    store.apply_batch(&ops);
    assert!(
        (store.weight_sum(src, EdgeType::DEFAULT) - 330.0).abs() < 1e-4,
        "got {}",
        store.weight_sum(src, EdgeType::DEFAULT)
    );
    // Deleting them removes their mass.
    let dels: Vec<UpdateOp> = (0..30u64)
        .map(|i| UpdateOp::Delete {
            src,
            dst: VertexId(100 + i * 10),
            etype: EdgeType::DEFAULT,
        })
        .collect();
    store.apply_batch(&dels);
    assert_eq!(store.degree(src, EdgeType::DEFAULT), 270);
    assert!((store.weight_sum(src, EdgeType::DEFAULT) - 270.0).abs() < 1e-4);
    store.check_invariants().expect("invariants");
}

/// Re-inserting after deletion must behave like a fresh edge (regression
/// guard for swap-delete index bookkeeping).
#[test]
fn delete_then_reinsert_cycles() {
    let store = DynamicGraphStore::new(StoreConfig {
        tree: SamTreeConfig {
            capacity: 4,
            alpha: 0,
            compression: false,
        },
    });
    let src = VertexId(9);
    for cycle in 0..20 {
        for i in 0..50u64 {
            store.insert_edge(Edge::new(src, VertexId(i), (i + 1) as f64));
        }
        assert_eq!(store.degree(src, EdgeType::DEFAULT), 50, "cycle {cycle}");
        for i in 0..50u64 {
            assert!(store.delete_edge(src, VertexId(i), EdgeType::DEFAULT));
        }
        assert_eq!(store.degree(src, EdgeType::DEFAULT), 0, "cycle {cycle}");
    }
    store.check_invariants().expect("invariants");
}
