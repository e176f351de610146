//! Cross-engine equivalence: PlatoD2GL, PlatoGL and AliGraph must reach the
//! same final graph state from the same operation stream — the engines
//! differ in cost, never in semantics.

use platod2gl::{
    AliGraphStore, DatasetProfile, DynamicGraphStore, EdgeType, GraphStore, PlatoGlStore,
    SamTreeConfig, StoreConfig, UpdateOp, WeightedIndex,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn engines() -> Vec<Box<dyn GraphStore>> {
    vec![
        Box::new(DynamicGraphStore::new(StoreConfig {
            tree: SamTreeConfig {
                capacity: 16,
                alpha: 2,
                compression: true,
            },
        })),
        Box::new(PlatoGlStore::with_defaults()),
        Box::new(AliGraphStore::new()),
    ]
}

fn fingerprint(
    store: &dyn GraphStore,
    sources: &[platod2gl::VertexId],
) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut out = BTreeMap::new();
    for &src in sources {
        for et in 0..4u16 {
            let mut n: Vec<(u64, u64)> = store
                .neighbors(src, EdgeType(et))
                .into_iter()
                .map(|(v, w)| (v.raw(), (w * 1e6).round() as u64))
                .collect();
            n.sort_unstable();
            if !n.is_empty() {
                out.insert(src.raw() ^ ((et as u64) << 56), n);
            }
        }
    }
    out
}

#[test]
fn same_stream_same_final_state() {
    let profile = DatasetProfile::wechat().scaled_to_edges(8_000);
    let ops: Vec<UpdateOp> = profile.update_stream(31).next_batch(30_000);
    let sources: Vec<platod2gl::VertexId> = profile.sample_sources(128, 17);

    let stores = engines();
    for store in &stores {
        store.apply_batch(&ops);
    }
    let reference = fingerprint(stores[0].as_ref(), &sources);
    assert!(!reference.is_empty(), "fingerprint must cover real data");
    for store in &stores[1..] {
        let got = fingerprint(store.as_ref(), &sources);
        assert_eq!(
            got,
            reference,
            "{} diverged from {}",
            store.name(),
            stores[0].name()
        );
    }
    let edges0 = stores[0].num_edges();
    for store in &stores[1..] {
        assert_eq!(store.num_edges(), edges0, "{} edge count", store.name());
    }
}

#[test]
fn all_engines_sample_the_same_distribution() {
    // Identical weighted adjacency => statistically identical sampling.
    let stores = engines();
    let src = platod2gl::VertexId(42);
    let weights = [1.0f64, 2.0, 4.0, 8.0];
    for store in &stores {
        for (i, &w) in weights.iter().enumerate() {
            store.insert_edge(platod2gl::Edge::new(
                src,
                platod2gl::VertexId(100 + i as u64),
                w,
            ));
        }
    }
    let total: f64 = weights.iter().sum();
    for store in &stores {
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 30_000;
        let sampled = store.sample_neighbors(src, EdgeType::DEFAULT, draws, &mut rng);
        let mut counts = [0usize; 4];
        for v in sampled {
            counts[(v.raw() - 100) as usize] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / total;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() < expected * 0.15,
                "{}: neighbor {i} got {got}, expected {expected}",
                store.name()
            );
        }
    }
}

#[test]
fn index_structures_agree_on_the_sampling_map() {
    // The three index structures (FSTable/FTS, CSTable/ITS, alias) define
    // the same residual-mass -> index mapping up to alias's slot remapping,
    // so identical masses must produce identically distributed indexes.
    use platod2gl::{AliasTable, CsTable, FsTable};
    let weights: Vec<f64> = (1..=257).map(|x| (x % 17) as f64 + 0.5).collect();
    let fs = FsTable::from_weights(&weights);
    let cs = CsTable::from_weights(&weights);
    let alias = AliasTable::from_weights(&weights);
    let total = cs.total();
    // FTS and ITS agree pointwise.
    for k in 0..2_000 {
        let r = total * (k as f64 + 0.5) / 2_000.0;
        assert_eq!(fs.sample_with(r), cs.its_search(r), "r={r}");
    }
    // Alias agrees in distribution.
    let mut rng = StdRng::seed_from_u64(1);
    let mut fs_counts = vec![0u32; weights.len()];
    let mut alias_counts = vec![0u32; weights.len()];
    for _ in 0..200_000 {
        fs_counts[fs.sample(&mut rng).expect("non-empty")] += 1;
        alias_counts[alias.sample(&mut rng).expect("non-empty")] += 1;
    }
    for i in 0..weights.len() {
        let expected = 200_000.0 * weights[i] / total;
        assert!(
            (fs_counts[i] as f64 - expected).abs() < expected * 0.3 + 20.0,
            "fs idx {i}"
        );
        assert!(
            (alias_counts[i] as f64 - expected).abs() < expected * 0.3 + 20.0,
            "alias idx {i}"
        );
    }
}
