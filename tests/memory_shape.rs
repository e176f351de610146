//! Memory-cost shape checks mirroring the paper's Table IV: after building
//! the same graph,
//!
//!   PlatoD2GL < PlatoD2GL w/o CP < PlatoGL,  and AliGraph is the largest
//!   per-edge payload store (alias duplication).
//!
//! Absolute bytes differ from the paper's TB-scale numbers; the *ordering*
//! and the direction of every gap is what the design guarantees.

use platod2gl::{
    AliGraphStore, DatasetProfile, DynamicGraphStore, GraphStore, PlatoGlStore, SamTreeConfig,
    StoreConfig,
};

fn build(store: &dyn GraphStore, profile: &DatasetProfile) {
    for e in profile.edge_stream(1) {
        store.insert_edge(e);
    }
}

fn d2gl(compression: bool) -> DynamicGraphStore {
    DynamicGraphStore::new(StoreConfig {
        tree: SamTreeConfig {
            capacity: 256,
            alpha: 0,
            compression,
        },
    })
}

#[test]
fn table4_ordering_holds_on_ogbn_like_data() {
    // The scale is calibrated to the vendored StdRng stream (see
    // vendor/README.md): the w/o-CP-vs-PlatoGL gap is only a few percent at
    // test scale, so the edge count matters for the ordering assertion.
    let profile = DatasetProfile::ogbn().scaled_to_edges(200_000);
    let with_cp = d2gl(true);
    let without_cp = d2gl(false);
    let platogl = PlatoGlStore::with_defaults();
    let aligraph = AliGraphStore::new();
    for store in [
        &with_cp as &dyn GraphStore,
        &without_cp,
        &platogl,
        &aligraph,
    ] {
        build(store, &profile);
    }
    let (a, b, c, d) = (
        with_cp.topology_bytes(),
        without_cp.topology_bytes(),
        platogl.topology_bytes(),
        aligraph.topology_bytes(),
    );
    println!("PlatoD2GL {a}, w/o CP {b}, PlatoGL {c}, AliGraph {d}");
    assert!(a < b, "compression must reduce memory: {a} !< {b}");
    assert!(b < c, "samtree must beat block-KV even w/o CP: {b} !< {c}");
    assert!(
        d > b,
        "alias duplication must exceed the uncompressed samtree: {d} !> {b}"
    );
    // Paper claims up to ~79.8% reduction vs the second-best; at our scale
    // demand at least a 30% gap vs PlatoGL.
    assert!(
        (a as f64) < c as f64 * 0.7,
        "expected >=30% savings vs PlatoGL: {a} vs {c}"
    );
}

#[test]
fn compression_gap_grows_with_clustered_ids() {
    // Table IV ablation: w/o CP is 18-48.6% worse. Vertex IDs composed from
    // (type, index) share long prefixes, so CP-ID bites hard.
    let profile = DatasetProfile::wechat().scaled_to_edges(60_000);
    let with_cp = d2gl(true);
    let without_cp = d2gl(false);
    build(&with_cp, &profile);
    build(&without_cp, &profile);
    let saved = 1.0 - with_cp.topology_bytes() as f64 / without_cp.topology_bytes() as f64;
    println!("CP saves {:.1}%", saved * 100.0);
    assert!(
        saved > 0.15,
        "CP-ID should save >15% on type-clustered IDs, saved {:.1}%",
        saved * 100.0
    );
    assert_eq!(with_cp.num_edges(), without_cp.num_edges());
}

#[test]
fn per_edge_footprint_is_sane() {
    // Payload floor: 8B id + 8B weight = 16B/edge. The samtree store must
    // stay within a small constant of it (no per-edge key-value blowup).
    let profile = DatasetProfile::reddit().scaled_to_edges(100_000);
    let store = d2gl(true);
    build(&store, &profile);
    let per_edge = store.topology_bytes() as f64 / store.num_edges() as f64;
    println!("bytes/edge = {per_edge:.1}");
    assert!(per_edge < 64.0, "per-edge footprint blew up: {per_edge}");
    assert!(per_edge >= 9.0, "accounting must at least cover weights");
}
