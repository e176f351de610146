//! The sampling operators of the operator layer (paper Sec. III):
//! node sampling, neighbor sampling, subgraph sampling, and the multi-hop
//! metapath sampling used by the Sec. VII-C experiments.

use platod2gl_graph::{EdgeType, GraphStore, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// Node sampling: "samples a set of nodes from a whole graph". Seeds for
/// minibatch training are drawn from a registered universe (in production
/// the labeled-vertex set).
#[derive(Clone, Debug)]
pub struct NodeSampler {
    universe: Vec<VertexId>,
}

impl NodeSampler {
    /// Build from the set of candidate seed vertices.
    pub fn new(universe: Vec<VertexId>) -> Self {
        assert!(!universe.is_empty(), "empty seed universe");
        Self { universe }
    }

    /// Size of the universe.
    pub fn len(&self) -> usize {
        self.universe.len()
    }

    /// Whether the universe is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.universe.is_empty()
    }

    /// Draw `k` seeds uniformly with replacement.
    pub fn sample<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<VertexId> {
        (0..k)
            .map(|_| self.universe[rng.random_range(0..self.universe.len())])
            .collect()
    }

    /// One shuffled epoch cut into minibatches (every vertex exactly once).
    pub fn epoch_batches(&self, batch_size: usize, seed: u64) -> Vec<Vec<VertexId>> {
        assert!(batch_size > 0);
        let mut order = self.universe.clone();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        order.chunks(batch_size).map(<[VertexId]>::to_vec).collect()
    }
}

/// Neighbor sampling: a fixed number of weighted neighbor draws per input
/// vertex (the paper's Fig. 10a-c workload: batches with 50 neighbors each).
#[derive(Clone, Copy, Debug)]
pub struct NeighborSampler {
    pub etype: EdgeType,
    pub fanout: usize,
}

impl NeighborSampler {
    /// Create a sampler for one relation.
    pub fn new(etype: EdgeType, fanout: usize) -> Self {
        Self { etype, fanout }
    }

    /// Sample per-vertex neighbor lists; vertices without out-edges get an
    /// empty list.
    pub fn sample<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        batch: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<VertexId>> {
        batch
            .iter()
            .map(|&v| store.sample_neighbors(v, self.etype, self.fanout, rng))
            .collect()
    }
}

/// A sampled k-hop subgraph pivoted at a set of seeds.
#[derive(Clone, Debug, Default)]
pub struct SampledSubgraph {
    /// `layers[0]` are the seeds; `layers[h]` the (deduplicated) frontier
    /// after hop `h`.
    pub layers: Vec<Vec<VertexId>>,
    /// Sampled edges as (source, sampled neighbor) pairs, with multiplicity.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl SampledSubgraph {
    /// Total distinct vertices across layers.
    pub fn num_vertices(&self) -> usize {
        let mut set = BTreeSet::new();
        for layer in &self.layers {
            set.extend(layer.iter().map(|v| v.raw()));
        }
        set.len()
    }
}

/// Subgraph sampling: "samples a subgraph pivoted at a given node"
/// (Sec. III), expanded hop by hop with per-hop fanouts — the 2-hop variant
/// is the paper's Fig. 10d-f workload.
#[derive(Clone, Debug)]
pub struct SubgraphSampler {
    pub etype: EdgeType,
    pub fanouts: Vec<usize>,
}

impl SubgraphSampler {
    /// Create with per-hop fanouts (length = number of hops).
    pub fn new(etype: EdgeType, fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        Self { etype, fanouts }
    }

    /// Expand from the seeds.
    pub fn sample<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        seeds: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> SampledSubgraph {
        let mut sg = SampledSubgraph {
            layers: vec![seeds.to_vec()],
            edges: Vec::new(),
        };
        let mut frontier: Vec<VertexId> = seeds.to_vec();
        for &fanout in &self.fanouts {
            let mut next = BTreeSet::new();
            for &v in &frontier {
                for u in store.sample_neighbors(v, self.etype, fanout, rng) {
                    sg.edges.push((v, u));
                    next.insert(u);
                }
            }
            frontier = next.into_iter().collect();
            sg.layers.push(frontier.clone());
        }
        sg
    }
}

/// Metapath sampling: one relation per hop (e.g. User-Live → Live-Tag),
/// the heterogeneous multi-hop pattern of Sec. VII-C.
#[derive(Clone, Debug)]
pub struct MetapathSampler {
    /// Per-hop (relation, fanout).
    pub path: Vec<(EdgeType, usize)>,
}

impl MetapathSampler {
    /// Create from a typed path.
    pub fn new(path: Vec<(EdgeType, usize)>) -> Self {
        assert!(!path.is_empty(), "empty metapath");
        Self { path }
    }

    /// Expand seeds along the metapath; returns one (deduplicated) layer per
    /// hop, seeds first.
    pub fn sample<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        seeds: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<VertexId>> {
        let mut layers = vec![seeds.to_vec()];
        let mut frontier = seeds.to_vec();
        for &(etype, fanout) in &self.path {
            let mut next = BTreeSet::new();
            for &v in &frontier {
                for u in store.sample_neighbors(v, etype, fanout, rng) {
                    next.insert(u);
                }
            }
            frontier = next.into_iter().collect();
            layers.push(frontier.clone());
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::Edge;
    use platod2gl_storage::DynamicGraphStore;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// 0 -> {1,2,3}; 1 -> {10,11}; 2 -> {20}; 3 -> {} ; 10 -> {100}
    fn chain_store() -> DynamicGraphStore {
        let s = DynamicGraphStore::with_defaults();
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 10), (1, 11), (2, 20), (10, 100)] {
            s.insert_edge(Edge::new(v(a), v(b), 1.0));
        }
        s
    }

    #[test]
    fn node_sampler_epoch_covers_universe_once() {
        let ns = NodeSampler::new((0..10).map(v).collect());
        let batches = ns.epoch_batches(3, 1);
        assert_eq!(batches.len(), 4); // 3+3+3+1
        let mut all: Vec<u64> = batches.concat().iter().map(|x| x.raw()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn node_sampler_draws_from_universe() {
        let ns = NodeSampler::new(vec![v(5), v(6)]);
        let mut rng = StdRng::seed_from_u64(2);
        for s in ns.sample(100, &mut rng) {
            assert!(s.raw() == 5 || s.raw() == 6);
        }
    }

    #[test]
    fn neighbor_sampler_respects_adjacency() {
        let store = chain_store();
        let ns = NeighborSampler::new(EdgeType(0), 4);
        let mut rng = StdRng::seed_from_u64(3);
        let out = ns.sample(&store, &[v(0), v(3)], &mut rng);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 4);
        for u in &out[0] {
            assert!([1, 2, 3].contains(&u.raw()));
        }
        assert!(out[1].is_empty(), "vertex 3 has no out-edges");
    }

    #[test]
    fn subgraph_two_hops_reaches_grandchildren() {
        let store = chain_store();
        let sampler = SubgraphSampler::new(EdgeType(0), vec![3, 3]);
        let mut rng = StdRng::seed_from_u64(5);
        let sg = sampler.sample(&store, &[v(0)], &mut rng);
        assert_eq!(sg.layers.len(), 3);
        assert_eq!(sg.layers[0], vec![v(0)]);
        // Hop-1 frontier within {1,2,3}; hop-2 within {10,11,20}.
        for u in &sg.layers[1] {
            assert!([1, 2, 3].contains(&u.raw()));
        }
        for u in &sg.layers[2] {
            assert!([10, 11, 20].contains(&u.raw()), "got {u:?}");
        }
        // Every edge must exist in the store.
        for (a, b) in &sg.edges {
            assert!(store.edge_weight(*a, *b, EdgeType(0)).is_some());
        }
        assert!(sg.num_vertices() >= 3);
    }

    #[test]
    fn metapath_follows_relation_types() {
        let s = DynamicGraphStore::with_defaults();
        // Relation 0: 1 -> 2 ; relation 1: 2 -> 3. A path [0, 1] must reach
        // 3, a path [0, 0] must dead-end.
        s.insert_edge(Edge {
            src: v(1),
            dst: v(2),
            etype: EdgeType(0),
            weight: 1.0,
            ts: 0,
        });
        s.insert_edge(Edge {
            src: v(2),
            dst: v(3),
            etype: EdgeType(1),
            weight: 1.0,
            ts: 0,
        });
        let mut rng = StdRng::seed_from_u64(6);
        let layers = MetapathSampler::new(vec![(EdgeType(0), 2), (EdgeType(1), 2)]).sample(
            &s,
            &[v(1)],
            &mut rng,
        );
        assert_eq!(layers[1], vec![v(2)]);
        assert_eq!(layers[2], vec![v(3)]);
        let layers = MetapathSampler::new(vec![(EdgeType(0), 2), (EdgeType(0), 2)]).sample(
            &s,
            &[v(1)],
            &mut rng,
        );
        assert!(layers[2].is_empty());
    }

    #[test]
    fn operators_work_against_any_engine() {
        use platod2gl_baseline::{AliGraphStore, PlatoGlStore};
        use platod2gl_graph::GraphStore;
        let engines: Vec<Box<dyn GraphStore>> = vec![
            Box::new(DynamicGraphStore::with_defaults()),
            Box::new(PlatoGlStore::with_defaults()),
            Box::new(AliGraphStore::new()),
        ];
        for engine in &engines {
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 3)] {
                engine.insert_edge(Edge::new(v(a), v(b), 1.0));
            }
            let mut rng = StdRng::seed_from_u64(7);
            let sampler = SubgraphSampler::new(EdgeType(0), vec![2, 2]);
            let sg = sampler.sample(engine.as_ref(), &[v(0)], &mut rng);
            assert_eq!(sg.layers.len(), 3, "engine {}", engine.name());
            assert!(!sg.layers[1].is_empty(), "engine {}", engine.name());
        }
    }
}
