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

    /// Sample up to `fanout` *distinct* neighbors per vertex (without
    /// replacement), by drawing with replacement and deduplicating until the
    /// target is met or the draws stop producing new vertices. Vertices with
    /// degree below the fanout return their whole (sampled-order)
    /// neighborhood.
    pub fn sample_unique<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        batch: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<VertexId>> {
        batch
            .iter()
            .map(|&v| {
                let degree = store.degree(v, self.etype);
                let target = self.fanout.min(degree);
                let mut seen = BTreeSet::new();
                let mut out = Vec::with_capacity(target);
                let mut budget = 8 * self.fanout.max(1);
                while out.len() < target && budget > 0 {
                    let draws = store.sample_neighbors(v, self.etype, target - out.len(), rng);
                    if draws.is_empty() {
                        break;
                    }
                    budget = budget.saturating_sub(draws.len());
                    for u in draws {
                        if seen.insert(u.raw()) {
                            out.push(u);
                        }
                    }
                }
                // Heavy weight skew can exhaust the rejection budget (one
                // hub neighbor soaks up every draw); top up exactly from
                // the neighbor list so callers always get `target` items.
                if out.len() < target {
                    for (u, _) in store.neighbors(v, self.etype) {
                        if out.len() == target {
                            break;
                        }
                        if seen.insert(u.raw()) {
                            out.push(u);
                        }
                    }
                }
                out
            })
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

/// Weighted random walks (the sampling primitive of DeepWalk-style
/// embedding trainers and of the KnightKing engine the paper builds ITS
/// upon \[34\]): from each seed, repeatedly draw one weighted neighbor, with
/// an optional restart probability.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalkSampler {
    pub etype: EdgeType,
    /// Steps per walk (walk length excluding the seed).
    pub length: usize,
    /// Probability of teleporting back to the seed before each step
    /// (0.0 = plain walk; >0 = rooted PPR-style walk).
    pub restart: f64,
}

impl RandomWalkSampler {
    /// A plain fixed-length walk sampler.
    pub fn new(etype: EdgeType, length: usize) -> Self {
        Self {
            etype,
            length,
            restart: 0.0,
        }
    }

    /// Enable restarts with the given probability.
    pub fn with_restart(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.restart = p;
        self
    }

    /// Walk from each seed; each returned walk starts with its seed and
    /// stops early at vertices with no out-edges in the relation.
    pub fn sample<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        seeds: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<VertexId>> {
        seeds
            .iter()
            .map(|&seed| {
                let mut walk = Vec::with_capacity(self.length + 1);
                walk.push(seed);
                let mut cur = seed;
                for _ in 0..self.length {
                    if self.restart > 0.0 {
                        let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        if draw < self.restart {
                            cur = seed;
                            walk.push(cur);
                            continue;
                        }
                    }
                    let next = store.sample_neighbors(cur, self.etype, 1, rng);
                    match next.first() {
                        Some(&v) => {
                            cur = v;
                            walk.push(cur);
                        }
                        // Dead end: a plain walk stops; a restarting walk
                        // teleports home (PPR semantics).
                        None if self.restart > 0.0 => {
                            cur = seed;
                            walk.push(cur);
                        }
                        None => break,
                    }
                }
                walk
            })
            .collect()
    }
}

/// node2vec second-order biased walks: after stepping `prev -> cur`, the
/// next neighbor `x` is reweighted by 1/p if `x == prev` (return), 1 if
/// `x` is also a neighbor of `prev` (triangle), and 1/q otherwise
/// (exploration). Implemented by rejection sampling over the store's
/// first-order weighted draws — the scalable scheme KnightKing \[34\]
/// introduced, needing no per-vertex alias blowup.
#[derive(Clone, Copy, Debug)]
pub struct Node2VecWalker {
    pub etype: EdgeType,
    /// Walk length (steps beyond the seed).
    pub length: usize,
    /// Return parameter `p` (large p discourages immediate backtracking).
    pub p: f64,
    /// In-out parameter `q` (large q keeps walks local / BFS-like).
    pub q: f64,
}

impl Node2VecWalker {
    /// Create a walker; `p = q = 1` degenerates to a first-order walk.
    pub fn new(etype: EdgeType, length: usize, p: f64, q: f64) -> Self {
        assert!(p > 0.0 && q > 0.0);
        Self {
            etype,
            length,
            p,
            q,
        }
    }

    /// Walk from each seed (each walk starts with its seed; dead ends stop
    /// the walk early).
    pub fn sample<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        seeds: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<VertexId>> {
        let max_bias = (1.0 / self.p).max(1.0).max(1.0 / self.q);
        seeds
            .iter()
            .map(|&seed| {
                let mut walk = Vec::with_capacity(self.length + 1);
                walk.push(seed);
                let mut prev: Option<VertexId> = None;
                let mut cur = seed;
                'steps: for _ in 0..self.length {
                    // Rejection loop: draw first-order, accept with
                    // probability bias/max_bias.
                    for _ in 0..32 {
                        let Some(&cand) = store.sample_neighbors(cur, self.etype, 1, rng).first()
                        else {
                            break 'steps; // dead end
                        };
                        let bias = match prev {
                            None => 1.0, // first hop is unbiased
                            Some(p_v) if cand == p_v => 1.0 / self.p,
                            Some(p_v) if store.edge_weight(p_v, cand, self.etype).is_some() => 1.0,
                            _ => 1.0 / self.q,
                        };
                        let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        if draw < bias / max_bias {
                            prev = Some(cur);
                            cur = cand;
                            walk.push(cur);
                            continue 'steps;
                        }
                    }
                    // All rejected (extreme p/q on an awkward vertex):
                    // take an unbiased step rather than stalling.
                    let Some(&cand) = store.sample_neighbors(cur, self.etype, 1, rng).first()
                    else {
                        break;
                    };
                    prev = Some(cur);
                    cur = cand;
                    walk.push(cur);
                }
                walk
            })
            .collect()
    }
}

/// Negative sampling for link-prediction training: draw vertices from a
/// candidate universe that are *not* out-neighbors of the source.
#[derive(Clone, Debug)]
pub struct NegativeSampler {
    pub etype: EdgeType,
    candidates: Vec<VertexId>,
}

impl NegativeSampler {
    /// Build over the candidate vertex universe (e.g. all items).
    pub fn new(etype: EdgeType, candidates: Vec<VertexId>) -> Self {
        assert!(!candidates.is_empty(), "empty candidate universe");
        Self { etype, candidates }
    }

    /// Draw up to `k` non-neighbors of `src` by rejection sampling; gives up
    /// (returning fewer) after `16 * k` tries, which only happens when the
    /// source is connected to nearly the whole universe.
    pub fn sample<S: GraphStore + ?Sized>(
        &self,
        store: &S,
        src: VertexId,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(k);
        let mut tries = 0usize;
        while out.len() < k && tries < 16 * k.max(1) {
            tries += 1;
            let cand = self.candidates[(rng.next_u64() % self.candidates.len() as u64) as usize];
            if cand != src && store.edge_weight(src, cand, self.etype).is_none() {
                out.push(cand);
            }
        }
        out
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
    fn unique_sampling_never_repeats() {
        let store = chain_store();
        let ns = NeighborSampler::new(EdgeType(0), 3);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let out = ns.sample_unique(&store, &[v(0), v(1), v(2), v(3)], &mut rng);
            // v0 has exactly 3 neighbors: all three must appear once.
            let mut a: Vec<u64> = out[0].iter().map(|x| x.raw()).collect();
            a.sort_unstable();
            assert_eq!(a, vec![1, 2, 3]);
            // v1 has 2 neighbors < fanout: both, no repeats.
            let mut b: Vec<u64> = out[1].iter().map(|x| x.raw()).collect();
            b.sort_unstable();
            assert_eq!(b, vec![10, 11]);
            // v2 has 1 neighbor; v3 none.
            assert_eq!(out[2], vec![v(20)]);
            assert!(out[3].is_empty());
        }
    }

    #[test]
    fn unique_sampling_is_weight_biased_for_partial_draws() {
        // When fanout < degree, heavier neighbors should appear more often
        // across repeated draws.
        let store = DynamicGraphStore::with_defaults();
        for (i, w) in [(1u64, 10.0), (2, 1.0), (3, 1.0), (4, 1.0)] {
            store.insert_edge(Edge::new(v(0), v(i), w));
        }
        let ns = NeighborSampler::new(EdgeType(0), 2);
        let mut rng = StdRng::seed_from_u64(13);
        let mut heavy = 0usize;
        for _ in 0..2_000 {
            let out = ns.sample_unique(&store, &[v(0)], &mut rng);
            assert_eq!(out[0].len(), 2);
            if out[0].contains(&v(1)) {
                heavy += 1;
            }
        }
        assert!(
            heavy > 1_800,
            "weight-10 neighbor should almost always be drawn ({heavy}/2000)"
        );
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
    fn random_walks_follow_edges_and_stop_at_dead_ends() {
        let store = chain_store();
        let walker = RandomWalkSampler::new(EdgeType(0), 5);
        let mut rng = StdRng::seed_from_u64(8);
        let walks = walker.sample(&store, &[v(0), v(3)], &mut rng);
        assert_eq!(walks.len(), 2);
        // Every consecutive pair must be a real edge.
        for walk in &walks {
            for pair in walk.windows(2) {
                assert!(
                    store.edge_weight(pair[0], pair[1], EdgeType(0)).is_some(),
                    "walk used non-edge {pair:?}"
                );
            }
        }
        // Seed 3 has no out-edges: its walk is just the seed.
        assert_eq!(walks[1], vec![v(3)]);
        // Longest possible chain from 0 is 0-1-10-100 (4 vertices).
        assert!(walks[0].len() >= 2 && walks[0].len() <= 4);
    }

    #[test]
    fn restart_walks_return_to_seed() {
        let store = chain_store();
        let walker = RandomWalkSampler::new(EdgeType(0), 50).with_restart(0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let walks = walker.sample(&store, &[v(0)], &mut rng);
        let seed_visits = walks[0].iter().filter(|&&x| x == v(0)).count();
        assert!(
            seed_visits > 5,
            "restart=0.5 over 50 steps should revisit the seed often ({seed_visits})"
        );
    }

    #[test]
    fn node2vec_walks_follow_edges() {
        let store = chain_store();
        let walker = Node2VecWalker::new(EdgeType(0), 6, 2.0, 0.5);
        let mut rng = StdRng::seed_from_u64(14);
        for walk in walker.sample(&store, &[v(0), v(1)], &mut rng) {
            for pair in walk.windows(2) {
                assert!(
                    store.edge_weight(pair[0], pair[1], EdgeType(0)).is_some(),
                    "non-edge in walk: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn high_p_discourages_backtracking() {
        // Undirected chain 0-1-2-...-19: from the middle, immediate
        // backtracks (x == prev) should be much rarer with p = 100 than
        // with p = 0.01.
        let store = DynamicGraphStore::with_defaults();
        for i in 0..19u64 {
            store.insert_edge(Edge::new(v(i), v(i + 1), 1.0));
            store.insert_edge(Edge::new(v(i + 1), v(i), 1.0));
        }
        let backtrack_rate = |p: f64, seed: u64| {
            let walker = Node2VecWalker::new(EdgeType(0), 30, p, 1.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut back = 0usize;
            let mut steps = 0usize;
            for walk in walker.sample(&store, &vec![v(10); 50], &mut rng) {
                for w in walk.windows(3) {
                    steps += 1;
                    if w[0] == w[2] {
                        back += 1;
                    }
                }
            }
            back as f64 / steps.max(1) as f64
        };
        let avoid = backtrack_rate(100.0, 1);
        let seek = backtrack_rate(0.01, 1);
        assert!(
            avoid < seek * 0.5,
            "p=100 backtrack {avoid:.3} should be far below p=0.01's {seek:.3}"
        );
    }

    #[test]
    fn negative_samples_are_never_neighbors() {
        let store = chain_store();
        let universe: Vec<VertexId> = (0..30).map(v).collect();
        let neg = NegativeSampler::new(EdgeType(0), universe);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            for cand in neg.sample(&store, v(0), 5, &mut rng) {
                assert_ne!(cand, v(0));
                assert!(
                    store.edge_weight(v(0), cand, EdgeType(0)).is_none(),
                    "sampled a real neighbor {cand:?}"
                );
            }
        }
    }

    #[test]
    fn negative_sampler_gives_up_gracefully_when_saturated() {
        let store = DynamicGraphStore::with_defaults();
        // Source connected to the entire (tiny) universe.
        for i in 1..4u64 {
            store.insert_edge(Edge::new(v(0), v(i), 1.0));
        }
        let neg = NegativeSampler::new(EdgeType(0), (0..4).map(v).collect());
        let mut rng = StdRng::seed_from_u64(11);
        let got = neg.sample(&store, v(0), 8, &mut rng);
        assert!(got.is_empty(), "no valid negatives exist: {got:?}");
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
