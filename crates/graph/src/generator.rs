//! Deterministic workload generators.
//!
//! Edge streams drive the graph-building experiments (Fig. 8) and update
//! streams drive the dynamic-update experiments (Fig. 9, Fig. 11). Vertex
//! popularity on both endpoints is Zipf-distributed, so a small set of hub
//! vertices accumulates very large neighbor lists — the regime in which the
//! samtree's multi-level structure and the FSTable's `O(log n)` maintenance
//! actually matter.

use crate::profile::{DatasetProfile, RelationSpec};
use crate::{Edge, EdgeType, UpdateOp, VertexId, VertexType};
use platod2gl_sampling::{AliasTable, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws ranks in `[0, n)` with probability proportional to
/// `(rank + 1)^-s`, backed by an alias table for `O(1)` draws.
pub struct ZipfSampler {
    table: AliasTable,
}

impl ZipfSampler {
    /// Build for `n` ranks with exponent `s >= 0` (`s = 0` is uniform).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            n <= 1 << 26,
            "ZipfSampler materializes one weight per rank; scale the profile down"
        );
        let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-s)).collect();
        Self {
            table: AliasTable::from_weights(&weights),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.table.len() as u64
    }

    /// Draw one rank.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.table.sample(rng).expect("non-empty table") as u64
    }
}

/// Per-relation edge generator state.
struct RelGen {
    etype: EdgeType,
    src_type: VertexType,
    dst_type: VertexType,
    num_edges: u64,
    src: ZipfSampler,
    dst: ZipfSampler,
}

impl RelGen {
    fn new(spec: &RelationSpec) -> Self {
        Self {
            etype: spec.etype,
            src_type: spec.src_type,
            dst_type: spec.dst_type,
            num_edges: spec.num_edges,
            src: ZipfSampler::new(spec.num_src, spec.zipf_exponent),
            dst: ZipfSampler::new(spec.num_dst, spec.zipf_exponent),
        }
    }

    fn gen_edge<R: Rng + ?Sized>(&self, rng: &mut R) -> Edge {
        let src = VertexId::compose(self.src_type, self.src.draw(rng));
        let mut dst = VertexId::compose(self.dst_type, self.dst.draw(rng));
        // Avoid self-loops in homogeneous relations (simple graph, Sec. II-A).
        if dst == src {
            let shifted = (dst.index() + 1) % self.dst.n();
            dst = VertexId::compose(self.dst_type, shifted);
        }
        Edge {
            src,
            dst,
            etype: self.etype,
            weight: rng.random_range(0.05..1.0),
            ts: 0,
        }
    }
}

/// Deterministic stream of edges realizing a [`DatasetProfile`].
///
/// Relations are emitted in profile order; when the profile is bi-directed,
/// each generated edge is immediately followed by its reverse.
pub struct EdgeStream {
    relations: Vec<RelGen>,
    rel_idx: usize,
    emitted_in_rel: u64,
    pending_reverse: Option<Edge>,
    bidirected: bool,
    rng: StdRng,
}

impl EdgeStream {
    /// Build a stream for the profile with a fixed seed.
    pub fn new(profile: &DatasetProfile, seed: u64) -> Self {
        Self {
            relations: profile.relations.iter().map(RelGen::new).collect(),
            rel_idx: 0,
            emitted_in_rel: 0,
            pending_reverse: None,
            bidirected: profile.bidirected,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Override the profile's bi-directed flag.
    pub fn with_bidirected(mut self, bidirected: bool) -> Self {
        self.bidirected = bidirected;
        self
    }
}

impl Iterator for EdgeStream {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if let Some(rev) = self.pending_reverse.take() {
            return Some(rev);
        }
        loop {
            let rel = self.relations.get(self.rel_idx)?;
            if self.emitted_in_rel >= rel.num_edges {
                self.rel_idx += 1;
                self.emitted_in_rel = 0;
                continue;
            }
            self.emitted_in_rel += 1;
            let edge = rel.gen_edge(&mut self.rng);
            if self.bidirected {
                self.pending_reverse = Some(edge.reversed());
            }
            return Some(edge);
        }
    }
}

/// Operation mix for [`UpdateStream`] (fractions must sum to 1).
#[derive(Clone, Copy, Debug)]
pub struct UpdateMix {
    pub insert: f64,
    pub update_weight: f64,
    pub delete: f64,
}

impl Default for UpdateMix {
    /// The paper emphasizes that in-place updates and deletions "happen
    /// frequently in real-world applications" (Sec. V); this default makes
    /// them 40 % of traffic.
    fn default() -> Self {
        Self {
            insert: 0.6,
            update_weight: 0.3,
            delete: 0.1,
        }
    }
}

/// An endless deterministic stream of mixed [`UpdateOp`]s over a profile's
/// vertex space.
///
/// Inserted edges may collide with existing ones (becoming weight updates
/// inside the engine, per Alg. 2) and update/delete targets may miss —
/// both are no-ops in every engine and exactly what production churn looks
/// like.
pub struct UpdateStream {
    relations: Vec<RelGen>,
    mix: UpdateMix,
    rng: StdRng,
}

impl UpdateStream {
    /// Build with the default operation mix.
    pub fn new(profile: &DatasetProfile, seed: u64) -> Self {
        Self {
            relations: profile.relations.iter().map(RelGen::new).collect(),
            mix: UpdateMix::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x5bd1_e995),
        }
    }

    /// Override the operation mix.
    pub fn with_mix(mut self, mix: UpdateMix) -> Self {
        let sum = mix.insert + mix.update_weight + mix.delete;
        assert!((sum - 1.0).abs() < 1e-9, "mix fractions must sum to 1");
        self.mix = mix;
        self
    }

    /// Produce the next batch of `n` ops.
    pub fn next_batch(&mut self, n: usize) -> Vec<UpdateOp> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Produce one op.
    pub fn next_op(&mut self) -> UpdateOp {
        // Relations weighted by edge count so the op mix matches the data mix.
        let total: u64 = self.relations.iter().map(|r| r.num_edges).sum();
        let mut pick = self.rng.random_range(0..total.max(1));
        let mut rel = &self.relations[0];
        for r in &self.relations {
            if pick < r.num_edges {
                rel = r;
                break;
            }
            pick -= r.num_edges;
        }
        let edge = rel.gen_edge(&mut self.rng);
        let x: f64 = self.rng.random_range(0.0..1.0);
        if x < self.mix.insert {
            UpdateOp::Insert(edge)
        } else if x < self.mix.insert + self.mix.update_weight {
            UpdateOp::UpdateWeight(edge)
        } else {
            UpdateOp::Delete {
                src: edge.src,
                dst: edge.dst,
                etype: edge.etype,
            }
        }
    }
}

impl Iterator for UpdateStream {
    type Item = UpdateOp;

    fn next(&mut self) -> Option<UpdateOp> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.draw(&mut rng)).or_default() += 1;
        }
        let c0 = counts.get(&0).copied().unwrap_or(0);
        let c99 = counts.get(&99).copied().unwrap_or(0);
        assert!(c0 > c99 * 10, "rank 0 ({c0}) should dwarf rank 99 ({c99})");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[z.draw(&mut rng) as usize] += 1;
        }
        for c in counts {
            let f = c as f64 / 100_000.0;
            assert!((f - 0.1).abs() < 0.01, "{f}");
        }
    }

    #[test]
    fn edge_stream_is_deterministic_and_sized() {
        let p = DatasetProfile::tiny();
        let a: Vec<Edge> = p.edge_stream(9).collect();
        let b: Vec<Edge> = p.edge_stream(9).collect();
        assert_eq!(a.len(), p.total_edges() as usize);
        assert_eq!(a, b);
        let c: Vec<Edge> = p.edge_stream(10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn bidirected_stream_emits_reverse_pairs() {
        let mut p = DatasetProfile::tiny();
        p.bidirected = true;
        let edges: Vec<Edge> = p.edge_stream(3).collect();
        assert_eq!(edges.len(), 2 * p.total_edges() as usize);
        for pair in edges.chunks(2) {
            assert_eq!(pair[1], pair[0].reversed());
        }
    }

    #[test]
    fn edges_respect_vertex_type_ranges() {
        let p = DatasetProfile::wechat().scaled(1e-6);
        // Forward direction only; reversed copies swap the type ranges.
        for e in p.edge_stream(4).with_bidirected(false).take(5_000) {
            let rel = p
                .relations
                .iter()
                .find(|r| r.etype == e.etype)
                .expect("known relation");
            assert_eq!(e.src.vtype(), rel.src_type);
            assert_eq!(e.dst.vtype(), rel.dst_type);
            assert!(e.src.index() < rel.num_src);
            assert!(e.dst.index() < rel.num_dst);
            assert!(e.weight > 0.0);
        }
    }

    #[test]
    fn no_self_loops() {
        let p = DatasetProfile::tiny(); // homogeneous relation
        for e in p.edge_stream(7) {
            assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn update_stream_respects_mix() {
        let p = DatasetProfile::tiny();
        let mut s = p.update_stream(1).with_mix(UpdateMix {
            insert: 0.5,
            update_weight: 0.25,
            delete: 0.25,
        });
        let ops = s.next_batch(20_000);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::Insert(_)))
            .count();
        let updates = ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::UpdateWeight(_)))
            .count();
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::Delete { .. }))
            .count();
        assert!((inserts as f64 / 20_000.0 - 0.5).abs() < 0.02);
        assert!((updates as f64 / 20_000.0 - 0.25).abs() < 0.02);
        assert!((deletes as f64 / 20_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn update_stream_is_deterministic() {
        let p = DatasetProfile::tiny();
        let a = p.update_stream(5).next_batch(100);
        let b = p.update_stream(5).next_batch(100);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_panics() {
        let p = DatasetProfile::tiny();
        let _ = p.update_stream(1).with_mix(UpdateMix {
            insert: 0.5,
            update_weight: 0.5,
            delete: 0.5,
        });
    }
}
