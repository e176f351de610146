//! Dataset profiles reproducing the paper's Table III.
//!
//! We do not have the production WeChat trace (2.1 B nodes, 63.9 B edges) or
//! the authors' OGBN/Reddit preprocessing, so each dataset is described by a
//! [`DatasetProfile`]: per-relation node counts, edge counts and degree-skew
//! parameters taken from Table III. A profile can be *scaled* down so the
//! same shape runs on one machine; the benchmarks report which scale they
//! used. Degree skew is Zipf-distributed, which matches the hub-dominated
//! degree profile of social and e-commerce graphs and exercises the same
//! deep-samtree code paths the production trace would.

use crate::generator::{EdgeStream, UpdateStream};
use crate::{EdgeType, GraphStore, UpdateOp, VertexId, VertexType};
use serde::{Deserialize, Serialize};

/// One relation (edge type) of a heterogeneous dataset: the paper's
/// Table III rows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RelationSpec {
    /// Human name, e.g. `User-Live`.
    pub name: String,
    pub etype: EdgeType,
    pub src_type: VertexType,
    pub dst_type: VertexType,
    /// Number of distinct source vertices (`#S`).
    pub num_src: u64,
    /// Number of distinct target vertices (`#T`).
    pub num_dst: u64,
    /// Number of edges in the relation.
    pub num_edges: u64,
    /// Zipf exponent for source/destination popularity (degree skew).
    pub zipf_exponent: f64,
}

impl RelationSpec {
    /// Average out-degree (`Density` in Table III).
    pub fn density(&self) -> f64 {
        self.num_edges as f64 / self.num_src as f64
    }
}

/// A heterogeneous dataset description; see the module docs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetProfile {
    pub name: String,
    pub relations: Vec<RelationSpec>,
    /// Emit each generated edge in both directions (all the paper's datasets
    /// are bi-directed).
    pub bidirected: bool,
}

const DEFAULT_SKEW: f64 = 0.9;

/// Ops per [`DatasetProfile::ingest_into`] batch.
const INGEST_BATCH: usize = 4096;

impl DatasetProfile {
    /// OGBN-Products (Table III): 2.4 M × 2.4 M products, 61.9 M edges,
    /// density 25.8.
    pub fn ogbn() -> Self {
        Self {
            name: "OGBN".into(),
            bidirected: true,
            relations: vec![RelationSpec {
                name: "Product-Product".into(),
                etype: EdgeType(0),
                src_type: VertexType(0),
                dst_type: VertexType(0),
                num_src: 2_400_000,
                num_dst: 2_400_000,
                num_edges: 61_900_000,
                zipf_exponent: DEFAULT_SKEW,
            }],
        }
    }

    /// Reddit (Table III): 233 K posts/communities, 114 M edges, density
    /// 489.3 — the densest dataset, stressing deep samtrees.
    pub fn reddit() -> Self {
        Self {
            name: "Reddit".into(),
            bidirected: true,
            relations: vec![RelationSpec {
                name: "Post-Community".into(),
                etype: EdgeType(0),
                src_type: VertexType(0),
                dst_type: VertexType(1),
                num_src: 233_000,
                num_dst: 233_000,
                num_edges: 114_000_000,
                zipf_exponent: DEFAULT_SKEW,
            }],
        }
    }

    /// WeChat (Table III): the production live-streaming graph with four
    /// relations, 2.1 B nodes and 63.9 B edges in total.
    pub fn wechat() -> Self {
        Self {
            name: "WeChat".into(),
            bidirected: true,
            relations: vec![
                RelationSpec {
                    name: "User-Live".into(),
                    etype: EdgeType(0),
                    src_type: VertexType(0),
                    dst_type: VertexType(1),
                    num_src: 1_020_000_000,
                    num_dst: 1_020_000_000,
                    num_edges: 63_300_000_000,
                    zipf_exponent: DEFAULT_SKEW,
                },
                RelationSpec {
                    name: "User-Attr".into(),
                    etype: EdgeType(1),
                    src_type: VertexType(0),
                    dst_type: VertexType(2),
                    num_src: 970_000_000,
                    num_dst: 970_000_000,
                    num_edges: 1_900_000_000,
                    zipf_exponent: DEFAULT_SKEW,
                },
                RelationSpec {
                    name: "Live-Live".into(),
                    etype: EdgeType(2),
                    src_type: VertexType(1),
                    dst_type: VertexType(1),
                    num_src: 13_100_000,
                    num_dst: 13_100_000,
                    num_edges: 650_000_000,
                    zipf_exponent: DEFAULT_SKEW,
                },
                RelationSpec {
                    name: "Live-Tag".into(),
                    etype: EdgeType(3),
                    src_type: VertexType(1),
                    dst_type: VertexType(3),
                    num_src: 15_100_000,
                    num_dst: 15_100_000,
                    num_edges: 30_100_000,
                    zipf_exponent: DEFAULT_SKEW,
                },
            ],
        }
    }

    /// A small fixed profile for unit and integration tests.
    pub fn tiny() -> Self {
        Self {
            name: "Tiny".into(),
            bidirected: false,
            relations: vec![RelationSpec {
                name: "T-T".into(),
                etype: EdgeType(0),
                src_type: VertexType(0),
                dst_type: VertexType(0),
                num_src: 200,
                num_dst: 200,
                num_edges: 2_000,
                zipf_exponent: DEFAULT_SKEW,
            }],
        }
    }

    /// Scale every node and edge count by `factor` (keeping density roughly
    /// constant requires scaling both, which this does). Counts are clamped
    /// to at least 1.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        let scale = |x: u64| ((x as f64 * factor).round() as u64).max(1);
        Self {
            name: self.name.clone(),
            bidirected: self.bidirected,
            relations: self
                .relations
                .iter()
                .map(|r| RelationSpec {
                    name: r.name.clone(),
                    etype: r.etype,
                    src_type: r.src_type,
                    dst_type: r.dst_type,
                    num_src: scale(r.num_src),
                    num_dst: scale(r.num_dst),
                    num_edges: scale(r.num_edges),
                    zipf_exponent: r.zipf_exponent,
                })
                .collect(),
        }
    }

    /// Scale the profile so the total directed edge count is roughly
    /// `target_edges` (the benchmark entry point: "WeChat at 2 M edges").
    pub fn scaled_to_edges(&self, target_edges: u64) -> Self {
        let total = self.total_edges().max(1);
        self.scaled(target_edges as f64 / total as f64)
    }

    /// A WeChat-like profile preserving the production *degree* regime at
    /// laptop scale: `target_edges` User-Live interactions over a source
    /// space sized for the paper's mean density (~62) and a destination
    /// space large enough that Zipf hubs accumulate tens of thousands of
    /// distinct neighbors — the regime where O(n) index maintenance
    /// (PlatoGL's CSTable) actually hurts.
    pub fn wechat_hub(target_edges: u64) -> Self {
        let num_src = (target_edges / 62).max(16);
        let num_dst = (target_edges / 2).max(64);
        Self {
            name: "WeChat-hub".into(),
            bidirected: false,
            relations: vec![RelationSpec {
                name: "User-Live".into(),
                etype: EdgeType(0),
                src_type: VertexType(0),
                dst_type: VertexType(1),
                num_src,
                num_dst,
                num_edges: target_edges,
                zipf_exponent: DEFAULT_SKEW,
            }],
        }
    }

    /// Total directed edges across relations (before bi-directing).
    pub fn total_edges(&self) -> u64 {
        self.relations.iter().map(|r| r.num_edges).sum()
    }

    /// Total distinct vertices, approximated as the per-type maxima of the
    /// relation endpoints.
    pub fn total_vertices(&self) -> u64 {
        use std::collections::HashMap;
        let mut per_type: HashMap<u16, u64> = HashMap::new();
        for r in &self.relations {
            let s = per_type.entry(r.src_type.0).or_insert(0);
            *s = (*s).max(r.num_src);
            let t = per_type.entry(r.dst_type.0).or_insert(0);
            *t = (*t).max(r.num_dst);
        }
        per_type.values().sum()
    }

    /// Deterministic edge stream for building the graph.
    pub fn edge_stream(&self, seed: u64) -> EdgeStream {
        EdgeStream::new(self, seed)
    }

    /// Build the graph: insert the whole [`edge_stream`](Self::edge_stream)
    /// into `store` in 4096-op batches (the Fig. 8 ingest). Duplicate
    /// edges become weight updates.
    pub fn ingest_into(&self, store: &dyn GraphStore, seed: u64) {
        let mut batch: Vec<UpdateOp> = Vec::with_capacity(INGEST_BATCH);
        for e in self.edge_stream(seed) {
            batch.push(UpdateOp::Insert(e));
            if batch.len() == INGEST_BATCH {
                store.apply_batch(&batch);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            store.apply_batch(&batch);
        }
    }

    /// Deterministic mixed update stream (inserts / weight updates /
    /// deletions) for the dynamic-update experiments.
    pub fn update_stream(&self, seed: u64) -> UpdateStream {
        UpdateStream::new(self, seed)
    }

    /// Draw `count` query vertices from the source-popularity distribution
    /// (high-degree vertices appear often, as real inference batches do).
    pub fn sample_sources(&self, count: usize, seed: u64) -> Vec<VertexId> {
        EdgeStream::new(self, seed)
            .take(count)
            .map(|e| e.src)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_densities_match_paper() {
        let ogbn = DatasetProfile::ogbn();
        assert!((ogbn.relations[0].density() - 25.8).abs() < 0.1);
        let reddit = DatasetProfile::reddit();
        assert!((reddit.relations[0].density() - 489.3).abs() < 0.2);
        let wechat = DatasetProfile::wechat();
        let d: Vec<f64> = wechat.relations.iter().map(|r| r.density()).collect();
        assert!((d[0] - 62.06).abs() < 0.1, "User-Live density {}", d[0]);
        assert!((d[1] - 1.96).abs() < 0.01, "User-Attr density {}", d[1]);
        assert!((d[2] - 49.62).abs() < 0.1, "Live-Live density {}", d[2]);
        assert!((d[3] - 1.99).abs() < 0.01, "Live-Tag density {}", d[3]);
    }

    #[test]
    fn wechat_totals_match_paper_headline() {
        let w = DatasetProfile::wechat();
        // "2.1 billion nodes and 63.9 billion edges in total"
        assert!((w.total_edges() as f64 - 65.88e9).abs() < 0.1e9);
        assert!(w.total_vertices() as f64 > 2.0e9);
    }

    #[test]
    fn scaling_preserves_density() {
        let w = DatasetProfile::wechat().scaled(1e-4);
        for (orig, scaled) in DatasetProfile::wechat().relations.iter().zip(&w.relations) {
            let ratio = scaled.density() / orig.density();
            assert!((ratio - 1.0).abs() < 0.05, "{}: {}", scaled.name, ratio);
        }
    }

    #[test]
    fn scaled_to_edges_hits_target() {
        let p = DatasetProfile::ogbn().scaled_to_edges(100_000);
        let total = p.total_edges();
        assert!((total as i64 - 100_000i64).abs() < 2_000, "total {total}");
    }

    #[test]
    fn scaling_clamps_to_one() {
        let p = DatasetProfile::tiny().scaled(1e-9);
        assert!(p
            .relations
            .iter()
            .all(|r| r.num_src >= 1 && r.num_edges >= 1));
    }

    #[test]
    fn sample_sources_is_deterministic() {
        let p = DatasetProfile::tiny();
        assert_eq!(p.sample_sources(32, 5), p.sample_sources(32, 5));
        assert_ne!(p.sample_sources(32, 5), p.sample_sources(32, 6));
    }
}
