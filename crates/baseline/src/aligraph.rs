//! The AliGraph-like hash-by-source store with alias-table sampling.

use platod2gl_cuckoo::CuckooMap;
use platod2gl_graph::{Edge, EdgeType, GraphStore, VertexId};
use platod2gl_mem::DeepSize;
use platod2gl_sampling::{AliasTable, WeightedIndex};
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-vertex adjacency: raw arrays plus a pre-built alias table.
///
/// The alias table is the "duplicated topology for fast sampling" the paper
/// charges AliGraph with: a probability and an alias slot per neighbor, on
/// top of the IDs and weights, and it must be rebuilt in `O(n)` whenever the
/// neighborhood changes.
#[derive(Clone, Debug, Default)]
struct AdjList {
    ids: Vec<u64>,
    weights: Vec<f64>,
    alias: AliasTable,
}

impl AdjList {
    fn rebuild_alias(&mut self) {
        self.alias = AliasTable::from_weights(&self.weights);
    }
}

impl DeepSize for AdjList {
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * 8 + self.weights.capacity() * 8 + self.alias.heap_bytes()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct VKey {
    src: u64,
    etype: u16,
}

impl DeepSize for VKey {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The AliGraph-like store: hash-by-source adjacency + per-vertex alias
/// tables. `O(1)` sampling, `O(n)` updates, ~2.5× topology memory.
pub struct AliGraphStore {
    adj: CuckooMap<VKey, AdjList>,
    num_edges: AtomicUsize,
}

impl Default for AliGraphStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AliGraphStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self {
            adj: CuckooMap::with_capacity(1024),
            num_edges: AtomicUsize::new(0),
        }
    }
}

impl GraphStore for AliGraphStore {
    fn name(&self) -> &'static str {
        "AliGraph"
    }

    fn insert_edge(&self, edge: Edge) {
        let vkey = VKey {
            src: edge.src.raw(),
            etype: edge.etype.0,
        };
        let inserted = self.adj.update_or_insert_with(vkey, AdjList::default, |a| {
            let inserted = match a.ids.iter().position(|&x| x == edge.dst.raw()) {
                Some(i) => {
                    a.weights[i] = edge.weight;
                    false
                }
                None => {
                    a.ids.push(edge.dst.raw());
                    a.weights.push(edge.weight);
                    true
                }
            };
            a.rebuild_alias(); // O(n) on every change
            inserted
        });
        if inserted {
            self.num_edges.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn delete_edge(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> bool {
        let vkey = VKey {
            src: src.raw(),
            etype: etype.0,
        };
        let deleted = self
            .adj
            .update(&vkey, |a| {
                if let Some(i) = a.ids.iter().position(|&x| x == dst.raw()) {
                    a.ids.swap_remove(i);
                    a.weights.swap_remove(i);
                    a.rebuild_alias();
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);
        if deleted {
            self.num_edges.fetch_sub(1, Ordering::Relaxed);
        }
        deleted
    }

    fn update_weight(&self, edge: Edge) -> bool {
        let vkey = VKey {
            src: edge.src.raw(),
            etype: edge.etype.0,
        };
        self.adj
            .update(&vkey, |a| {
                if let Some(i) = a.ids.iter().position(|&x| x == edge.dst.raw()) {
                    a.weights[i] = edge.weight;
                    a.rebuild_alias();
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false)
    }

    fn degree(&self, v: VertexId, etype: EdgeType) -> usize {
        self.adj
            .read(
                &VKey {
                    src: v.raw(),
                    etype: etype.0,
                },
                |a| a.ids.len(),
            )
            .unwrap_or(0)
    }

    fn weight_sum(&self, v: VertexId, etype: EdgeType) -> f64 {
        self.adj
            .read(
                &VKey {
                    src: v.raw(),
                    etype: etype.0,
                },
                |a| a.weights.iter().sum(),
            )
            .unwrap_or(0.0)
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        self.adj
            .read(
                &VKey {
                    src: src.raw(),
                    etype: etype.0,
                },
                |a| {
                    a.ids
                        .iter()
                        .position(|&x| x == dst.raw())
                        .map(|i| a.weights[i])
                },
            )
            .flatten()
    }

    /// AliGraph-style sampling: the client "retrieve\[s\] all the neighbours
    /// of a source node from different graph servers into memory"
    /// (paper Sec. V) — modeled as materializing a copy of the adjacency
    /// and its alias table — and then draws from the local copy in O(1).
    fn sample_neighbors(
        &self,
        v: VertexId,
        etype: EdgeType,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        let Some(local): Option<AdjList> = self.adj.read(
            &VKey {
                src: v.raw(),
                etype: etype.0,
            },
            |a| a.clone(), // the retrieve-into-memory step
        ) else {
            return Vec::new();
        };
        let total = local.alias.total();
        if local.ids.is_empty() || total <= 0.0 {
            return Vec::new();
        }
        (0..k)
            .map(|_| {
                let r: f64 = rng.random_range(0.0..total);
                VertexId(local.ids[local.alias.sample_with(r)])
            })
            .collect()
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        self.adj
            .read(
                &VKey {
                    src: v.raw(),
                    etype: etype.0,
                },
                |a| {
                    a.ids
                        .iter()
                        .zip(&a.weights)
                        .map(|(&id, &w)| (VertexId(id), w))
                        .collect()
                },
            )
            .unwrap_or_default()
    }

    fn num_edges(&self) -> usize {
        self.num_edges.load(Ordering::Relaxed)
    }

    fn topology_bytes(&self) -> usize {
        self.adj.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::conformance;

    #[test]
    fn conformance_suite() {
        conformance::run_all(AliGraphStore::new);
    }

    #[test]
    fn alias_duplication_costs_memory() {
        let ali = AliGraphStore::new();
        for i in 0..10_000u64 {
            ali.insert_edge(Edge::new(VertexId(i % 10), VertexId(1_000 + i), 1.0));
        }
        // 10k edges x (8B id + 8B weight) = 160KB payload; the alias table
        // adds 12B per edge on top, so > 1.5x payload even before KV slack.
        let payload = 10_000 * 16;
        assert!(
            ali.topology_bytes() > payload * 3 / 2,
            "alias duplication missing: {}",
            ali.topology_bytes()
        );
    }

    #[test]
    fn sampling_is_fresh_after_updates() {
        let store = AliGraphStore::new();
        store.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        store.insert_edge(Edge::new(VertexId(1), VertexId(3), 1.0));
        store.delete_edge(VertexId(1), VertexId(2), EdgeType(0));
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = store.sample_neighbors(VertexId(1), EdgeType(0), 100, &mut rng);
        assert!(s.iter().all(|v| v.raw() == 3));
    }

    #[test]
    fn concurrent_disjoint_sources() {
        let store = AliGraphStore::new();
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move |_| {
                    for i in 0..1_000u64 {
                        store.insert_edge(Edge::new(VertexId(t), VertexId(i), 1.0));
                    }
                });
            }
        })
        .expect("threads join");
        assert_eq!(store.num_edges(), 4_000);
    }
}
