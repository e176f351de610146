//! The PlatoGL-like block-based key-value store.

use platod2gl_cuckoo::CuckooMap;
use platod2gl_graph::{Edge, EdgeType, GraphStore, VertexId};
use platod2gl_mem::DeepSize;
use platod2gl_sampling::{CsTable, WeightedIndex};
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes of non-ID information PlatoGL packs into every block key
/// ("each key designed by PlatoGL consist of various information except the
/// unique identifier (ID) of vertex s for uniquely mapping to a specific
/// block"): edge type, block sequence, partition epoch, versioning. Sixteen
/// bytes is a conservative model of that envelope.
pub const KEY_META_BYTES: usize = 16;

/// PlatoGL tuning.
#[derive(Clone, Copy, Debug)]
pub struct PlatoGlConfig {
    /// Neighbors per block. Production block KV stores keep values small
    /// (cache-line / memtable friendly); 64 neighbors per block is the
    /// regime in which PlatoGL's per-block composite keys visibly inflate
    /// memory, which is what the paper measures.
    pub block_size: usize,
}

impl Default for PlatoGlConfig {
    fn default() -> Self {
        Self { block_size: 64 }
    }
}

/// Per-(vertex, relation) directory entry.
#[derive(Clone, Debug, Default)]
struct VertexMeta {
    degree: u32,
    num_blocks: u32,
    /// Vertex-level CSTable over per-block weight sums: the first ITS stage.
    block_sums: CsTable,
}

impl DeepSize for VertexMeta {
    fn heap_bytes(&self) -> usize {
        self.block_sums.heap_bytes()
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

/// The composite block key: vertex ID plus the metadata envelope. The
/// envelope is dead weight per block — exactly the overhead the samtree's
/// non-key-value layout eliminates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct BlockKey {
    src: u64,
    etype: u16,
    seq: u32,
    meta: [u8; KEY_META_BYTES],
}

impl DeepSize for BlockKey {
    fn heap_bytes(&self) -> usize {
        0
    }
}

fn block_key(src: u64, etype: u16, seq: u32) -> BlockKey {
    // Deterministic stand-in for PlatoGL's real key envelope (graph epoch,
    // store version, partition tag, ...).
    let mut meta = [0u8; KEY_META_BYTES];
    meta[..8].copy_from_slice(&src.rotate_left(17).to_be_bytes());
    meta[8..12].copy_from_slice(&seq.to_be_bytes());
    meta[12..14].copy_from_slice(&etype.to_be_bytes());
    BlockKey {
        src,
        etype,
        seq,
        meta,
    }
}

/// One block: a slice of the neighborhood plus its CSTable.
#[derive(Clone, Debug, Default)]
struct Block {
    ids: Vec<u64>,
    cs: CsTable,
}

impl DeepSize for Block {
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * 8 + self.cs.heap_bytes()
    }
}

/// The PlatoGL-like store. See the crate docs.
pub struct PlatoGlStore {
    config: PlatoGlConfig,
    meta: CuckooMap<VKey, VertexMeta>,
    blocks: CuckooMap<BlockKey, Block>,
    num_edges: AtomicUsize,
}

impl PlatoGlStore {
    /// Create an empty store.
    pub fn new(config: PlatoGlConfig) -> Self {
        Self {
            config,
            meta: CuckooMap::with_capacity(1024),
            blocks: CuckooMap::with_capacity(1024),
            num_edges: AtomicUsize::new(0),
        }
    }

    /// Create with defaults (block size 64).
    pub fn with_defaults() -> Self {
        Self::new(PlatoGlConfig::default())
    }

    /// Number of blocks currently allocated (each one a KV pair with its
    /// own composite key).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Find `dst` among the vertex's blocks; runs `f` on the containing
    /// block and the in-block index, returning the weight delta to fold into
    /// the vertex-level CSTable. Concurrent per-vertex mutators are
    /// serialized by running inside the meta entry's shard lock.
    fn with_found_edge(
        &self,
        m: &VertexMeta,
        src: u64,
        etype: u16,
        dst: u64,
        f: impl Fn(&mut Block, usize) -> f64,
    ) -> Option<(u32, f64)> {
        for seq in 0..m.num_blocks {
            let key = block_key(src, etype, seq);
            let hit = self.blocks.update(&key, |b| {
                b.ids.iter().position(|&x| x == dst).map(|i| f(b, i))
            });
            if let Some(Some(delta)) = hit {
                return Some((seq, delta));
            }
        }
        None
    }
}

impl GraphStore for PlatoGlStore {
    fn name(&self) -> &'static str {
        "PlatoGL"
    }

    fn insert_edge(&self, edge: Edge) {
        let (src, etype, dst, w) = (edge.src.raw(), edge.etype.0, edge.dst.raw(), edge.weight);
        let vkey = VKey { src, etype };
        let inserted = self
            .meta
            .update_or_insert_with(vkey, VertexMeta::default, |m| {
                // Existing edge: in-place CSTable rewrite (O(block size)).
                if let Some((seq, delta)) = self.with_found_edge(m, src, etype, dst, |b, i| {
                    let old = b.cs.get(i);
                    b.cs.set(i, w);
                    w - old
                }) {
                    m.block_sums.add(seq as usize, delta);
                    return false;
                }
                // Append: last block, or a fresh one when full/absent.
                let mut seq = m.num_blocks.saturating_sub(1);
                let mut need_new = m.num_blocks == 0;
                if !need_new {
                    let full = self
                        .blocks
                        .read(&block_key(src, etype, seq), |b| {
                            b.ids.len() >= self.config.block_size
                        })
                        .unwrap_or(true);
                    if full {
                        need_new = true;
                    }
                }
                if need_new {
                    seq = m.num_blocks;
                    m.num_blocks += 1;
                    m.block_sums.push(0.0);
                    self.blocks
                        .insert(block_key(src, etype, seq), Block::default());
                }
                self.blocks.update(&block_key(src, etype, seq), |b| {
                    b.ids.push(dst);
                    b.cs.push(w);
                });
                m.block_sums.add(seq as usize, w);
                m.degree += 1;
                true
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
            .meta
            .update(&vkey, |m| {
                // O(block size): CSTable compaction after removal.
                if let Some((seq, delta)) =
                    self.with_found_edge(m, src.raw(), etype.0, dst.raw(), |b, i| {
                        b.ids.remove(i);
                        -b.cs.remove(i)
                    })
                {
                    m.block_sums.add(seq as usize, delta);
                    m.degree -= 1;
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
        self.meta
            .update(&vkey, |m| {
                if let Some((seq, delta)) =
                    self.with_found_edge(m, edge.src.raw(), edge.etype.0, edge.dst.raw(), |b, i| {
                        let old = b.cs.get(i);
                        b.cs.set(i, edge.weight); // O(block size)
                        edge.weight - old
                    })
                {
                    m.block_sums.add(seq as usize, delta);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false)
    }

    fn degree(&self, v: VertexId, etype: EdgeType) -> usize {
        self.meta
            .read(
                &VKey {
                    src: v.raw(),
                    etype: etype.0,
                },
                |m| m.degree as usize,
            )
            .unwrap_or(0)
    }

    fn weight_sum(&self, v: VertexId, etype: EdgeType) -> f64 {
        self.meta
            .read(
                &VKey {
                    src: v.raw(),
                    etype: etype.0,
                },
                |m| m.block_sums.total(),
            )
            .unwrap_or(0.0)
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        let num_blocks = self.meta.read(
            &VKey {
                src: src.raw(),
                etype: etype.0,
            },
            |m| m.num_blocks,
        )?;
        for seq in 0..num_blocks {
            let key = block_key(src.raw(), etype.0, seq);
            let hit = self
                .blocks
                .read(&key, |b| {
                    b.ids
                        .iter()
                        .position(|&x| x == dst.raw())
                        .map(|i| b.cs.get(i))
                })
                .flatten();
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// Two-stage ITS (PlatoGL's block-based sampling method): a vertex-level
    /// CSTable picks the block, the block's CSTable picks the neighbor. Each
    /// draw performs fresh KV gets, as a real block store must.
    fn sample_neighbors(
        &self,
        v: VertexId,
        etype: EdgeType,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        let vkey = VKey {
            src: v.raw(),
            etype: etype.0,
        };
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let picked = self.meta.read(&vkey, |m| {
                let total = m.block_sums.total();
                if m.degree == 0 || total <= 0.0 {
                    return None;
                }
                let r: f64 = rng.random_range(0.0..total);
                let seq = m.block_sums.its_search(r);
                let rem = if seq == 0 {
                    r
                } else {
                    r - m.block_sums.prefix_sum(seq - 1)
                };
                Some((seq as u32, rem))
            });
            let Some(Some((seq, rem))) = picked else {
                break;
            };
            let id = self
                .blocks
                .read(&block_key(v.raw(), etype.0, seq), |b| {
                    if b.ids.is_empty() {
                        None
                    } else {
                        Some(b.ids[b.cs.its_search(rem).min(b.ids.len() - 1)])
                    }
                })
                .flatten();
            if let Some(id) = id {
                out.push(VertexId(id));
            }
        }
        out
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        let Some(num_blocks) = self.meta.read(
            &VKey {
                src: v.raw(),
                etype: etype.0,
            },
            |m| m.num_blocks,
        ) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for seq in 0..num_blocks {
            self.blocks.read(&block_key(v.raw(), etype.0, seq), |b| {
                for (i, &id) in b.ids.iter().enumerate() {
                    out.push((VertexId(id), b.cs.get(i)));
                }
            });
        }
        out
    }

    fn num_edges(&self) -> usize {
        self.num_edges.load(Ordering::Relaxed)
    }

    fn topology_bytes(&self) -> usize {
        self.meta.heap_bytes() + self.blocks.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::conformance;

    fn small() -> PlatoGlStore {
        PlatoGlStore::new(PlatoGlConfig { block_size: 8 })
    }

    #[test]
    fn conformance_suite() {
        conformance::run_all(small);
    }

    #[test]
    fn conformance_suite_default_config() {
        conformance::run_all(PlatoGlStore::with_defaults);
    }

    #[test]
    fn blocks_chain_when_full() {
        let store = small();
        for i in 0..20u64 {
            store.insert_edge(Edge::new(VertexId(1), VertexId(100 + i), 1.0));
        }
        // 20 neighbors at block size 8 => 3 blocks, each its own KV pair.
        assert_eq!(store.num_blocks(), 3);
        assert_eq!(store.degree(VertexId(1), EdgeType(0)), 20);
        assert!((store.weight_sum(VertexId(1), EdgeType(0)) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn per_block_keys_inflate_memory_vs_payload() {
        let store = small();
        for i in 0..4096u64 {
            store.insert_edge(Edge::new(VertexId(i % 8), VertexId(10_000 + i), 1.0));
        }
        let payload = 4096 * 16; // id + weight
        let measured = store.topology_bytes();
        // The KV design pays for keys, slack slots and block CSTables: the
        // measured footprint must be well above raw payload.
        assert!(
            measured > payload * 2,
            "expected heavy index overhead, got {measured} for payload {payload}"
        );
    }

    #[test]
    fn concurrent_disjoint_sources() {
        let store = PlatoGlStore::with_defaults();
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move |_| {
                    for i in 0..2_000u64 {
                        store.insert_edge(Edge::new(VertexId(t), VertexId(1_000 + i), 1.0));
                    }
                });
            }
        })
        .expect("threads join");
        assert_eq!(store.num_edges(), 8_000);
        for t in 0..4u64 {
            assert_eq!(store.degree(VertexId(t), EdgeType(0)), 2_000);
        }
    }
}
