//! Vertex feature providers.
//!
//! The trainer pulls a fixed-width `f64` feature vector per vertex. In
//! production these come from the attribute KV store; for synthetic
//! workloads a hash-based provider generates stable pseudo-features with a
//! controllable label signal.

use crate::nn::Matrix;
use bytes::Bytes;
use platod2gl_graph::{splitmix64, VertexId};
use platod2gl_storage::AttributeStore;

/// Gather a `nodes.len() x dim` feature matrix from a provider — the
/// "feature gather" stage of the training pipeline, split out as a free
/// function so prefetch workers can run it without borrowing the model.
///
/// A block's last depth (and every level of a padded flow) repeats vertices
/// — hubs, self-padding — so a row is computed the first time its vertex
/// appears and copied for every later slot.
pub fn gather_features(provider: &dyn FeatureProvider, nodes: &[VertexId], dim: usize) -> Matrix {
    assert!(nodes.len() < u32::MAX as usize, "level too large to index");
    // Rows are appended in slot order, so no pass zeroes the matrix first.
    // A block's depths change size from batch to batch: a rounded capacity
    // has consecutive blocks ask the allocator for, and get, the same chunk.
    let mut data: Vec<f64> = Vec::with_capacity((nodes.len() * dim).next_power_of_two());
    // Open-addressed table of first occurrences, at most half full:
    // `first_row[i]` is a row index + 1, or 0 for an empty slot. Fibonacci
    // hashing, not SipHash: a probe has to stay far cheaper than the row a
    // hit saves, and the ids are vertices the graph service itself returned.
    let slots = (nodes.len() * 2).next_power_of_two().max(2);
    let shift = 64 - slots.trailing_zeros();
    let mut first_row = vec![0u32; slots];
    for (r, &v) in nodes.iter().enumerate() {
        let mut i = (v.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            match first_row[i] as usize {
                0 => {
                    first_row[i] = r as u32 + 1;
                    data.resize((r + 1) * dim, 0.0);
                    provider.write_feature(v, &mut data[r * dim..]);
                    break;
                }
                seen if nodes[seen - 1] == v => {
                    data.extend_from_within((seen - 1) * dim..seen * dim);
                    break;
                }
                _ => i = (i + 1) & (slots - 1),
            }
        }
    }
    Matrix::from_vec(nodes.len(), dim, data)
}

/// Supplies the input embedding `e_u^{(0)} = f_u` of the paper's Eq. 1.
pub trait FeatureProvider: Send + Sync {
    /// Feature width.
    fn dim(&self) -> usize;

    /// Write the vertex's feature vector into `out` (length [`dim`](Self::dim)).
    fn write_feature(&self, v: VertexId, out: &mut [f64]);

    /// Convenience: allocate and fill.
    fn feature(&self, v: VertexId) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.write_feature(v, &mut out);
        out
    }
}

/// Features decoded from the attribute store (little-endian `f32`s, the
/// common on-wire format for embedding services). Vertices without a stored
/// attribute get zeros, and so does any stored value that is not finite.
pub struct AttributeFeatures<'a> {
    store: &'a AttributeStore,
    dim: usize,
}

impl<'a> AttributeFeatures<'a> {
    /// Wrap an attribute store, expecting `dim` `f32`s per vertex.
    pub fn new(store: &'a AttributeStore, dim: usize) -> Self {
        Self { store, dim }
    }

    /// Encode a feature vector into the store's byte format.
    pub fn encode(values: &[f64]) -> Bytes {
        let mut out = Vec::with_capacity(values.len() * 4);
        for &v in values {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        Bytes::from(out)
    }
}

impl FeatureProvider for AttributeFeatures<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn write_feature(&self, v: VertexId, out: &mut [f64]) {
        out.fill(0.0);
        if let Some(bytes) = self.store.vertex(v) {
            for (i, chunk) in bytes.chunks_exact(4).take(self.dim).enumerate() {
                let arr: [u8; 4] = chunk.try_into().expect("4-byte chunk");
                // Stored bytes arrive over the write path; a non-finite
                // value reads as 0.0, the rule ingest applies to weights.
                let x = f32::from_le_bytes(arr);
                out[i] = if x.is_finite() { x as f64 } else { 0.0 };
            }
        }
    }
}

/// Deterministic pseudo-features: `dim` values in [-1, 1] derived from a
/// per-vertex hash, with the first coordinate carrying a class signal so
/// synthetic training tasks are learnable.
pub struct HashFeatures {
    dim: usize,
    /// Number of classes whose signal is injected into coordinate 0.
    classes: usize,
    seed: u64,
}

impl HashFeatures {
    /// Create a provider with `dim >= 1` features and `classes >= 1`.
    pub fn new(dim: usize, classes: usize, seed: u64) -> Self {
        assert!(dim >= 1 && classes >= 1);
        Self { dim, classes, seed }
    }

    /// The ground-truth class of a vertex (what a synthetic trainer should
    /// learn to predict).
    pub fn label(&self, v: VertexId) -> usize {
        (splitmix64(v.raw() ^ self.seed) % self.classes as u64) as usize
    }
}

impl FeatureProvider for HashFeatures {
    fn dim(&self) -> usize {
        self.dim
    }

    fn write_feature(&self, v: VertexId, out: &mut [f64]) {
        let mut h = splitmix64(v.raw() ^ self.seed);
        for (i, slot) in out.iter_mut().enumerate() {
            h = splitmix64(h.wrapping_add(i as u64));
            *slot = (h as f64 / u64::MAX as f64) * 2.0 - 1.0;
        }
        // Inject a noisy class signal on coordinate 0.
        let label = self.label(v) as f64;
        out[0] = out[0] * 0.25 + (label / self.classes as f64) * 2.0 - 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_features_are_stable_and_bounded() {
        let p = HashFeatures::new(8, 3, 42);
        let a = p.feature(VertexId(123));
        let b = p.feature(VertexId(123));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for x in &a {
            assert!(x.abs() <= 2.0, "{x}");
        }
        assert_ne!(a, p.feature(VertexId(124)));
    }

    #[test]
    fn labels_cover_all_classes() {
        let p = HashFeatures::new(4, 3, 1);
        let mut seen = [false; 3];
        for v in 0..100u64 {
            seen[p.label(VertexId(v))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn attribute_features_roundtrip() {
        let store = AttributeStore::new();
        let v = VertexId(9);
        store.set_vertex(v, AttributeFeatures::encode(&[0.5, -1.25, 3.0]));
        let p = AttributeFeatures::new(&store, 3);
        let f = p.feature(v);
        assert!((f[0] - 0.5).abs() < 1e-6);
        assert!((f[1] + 1.25).abs() < 1e-6);
        assert!((f[2] - 3.0).abs() < 1e-6);
        // Missing vertex => zeros.
        assert_eq!(p.feature(VertexId(10)), vec![0.0; 3]);
    }

    #[test]
    fn attribute_features_truncate_to_dim() {
        let store = AttributeStore::new();
        let v = VertexId(1);
        store.set_vertex(v, AttributeFeatures::encode(&[1.0, 2.0, 3.0, 4.0]));
        let p = AttributeFeatures::new(&store, 2);
        assert_eq!(p.feature(v), vec![1.0, 2.0]);
    }

    /// `gather_features` against one `feature()` call per slot, bit for bit.
    fn assert_gather_matches_rows(provider: &dyn FeatureProvider, nodes: &[VertexId]) {
        let dim = provider.dim();
        let m = gather_features(provider, nodes, dim);
        assert_eq!((m.rows(), m.cols()), (nodes.len(), dim));
        for (r, &v) in nodes.iter().enumerate() {
            let want: Vec<u64> = provider.feature(v).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = m.row(r).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "row {r} (vertex {v:?})");
        }
    }

    #[test]
    fn gather_with_repeats_equals_row_by_row() {
        // Ids chosen to collide in the first-occurrence table as well as to
        // repeat: multiples of a power of two next to small ids.
        let nodes: Vec<VertexId> = [7u64, 3, 7, 1 << 40, 3, 3, 0, 1 << 41, 7, 0, u64::MAX, 9]
            .iter()
            .map(|&v| VertexId(v))
            .collect();
        let hash = HashFeatures::new(5, 3, 11);
        assert_gather_matches_rows(&hash, &nodes);

        let store = AttributeStore::new();
        store.set_vertex(VertexId(7), AttributeFeatures::encode(&[0.5, -0.0, 2.0]));
        store.set_vertex(VertexId(3), AttributeFeatures::encode(&[1.0])); // short: zero-padded
        store.set_vertex(
            VertexId(9),
            AttributeFeatures::encode(&[f64::NAN, 1.5, 4.0]),
        );
        // Vertices 0, 2^40, 2^41 and u64::MAX have no attribute; 0 repeats.
        let attrs = AttributeFeatures::new(&store, 3);
        assert_gather_matches_rows(&attrs, &nodes);
        assert_eq!(attrs.feature(VertexId(9)), vec![0.0, 1.5, 4.0]);
    }

    #[test]
    fn gather_all_distinct_and_empty_lists() {
        let hash = HashFeatures::new(4, 2, 5);
        let distinct: Vec<VertexId> = (0..300u64).map(|i| VertexId(i * 64)).collect();
        assert_gather_matches_rows(&hash, &distinct);
        assert_gather_matches_rows(&hash, &[]);
        assert_gather_matches_rows(&hash, &[VertexId(1); 9]);
    }
}
