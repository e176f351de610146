//! Attribute storage (paper Sec. III: "As for the attribute storage, the
//! key-value store is used").
//!
//! Features are opaque byte blobs (the trainer layer decodes them into
//! tensors). Unlike topology, attributes are point-looked-up by exact key
//! and never range-scanned or sampled, so a key-value design has no index
//! disadvantage here.

use bytes::Bytes;
use platod2gl_cuckoo::CuckooMap;
use platod2gl_graph::VertexId;
use platod2gl_mem::DeepSize;

/// Wrapper so the cuckoo map can account for blob memory.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blob(Bytes);

impl DeepSize for Blob {
    fn heap_bytes(&self) -> usize {
        self.0.len()
    }
}

/// Concurrent attribute store for vertex features.
#[derive(Default)]
pub struct AttributeStore {
    vertex: CuckooMap<u64, Blob>,
}

impl AttributeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store the feature bytes of a vertex, replacing any previous value.
    pub fn set_vertex(&self, v: VertexId, data: Bytes) {
        self.vertex.insert(v.raw(), Blob(data));
    }

    /// Fetch the feature bytes of a vertex. `Bytes` clones are cheap
    /// (refcounted), so this returns an owned handle.
    pub fn vertex(&self, v: VertexId) -> Option<Bytes> {
        self.vertex.read(&v.raw(), |b| b.0.clone())
    }

    /// Total heap bytes (blobs plus KV index overhead).
    pub fn attribute_bytes(&self) -> usize {
        self.vertex.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn vertex_attr_roundtrip() {
        let store = AttributeStore::new();
        store.set_vertex(v(1), Bytes::from_static(b"feat1"));
        store.set_vertex(v(2), Bytes::from_static(b"feat2"));
        assert_eq!(store.vertex(v(1)).as_deref(), Some(&b"feat1"[..]));
        assert_eq!(store.vertex(v(2)).as_deref(), Some(&b"feat2"[..]));
        assert_eq!(store.vertex(v(3)), None);
    }

    #[test]
    fn overwrite_replaces_value() {
        let store = AttributeStore::new();
        store.set_vertex(v(7), Bytes::from_static(b"old"));
        let one = store.attribute_bytes();
        store.set_vertex(v(7), Bytes::from_static(b"new"));
        assert_eq!(store.vertex(v(7)).as_deref(), Some(&b"new"[..]));
        assert_eq!(store.attribute_bytes(), one, "replaced, not added");
    }

    #[test]
    fn memory_counts_blob_bytes() {
        let store = AttributeStore::new();
        let before = store.attribute_bytes();
        store.set_vertex(v(1), Bytes::from(vec![0u8; 4096]));
        assert!(store.attribute_bytes() >= before + 4096);
    }

    #[test]
    fn concurrent_attribute_writes() {
        let store = AttributeStore::new();
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move |_| {
                    for i in 0..1_000u64 {
                        store.set_vertex(v(t * 1_000 + i), Bytes::from(vec![t as u8; 16]));
                    }
                });
            }
        })
        .expect("threads join");
        for i in 0..4_000u64 {
            let want = [(i / 1_000) as u8; 16];
            assert_eq!(store.vertex(v(i)).as_deref(), Some(&want[..]));
        }
    }
}
