//! Snapshot / restore for the dynamic topology store.
//!
//! The paper's static-storage competitors must "re-partition and re-deploy
//! from scratch" when graphs change; PlatoD2GL never needs that for
//! updates, but production deployments still checkpoint so a restarted
//! graph server can come back without replaying the full edge history.
//! The snapshot is a compact length-prefixed binary stream; restore feeds
//! [`DynamicGraphStore::bulk_build`], rebuilding every samtree bottom-up.
//!
//! # Format (version 3, little-endian)
//!
//! ```text
//! header : magic "PD2GSNAP" | version u32 = 3 | entry count u64
//! block  : block_len u32 (> 0) | payload [u8; block_len] | crc u32
//! footer : sentinel u32 = 0 | file_crc u32 | end-of-file
//! ```
//!
//! * Each block's `crc` is CRC32C of its payload; a payload is a run of
//!   whole entries (an entry never spans blocks).
//! * `file_crc` is CRC32C of **every preceding byte** — header, all blocks
//!   (including their length and CRC fields) and the sentinel. Because a
//!   bit flip never changes the file length, any single-bit corruption
//!   anywhere before the footer changes `file_crc`'s input, and a flip in
//!   the `file_crc` field itself breaks the comparison: every single-bit
//!   flip is detected even if the per-block framing happens to survive it.
//! * An entry carries the temporal plane's per-edge event time:
//!   `src u64 | etype u16 | degree u32 | degree x (dst u64, weight f64, ts u64)`
//!   (`ts == 0` = timeless edge).
//!
//! [`read_snapshot`] accepts version 3 only; any other version is
//! `InvalidData` naming the version found and the one supported.

use crate::crc32c::{crc32c, Crc32c};
use crate::topology::AdjacencyEntry;
use crate::DynamicGraphStore;
use platod2gl_graph::cursor::{put_u16, put_u32, put_u64, Reader, WireError};
use platod2gl_graph::{Edge, EdgeType, VertexId};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"PD2GSNAP";
/// Current snapshot format version written by [`write_snapshot`].
pub const SNAPSHOT_VERSION: u32 = 3;

/// Edges per block; also the restore batching unit.
const BLOCK_EDGES: usize = 8192;

/// Upper bound on a block payload; larger lengths are corruption.
const MAX_BLOCK_LEN: u32 = 1 << 30;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn encode_entry(((src, etype), rows): &AdjacencyEntry, out: &mut Vec<u8>) {
    put_u64(out, *src);
    put_u16(out, *etype);
    put_u32(out, rows.len() as u32);
    for (dst, weight, ts) in rows {
        put_u64(out, *dst);
        put_u64(out, weight.to_bits());
        put_u64(out, *ts);
    }
}

/// Write adjacency entries in the snapshot format (shared by single-store
/// and cluster snapshots).
pub fn write_snapshot(mut w: impl Write, entries: &[AdjacencyEntry]) -> io::Result<()> {
    let mut file_crc = Crc32c::new();
    let mut emit = |w: &mut dyn Write, bytes: &[u8]| -> io::Result<()> {
        file_crc.update(bytes);
        w.write_all(bytes)
    };

    emit(&mut w, MAGIC)?;
    emit(&mut w, &SNAPSHOT_VERSION.to_le_bytes())?;
    emit(&mut w, &(entries.len() as u64).to_le_bytes())?;

    let mut payload = Vec::new();
    let mut i = 0usize;
    while i < entries.len() {
        payload.clear();
        let mut edges_in_block = 0usize;
        // Pack whole entries until the block holds ~BLOCK_EDGES edges.
        while i < entries.len() && (payload.is_empty() || edges_in_block < BLOCK_EDGES) {
            encode_entry(&entries[i], &mut payload);
            edges_in_block += entries[i].1.len();
            i += 1;
        }
        emit(&mut w, &(payload.len() as u32).to_le_bytes())?;
        emit(&mut w, &payload)?;
        emit(&mut w, &crc32c(&payload).to_le_bytes())?;
    }

    emit(&mut w, &0u32.to_le_bytes())?; // sentinel
    let footer = file_crc.finish();
    w.write_all(&footer.to_le_bytes())?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reader wrapper tracking the byte offset (for error messages) and the
/// running whole-file CRC (for the footer check).
struct TrackedReader<R: Read> {
    r: R,
    offset: u64,
    crc: Crc32c,
}

impl<R: Read> TrackedReader<R> {
    fn new(r: R) -> Self {
        TrackedReader {
            r,
            offset: 0,
            crc: Crc32c::new(),
        }
    }

    /// `read_exact` that folds the bytes into the file CRC and converts
    /// truncation into `InvalidData` naming the offset.
    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> io::Result<()> {
        self.read_raw(buf, what)?;
        self.crc.update(buf);
        Ok(())
    }

    /// `read_exact` that does NOT feed the file CRC (for the footer field).
    fn read_raw(&mut self, buf: &mut [u8], what: &str) -> io::Result<()> {
        match self.r.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(bad_data(format!(
                "snapshot truncated at byte offset {} while reading {what}",
                self.offset
            ))),
            Err(e) => Err(e),
        }
    }

    fn u32(&mut self, what: &str) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Parse a snapshot stream, feeding edges to `sink` in batches of up to
/// 8192 (so restore paths can bulk-load without materializing
/// everything). All structural problems — bad magic, unsupported version,
/// truncation, checksum mismatch, non-finite weights, trailing bytes —
/// are reported as [`io::ErrorKind::InvalidData`] with the byte offset.
pub fn read_snapshot(r: impl Read, mut sink: impl FnMut(Vec<Edge>)) -> io::Result<()> {
    let mut r = TrackedReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(bad_data(format!(
            "not a PlatoD2GL snapshot: bad magic at byte offset 0 (found {magic:02x?}, expected {MAGIC:02x?})"
        )));
    }
    let version_offset = r.offset;
    let version = r.u32("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(bad_data(format!(
            "unsupported snapshot version {version} at byte offset {version_offset}: \
             this build supports version {SNAPSHOT_VERSION}"
        )));
    }
    let declared_entries = r.u64("entry count")?;
    let mut seen_entries = 0u64;

    loop {
        let block_offset = r.offset;
        let block_len = r.u32("block length")?;
        if block_len == 0 {
            // Sentinel: capture the running CRC *before* the footer field.
            let computed = r.crc.finish();
            let mut footer = [0u8; 4];
            r.read_raw(&mut footer, "file checksum")?;
            let stored = u32::from_le_bytes(footer);
            if stored != computed {
                return Err(bad_data(format!(
                    "snapshot file checksum mismatch at byte offset {} \
                     (stored {stored:#010x}, computed {computed:#010x})",
                    r.offset - 4
                )));
            }
            if seen_entries != declared_entries {
                return Err(bad_data(format!(
                    "snapshot declared {declared_entries} entries but contained {seen_entries}"
                )));
            }
            // Nothing may follow the footer.
            let mut probe = [0u8; 1];
            match r.r.read(&mut probe) {
                Ok(0) => return Ok(()),
                Ok(_) => {
                    return Err(bad_data(format!(
                        "trailing data after snapshot footer at byte offset {}",
                        r.offset
                    )))
                }
                Err(e) => return Err(e),
            }
        }
        if block_len > MAX_BLOCK_LEN {
            return Err(bad_data(format!(
                "snapshot block at byte offset {block_offset} declares an absurd \
                 length {block_len} (max {MAX_BLOCK_LEN})"
            )));
        }
        let mut payload = vec![0u8; block_len as usize];
        r.read_exact(&mut payload, "block payload")?;
        let stored = r.u32("block checksum")?;
        let computed = crc32c(&payload);
        if stored != computed {
            return Err(bad_data(format!(
                "snapshot block at byte offset {block_offset} failed its CRC32C \
                 check (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        seen_entries += parse_block(&payload, block_offset, &mut sink)?;
    }
}

/// Parse a CRC-validated block payload: a run of whole entries.
fn parse_block(
    payload: &[u8],
    block_offset: u64,
    sink: &mut impl FnMut(Vec<Edge>),
) -> io::Result<u64> {
    let corrupt = |detail: &str| {
        bad_data(format!(
            "snapshot block at byte offset {block_offset} passed its CRC but \
             does not decode: {detail}"
        ))
    };
    let past = |_: WireError| corrupt("entry extends past the block");
    let mut r = Reader::new(payload);
    let mut entries = 0u64;
    let mut batch: Vec<Edge> = Vec::with_capacity(BLOCK_EDGES);
    while !r.is_empty() {
        let src = VertexId(r.u64().map_err(past)?);
        let etype = EdgeType(r.u16().map_err(past)?);
        let degree = r.u32().map_err(past)?;
        for _ in 0..degree {
            let dst = VertexId(r.u64().map_err(past)?);
            let weight = r.f64().map_err(past)?;
            if !weight.is_finite() {
                return Err(corrupt("non-finite edge weight"));
            }
            let ts = r.u64().map_err(past)?;
            batch.push(Edge {
                src,
                dst,
                etype,
                weight,
                ts,
            });
            if batch.len() >= BLOCK_EDGES {
                sink(std::mem::take(&mut batch));
                batch = Vec::with_capacity(BLOCK_EDGES);
            }
        }
        entries += 1;
    }
    if !batch.is_empty() {
        sink(batch);
    }
    Ok(entries)
}

impl DynamicGraphStore {
    /// Write a snapshot of the whole topology (carrying each edge's event
    /// time).
    ///
    /// Takes a point-in-time view per source vertex (each samtree is read
    /// under its own lock); concurrent updates land either before or after
    /// a vertex's entry, never partially.
    pub fn snapshot_to(&self, w: impl Write) -> io::Result<()> {
        write_snapshot(w, &self.export_adjacency())
    }

    /// Read a snapshot into this (normally empty) store via the bulk-load
    /// path.
    pub fn restore_from(&self, r: impl Read) -> io::Result<()> {
        read_snapshot(r, |batch| self.bulk_build(batch))
    }
}

#[cfg(test)]
mod fuzz {
    use crate::DynamicGraphStore;
    use platod2gl_graph::GraphStore;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes must never panic the parser — only `Err` out.
        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let store = DynamicGraphStore::with_defaults();
            let _ = store.restore_from(data.as_slice());
        }

        /// Valid-prefix-then-garbage must never panic either.
        #[test]
        fn corrupted_tail_never_panics(
            cut in 0usize..200,
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let store = DynamicGraphStore::with_defaults();
            for i in 0..20u64 {
                store.insert_edge(platod2gl_graph::Edge::new(
                    platod2gl_graph::VertexId(i % 3),
                    platod2gl_graph::VertexId(100 + i),
                    1.0,
                ));
            }
            let mut bytes = Vec::new();
            store.snapshot_to(&mut bytes).expect("snapshot");
            bytes.truncate(cut.min(bytes.len()));
            bytes.extend(garbage);
            let fresh = DynamicGraphStore::with_defaults();
            let _ = fresh.restore_from(bytes.as_slice());
            // Whatever happened, the store must stay structurally valid.
            fresh.check_invariants().expect("invariants after bad restore");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use platod2gl_graph::{DatasetProfile, GraphStore};

    #[test]
    fn snapshot_roundtrip_preserves_every_edge() {
        let profile = DatasetProfile::tiny();
        let original = DynamicGraphStore::with_defaults();
        for e in profile.edge_stream(13) {
            original.insert_edge(e);
        }
        let mut bytes = Vec::new();
        original.snapshot_to(&mut bytes).expect("snapshot");
        assert!(bytes.len() > 16);

        let restored = DynamicGraphStore::new(StoreConfig::default());
        restored.restore_from(bytes.as_slice()).expect("restore");
        assert_eq!(restored.num_edges(), original.num_edges());
        restored.check_invariants().expect("restored invariants");
        for src in profile.sample_sources(100, 3) {
            let mut a = original.neighbors(src, EdgeType(0));
            let mut b = restored.neighbors(src, EdgeType(0));
            a.sort_by_key(|(id, _)| id.raw());
            b.sort_by_key(|(id, _)| id.raw());
            assert_eq!(a.len(), b.len(), "src {src:?}");
            for ((ia, wa), (ib, wb)) in a.iter().zip(&b) {
                assert_eq!(ia, ib);
                assert!((wa - wb).abs() < 1e-9, "weights must roundtrip exactly");
            }
        }
    }

    #[test]
    fn restore_can_change_tree_parameters() {
        // Snapshots carry adjacency, not tree layout: restoring into a
        // store with different capacity/compression must still work.
        let original = DynamicGraphStore::with_defaults();
        for i in 0..5_000u64 {
            original.insert_edge(Edge::new(VertexId(i % 7), VertexId(1_000 + i), 0.5));
        }
        let mut bytes = Vec::new();
        original.snapshot_to(&mut bytes).expect("snapshot");
        let restored = DynamicGraphStore::new(StoreConfig {
            tree: platod2gl_samtree::SamTreeConfig {
                capacity: 16,
                alpha: 2,
                compression: false,
            },
        });
        restored.restore_from(bytes.as_slice()).expect("restore");
        assert_eq!(restored.num_edges(), 5_000);
        restored.check_invariants().expect("invariants");
    }

    #[test]
    fn empty_store_snapshot_roundtrip() {
        let store = DynamicGraphStore::with_defaults();
        let mut bytes = Vec::new();
        store.snapshot_to(&mut bytes).expect("snapshot");
        let restored = DynamicGraphStore::with_defaults();
        restored.restore_from(bytes.as_slice()).expect("restore");
        assert_eq!(restored.num_edges(), 0);
    }

    #[test]
    fn v3_roundtrip_preserves_timestamps() {
        let store = DynamicGraphStore::with_defaults();
        for i in 0..200u64 {
            store
                .insert_edge(Edge::new(VertexId(i % 9), VertexId(1_000 + i), 1.0 + i as f64).at(i));
        }
        let mut bytes = Vec::new();
        store.snapshot_to(&mut bytes).expect("snapshot");
        let restored = DynamicGraphStore::with_defaults();
        restored.restore_from(bytes.as_slice()).expect("restore");
        assert_eq!(restored.num_edges(), store.num_edges());
        for i in 0..200u64 {
            assert_eq!(
                restored.edge_ts(VertexId(i % 9), VertexId(1_000 + i), EdgeType(0)),
                i,
                "edge {i} timestamp must survive the v3 roundtrip"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let store = DynamicGraphStore::with_defaults();
        let err = store
            .restore_from(&b"NOTASNAPxxxxxxxxxxxx"[..])
            .expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte offset 0"), "{err}");
    }

    #[test]
    fn unknown_version_error_names_found_and_supported() {
        // 1 and 2 are the retired formats, 7 one that never existed.
        for version in [1u32, 2, 7] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            let store = DynamicGraphStore::with_defaults();
            let err = store.restore_from(bytes.as_slice()).expect_err("reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {version} ")), "{msg}");
            assert!(msg.contains("supports version 3"), "{msg}");
        }
    }

    #[test]
    fn truncated_stream_is_rejected_with_offset() {
        let store = DynamicGraphStore::with_defaults();
        store.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let mut bytes = Vec::new();
        store.snapshot_to(&mut bytes).expect("snapshot");
        for cut in [bytes.len() - 1, bytes.len() - 4, bytes.len() / 2, 21] {
            let fresh = DynamicGraphStore::with_defaults();
            let err = fresh
                .restore_from(&bytes[..cut])
                .expect_err("truncation must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
            assert!(err.to_string().contains("byte offset"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn non_finite_weight_is_rejected() {
        // The writer checksums what it is given, so the NaN sits in a
        // CRC-valid block and the parse check is what rejects it.
        let entries: Vec<AdjacencyEntry> = vec![((1, 0), vec![(2, f64::NAN, 0)])];
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &entries).expect("write");
        let fresh = DynamicGraphStore::with_defaults();
        let err = fresh
            .restore_from(bytes.as_slice())
            .expect_err("reject NaN");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // The acceptance bar for the checksummed format: flip every bit of
        // a whole snapshot, one at a time, and demand InvalidData.
        let store = DynamicGraphStore::with_defaults();
        for i in 0..40u64 {
            store.insert_edge(Edge::new(
                VertexId(i % 5),
                VertexId(100 + i),
                0.5 + i as f64,
            ));
        }
        let mut bytes = Vec::new();
        store.snapshot_to(&mut bytes).expect("snapshot");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let fresh = DynamicGraphStore::with_defaults();
                let err = fresh
                    .restore_from(flipped.as_slice())
                    .expect_err("corruption must be detected");
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "flip at {byte}:{bit} produced wrong error kind: {err}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_after_footer_is_rejected() {
        let store = DynamicGraphStore::with_defaults();
        store.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let mut bytes = Vec::new();
        store.snapshot_to(&mut bytes).expect("snapshot");
        bytes.push(0x42);
        let fresh = DynamicGraphStore::with_defaults();
        let err = fresh.restore_from(bytes.as_slice()).expect_err("reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing data"), "{err}");
    }
}
