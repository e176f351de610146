//! Checkpoints: the whole topology written as WAL records.
//!
//! The store rebuilds samtrees bottom-up from a batch (paper Sec. IV,
//! Sec. VI-B), so a checkpoint only has to hand
//! [`DynamicGraphStore::bulk_build`] whole keys: every key's rows, as
//! `Insert` op records, in the WAL's record frames behind their own magic.
//!
//! ```text
//! file    := magic "PD2GCKPT" , record* , closing
//! record  := len u32 | count u32 (> 0) | count × Insert op | crc32c u32   (a WAL record)
//! closing := len u32 | 0 u32 | keys u64 | edges u64 | file_crc u32 | crc32c u32
//! ```
//!
//! A record holds about 8,192 edges of whole keys; a larger key continues
//! in the next record. `file_crc` is CRC32C of every byte before the
//! closing record.

use crate::crc32c::{crc32c, Crc32c};
use crate::wal::{frame_body, invalid, open_frame, seal_frame};
use crate::wal::{MAX_RECORD_LEN, WAL_MAGIC};
use crate::DynamicGraphStore;
use platod2gl_graph::cursor::{put_u32, put_u64, Reader};
use platod2gl_graph::oprecord::{decode_op, encode_op};
use platod2gl_graph::{Edge, EdgeType, UpdateOp, VertexId};
use std::io::{self, Read, Write};

/// Checkpoint file magic.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PD2GCKPT";

/// Edges per record (fewer under unit tests, whose record limit is 64 KiB).
const RECORD_EDGES: usize = if cfg!(test) { 1_800 } else { 8_192 };

/// Write a checkpoint of `stores`, one after another: a cluster passes its
/// shards, so only one shard's rows are in memory at a time. Each store is
/// read one key at a time; concurrent updates land before or after a
/// key's rows, never partially.
pub fn write_checkpoint<'a>(
    mut w: impl Write,
    stores: impl IntoIterator<Item = &'a DynamicGraphStore>,
) -> io::Result<()> {
    w.write_all(CHECKPOINT_MAGIC)?;
    let mut file_crc = Crc32c::new();
    file_crc.update(CHECKPOINT_MAGIC);
    let (mut frame, mut count, mut keys, mut edges) = (Vec::new(), 0, 0u64, 0u64);
    let mut emit = |frame: &mut Vec<u8>, count: &mut usize| {
        seal_frame(frame, std::mem::take(count))?;
        file_crc.update(frame);
        w.write_all(frame)?;
        open_frame(frame);
        io::Result::Ok(())
    };
    open_frame(&mut frame);
    for ((src, etype), rows) in stores.into_iter().flat_map(|s| s.export_adjacency()) {
        if count > 0 && count + rows.len() > RECORD_EDGES {
            emit(&mut frame, &mut count)?;
        }
        keys += 1;
        edges += rows.len() as u64;
        for (dst, weight, ts) in rows {
            let edge = Edge::new(VertexId(src), VertexId(dst), weight).at(ts);
            let etype = EdgeType(etype);
            encode_op(&UpdateOp::Insert(Edge { etype, ..edge }), &mut frame);
            count += 1;
            if count == RECORD_EDGES {
                emit(&mut frame, &mut count)?;
            }
        }
    }
    if count > 0 {
        emit(&mut frame, &mut count)?;
    }
    put_u64(&mut frame, keys);
    put_u64(&mut frame, edges);
    put_u32(&mut frame, file_crc.finish());
    seal_frame(&mut frame, 0)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read a checkpoint one record at a time, handing `sink` whole keys (a
/// key that continues into the next record is held back until it ends).
/// Strict where WAL replay is lenient: a torn tail, a missing or wrong
/// closing record, trailing bytes, an op other than a finite-weight
/// `Insert`, or another file's magic (a retired `PD2GSNAP` snapshot, a
/// `wal.log`) is [`io::ErrorKind::InvalidData`] naming what was found.
/// Keys handed over before the fault stay handed over.
pub fn read_checkpoint(mut r: impl Read, mut sink: impl FnMut(Vec<Edge>)) -> io::Result<()> {
    let mut frame = Vec::new();
    // Read `n` bytes into `frame`; `false` if the file ends first.
    let mut read = |frame: &mut Vec<u8>, n: u64| -> io::Result<bool> {
        frame.clear();
        Ok(r.by_ref().take(n).read_to_end(frame)? as u64 == n)
    };
    if !read(&mut frame, 8)? || frame != CHECKPOINT_MAGIC {
        let what = match frame.as_slice() {
            b"PD2GSNAP" => " (a snapshot in the retired block format)",
            m if m == WAL_MAGIC => " (a write-ahead log)",
            _ => "",
        };
        return Err(invalid(format!(
            "not a PlatoD2GL checkpoint: byte offset 0 holds {:?}{what}; this build \
             reads {:?} checkpoints only",
            String::from_utf8_lossy(&frame),
            String::from_utf8_lossy(CHECKPOINT_MAGIC),
        )));
    }
    let mut file_crc = Crc32c::new();
    file_crc.update(CHECKPOINT_MAGIC);
    let (mut offset, mut edges) = (8u64, Vec::<Edge>::new());
    // The open key's first edge in `edges`, and the counts so far.
    let (mut open, mut keys, mut total) = (0, 0u64, 0u64);
    loop {
        let bad = |what: &str| invalid(format!("checkpoint record at byte offset {offset} {what}"));
        if !read(&mut frame, 4)? {
            return Err(bad("is missing: the file ends without its closing record"));
        }
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        read(&mut frame, u64::from(len.min(MAX_RECORD_LEN)) + 4)?;
        let Some((payload, stored)) = frame_body(&mut Reader::new(&frame), len) else {
            return Err(bad(&format!(
                "declares length {len}: zero, over the limit or cut short"
            )));
        };
        if crc32c(payload) != stored {
            return Err(bad("failed its CRC32C check"));
        }
        let mut p = Reader::new(payload);
        let Ok(count) = p.u32() else {
            return Err(bad("is too short to hold an op count"));
        };
        if count == 0 {
            let expected = (Ok(keys), Ok(total), Ok(file_crc.finish()));
            if (p.u64(), p.u64(), p.u32()) != expected || !p.is_empty() {
                return Err(bad(&format!(
                    "is not the closing record of this file: {keys} keys, {total} edges, \
                     file CRC32C {:#010x}",
                    file_crc.finish()
                )));
            }
            if read(&mut frame, 1)? {
                return Err(bad("is followed by trailing data"));
            }
            if !edges.is_empty() {
                sink(edges);
            }
            return Ok(());
        }
        for _ in 0..count {
            let e = match decode_op(&mut p) {
                Ok(UpdateOp::Insert(e)) if e.weight.is_finite() => e,
                _ => return Err(bad("holds an op other than a finite-weight Insert")),
            };
            if edges.last().map(|l| (l.src, l.etype)) != Some((e.src, e.etype)) {
                (keys, open) = (keys + 1, edges.len());
            }
            edges.push(e);
            total += 1;
        }
        if !p.is_empty() {
            return Err(bad("holds bytes past its last op"));
        }
        if open > 0 {
            let open_key = edges.split_off(std::mem::take(&mut open));
            sink(std::mem::replace(&mut edges, open_key));
        }
        file_crc.update(&len.to_le_bytes());
        file_crc.update(&frame);
        offset += 8 + u64::from(len);
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use platod2gl_graph::GraphStore;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes must never panic the parser — only `Err` out,
        /// with or without the magic in front.
        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let store = DynamicGraphStore::with_defaults();
            let _ = read_checkpoint(data.as_slice(), |b| store.bulk_build(b));
            let prefixed = [CHECKPOINT_MAGIC.as_slice(), &data].concat();
            let _ = read_checkpoint(prefixed.as_slice(), |b| store.bulk_build(b));
            store.check_invariants().expect("invariants after bad restore");
        }

        /// Valid-prefix-then-garbage must never panic either.
        #[test]
        fn corrupted_tail_never_panics(
            cut in 0usize..200,
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let store = DynamicGraphStore::with_defaults();
            for i in 0..20u64 {
                store.insert_edge(Edge::new(VertexId(i % 3), VertexId(100 + i), 1.0));
            }
            let mut bytes = Vec::new();
            write_checkpoint(&mut bytes, [&store]).expect("checkpoint");
            bytes.truncate(cut.min(bytes.len()));
            bytes.extend(garbage);
            let fresh = DynamicGraphStore::with_defaults();
            let _ = read_checkpoint(bytes.as_slice(), |b| fresh.bulk_build(b));
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

    fn checkpoint(store: &DynamicGraphStore) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, [store]).expect("checkpoint");
        bytes
    }

    fn restore(bytes: &[u8]) -> io::Result<DynamicGraphStore> {
        restore_into(bytes, StoreConfig::default())
    }

    fn restore_into(bytes: &[u8], config: StoreConfig) -> io::Result<DynamicGraphStore> {
        let store = DynamicGraphStore::new(config);
        read_checkpoint(bytes, |b| store.bulk_build(b))?;
        Ok(store)
    }

    /// A checkpoint built by hand from `records` (each a record's ops) and
    /// a closing record declaring `keys` keys: CRC-valid whatever it holds.
    fn forged(records: &[&[UpdateOp]], keys: u64) -> Vec<u8> {
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        let mut frame = Vec::new();
        let mut edges = 0;
        for ops in records {
            open_frame(&mut frame);
            ops.iter().for_each(|op| encode_op(op, &mut frame));
            seal_frame(&mut frame, ops.len()).unwrap();
            bytes.extend_from_slice(&frame);
            edges += ops.len() as u64;
        }
        open_frame(&mut frame);
        put_u64(&mut frame, keys);
        put_u64(&mut frame, edges);
        put_u32(&mut frame, crc32c(&bytes));
        seal_frame(&mut frame, 0).unwrap();
        bytes.extend_from_slice(&frame);
        bytes
    }

    fn refused(bytes: &[u8]) -> String {
        let err = restore(bytes).err().expect("must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    /// The checkpoint carries every exported row bit for bit; the restored
    /// trees hold the same rows, their weights read back as Fenwick
    /// prefix-sum differences (so equal to within reconstruction ULPs).
    #[test]
    fn snapshot_roundtrip_preserves_every_edge() {
        let profile = DatasetProfile::tiny();
        let original = DynamicGraphStore::with_defaults();
        for e in profile.edge_stream(13) {
            original.insert_edge(e);
        }
        let bytes = checkpoint(&original);
        let exported: Vec<_> = original
            .export_adjacency()
            .into_iter()
            .flat_map(|((src, etype), rows)| {
                rows.into_iter()
                    .map(move |(dst, w, ts)| (src, etype, dst, w.to_bits(), ts))
            })
            .collect();
        let mut carried = Vec::new();
        read_checkpoint(bytes.as_slice(), |key| {
            carried.extend(key.iter().map(|e| {
                (
                    e.src.raw(),
                    e.etype.0,
                    e.dst.raw(),
                    e.weight.to_bits(),
                    e.ts,
                )
            }))
        })
        .expect("read");
        assert_eq!(carried, exported, "the checkpoint carries rows bit for bit");

        let restored = restore(&bytes).expect("restore");
        assert_eq!(restored.num_edges(), original.num_edges());
        restored.check_invariants().expect("restored invariants");
        let sorted = |store: &DynamicGraphStore| {
            let mut rows: Vec<_> = store
                .export_adjacency()
                .into_iter()
                .flat_map(|(k, rows)| rows.into_iter().map(move |(d, w, t)| (k, d, t, w)))
                .collect();
            rows.sort_by_key(|&(k, d, _, _)| (k, d));
            rows
        };
        let (a, b) = (sorted(&original), sorted(&restored));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.0, x.1, x.2), (y.0, y.1, y.2));
            assert!((x.3 - y.3).abs() <= 1e-9 * x.3.abs(), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn restore_can_change_tree_parameters() {
        // Checkpoints carry adjacency, not tree layout: restoring into a
        // store with different capacity/compression must still work.
        let original = DynamicGraphStore::with_defaults();
        for i in 0..5_000u64 {
            original.insert_edge(Edge::new(VertexId(i % 7), VertexId(1_000 + i), 0.5));
        }
        let restored = restore_into(
            &checkpoint(&original),
            StoreConfig {
                tree: platod2gl_samtree::SamTreeConfig {
                    capacity: 16,
                    alpha: 2,
                    compression: false,
                },
            },
        )
        .expect("restore");
        assert_eq!(restored.num_edges(), 5_000);
        restored.check_invariants().expect("invariants");
    }

    #[test]
    fn empty_store_snapshot_roundtrip() {
        let bytes = checkpoint(&DynamicGraphStore::with_defaults());
        // The magic and a closing record, nothing else.
        assert_eq!(bytes.len(), 8 + 4 + 24 + 4);
        assert_eq!(restore(&bytes).expect("restore").num_edges(), 0);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_timestamps() {
        let store = DynamicGraphStore::with_defaults();
        for i in 0..200u64 {
            store
                .insert_edge(Edge::new(VertexId(i % 9), VertexId(1_000 + i), 1.0 + i as f64).at(i));
        }
        let restored = restore(&checkpoint(&store)).expect("restore");
        assert_eq!(restored.num_edges(), store.num_edges());
        for i in 0..200u64 {
            assert_eq!(
                restored.edge_ts(VertexId(i % 9), VertexId(1_000 + i), EdgeType(0)),
                i,
                "edge {i} timestamp must survive the roundtrip"
            );
        }
    }

    /// An edge costs its op record: 27 B timeless, 35 B stamped, plus a
    /// 12-byte frame per record and the 8-byte magic and 32-byte closing
    /// record per file.
    #[test]
    fn checkpoint_costs_27_or_35_bytes_per_edge() {
        for (ts, per_edge) in [(0u64, 27usize), (5, 35)] {
            let store = DynamicGraphStore::with_defaults();
            for i in 0..1_000u64 {
                store.insert_edge(Edge::new(VertexId(i % 10), VertexId(i), 1.0).at(ts));
            }
            let records = 1_000usize.div_ceil(RECORD_EDGES);
            let bytes = checkpoint(&store);
            assert_eq!(bytes.len(), 8 + records * 12 + 1_000 * per_edge + 32);
        }
    }

    /// Restore hands `bulk_build` whole keys, so a big key restores to the
    /// same trees one bulk load built, even where it spans records (under
    /// test builds a record holds at most 1,800 ops).
    #[test]
    fn a_restored_big_key_matches_its_original_bulk_load() {
        let original = DynamicGraphStore::with_defaults();
        let edge = |i: u64| Edge::new(VertexId(7), VertexId(1_000 + i), 1.0 + (i % 13) as f64);
        original.bulk_build((0..20_000u64).map(edge));
        original.bulk_build((0..50u64).map(|i| Edge::new(VertexId(8), VertexId(i), 2.0)));
        let restored = restore(&checkpoint(&original)).expect("restore");
        restored.check_invariants().expect("invariants");
        assert_eq!(restored.num_edges(), 20_050);
        assert_eq!(restored.topology_bytes(), original.topology_bytes());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let msg = refused(b"NOTASNAPxxxxxxxxxxxx");
        assert!(msg.contains("byte offset 0 holds \"NOTASNAP\""), "{msg}");
    }

    /// Formats this build does not read are refused by their magic, naming
    /// what was found and what is supported: a snapshot of the retired block
    /// format of any version, and a write-ahead log.
    #[test]
    fn unknown_version_error_names_found_and_supported() {
        for version in [1u32, 2, 3, 7] {
            let mut bytes = b"PD2GSNAP".to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            let msg = refused(&bytes);
            assert!(
                msg.contains("\"PD2GSNAP\" (a snapshot in the retired block format)"),
                "{msg}"
            );
            assert!(msg.contains("reads \"PD2GCKPT\" checkpoints only"), "{msg}");
        }
        let mut wal = crate::WalWriter::create(Vec::new()).unwrap();
        wal.append(&[UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.0))])
            .unwrap();
        let msg = refused(&wal.into_inner());
        assert!(msg.contains("\"PD2GWAL2\" (a write-ahead log)"), "{msg}");
    }

    #[test]
    fn truncated_stream_is_rejected_with_offset() {
        let store = DynamicGraphStore::with_defaults();
        store.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        store.insert_edge(Edge::new(VertexId(3), VertexId(4), 1.0).at(9));
        let bytes = checkpoint(&store);
        for cut in 0..bytes.len() {
            let msg = refused(&bytes[..cut]);
            assert!(msg.contains("byte offset"), "cut {cut}: {msg}");
        }
    }

    #[test]
    fn non_finite_weight_is_rejected() {
        // The forged record is CRC-valid, so the decode check is what
        // rejects it — as it does an op other than Insert.
        let nan = UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), f64::NAN));
        assert!(refused(&forged(&[&[nan]], 1)).contains("other than a finite-weight Insert"));
        let delete = UpdateOp::Delete {
            src: VertexId(1),
            dst: VertexId(2),
            etype: EdgeType(0),
        };
        assert!(refused(&forged(&[&[delete]], 1)).contains("other than a finite-weight Insert"));
    }

    /// A closing record that disagrees with the records is refused, and a
    /// forged file that matches its closing record restores.
    #[test]
    fn the_closing_record_must_match_the_records() {
        let ins = |s: u64, d: u64| UpdateOp::Insert(Edge::new(VertexId(s), VertexId(d), 1.0));
        // Key 1 spans both records.
        let records: [&[UpdateOp]; 2] = [&[ins(1, 2), ins(1, 3)], &[ins(1, 4), ins(5, 6)]];
        assert_eq!(
            restore(&forged(&records, 2)).expect("restore").num_edges(),
            4
        );
        let msg = refused(&forged(&records, 3));
        assert!(
            msg.contains("not the closing record of this file: 2 keys, 4 edges"),
            "{msg}"
        );
        let mut no_closing = forged(&records, 2);
        no_closing.truncate(no_closing.len() - 32);
        assert!(refused(&no_closing).contains("without its closing record"));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // The acceptance bar for the checksummed format: flip every bit of
        // a whole checkpoint, one at a time, and demand InvalidData.
        let store = DynamicGraphStore::with_defaults();
        for i in 0..40u64 {
            let edge = Edge::new(VertexId(i % 5), VertexId(100 + i), 0.5 + i as f64);
            store.insert_edge(edge.at(i % 2 * i));
        }
        let bytes = checkpoint(&store);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                refused(&flipped);
            }
        }
    }

    #[test]
    fn trailing_garbage_after_footer_is_rejected() {
        let store = DynamicGraphStore::with_defaults();
        store.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let mut bytes = checkpoint(&store);
        bytes.push(0x42);
        assert!(refused(&bytes).contains("trailing data"));
    }
}
