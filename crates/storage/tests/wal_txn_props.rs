//! Property tests for WAL write atomicity: a log of single-op, update-batch
//! and transaction writes — each one record — is truncated at every byte
//! offset and bit-flipped at arbitrary positions, and replay must never
//! deliver part of a write: every batch or transaction whose record made it
//! to disk intact is delivered whole, every other one is dropped whole.

use platod2gl_graph::{Edge, EdgeType, UpdateOp, VertexId};
use platod2gl_storage::{replay_wal, WalReplayReport, WalWriter};
use proptest::collection::vec;
use proptest::prelude::*;

/// Op `k` of segment `seg`: every op carries `src = seg`, so the replay
/// sink can attribute each delivered op to its segment. Transactions mix
/// every op kind (and the timestamped tags); batches are inserts.
fn op(seg: usize, k: usize, txn: bool) -> UpdateOp {
    let edge = Edge {
        src: VertexId(seg as u64),
        dst: VertexId(k as u64 + 1),
        etype: EdgeType::DEFAULT,
        weight: 1.0,
        ts: k as u64 % 2,
    };
    match (txn, k % 3) {
        (false, _) | (true, 0) => UpdateOp::Insert(edge),
        (true, 1) => UpdateOp::UpdateWeight(edge),
        _ => UpdateOp::Delete {
            src: edge.src,
            dst: edge.dst,
            etype: edge.etype,
        },
    }
}

/// One appended segment of the generated log.
struct Segment {
    /// One record for all of the segment's ops (a batch or a transaction),
    /// as opposed to a run of single-op records.
    atomic: bool,
    n_ops: usize,
    /// Byte offset just past the segment's last record. Anything at or past
    /// this offset is durable.
    end_offset: u64,
}

/// Build a WAL of segments. `shape[i] = (kind, n_ops)`: kind 0 appends
/// `n_ops` single-op writes, kind 1 an update batch, anything else a
/// transaction.
fn build_wal(shape: &[(u8, usize)]) -> (Vec<u8>, Vec<Segment>) {
    let mut w = WalWriter::create(Vec::new()).expect("header");
    let mut segments = Vec::new();
    for (i, &(kind, n_ops)) in shape.iter().enumerate() {
        let ops: Vec<_> = (0..n_ops).map(|k| op(i, k, kind > 1)).collect();
        if kind == 0 {
            for op in &ops {
                w.append(std::slice::from_ref(op)).expect("single op");
            }
        } else {
            w.append(&ops).expect("batch or txn");
        }
        segments.push(Segment {
            atomic: kind != 0,
            n_ops,
            end_offset: w.offset(),
        });
    }
    (w.into_inner(), segments)
}

/// Replay `data`, counting delivered ops per segment.
fn replay_counts(data: &[u8], n_segments: usize) -> std::io::Result<(Vec<usize>, WalReplayReport)> {
    let mut counts = vec![0usize; n_segments];
    let report = replay_wal(data, |op| counts[op.src().0 as usize] += 1)?;
    Ok((counts, report))
}

fn arb_shape() -> impl Strategy<Value = Vec<(u8, usize)>> {
    vec((0u8..4, 1usize..6), 1..10)
}

proptest! {
    /// Truncating the log at ANY byte offset never yields a partial
    /// write: writes whose record lies wholly before the cut are delivered
    /// in full, every batch or transaction cut through is dropped in full.
    #[test]
    fn truncation_never_splits_a_transaction(
        shape in arb_shape(),
        cut_seed in any::<u64>(),
    ) {
        let (data, segments) = build_wal(&shape);
        let cut = (cut_seed as usize) % (data.len() + 1);
        if cut > 0 && cut < 8 {
            // Inside the magic header: structurally not a WAL.
            prop_assert!(replay_counts(&data[..cut], segments.len()).is_err());
            return Ok(());
        }
        let (counts, report) = replay_counts(&data[..cut], segments.len())
            .expect("truncation is torn, not corrupt");
        for (i, seg) in segments.iter().enumerate() {
            let got = counts[i];
            if seg.atomic {
                prop_assert!(
                    got == 0 || got == seg.n_ops,
                    "write {} partially delivered: {}/{} ops at cut {}",
                    i, got, seg.n_ops, cut
                );
            }
            if seg.end_offset <= cut as u64 {
                prop_assert_eq!(got, seg.n_ops);
            }
        }
        prop_assert!(report.durable_len <= cut as u64);
    }

    /// Flipping any single bit past the header yields either a structured
    /// replay error or a consistent log — never a partial write, and never
    /// a dropped write that was wholly on disk before the flip.
    #[test]
    fn bit_flips_never_split_a_transaction(
        shape in arb_shape(),
        at_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (mut data, segments) = build_wal(&shape);
        let at = 8 + (at_seed as usize) % (data.len() - 8);
        data[at] ^= 1 << bit;
        let Ok((counts, _)) = replay_counts(&data, segments.len()) else {
            // A hard corruption verdict (interior damage with valid
            // records following) is a legitimate fail-stop outcome.
            return Ok(());
        };
        for (i, seg) in segments.iter().enumerate() {
            let got = counts[i];
            if seg.atomic {
                prop_assert!(
                    got == 0 || got == seg.n_ops,
                    "write {} partially delivered: {}/{} ops after flip at {}",
                    i, got, seg.n_ops, at
                );
            }
            if seg.end_offset <= at as u64 {
                // Damage strictly after this write's record cannot
                // retroactively drop it.
                prop_assert_eq!(got, seg.n_ops);
            }
        }
    }

    /// The unmodified log always replays completely: every segment is
    /// delivered in full and the report covers the whole file.
    #[test]
    fn intact_logs_deliver_every_segment(shape in arb_shape()) {
        let (data, segments) = build_wal(&shape);
        let (counts, report) = replay_counts(&data, segments.len()).expect("intact log");
        for (i, seg) in segments.iter().enumerate() {
            prop_assert_eq!(counts[i], seg.n_ops);
        }
        prop_assert_eq!(report.durable_len, data.len() as u64);
        prop_assert_eq!(report.torn_tail, None);
    }
}
