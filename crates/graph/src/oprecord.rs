//! The workspace's one [`UpdateOp`] record, shared by the WAL,
//! checkpoints, update and replica batches and migration tail replies.
//!
//! ```text
//! op := tag:u8 , src:u64 , dst:u64 , etype:u16 [, weight:f64-bits [, ts:u64]]
//!   tag 1 Insert 27 B · 2 Delete 19 B · 3 UpdateWeight 27 B
//!   tag 7 / 8: Insert / UpdateWeight of a stamped edge (ts != 0), 35 B
//! ```
//!
//! The weight travels bit for bit: each reader decides what a non-finite
//! one means (WAL replay clamps it, a checkpoint refuses it, a server's
//! admission sees it). Like [`crate::cursor`]'s primitives the codec is
//! `#[inline]`: every caller lives in another crate.

use crate::cursor::{put_u16, put_u64, Reader, WireError};
use crate::{Edge, EdgeType, UpdateOp, VertexId};

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_UPDATE_WEIGHT: u8 = 3;
const TAG_INSERT_TS: u8 = 7;
const TAG_UPDATE_WEIGHT_TS: u8 = 8;

/// Encoded size of the smallest op (a Delete): the per-op floor a decoder
/// validates a forged op count against.
pub const MIN_OP_BYTES: usize = 19;

/// Encoded size of the largest op (a stamped Insert or UpdateWeight).
pub const MAX_OP_BYTES: usize = 35;

/// Encoded size of `op`.
#[inline]
pub fn op_bytes(op: &UpdateOp) -> usize {
    match op {
        UpdateOp::Delete { .. } => MIN_OP_BYTES,
        UpdateOp::Insert(e) | UpdateOp::UpdateWeight(e) if e.ts != 0 => MAX_OP_BYTES,
        _ => MIN_OP_BYTES + 8,
    }
}

/// Append one op record to `out`.
#[inline]
pub fn encode_op(op: &UpdateOp, out: &mut Vec<u8>) {
    let (plain, stamped, e) = match op {
        UpdateOp::Insert(e) => (TAG_INSERT, TAG_INSERT_TS, e),
        UpdateOp::UpdateWeight(e) => (TAG_UPDATE_WEIGHT, TAG_UPDATE_WEIGHT_TS, e),
        UpdateOp::Delete { src, dst, etype } => {
            out.push(TAG_DELETE);
            return encode_key(*src, *dst, *etype, out);
        }
    };
    out.push(if e.ts != 0 { stamped } else { plain });
    encode_key(e.src, e.dst, e.etype, out);
    put_u64(out, e.weight.to_bits());
    if e.ts != 0 {
        put_u64(out, e.ts);
    }
}

#[inline]
fn encode_key(src: VertexId, dst: VertexId, etype: EdgeType, out: &mut Vec<u8>) {
    put_u64(out, src.raw());
    put_u64(out, dst.raw());
    put_u16(out, etype.0);
}

/// Decode one op record.
#[inline]
pub fn decode_op(r: &mut Reader<'_>) -> Result<UpdateOp, WireError> {
    let tag = r.u8()?;
    let src = VertexId(r.u64()?);
    let dst = VertexId(r.u64()?);
    let etype = EdgeType(r.u16()?);
    if tag == TAG_DELETE {
        return Ok(UpdateOp::Delete { src, dst, etype });
    }
    let weight = r.f64()?;
    let ts = match tag {
        TAG_INSERT | TAG_UPDATE_WEIGHT => 0,
        TAG_INSERT_TS | TAG_UPDATE_WEIGHT_TS => r.u64()?,
        tag => {
            return Err(WireError::BadTag {
                what: "update op",
                tag,
            })
        }
    };
    let edge = Edge {
        src,
        dst,
        etype,
        weight,
        ts,
    };
    Ok(match tag {
        TAG_INSERT | TAG_INSERT_TS => UpdateOp::Insert(edge),
        _ => UpdateOp::UpdateWeight(edge),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_ops_roundtrip_at_their_tag_sizes() {
        let ops = [
            (
                UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 0.5)),
                27,
            ),
            (
                UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 0.5).at(1234)),
                35,
            ),
            (
                UpdateOp::UpdateWeight(Edge::new(VertexId(3), VertexId(4), 2.5)),
                27,
            ),
            (
                UpdateOp::UpdateWeight(Edge::new(VertexId(3), VertexId(4), 2.5).at(9)),
                35,
            ),
            (
                UpdateOp::Delete {
                    src: VertexId(5),
                    dst: VertexId(6),
                    etype: EdgeType(9),
                },
                19,
            ),
        ];
        for (op, size) in &ops {
            let mut buf = Vec::new();
            encode_op(op, &mut buf);
            assert_eq!(buf.len(), *size, "{op:?}");
            assert_eq!(op_bytes(op), *size, "{op:?}");
            let mut r = Reader::new(&buf);
            assert_eq!(decode_op(&mut r).expect("decode"), *op);
            assert!(r.is_empty());
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_op(&mut Reader::new(&buf[..cut])),
                    Err(WireError::Truncated)
                );
            }
        }
    }

    #[test]
    fn weights_travel_bit_for_bit_and_unknown_tags_are_refused() {
        for weight in [f64::NAN, f64::INFINITY, -0.0] {
            let op = UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), weight));
            let mut buf = Vec::new();
            encode_op(&op, &mut buf);
            match decode_op(&mut Reader::new(&buf)).expect("decode") {
                UpdateOp::Insert(e) => assert_eq!(e.weight.to_bits(), weight.to_bits()),
                other => panic!("decoded {other:?}"),
            }
        }
        for tag in [0u8, 4, 9, 0xff] {
            let mut buf = vec![tag];
            buf.extend_from_slice(&[0u8; 34]);
            assert_eq!(
                decode_op(&mut Reader::new(&buf)),
                Err(WireError::BadTag {
                    what: "update op",
                    tag
                })
            );
        }
    }
}
