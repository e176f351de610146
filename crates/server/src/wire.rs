//! Record-level wire encoding for the graph-service RPC protocol.
//!
//! This module is the **single source of truth for on-wire record sizes**:
//! the rpc crate's frame codec (`platod2gl-rpc`) encodes requests and
//! responses with these functions, and [`Cluster`](crate::Cluster)'s
//! simulated-traffic accounting (`cluster.request_bytes` /
//! `cluster.response_bytes`) is computed from the same functions — so an
//! in-process run and a remote run over real sockets report comparable
//! `net.*` numbers instead of drifting hand-estimates.
//!
//! Records are little-endian and fixed-layout (no varints): a
//! [`SampleRequest`] record is always [`SAMPLE_REQUEST_BYTES`] bytes, an
//! [`UpdateOp`] record always [`UPDATE_OP_BYTES`]. The *frame* layer —
//! length prefix, protocol version byte, message kind, CRC32C trailer —
//! lives in `platod2gl-rpc::codec`; its fixed overhead is
//! [`FRAME_OVERHEAD_BYTES`] and is included by the `*_frame_bytes` sizing
//! helpers below.
//!
//! ## Record layouts
//!
//! ```text
//! SampleRequest  (32 B): vertex u64 | etype u16 | fanout u32 | policy u8
//!                        | trace_present u8 | trace_id u64 | rng_seed u64
//! SampleResponse (9 + 9n B): flags u8 (bit0 = degraded) | shard u32 | n u32
//!                        | n x (neighbor u64 | source u8)
//! UpdateOp       (35 B): kind u8 | src u64 | dst u64 | etype u16 | weight f64
//!                        | ts u64
//! TxnOp          (35 B): kind u8 | src u64 | dst u64 | etype u16 | weight f64
//!                        | ts u64
//! TimeWindowBlk  (1 + 17n B): tag u8 = 1 | n x (present u8 | min_ts u64
//!                        | max_ts u64)
//! ```
//!
//! The `rng_seed` field makes remote sampling deterministic: the client
//! draws exactly one `u64` from its RNG per request and ships it; the
//! server seeds a fresh `StdRng` from it. The in-process
//! [`GraphService`](crate::GraphService) implementation performs the same
//! derivation, so a trainer produces identical draws against either.
//!
//! The time-window block is an **optional trailer** after a sample batch's
//! fixed records: a batch with no windowed request omits it entirely, so
//! the encoding is byte-identical to the pre-temporal protocol and old
//! clients/servers interoperate unchanged.

use crate::request::{DegradedPolicy, SampleRequest, SampleResponse, SlotSource};
pub use platod2gl_graph::cursor::{
    get_opt_u64, get_str, put_opt_u64, put_str, put_u16, put_u32, put_u64, Reader, WireError,
};
use platod2gl_graph::{Edge, EdgeType, ShardHealth, TimeWindow, TxnOp, UpdateOp, VertexId};
use platod2gl_obs::TraceContext;

/// Fixed per-frame overhead of the rpc frame layer: 4-byte length
/// prefix, 1 version byte, 1 kind byte, 8-byte req_id, 4-byte CRC32C
/// trailer.
pub const FRAME_OVERHEAD_BYTES: u64 = 18;

/// Encoded size of one [`SampleRequest`] record.
pub const SAMPLE_REQUEST_BYTES: u64 = 32;

/// Encoded size of one [`UpdateOp`] record.
pub const UPDATE_OP_BYTES: u64 = 35;

/// Encoded size of one time-window block entry (present flag u8 + min_ts
/// u64 + max_ts u64).
pub const TIME_WINDOW_ENTRY_BYTES: u64 = 17;

/// Tag byte opening a time-window block trailer.
pub const TIME_WINDOW_BLOCK_TAG: u8 = 1;

/// Encoded size of one optional [`TraceContext`]: present flag u8 +
/// trace_id u64 + parent_span u64, always 17 bytes so batch headers stay
/// fixed-layout.
pub const TRACE_CTX_BYTES: u64 = 17;

/// Fixed trailer every *reply* frame carries between payload and CRC:
/// queue_us u32 + service_us u32 — the server-side timing echo that lets a
/// client split observed round-trip latency into network vs. server
/// queueing vs. service time.
pub const REPLY_TIMING_ECHO_BYTES: u64 = 8;

/// Fixed body prefix of a sample-batch request frame: deadline u32 +
/// trace context ([`TRACE_CTX_BYTES`]) + request count u32.
pub const SAMPLE_BATCH_HEADER_BYTES: u64 = 4 + TRACE_CTX_BYTES + 4;

/// Fixed body prefix of an update-batch request frame: deadline u32 +
/// trace context ([`TRACE_CTX_BYTES`]) + op count u32.
pub const UPDATE_BATCH_HEADER_BYTES: u64 = 4 + TRACE_CTX_BYTES + 4;

/// Encoded size of one [`SampleResponse`] record with `n` neighbor slots.
pub fn sample_response_bytes(n: usize) -> u64 {
    9 + 9 * n as u64
}

/// Full on-wire size of a sample request frame carrying `count` requests
/// (no time-window trailer; see [`time_window_block_bytes`]).
pub fn sample_request_frame_bytes(count: usize) -> u64 {
    FRAME_OVERHEAD_BYTES + SAMPLE_BATCH_HEADER_BYTES + count as u64 * SAMPLE_REQUEST_BYTES
}

/// Extra on-wire bytes of the optional time-window trailer when at least
/// one request in a `count`-request batch carries a window.
pub fn time_window_block_bytes(count: usize) -> u64 {
    1 + count as u64 * TIME_WINDOW_ENTRY_BYTES
}

/// Full on-wire size of a sample reply frame whose responses carry the
/// given neighbor-slot counts (includes the timing echo trailer).
pub fn sample_response_frame_bytes(neighbor_counts: impl IntoIterator<Item = usize>) -> u64 {
    FRAME_OVERHEAD_BYTES
        + REPLY_TIMING_ECHO_BYTES
        + 4
        + neighbor_counts
            .into_iter()
            .map(sample_response_bytes)
            .sum::<u64>()
}

/// Full on-wire size of an update request frame carrying `ops` ops.
pub fn update_frame_bytes(ops: usize) -> u64 {
    FRAME_OVERHEAD_BYTES + UPDATE_BATCH_HEADER_BYTES + ops as u64 * UPDATE_OP_BYTES
}

/// Full on-wire size of an update reply frame (applied u64 + queued u64 +
/// timing echo).
pub const UPDATE_REPLY_FRAME_BYTES: u64 = FRAME_OVERHEAD_BYTES + 16 + REPLY_TIMING_ECHO_BYTES;

/// Encoded size of one [`TxnOp`] record (same fixed 35-byte layout as
/// [`UpdateOp`]: vertex-granular ops carry a zero dst/weight/ts).
pub const TXN_OP_BYTES: u64 = 35;

/// Fixed body prefix of a txn-apply frame: txn_id u64 + trace context
/// ([`TRACE_CTX_BYTES`]) + op count u32.
pub const TXN_BATCH_HEADER_BYTES: u64 = 8 + TRACE_CTX_BYTES + 4;

/// Full on-wire size of a txn-apply frame carrying `ops` typed ops.
pub fn txn_frame_bytes(ops: usize) -> u64 {
    FRAME_OVERHEAD_BYTES + TXN_BATCH_HEADER_BYTES + ops as u64 * TXN_OP_BYTES
}

/// Full on-wire size of a committed txn reply frame (status u8 + txn_id
/// u64 + ops_applied u64 + graph_version u64 + deduped u8 + timing echo).
/// Rejection replies are larger (they carry violations); the traffic model
/// uses the commit size, the overwhelmingly common case.
pub const TXN_REPLY_FRAME_BYTES: u64 = FRAME_OVERHEAD_BYTES + 26 + REPLY_TIMING_ECHO_BYTES;

/// Encode an optional [`TraceContext`] (always [`TRACE_CTX_BYTES`]:
/// present flag u8 + trace_id u64 + parent_span u64, zeros when absent).
pub fn put_trace_ctx(buf: &mut Vec<u8>, ctx: Option<TraceContext>) {
    let before = buf.len();
    buf.push(u8::from(ctx.is_some()));
    put_u64(buf, ctx.map_or(0, |c| c.trace_id));
    put_u64(buf, ctx.map_or(0, |c| c.parent_span));
    debug_assert_eq!((buf.len() - before) as u64, TRACE_CTX_BYTES);
}

/// Decode an optional [`TraceContext`].
pub fn get_trace_ctx(r: &mut Reader<'_>) -> Result<Option<TraceContext>, WireError> {
    let present = r.flag("trace ctx")?;
    let trace_id = r.u64()?;
    let parent_span = r.u64()?;
    Ok(present.then_some(TraceContext {
        trace_id,
        parent_span,
    }))
}

fn policy_tag(p: DegradedPolicy) -> u8 {
    match p {
        DegradedPolicy::EmptySet => 0,
        DegradedPolicy::SelfLoop => 1,
    }
}

fn policy_from(tag: u8) -> Result<DegradedPolicy, WireError> {
    match tag {
        0 => Ok(DegradedPolicy::EmptySet),
        1 => Ok(DegradedPolicy::SelfLoop),
        tag => Err(WireError::BadTag {
            what: "degraded policy",
            tag,
        }),
    }
}

fn source_tag(s: SlotSource) -> u8 {
    match s {
        SlotSource::Sampled => 0,
        SlotSource::SelfLoop => 1,
    }
}

fn source_from(tag: u8) -> Result<SlotSource, WireError> {
    match tag {
        0 => Ok(SlotSource::Sampled),
        1 => Ok(SlotSource::SelfLoop),
        tag => Err(WireError::BadTag {
            what: "slot source",
            tag,
        }),
    }
}

/// Encode one shard health as a byte.
pub fn health_tag(h: ShardHealth) -> u8 {
    match h {
        ShardHealth::Healthy => 0,
        ShardHealth::Degraded => 1,
        ShardHealth::Failed => 2,
    }
}

/// Decode one shard health byte.
pub fn health_from(tag: u8) -> Result<ShardHealth, WireError> {
    match tag {
        0 => Ok(ShardHealth::Healthy),
        1 => Ok(ShardHealth::Degraded),
        2 => Ok(ShardHealth::Failed),
        tag => Err(WireError::BadTag {
            what: "shard health",
            tag,
        }),
    }
}

/// Encode one [`SampleRequest`] record plus its per-request RNG seed.
pub fn put_sample_request(buf: &mut Vec<u8>, req: &SampleRequest, rng_seed: u64) {
    let before = buf.len();
    put_u64(buf, req.vertex.raw());
    put_u16(buf, req.etype.0);
    put_u32(buf, req.fanout as u32);
    buf.push(policy_tag(req.on_degraded));
    put_opt_u64(buf, req.trace_id);
    put_u64(buf, rng_seed);
    debug_assert_eq!((buf.len() - before) as u64, SAMPLE_REQUEST_BYTES);
}

/// Decode one [`SampleRequest`] record; returns the request and its seed.
/// The optional time window rides in the batch trailer
/// ([`get_time_window_block`]), not the fixed record, so it decodes as
/// `None` here; the batch decoder patches it in.
pub fn get_sample_request(r: &mut Reader<'_>) -> Result<(SampleRequest, u64), WireError> {
    let vertex = VertexId(r.u64()?);
    let etype = EdgeType(r.u16()?);
    let fanout = r.u32()? as usize;
    let on_degraded = policy_from(r.u8()?)?;
    let trace_id = get_opt_u64(r)?;
    let rng_seed = r.u64()?;
    Ok((
        SampleRequest {
            vertex,
            etype,
            fanout,
            on_degraded,
            trace_id,
            window: None,
        },
        rng_seed,
    ))
}

/// Encode one [`SampleResponse`] record.
pub fn put_sample_response(buf: &mut Vec<u8>, resp: &SampleResponse) {
    let before = buf.len();
    buf.push(u8::from(resp.degraded));
    put_u32(buf, resp.shard as u32);
    put_u32(buf, resp.neighbors.len() as u32);
    for (i, v) in resp.neighbors.iter().enumerate() {
        put_u64(buf, v.raw());
        let source = resp.sources.get(i).copied().unwrap_or(SlotSource::Sampled);
        buf.push(source_tag(source));
    }
    debug_assert_eq!(
        (buf.len() - before) as u64,
        sample_response_bytes(resp.neighbors.len())
    );
}

/// Decode one [`SampleResponse`] record.
pub fn get_sample_response(r: &mut Reader<'_>) -> Result<SampleResponse, WireError> {
    let degraded = r.flag("flags")?;
    let shard = r.u32()? as usize;
    let n = r.count(9)?;
    let mut neighbors = Vec::with_capacity(n);
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        neighbors.push(VertexId(r.u64()?));
        sources.push(source_from(r.u8()?)?);
    }
    Ok(SampleResponse {
        neighbors,
        sources,
        degraded,
        shard,
    })
}

const OP_INSERT: u8 = 0;
const OP_UPDATE_WEIGHT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Encode one [`UpdateOp`] record (fixed layout: deletes carry a zero
/// weight and timestamp so every op is [`UPDATE_OP_BYTES`]).
pub fn put_update_op(buf: &mut Vec<u8>, op: &UpdateOp) {
    let before = buf.len();
    let (kind, src, dst, etype, weight, ts) = match op {
        UpdateOp::Insert(e) => (OP_INSERT, e.src, e.dst, e.etype, e.weight, e.ts),
        UpdateOp::UpdateWeight(e) => (OP_UPDATE_WEIGHT, e.src, e.dst, e.etype, e.weight, e.ts),
        UpdateOp::Delete { src, dst, etype } => (OP_DELETE, *src, *dst, *etype, 0.0, 0),
    };
    buf.push(kind);
    put_u64(buf, src.raw());
    put_u64(buf, dst.raw());
    put_u16(buf, etype.0);
    buf.extend_from_slice(&weight.to_le_bytes());
    put_u64(buf, ts);
    debug_assert_eq!((buf.len() - before) as u64, UPDATE_OP_BYTES);
}

/// Decode one [`UpdateOp`] record.
pub fn get_update_op(r: &mut Reader<'_>) -> Result<UpdateOp, WireError> {
    let kind = r.u8()?;
    let src = VertexId(r.u64()?);
    let dst = VertexId(r.u64()?);
    let etype = EdgeType(r.u16()?);
    let weight = r.f64()?;
    let ts = r.u64()?;
    match kind {
        OP_INSERT => Ok(UpdateOp::Insert(Edge {
            src,
            dst,
            etype,
            weight,
            ts,
        })),
        OP_UPDATE_WEIGHT => Ok(UpdateOp::UpdateWeight(Edge {
            src,
            dst,
            etype,
            weight,
            ts,
        })),
        OP_DELETE => Ok(UpdateOp::Delete { src, dst, etype }),
        tag => Err(WireError::BadTag {
            what: "update op",
            tag,
        }),
    }
}

const TXNOP_INSERT_EDGE: u8 = 0;
const TXNOP_DELETE_EDGE: u8 = 1;
const TXNOP_PATCH_WEIGHT: u8 = 2;
const TXNOP_UPSERT_VERTEX: u8 = 3;
const TXNOP_DELETE_VERTEX: u8 = 4;

/// Encode one [`TxnOp`] record (fixed layout mirroring [`put_update_op`]:
/// kind u8 | src u64 | dst u64 | etype u16 | weight f64 | ts u64;
/// vertex-granular ops carry a zero dst, weight and timestamp).
pub fn put_txn_op(buf: &mut Vec<u8>, op: &TxnOp) {
    let before = buf.len();
    let (kind, src, dst, etype, weight, ts) = match op {
        TxnOp::InsertEdge(e) => (TXNOP_INSERT_EDGE, e.src, e.dst, e.etype, e.weight, e.ts),
        TxnOp::DeleteEdge { src, dst, etype } => (TXNOP_DELETE_EDGE, *src, *dst, *etype, 0.0, 0),
        TxnOp::PatchWeight(e) => (TXNOP_PATCH_WEIGHT, e.src, e.dst, e.etype, e.weight, e.ts),
        TxnOp::UpsertVertex { vertex } => (
            TXNOP_UPSERT_VERTEX,
            *vertex,
            VertexId(0),
            EdgeType::DEFAULT,
            0.0,
            0,
        ),
        TxnOp::DeleteVertex { vertex, etype } => {
            (TXNOP_DELETE_VERTEX, *vertex, VertexId(0), *etype, 0.0, 0)
        }
    };
    buf.push(kind);
    put_u64(buf, src.raw());
    put_u64(buf, dst.raw());
    put_u16(buf, etype.0);
    buf.extend_from_slice(&weight.to_le_bytes());
    put_u64(buf, ts);
    debug_assert_eq!((buf.len() - before) as u64, TXN_OP_BYTES);
}

/// Decode one [`TxnOp`] record.
pub fn get_txn_op(r: &mut Reader<'_>) -> Result<TxnOp, WireError> {
    let kind = r.u8()?;
    let src = VertexId(r.u64()?);
    let dst = VertexId(r.u64()?);
    let etype = EdgeType(r.u16()?);
    let weight = r.f64()?;
    let ts = r.u64()?;
    match kind {
        TXNOP_INSERT_EDGE => Ok(TxnOp::InsertEdge(Edge {
            src,
            dst,
            etype,
            weight,
            ts,
        })),
        TXNOP_DELETE_EDGE => Ok(TxnOp::DeleteEdge { src, dst, etype }),
        TXNOP_PATCH_WEIGHT => Ok(TxnOp::PatchWeight(Edge {
            src,
            dst,
            etype,
            weight,
            ts,
        })),
        TXNOP_UPSERT_VERTEX => Ok(TxnOp::UpsertVertex { vertex: src }),
        TXNOP_DELETE_VERTEX => Ok(TxnOp::DeleteVertex { vertex: src, etype }),
        tag => Err(WireError::BadTag {
            what: "txn op",
            tag,
        }),
    }
}

/// Encode a time-window trailer block: `tag u8 = TIME_WINDOW_BLOCK_TAG`
/// followed by one 17-byte entry per request (`present u8 | min_ts u64 |
/// max_ts u64`). Callers only emit the block when at least one entry is
/// windowed, which keeps unwindowed batches byte-identical to the
/// pre-temporal protocol.
pub fn put_time_window_block(buf: &mut Vec<u8>, windows: &[Option<TimeWindow>]) {
    let before = buf.len();
    buf.push(TIME_WINDOW_BLOCK_TAG);
    for w in windows {
        match w {
            Some(win) => {
                buf.push(1);
                put_u64(buf, win.min_ts);
                put_u64(buf, win.max_ts);
            }
            None => {
                buf.push(0);
                put_u64(buf, 0);
                put_u64(buf, 0);
            }
        }
    }
    debug_assert_eq!(
        (buf.len() - before) as u64,
        time_window_block_bytes(windows.len())
    );
}

/// Decode a time-window trailer block of exactly `count` entries. `count`
/// comes from the already-validated record count, so the length guard here
/// rejects payloads whose trailer was truncated or forged shorter than the
/// record count implies.
pub fn get_time_window_block(
    r: &mut Reader<'_>,
    count: usize,
) -> Result<Vec<Option<TimeWindow>>, WireError> {
    let tag = r.u8()?;
    if tag != TIME_WINDOW_BLOCK_TAG {
        return Err(WireError::BadTag {
            what: "time window block",
            tag,
        });
    }
    if (count as u64) * TIME_WINDOW_ENTRY_BYTES > r.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    let mut windows = Vec::with_capacity(count);
    for _ in 0..count {
        let present = r.flag("time window presence flag")?;
        let (min_ts, max_ts) = (r.u64()?, r.u64()?);
        windows.push(present.then_some(TimeWindow { min_ts, max_ts }));
    }
    Ok(windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_request_roundtrips_and_sizes_match() {
        let req = SampleRequest::new(VertexId(0xDEAD_BEEF), EdgeType(7), 25)
            .on_degraded(DegradedPolicy::SelfLoop)
            .with_trace_id(42);
        let mut buf = Vec::new();
        put_sample_request(&mut buf, &req, 0x1234_5678_9abc_def0);
        assert_eq!(buf.len() as u64, SAMPLE_REQUEST_BYTES);
        let mut r = Reader::new(&buf);
        let (back, seed) = get_sample_request(&mut r).expect("decode");
        assert_eq!(back, req);
        assert_eq!(seed, 0x1234_5678_9abc_def0);
        assert!(r.is_empty());
    }

    #[test]
    fn sample_response_roundtrips_and_sizes_match() {
        let resp = SampleResponse {
            neighbors: vec![VertexId(1), VertexId(2), VertexId(1)],
            sources: vec![
                SlotSource::Sampled,
                SlotSource::SelfLoop,
                SlotSource::Sampled,
            ],
            degraded: true,
            shard: 3,
        };
        let mut buf = Vec::new();
        put_sample_response(&mut buf, &resp);
        assert_eq!(buf.len() as u64, sample_response_bytes(3));
        let back = get_sample_response(&mut Reader::new(&buf)).expect("decode");
        assert_eq!(back, resp);
    }

    #[test]
    fn update_ops_roundtrip_at_fixed_size() {
        let ops = [
            UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 0.5)),
            UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 0.5).at(1234)),
            UpdateOp::UpdateWeight(Edge::new(VertexId(3), VertexId(4), 2.5)),
            UpdateOp::Delete {
                src: VertexId(5),
                dst: VertexId(6),
                etype: EdgeType(9),
            },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            put_update_op(&mut buf, op);
            assert_eq!(buf.len() as u64, UPDATE_OP_BYTES);
            let back = get_update_op(&mut Reader::new(&buf)).expect("decode");
            assert_eq!(back, *op);
        }
    }

    #[test]
    fn truncated_records_error_instead_of_panicking() {
        let mut buf = Vec::new();
        put_sample_request(
            &mut buf,
            &SampleRequest::new(VertexId(1), EdgeType(0), 4),
            7,
        );
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert_eq!(get_sample_request(&mut r), Err(WireError::Truncated));
        }
    }

    #[test]
    fn forged_counts_are_rejected_before_allocation() {
        // degraded=0, shard=0, then a count claiming u32::MAX entries with
        // no bytes behind it: must reject, not reserve.
        let mut buf = vec![0u8];
        put_u32(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            get_sample_response(&mut Reader::new(&buf)),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        // Unknown op kind.
        let mut buf = vec![9u8];
        buf.extend_from_slice(&[0u8; 34]);
        assert!(matches!(
            get_update_op(&mut Reader::new(&buf)),
            Err(WireError::BadTag {
                what: "update op",
                ..
            })
        ));
        assert!(health_from(3).is_err());
        assert!(policy_from(2).is_err());
        assert!(source_from(7).is_err());
    }

    #[test]
    fn frame_sizing_helpers_compose_record_sizes() {
        assert_eq!(
            sample_request_frame_bytes(3),
            FRAME_OVERHEAD_BYTES + 25 + 3 * SAMPLE_REQUEST_BYTES
        );
        assert_eq!(
            sample_response_frame_bytes([0, 2]),
            FRAME_OVERHEAD_BYTES + 8 + 4 + (9) + (9 + 18)
        );
        assert_eq!(
            update_frame_bytes(2),
            FRAME_OVERHEAD_BYTES + UPDATE_BATCH_HEADER_BYTES + 2 * UPDATE_OP_BYTES
        );
        assert_eq!(
            txn_frame_bytes(4),
            FRAME_OVERHEAD_BYTES + TXN_BATCH_HEADER_BYTES + 4 * TXN_OP_BYTES
        );
    }

    #[test]
    fn txn_ops_roundtrip_at_fixed_size() {
        let ops = [
            TxnOp::InsertEdge(Edge::new(VertexId(1), VertexId(2), 0.5)),
            TxnOp::DeleteEdge {
                src: VertexId(3),
                dst: VertexId(4),
                etype: EdgeType(7),
            },
            TxnOp::PatchWeight(Edge {
                src: VertexId(5),
                dst: VertexId(6),
                etype: EdgeType(2),
                weight: 9.25,
                ts: 1_700_000_123,
            }),
            TxnOp::UpsertVertex {
                vertex: VertexId(8),
            },
            TxnOp::DeleteVertex {
                vertex: VertexId(9),
                etype: EdgeType(3),
            },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            put_txn_op(&mut buf, op);
            assert_eq!(buf.len() as u64, TXN_OP_BYTES);
            let back = get_txn_op(&mut Reader::new(&buf)).expect("decode");
            assert_eq!(back, *op);
        }
        // Unknown kind tag.
        let mut buf = vec![5u8];
        buf.extend_from_slice(&[0u8; 34]);
        assert!(matches!(
            get_txn_op(&mut Reader::new(&buf)),
            Err(WireError::BadTag { what: "txn op", .. })
        ));
    }

    #[test]
    fn time_window_block_roundtrips_and_rejects_corruption() {
        let windows = vec![
            None,
            Some(TimeWindow::new(10, 500)),
            Some(TimeWindow::until(u64::MAX)),
            None,
        ];
        let mut buf = Vec::new();
        put_time_window_block(&mut buf, &windows);
        assert_eq!(buf.len() as u64, time_window_block_bytes(windows.len()));
        let mut r = Reader::new(&buf);
        assert_eq!(
            get_time_window_block(&mut r, windows.len()).expect("decode"),
            windows
        );
        assert!(r.is_empty());

        // Wrong opening tag.
        let mut bad = buf.clone();
        bad[0] = 9;
        assert!(matches!(
            get_time_window_block(&mut Reader::new(&bad), windows.len()),
            Err(WireError::BadTag {
                what: "time window block",
                ..
            })
        ));

        // Truncated trailer: fewer entries on the wire than the record
        // count implies.
        let cut = &buf[..buf.len() - 1];
        assert_eq!(
            get_time_window_block(&mut Reader::new(cut), windows.len()),
            Err(WireError::Truncated)
        );

        // Corrupt presence flag.
        let mut bad = buf.clone();
        bad[1] = 2;
        assert!(matches!(
            get_time_window_block(&mut Reader::new(&bad), windows.len()),
            Err(WireError::BadTag {
                what: "time window presence flag",
                ..
            })
        ));
    }

    #[test]
    fn trace_ctx_roundtrips_at_fixed_size() {
        for ctx in [
            None,
            Some(TraceContext {
                trace_id: 0xFACE,
                parent_span: 17,
            }),
        ] {
            let mut buf = Vec::new();
            put_trace_ctx(&mut buf, ctx);
            assert_eq!(buf.len() as u64, TRACE_CTX_BYTES);
            let mut r = Reader::new(&buf);
            assert_eq!(get_trace_ctx(&mut r).expect("decode"), ctx);
            assert!(r.is_empty());
        }
        // Bad present flag.
        let mut buf = vec![7u8];
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            get_trace_ctx(&mut Reader::new(&buf)),
            Err(WireError::BadTag {
                what: "trace ctx",
                ..
            })
        ));
    }

    #[test]
    fn strings_roundtrip_and_reject_forged_lengths() {
        for s in ["", "rpc.server.request", "π spans 🎯"] {
            let mut buf = Vec::new();
            put_str(&mut buf, s);
            let mut r = Reader::new(&buf);
            assert_eq!(get_str(&mut r).expect("decode"), s);
            assert!(r.is_empty());
        }
        // A length claiming more bytes than the buffer holds.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000);
        buf.extend_from_slice(b"short");
        assert_eq!(get_str(&mut Reader::new(&buf)), Err(WireError::Truncated));
        // Invalid UTF-8 payload.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(get_str(&mut Reader::new(&buf)).is_err());
    }
}
