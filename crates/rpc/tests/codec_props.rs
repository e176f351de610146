//! Property tests for the frame codec: every message type round-trips
//! through `encode` → `decode` for arbitrary contents and is refused when
//! cut short or followed by anything, frame sizes agree with the
//! `server::wire` size model the in-process traffic accounting uses, and
//! malformed bytes (truncation, corruption, forged length prefixes) are
//! rejected without panics or unbounded allocation.
//!
//! [`roundtrips`] is the one generic payload property. Its appended-bytes
//! arm fails at the commit before the `Payload` trait for every message
//! type but `SampleBatch`: each per-message decoder there stopped reading
//! at the end of its record and never looked at what followed.

use platod2gl_graph::{
    Edge, EdgeType, ShardHealth, TimeWindow, TxnOp, TxnReceipt, TxnViolation, UpdateOp, VertexId,
    ViolationKind,
};
use platod2gl_obs::{HistogramSnapshot, ObsSnapshot, SlowOpRecord, SpanRecord, TraceContext};
use platod2gl_rpc::codec::{
    append_timing_echo, decode, encode, encode_frame, frame_len, parse_frame, read_frame,
    take_timing_echo, ErrorReply, FrameKind, HealthReply, MapInstall, MapReply, MigrateAction,
    MigrateCtl, Payload, SampleBatch, TailFetch, TailReply, TxnApply, TxnReply, UpdateBatch,
    MAX_FRAME_BYTES,
};
use platod2gl_server::wire;
use platod2gl_server::{BatchReport, DegradedPolicy, SampleRequest, SampleResponse, SlotSource};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Debug;

/// The property every message type owes: the value comes back equal, every
/// strict prefix of its encoding is an error (never a panic), and so is
/// the encoding with `junk` (1–8 bytes) appended.
fn roundtrips<P: Payload + PartialEq + Debug>(value: &P, junk: &[u8]) -> Result<(), TestCaseError> {
    let payload = encode(value);
    prop_assert_eq!(&decode::<P>(&payload).expect("own encoding decodes"), value);
    for cut in 0..payload.len() {
        prop_assert!(decode::<P>(&payload[..cut]).is_err(), "cut {}", cut);
    }
    let mut longer = payload;
    longer.extend_from_slice(junk);
    prop_assert!(decode::<P>(&longer).is_err(), "junk {:?}", junk);
    Ok(())
}

/// 1–8 bytes to append to a well-formed payload.
fn arb_junk() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 1..9)
}

/// One seeded sample request with arbitrary vertex, relation, fanout,
/// degraded policy, optional trace id, and optional time window.
fn arb_request() -> impl Strategy<Value = (SampleRequest, u64)> {
    (
        (any::<u64>(), 0u16..16, 0usize..64),
        (any::<bool>(), any::<bool>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((v, et, fanout), (self_loop, traced, trace, seed), (windowed, a, b))| {
                let mut req = SampleRequest::new(VertexId(v), EdgeType(et), fanout);
                if self_loop {
                    req = req.on_degraded(DegradedPolicy::SelfLoop);
                }
                if traced {
                    req = req.with_trace_id(trace);
                }
                if windowed {
                    req = req.in_window(TimeWindow::new(a.min(b), a.max(b)));
                }
                (req, seed)
            },
        )
}

/// A sample response with arbitrary neighbors, per-slot provenance,
/// degraded flag, and shard.
fn arb_response() -> impl Strategy<Value = SampleResponse> {
    (
        vec((any::<u64>(), any::<bool>()), 0..24),
        any::<bool>(),
        0usize..1024,
    )
        .prop_map(|(slots, degraded, shard)| {
            let neighbors = slots.iter().map(|&(v, _)| VertexId(v)).collect();
            let sources = slots
                .iter()
                .map(|&(_, sampled)| {
                    if sampled {
                        SlotSource::Sampled
                    } else {
                        SlotSource::SelfLoop
                    }
                })
                .collect();
            SampleResponse {
                neighbors,
                sources,
                degraded,
                shard,
            }
        })
}

/// Any of the three update-op kinds. Weights round-trip exactly: the wire
/// ships the f64 bit pattern.
fn arb_op() -> impl Strategy<Value = UpdateOp> {
    (
        (0u8..3, any::<u64>()),
        (any::<u64>(), 0u16..8, 0.0f64..1e6, any::<u64>()),
    )
        .prop_map(|((kind, src), (dst, et, weight, ts))| {
            let edge = Edge {
                src: VertexId(src),
                dst: VertexId(dst),
                etype: EdgeType(et),
                weight,
                ts,
            };
            match kind {
                0 => UpdateOp::Insert(edge),
                1 => UpdateOp::Delete {
                    src: VertexId(src),
                    dst: VertexId(dst),
                    etype: EdgeType(et),
                },
                _ => UpdateOp::UpdateWeight(edge),
            }
        })
}

/// An optional cross-process trace context, as a caller would attach it.
fn arb_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    (any::<bool>(), any::<u64>(), any::<u64>()).prop_map(|(some, trace_id, parent_span)| {
        some.then_some(TraceContext {
            trace_id,
            parent_span,
        })
    })
}

/// A name a hostile or merely foreign peer might ship: quotes,
/// backslashes, control bytes and non-ASCII among the ordinary.
fn arb_name() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = [
        'a',
        '.',
        '_',
        ' ',
        '"',
        '\\',
        '\n',
        '\u{1}',
        '\u{7f}',
        'é',
        '漢',
        '\u{1F980}',
    ];
    vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.iter().map(|&i| ALPHABET[i]).collect())
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (
        (arb_name(), any::<u64>(), arb_opt_u64(), any::<u64>()),
        (arb_opt_u64(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((name, id, parent, trace_id), (remote_parent, start_ns, duration_ns))| SpanRecord {
                name: name.into(),
                id,
                parent,
                trace_id,
                remote_parent,
                start_ns,
                duration_ns,
            },
        )
}

/// A registry snapshot as `ObsExport` ships it: arbitrary metric entries
/// and slow ops, no span ring.
fn arb_snapshot() -> impl Strategy<Value = ObsSnapshot> {
    let histogram =
        (vec(any::<u64>(), 7..8), vec((0u32..64, any::<u64>()), 0..6)).prop_map(|(f, buckets)| {
            HistogramSnapshot {
                count: f[0],
                mean_ns: f[1],
                p50_ns: f[2],
                p95_ns: f[3],
                p99_ns: f[4],
                max_ns: f[5],
                sum_ns: f[6],
                buckets,
            }
        });
    let slow = (
        (arb_name(), arb_opt_u64(), arb_name()),
        (any::<u64>(), vec(arb_span(), 0..4)),
    )
        .prop_map(
            |((op, trace_id, detail), (duration_ns, spans))| SlowOpRecord {
                op: op.into(),
                trace_id,
                detail,
                duration_ns,
                spans,
            },
        );
    (
        vec((arb_name(), any::<u64>()), 0..6),
        vec((arb_name(), any::<u64>()), 0..6),
        vec((arb_name(), histogram), 0..4),
        vec(slow, 0..4),
    )
        .prop_map(|(counters, gauges, histograms, slow)| ObsSnapshot {
            counters,
            gauges: gauges.into_iter().map(|(n, v)| (n, v as i64)).collect(),
            histograms,
            spans: Vec::new(),
            slow,
        })
}

/// Any of the five txn-op kinds.
fn arb_txn_op() -> impl Strategy<Value = TxnOp> {
    (
        (0u8..5, any::<u64>()),
        (any::<u64>(), 0u16..8, 0.0f64..1e6, any::<u64>()),
    )
        .prop_map(|((kind, src), (dst, et, weight, ts))| {
            let (src, dst, etype) = (VertexId(src), VertexId(dst), EdgeType(et));
            let edge = Edge {
                src,
                dst,
                etype,
                weight,
                ts,
            };
            match kind {
                0 => TxnOp::InsertEdge(edge),
                1 => TxnOp::DeleteEdge { src, dst, etype },
                2 => TxnOp::PatchWeight(edge),
                3 => TxnOp::UpsertVertex { vertex: src },
                _ => TxnOp::DeleteVertex { vertex: src, etype },
            }
        })
}

fn arb_error_reply() -> impl Strategy<Value = ErrorReply> {
    (any::<u8>(), any::<u32>(), arb_name()).prop_map(|(code, shard, message)| ErrorReply {
        code,
        shard,
        message,
    })
}

/// All three arms of a txn reply.
fn arb_txn_reply() -> impl Strategy<Value = TxnReply> {
    const KINDS: [ViolationKind; 6] = [
        ViolationKind::DanglingDelete,
        ViolationKind::DanglingPatch,
        ViolationKind::DuplicateKey,
        ViolationKind::NonFiniteWeight,
        ViolationKind::UnknownEtype,
        ViolationKind::Empty,
    ];
    let violation =
        (any::<u32>(), 0usize..KINDS.len(), arb_name()).prop_map(|(op_index, kind, detail)| {
            TxnViolation {
                op_index: op_index as usize,
                kind: KINDS[kind],
                detail,
            }
        });
    (
        (0u8..3, any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), vec(violation, 0..5), arb_error_reply()),
    )
        .prop_map(
            |((arm, txn_id, ops_applied, graph_version), (deduped, violations, err))| match arm {
                0 => TxnReply::Committed(TxnReceipt {
                    txn_id,
                    ops_applied,
                    graph_version,
                    deduped,
                }),
                1 => TxnReply::Rejected { txn_id, violations },
                _ => TxnReply::StoreError(err),
            },
        )
}

/// An opaque blob (an encoded partition map).
fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..48)
}

fn arb_health() -> impl Strategy<Value = ShardHealth> {
    (0u8..3).prop_map(|tag| match tag {
        0 => ShardHealth::Healthy,
        1 => ShardHealth::Degraded,
        _ => ShardHealth::Failed,
    })
}

/// Frame-level round trip: encode the payload, frame it, read the frame
/// back, and return the decoded payload bytes (asserting the kind).
fn frame_roundtrip(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let framed = encode_frame(kind, 0, payload);
    let (header, got_payload) = read_frame(&mut framed.as_slice()).expect("valid frame");
    assert_eq!(header.kind, kind);
    got_payload
}

proptest! {
    #[test]
    fn sample_batches_roundtrip(
        deadline_ms in any::<u32>(),
        ctx in arb_ctx(),
        requests in vec(arb_request(), 0..40),
    ) {
        let batch = SampleBatch { deadline_ms, ctx, requests };
        let framed = encode_frame(FrameKind::SampleBatch, 0, &encode(&batch));
        // The optional time-window trailer is emitted only when at least
        // one request is windowed; the size model splits the same way.
        let windowed = batch.requests.iter().any(|(r, _)| r.window.is_some());
        let window_bytes = if windowed {
            wire::time_window_block_bytes(batch.requests.len())
        } else {
            0
        };
        prop_assert_eq!(
            framed.len() as u64,
            wire::sample_request_frame_bytes(batch.requests.len()) + window_bytes
        );
        let payload = frame_roundtrip(FrameKind::SampleBatch, &encode(&batch));
        let back: SampleBatch = decode(&payload).expect("decode");
        prop_assert_eq!(back, batch);
    }

    /// The generic property holds for a sample batch too — with the two
    /// exceptions its optional window trailer makes: a windowed payload cut
    /// exactly at the trailer is a valid unwindowed one, and an empty batch
    /// followed by the bare block tag is a valid (empty) windowed one. So
    /// it runs on non-empty unwindowed batches; the trailer's own
    /// properties are the next two.
    #[test]
    fn sample_batches_reject_prefixes_and_suffixes(
        deadline_ms in any::<u32>(),
        ctx in arb_ctx(),
        requests in vec(arb_request(), 1..24),
        junk in arb_junk(),
    ) {
        let requests = requests
            .into_iter()
            .map(|(mut r, s)| { r.window = None; (r, s) })
            .collect();
        roundtrips(&SampleBatch { deadline_ms, ctx, requests }, &junk)?;
    }

    /// A batch with no windowed request encodes byte-identical to the
    /// pre-temporal layout: no trailer block, so pre-temporal decoders (and
    /// the unchanged size model) keep working for every non-temporal client.
    #[test]
    fn unwindowed_batches_keep_the_pre_temporal_layout(
        deadline_ms in any::<u32>(),
        ctx in arb_ctx(),
        requests in vec(arb_request(), 0..24),
    ) {
        let requests: Vec<_> = requests
            .into_iter()
            .map(|(mut r, s)| { r.window = None; (r, s) })
            .collect();
        let n = requests.len();
        let batch = SampleBatch { deadline_ms, ctx, requests };
        let framed = encode_frame(FrameKind::SampleBatch, 0, &encode(&batch));
        prop_assert_eq!(framed.len() as u64, wire::sample_request_frame_bytes(n));
        let payload = frame_roundtrip(FrameKind::SampleBatch, &encode(&batch));
        let back: SampleBatch = decode(&payload).expect("decode");
        prop_assert!(back.requests.iter().all(|(r, _)| r.window.is_none()));
        prop_assert_eq!(back, batch);
    }

    /// Corrupting the window trailer — wrong tag, forged presence flag, or
    /// truncation anywhere inside the block — is rejected by the payload
    /// decoder, never a panic or a silently dropped window.
    #[test]
    fn corrupted_window_trailers_are_rejected(
        requests in vec(arb_request(), 1..16),
        which in 0u8..3,
        at_seed in any::<u64>(),
    ) {
        let mut requests = requests;
        // Force at least one window so the trailer is present.
        requests[0].0.window = Some(TimeWindow::new(10, 20));
        let n = requests.len();
        let batch = SampleBatch { deadline_ms: 0, ctx: None, requests };
        let payload = encode(&batch);
        let block_len = wire::time_window_block_bytes(n) as usize;
        let block_at = payload.len() - block_len;
        let mut bad = payload.clone();
        match which {
            0 => bad[block_at] = 9,                       // wrong block tag
            1 => bad[block_at + 1] = 2,                   // forged presence flag
            _ => {
                // Truncate inside the block (always at least the final byte).
                let keep = block_at + 1 + (at_seed as usize) % (block_len - 1);
                bad.truncate(keep);
            }
        }
        prop_assert!(decode::<SampleBatch>(&bad).is_err());
        // And the intact payload still decodes, so the corruption (not the
        // window itself) is what was rejected.
        prop_assert_eq!(decode::<SampleBatch>(&payload).expect("decode"), batch);
    }

    #[test]
    fn sample_replies_roundtrip(
        responses in vec(arb_response(), 0..32),
        queue_us in any::<u32>(),
        service_us in any::<u32>(),
        junk in arb_junk(),
    ) {
        roundtrips(&responses, &junk)?;
        // The size model counts the timing-echo trailer, so append one
        // before framing — exactly as the server reply path does.
        let mut payload = encode(&responses);
        append_timing_echo(&mut payload, queue_us, service_us);
        let framed = encode_frame(FrameKind::SampleReply, 0, &payload);
        prop_assert_eq!(
            framed.len() as u64,
            wire::sample_response_frame_bytes(responses.iter().map(|r| r.neighbors.len()))
        );
        let mut body = frame_roundtrip(FrameKind::SampleReply, &payload);
        let echo = take_timing_echo(&mut body).expect("echo");
        prop_assert_eq!((echo.queue_us, echo.service_us), (queue_us, service_us));
        let back: Vec<SampleResponse> = decode(&body).expect("decode");
        prop_assert_eq!(back, responses);
    }

    #[test]
    fn update_batches_roundtrip(
        deadline_ms in any::<u32>(),
        ctx in arb_ctx(),
        ops in vec(arb_op(), 0..48),
        junk in arb_junk(),
    ) {
        let batch = UpdateBatch { deadline_ms, ctx, ops };
        let framed = encode_frame(FrameKind::UpdateBatch, 0, &encode(&batch));
        prop_assert_eq!(framed.len() as u64, wire::update_frame_bytes(&batch.ops));
        roundtrips(&batch, &junk)?;
    }

    #[test]
    fn update_replies_roundtrip(
        applied in any::<u64>(),
        queued in any::<u64>(),
        junk in arb_junk(),
    ) {
        let reply = BatchReport { applied_ops: applied as usize, queued_ops: queued as usize };
        roundtrips(&reply, &junk)?;
        let mut payload = encode(&reply);
        append_timing_echo(&mut payload, 1, 2);
        let framed = encode_frame(FrameKind::UpdateBatchReply, 0, &payload);
        prop_assert_eq!(framed.len() as u64, wire::UPDATE_REPLY_FRAME_BYTES);
    }

    #[test]
    fn health_replies_roundtrip(
        graph_version in any::<u64>(),
        healths in vec(arb_health(), 0..64),
        junk in arb_junk(),
    ) {
        roundtrips(&HealthReply { graph_version, healths }, &junk)?;
    }

    /// The single-integer messages: a heal request's shard (and a
    /// partition-stats request's size) as `u32`, a heal reply's drained
    /// count (and the migrate-ctl / map-install replies, a span export's
    /// trace id) as `u64`; the empty requests as `()`.
    #[test]
    fn heal_frames_roundtrip(shard in any::<u32>(), drained in any::<u64>(), junk in arb_junk()) {
        roundtrips(&shard, &junk)?;
        roundtrips(&drained, &junk)?;
        roundtrips(&(), &junk)?;
    }

    #[test]
    fn error_replies_roundtrip(reply in arb_error_reply(), junk in arb_junk()) {
        roundtrips(&reply, &junk)?;
    }

    #[test]
    fn txn_payloads_roundtrip(
        txn_id in any::<u64>(),
        ctx in arb_ctx(),
        ops in vec(arb_txn_op(), 0..32),
        reply in arb_txn_reply(),
        junk in arb_junk(),
    ) {
        roundtrips(&TxnApply { txn_id, ctx, ops }, &junk)?;
        roundtrips(&reply, &junk)?;
    }

    /// The fleet plane: map fetch/install, migration control, the move's
    /// stream, per-partition key counts.
    #[test]
    fn fleet_payloads_roundtrip(
        (epoch, has_map, map) in (any::<u64>(), any::<bool>(), arb_blob()),
        (partition, num_partitions) in (any::<u32>(), any::<u32>()),
        (action, position, ops) in (0..3u8, any::<u64>(), vec(arb_op(), 0..16)),
        counts in vec(any::<u64>(), 0..32),
        junk in arb_junk(),
    ) {
        let action = [MigrateAction::Begin, MigrateAction::End, MigrateAction::Drop][action as usize];
        roundtrips(&MapReply { epoch, bytes: has_map.then(|| map.clone()) }, &junk)?;
        roundtrips(&MapInstall { epoch, bytes: map }, &junk)?;
        roundtrips(&MigrateCtl { action, partition, num_partitions }, &junk)?;
        roundtrips(&TailFetch { partition, from: position }, &junk)?;
        roundtrips(&TailReply { next: position, ops }, &junk)?;
        roundtrips(&counts, &junk)?;
    }

    /// The telemetry payloads carry the obs crate's own types. Whatever
    /// the names hold, a snapshot and a span list pass the generic
    /// property, and the decoded spans still render as JSON without a raw
    /// control byte.
    #[test]
    fn telemetry_payloads_roundtrip_and_reject_every_truncation(
        snap in arb_snapshot(),
        spans in vec(arb_span(), 0..6),
        junk in arb_junk(),
    ) {
        roundtrips(&snap, &junk)?;
        roundtrips(&spans, &junk)?;
        let back: Vec<SpanRecord> = decode(&encode(&spans)).expect("decode");
        prop_assert!(back.iter().all(|s| s.to_json().chars().all(|c| c >= ' ')));
    }

    /// Every collection count inside the telemetry payloads — entries,
    /// buckets, slow ops, the spans under a slow op — is checked against
    /// the bytes present before anything is reserved for it.
    #[test]
    fn forged_telemetry_counts_are_rejected(count in 100u32..u32::MAX, which in 0usize..5) {
        let mut span_list = Vec::new();
        wire::put_u32(&mut span_list, count);
        prop_assert!(decode::<Vec<SpanRecord>>(&span_list).is_err());

        // An otherwise empty snapshot (four zero counts), with the
        // `which`-th count forged; the fifth case forges the span count
        // under one slow op.
        let mut payload = Vec::new();
        for section in 0..4 {
            wire::put_u32(&mut payload, if section == which { count } else { 0 });
        }
        if which == 4 {
            payload.truncate(12);
            wire::put_u32(&mut payload, 1);
            wire::put_str(&mut payload, "op");
            wire::put_opt_u64(&mut payload, None);
            wire::put_str(&mut payload, "");
            wire::put_u64(&mut payload, 5);
            wire::put_u32(&mut payload, count);
        }
        prop_assert!(decode::<ObsSnapshot>(&payload).is_err());
    }

    /// Arbitrary bytes fed to the frame reader never panic: they are
    /// either a (vanishingly unlikely) valid frame or a structured error.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Truncating a valid frame anywhere makes it invalid, never a panic.
    #[test]
    fn truncated_frames_are_rejected(
        requests in vec(arb_request(), 1..8),
        cut_seed in any::<u64>(),
    ) {
        let batch = SampleBatch { deadline_ms: 0, ctx: None, requests };
        let framed = encode_frame(FrameKind::SampleBatch, 0, &encode(&batch));
        let cut = (cut_seed as usize) % framed.len();
        prop_assert!(read_frame(&mut &framed[..cut]).is_err());
    }

    /// Flipping any bit past the length prefix is caught (CRC, version, or
    /// kind check) — no corrupt frame decodes successfully.
    #[test]
    fn corrupted_frames_are_rejected(
        ops in vec(arb_op(), 0..16),
        at_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let batch = UpdateBatch {
            deadline_ms: 5,
            ctx: Some(TraceContext { trace_id: 7, parent_span: 3 }),
            ops,
        };
        let mut framed = encode_frame(FrameKind::UpdateBatch, 0, &encode(&batch));
        let at = 4 + (at_seed as usize) % (framed.len() - 4);
        framed[at] ^= 1 << bit;
        prop_assert!(read_frame(&mut framed.as_slice()).is_err());
    }

    /// A forged length prefix beyond the cap is rejected before the body
    /// buffer is allocated, whatever follows it.
    #[test]
    fn forged_length_prefixes_never_allocate(
        len in (MAX_FRAME_BYTES as u32 + 1)..u32::MAX,
        tail in vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(read_frame(&mut bytes.as_slice()).is_err());
    }

    /// Counts inside a CRC-valid payload are validated against the bytes
    /// actually present: a forged count cannot drive an oversized
    /// allocation or a panic.
    #[test]
    fn forged_payload_counts_are_rejected(count in 100u32..u32::MAX) {
        // A sample reply claiming `count` responses but carrying none.
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, count);
        let framed = encode_frame(FrameKind::SampleReply, 0, &payload);
        let (_, body) = read_frame(&mut framed.as_slice()).expect("frame itself is valid");
        prop_assert!(decode::<Vec<SampleResponse>>(&body).is_err());
    }

    /// Frames carry an arbitrary correlation id through encode → stream
    /// read → header intact, for any payload.
    #[test]
    fn v2_frames_roundtrip_with_req_id(
        req_id in any::<u64>(),
        payload in vec(any::<u8>(), 0..256),
    ) {
        let framed = encode_frame(FrameKind::SampleBatch, req_id, &payload);
        let (header, body) = read_frame(&mut framed.as_slice()).expect("valid frame");
        prop_assert_eq!(header.kind, FrameKind::SampleBatch);
        prop_assert_eq!(header.req_id, req_id);
        prop_assert_eq!(body, payload);
    }

    /// The `frame_len` peek agrees with the encoded length, reports `None`
    /// on every strict prefix, and `parse_frame` on the exact slice matches
    /// the stream reader byte for byte.
    #[test]
    fn frame_len_peek_agrees_with_parse(
        req_id in any::<u64>(),
        payload in vec(any::<u8>(), 0..200),
        cut_seed in any::<u64>(),
    ) {
        let framed = encode_frame(FrameKind::HealthProbe, req_id, &payload);
        prop_assert_eq!(frame_len(&framed).expect("peek"), Some(framed.len()));
        let cut = (cut_seed as usize) % framed.len();
        // A prefix either cannot name its length yet (under 4 bytes) or
        // names the full length — never a different one.
        match frame_len(&framed[..cut]).expect("peek on prefix") {
            None => prop_assert!(cut < 4),
            Some(flen) => prop_assert_eq!(flen, framed.len()),
        }
        let (header, body) = parse_frame(&framed).expect("parse");
        let (stream_header, stream_body) =
            read_frame(&mut framed.as_slice()).expect("stream read");
        prop_assert_eq!(header, stream_header);
        prop_assert_eq!(body, stream_body.as_slice());
    }

    /// The zero-copy path catches the same corruption the stream reader
    /// does: a bit-flip anywhere past the length prefix, under any
    /// correlation id, fails `parse_frame` (CRC, version, or kind check).
    #[test]
    fn corrupted_v2_frames_are_rejected(
        req_id in any::<u64>(),
        ops in vec(arb_op(), 0..16),
        at_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let batch = UpdateBatch {
            deadline_ms: 5,
            ctx: Some(TraceContext { trace_id: 7, parent_span: 3 }),
            ops,
        };
        let mut framed =
            encode_frame(FrameKind::UpdateBatch, req_id, &encode(&batch));
        let at = 4 + (at_seed as usize) % (framed.len() - 4);
        framed[at] ^= 1 << bit;
        prop_assert!(parse_frame(&framed).is_err());
        prop_assert!(read_frame(&mut framed.as_slice()).is_err());
    }

    /// The pre-allocation length cap holds for the peek path too: a forged
    /// oversized length prefix errors out of `frame_len` before any buffer
    /// is sized from it.
    #[test]
    fn forged_lengths_are_rejected_at_the_peek(
        len in (MAX_FRAME_BYTES as u32 + 1)..u32::MAX,
        tail in vec(any::<u8>(), 0..16),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(frame_len(&bytes).is_err());
    }
}
