//! The frame layer of the graph-service protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! | len u32 LE | version u8 | kind u8 | req_id u64 LE | payload ... | crc32c u32 LE |
//! ```
//!
//! `len` counts everything after itself (header + payload + CRC), so a
//! reader always knows how many bytes to pull before it can judge the
//! frame. The CRC32C trailer (same polynomial and implementation as the
//! WAL, [`platod2gl_storage::crc32c`]) covers everything between `len`
//! and the trailer; a frame whose trailer disagrees is rejected before
//! any payload decode runs. The version byte is checked next: anything
//! but [`PROTOCOL_VERSION`] is [`FrameError::BadVersion`].
//!
//! ## Request correlation
//!
//! `req_id` is an opaque correlation id: a server echoes the request's id
//! into the reply frame, which is what lets the event-loop server answer
//! **out of order** and lets a multiplexing client pipeline many in-flight
//! requests over one socket, re-stitching replies by id.
//!
//! Defensive bounds: `len` is validated against [`MAX_FRAME_BYTES`]
//! *before* the body buffer is allocated, and every collection count
//! inside a payload is validated against the bytes actually present
//! ([`wire::Reader::count`]) — a forged length prefix or count cannot
//! drive an oversized allocation, and no decode path panics on truncated
//! or corrupt input.
//!
//! For buffer-oriented readers (the event-loop server) the
//! [`frame_len`]/[`parse_frame`] pair decodes a frame **zero-copy**: the
//! returned payload borrows from the read buffer instead of re-allocating
//! per frame. [`read_frame`] is the streaming entry point for blocking
//! sockets.
//!
//! Record layouts inside payloads are defined by [`platod2gl_server::wire`]
//! — the same functions the in-process cluster uses for traffic
//! accounting, so simulated and real byte counts agree by construction.
//!
//! ## Payloads
//!
//! A message body is a type that implements [`Payload`] — its byte layout
//! declared once, as a `put`/`get` pair — and travels through the generic
//! [`encode`] and [`decode`]; `decode` is the one place that refuses bytes
//! left over after the value. A payload that carries a value the rest of
//! the workspace already has a type for is that type: [`BatchReport`],
//! [`ObsSnapshot`], [`SpanRecord`] lists; the six single-integer messages
//! are `u32` / `u64`, the empty ones `()`. Which reply kind answers which
//! request is [`FrameKind::reply`].

use platod2gl_graph::{
    Error, ShardHealth, TxnOp, TxnReceipt, TxnViolation, UpdateOp, ViolationKind,
};
use platod2gl_obs::{HistogramSnapshot, ObsSnapshot, SlowOpRecord, SpanRecord, TraceContext};
use platod2gl_server::wire::{self, Reader, WireError};
use platod2gl_server::{BatchReport, SampleRequest, SampleResponse};
use platod2gl_storage::crc32c::crc32c;
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version stamped into every frame. Readers reject any
/// other value with [`FrameError::BadVersion`].
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a whole frame. A length prefix exceeding this is
/// rejected before any allocation — the cap bounds a malicious or corrupt
/// peer to one small read. 16 MiB comfortably fits the largest legitimate
/// frame (a ~64k-op update batch is under 2 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Everything after the length prefix that is not payload: version byte,
/// kind byte, req_id, CRC trailer.
const NON_PAYLOAD_BYTES: usize = 14;

/// Message kinds. Requests have odd tags, their replies the next even tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a batch of seeded sample requests.
    SampleBatch = 0x01,
    /// Server → client: positionally parallel sample responses.
    SampleReply = 0x02,
    /// Client → server: a batch of update ops.
    UpdateBatch = 0x03,
    /// Server → client: applied/queued counts (a [`BatchReport`]).
    UpdateBatchReply = 0x04,
    /// Client → server: health probe (empty payload).
    HealthProbe = 0x05,
    /// Server → client: graph version + per-shard healths.
    HealthReply = 0x06,
    /// Client → server: heal one shard.
    HealRequest = 0x07,
    /// Server → client: ops drained by the heal.
    HealReply = 0x08,
    /// Client → server: a typed transaction (txn id + ops). Retried with
    /// the *same* id after transport failures; the server's idempotence
    /// ledger answers replays from the cached receipt.
    TxnApply = 0x09,
    /// Server → client: committed receipt, phase-1 rejection, or store
    /// error (see [`TxnReply`]).
    TxnReply = 0x0a,
    /// Client → server: fetch the server's fleet partition map (empty
    /// payload). Any fleet member answers; new clients bootstrap routing
    /// from a single seed address this way.
    MapFetch = 0x0b,
    /// Server → client: the partition map (or "none carried").
    MapReply = 0x0c,
    /// Client → server: install a (newer) fleet partition map. Servers are
    /// epoch-monotonic — an older map is ignored.
    MapInstall = 0x0d,
    /// Server → client: the map epoch now in effect.
    MapInstallReply = 0x0e,
    /// Leader → replica: an update batch on the replication channel. The
    /// payload is the [`UpdateBatch`] codec and the reply is a standard
    /// [`FrameKind::UpdateBatchReply`] / [`FrameKind::ErrorReply`] — a
    /// deliberate deviation from the odd/even pairing, since the reply
    /// shape is identical and reusing it keeps client plumbing shared.
    /// The receiving server applies WITHOUT re-forwarding to its own
    /// replicas (loop prevention).
    ReplicaBatch = 0x0f,
    /// Leader → replica: a transaction on the replication channel, under
    /// its *original* txn id so the replica's dedupe ledger absorbs
    /// retries. Payload is the [`TxnApply`] codec; reply is a standard
    /// [`FrameKind::TxnReply`] (same deviation as [`FrameKind::ReplicaBatch`]).
    ReplicaTxn = 0x11,
    // Tags 0x13/0x14 are retired (a partition-export frame pair): an
    // older mover's export request is refused as an unknown kind.
    /// Mover → server: arm (begin) or disarm (end) a partition move on its
    /// source, or drop a partition's stale copy on a move's target.
    MigrateCtl = 0x15,
    /// Server → mover: the census size (begin), the stream's end position
    /// (end) or the edges dropped (drop).
    MigrateCtlReply = 0x16,
    /// Mover → source: the armed move's stream from a position on.
    TailFetch = 0x17,
    /// Source → mover: a census page or journal ops, plus the position to
    /// resume from.
    TailReply = 0x18,
    /// Client → server: per-partition resident key counts.
    PartitionStats = 0x19,
    /// Server → client: the counts, partition order.
    PartitionStatsReply = 0x1a,
    /// Admin → server: export every recent span belonging to one trace id
    /// (the cross-process trace-stitching read path).
    SpanExport = 0x1b,
    /// Server → admin: the matching spans, completion order.
    SpanExportReply = 0x1c,
    /// Admin → server: export the registry — metric values with full
    /// histogram buckets plus the slow-op log (empty payload).
    ObsExport = 0x1d,
    /// Server → admin: the registry snapshot, span ring excluded.
    ObsExportReply = 0x1e,
    /// Server → client: the request could not be served (e.g. a shard
    /// worker panicked). Carries a code, the shard, and a message.
    ErrorReply = 0x7f,
}

impl FrameKind {
    /// The kind a served frame of this kind is answered with — stated here
    /// and nowhere else. A request's reply is the next even tag, except on
    /// the replication channel, whose two requests are answered with the
    /// first-hand reply kinds (see [`FrameKind::ReplicaBatch`]). Anything
    /// that is not a request — a reply arriving at a server — is only ever
    /// answered with an [`FrameKind::ErrorReply`], as is any request the
    /// server refuses.
    pub fn reply(self) -> FrameKind {
        match self {
            FrameKind::ReplicaBatch => FrameKind::UpdateBatchReply,
            FrameKind::ReplicaTxn => FrameKind::TxnReply,
            request if request as u8 % 2 == 1 => {
                FrameKind::from_tag(request as u8 + 1).unwrap_or(FrameKind::ErrorReply)
            }
            _ => FrameKind::ErrorReply,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, FrameError> {
        Ok(match tag {
            0x01 => FrameKind::SampleBatch,
            0x02 => FrameKind::SampleReply,
            0x03 => FrameKind::UpdateBatch,
            0x04 => FrameKind::UpdateBatchReply,
            0x05 => FrameKind::HealthProbe,
            0x06 => FrameKind::HealthReply,
            0x07 => FrameKind::HealRequest,
            0x08 => FrameKind::HealReply,
            0x09 => FrameKind::TxnApply,
            0x0a => FrameKind::TxnReply,
            0x0b => FrameKind::MapFetch,
            0x0c => FrameKind::MapReply,
            0x0d => FrameKind::MapInstall,
            0x0e => FrameKind::MapInstallReply,
            0x0f => FrameKind::ReplicaBatch,
            0x11 => FrameKind::ReplicaTxn,
            0x15 => FrameKind::MigrateCtl,
            0x16 => FrameKind::MigrateCtlReply,
            0x17 => FrameKind::TailFetch,
            0x18 => FrameKind::TailReply,
            0x19 => FrameKind::PartitionStats,
            0x1a => FrameKind::PartitionStatsReply,
            0x1b => FrameKind::SpanExport,
            0x1c => FrameKind::SpanExportReply,
            0x1d => FrameKind::ObsExport,
            0x1e => FrameKind::ObsExportReply,
            0x7f => FrameKind::ErrorReply,
            tag => return Err(FrameError::BadKind(tag)),
        })
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes timeouts and mid-frame EOF).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] (or is shorter than
    /// the mandatory version/kind/req_id/CRC bytes).
    BadLength { len: u32 },
    /// The CRC trailer disagrees with the frame contents.
    BadCrc { expected: u32, actual: u32 },
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Unknown message kind byte.
    BadKind(u8),
    /// The CRC-valid payload failed record-level decoding.
    Wire(WireError),
    /// A well-formed reply that does not answer the request it came
    /// back for; `why` says how.
    UnexpectedReply {
        request: FrameKind,
        got: FrameKind,
        why: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::BadLength { len } => write!(f, "bad frame length {len}"),
            FrameError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Wire(e) => write!(f, "payload decode error: {e}"),
            FrameError::UnexpectedReply { request, got, why } => {
                write!(f, "{got:?} does not answer {request:?}: {why}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// The decoded header of one frame: the message kind and the correlation
/// id. Replies echo the request's id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// The message kind.
    pub kind: FrameKind,
    /// Correlation id.
    pub req_id: u64,
}

/// Encode one frame into a fresh buffer (length prefix through CRC).
pub fn encode_frame(kind: FrameKind, req_id: u64, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() + NON_PAYLOAD_BYTES;
    let mut out = Vec::with_capacity(4 + len);
    wire::put_u32(&mut out, len as u32);
    out.push(PROTOCOL_VERSION);
    out.push(kind as u8);
    wire::put_u64(&mut out, req_id);
    out.extend_from_slice(payload);
    let crc = crc32c(&out[4..]);
    wire::put_u32(&mut out, crc);
    out
}

/// Write one frame (single `write_all`, so a frame is never interleaved
/// with another writer's bytes on the same stream).
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    req_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_frame(kind, req_id, payload))
}

/// Validate a length prefix against the frame bounds: at least the
/// mandatory header + CRC bytes, at most [`MAX_FRAME_BYTES`].
fn check_len(len: u32) -> Result<(), FrameError> {
    if (len as usize) < NON_PAYLOAD_BYTES || len as usize > MAX_FRAME_BYTES {
        return Err(FrameError::BadLength { len });
    }
    Ok(())
}

/// Validate a length-checked frame body (everything after the length
/// prefix) and split it into header + payload bounds. Returns the header
/// and the payload range *within* `body`.
fn parse_body(body: &[u8]) -> Result<(FrameHeader, std::ops::Range<usize>), FrameError> {
    let crc_off = body.len() - 4;
    let expected = u32::from_le_bytes(body[crc_off..].try_into().unwrap());
    let actual = crc32c(&body[..crc_off]);
    if expected != actual {
        return Err(FrameError::BadCrc { expected, actual });
    }
    if body[0] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(body[0]));
    }
    let kind = FrameKind::from_tag(body[1])?;
    let req_id = u64::from_le_bytes(body[2..10].try_into().unwrap());
    Ok((FrameHeader { kind, req_id }, 10..crc_off))
}

/// Peek at a buffered byte stream: how long is the frame at its head?
///
/// Returns `Ok(None)` when fewer than 4 bytes are buffered (the length
/// prefix itself is incomplete), `Ok(Some(total))` with the whole frame's
/// size *including* the prefix otherwise. The length is bounds-checked
/// here — **before** any caller would grow a buffer to fit it — so a
/// forged prefix cannot drive an oversized allocation.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    check_len(len)?;
    Ok(Some(4 + len as usize))
}

/// Zero-copy decode of one complete frame sitting at the head of `buf`
/// (`buf[..total]` with `total` from [`frame_len`]): CRC and version
/// checks, header parse, and a payload that **borrows** from `buf` —
/// no per-frame allocation. This is the event-loop server's read path.
pub fn parse_frame(buf: &[u8]) -> Result<(FrameHeader, &[u8]), FrameError> {
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    check_len(len)?;
    let body = &buf[4..4 + len as usize];
    let (header, payload) = parse_body(body)?;
    Ok((header, &body[payload]))
}

/// Read one frame from a blocking stream: length prefix, bounded
/// allocation, CRC and version checks, header parse. The payload is
/// returned still encoded; pair with [`decode`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameHeader, Vec<u8>), FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    check_len(len)?;
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let (header, payload) = parse_body(&body)?;
    body.truncate(payload.end);
    body.drain(..payload.start);
    Ok((header, body))
}

/// One RPC message body, and the single declaration of its byte layout:
/// `put` appends the encoding, `get` reads it back off a cursor. Messages
/// travel through [`encode`] and [`decode`]; which payload type a frame
/// kind carries is stated where the frame is served (`dispatch`) and where
/// it is sent (`RemoteCluster`).
pub trait Payload: Sized {
    /// Append this value's encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Read one value off the cursor. Whether anything may follow it is
    /// [`decode`]'s call, not the implementation's.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode one message body into a fresh buffer.
pub fn encode(value: &impl Payload) -> Vec<u8> {
    let mut buf = Vec::new();
    value.put(&mut buf);
    buf
}

/// Decode one message body. The payload must hold exactly one value: bytes
/// left over after it are [`WireError::Trailing`] — a CRC-valid frame
/// with a suffix its kind does not define comes from a writer with a
/// different layout, and is refused like any other malformed record.
pub fn decode<P: Payload>(payload: &[u8]) -> Result<P, WireError> {
    let mut r = Reader::new(payload);
    let value = P::get(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Trailing {
            extra: r.remaining(),
        });
    }
    Ok(value)
}

/// A counted list: the count is validated against the bytes present
/// (`min_bytes` per item) before anything is reserved for it.
fn get_list<'a, T>(
    r: &mut Reader<'a>,
    min_bytes: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.count(min_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// A length-prefixed opaque byte string (u32 len + bytes).
fn put_blob(buf: &mut Vec<u8>, bytes: &[u8]) {
    wire::put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn get_blob(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let n = r.count(1)?;
    Ok(r.take(n)?.to_vec())
}

/// The empty payload of [`FrameKind::HealthProbe`], [`FrameKind::MapFetch`]
/// and [`FrameKind::ObsExport`].
impl Payload for () {
    fn put(&self, _buf: &mut Vec<u8>) {}

    fn get(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// [`FrameKind::HealRequest`] (the shard) and [`FrameKind::PartitionStats`]
/// (the partition-space size).
impl Payload for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_u32(buf, *self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

/// [`FrameKind::HealReply`] (ops drained), [`FrameKind::MapInstallReply`]
/// (the epoch in effect), [`FrameKind::MigrateCtlReply`] (census size on
/// begin, stream end on end, edges dropped on drop) and
/// [`FrameKind::SpanExport`] (the trace id to pull).
impl Payload for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, *self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

/// A [`FrameKind::SampleBatch`] payload: deadline plus seeded requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleBatch {
    /// Server-side deadline in milliseconds; `0` means none. Requests the
    /// server reaches after the deadline has lapsed are answered degraded
    /// without touching shards.
    pub deadline_ms: u32,
    /// Cross-process trace context: the caller's trace id and span id, so
    /// the server's root span links back to the issuing client span.
    pub ctx: Option<TraceContext>,
    /// Requests with their per-request RNG seeds (see
    /// [`platod2gl_server::GraphService`]'s determinism contract).
    pub requests: Vec<(SampleRequest, u64)>,
}

/// When at least one request carries a time window, a
/// [`wire::put_time_window_block`] trailer follows the fixed records; a
/// batch with no windowed request omits it, so its encoding is
/// byte-identical to the pre-temporal protocol. The trailer is the one
/// optional part of any payload: absent, every request decodes with
/// `window: None`; present, it must be the rest of the payload.
impl Payload for SampleBatch {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(
            wire::SAMPLE_BATCH_HEADER_BYTES as usize
                + self.requests.len() * wire::SAMPLE_REQUEST_BYTES as usize,
        );
        wire::put_u32(buf, self.deadline_ms);
        wire::put_trace_ctx(buf, self.ctx);
        wire::put_u32(buf, self.requests.len() as u32);
        for (req, seed) in &self.requests {
            wire::put_sample_request(buf, req, *seed);
        }
        if self.requests.iter().any(|(req, _)| req.window.is_some()) {
            let windows: Vec<_> = self.requests.iter().map(|(req, _)| req.window).collect();
            wire::put_time_window_block(buf, &windows);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let deadline_ms = r.u32()?;
        let ctx = wire::get_trace_ctx(r)?;
        let mut requests = get_list(
            r,
            wire::SAMPLE_REQUEST_BYTES as usize,
            wire::get_sample_request,
        )?;
        if !r.is_empty() {
            let windows = wire::get_time_window_block(r, requests.len())?;
            for ((req, _), window) in requests.iter_mut().zip(windows) {
                req.window = window;
            }
        }
        Ok(SampleBatch {
            deadline_ms,
            ctx,
            requests,
        })
    }
}

fn put_responses(buf: &mut Vec<u8>, responses: &[SampleResponse]) {
    wire::put_u32(buf, responses.len() as u32);
    for resp in responses {
        wire::put_sample_response(buf, resp);
    }
}

/// A [`FrameKind::SampleReply`] payload: responses positionally parallel
/// to the batch's requests.
impl Payload for Vec<SampleResponse> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_responses(buf, self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_list(
            r,
            wire::sample_response_bytes(0) as usize,
            wire::get_sample_response,
        )
    }
}

// The standing benchmark's codec probe (`perf/src/probes.rs`) imports the
// sample pair under these four names; they go when a benchmark PR moves it
// to `encode`/`decode`.

/// [`encode`] of a [`SampleBatch`].
pub fn encode_sample_batch(batch: &SampleBatch) -> Vec<u8> {
    encode(batch)
}

/// [`decode`] of a [`SampleBatch`].
pub fn decode_sample_batch(payload: &[u8]) -> Result<SampleBatch, WireError> {
    decode(payload)
}

/// [`encode`] of a [`FrameKind::SampleReply`] payload, from a slice.
pub fn encode_sample_reply(responses: &[SampleResponse]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_responses(&mut buf, responses);
    buf
}

/// [`decode`] of a [`FrameKind::SampleReply`] payload.
pub fn decode_sample_reply(payload: &[u8]) -> Result<Vec<SampleResponse>, WireError> {
    decode(payload)
}

/// A [`FrameKind::UpdateBatch`] (or [`FrameKind::ReplicaBatch`]) payload.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateBatch {
    /// Server-side deadline in milliseconds; `0` means none.
    pub deadline_ms: u32,
    /// Cross-process trace context; its trace id is carried into the
    /// server's slow-op log, its span id into the server root span.
    pub ctx: Option<TraceContext>,
    /// The ops, in submission order.
    pub ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// The batch's trace id, if the caller attached context.
    pub fn trace_id(&self) -> Option<u64> {
        self.ctx.map(|c| c.trace_id)
    }
}

impl Payload for UpdateBatch {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(
            wire::UPDATE_BATCH_HEADER_BYTES as usize
                + self.ops.len() * wire::UPDATE_OP_BYTES as usize,
        );
        wire::put_u32(buf, self.deadline_ms);
        wire::put_trace_ctx(buf, self.ctx);
        wire::put_u32(buf, self.ops.len() as u32);
        for op in &self.ops {
            wire::put_update_op(buf, op);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(UpdateBatch {
            deadline_ms: r.u32()?,
            ctx: wire::get_trace_ctx(r)?,
            ops: get_list(r, wire::UPDATE_OP_BYTES as usize, wire::get_update_op)?,
        })
    }
}

/// A [`FrameKind::UpdateBatchReply`] payload: the applied and queued op
/// counts, a u64 each.
impl Payload for BatchReport {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.applied_ops as u64);
        wire::put_u64(buf, self.queued_ops as u64);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BatchReport {
            applied_ops: r.u64()? as usize,
            queued_ops: r.u64()? as usize,
        })
    }
}

/// A [`FrameKind::HealthReply`] payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReply {
    /// The service's monotone graph version.
    pub graph_version: u64,
    /// Per-shard healths, shard order (its length is the shard count).
    pub healths: Vec<ShardHealth>,
}

impl Payload for HealthReply {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.graph_version);
        wire::put_u32(buf, self.healths.len() as u32);
        for &h in &self.healths {
            buf.push(wire::health_tag(h));
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HealthReply {
            graph_version: r.u64()?,
            healths: get_list(r, 1, |r| wire::health_from(r.u8()?))?,
        })
    }
}

/// A [`FrameKind::TxnApply`] (or [`FrameKind::ReplicaTxn`]) payload: the
/// typed transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnApply {
    /// Client-chosen transaction id — the idempotence key. A retry of a
    /// lost reply re-sends the same id.
    pub txn_id: u64,
    /// Cross-process trace context for the submitting client span.
    pub ctx: Option<TraceContext>,
    /// The typed ops, in submission order.
    pub ops: Vec<TxnOp>,
}

impl Payload for TxnApply {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(
            wire::TXN_BATCH_HEADER_BYTES as usize + self.ops.len() * wire::TXN_OP_BYTES as usize,
        );
        wire::put_u64(buf, self.txn_id);
        wire::put_trace_ctx(buf, self.ctx);
        wire::put_u32(buf, self.ops.len() as u32);
        for op in &self.ops {
            wire::put_txn_op(buf, op);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TxnApply {
            txn_id: r.u64()?,
            ctx: wire::get_trace_ctx(r)?,
            ops: get_list(r, wire::TXN_OP_BYTES as usize, wire::get_txn_op)?,
        })
    }
}

/// A [`FrameKind::TxnReply`] payload: the three transaction outcomes.
///
/// Status byte 0 = committed, 1 = rejected (phase-1 violations follow),
/// 2 = store error (shard + code + message, the [`ErrorReply`] shape).
#[derive(Clone, Debug, PartialEq)]
pub enum TxnReply {
    /// The transaction committed (or was answered from the idempotence
    /// ledger — `receipt.deduped`).
    Committed(TxnReceipt),
    /// Phase 1 rejected the batch; zero changes were applied.
    Rejected {
        txn_id: u64,
        violations: Vec<TxnViolation>,
    },
    /// Phase 2 could not run: the store error, as the [`ErrorReply`] an
    /// update batch would have been refused with.
    StoreError(ErrorReply),
}

const TXN_STATUS_COMMITTED: u8 = 0;
const TXN_STATUS_REJECTED: u8 = 1;
const TXN_STATUS_STORE_ERROR: u8 = 2;

fn violation_tag(kind: ViolationKind) -> u8 {
    match kind {
        ViolationKind::DanglingDelete => 0,
        ViolationKind::DanglingPatch => 1,
        ViolationKind::DuplicateKey => 2,
        ViolationKind::NonFiniteWeight => 3,
        ViolationKind::UnknownEtype => 4,
        ViolationKind::Empty => 5,
    }
}

fn violation_from(tag: u8) -> Result<ViolationKind, WireError> {
    Ok(match tag {
        0 => ViolationKind::DanglingDelete,
        1 => ViolationKind::DanglingPatch,
        2 => ViolationKind::DuplicateKey,
        3 => ViolationKind::NonFiniteWeight,
        4 => ViolationKind::UnknownEtype,
        5 => ViolationKind::Empty,
        tag => {
            return Err(WireError::BadTag {
                what: "violation kind",
                tag,
            })
        }
    })
}

impl Payload for TxnReply {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            TxnReply::Committed(receipt) => {
                buf.push(TXN_STATUS_COMMITTED);
                wire::put_u64(buf, receipt.txn_id);
                wire::put_u64(buf, receipt.ops_applied);
                wire::put_u64(buf, receipt.graph_version);
                buf.push(u8::from(receipt.deduped));
            }
            TxnReply::Rejected { txn_id, violations } => {
                buf.push(TXN_STATUS_REJECTED);
                wire::put_u64(buf, *txn_id);
                wire::put_u32(buf, violations.len() as u32);
                for v in violations {
                    wire::put_u32(buf, v.op_index as u32);
                    buf.push(violation_tag(v.kind));
                    wire::put_str(buf, &v.detail);
                }
            }
            // Shard before code: the txn status record predates the shared
            // `ErrorReply` type and keeps its own field order on the wire.
            TxnReply::StoreError(err) => {
                buf.push(TXN_STATUS_STORE_ERROR);
                wire::put_u32(buf, err.shard);
                buf.push(err.code);
                wire::put_str(buf, &err.message);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TXN_STATUS_COMMITTED => Ok(TxnReply::Committed(TxnReceipt {
                txn_id: r.u64()?,
                ops_applied: r.u64()?,
                graph_version: r.u64()?,
                deduped: r.u8()? != 0,
            })),
            TXN_STATUS_REJECTED => Ok(TxnReply::Rejected {
                txn_id: r.u64()?,
                // Smallest violation record: op_index u32 + kind u8 + empty
                // string (u32 length).
                violations: get_list(r, 9, |r| {
                    Ok(TxnViolation {
                        op_index: r.u32()? as usize,
                        kind: violation_from(r.u8()?)?,
                        detail: wire::get_str(r)?,
                    })
                })?,
            }),
            TXN_STATUS_STORE_ERROR => {
                let shard = r.u32()?;
                Ok(TxnReply::StoreError(ErrorReply {
                    code: r.u8()?,
                    shard,
                    message: wire::get_str(r)?,
                }))
            }
            tag => Err(WireError::BadTag {
                what: "txn reply status",
                tag,
            }),
        }
    }
}

/// A [`FrameKind::MapReply`] payload: the server's fleet partition map as
/// opaque encoded bytes (the fleet crate owns the map codec), or `None`
/// when the server carries no map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapReply {
    /// The map's epoch (0 when absent).
    pub epoch: u64,
    /// The encoded map, absent on non-fleet servers.
    pub bytes: Option<Vec<u8>>,
}

impl Payload for MapReply {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(13 + self.bytes.as_ref().map_or(0, Vec::len));
        wire::put_u64(buf, self.epoch);
        match &self.bytes {
            Some(bytes) => {
                buf.push(1);
                put_blob(buf, bytes);
            }
            None => buf.push(0),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = r.u64()?;
        let bytes = match r.u8()? {
            0 => None,
            _ => Some(get_blob(r)?),
        };
        Ok(MapReply { epoch, bytes })
    }
}

/// A [`FrameKind::MapInstall`] payload: a fleet partition map for the
/// server to adopt if it is newer than the one it carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapInstall {
    /// The map's epoch.
    pub epoch: u64,
    /// The encoded map.
    pub bytes: Vec<u8>,
}

impl Payload for MapInstall {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(12 + self.bytes.len());
        wire::put_u64(buf, self.epoch);
        put_blob(buf, &self.bytes);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MapInstall {
            epoch: r.u64()?,
            bytes: get_blob(r)?,
        })
    }
}

/// What a [`MigrateCtl`] asks for, as its action byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrateAction {
    /// Arm the move on its source and take the census (byte 0).
    Begin = 0,
    /// Disarm the move (byte 1).
    End = 1,
    /// Drop the partition's resident copy on a move's target (byte 2).
    Drop = 2,
}

/// A [`FrameKind::MigrateCtl`] payload: one migration-plane control call
/// for one partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrateCtl {
    /// The call; any other action byte is refused.
    pub action: MigrateAction,
    /// The migrating partition.
    pub partition: u32,
    /// The partition-space size the id is relative to (unused on end).
    pub num_partitions: u32,
}

impl Payload for MigrateCtl {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(self.action as u8);
        wire::put_u32(buf, self.partition);
        wire::put_u32(buf, self.num_partitions);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let action = match r.u8()? {
            0 => MigrateAction::Begin,
            1 => MigrateAction::End,
            2 => MigrateAction::Drop,
            tag => {
                return Err(WireError::BadTag {
                    what: "migrate action",
                    tag,
                })
            }
        };
        Ok(MigrateCtl {
            action,
            partition: r.u32()?,
            num_partitions: r.u32()?,
        })
    }
}

/// A [`FrameKind::TailFetch`] payload: the armed move's stream from a
/// position on (see `GraphService::migration_tail`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailFetch {
    /// The migrating partition.
    pub partition: u32,
    /// The first stream position wanted.
    pub from: u64,
}

impl Payload for TailFetch {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_u32(buf, self.partition);
        wire::put_u64(buf, self.from);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TailFetch {
            partition: r.u32()?,
            from: r.u64()?,
        })
    }
}

/// A [`FrameKind::TailReply`] payload: the ops served from `from`.
#[derive(Clone, Debug, PartialEq)]
pub struct TailReply {
    /// The position to resume the next tail fetch from.
    pub next: u64,
    /// The ops, stream order.
    pub ops: Vec<UpdateOp>,
}

impl Payload for TailReply {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(12 + self.ops.len() * wire::UPDATE_OP_BYTES as usize);
        wire::put_u64(buf, self.next);
        wire::put_u32(buf, self.ops.len() as u32);
        for op in &self.ops {
            wire::put_update_op(buf, op);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TailReply {
            next: r.u64()?,
            ops: get_list(r, wire::UPDATE_OP_BYTES as usize, wire::get_update_op)?,
        })
    }
}

/// A [`FrameKind::PartitionStatsReply`] payload: per-partition resident
/// key counts, partition order.
impl Payload for Vec<u64> {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(4 + self.len() * 8);
        wire::put_u32(buf, self.len() as u32);
        for &c in self {
            wire::put_u64(buf, c);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_list(r, 8, Reader::u64)
    }
}

/// Error codes carried by [`FrameKind::ErrorReply`] and by a
/// [`TxnReply::StoreError`].
pub mod error_code {
    /// A shard worker panicked while applying the batch.
    pub const SHARD_PANICKED: u8 = 1;
    /// The request payload decoded but was semantically invalid.
    pub const BAD_REQUEST: u8 = 2;
    /// The shard is failed (or out of retry budget) and took nothing.
    pub const SHARD_UNAVAILABLE: u8 = 3;
    /// Any other store error — I/O on a relay leg or the WAL, corrupt
    /// state; the message says which.
    pub const STORE: u8 = 4;
}

/// A [`FrameKind::ErrorReply`] payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// One of [`error_code`]'s constants.
    pub code: u8,
    /// The shard the error names (0 when not shard-specific).
    pub shard: u32,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorReply {
    /// An [`error_code::BAD_REQUEST`] refusal.
    pub(crate) fn bad_request(message: String) -> Self {
        ErrorReply {
            code: error_code::BAD_REQUEST,
            shard: 0,
            message,
        }
    }
}

/// The reply a store error travels as, on the update and the txn path
/// alike: one code per variant the client can act on, the rest under
/// [`error_code::STORE`].
impl From<&Error> for ErrorReply {
    fn from(e: &Error) -> Self {
        let (code, shard, message) = match e {
            Error::ShardPanicked { shard, .. } => {
                (error_code::SHARD_PANICKED, *shard, e.to_string())
            }
            Error::ShardUnavailable { shard } => {
                (error_code::SHARD_UNAVAILABLE, *shard, e.to_string())
            }
            Error::Io(io) => (error_code::STORE, 0, io.to_string()),
            _ => (error_code::STORE, 0, e.to_string()),
        };
        ErrorReply {
            code,
            shard: shard as u32,
            message,
        }
    }
}

/// The inverse, client side: the variant the server raised, rebuilt from
/// the code. [`error_code::BAD_REQUEST`] (and any code this client does
/// not know) is invalid data, not a shard fault.
impl From<ErrorReply> for Error {
    fn from(reply: ErrorReply) -> Self {
        let shard = reply.shard as usize;
        match reply.code {
            error_code::SHARD_PANICKED => Error::ShardPanicked {
                shard,
                detail: reply.message,
            },
            error_code::SHARD_UNAVAILABLE => Error::ShardUnavailable { shard },
            error_code::STORE => Error::Io(io::Error::other(reply.message)),
            _ => Error::Io(io::Error::new(io::ErrorKind::InvalidData, reply.message)),
        }
    }
}

impl Payload for ErrorReply {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(9 + self.message.len());
        buf.push(self.code);
        wire::put_u32(buf, self.shard);
        wire::put_str(buf, &self.message);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ErrorReply {
            code: r.u8()?,
            shard: r.u32()?,
            message: wire::get_str(r)?,
        })
    }
}

/// The server-side timing breakdown every reply carries as a fixed
/// 8-byte trailer ([`wire::REPLY_TIMING_ECHO_BYTES`]) between payload and
/// CRC: how long the request waited before a handler picked it up and how
/// long the handler spent serving it, both in microseconds (saturating).
/// Clients subtract `queue_us + service_us` from observed round-trip time
/// to attribute latency to the network vs. the server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimingEcho {
    /// Microseconds between frame arrival and handler start.
    pub queue_us: u32,
    /// Microseconds the handler spent producing the reply.
    pub service_us: u32,
}

impl TimingEcho {
    /// Queue plus service time — the total server-resident duration.
    pub fn server_time(&self) -> std::time::Duration {
        std::time::Duration::from_micros(u64::from(self.queue_us) + u64::from(self.service_us))
    }
}

/// Append the timing-echo trailer to a reply payload. Servers call this on
/// every reply — including error replies — immediately before framing.
pub fn append_timing_echo(payload: &mut Vec<u8>, queue_us: u32, service_us: u32) {
    wire::put_u32(payload, queue_us);
    wire::put_u32(payload, service_us);
}

/// Strip the timing-echo trailer off a reply payload, in place, and decode
/// it. A reply shorter than the trailer is truncated. Clients strip it
/// before [`decode`], which would otherwise refuse it as trailing bytes.
pub fn take_timing_echo(payload: &mut Vec<u8>) -> Result<TimingEcho, FrameError> {
    let echo_at = payload
        .len()
        .checked_sub(wire::REPLY_TIMING_ECHO_BYTES as usize)
        .ok_or(FrameError::Wire(WireError::Truncated))?;
    let mut r = Reader::new(&payload[echo_at..]);
    let echo = TimingEcho {
        queue_us: r.u32()?,
        service_us: r.u32()?,
    };
    payload.truncate(echo_at);
    Ok(echo)
}

/// Smallest encoded [`SpanRecord`]: empty name (u32 length) + id u64 +
/// parent option (flag + u64) + trace u64 + remote-parent option + start
/// u64 + duration u64.
const SPAN_MIN_BYTES: usize = 4 + 8 + 9 + 8 + 9 + 8 + 8;

/// A [`FrameKind::SpanExportReply`] payload: every recent span on this
/// server belonging to the requested trace, completion order. The same
/// list sits under each slow op of an [`ObsSnapshot`].
impl Payload for Vec<SpanRecord> {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.reserve(4 + self.len() * SPAN_MIN_BYTES);
        wire::put_u32(buf, self.len() as u32);
        for s in self {
            wire::put_str(buf, &s.name);
            wire::put_u64(buf, s.id);
            wire::put_opt_u64(buf, s.parent);
            wire::put_u64(buf, s.trace_id);
            wire::put_opt_u64(buf, s.remote_parent);
            wire::put_u64(buf, s.start_ns);
            wire::put_u64(buf, s.duration_ns);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_list(r, SPAN_MIN_BYTES, |r| {
            Ok(SpanRecord {
                name: wire::get_str(r)?.into(),
                id: r.u64()?,
                parent: wire::get_opt_u64(r)?,
                trace_id: r.u64()?,
                remote_parent: wire::get_opt_u64(r)?,
                start_ns: r.u64()?,
                duration_ns: r.u64()?,
            })
        })
    }
}

/// A [`FrameKind::ObsExportReply`] payload: the server's registry
/// snapshot — metric values with complete histogram buckets (so fleet
/// merging is exact) plus the slow-op log. `spans` is **not** encoded and
/// decodes empty: the span ring travels only per trace id, in a
/// [`FrameKind::SpanExportReply`].
impl Payload for ObsSnapshot {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_u32(buf, self.counters.len() as u32);
        for (name, v) in &self.counters {
            wire::put_str(buf, name);
            wire::put_u64(buf, *v);
        }
        wire::put_u32(buf, self.gauges.len() as u32);
        for (name, v) in &self.gauges {
            wire::put_str(buf, name);
            wire::put_u64(buf, *v as u64);
        }
        wire::put_u32(buf, self.histograms.len() as u32);
        for (name, h) in &self.histograms {
            wire::put_str(buf, name);
            for v in [
                h.count, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns, h.sum_ns,
            ] {
                wire::put_u64(buf, v);
            }
            wire::put_u32(buf, h.buckets.len() as u32);
            for &(exp, n) in &h.buckets {
                wire::put_u32(buf, exp);
                wire::put_u64(buf, n);
            }
        }
        wire::put_u32(buf, self.slow.len() as u32);
        for s in &self.slow {
            wire::put_str(buf, &s.op);
            wire::put_opt_u64(buf, s.trace_id);
            wire::put_str(buf, &s.detail);
            wire::put_u64(buf, s.duration_ns);
            s.spans.put(buf);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ObsSnapshot {
            // Smallest scalar entry: empty name (u32 length) + value u64.
            counters: get_list(r, 12, |r| Ok((wire::get_str(r)?, r.u64()?)))?,
            gauges: get_list(r, 12, |r| Ok((wire::get_str(r)?, r.u64()? as i64)))?,
            // Smallest histogram entry: empty name + 7 summary u64s +
            // bucket count.
            histograms: get_list(r, 4 + 56 + 4, |r| {
                Ok((
                    wire::get_str(r)?,
                    HistogramSnapshot {
                        count: r.u64()?,
                        mean_ns: r.u64()?,
                        p50_ns: r.u64()?,
                        p95_ns: r.u64()?,
                        p99_ns: r.u64()?,
                        max_ns: r.u64()?,
                        sum_ns: r.u64()?,
                        buckets: get_list(r, 12, |r| Ok((r.u32()?, r.u64()?)))?,
                    },
                ))
            })?,
            spans: Vec::new(),
            // Smallest slow-op entry: empty op + absent trace option +
            // empty detail + duration u64 + span count.
            slow: get_list(r, 4 + 9 + 4 + 8 + 4, |r| {
                Ok(SlowOpRecord {
                    op: wire::get_str(r)?.into(),
                    trace_id: wire::get_opt_u64(r)?,
                    detail: wire::get_str(r)?,
                    duration_ns: r.u64()?,
                    spans: Payload::get(r)?,
                })
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::{Edge, EdgeType, VertexId};
    use platod2gl_server::SlotSource;

    fn roundtrip(kind: FrameKind, payload: &[u8]) -> (FrameKind, Vec<u8>) {
        let encoded = encode_frame(kind, 0, payload);
        let (header, payload) = read_frame(&mut encoded.as_slice()).expect("roundtrip");
        (header.kind, payload)
    }

    #[test]
    fn frames_roundtrip_every_kind() {
        for kind in [
            FrameKind::SampleBatch,
            FrameKind::SampleReply,
            FrameKind::UpdateBatch,
            FrameKind::UpdateBatchReply,
            FrameKind::HealthProbe,
            FrameKind::HealthReply,
            FrameKind::HealRequest,
            FrameKind::HealReply,
            FrameKind::TxnApply,
            FrameKind::TxnReply,
            FrameKind::MapFetch,
            FrameKind::MapReply,
            FrameKind::MapInstall,
            FrameKind::MapInstallReply,
            FrameKind::ReplicaBatch,
            FrameKind::ReplicaTxn,
            FrameKind::MigrateCtl,
            FrameKind::MigrateCtlReply,
            FrameKind::TailFetch,
            FrameKind::TailReply,
            FrameKind::PartitionStats,
            FrameKind::PartitionStatsReply,
            FrameKind::SpanExport,
            FrameKind::SpanExportReply,
            FrameKind::ObsExport,
            FrameKind::ObsExportReply,
            FrameKind::ErrorReply,
        ] {
            let (back_kind, back_payload) = roundtrip(kind, b"xyz");
            assert_eq!(back_kind, kind);
            assert_eq!(back_payload, b"xyz");
        }
    }

    #[test]
    fn reply_kinds_pair_with_their_requests() {
        assert_eq!(FrameKind::SampleBatch.reply(), FrameKind::SampleReply);
        assert_eq!(FrameKind::ObsExport.reply(), FrameKind::ObsExportReply);
        // The replication channel is answered with the first-hand kinds.
        assert_eq!(FrameKind::ReplicaBatch.reply(), FrameKind::UpdateBatchReply);
        assert_eq!(FrameKind::ReplicaTxn.reply(), FrameKind::TxnReply);
        // Not requests: a server has only an error to answer them with.
        assert_eq!(FrameKind::SampleReply.reply(), FrameKind::ErrorReply);
        assert_eq!(FrameKind::ErrorReply.reply(), FrameKind::ErrorReply);
    }

    #[test]
    fn frame_sizes_match_the_wire_size_model() {
        let batch = SampleBatch {
            deadline_ms: 250,
            ctx: Some(TraceContext {
                trace_id: 77,
                parent_span: 3,
            }),
            requests: vec![
                (SampleRequest::new(VertexId(1), EdgeType(0), 4), 7),
                (
                    SampleRequest::new(VertexId(2), EdgeType(1), 8).with_trace_id(99),
                    8,
                ),
            ],
        };
        let frame = encode_frame(FrameKind::SampleBatch, 0, &encode(&batch));
        assert_eq!(frame.len() as u64, wire::sample_request_frame_bytes(2));

        let resps = vec![
            SampleResponse {
                neighbors: vec![VertexId(3), VertexId(4)],
                sources: vec![SlotSource::Sampled; 2],
                degraded: false,
                shard: 0,
            },
            SampleResponse {
                neighbors: Vec::new(),
                sources: Vec::new(),
                degraded: true,
                shard: 1,
            },
        ];
        // Reply size models include the timing-echo trailer.
        let mut payload = encode(&resps);
        append_timing_echo(&mut payload, 1, 2);
        let frame = encode_frame(FrameKind::SampleReply, 0, &payload);
        assert_eq!(
            frame.len() as u64,
            wire::sample_response_frame_bytes([2, 0])
        );

        let ops = UpdateBatch {
            deadline_ms: 0,
            ctx: Some(TraceContext {
                trace_id: 5,
                parent_span: 9,
            }),
            ops: vec![UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.0)); 3],
        };
        let frame = encode_frame(FrameKind::UpdateBatch, 0, &encode(&ops));
        assert_eq!(frame.len() as u64, wire::update_frame_bytes(3));

        let reply = BatchReport {
            applied_ops: 3,
            queued_ops: 0,
        };
        let mut payload = encode(&reply);
        append_timing_echo(&mut payload, 0, 0);
        let frame = encode_frame(FrameKind::UpdateBatchReply, 0, &payload);
        assert_eq!(frame.len() as u64, wire::UPDATE_REPLY_FRAME_BYTES);
    }

    #[test]
    fn timing_echo_appends_and_strips_by_version() {
        let mut payload = encode(&BatchReport {
            applied_ops: 1,
            queued_ops: 2,
        });
        let bare = payload.clone();
        assert_eq!(hex(&bare), "01000000000000000200000000000000", "RECORDED");
        append_timing_echo(&mut payload, 150, 2_000);
        assert_eq!(
            payload.len(),
            bare.len() + wire::REPLY_TIMING_ECHO_BYTES as usize
        );

        // The trailer comes back off and the remainder decodes clean.
        let echo = take_timing_echo(&mut payload).expect("echo");
        assert_eq!(
            echo,
            TimingEcho {
                queue_us: 150,
                service_us: 2_000,
            }
        );
        assert_eq!(echo.server_time(), std::time::Duration::from_micros(2_150));
        assert_eq!(payload, bare);

        // A reply too short for the trailer is truncated, not a panic.
        let mut tiny = vec![1u8, 2, 3];
        assert!(matches!(
            take_timing_echo(&mut tiny),
            Err(FrameError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn span_export_payloads_roundtrip() {
        assert_eq!(decode(&encode(&42u64)), Ok(42u64));

        let spans = vec![
            SpanRecord {
                name: "rpc.server.sample".into(),
                id: 3,
                parent: None,
                trace_id: 42,
                remote_parent: Some(17),
                start_ns: 1_000,
                duration_ns: 250_000,
            },
            SpanRecord {
                name: "cluster.sample".into(),
                id: 4,
                parent: Some(3),
                trace_id: 42,
                remote_parent: None,
                start_ns: 1_500,
                duration_ns: 200_000,
            },
        ];
        let payload = encode(&spans);
        assert_eq!(
            hex(&payload),
            "02000000110000007270632e7365727665722e73616d706c65030000000000000000000000\
             00000000002a00000000000000011100000000000000e80300000000000090d0030000000000\
             0e000000636c75737465722e73616d706c6504000000000000000103000000000000002a0000\
             0000000000000000000000000000dc05000000000000400d030000000000",
            "RECORDED"
        );
        assert_eq!(decode::<Vec<SpanRecord>>(&payload).expect("spans"), spans);
        assert_eq!(
            decode::<Vec<SpanRecord>>(&encode(&Vec::<SpanRecord>::new())).expect("empty"),
            Vec::new()
        );
        // Truncations decode to errors, never panics.
        for cut in 0..payload.len() {
            assert!(
                decode::<Vec<SpanRecord>>(&payload[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn obs_export_payloads_roundtrip() {
        let export = ObsSnapshot {
            counters: vec![
                ("cluster.requests".to_string(), 12),
                ("obs.slow_ops".to_string(), 1),
            ],
            gauges: vec![("pool.idle".to_string(), -3)],
            histograms: vec![(
                "rpc.server.service_ns".to_string(),
                HistogramSnapshot {
                    count: 3,
                    mean_ns: 1_500,
                    p50_ns: 2_048,
                    p95_ns: 4_096,
                    p99_ns: 4_096,
                    max_ns: 3_000,
                    sum_ns: 4_500,
                    buckets: vec![(10, 2), (11, 1)],
                },
            )],
            // The ring is not part of the payload; see the decode below.
            spans: Vec::new(),
            slow: vec![SlowOpRecord {
                op: "rpc.server.update".into(),
                trace_id: Some(42),
                detail: "ops=64".to_string(),
                duration_ns: 9_000_000,
                spans: vec![SpanRecord {
                    name: "apply".into(),
                    id: 9,
                    parent: None,
                    trace_id: 42,
                    remote_parent: Some(2),
                    start_ns: 0,
                    duration_ns: 9_000_000,
                }],
            }],
        };
        let payload = encode(&export);
        assert_eq!(
            hex(&payload),
            "0200000010000000636c75737465722e72657175657374730c000000000000000c0000006f62\
             732e736c6f775f6f707301000000000000000100000009000000706f6f6c2e69646c65fdffff\
             ffffffffff01000000150000007270632e7365727665722e736572766963655f6e7303000000\
             00000000dc05000000000000000800000000000000100000000000000010000000000000b80b\
             0000000000009411000000000000020000000a00000002000000000000000b00000001000000\
             0000000001000000110000007270632e7365727665722e757064617465012a00000000000000\
             060000006f70733d3634405489000000000001000000050000006170706c7909000000000000\
             000000000000000000002a000000000000000102000000000000000000000000000000405489\
             0000000000",
            "RECORDED"
        );
        assert_eq!(decode::<ObsSnapshot>(&payload).expect("export"), export);
        // A snapshot with a populated ring encodes to the same bytes.
        let with_ring = ObsSnapshot {
            spans: export.slow[0].spans.clone(),
            ..export.clone()
        };
        assert_eq!(encode(&with_ring), payload);
        assert_eq!(
            decode::<ObsSnapshot>(&encode(&ObsSnapshot::default())).expect("empty"),
            ObsSnapshot::default()
        );
        // Truncations decode to errors, never panics.
        for cut in 0..payload.len() {
            assert!(decode::<ObsSnapshot>(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_without_panics() {
        let good = encode_frame(FrameKind::HealthProbe, 0, &[]);

        // Truncation at every cut point: either an Io (short read) error
        // or a graceful decode error, never a panic.
        for cut in 0..good.len() {
            assert!(read_frame(&mut &good[..cut]).is_err(), "cut at {cut}");
        }

        // Flip one payload byte: the CRC must catch it.
        let batch = encode_frame(
            FrameKind::SampleBatch,
            0,
            &encode(&SampleBatch {
                deadline_ms: 0,
                ctx: None,
                requests: vec![(SampleRequest::new(VertexId(9), EdgeType(0), 2), 1)],
            }),
        );
        for i in 4..batch.len() {
            let mut bad = batch.clone();
            bad[i] ^= 0x40;
            match read_frame(&mut bad.as_slice()) {
                Err(_) => {}
                // A flip in the length prefix region is out of scope here
                // (i starts at 4), so success means the CRC failed us.
                Ok(_) => panic!("flipped byte {i} went undetected"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut huge = Vec::new();
        wire::put_u32(&mut huge, u32::MAX);
        huge.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(FrameError::BadLength { len: u32::MAX })
        ));
        // Undersized too: a length that cannot hold version+kind+crc.
        let mut tiny = Vec::new();
        wire::put_u32(&mut tiny, 3);
        tiny.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            read_frame(&mut tiny.as_slice()),
            Err(FrameError::BadLength { len: 3 })
        ));
    }

    /// `frame` with one header byte overwritten and the CRC recomputed, so
    /// the header check (not the CRC) is what judges it.
    fn with_header_byte(mut frame: Vec<u8>, at: usize, value: u8) -> Vec<u8> {
        frame[at] = value;
        let crc_at = frame.len() - 4;
        let crc = crc32c(&frame[4..crc_at]);
        frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    #[test]
    fn wrong_version_and_unknown_kind_are_rejected() {
        let good = encode_frame(FrameKind::HealReply, 0, &encode(&1u64));
        let frame = with_header_byte(good.clone(), 4, 9);
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::BadVersion(9))
        ));

        // A frame in the retired version-1 layout (no req_id), CRC valid.
        // Its 8-byte payload makes it exactly as long as an empty current
        // frame, so the version check is what rejects it.
        let mut body = vec![1u8, FrameKind::HealReply as u8];
        body.extend_from_slice(&encode(&1u64));
        let crc = crc32c(&body);
        wire::put_u32(&mut body, crc);
        let mut v1 = Vec::new();
        wire::put_u32(&mut v1, body.len() as u32);
        v1.extend_from_slice(&body);
        assert!(matches!(
            read_frame(&mut v1.as_slice()),
            Err(FrameError::BadVersion(1))
        ));
        assert!(matches!(parse_frame(&v1), Err(FrameError::BadVersion(1))));

        // 0x44 was never a kind; 0x13/0x14 were the retired partition
        // export pair, which an older mover may still send.
        for tag in [0x44, 0x13, 0x14] {
            let frame = with_header_byte(good.clone(), 5, tag);
            assert!(matches!(
                read_frame(&mut frame.as_slice()),
                Err(FrameError::BadKind(t)) if t == tag
            ));
        }
    }

    #[test]
    fn zero_copy_parse_agrees_with_the_streaming_reader() {
        let frame = encode_frame(FrameKind::HealReply, 42, &encode(&7u64));
        let total = frame_len(&frame).expect("len").expect("complete");
        assert_eq!(total, frame.len());
        let (header, payload) = parse_frame(&frame).expect("parse");
        let (stream_header, stream_payload) = read_frame(&mut frame.as_slice()).expect("read");
        assert_eq!(header, stream_header);
        assert_eq!(header.req_id, 42);
        assert_eq!(payload, stream_payload.as_slice());
        // An incomplete prefix is "not yet", not an error.
        assert!(matches!(frame_len(&[1, 2]), Ok(None)));
        // A forged prefix is rejected at peek time, before any buffering.
        let mut huge = Vec::new();
        wire::put_u32(&mut huge, u32::MAX);
        assert!(matches!(
            frame_len(&huge),
            Err(FrameError::BadLength { len: u32::MAX })
        ));
    }

    #[test]
    fn v2_frame_too_short_for_its_header_is_rejected() {
        // len = 8 cannot hold version + kind + req_id + CRC; forge such a
        // frame with a valid CRC: the length floor rejects it first.
        let mut body = vec![PROTOCOL_VERSION, FrameKind::HealthProbe as u8, 0, 0];
        let crc = crc32c(&body);
        wire::put_u32(&mut body, crc);
        let mut frame = Vec::new();
        wire::put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::BadLength { len: 8 })
        ));
        assert!(matches!(
            parse_frame(&frame),
            Err(FrameError::BadLength { len: 8 })
        ));
    }

    #[test]
    fn health_and_error_payloads_roundtrip() {
        let health = HealthReply {
            graph_version: 42,
            healths: vec![
                ShardHealth::Healthy,
                ShardHealth::Degraded,
                ShardHealth::Failed,
            ],
        };
        let back: HealthReply = decode(&encode(&health)).expect("health");
        assert_eq!(back, health);

        let err = ErrorReply {
            code: error_code::SHARD_PANICKED,
            shard: 3,
            message: "worker for shard 3 panicked: boom".to_string(),
        };
        let back: ErrorReply = decode(&encode(&err)).expect("error");
        assert_eq!(back, err);

        assert_eq!(decode(&encode(&7u32)), Ok(7u32));
        assert_eq!(decode(&encode(&11u64)), Ok(11u64));
    }

    #[test]
    fn fleet_payloads_roundtrip() {
        for reply in [
            MapReply {
                epoch: 0,
                bytes: None,
            },
            MapReply {
                epoch: 42,
                bytes: Some(vec![1, 2, 3, 4, 5]),
            },
            MapReply {
                epoch: 7,
                bytes: Some(Vec::new()),
            },
        ] {
            assert_eq!(
                decode::<MapReply>(&encode(&reply)).expect("map reply"),
                reply
            );
        }
        let install = MapInstall {
            epoch: 9,
            bytes: vec![0xaa, 0xbb],
        };
        assert_eq!(decode(&encode(&install)), Ok(install));

        for action in [
            MigrateAction::Begin,
            MigrateAction::End,
            MigrateAction::Drop,
        ] {
            let ctl = MigrateCtl {
                action,
                partition: 5,
                num_partitions: 64,
            };
            assert_eq!(decode(&encode(&ctl)), Ok(ctl));
        }
        let ctl = MigrateCtl {
            action: MigrateAction::Drop,
            partition: 5,
            num_partitions: 64,
        };
        // The arm/disarm layout is unchanged; the drop call is action byte 2.
        assert_eq!(hex(&encode(&ctl)), "020500000040000000", "RECORDED");
        for tag in [3u8, 9, 0xff] {
            let mut bad_action = encode(&ctl);
            bad_action[0] = tag;
            assert_eq!(
                decode::<MigrateCtl>(&bad_action),
                Err(WireError::BadTag {
                    what: "migrate action",
                    tag
                })
            );
        }
        assert_eq!(decode(&encode(&123u64)), Ok(123u64));

        let tail_fetch = TailFetch {
            partition: 5,
            from: 999,
        };
        assert_eq!(decode(&encode(&tail_fetch)), Ok(tail_fetch));
        assert_eq!(
            hex(&encode(&tail_fetch)),
            "05000000e703000000000000",
            "RECORDED"
        );
        let tail = TailReply {
            next: 17,
            ops: vec![
                UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.5)),
                UpdateOp::Delete {
                    src: VertexId(3),
                    dst: VertexId(4),
                    etype: EdgeType(2),
                },
            ],
        };
        assert_eq!(
            decode::<TailReply>(&encode(&tail)).expect("tail reply"),
            tail
        );

        assert_eq!(decode(&encode(&64u32)), Ok(64u32));
        let counts = vec![0u64, 3, 99, u64::MAX];
        assert_eq!(decode(&encode(&counts)), Ok(counts));

        // Truncations decode to errors, never panics.
        let payload = encode(&tail);
        for cut in 0..payload.len() {
            assert!(decode::<TailReply>(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn txn_payloads_roundtrip_and_sizes_match() {
        let apply = TxnApply {
            txn_id: 0xdead_beef,
            ctx: Some(TraceContext {
                trace_id: 6,
                parent_span: 2,
            }),
            ops: vec![
                TxnOp::InsertEdge(Edge::new(VertexId(1), VertexId(2), 0.5)),
                TxnOp::DeleteEdge {
                    src: VertexId(3),
                    dst: VertexId(4),
                    etype: EdgeType(1),
                },
                TxnOp::UpsertVertex {
                    vertex: VertexId(5),
                },
            ],
        };
        let payload = encode(&apply);
        let frame = encode_frame(FrameKind::TxnApply, 0, &payload);
        assert_eq!(frame.len() as u64, wire::txn_frame_bytes(3));
        assert_eq!(decode::<TxnApply>(&payload).expect("apply"), apply);

        let committed = TxnReply::Committed(TxnReceipt {
            txn_id: 7,
            ops_applied: 3,
            graph_version: 12,
            deduped: true,
        });
        let payload = encode(&committed);
        let mut echoed = payload.clone();
        append_timing_echo(&mut echoed, 5, 10);
        let frame = encode_frame(FrameKind::TxnReply, 0, &echoed);
        assert_eq!(frame.len() as u64, wire::TXN_REPLY_FRAME_BYTES);
        assert_eq!(decode::<TxnReply>(&payload).expect("committed"), committed);

        let rejected = TxnReply::Rejected {
            txn_id: 9,
            violations: vec![
                TxnViolation {
                    op_index: 0,
                    kind: ViolationKind::DanglingDelete,
                    detail: "edge (1, 0, 2) does not exist".to_string(),
                },
                TxnViolation {
                    op_index: 4,
                    kind: ViolationKind::NonFiniteWeight,
                    detail: String::new(),
                },
            ],
        };
        let back: TxnReply = decode(&encode(&rejected)).expect("rejected");
        assert_eq!(back, rejected);

        let store_err = TxnReply::StoreError(ErrorReply {
            code: error_code::SHARD_PANICKED,
            shard: 2,
            message: "worker for shard 2 panicked".to_string(),
        });
        assert_eq!(
            hex(&encode(&store_err)),
            "0202000000011b000000776f726b657220666f7220736861726420322070616e69636b6564",
            "RECORDED"
        );
        let back: TxnReply = decode(&encode(&store_err)).expect("store error");
        assert_eq!(back, store_err);

        // Truncations decode to errors, never panics.
        let payload = encode(&rejected);
        for cut in 0..payload.len() {
            assert!(decode::<TxnReply>(&payload[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown status byte.
        assert!(matches!(
            decode::<TxnReply>(&[9u8]),
            Err(WireError::BadTag {
                what: "txn reply status",
                ..
            })
        ));
    }

    /// Payload bytes as hex, for the `RECORDED` assertions below: bytes
    /// captured from these same fixtures at the commit before the codec
    /// took the domain types (`ObsSnapshot`, `SpanRecord`, `BatchReport`,
    /// an `ErrorReply` inside a txn reply) in place of its own mirror
    /// structs. The change of types moved no byte.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}
