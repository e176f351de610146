//! Write-ahead log for crash-safe durability (robustness layer on top of
//! paper Sec. IV's in-memory store).
//!
//! PlatoD2GL's store is memory-resident; a trainer crash between snapshots
//! would silently lose every update since the last checkpoint. The WAL
//! closes that window: every update op (or batch of ops) is appended to the
//! log *before* it is applied to the samtrees, and recovery is
//! `restore(latest snapshot) + replay(WAL)`.
//!
//! # On-disk format
//!
//! ```text
//! file   := magic "PD2GWAL1" , record*
//! record := len:u32le , payload:[u8; len] , crc:u32le        crc = CRC32C(payload)
//! payload:= tag:u8 , body
//!   tag 1 Insert        body = src:u64le dst:u64le etype:u16le weight:f64le-bits
//!   tag 2 Delete        body = src:u64le dst:u64le etype:u16le
//!   tag 3 UpdateWeight  body = src:u64le dst:u64le etype:u16le weight:f64le-bits
//!   tag 4 Batch         body = count:u32le , count × (tag:u8 , body as above)
//!   tag 5 BatchBegin    body = txn_id:u64le , n_ops:u32le
//!   tag 6 BatchCommit   body = txn_id:u64le , crc:u32le
//! ```
//!
//! A `Batch` record is replayed atomically: either all of its ops are
//! delivered or (if the record is torn) none are.
//!
//! # Transaction markers
//!
//! A transaction ([`DurableGraphStore::try_apply_txn`]) brackets its op
//! records with `BatchBegin{txn_id, n_ops}` and `BatchCommit{txn_id, crc}`
//! markers. `crc` is CRC32C over the concatenated little-endian per-record
//! CRC32C values of the transaction's op records, in order — streamable at
//! write and replay time, and transitively covering the op payloads (each
//! record CRC already covers its payload).
//!
//! Replay buffers the ops between a `BatchBegin` and its `BatchCommit` and
//! delivers them only when the commit marker matches (same txn id, op count
//! equal to the begin's `n_ops`, CRC chain equal to the commit's `crc`):
//!
//! * **No commit before end-of-file** (the process died mid-transaction):
//!   the buffered ops are dropped, reported as
//!   [`TornTailKind::UncommittedBatch`], and `durable_len` rolls back to the
//!   `BatchBegin` offset so the whole partial transaction is truncated away.
//! * **No commit before the next `BatchBegin`** (the process died
//!   mid-transaction, restarted, and kept appending): the buffered ops are
//!   dropped and counted in [`WalReplayReport::dropped_batches`]; the
//!   records stay on disk (there is durable data after them) and every
//!   future replay deterministically drops them again.
//! * A `BatchCommit` with no pending transaction, a mismatched txn id or op
//!   count, or a CRC-chain mismatch is a hard
//!   [`io::ErrorKind::InvalidData`] error: every involved record passed its
//!   own CRC, so this is a writer bug or tampering, never crash debris.
//!
//! Logs written before these markers existed (no tag-5/6 records) replay
//! exactly as before.
//!
//! # Torn-tail semantics
//!
//! A crash can leave a partially written final record. Replay distinguishes
//! two cases:
//!
//! * **Torn tail** — the last record is incomplete (its frame extends past
//!   end-of-file), fails its CRC while reaching *exactly* to end-of-file,
//!   or is a zero-length frame (filesystem zero-fill after a crash on
//!   preallocated files). Replay stops cleanly before the bad record and
//!   reports it in [`WalReplayReport::torn_tail`]; everything before it is
//!   the durable prefix.
//! * **Interior corruption** — a record fails its CRC and *more bytes
//!   follow its frame*, or a record's declared length is unreadable (zero,
//!   over the limit, past end-of-file) while complete CRC-valid records can
//!   still be found after it (a bit-flipped length prefix, not crash
//!   debris). Either way replay returns a hard
//!   [`io::ErrorKind::InvalidData`] error naming the byte offset rather
//!   than silently dropping committed updates.

use crate::crc32c::crc32c;
use crate::fault::{CrashInjector, CrashPoint};
use crate::topology::{DynamicGraphStore, StoreConfig};
use platod2gl_graph::cursor::{put_u16, put_u32, put_u64, Reader, WireError};
use platod2gl_graph::{
    sanitize_weight, validate_and_lower, Edge, EdgeType, Error, GraphStore, GraphTxn, TxnError,
    TxnReceipt, UpdateOp, VertexId,
};
use platod2gl_obs::{Counter, Gauge, Histogram, Registry};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 8] = b"PD2GWAL1";

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_UPDATE_WEIGHT: u8 = 3;
const TAG_BATCH: u8 = 4;
const TAG_BATCH_BEGIN: u8 = 5;
const TAG_BATCH_COMMIT: u8 = 6;
// Timestamped variants (temporal plane): same body as tags 1/3 with the
// edge's event time (u64 LE) appended. Written only when `ts != 0`, so a
// timeless workload produces byte-identical WAL streams to older writers.
const TAG_INSERT_TS: u8 = 7;
const TAG_UPDATE_WEIGHT_TS: u8 = 8;

/// Upper bound on a single record payload; anything larger is treated as
/// corruption. A batch of 1M ops encodes to ~27 MB, far below this.
const MAX_RECORD_LEN: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Op encoding
// ---------------------------------------------------------------------------

fn encode_op(op: &UpdateOp, out: &mut Vec<u8>) {
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
    // Log the weight the store will actually apply (the sanitized one), so
    // replay reproduces the applied state and never re-ingests a non-finite
    // value.
    put_u64(out, sanitize_weight(e.weight).to_bits());
    if e.ts != 0 {
        put_u64(out, e.ts);
    }
}

fn encode_key(src: VertexId, dst: VertexId, etype: EdgeType, out: &mut Vec<u8>) {
    put_u64(out, src.raw());
    put_u64(out, dst.raw());
    put_u16(out, etype.0);
}

/// Decode one op from a CRC-validated payload.
fn decode_op(r: &mut Reader<'_>) -> Result<UpdateOp, WireError> {
    let tag = r.u8()?;
    let src = VertexId(r.u64()?);
    let dst = VertexId(r.u64()?);
    let etype = EdgeType(r.u16()?);
    if tag == TAG_DELETE {
        return Ok(UpdateOp::Delete { src, dst, etype });
    }
    // Clamp a non-finite weight to `0.0` *without* the ingest boundary's
    // debug assertion: replay is not ingest — the value already passed
    // ingest in a (possibly release-built) writer, and a debug-built reader
    // must recover the log, not panic on it. The clamp matches what
    // `sanitize_weight` applied in-memory at ingest time.
    let weight = r.f64()?;
    let weight = if weight.is_finite() { weight } else { 0.0 };
    let ts = match tag {
        TAG_INSERT | TAG_UPDATE_WEIGHT => 0,
        TAG_INSERT_TS | TAG_UPDATE_WEIGHT_TS => r.u64()?,
        tag => {
            return Err(WireError::BadTag {
                what: "WAL op",
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

/// What one CRC-validated record holds.
enum RecordBody {
    /// Plain op record (single op or tag-4 batch): `n` ops pushed.
    Ops(usize),
    /// Transaction `BatchBegin` marker.
    TxnBegin { txn_id: u64, n_ops: u32 },
    /// Transaction `BatchCommit` marker.
    TxnCommit { txn_id: u64, crc: u32 },
}

/// Decode a full record payload. `None` on any structural problem (unknown
/// tag, short body, trailing bytes). Ops are pushed onto `ops`.
fn decode_payload(payload: &[u8], ops: &mut Vec<UpdateOp>) -> Option<RecordBody> {
    let mut r = Reader::new(payload);
    let mut decode = || -> Result<RecordBody, WireError> {
        Ok(match payload.first() {
            Some(&TAG_BATCH) => {
                r.u8()?;
                let count = r.u32()? as usize;
                for _ in 0..count {
                    ops.push(decode_op(&mut r)?);
                }
                RecordBody::Ops(count)
            }
            Some(&TAG_BATCH_BEGIN) => {
                r.u8()?;
                RecordBody::TxnBegin {
                    txn_id: r.u64()?,
                    n_ops: r.u32()?,
                }
            }
            Some(&TAG_BATCH_COMMIT) => {
                r.u8()?;
                RecordBody::TxnCommit {
                    txn_id: r.u64()?,
                    crc: r.u32()?,
                }
            }
            _ => {
                ops.push(decode_op(&mut r)?);
                RecordBody::Ops(1)
            }
        })
    };
    let body = decode().ok()?;
    // A CRC-valid record with trailing junk indicates a writer bug, not a
    // torn write — reject it.
    r.is_empty().then_some(body)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends checksummed records to a WAL stream.
pub struct WalWriter<W: Write> {
    w: W,
    /// Bytes written so far, including the magic (mirrors the file offset).
    offset: u64,
    records: u64,
    scratch: Vec<u8>,
}

impl<W: Write> WalWriter<W> {
    /// Start a fresh WAL on `w`: writes the magic header.
    pub fn create(mut w: W) -> io::Result<Self> {
        w.write_all(WAL_MAGIC)?;
        Ok(WalWriter {
            w,
            offset: WAL_MAGIC.len() as u64,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// Resume appending to an existing WAL whose header (and `records`
    /// durable records, ending at byte `offset`) are already on disk. The
    /// caller must have positioned `w` at `offset` — [`DurableGraphStore`]
    /// truncates any torn tail first.
    pub fn resume(w: W, offset: u64, records: u64) -> Self {
        WalWriter {
            w,
            offset,
            records,
            scratch: Vec::new(),
        }
    }

    fn append_payload(&mut self) -> io::Result<u32> {
        let payload = &self.scratch;
        let crc = crc32c(payload);
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.w.write_all(payload)?;
        self.w.write_all(&crc.to_le_bytes())?;
        self.offset += 4 + payload.len() as u64 + 4;
        self.records += 1;
        Ok(crc)
    }

    /// Append a single op as one record.
    pub fn append(&mut self, op: &UpdateOp) -> io::Result<()> {
        self.scratch.clear();
        encode_op(op, &mut self.scratch);
        self.append_payload().map(|_| ())
    }

    /// Append a batch of ops as one atomic record. Empty batches are a
    /// no-op (a zero-length frame is reserved as a torn-tail marker).
    pub fn append_batch(&mut self, ops: &[UpdateOp]) -> io::Result<()> {
        self.append_batch_crc(ops).map(|_| ())
    }

    /// [`append_batch`](WalWriter::append_batch), returning the record's
    /// CRC32C — the transaction protocol chains these into its commit
    /// marker. An empty batch writes nothing and returns 0.
    pub fn append_batch_crc(&mut self, ops: &[UpdateOp]) -> io::Result<u32> {
        if ops.is_empty() {
            return Ok(0);
        }
        self.scratch.clear();
        self.scratch.push(TAG_BATCH);
        put_u32(&mut self.scratch, ops.len() as u32);
        for op in ops {
            encode_op(op, &mut self.scratch);
        }
        self.append_payload()
    }

    /// Append a `BatchBegin{txn_id, n_ops}` transaction marker.
    pub fn append_txn_begin(&mut self, txn_id: u64, n_ops: u32) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.push(TAG_BATCH_BEGIN);
        put_u64(&mut self.scratch, txn_id);
        put_u32(&mut self.scratch, n_ops);
        self.append_payload().map(|_| ())
    }

    /// Append a `BatchCommit{txn_id, crc}` transaction marker. `crc` is
    /// CRC32C over the concatenated little-endian record CRCs returned by
    /// the transaction's [`append_batch_crc`](WalWriter::append_batch_crc)
    /// calls, in order.
    pub fn append_txn_commit(&mut self, txn_id: u64, crc: u32) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.push(TAG_BATCH_COMMIT);
        put_u64(&mut self.scratch, txn_id);
        put_u32(&mut self.scratch, crc);
        self.append_payload().map(|_| ())
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Byte offset after the last durable record (== file length).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Number of records appended (including resumed ones).
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn get_ref(&self) -> &W {
        &self.w
    }

    pub fn into_inner(self) -> W {
        self.w
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Why replay stopped before end-of-file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornTailKind {
    /// Fewer than 4 bytes remained — not even a length prefix.
    TruncatedHeader,
    /// The record's frame (payload + CRC) extends past end-of-file.
    TruncatedRecord,
    /// The final record's CRC does not match its payload.
    BadTailChecksum,
    /// A zero-length frame (zero-fill from crash on a preallocated file).
    ZeroFill,
    /// The log ended while a transaction's `BatchBegin` had no matching
    /// `BatchCommit` — the process died mid-transaction. The offset points
    /// at the `BatchBegin` record; truncating there removes the whole
    /// partial transaction.
    UncommittedBatch,
}

/// A tolerated partial record at the end of the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the start of the bad record — the durable length of
    /// the log. Appends must resume here (after truncating the file).
    pub offset: u64,
    pub kind: TornTailKind,
}

/// Outcome of a successful [`replay_wal`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReplayReport {
    /// Complete records replayed.
    pub records: u64,
    /// Individual ops delivered to the sink (batches count per-op).
    pub ops: u64,
    /// Byte offset after the last complete record.
    pub durable_len: u64,
    /// The tolerated partial record, if the log did not end cleanly.
    pub torn_tail: Option<TornTail>,
    /// Uncommitted transactions dropped (no `BatchCommit` before the next
    /// `BatchBegin` or end-of-file). Their ops were never delivered.
    pub dropped_batches: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// fsync a directory so a just-completed rename inside it survives power
/// loss. POSIX makes rename atomicity a file-system property but its
/// *durability* a directory property.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir; // directory handles are not fsync-able portably
    Ok(())
}

/// Total payload bytes the torn-tail disambiguation scan may spend on CRC
/// checks before giving up. Bounds worst-case replay time on adversarial
/// tails; real records are far smaller than this, so the scan always reaches
/// the next record when one exists at realistic record sizes.
const SCAN_CRC_BUDGET: usize = 64 << 20;

/// Scan `data[from..]` for *any* offset at which a complete, CRC32C-valid
/// record frame parses.
///
/// Used to tell a torn tail apart from a corrupted interior length prefix:
/// a crash mid-append leaves only partial-record debris after the last
/// durable record (nothing further can CRC-validate, short of a 2^-32
/// collision), whereas a bit flip in an interior record's length prefix
/// leaves every *subsequent* committed record intact and findable.
fn valid_record_follows(data: &[u8], from: usize) -> bool {
    let mut budget = SCAN_CRC_BUDGET;
    // A frame needs at least len(4) + 1 payload byte + crc(4).
    for start in from..data.len().saturating_sub(8) {
        let mut r = Reader::new(&data[start..]);
        let Some((payload, stored)) = r.u32().ok().and_then(|len| frame_body(&mut r, len)) else {
            continue;
        };
        if budget == 0 {
            continue;
        }
        budget = budget.saturating_sub(payload.len());
        if crc32c(payload) == stored {
            return true;
        }
    }
    false
}

/// The rest of a frame whose length prefix read `len` — `(payload, stored
/// CRC32C)` — or `None` if `len` is zero, over [`MAX_RECORD_LEN`], or runs
/// past the data.
fn frame_body<'a>(r: &mut Reader<'a>, len: u32) -> Option<(&'a [u8], u32)> {
    if len == 0 || len > MAX_RECORD_LEN {
        return None;
    }
    let payload = r.take(len as usize).ok()?;
    Some((payload, r.u32().ok()?))
}

/// Replay a WAL, delivering each decoded op to `sink` in log order.
///
/// Returns a report describing how much of the log was durable. See the
/// module docs for the torn-tail vs interior-corruption contract.
pub fn replay_wal(mut r: impl Read, mut sink: impl FnMut(UpdateOp)) -> io::Result<WalReplayReport> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    replay_wal_bytes(&data, &mut sink)
}

fn replay_wal_bytes(data: &[u8], sink: &mut dyn FnMut(UpdateOp)) -> io::Result<WalReplayReport> {
    if data.is_empty() {
        // A crash before the header hit disk: an empty log is a valid
        // (zero-record) log.
        return Ok(WalReplayReport::default());
    }
    if data.len() < WAL_MAGIC.len() || &data[..WAL_MAGIC.len()] != WAL_MAGIC.as_slice() {
        let got = &data[..data.len().min(WAL_MAGIC.len())];
        return Err(invalid(format!(
            "not a PlatoD2GL WAL: bad magic at byte offset 0 (found {got:02x?}, expected {WAL_MAGIC:02x?})"
        )));
    }
    let mut report = WalReplayReport::default();
    let mut pos = WAL_MAGIC.len();
    let mut ops = Vec::new();

    /// An in-flight transaction: everything between its `BatchBegin` and
    /// the `BatchCommit` that has not yet arrived.
    struct Pending {
        txn_id: u64,
        n_ops: u32,
        /// Byte offset of the `BatchBegin` record.
        begin_offset: u64,
        /// `report.records` before the `BatchBegin` was counted.
        records_at_begin: u64,
        ops: Vec<UpdateOp>,
        /// Concatenated little-endian record CRCs (the commit-CRC chain).
        crc_chain: Vec<u8>,
    }

    // The log ended (cleanly or torn) while a transaction was pending: the
    // commit marker never made it to disk. Drop the buffered ops and roll
    // the durable prefix back to the `BatchBegin`, so truncation removes
    // the whole partial transaction. This supersedes any later torn tail —
    // the partial txn starts earlier.
    fn drop_pending_at_eof(report: &mut WalReplayReport, p: Pending) {
        report.durable_len = p.begin_offset;
        report.records = p.records_at_begin;
        report.dropped_batches += 1;
        report.torn_tail = Some(TornTail {
            offset: p.begin_offset,
            kind: TornTailKind::UncommittedBatch,
        });
    }
    let mut pending: Option<Pending> = None;

    loop {
        report.durable_len = pos as u64;
        let remaining = data.len() - pos;
        if remaining == 0 {
            if let Some(p) = pending.take() {
                drop_pending_at_eof(&mut report, p);
            }
            return Ok(report);
        }
        let mut r = Reader::new(&data[pos..]);
        let Ok(len) = r.u32() else {
            report.torn_tail = Some(TornTail {
                offset: pos as u64,
                kind: TornTailKind::TruncatedHeader,
            });
            if let Some(p) = pending.take() {
                drop_pending_at_eof(&mut report, p);
            }
            return Ok(report);
        };
        let frame = 4usize + len as usize + 4;
        let Some((payload, stored)) = frame_body(&mut r, len) else {
            // The frame cannot be read as declared. A crash mid-append
            // explains that only if nothing valid follows; if a complete
            // CRC-valid record exists further on, the length prefix itself
            // is corrupted interior data, and calling it a torn tail would
            // silently truncate committed records.
            if valid_record_follows(data, pos + 1) {
                let why = if len == 0 {
                    "a zero length".to_string()
                } else if len > MAX_RECORD_LEN {
                    format!("length {len} over the {MAX_RECORD_LEN}-byte limit")
                } else {
                    format!(
                        "length {len}, extending {} bytes past end-of-file",
                        frame - remaining
                    )
                };
                return Err(invalid(format!(
                    "WAL record at byte offset {pos} declares {why}, but \
                     CRC-valid records follow it — corrupted length prefix, \
                     refusing to replay"
                )));
            }
            report.torn_tail = Some(TornTail {
                offset: pos as u64,
                kind: if len == 0 {
                    TornTailKind::ZeroFill
                } else {
                    TornTailKind::TruncatedRecord
                },
            });
            if let Some(p) = pending.take() {
                drop_pending_at_eof(&mut report, p);
            }
            return Ok(report);
        };
        let computed = crc32c(payload);
        if stored != computed {
            if pos + frame == data.len() {
                // The bad record reaches exactly to EOF: a torn final
                // append (e.g. partially flushed page).
                report.torn_tail = Some(TornTail {
                    offset: pos as u64,
                    kind: TornTailKind::BadTailChecksum,
                });
                if let Some(p) = pending.take() {
                    drop_pending_at_eof(&mut report, p);
                }
                return Ok(report);
            }
            return Err(invalid(format!(
                "WAL record at byte offset {pos} failed its CRC32C check \
                 (stored {stored:#010x}, computed {computed:#010x}) with {} bytes \
                 following the record — interior corruption, refusing to replay",
                data.len() - pos - frame
            )));
        }
        ops.clear();
        let body = decode_payload(payload, &mut ops).ok_or_else(|| {
            invalid(format!(
                "WAL record at byte offset {pos} passed its CRC but does not \
                 decode as a valid op record — writer bug or tampering"
            ))
        })?;
        report.records += 1;
        match body {
            RecordBody::Ops(n) => {
                if let Some(p) = pending.as_mut() {
                    // Inside a transaction: buffer, deliver only at commit.
                    p.ops.append(&mut ops);
                    p.crc_chain.extend_from_slice(&computed.to_le_bytes());
                } else {
                    for op in ops.drain(..) {
                        sink(op);
                    }
                    report.ops += n as u64;
                }
            }
            RecordBody::TxnBegin { txn_id, n_ops } => {
                if pending.is_some() {
                    // A new transaction began while one was pending: the
                    // earlier one crashed mid-flight and the process kept
                    // appending after restart. Its records stay on disk
                    // (durable data follows); its ops are never delivered.
                    report.dropped_batches += 1;
                }
                pending = Some(Pending {
                    txn_id,
                    n_ops,
                    begin_offset: pos as u64,
                    records_at_begin: report.records - 1,
                    ops: Vec::new(),
                    crc_chain: Vec::new(),
                });
            }
            RecordBody::TxnCommit { txn_id, crc } => {
                // Every mismatch below is on CRC-valid records, so it is a
                // writer bug or tampering — never crash debris.
                let Some(p) = pending.take() else {
                    return Err(invalid(format!(
                        "WAL BatchCommit for txn {txn_id} at byte offset {pos} \
                         has no pending BatchBegin — orphan commit marker, \
                         refusing to replay"
                    )));
                };
                if p.txn_id != txn_id {
                    return Err(invalid(format!(
                        "WAL BatchCommit at byte offset {pos} names txn {txn_id} \
                         but txn {} is pending — refusing to replay",
                        p.txn_id
                    )));
                }
                if p.ops.len() != p.n_ops as usize {
                    return Err(invalid(format!(
                        "WAL txn {txn_id} committed {} ops but its BatchBegin \
                         declared {} — refusing to replay",
                        p.ops.len(),
                        p.n_ops
                    )));
                }
                let chained = crc32c(&p.crc_chain);
                if chained != crc {
                    return Err(invalid(format!(
                        "WAL txn {txn_id} commit CRC chain mismatch at byte \
                         offset {pos} (stored {crc:#010x}, computed \
                         {chained:#010x}) — refusing to replay"
                    )));
                }
                report.ops += p.ops.len() as u64;
                for op in p.ops {
                    sink(op);
                }
            }
        }
        pos += frame;
    }
}

// ---------------------------------------------------------------------------
// Durable store: snapshot + WAL + recovery
// ---------------------------------------------------------------------------

/// What recovery found on disk when opening a [`DurableGraphStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was restored.
    pub restored_snapshot: bool,
    /// WAL records replayed on top of the snapshot.
    pub wal_records: u64,
    /// Individual ops replayed.
    pub wal_ops: u64,
    /// A tolerated torn tail, if the WAL did not end cleanly. The file is
    /// truncated back to `torn_tail.offset` before appends resume.
    pub torn_tail: Option<TornTail>,
    /// Uncommitted transactions dropped during replay (crash before the
    /// commit marker); their ops were not applied.
    pub dropped_batches: u64,
}

/// A [`DynamicGraphStore`] with crash-safe durability: updates are logged
/// to a WAL before being applied, and [`DurableGraphStore::checkpoint`]
/// atomically writes a checksummed snapshot and truncates the log.
///
/// On-disk layout inside the directory passed to [`DurableGraphStore::open`]:
///
/// * `snapshot.bin` — latest checkpoint (the format
///   [`write_snapshot`](crate::write_snapshot) emits); absent until the
///   first checkpoint.
/// * `wal.log` — updates since that checkpoint.
/// * `snapshot.tmp` — in-flight checkpoint; never read, replaced by rename.
///
/// Durability contract: the WAL is flushed to the OS after every logged
/// call, so updates survive a process crash; [`DurableGraphStore::sync`]
/// and [`checkpoint`](DurableGraphStore::checkpoint) additionally fsync so
/// they survive power loss.
///
/// The [`GraphStore`] impl's methods are infallible by signature; an I/O
/// failure while logging panics, because continuing would break the
/// write-ahead contract. Callers that want to handle disk errors use the
/// `try_*` methods.
pub struct DurableGraphStore {
    store: DynamicGraphStore,
    wal: Mutex<WalWriter<BufWriter<File>>>,
    dir: PathBuf,
    registry: Arc<Registry>,
    metrics: WalMetrics,
    crash: CrashInjector,
    /// Set when a write failed after WAL bytes may have hit disk (e.g. a
    /// transaction died between its markers). Further writes fail-stop:
    /// appending past a dangling `BatchBegin` would be dropped with it on
    /// recovery. A successful checkpoint (which resets the log) clears it;
    /// otherwise reopen the store to recover.
    wal_poisoned: AtomicBool,
}

/// Pre-resolved registry handles for the durability hot paths.
#[derive(Debug)]
struct WalMetrics {
    appends: Arc<Counter>,
    append_ops: Arc<Counter>,
    append_bytes: Arc<Counter>,
    append_ns: Arc<Histogram>,
    checkpoints: Arc<Counter>,
    checkpoint_ns: Arc<Histogram>,
    append_errors: Arc<Counter>,
    replayed_records: Arc<Counter>,
    replayed_ops: Arc<Counter>,
    replayed_dropped: Arc<Counter>,
    torn_tails: Arc<Counter>,
    txn_committed: Arc<Counter>,
    txn_aborted: Arc<Counter>,
    mem_bytes: Arc<Gauge>,
}

impl WalMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            appends: registry.counter("wal.appends"),
            append_ops: registry.counter("wal.append_ops"),
            append_bytes: registry.counter("wal.append_bytes"),
            append_ns: registry.histogram("wal.append_ns"),
            checkpoints: registry.counter("wal.checkpoints"),
            checkpoint_ns: registry.histogram("wal.checkpoint_ns"),
            append_errors: registry.counter("wal.append_errors"),
            replayed_records: registry.counter("wal.replayed_records"),
            replayed_ops: registry.counter("wal.replayed_ops"),
            replayed_dropped: registry.counter("txn.replayed_dropped"),
            torn_tails: registry.counter("wal.torn_tails"),
            txn_committed: registry.counter("txn.committed"),
            txn_aborted: registry.counter("txn.aborted"),
            mem_bytes: registry.gauge("graph.mem.wal_bytes"),
        }
    }
}

impl DurableGraphStore {
    /// Open (or create) a durable store in `dir`, recovering state from the
    /// snapshot and WAL found there. Metrics go to a private registry; use
    /// [`DurableGraphStore::open_with_registry`] to share one.
    pub fn open(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<(Self, RecoveryReport), Error> {
        Self::open_with_registry(dir, config, Arc::new(Registry::new()))
    }

    /// Open (or create) a durable store publishing its metrics (`wal.*`,
    /// plus the wrapped store's `samtree.*` / `storage.*`) into a shared
    /// registry, so durability shows up in the same snapshot as sampling
    /// and training.
    pub fn open_with_registry(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        registry: Arc<Registry>,
    ) -> Result<(Self, RecoveryReport), Error> {
        // The guard must not borrow the `registry` value we move into the
        // struct below, so it holds its own Arc.
        let span_owner = Arc::clone(&registry);
        let recover_span = span_owner.span("wal.recover");
        let metrics = WalMetrics::new(&registry);
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let store = DynamicGraphStore::with_registry(config, Arc::clone(&registry));
        let mut report = RecoveryReport::default();

        let snap_path = dir.join("snapshot.bin");
        if snap_path.exists() {
            store.restore_from(File::open(&snap_path)?)?;
            report.restored_snapshot = true;
        }

        let wal_path = dir.join("wal.log");
        let (offset, records) = if wal_path.exists() {
            let replay = replay_wal(File::open(&wal_path)?, |op| store.apply(&op))?;
            report.wal_records = replay.records;
            report.wal_ops = replay.ops;
            report.torn_tail = replay.torn_tail;
            report.dropped_batches = replay.dropped_batches;
            metrics.replayed_records.add(replay.records);
            metrics.replayed_ops.add(replay.ops);
            metrics.replayed_dropped.add(replay.dropped_batches);
            if replay.torn_tail.is_some() {
                metrics.torn_tails.inc();
            }
            let file = OpenOptions::new().write(true).open(&wal_path)?;
            // Drop any torn tail so new appends start at the durable end.
            file.set_len(replay.durable_len.max(WAL_MAGIC.len() as u64))?;
            drop(file);
            if replay.durable_len == 0 {
                // Empty file: (re)write the header below.
                (0, 0)
            } else {
                (replay.durable_len, replay.records)
            }
        } else {
            (0, 0)
        };

        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&wal_path)?;
        let writer = if offset == 0 {
            file.set_len(0)?;
            WalWriter::create(BufWriter::new(file))?
        } else {
            file.seek(SeekFrom::Start(offset))?;
            WalWriter::resume(BufWriter::new(file), offset, records)
        };

        let durable = DurableGraphStore {
            store,
            wal: Mutex::new(writer),
            dir,
            registry,
            metrics,
            crash: CrashInjector::new(),
            wal_poisoned: AtomicBool::new(false),
        };
        durable.sync()?;
        durable
            .metrics
            .mem_bytes
            .set(durable.lock_wal().offset() as i64);
        drop(recover_span);
        Ok((durable, report))
    }

    /// The metrics registry this store records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The wrapped in-memory store (read-only access; mutate through the
    /// logged methods or the WAL is bypassed).
    pub fn store(&self) -> &DynamicGraphStore {
        &self.store
    }

    fn lock_wal(&self) -> std::sync::MutexGuard<'_, WalWriter<BufWriter<File>>> {
        self.wal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The crash-point injector guarding this store's durability paths.
    /// Arming it makes the next guarded call fail as if the process died
    /// there; the store then fail-stops writes until reopened (see
    /// [`CrashInjector`]).
    pub fn crash_injector(&self) -> &CrashInjector {
        &self.crash
    }

    /// True when a failed write left the WAL tail in an unknown state and
    /// the store is refusing further writes.
    pub fn is_wal_poisoned(&self) -> bool {
        self.wal_poisoned.load(Ordering::Acquire)
    }

    /// One logged write: everything around the append that the three
    /// `try_*` paths share. `append` writes and flushes the call's records;
    /// `apply` then mutates the in-memory store.
    ///
    /// The in-memory apply happens while the WAL lock is still held:
    /// [`checkpoint`](DurableGraphStore::checkpoint) takes the same lock, so
    /// no op can ever be logged-but-unapplied when a snapshot is cut (the
    /// snapshot would miss the op and the subsequent WAL reset would lose
    /// it), and in-memory apply order always matches log order, so replay
    /// reproduces the pre-crash state even for conflicting concurrent ops.
    ///
    /// On a failed append the in-memory graph is untouched. A lone record
    /// either made it whole or is a torn tail replay already tolerates; a
    /// `multi_record` write may leave a dangling `BatchBegin`, so writes
    /// fail-stop when anything of it could be on disk (recovery or a
    /// checkpoint drops the partial transaction).
    fn logged(
        &self,
        n_ops: usize,
        multi_record: bool,
        append: impl FnOnce(&mut WalWriter<BufWriter<File>>) -> io::Result<()>,
        apply: impl FnOnce(&DynamicGraphStore),
    ) -> io::Result<()> {
        let mut wal = self.lock_wal();
        let started = Instant::now();
        let before = wal.offset();
        let res = if self.is_wal_poisoned() {
            Err(io::Error::other(
                "WAL tail holds an uncommitted transaction after a failed \
                 write; reopen the store (or checkpoint) to recover",
            ))
        } else {
            append(&mut wal)
        };
        if let Err(e) = res {
            self.metrics.append_errors.inc();
            if multi_record && wal.offset() > before {
                self.wal_poisoned.store(true, Ordering::Release);
            }
            return Err(e);
        }
        self.metrics.append_ns.record(started.elapsed());
        self.metrics.appends.inc();
        self.metrics.append_ops.add(n_ops as u64);
        self.metrics.append_bytes.add(wal.offset() - before);
        self.metrics.mem_bytes.set(wal.offset() as i64);
        apply(&self.store);
        Ok(())
    }

    /// Log and apply one op. The record is flushed to the OS before the
    /// in-memory store changes, and the apply runs under the WAL lock so a
    /// concurrent checkpoint can never snapshot between the two.
    pub fn try_apply(&self, op: &UpdateOp) -> Result<(), Error> {
        let append = |wal: &mut WalWriter<BufWriter<File>>| {
            self.crash.hit(CrashPoint::WalAppend)?;
            wal.append(op)?;
            wal.flush()
        };
        Ok(self.logged(1, false, append, |store| store.apply(op))?)
    }

    /// Log and apply a batch atomically (one WAL record), using the store's
    /// batch-parallel path; same locking as
    /// [`try_apply`](DurableGraphStore::try_apply).
    pub fn try_apply_batch(&self, ops: &[UpdateOp], threads: usize) -> Result<(), Error> {
        if ops.is_empty() {
            return Ok(());
        }
        let append = |wal: &mut WalWriter<BufWriter<File>>| {
            self.crash.hit(CrashPoint::WalAppend)?;
            wal.append_batch(ops)?;
            wal.flush()
        };
        let apply = |store: &DynamicGraphStore| store.apply_batch_parallel(ops, threads);
        Ok(self.logged(ops.len(), false, append, apply)?)
    }

    /// Ops per tag-4 record inside a transaction: bounds record size and
    /// exercises the multi-record commit-CRC chain on realistic batches.
    const TXN_CHUNK_OPS: usize = 4096;

    /// Apply a [`GraphTxn`] with all-or-nothing semantics across crashes.
    ///
    /// **Phase 1** validates the whole transaction against the live store
    /// (dangling deletes/patches, duplicate keys, non-finite weights) and
    /// aborts with every violation found — zero changes, nothing logged.
    /// **Phase 2** brackets the lowered ops with `BatchBegin`/`BatchCommit`
    /// WAL markers, fsyncs, then applies in memory. A crash anywhere before
    /// the commit marker is recovered to the pre-transaction graph (replay
    /// drops the uncommitted batch); a crash at or after it recovers to the
    /// post-transaction graph. Never in between.
    ///
    /// A transaction that lowers to zero ops (pure vertex upserts) commits
    /// without touching the WAL.
    pub fn try_apply_txn(&self, txn: &GraphTxn, threads: usize) -> Result<TxnReceipt, TxnError> {
        // Phase 1: validate against live topology; abort applies nothing.
        let lowered = match validate_and_lower(txn, &self.store) {
            Ok(lowered) => lowered,
            Err(e) => {
                self.metrics.txn_aborted.inc();
                return Err(e);
            }
        };
        let receipt = TxnReceipt {
            txn_id: txn.id(),
            ops_applied: lowered.len() as u64,
            graph_version: 0,
            deduped: false,
        };
        if lowered.is_empty() {
            // Nothing to log or apply; still a successful commit.
            self.metrics.txn_committed.inc();
            return Ok(receipt);
        }

        // Phase 2: the WAL protocol, then the in-memory apply.
        let append = |wal: &mut WalWriter<BufWriter<File>>| {
            self.crash.hit(CrashPoint::TxnBeforeBegin)?;
            wal.append_txn_begin(txn.id(), lowered.len() as u32)?;
            wal.flush()?;
            self.crash.hit(CrashPoint::TxnAfterBegin)?;
            let mut crc_chain = Vec::with_capacity(4 * lowered.len().div_ceil(Self::TXN_CHUNK_OPS));
            for chunk in lowered.chunks(Self::TXN_CHUNK_OPS) {
                let crc = wal.append_batch_crc(chunk)?;
                crc_chain.extend_from_slice(&crc.to_le_bytes());
            }
            wal.flush()?;
            self.crash.hit(CrashPoint::TxnAfterOps)?;
            wal.append_txn_commit(txn.id(), crc32c(&crc_chain))?;
            wal.flush()?;
            self.crash.hit(CrashPoint::TxnAfterCommit)?;
            wal.get_ref().get_ref().sync_data()?;
            self.crash.hit(CrashPoint::TxnAfterFsync)
        };
        let apply = |store: &DynamicGraphStore| store.apply_batch_parallel(&lowered, threads);
        if let Err(e) = self.logged(lowered.len(), true, append, apply) {
            self.metrics.txn_aborted.inc();
            return Err(TxnError::Store(Error::Io(e)));
        }
        self.metrics.txn_committed.inc();
        Ok(receipt)
    }

    /// fsync the WAL file.
    pub fn sync(&self) -> Result<(), Error> {
        let mut wal = self.lock_wal();
        wal.flush()?;
        wal.get_ref().get_ref().sync_data()?;
        Ok(())
    }

    /// Write a checkpoint: snapshot the store to `snapshot.tmp`, fsync,
    /// atomically rename over `snapshot.bin`, then reset the WAL. After a
    /// successful checkpoint the WAL is empty and recovery needs only the
    /// snapshot.
    pub fn checkpoint(&self) -> Result<(), Error> {
        let _span = self.registry.span("wal.checkpoint");
        let started = Instant::now();
        // Hold the WAL lock across the whole checkpoint so no update can
        // slip between the snapshot and the log reset (it would be lost).
        let mut wal = self.lock_wal();
        let tmp = self.dir.join("snapshot.tmp");
        let snap = self.dir.join("snapshot.bin");
        {
            let f = File::create(&tmp)?;
            let mut buf = BufWriter::new(f);
            self.store.snapshot_to(&mut buf)?;
            buf.flush()?;
            buf.get_ref().sync_data()?;
        }
        self.crash.hit(CrashPoint::CheckpointAfterSnapshotWrite)?;
        std::fs::rename(&tmp, &snap)?;
        self.crash.hit(CrashPoint::CheckpointAfterRename)?;
        // Make the rename itself durable before touching the WAL: without a
        // directory fsync, power loss could persist the WAL truncation below
        // while the rename is still only in the directory's page cache,
        // leaving the *old* snapshot next to an empty log.
        sync_dir(&self.dir)?;
        self.crash.hit(CrashPoint::CheckpointAfterDirSync)?;
        // Reset the log: everything it held is now in the snapshot.
        let file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(self.dir.join("wal.log"))?;
        *wal = WalWriter::create(BufWriter::new(file))?;
        wal.flush()?;
        wal.get_ref().get_ref().sync_data()?;
        self.crash.hit(CrashPoint::CheckpointAfterWalReset)?;
        // The log is empty and the snapshot holds everything it did: any
        // poisoned tail is gone.
        self.wal_poisoned.store(false, Ordering::Release);
        self.metrics.checkpoints.inc();
        self.metrics.checkpoint_ns.record(started.elapsed());
        self.metrics.mem_bytes.set(wal.offset() as i64);
        Ok(())
    }

    /// WAL records since the last checkpoint (for checkpoint policies).
    pub fn wal_records(&self) -> u64 {
        self.lock_wal().records()
    }

    /// WAL file length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.lock_wal().offset()
    }
}

impl GraphStore for DurableGraphStore {
    fn name(&self) -> &'static str {
        "PlatoD2GL+WAL"
    }

    fn insert_edge(&self, edge: Edge) {
        self.try_apply(&UpdateOp::Insert(edge))
            .expect("WAL append failed: cannot guarantee durability");
    }

    fn delete_edge(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> bool {
        let existed = self.store.edge_weight(src, dst, etype).is_some();
        self.try_apply(&UpdateOp::Delete { src, dst, etype })
            .expect("WAL append failed: cannot guarantee durability");
        existed
    }

    fn update_weight(&self, edge: Edge) -> bool {
        let existed = self
            .store
            .edge_weight(edge.src, edge.dst, edge.etype)
            .is_some();
        self.try_apply(&UpdateOp::UpdateWeight(edge))
            .expect("WAL append failed: cannot guarantee durability");
        existed
    }

    fn apply_batch(&self, ops: &[UpdateOp]) {
        self.try_apply_batch(
            ops,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .expect("WAL append failed: cannot guarantee durability");
    }

    fn degree(&self, v: VertexId, etype: EdgeType) -> usize {
        self.store.degree(v, etype)
    }

    fn weight_sum(&self, v: VertexId, etype: EdgeType) -> f64 {
        self.store.weight_sum(v, etype)
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        self.store.edge_weight(src, dst, etype)
    }

    fn sample_neighbors(
        &self,
        v: VertexId,
        etype: EdgeType,
        k: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<VertexId> {
        self.store.sample_neighbors(v, etype, k, rng)
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        self.store.neighbors(v, etype)
    }

    fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    fn topology_bytes(&self) -> usize {
        self.store.topology_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    fn ins(s: u64, d: u64, w: f64) -> UpdateOp {
        UpdateOp::Insert(Edge::new(v(s), v(d), w))
    }

    fn wal_with(ops: &[UpdateOp]) -> Vec<u8> {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        for op in ops {
            w.append(op).unwrap();
        }
        w.into_inner()
    }

    fn replay_all(bytes: &[u8]) -> (Vec<UpdateOp>, WalReplayReport) {
        let mut out = Vec::new();
        let report = replay_wal(Cursor::new(bytes), |op| out.push(op)).unwrap();
        (out, report)
    }

    #[test]
    fn roundtrip_single_ops() {
        let ops = vec![
            ins(1, 2, 1.5),
            UpdateOp::Delete {
                src: v(1),
                dst: v(2),
                etype: EdgeType(3),
            },
            UpdateOp::UpdateWeight(Edge {
                src: v(7),
                dst: v(8),
                etype: EdgeType(1),
                weight: 0.25,
                ts: 0,
            }),
            // Timestamped variants round-trip through the new tags.
            UpdateOp::Insert(Edge::new(v(3), v(4), 2.0).at(77)),
            UpdateOp::UpdateWeight(Edge::new(v(3), v(4), 0.5).at(99)),
        ];
        let bytes = wal_with(&ops);
        let (out, report) = replay_all(&bytes);
        assert_eq!(out, ops);
        assert_eq!(report.records, 5);
        assert_eq!(report.ops, 5);
        assert_eq!(report.durable_len, bytes.len() as u64);
        assert!(report.torn_tail.is_none());
    }

    #[test]
    fn roundtrip_batch_record() {
        let ops: Vec<UpdateOp> = (0..100).map(|i| ins(i % 7, i, i as f64)).collect();
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append_batch(&ops).unwrap();
        assert_eq!(w.records(), 1);
        let bytes = w.into_inner();
        let (out, report) = replay_all(&bytes);
        assert_eq!(out, ops);
        assert_eq!(report.records, 1);
        assert_eq!(report.ops, 100);
    }

    #[test]
    fn empty_wal_and_empty_file() {
        let (out, report) = replay_all(&wal_with(&[]));
        assert!(out.is_empty());
        assert_eq!(report.records, 0);
        let (out, report) = replay_all(&[]);
        assert!(out.is_empty());
        assert_eq!(report, WalReplayReport::default());
    }

    #[test]
    fn bad_magic_is_rejected_with_offset() {
        let err = replay_wal(Cursor::new(b"NOTAWAL!rest".to_vec()), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte offset 0"), "{err}");
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_torn_tail() {
        let ops = vec![ins(1, 2, 1.0), ins(3, 4, 2.0), ins(5, 6, 3.0)];
        let bytes = wal_with(&ops);
        // Record boundaries: magic, then equal-size frames.
        for cut in WAL_MAGIC.len()..bytes.len() {
            let (out, report) = replay_all(&bytes[..cut]);
            let frame = (bytes.len() - WAL_MAGIC.len()) / ops.len();
            let expect_records = (cut - WAL_MAGIC.len()) / frame;
            assert_eq!(
                report.records, expect_records as u64,
                "cut at {cut}: wrong durable prefix"
            );
            assert_eq!(out, ops[..expect_records]);
            if cut < bytes.len() {
                assert!(report.torn_tail.is_some() || report.durable_len == cut as u64);
            }
        }
    }

    #[test]
    fn corrupt_tail_record_is_tolerated() {
        let bytes = {
            let mut b = wal_with(&[ins(1, 2, 1.0), ins(3, 4, 2.0)]);
            let n = b.len();
            b[n - 6] ^= 0xFF; // flip a payload byte inside the final record
            b
        };
        let (out, report) = replay_all(&bytes);
        assert_eq!(out, vec![ins(1, 2, 1.0)]);
        assert_eq!(report.records, 1);
        assert_eq!(
            report.torn_tail.unwrap().kind,
            TornTailKind::BadTailChecksum
        );
    }

    #[test]
    fn corrupt_interior_record_is_a_hard_error() {
        let mut bytes = wal_with(&[ins(1, 2, 1.0), ins(3, 4, 2.0)]);
        // Flip a byte inside the FIRST record's payload.
        bytes[WAL_MAGIC.len() + 5] ^= 0x01;
        let err = replay_wal(Cursor::new(bytes), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("byte offset 8"), "{msg}");
        assert!(msg.contains("CRC32C"), "{msg}");
    }

    #[test]
    fn interior_length_prefix_corruption_is_a_hard_error() {
        // A bit flip making an interior record's len huge must not be
        // mistaken for a torn tail: the records after it are intact and
        // truncating them away would silently lose committed updates.
        let ops = vec![ins(1, 2, 1.0), ins(3, 4, 2.0), ins(5, 6, 3.0)];
        let bytes = wal_with(&ops);
        for bit in 0..32 {
            let mut corrupt = bytes.clone();
            let byte = WAL_MAGIC.len() + (bit / 8);
            corrupt[byte] ^= 1 << (bit % 8);
            let mut out = Vec::new();
            let result = replay_wal(Cursor::new(corrupt), |op| out.push(op));
            match result {
                // Flips that keep the frame readable are caught by the CRC
                // (wrong payload window, bytes follow => interior error).
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "bit {bit}"),
                Ok(report) => panic!(
                    "len bit {bit} flip silently replayed {} records (torn: {:?})",
                    report.records, report.torn_tail
                ),
            }
        }
    }

    #[test]
    fn interior_zeroed_length_prefix_is_a_hard_error() {
        // len == 0 with CRC-valid records following is a corrupted prefix,
        // not filesystem zero-fill.
        let bytes = wal_with(&[ins(1, 2, 1.0), ins(3, 4, 2.0)]);
        let mut corrupt = bytes.clone();
        corrupt[WAL_MAGIC.len()..WAL_MAGIC.len() + 4].fill(0);
        let err = replay_wal(Cursor::new(corrupt), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("zero length"), "{err}");
    }

    #[test]
    fn corrupted_tail_length_prefix_is_still_a_torn_tail() {
        // The same corruption on the FINAL record has nothing valid after
        // it, so it stays tolerated crash debris.
        let ops = vec![ins(1, 2, 1.0), ins(3, 4, 2.0)];
        let bytes = wal_with(&ops);
        let frame = (bytes.len() - WAL_MAGIC.len()) / ops.len();
        let last = WAL_MAGIC.len() + frame;
        let mut corrupt = bytes;
        corrupt[last] ^= 0x80; // low length byte of the final record
        let (out, report) = replay_all(&corrupt);
        assert_eq!(out, ops[..1]);
        assert_eq!(
            report.torn_tail.unwrap().kind,
            TornTailKind::TruncatedRecord
        );
        assert_eq!(report.durable_len, last as u64);
    }

    #[test]
    fn non_finite_logged_weight_replays_clamped_without_panicking() {
        // A WAL written by an (old or release-built) writer may hold a raw
        // non-finite weight. Replay must clamp it exactly as the ingest
        // boundary would have — not trip sanitize_weight's debug assert.
        let mut payload = vec![TAG_INSERT];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&8u64.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32c(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc.to_le_bytes());

        let (out, report) = replay_all(&bytes);
        assert_eq!(report.records, 1);
        assert_eq!(out, vec![ins(7, 8, 0.0)]);
    }

    #[test]
    fn writer_logs_the_sanitized_weight() {
        // Release-build contract: what reaches the log is what the store
        // applies. (Debug builds assert at the ingest boundary instead,
        // so exercise the encoder directly with a finite weight and check
        // the canonical path stays byte-stable.)
        let a = wal_with(&[ins(1, 2, 2.5)]);
        let (out, _) = replay_all(&a);
        assert_eq!(out, vec![ins(1, 2, 2.5)]);
    }

    #[test]
    fn zero_fill_tail_is_tolerated() {
        let mut bytes = wal_with(&[ins(1, 2, 1.0)]);
        let durable = bytes.len();
        bytes.extend_from_slice(&[0u8; 64]);
        let (out, report) = replay_all(&bytes);
        assert_eq!(out.len(), 1);
        assert_eq!(report.torn_tail.unwrap().kind, TornTailKind::ZeroFill);
        assert_eq!(report.durable_len, durable as u64);
    }

    #[test]
    fn garbage_after_valid_records_is_detected() {
        // Garbage that *parses* as a frame with bytes left over must be a
        // hard error; garbage that reads as a truncated/tail frame is torn.
        let mut bytes = wal_with(&[ins(1, 2, 1.0)]);
        bytes.extend_from_slice(&[0xAB; 3]); // < 4 bytes: truncated header
        let (_, report) = replay_all(&bytes);
        assert_eq!(
            report.torn_tail.unwrap().kind,
            TornTailKind::TruncatedHeader
        );
    }

    // -----------------------------------------------------------------
    // Transaction markers
    // -----------------------------------------------------------------

    /// Write `ops` as a committed txn (chunked), returning the log bytes.
    fn wal_with_txn(
        w: &mut WalWriter<Vec<u8>>,
        txn_id: u64,
        ops: &[UpdateOp],
        chunk: usize,
    ) -> io::Result<()> {
        w.append_txn_begin(txn_id, ops.len() as u32)?;
        let mut chain = Vec::new();
        for c in ops.chunks(chunk.max(1)) {
            chain.extend_from_slice(&w.append_batch_crc(c)?.to_le_bytes());
        }
        w.append_txn_commit(txn_id, crc32c(&chain))
    }

    #[test]
    fn committed_txn_replays_all_ops() {
        let ops: Vec<UpdateOp> = (0..10).map(|i| ins(i, i + 1, i as f64)).collect();
        let mut w = WalWriter::create(Vec::new()).unwrap();
        wal_with_txn(&mut w, 42, &ops, 3).unwrap();
        let bytes = w.into_inner();
        let (out, report) = replay_all(&bytes);
        assert_eq!(out, ops);
        assert_eq!(report.ops, 10);
        assert_eq!(report.dropped_batches, 0);
        assert_eq!(report.durable_len, bytes.len() as u64);
        assert!(report.torn_tail.is_none());
    }

    #[test]
    fn txn_without_commit_is_dropped_and_rolled_back() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&ins(1, 2, 1.0)).unwrap();
        let begin_offset = w.offset();
        w.append_txn_begin(7, 2).unwrap();
        w.append_batch(&[ins(3, 4, 1.0), ins(5, 6, 1.0)]).unwrap();
        // No commit marker: the process died here.
        let (out, report) = replay_all(&w.into_inner());
        assert_eq!(out, vec![ins(1, 2, 1.0)], "txn ops never delivered");
        assert_eq!(report.dropped_batches, 1);
        assert_eq!(report.records, 1, "rolled back to before the begin");
        assert_eq!(
            report.durable_len, begin_offset,
            "truncation point is the begin"
        );
        let tail = report.torn_tail.unwrap();
        assert_eq!(tail.kind, TornTailKind::UncommittedBatch);
        assert_eq!(tail.offset, begin_offset);
    }

    #[test]
    fn interior_crashed_txn_is_dropped_but_later_data_survives() {
        // txn A dies mid-flight, the process restarts and commits txn B
        // plus a plain record. A's ops vanish; everything after replays.
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append_txn_begin(1, 2).unwrap();
        w.append_batch(&[ins(1, 2, 1.0)]).unwrap(); // only 1 of 2 ops
        wal_with_txn(&mut w, 2, &[ins(10, 11, 1.0), ins(12, 13, 1.0)], 10).unwrap();
        w.append(&ins(20, 21, 1.0)).unwrap();
        let bytes = w.into_inner();
        let (out, report) = replay_all(&bytes);
        assert_eq!(
            out,
            vec![ins(10, 11, 1.0), ins(12, 13, 1.0), ins(20, 21, 1.0)],
            "txn A's ops dropped, committed txn B and plain record intact"
        );
        assert_eq!(report.dropped_batches, 1);
        assert_eq!(
            report.durable_len,
            bytes.len() as u64,
            "no truncation: durable data follows"
        );
        assert!(report.torn_tail.is_none());
    }

    #[test]
    fn torn_tail_inside_a_txn_rolls_back_to_the_begin() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&ins(1, 2, 1.0)).unwrap();
        let begin_offset = w.offset();
        wal_with_txn(&mut w, 9, &[ins(3, 4, 1.0), ins(5, 6, 1.0)], 1).unwrap();
        let mut bytes = w.into_inner();
        // Tear the commit marker (drop its last 3 bytes).
        bytes.truncate(bytes.len() - 3);
        let (out, report) = replay_all(&bytes);
        assert_eq!(out, vec![ins(1, 2, 1.0)]);
        assert_eq!(report.dropped_batches, 1);
        let tail = report.torn_tail.unwrap();
        assert_eq!(tail.kind, TornTailKind::UncommittedBatch);
        assert_eq!(tail.offset, begin_offset);
        assert_eq!(report.durable_len, begin_offset);
    }

    #[test]
    fn orphan_commit_marker_is_a_hard_error() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append_txn_commit(5, 0).unwrap();
        let err = replay_wal(Cursor::new(w.into_inner()), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("orphan commit"), "{err}");
    }

    #[test]
    fn commit_with_wrong_txn_id_count_or_crc_is_a_hard_error() {
        // Wrong id.
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append_txn_begin(1, 1).unwrap();
        let crc = w.append_batch_crc(&[ins(1, 2, 1.0)]).unwrap();
        w.append_txn_commit(2, crc32c(&crc.to_le_bytes())).unwrap();
        let err = replay_wal(Cursor::new(w.into_inner()), |_| {}).unwrap_err();
        assert!(err.to_string().contains("names txn 2"), "{err}");

        // Wrong op count.
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append_txn_begin(1, 5).unwrap();
        let crc = w.append_batch_crc(&[ins(1, 2, 1.0)]).unwrap();
        w.append_txn_commit(1, crc32c(&crc.to_le_bytes())).unwrap();
        let err = replay_wal(Cursor::new(w.into_inner()), |_| {}).unwrap_err();
        assert!(err.to_string().contains("declared 5"), "{err}");

        // Wrong CRC chain.
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append_txn_begin(1, 1).unwrap();
        w.append_batch(&[ins(1, 2, 1.0)]).unwrap();
        w.append_txn_commit(1, 0xDEAD_BEEF).unwrap();
        let err = replay_wal(Cursor::new(w.into_inner()), |_| {}).unwrap_err();
        assert!(err.to_string().contains("CRC chain mismatch"), "{err}");
    }

    #[test]
    fn markerless_v5_wal_replays_unchanged() {
        // A log written by the pre-txn writer (plain + tag-4 batch records
        // only) must replay byte-identically to the old semantics.
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&ins(1, 2, 1.0)).unwrap();
        w.append_batch(&[ins(3, 4, 2.0), ins(5, 6, 3.0)]).unwrap();
        let (out, report) = replay_all(&w.into_inner());
        assert_eq!(out, vec![ins(1, 2, 1.0), ins(3, 4, 2.0), ins(5, 6, 3.0)]);
        assert_eq!(report.records, 2);
        assert_eq!(report.ops, 3);
        assert_eq!(report.dropped_batches, 0);
    }

    #[test]
    fn plain_records_interleave_with_txns() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&ins(1, 2, 1.0)).unwrap();
        wal_with_txn(&mut w, 3, &[ins(3, 4, 1.0)], 1).unwrap();
        w.append(&ins(5, 6, 1.0)).unwrap();
        wal_with_txn(&mut w, 4, &[ins(7, 8, 1.0), ins(9, 10, 1.0)], 1).unwrap();
        let (out, report) = replay_all(&w.into_inner());
        assert_eq!(out.len(), 5, "log order preserved across markers");
        assert_eq!(out[0], ins(1, 2, 1.0));
        assert_eq!(out[2], ins(5, 6, 1.0));
        assert_eq!(report.ops, 5);
        assert_eq!(report.dropped_batches, 0);
    }

    #[test]
    fn durable_store_txn_commits_and_recovers() {
        let dir = tempdir("txn_commit");
        let txn = GraphTxn::new(99)
            .insert_edge(Edge::new(v(1), v(2), 1.0))
            .insert_edge(Edge::new(v(3), v(4), 2.0));
        {
            let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
            let receipt = store.try_apply_txn(&txn, 2).unwrap();
            assert_eq!(receipt.txn_id, 99);
            assert_eq!(receipt.ops_applied, 2);
            assert_eq!(store.num_edges(), 2);
        }
        let (store, report) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.wal_ops, 2);
        assert_eq!(report.dropped_batches, 0);
        assert_eq!(store.num_edges(), 2);
        assert_eq!(store.edge_weight(v(3), v(4), EdgeType::DEFAULT), Some(2.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_store_txn_rejection_applies_nothing() {
        let dir = tempdir("txn_reject");
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        store.insert_edge(Edge::new(v(1), v(2), 1.0));
        let bytes_before = store.wal_bytes();
        let txn = GraphTxn::new(1)
            .insert_edge(Edge::new(v(5), v(6), 1.0))
            .delete_edge(v(8), v(9), EdgeType::DEFAULT); // dangling
        let err = store.try_apply_txn(&txn, 2).unwrap_err();
        assert!(err.is_rejected());
        assert_eq!(store.num_edges(), 1, "zero changes on abort");
        assert_eq!(store.wal_bytes(), bytes_before, "nothing logged on abort");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_crash_before_commit_recovers_pre_txn_state() {
        let dir = tempdir("txn_crash_pre");
        let txn = GraphTxn::new(5)
            .insert_edge(Edge::new(v(10), v(11), 1.0))
            .insert_edge(Edge::new(v(12), v(13), 1.0));
        {
            let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
            store.insert_edge(Edge::new(v(1), v(2), 1.0));
            store.crash_injector().arm(CrashPoint::TxnAfterOps);
            let err = store.try_apply_txn(&txn, 2).unwrap_err();
            assert!(matches!(err, TxnError::Store(_)));
            assert_eq!(store.num_edges(), 1, "in-memory graph untouched");
            assert!(store.is_wal_poisoned(), "tail holds a dangling begin");
            assert!(
                store.try_apply(&ins(50, 51, 1.0)).is_err(),
                "writes fail-stop until reopen"
            );
        }
        let (store, report) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.dropped_batches, 1);
        assert_eq!(store.num_edges(), 1, "pre-txn state");
        assert!(!store.is_wal_poisoned());
        // The truncated log accepts new writes cleanly.
        store.try_apply_txn(&txn, 2).unwrap();
        assert_eq!(store.num_edges(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_crash_after_commit_recovers_post_txn_state() {
        let dir = tempdir("txn_crash_post");
        let txn = GraphTxn::new(6).insert_edge(Edge::new(v(10), v(11), 1.0));
        {
            let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
            store.crash_injector().arm(CrashPoint::TxnAfterFsync);
            let err = store.try_apply_txn(&txn, 2).unwrap_err();
            assert!(matches!(err, TxnError::Store(_)));
            assert_eq!(store.num_edges(), 0, "apply never ran in-process");
        }
        let (store, report) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.dropped_batches, 0);
        assert_eq!(report.wal_ops, 1, "committed txn replayed");
        assert_eq!(store.num_edges(), 1, "post-txn state");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_op_txn_commits_without_touching_the_wal() {
        let dir = tempdir("txn_zero");
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        let bytes_before = store.wal_bytes();
        let receipt = store
            .try_apply_txn(&GraphTxn::new(1).upsert_vertex(v(9)), 1)
            .unwrap();
        assert_eq!(receipt.ops_applied, 0);
        assert_eq!(store.wal_bytes(), bytes_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The three logged write paths share their bookkeeping; what each one
    /// puts on disk must stay exactly what it was before they did (bytes
    /// recorded at that commit).
    #[test]
    fn logged_writes_leave_the_recorded_wal_bytes_and_metrics() {
        const RECORDED: &str = "\
            5044324757414c311b00000001010000000000000002000000000000000000000000000000f83fdd\
            54983c4e000000040300000001030000000000000004000000000000000000000000000000004003\
            010000000000000002000000000000000000000000000000e03f0203000000000000000400000000\
            00000000004ff694cd0d00000005edfe00000000000002000000fa90a4b63b000000040200000003\
            01000000000000000200000000000000000000000000000010400105000000000000000600000000\
            0000000000000000000000f03f97fbcc7c0d00000006edfe000000000000f901e90e8da823481b00\
            0000010700000000000000080000000000000000000000000000000840a61ff4df";
        let dir = tempdir("recorded_bytes");
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        store.try_apply(&ins(1, 2, 1.5)).unwrap();
        let batch = [
            ins(3, 4, 2.0),
            UpdateOp::UpdateWeight(Edge::new(v(1), v(2), 0.5)),
            UpdateOp::Delete {
                src: v(3),
                dst: v(4),
                etype: EdgeType::DEFAULT,
            },
        ];
        store.try_apply_batch(&batch, 2).unwrap();
        store.crash_injector().arm(CrashPoint::WalAppend);
        assert!(store.try_apply(&ins(9, 9, 1.0)).is_err(), "logs nothing");
        let txn = GraphTxn::new(0xfeed)
            .insert_edge(Edge::new(v(5), v(6), 1.0))
            .patch_weight(Edge::new(v(1), v(2), 4.0));
        store.try_apply_txn(&txn, 2).unwrap();
        store.try_apply(&ins(7, 8, 3.0)).unwrap();
        store.sync().unwrap();

        let bytes = std::fs::read(dir.join("wal.log")).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, RECORDED);
        let snap = store.registry().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(counter("wal.appends"), 4);
        assert_eq!(counter("wal.append_ops"), 7);
        let logged = (bytes.len() - WAL_MAGIC.len()) as u64;
        assert_eq!(counter("wal.append_bytes"), logged);
        assert_eq!(counter("wal.append_errors"), 1);
        assert_eq!(snap.histogram("wal.append_ns").map(|h| h.count), Some(4));
        assert!(!store.is_wal_poisoned());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "platod2gl_wal_txn_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}
