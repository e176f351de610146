//! Write-ahead log for crash-safe durability (robustness layer on top of
//! paper Sec. IV's in-memory store).
//!
//! PlatoD2GL's store is memory-resident; a trainer crash between snapshots
//! would silently lose every update since the last checkpoint. The WAL
//! closes that window: every logged write is appended to the log *before*
//! it is applied to the samtrees, and recovery is
//! `restore(latest snapshot) + replay(WAL)`.
//!
//! # On-disk format
//!
//! ```text
//! file   := magic "PD2GWAL2" , record*
//! record := len:u32le , payload:[u8; len] , crc:u32le        crc = CRC32C(payload)
//! payload:= count:u32le , count × op
//! op     := tag:u8 , body
//!   tag 1 Insert           body = src:u64le dst:u64le etype:u16le weight:f64le-bits
//!   tag 2 Delete           body = src:u64le dst:u64le etype:u16le
//!   tag 3 UpdateWeight     body = src:u64le dst:u64le etype:u16le weight:f64le-bits
//!   tag 7 Insert + ts      body = as tag 1 , ts:u64le
//!   tag 8 UpdateWeight + ts body = as tag 3 , ts:u64le
//! ```
//!
//! Every logged write — one op, an update batch or a transaction — is
//! exactly one record, written with one `write_all`. Replay delivers a
//! record's ops all together or, if the record is torn, not at all, so a
//! write is atomic across crashes with no further protocol (the paper's
//! PALM-style batch as the unit of work, Sec. VI-B).
//!
//! [`replay_wal`] reads this format only: a log with any other magic,
//! including the `PD2GWAL1` format that bracketed transactions with marker
//! records, is [`io::ErrorKind::InvalidData`] naming the format found and
//! the one supported.
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
pub const WAL_MAGIC: &[u8; 8] = b"PD2GWAL2";

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_UPDATE_WEIGHT: u8 = 3;
// Timestamped variants (temporal plane): same body as tags 1/3 with the
// edge's event time (u64 LE) appended. Written only when `ts != 0`, so a
// timeless op spends no bytes on a timestamp.
const TAG_INSERT_TS: u8 = 7;
const TAG_UPDATE_WEIGHT_TS: u8 = 8;

/// Upper bound on a single record payload: the writer refuses a larger one
/// and replay treats one as corruption. A batch of 1M ops encodes to
/// ~27 MB, far below this. Unit tests use a small limit so the refusal is
/// testable without a 1 GiB allocation.
const MAX_RECORD_LEN: u32 = if cfg!(test) { 1 << 16 } else { 1 << 30 };

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

/// Decode a record payload, pushing its ops onto `ops`. `false` on any
/// structural problem (unknown tag, short body, trailing bytes).
fn decode_payload(payload: &[u8], ops: &mut Vec<UpdateOp>) -> bool {
    let mut r = Reader::new(payload);
    let decoded = (|| -> Result<(), WireError> {
        for _ in 0..r.u32()? {
            ops.push(decode_op(&mut r)?);
        }
        Ok(())
    })();
    // A CRC-valid record with trailing junk indicates a writer bug, not a
    // torn write — reject it.
    decoded.is_ok() && r.is_empty()
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends checksummed records to a WAL stream, one `write_all` per record
/// and no buffering of its own.
pub struct WalWriter<W: Write> {
    w: W,
    /// Bytes written so far, including the magic (mirrors the file offset).
    offset: u64,
    records: u64,
    /// The record under assembly: length prefix, payload, CRC.
    frame: Vec<u8>,
}

impl<W: Write> WalWriter<W> {
    /// Start a fresh WAL on `w`: writes the magic header.
    pub fn create(mut w: W) -> io::Result<Self> {
        w.write_all(WAL_MAGIC)?;
        Ok(Self::resume(w, WAL_MAGIC.len() as u64, 0))
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
            frame: Vec::new(),
        }
    }

    /// Append `ops` as one record: replay delivers all of them or, if the
    /// record is torn, none. A payload over the record limit is refused
    /// with [`io::ErrorKind::InvalidInput`] before any byte is written.
    pub fn append(&mut self, ops: &[UpdateOp]) -> io::Result<()> {
        let frame = &mut self.frame;
        frame.clear();
        put_u32(frame, 0); // the length, patched below
        put_u32(frame, ops.len() as u32);
        for op in ops {
            encode_op(op, frame);
        }
        let len = frame.len() - 4;
        if len > MAX_RECORD_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a WAL record of {} ops would be {len} bytes, over the \
                     {MAX_RECORD_LEN}-byte limit; nothing was logged",
                    ops.len()
                ),
            ));
        }
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        let crc = crc32c(&frame[4..]);
        put_u32(frame, crc);
        self.w.write_all(frame)?;
        self.offset += frame.len() as u64;
        self.records += 1;
        Ok(())
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
    let mut report = WalReplayReport::default();
    if data.is_empty() {
        // A crash before the header hit disk: an empty log is a valid
        // (zero-record) log.
        return Ok(report);
    }
    let magic = &data[..data.len().min(WAL_MAGIC.len())];
    if magic != WAL_MAGIC.as_slice() {
        return Err(invalid(format!(
            "unsupported WAL format {:?} at byte offset 0: this build reads {:?} only",
            String::from_utf8_lossy(magic),
            String::from_utf8_lossy(WAL_MAGIC),
        )));
    }
    let mut pos = WAL_MAGIC.len();
    let mut ops = Vec::new();
    let kind = loop {
        report.durable_len = pos as u64;
        let remaining = data.len() - pos;
        if remaining == 0 {
            return Ok(report);
        }
        let mut r = Reader::new(&data[pos..]);
        let Ok(len) = r.u32() else {
            break TornTailKind::TruncatedHeader;
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
            break if len == 0 {
                TornTailKind::ZeroFill
            } else {
                TornTailKind::TruncatedRecord
            };
        };
        let computed = crc32c(payload);
        if stored != computed {
            if pos + frame == data.len() {
                // The bad record reaches exactly to EOF: a torn final
                // append (e.g. partially flushed page).
                break TornTailKind::BadTailChecksum;
            }
            return Err(invalid(format!(
                "WAL record at byte offset {pos} failed its CRC32C check \
                 (stored {stored:#010x}, computed {computed:#010x}) with {} bytes \
                 following the record — interior corruption, refusing to replay",
                data.len() - pos - frame
            )));
        }
        ops.clear();
        if !decode_payload(payload, &mut ops) {
            return Err(invalid(format!(
                "WAL record at byte offset {pos} passed its CRC but does not \
                 decode as a valid op record — writer bug or tampering"
            )));
        }
        report.records += 1;
        report.ops += ops.len() as u64;
        ops.drain(..).for_each(&mut *sink);
        pos += frame;
    };
    report.torn_tail = Some(TornTail {
        offset: pos as u64,
        kind,
    });
    Ok(report)
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
/// Durability contract: each logged write reaches the OS in one write
/// before the call returns, so it survives a process crash;
/// [`try_apply_txn`](DurableGraphStore::try_apply_txn),
/// [`DurableGraphStore::sync`] and
/// [`checkpoint`](DurableGraphStore::checkpoint) additionally fsync so
/// they survive power loss.
///
/// The [`GraphStore`] impl's methods are infallible by signature; an I/O
/// failure while logging panics, because continuing would break the
/// write-ahead contract. Callers that want to handle disk errors use the
/// `try_*` methods.
pub struct DurableGraphStore {
    store: DynamicGraphStore,
    wal: Mutex<WalWriter<File>>,
    dir: PathBuf,
    registry: Arc<Registry>,
    metrics: WalMetrics,
    crash: CrashInjector,
    /// Set by any failed append: the log's tail is then unknown (a partial
    /// record, or a whole one whose write was reported as failed), and a
    /// later record could bury it as interior corruption or replay a write
    /// its caller saw fail. Writes fail-stop until a checkpoint (which
    /// resets the log) or a reopen (which truncates a torn tail).
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
    /// and training. An invalid tree configuration is
    /// [`Error::InvalidConfig`], refused before `dir` is touched.
    pub fn open_with_registry(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        registry: Arc<Registry>,
    ) -> Result<(Self, RecoveryReport), Error> {
        config.tree.check().map_err(Error::invalid_config)?;
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
            metrics.replayed_records.add(replay.records);
            metrics.replayed_ops.add(replay.ops);
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
            WalWriter::create(file)?
        } else {
            file.seek(SeekFrom::Start(offset))?;
            WalWriter::resume(file, offset, records)
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

    fn lock_wal(&self) -> std::sync::MutexGuard<'_, WalWriter<File>> {
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

    /// True when a failed append left the WAL tail in an unknown state and
    /// the store is refusing further writes.
    pub fn is_wal_poisoned(&self) -> bool {
        self.wal_poisoned.load(Ordering::Acquire)
    }

    /// The one logged write behind [`try_apply_batch`] and
    /// [`try_apply_txn`]: append `ops` as one record (a transaction's is
    /// also fsynced), then apply them in memory.
    ///
    /// The in-memory apply happens while the WAL lock is still held:
    /// [`checkpoint`](DurableGraphStore::checkpoint) takes the same lock, so
    /// no op can ever be logged-but-unapplied when a snapshot is cut (the
    /// snapshot would miss the op and the subsequent WAL reset would lose
    /// it), and in-memory apply order always matches log order, so replay
    /// reproduces the pre-crash state even for conflicting concurrent ops.
    ///
    /// On a failed append the in-memory graph is untouched and the store is
    /// poisoned (see `wal_poisoned`) — except when the writer refused an
    /// oversized record, which writes no byte.
    ///
    /// [`try_apply_batch`]: DurableGraphStore::try_apply_batch
    /// [`try_apply_txn`]: DurableGraphStore::try_apply_txn
    fn logged(&self, ops: &[UpdateOp], threads: usize, txn: bool) -> io::Result<()> {
        let mut wal = self.lock_wal();
        if self.is_wal_poisoned() {
            self.metrics.append_errors.inc();
            return Err(io::Error::other(
                "an earlier WAL append failed, so the log's tail is unknown; \
                 checkpoint or reopen the store to write again",
            ));
        }
        let started = Instant::now();
        let before = wal.offset();
        let mut append = || -> io::Result<()> {
            self.crash.hit(CrashPoint::WalAppend)?;
            wal.append(ops)?;
            if txn {
                self.crash.hit(CrashPoint::TxnAfterCommit)?;
                wal.get_ref().sync_data()?;
                self.crash.hit(CrashPoint::TxnAfterFsync)?;
            }
            Ok(())
        };
        if let Err(e) = append() {
            self.metrics.append_errors.inc();
            if e.kind() != io::ErrorKind::InvalidInput {
                self.wal_poisoned.store(true, Ordering::Release);
            }
            return Err(e);
        }
        self.metrics.append_ns.record(started.elapsed());
        self.metrics.appends.inc();
        self.metrics.append_ops.add(ops.len() as u64);
        self.metrics.append_bytes.add(wal.offset() - before);
        self.metrics.mem_bytes.set(wal.offset() as i64);
        self.store.apply_batch_parallel(ops, threads);
        Ok(())
    }

    /// Log `ops` as one WAL record, then apply them with the store's
    /// batch-parallel path. A one-op slice is a single-op write.
    pub fn try_apply_batch(&self, ops: &[UpdateOp], threads: usize) -> Result<(), Error> {
        if ops.is_empty() {
            return Ok(());
        }
        Ok(self.logged(ops, threads, false)?)
    }

    /// Apply a [`GraphTxn`] with all-or-nothing semantics across crashes.
    ///
    /// **Phase 1** validates the whole transaction against the live store
    /// (dangling deletes/patches, duplicate keys, non-finite weights) and
    /// aborts with every violation found — zero changes, nothing logged.
    /// **Phase 2** logs the lowered ops as one WAL record, fsyncs it, then
    /// applies in memory. A crash before the record is whole on disk
    /// recovers to the pre-transaction graph (replay drops a torn record);
    /// a crash after recovers to the post-transaction graph. Never in
    /// between.
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
        // Phase 2: one logged record, then the in-memory apply.
        if let Err(e) = self.logged(&lowered, threads, true) {
            self.metrics.txn_aborted.inc();
            return Err(TxnError::Store(Error::Io(e)));
        }
        self.metrics.txn_committed.inc();
        Ok(receipt)
    }

    /// The [`GraphStore`] single-op writes: a one-op logged write that
    /// panics on an I/O error.
    fn apply_logged(&self, op: UpdateOp) {
        self.try_apply_batch(&[op], 1)
            .expect("WAL append failed: cannot guarantee durability");
    }

    /// fsync the WAL file.
    pub fn sync(&self) -> Result<(), Error> {
        self.lock_wal().get_ref().sync_data()?;
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
        *wal = WalWriter::create(file)?;
        wal.get_ref().sync_data()?;
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
        self.apply_logged(UpdateOp::Insert(edge));
    }

    fn delete_edge(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> bool {
        let existed = self.store.edge_weight(src, dst, etype).is_some();
        self.apply_logged(UpdateOp::Delete { src, dst, etype });
        existed
    }

    fn update_weight(&self, edge: Edge) -> bool {
        let existed = self
            .store
            .edge_weight(edge.src, edge.dst, edge.etype)
            .is_some();
        self.apply_logged(UpdateOp::UpdateWeight(edge));
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

    /// One record per op.
    fn wal_with(ops: &[UpdateOp]) -> Vec<u8> {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        for op in ops {
            w.append(std::slice::from_ref(op)).unwrap();
        }
        w.into_inner()
    }

    fn replay_all(bytes: &[u8]) -> (Vec<UpdateOp>, WalReplayReport) {
        let mut out = Vec::new();
        let report = replay_wal(Cursor::new(bytes), |op| out.push(op)).unwrap();
        (out, report)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
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
        w.append(&ops).unwrap();
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

    /// A log in the previous format — records from a single insert, an
    /// update batch and a marker-bracketed transaction, as that writer
    /// produced them — is refused, naming the format found and the one
    /// this build reads.
    #[test]
    fn format_1_log_is_refused_naming_both_formats() {
        const FORMAT_1: &str = "\
            5044324757414c311b00000001010000000000000002000000000000000000000000000000f83fdd\
            54983c4e000000040300000001030000000000000004000000000000000000000000000000004003\
            010000000000000002000000000000000000000000000000e03f0203000000000000000400000000\
            00000000004ff694cd0d00000005edfe00000000000002000000fa90a4b63b000000040200000003\
            01000000000000000200000000000000000000000000000010400105000000000000000600000000\
            0000000000000000000000f03f97fbcc7c0d00000006edfe000000000000f901e90e8da823481b00\
            0000010700000000000000080000000000000000000000000000000840a61ff4df";
        let bytes: Vec<u8> = (0..FORMAT_1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&FORMAT_1[i..i + 2], 16).unwrap())
            .collect();
        let mut delivered = 0;
        let err = replay_wal(Cursor::new(bytes), |_| delivered += 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("\"PD2GWAL1\""), "{msg}");
        assert!(msg.contains("reads \"PD2GWAL2\" only"), "{msg}");
        assert_eq!(delivered, 0, "nothing of a refused log is applied");
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
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.push(TAG_INSERT);
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

    /// A transaction's lowered ops, every op kind and the stamped tags
    /// included, are one record that replays whole and in order.
    fn txn_ops() -> Vec<UpdateOp> {
        vec![
            ins(3, 4, 1.0),
            UpdateOp::UpdateWeight(Edge::new(v(5), v(6), 2.0).at(9)),
            UpdateOp::Delete {
                src: v(7),
                dst: v(8),
                etype: EdgeType::DEFAULT,
            },
            UpdateOp::Insert(Edge::new(v(9), v(10), 0.5).at(11)),
        ]
    }

    #[test]
    fn committed_txn_replays_all_ops() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&txn_ops()).unwrap();
        let bytes = w.into_inner();
        let (out, report) = replay_all(&bytes);
        assert_eq!(out, txn_ops());
        assert_eq!(report.records, 1);
        assert_eq!(report.durable_len, bytes.len() as u64);
    }

    /// Cutting a transaction's record anywhere — its trailing CRC is what
    /// commits it — drops all of its ops and rolls the durable prefix back
    /// to the record's first byte; the write before it survives.
    #[test]
    fn torn_tail_inside_a_txn_rolls_back_to_the_begin() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&[ins(1, 2, 1.0)]).unwrap();
        let begin = w.offset() as usize;
        w.append(&txn_ops()).unwrap();
        let bytes = w.into_inner();
        for cut in begin + 1..bytes.len() {
            let (out, report) = replay_all(&bytes[..cut]);
            assert_eq!(out, vec![ins(1, 2, 1.0)], "cut at {cut}");
            assert_eq!(report.durable_len, begin as u64, "cut at {cut}");
            assert_eq!(report.torn_tail.unwrap().offset, begin as u64);
        }
    }

    /// The durable store, end to end: a transaction whose record lost its
    /// last byte is recovered to the pre-txn graph, and appends resume
    /// where the record began.
    #[test]
    fn txn_without_commit_is_dropped_and_rolled_back() {
        let dir = tempdir("txn_torn");
        let txn = GraphTxn::new(3)
            .insert_edge(Edge::new(v(10), v(11), 1.0))
            .patch_weight(Edge::new(v(1), v(2), 5.0));
        let begin = {
            let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
            store.insert_edge(Edge::new(v(1), v(2), 1.0));
            let begin = store.wal_bytes();
            store.try_apply_txn(&txn, 2).unwrap();
            begin
        };
        let wal = OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        wal.set_len(wal.metadata().unwrap().len() - 1).unwrap();
        drop(wal);
        let (store, report) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.torn_tail.unwrap().offset, begin);
        assert_eq!(store.num_edges(), 1, "pre-txn graph");
        assert_eq!(store.edge_weight(v(1), v(2), EdgeType::DEFAULT), Some(1.0));
        assert_eq!(
            store.wal_bytes(),
            begin,
            "the torn record is truncated away"
        );
        store.try_apply_txn(&txn, 2).unwrap();
        assert_eq!(store.num_edges(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Single-op, batch and transaction records interleave in one log and
    /// replay in log order.
    #[test]
    fn plain_records_interleave_with_txns() {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        w.append(&[ins(1, 2, 1.0)]).unwrap();
        w.append(&txn_ops()).unwrap();
        w.append(&[ins(20, 21, 1.0), ins(22, 23, 1.0)]).unwrap();
        w.append(&[ins(5, 6, 1.0)]).unwrap();
        let (out, report) = replay_all(&w.into_inner());
        let mut want = vec![ins(1, 2, 1.0)];
        want.extend(txn_ops());
        want.extend([ins(20, 21, 1.0), ins(22, 23, 1.0), ins(5, 6, 1.0)]);
        assert_eq!(out, want);
        assert_eq!(report.records, 4);
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
            assert_eq!(store.wal_records(), 1, "one record per transaction");
        }
        let (store, report) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.wal_ops, 2);
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
            store.crash_injector().arm(CrashPoint::WalAppend);
            let err = store.try_apply_txn(&txn, 2).unwrap_err();
            assert!(matches!(err, TxnError::Store(_)));
            assert_eq!(store.num_edges(), 1, "in-memory graph untouched");
            assert!(store.is_wal_poisoned(), "a failed append poisons");
            assert!(
                store.try_apply_batch(&[ins(50, 51, 1.0)], 1).is_err(),
                "writes fail-stop until reopen"
            );
        }
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.num_edges(), 1, "pre-txn state");
        assert!(!store.is_wal_poisoned());
        // The reopened log accepts new writes cleanly.
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

    /// A tree configuration the samtree would refuse is an error from
    /// `open`, not a panic, and leaves no directory behind.
    #[test]
    fn invalid_tree_config_is_refused_before_touching_disk() {
        let dir = tempdir("bad_config");
        for (capacity, alpha, rule) in [(2, 0, "capacity"), (8, 4, "alpha")] {
            let mut config = StoreConfig::default();
            config.tree.capacity = capacity;
            config.tree.alpha = alpha;
            match DurableGraphStore::open(&dir, config) {
                Err(Error::InvalidConfig { what }) => assert!(what.contains(rule), "{what}"),
                Err(e) => panic!("expected InvalidConfig, got {e}"),
                Ok(_) => panic!("capacity {capacity}, alpha {alpha} opened"),
            }
            assert!(!dir.exists(), "a refused open must not create {dir:?}");
        }
    }

    /// Any failed append — a single op or a batch, not only a transaction —
    /// poisons the store: every later write fails until a checkpoint, after
    /// which writes succeed and a reopen reproduces the live store.
    #[test]
    fn any_failed_append_fail_stops_until_checkpoint() {
        let dir = tempdir("fail_stop");
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        store.try_apply_batch(&[ins(1, 2, 1.0)], 1).unwrap();
        store.crash_injector().arm(CrashPoint::WalAppend);
        assert!(store.try_apply_batch(&[ins(3, 4, 1.0)], 1).is_err());
        let later = [ins(5, 6, 1.0), ins(7, 8, 1.0)];
        assert!(
            store.try_apply_batch(&later, 1).is_err(),
            "a later write after a failed append must fail-stop"
        );
        assert!(store.is_wal_poisoned());
        assert_eq!(store.num_edges(), 1);

        store.checkpoint().unwrap();
        assert!(!store.is_wal_poisoned());
        store.try_apply_batch(&later, 1).unwrap();
        store.insert_edge(Edge::new(v(9), v(10), 2.0));
        let live = store.store().export_adjacency();
        drop(store);
        let (reopened, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        let mut got = reopened.store().export_adjacency();
        let mut want = live;
        got.sort_by_key(|e| e.0);
        want.sort_by_key(|e| e.0);
        assert_eq!(got, want);
        assert_eq!(reopened.num_edges(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write whose record would exceed the record limit is refused before
    /// a byte reaches the log, and the store stays writable.
    #[test]
    fn oversized_record_is_refused_before_a_byte_is_written() {
        let dir = tempdir("oversized");
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        let per_op = 27; // tag, src, dst, etype, weight
        let big: Vec<UpdateOp> = (0..MAX_RECORD_LEN as u64 / per_op + 1)
            .map(|i| ins(i, i + 1, 1.0))
            .collect();
        let bytes_before = store.wal_bytes();
        let err = store.try_apply_batch(&big, 1).unwrap_err();
        assert!(
            matches!(&err, Error::Io(e) if e.kind() == io::ErrorKind::InvalidInput),
            "{err}"
        );
        assert_eq!(store.wal_bytes(), bytes_before);
        assert_eq!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len(),
            bytes_before
        );
        assert_eq!(store.num_edges(), 0);
        assert!(
            !store.is_wal_poisoned(),
            "a refused write leaves the store writable"
        );
        store.try_apply_batch(&big[..100], 1).unwrap();
        assert_eq!(store.num_edges(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The byte pin: a single op, an update batch and a transaction are one
    /// record each, and a failed append logs nothing and poisons the store.
    #[test]
    fn logged_writes_leave_the_recorded_wal_bytes_and_metrics() {
        const RECORDED: &str = "\
            5044324757414c321f00000001000000010100000000000000020000000000000000000000000000\
            00f83f6c9648bc4d0000000300000001030000000000000004000000000000000000000000000000\
            004003010000000000000002000000000000000000000000000000e03f0203000000000000000400\
            0000000000000000af8142a03a000000020000000301000000000000000200000000000000000000\
            0000000000104001050000000000000006000000000000000000000000000000f03f54ef2c9d1f00\
            00000100000001070000000000000008000000000000000000000000000000084017dd245f";
        let dir = tempdir("recorded_bytes");
        let (store, _) = DurableGraphStore::open(&dir, StoreConfig::default()).unwrap();
        store.try_apply_batch(&[ins(1, 2, 1.5)], 1).unwrap();
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
        let txn = GraphTxn::new(0xfeed)
            .insert_edge(Edge::new(v(5), v(6), 1.0))
            .patch_weight(Edge::new(v(1), v(2), 4.0));
        store.try_apply_txn(&txn, 2).unwrap();
        store.try_apply_batch(&[ins(7, 8, 3.0)], 1).unwrap();
        store.crash_injector().arm(CrashPoint::WalAppend);
        assert!(
            store.try_apply_batch(&[ins(9, 9, 1.0)], 1).is_err(),
            "logs nothing"
        );
        store.sync().unwrap();

        let bytes = std::fs::read(dir.join("wal.log")).unwrap();
        assert_eq!(hex(&bytes), RECORDED);
        let snap = store.registry().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(counter("wal.appends"), 4);
        assert_eq!(counter("wal.append_ops"), 7);
        let logged = (bytes.len() - WAL_MAGIC.len()) as u64;
        assert_eq!(counter("wal.append_bytes"), logged);
        assert_eq!(counter("wal.append_errors"), 1);
        assert_eq!(snap.histogram("wal.append_ns").map(|h| h.count), Some(4));
        assert!(store.is_wal_poisoned());
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
