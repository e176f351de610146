//! The remote graph-service client.
//!
//! [`RemoteCluster`] speaks the frame protocol to a
//! [`GraphServiceServer`](crate::GraphServiceServer) and implements
//! [`GraphService`] — the same surface as the in-process `Cluster` — so
//! `KHopSampler` and `TrainingPipeline` run against a remote graph server
//! unmodified.
//!
//! ## Connection modes
//!
//! [`ConnectionMode::Pooled`] (the default) is strictly
//! request/reply-per-stream: each call checks a stream out of the pool,
//! runs its round trip(s), and checks it back in on success (a failed
//! stream is dropped, never re-pooled; a stream idle for 30 s is reaped
//! at the next checkout and counted in `rpc.client.pool_evictions`).
//! Concurrent callers — the pipeline's prefetch workers — each get their
//! own stream; the pool keeps up to four idle ones.
//!
//! [`ConnectionMode::Multiplexed`] shares two sockets among all callers:
//! every request carries a fresh `req_id`, a per-channel reader thread
//! demultiplexes replies back to their waiters by id, and up to 1024
//! requests ride one socket concurrently.
//! Many in-flight requests over few file descriptors is exactly the shape
//! the event-loop server is built for.
//!
//! Either way every call is one *exchange*: n frames written before any
//! reply is read, n replies handed back in request order by correlation
//! id, under one retry loop — only the body of a single attempt differs
//! by mode. A one-shot call exchanges one frame;
//! [`RemoteCluster::sample_many`] coalesces a frontier into chunks of 256
//! requests and exchanges them together — so a hub-heavy frontier costs
//! one round trip of latency, not one per chunk, and a server answering
//! out of order changes nothing observable.
//!
//! ## Failure mapping
//!
//! Transport failures retry on a fresh connection, up to twice, after a
//! 10 ms backoff that doubles per attempt. Sampling is safe to retry
//! because the per-request RNG seeds are drawn *before* any I/O; update
//! batches are safe because every op kind is idempotent. When the budget is exhausted, the
//! sampling path does **not** error: each affected request degrades
//! according to its own
//! [`DegradedPolicy`](platod2gl_server::DegradedPolicy) — exactly what
//! the in-process router does for a dead shard — so a trainer rides out a
//! server restart with degraded batches instead of a crash. Update
//! batches and txns, whose loss would silently drop writes, surface
//! `Error::Io` after the last retry; a store error the server answered
//! with comes back as the variant it raised
//! ([`ErrorReply`](crate::codec::ErrorReply)'s two `From` impls).

use crate::codec::{
    decode, encode, encode_frame, frame_len, parse_frame, read_frame, take_timing_echo,
    write_frame, ErrorReply, FrameError, FrameKind, HealthReply, MapInstall, MapReply,
    MigrateAction, MigrateCtl, Payload, SampleBatch, TailFetch, TailReply, TxnApply, TxnReply,
    UpdateBatch,
};
use crate::lock;
use platod2gl_graph::{Error, GraphTxn, ShardHealth, TxnError, TxnReceipt, UpdateOp};
use platod2gl_obs::{current_trace_context, Counter, Histogram, ObsSnapshot, Registry, SpanRecord};
use platod2gl_server::{route_for, BatchReport, GraphService, SampleRequest, SampleResponse};
use rand::RngCore;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How a [`RemoteCluster`] maps calls onto sockets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConnectionMode {
    /// One exchange at a time per pooled stream (the default).
    #[default]
    Pooled,
    /// Few shared sockets, many correlated in-flight requests each.
    Multiplexed,
}

/// TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Idle connections kept in the pool (extras are dropped on check-in).
const POOL_SIZE: usize = 4;
/// Multiplexed mode: in-flight request ceiling per socket. A full channel
/// pushes back (the caller retries after backoff) instead of queueing
/// unboundedly.
const MAX_IN_FLIGHT: usize = 1024;
/// Pooled streams idle longer than this are reaped at checkout
/// (`rpc.client.pool_evictions` counts them) instead of being handed to a
/// request that would stall on a half-dead socket.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Transport retries after the first attempt.
const MAX_RETRIES: u32 = 2;
/// Backoff before the first retry; doubles per attempt.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);
/// Sample requests per pipelined frame.
const MAX_BATCH: usize = 256;
/// Multiplexed mode: sockets shared by all callers.
const MUX_CONNECTIONS: usize = 2;

/// Client shape: request timeout and connection mode. Start from
/// `default()` and chain the setters; [`RemoteCluster::connect`] rejects a
/// zero `request_timeout`.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Per-round-trip socket timeout; also shipped to the server as the
    /// batch's `deadline_ms` budget.
    pub request_timeout: Duration,
    /// Connection mode (pooled vs multiplexed).
    pub mode: ConnectionMode,
}

/// The pre-PR-8 name of [`ClientConfig`], kept so existing call sites and
/// the fleet crate compile unchanged.
pub type RemoteClusterConfig = ClientConfig;

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(2),
            mode: ConnectionMode::Pooled,
        }
    }
}

impl ClientConfig {
    /// Per-round-trip socket timeout (and server-side deadline budget).
    pub fn request_timeout(mut self, t: Duration) -> Self {
        self.request_timeout = t;
        self
    }

    /// Connection mode.
    pub fn mode(mut self, mode: ConnectionMode) -> Self {
        self.mode = mode;
        self
    }
}

struct ClientMetrics {
    requests: Arc<Counter>,
    retries: Arc<Counter>,
    transport_errors: Arc<Counter>,
    degraded_fallbacks: Arc<Counter>,
    reconnects: Arc<Counter>,
    pool_evictions: Arc<Counter>,
    rtt: Arc<Histogram>,
    /// Server-reported queue + service time from the reply timing
    /// echo. `rtt_ns - server_time_ns` for the same request is the
    /// network + client-side share of the round trip, so a slow batch can
    /// be attributed without a server-side lookup.
    server_time: Arc<Histogram>,
}

impl ClientMetrics {
    fn new(registry: &Arc<Registry>) -> Self {
        Self {
            requests: registry.counter("rpc.client.requests"),
            retries: registry.counter("rpc.client.retries"),
            transport_errors: registry.counter("rpc.client.transport_errors"),
            degraded_fallbacks: registry.counter("rpc.client.degraded_fallbacks"),
            reconnects: registry.counter("rpc.client.reconnects"),
            pool_evictions: registry.counter("rpc.client.pool_evictions"),
            rtt: registry.histogram("rpc.client.rtt_ns"),
            server_time: registry.histogram("rpc.client.server_time_ns"),
        }
    }
}

// ---------------------------------------------------------------------
// Multiplexed channels.
// ---------------------------------------------------------------------

/// One reply frame as a transport hands it over: kind plus payload.
type Reply = (FrameKind, Vec<u8>);

/// What a mux waiter receives: the reply frame, or why it will never come.
type MuxReply = Result<Reply, String>;

/// One shared socket: writers serialize frame writes under a mutex, a
/// dedicated reader thread parses replies and routes each to its waiter
/// by `req_id`.
struct MuxChannel {
    writer: Mutex<TcpStream>,
    pending: Arc<Mutex<HashMap<u64, mpsc::SyncSender<MuxReply>>>>,
    alive: Arc<AtomicBool>,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MuxChannel {
    fn dial(addr: &SocketAddr, cfg: &ClientConfig) -> io::Result<Arc<Self>> {
        let stream = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(cfg.request_timeout))?;
        let read_side = stream.try_clone()?;
        // Short poll so the reader notices `alive` dropping at shutdown;
        // partial frames survive timeouts because the reader buffers
        // bytes itself instead of using blocking exact reads.
        read_side.set_read_timeout(Some(Duration::from_millis(50)))?;
        let pending: Arc<Mutex<HashMap<u64, mpsc::SyncSender<MuxReply>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        let channel = Arc::new(Self {
            writer: Mutex::new(stream),
            pending: Arc::clone(&pending),
            alive: Arc::clone(&alive),
            reader: Mutex::new(None),
        });
        let handle = std::thread::Builder::new()
            .name("platod2gl-rpc-mux".to_string())
            .spawn(move || mux_reader(read_side, &pending, &alive))?;
        *lock(&channel.reader) = Some(handle);
        Ok(channel)
    }

    /// Register a waiter and write the request frame. Fails fast when the
    /// channel is dead or at its in-flight ceiling.
    fn submit(
        &self,
        req_id: u64,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<mpsc::Receiver<MuxReply>, FrameError> {
        if !self.alive.load(Ordering::Acquire) {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "mux channel closed",
            )));
        }
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut pending = lock(&self.pending);
            if pending.len() >= MAX_IN_FLIGHT {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "mux channel at max in-flight",
                )));
            }
            pending.insert(req_id, tx);
        }
        let frame = encode_frame(kind, req_id, payload);
        let wrote = {
            let mut writer = lock(&self.writer);
            writer.write_all(&frame).and_then(|()| writer.flush())
        };
        if let Err(e) = wrote {
            lock(&self.pending).remove(&req_id);
            self.fail("write failed");
            return Err(FrameError::Io(e));
        }
        Ok(rx)
    }

    fn cancel(&self, req_id: u64) {
        lock(&self.pending).remove(&req_id);
    }

    /// Mark the channel dead and wake every waiter with the reason.
    fn fail(&self, why: &str) {
        self.alive.store(false, Ordering::Release);
        for (_, tx) in lock(&self.pending).drain() {
            let _ = tx.try_send(Err(why.to_string()));
        }
    }

    fn shutdown(&self) {
        self.alive.store(false, Ordering::Release);
        let _ = lock(&self.writer).shutdown(std::net::Shutdown::Both);
        if let Some(handle) = lock(&self.reader).take() {
            let _ = handle.join();
        }
    }
}

/// Reader-thread body: buffer bytes, parse frames, deliver by `req_id`.
/// A reply whose id has no waiter (timed out and cancelled) is dropped.
fn mux_reader(
    mut stream: TcpStream,
    pending: &Mutex<HashMap<u64, mpsc::SyncSender<MuxReply>>>,
    alive: &AtomicBool,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let fail = |why: &str| {
        alive.store(false, Ordering::Release);
        for (_, tx) in lock(pending).drain() {
            let _ = tx.try_send(Err(why.to_string()));
        }
    };
    while alive.load(Ordering::Acquire) {
        match stream.read(&mut chunk) {
            Ok(0) => {
                fail("server closed the connection");
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    let flen = match frame_len(&buf) {
                        Ok(None) => break,
                        Ok(Some(flen)) => {
                            if buf.len() < flen {
                                break;
                            }
                            flen
                        }
                        Err(e) => {
                            fail(&e.to_string());
                            return;
                        }
                    };
                    match parse_frame(&buf[..flen]) {
                        Ok((header, payload)) => {
                            if let Some(tx) = lock(pending).remove(&header.req_id) {
                                let _ = tx.try_send(Ok((header.kind, payload.to_vec())));
                            }
                        }
                        Err(e) => {
                            fail(&e.to_string());
                            return;
                        }
                    }
                    buf.drain(..flen);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                fail(&e.to_string());
                return;
            }
        }
    }
}

/// A remote graph service reached over TCP, usable anywhere a `Cluster`
/// is (it implements [`GraphService`]).
pub struct RemoteCluster {
    addr: SocketAddr,
    cfg: ClientConfig,
    registry: Arc<Registry>,
    /// Pooled streams with their check-in instant (idle-reap bookkeeping).
    pool: Mutex<Vec<(TcpStream, Instant)>>,
    /// Multiplexed channels (empty in pooled mode).
    mux: Mutex<Vec<Arc<MuxChannel>>>,
    mux_rr: AtomicUsize,
    next_req_id: AtomicU64,
    num_shards: usize,
    last_version: AtomicU64,
    last_healths: Mutex<Vec<ShardHealth>>,
    m: ClientMetrics,
}

impl RemoteCluster {
    /// Connect to a graph server and learn its topology (shard count,
    /// graph version) via an initial health probe. The client owns its own
    /// registry: client-side `rpc.client.*` and `pipeline.*` telemetry
    /// land here, while server-side spans/slow-ops stay in the server's.
    ///
    /// A zero `request_timeout`, which would stall every call, is
    /// [`Error::InvalidConfig`].
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, Error> {
        if cfg.request_timeout.is_zero() {
            return Err(Error::invalid_config(
                "client request_timeout must be non-zero",
            ));
        }
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let registry = Arc::new(Registry::new());
        let m = ClientMetrics::new(&registry);
        let mut client = Self {
            addr,
            cfg,
            registry,
            pool: Mutex::new(Vec::new()),
            mux: Mutex::new(Vec::new()),
            mux_rr: AtomicUsize::new(0),
            next_req_id: AtomicU64::new(1),
            num_shards: 0,
            last_version: AtomicU64::new(0),
            last_healths: Mutex::new(Vec::new()),
            m,
        };
        let health = client.probe().map_err(|e| {
            Error::Io(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                e.to_string(),
            ))
        })?;
        client.num_shards = health.healths.len();
        Ok(client)
    }

    /// The server address this client talks to.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    fn next_req_id(&self) -> u64 {
        self.next_req_id.fetch_add(1, Ordering::Relaxed)
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(self.cfg.request_timeout))?;
        stream.set_write_timeout(Some(self.cfg.request_timeout))?;
        stream.set_nodelay(true)?;
        self.m.reconnects.inc();
        Ok(stream)
    }

    /// Check a stream out of the pool (the flag says it was pooled) or
    /// dial a fresh one. Streams idle past [`IDLE_TIMEOUT`] are reaped
    /// first — handing one to a request just trades a cheap reconnect now
    /// for a stalled read later.
    fn checkout(&self) -> io::Result<(TcpStream, bool)> {
        let now = Instant::now();
        let (pooled, reaped) = {
            let mut pool = lock(&self.pool);
            let before = pool.len();
            pool.retain(|(_, parked)| now.duration_since(*parked) < IDLE_TIMEOUT);
            let reaped = (before - pool.len()) as u64;
            (pool.pop(), reaped)
        };
        if reaped > 0 {
            self.m.pool_evictions.add(reaped);
        }
        match pooled {
            Some((stream, _)) => Ok((stream, true)),
            None => self.dial().map(|stream| (stream, false)),
        }
    }

    /// Park a stream in the pool — test hook for the eviction paths (a
    /// server restart leaves dead pooled streams; a long pause leaves
    /// stale ones).
    #[cfg(test)]
    fn inject_pooled(&self, stream: TcpStream, parked: Instant) {
        lock(&self.pool).push((stream, parked));
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = lock(&self.pool);
        if pool.len() < POOL_SIZE {
            pool.push((stream, Instant::now()));
        }
    }

    fn deadline_ms(&self) -> u32 {
        self.cfg
            .request_timeout
            .as_millis()
            .min(u128::from(u32::MAX)) as u32
    }

    /// The one exchange every call rides: send `payloads` as `kind` frames —
    /// all written before any reply is read — and return the replies in
    /// request order, timing echoes stripped. A one-shot call is an
    /// exchange of one payload; a pipelined frontier is one of many.
    ///
    /// Any [`FrameError::Io`] abandons the attempt's socket, sleeps the
    /// (doubling) backoff, and retries on a fresh one. Protocol-level
    /// errors are not retried — a peer speaking a different protocol will
    /// not improve on attempt two. A stale pooled stream (the server
    /// restarted since check-in) is a special case: it is evicted and the
    /// exchange redialed immediately, **without** spending a retry or
    /// sleeping a backoff — otherwise one restart burns the whole retry
    /// budget on streams that were doomed before the request existed. The
    /// eviction loop is bounded by the pool size: failed streams are never
    /// re-pooled, so each eviction shrinks the pool until checkout dials
    /// fresh.
    fn exchange(&self, kind: FrameKind, payloads: &[&[u8]]) -> Result<Vec<Reply>, FrameError> {
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 0;
        loop {
            let (outcome, from_pool) = match self.cfg.mode {
                ConnectionMode::Pooled => self.pooled_attempt(kind, payloads),
                ConnectionMode::Multiplexed => (self.mux_attempt(kind, payloads), false),
            };
            let e = match outcome {
                Ok(replies) => return Ok(replies),
                Err(e) => e,
            };
            if !matches!(e, FrameError::Io(_)) {
                return Err(e);
            }
            self.m.transport_errors.inc();
            if from_pool {
                self.m.pool_evictions.inc();
            } else if attempt < MAX_RETRIES {
                self.m.retries.inc();
                attempt += 1;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            } else {
                return Err(e);
            }
        }
    }

    /// Strip and record the timing echo every reply payload ends with.
    fn strip_echo(&self, kind: FrameKind, mut payload: Vec<u8>) -> Result<Reply, FrameError> {
        let echo = take_timing_echo(&mut payload)?;
        self.m.server_time.record(echo.server_time());
        Ok((kind, payload))
    }

    /// One Pooled attempt: a checked-out stream carries the whole exchange
    /// and goes back to the pool only if it succeeded. The flag says
    /// whether the stream came from the pool (see [`Self::exchange`]).
    fn pooled_attempt(
        &self,
        kind: FrameKind,
        payloads: &[&[u8]],
    ) -> (Result<Vec<Reply>, FrameError>, bool) {
        let (mut stream, from_pool) = match self.checkout() {
            Ok(checked_out) => checked_out,
            Err(e) => return (Err(FrameError::Io(e)), false),
        };
        let run = (|| {
            let started = Instant::now();
            let ids: Vec<u64> = payloads.iter().map(|_| self.next_req_id()).collect();
            for (payload, &id) in payloads.iter().zip(&ids) {
                write_frame(&mut stream, kind, id, payload)?;
            }
            stream.flush()?;
            // The server may answer out of order (write-path frames finish
            // on their own threads): each reply lands in the slot of the
            // request whose id it echoes. An id this exchange did not
            // send, or one already answered, means the stream carries
            // someone else's reply and cannot be trusted.
            let mut slots: Vec<Option<Reply>> = ids.iter().map(|_| None).collect();
            for _ in &ids {
                let (header, payload) = read_frame(&mut stream)?;
                let slot = ids
                    .iter()
                    .position(|&id| id == header.req_id)
                    .filter(|&i| slots[i].is_none())
                    .ok_or(FrameError::UnexpectedReply {
                        request: kind,
                        got: header.kind,
                        why: "unknown or repeated correlation id",
                    })?;
                slots[slot] = Some(self.strip_echo(header.kind, payload)?);
            }
            self.m.rtt.record(started.elapsed());
            Ok(slots.into_iter().flatten().collect())
        })();
        if run.is_ok() {
            self.checkin(stream);
        }
        (run, from_pool)
    }

    // ------------------------------------------------------------------
    // Multiplexed transport.
    // ------------------------------------------------------------------

    /// Pick (or dial) a live mux channel, round-robin across the
    /// configured socket count.
    fn mux_channel(&self) -> Result<Arc<MuxChannel>, FrameError> {
        let mut channels = lock(&self.mux);
        channels.retain(|c| c.alive.load(Ordering::Acquire));
        if channels.len() < MUX_CONNECTIONS {
            let channel = MuxChannel::dial(&self.addr, &self.cfg).map_err(FrameError::Io)?;
            self.m.reconnects.inc();
            channels.push(Arc::clone(&channel));
            return Ok(channel);
        }
        let i = self.mux_rr.fetch_add(1, Ordering::Relaxed) % channels.len();
        Ok(Arc::clone(&channels[i]))
    }

    /// Wait for one correlated reply. A timeout kills the channel: its
    /// stream ordering is unknowable once a reply has been abandoned.
    fn mux_await(
        &self,
        channel: &MuxChannel,
        req_id: u64,
        rx: &mpsc::Receiver<MuxReply>,
    ) -> Result<Reply, FrameError> {
        match rx.recv_timeout(self.cfg.request_timeout) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(why)) => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                why,
            ))),
            Err(_) => {
                channel.cancel(req_id);
                channel.fail("request timed out");
                Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "mux reply timed out",
                )))
            }
        }
    }

    /// One Multiplexed attempt: submit every payload on one channel (all
    /// frames in flight at once), then collect each waiter's reply — the
    /// channel's reader has already routed them by id.
    fn mux_attempt(&self, kind: FrameKind, payloads: &[&[u8]]) -> Result<Vec<Reply>, FrameError> {
        let channel = self.mux_channel()?;
        let started = Instant::now();
        let mut waiters = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let req_id = self.next_req_id();
            let rx = channel.submit(req_id, kind, payload)?;
            waiters.push((req_id, rx));
        }
        let mut replies = Vec::with_capacity(waiters.len());
        for (req_id, rx) in &waiters {
            let (kind, payload) = self.mux_await(&channel, *req_id, rx)?;
            replies.push(self.strip_echo(kind, payload)?);
        }
        self.m.rtt.record(started.elapsed());
        Ok(replies)
    }

    /// The one-shot exchange: returns the reply frame for the caller to
    /// interpret.
    fn roundtrip(&self, kind: FrameKind, payload: &[u8]) -> Result<Reply, FrameError> {
        let mut replies = self.exchange(kind, &[payload])?;
        Ok(replies.pop().expect("one reply per payload"))
    }

    /// [`roundtrip`](Self::roundtrip) of one typed request the server may
    /// refuse; see [`typed_reply`] for what comes back. The request is
    /// taken by value so that a batch-sized one is gone, not held beside
    /// its encoding, while the round trip runs.
    fn call<R: Payload>(
        &self,
        kind: FrameKind,
        request: impl Payload,
    ) -> Result<Result<R, ErrorReply>, FrameError> {
        let payload = encode(&request);
        drop(request);
        typed_reply(kind, self.roundtrip(kind, &payload)?)
    }

    /// [`call`](Self::call) for a request the server has no reason to
    /// refuse: an `ErrorReply` is a protocol failure like any other
    /// unexpected kind.
    fn ask<R: Payload>(&self, kind: FrameKind, request: impl Payload) -> Result<R, FrameError> {
        self.call(kind, request)?.map_err(|_| refused(kind))
    }

    /// Health probe: graph version plus per-shard healths. Successful
    /// probes refresh the client's cached view.
    pub fn probe(&self) -> Result<HealthReply, FrameError> {
        let reply: HealthReply = self.ask(FrameKind::HealthProbe, ())?;
        self.last_version
            .store(reply.graph_version, Ordering::Release);
        *lock(&self.last_healths) = reply.healths.clone();
        Ok(reply)
    }

    /// Pipelined exchange of pre-seeded sample chunks: one frame per
    /// chunk, every frame written before any reply is read, each reply
    /// checked for positional completeness against its chunk.
    fn pipelined_sample(
        &self,
        chunks: &[&[(SampleRequest, u64)]],
    ) -> Result<Vec<SampleResponse>, FrameError> {
        let deadline_ms = self.deadline_ms();
        let encoded: Vec<Vec<u8>> = chunks
            .iter()
            .map(|chunk| {
                encode(&SampleBatch {
                    deadline_ms,
                    ctx: current_trace_context(),
                    requests: chunk.to_vec(),
                })
            })
            .collect();
        let payloads: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let replies = self.exchange(FrameKind::SampleBatch, &payloads)?;
        let mut out = Vec::with_capacity(chunks.iter().map(|c| c.len()).sum());
        for (chunk, (kind, payload)) in chunks.iter().zip(replies) {
            let responses: Vec<SampleResponse> =
                typed_reply(FrameKind::SampleBatch, (kind, payload))?
                    .map_err(|_| refused(FrameKind::SampleBatch))?;
            if responses.len() != chunk.len() {
                return Err(FrameError::UnexpectedReply {
                    request: FrameKind::SampleBatch,
                    got: kind,
                    why: "not one response per request",
                });
            }
            out.extend(responses);
        }
        Ok(out)
    }

    /// Sample a batch whose per-request seeds were already drawn. This is
    /// the building block fleet routing needs: the fleet client draws one
    /// seed per request in frontier order (the determinism contract), then
    /// partitions the *seeded* requests by owning server — each server sees
    /// only its slice, with the seeds the single-server run would have used.
    ///
    /// `Err` means transport to this server is gone past the retry budget
    /// (the caller decides whether to degrade or try a replica); `Ok`
    /// responses are positionally parallel to `seeded`.
    pub fn sample_with_seeds(
        &self,
        seeded: &[(SampleRequest, u64)],
    ) -> Result<Vec<SampleResponse>, Error> {
        if seeded.is_empty() {
            return Ok(Vec::new());
        }
        self.m.requests.add(seeded.len() as u64);
        let chunks: Vec<&[(SampleRequest, u64)]> = seeded.chunks(MAX_BATCH).collect();
        self.pipelined_sample(&chunks).map_err(fleet_err)
    }

    /// Pull every recent span on this server belonging to `trace_id` —
    /// the per-member read the fleet admin plane stitches cross-process
    /// trace trees from.
    pub fn export_spans(&self, trace_id: u64) -> Result<Vec<SpanRecord>, Error> {
        self.ask(FrameKind::SpanExport, trace_id).map_err(fleet_err)
    }

    /// Pull the server's registry snapshot: metric values with complete
    /// histogram buckets (so fleet-wide merging is exact) plus the slow-op
    /// log. The span ring is not part of it — `spans` comes back empty;
    /// [`Self::export_spans`] pulls spans, per trace.
    pub fn export_obs(&self) -> Result<ObsSnapshot, Error> {
        self.ask(FrameKind::ObsExport, ()).map_err(fleet_err)
    }

    fn migrate_ctl(
        &self,
        action: MigrateAction,
        partition: u32,
        num_partitions: u32,
    ) -> Result<u64, Error> {
        let ctl = MigrateCtl {
            action,
            partition,
            num_partitions,
        };
        self.call(FrameKind::MigrateCtl, ctl)
            .map_err(fleet_err)?
            .map_err(|refusal| Error::invalid_config(refusal.message))
    }

    /// The update-batch exchange. The first-hand and replica channels differ
    /// only in the request frame kind (the receiver of a
    /// [`FrameKind::ReplicaBatch`] must not re-forward).
    fn exchange_update(&self, kind: FrameKind, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        let batch = UpdateBatch {
            deadline_ms: self.deadline_ms(),
            // A fleet owner relaying to replicas runs inside its own
            // server-side root span; the ambient context carries the
            // client's trace across the second hop.
            ctx: current_trace_context(),
            ops: ops.to_vec(),
        };
        self.call(kind, batch)
            .map_err(fleet_err)?
            .map_err(Error::from)
    }

    /// The txn exchange, first-hand or on the replica channel. Encoded
    /// once; every retry re-sends the identical frame — same txn id — so
    /// the receiver's idempotence ledger answers a replayed commit from the
    /// cached receipt instead of applying twice.
    fn exchange_txn(&self, kind: FrameKind, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        let apply = TxnApply {
            txn_id: txn.id(),
            ctx: current_trace_context(),
            ops: txn.ops().to_vec(),
        };
        match self.ask(kind, apply) {
            Ok(TxnReply::Committed(receipt)) => Ok(receipt),
            Ok(TxnReply::Rejected { txn_id, violations }) => {
                Err(TxnError::Rejected { txn_id, violations })
            }
            Ok(TxnReply::StoreError(err)) => Err(TxnError::Store(err.into())),
            Err(e) => Err(TxnError::Store(fleet_err(e))),
        }
    }
}

impl Drop for RemoteCluster {
    fn drop(&mut self) {
        // Mux reader threads are joined here; pooled streams just drop.
        for channel in lock(&self.mux).drain(..) {
            channel.shutdown();
        }
    }
}

/// What the reply to a `kind` request holds: the kind [`FrameKind::reply`]
/// pairs with it, decoded as `R`, or an `ErrorReply` — handed back as the
/// inner `Err` for the caller to map onto its own error. Anything else is
/// a protocol failure.
fn typed_reply<R: Payload>(
    kind: FrameKind,
    (got, reply): Reply,
) -> Result<Result<R, ErrorReply>, FrameError> {
    if got == kind.reply() {
        Ok(Ok(decode(&reply)?))
    } else if got == FrameKind::ErrorReply {
        Ok(Err(decode(&reply)?))
    } else {
        Err(FrameError::UnexpectedReply {
            request: kind,
            got,
            why: "not the request's reply kind",
        })
    }
}

/// An `ErrorReply` to a request the server has no reason to refuse.
fn refused(kind: FrameKind) -> FrameError {
    FrameError::UnexpectedReply {
        request: kind,
        got: FrameKind::ErrorReply,
        why: "refused",
    }
}

/// Transport/protocol failure → the service-level error callers see.
fn fleet_err(e: FrameError) -> Error {
    Error::Io(io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))
}

impl GraphService for RemoteCluster {
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        self.sample_many(std::slice::from_ref(req), rng)
            .pop()
            .expect("one response per request")
    }

    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        // Seeds are drawn up front, in request order, exactly one per
        // request — the determinism contract — and *before* any I/O, so a
        // retry re-sends the same seeds instead of redrawing.
        let seeded: Vec<(SampleRequest, u64)> = reqs.iter().map(|r| (*r, rng.next_u64())).collect();
        match self.sample_with_seeds(&seeded) {
            Ok(responses) => responses,
            // The server is unreachable (or answered garbage) past the
            // retry budget: degrade every request per its own policy, the
            // same contract the in-process router honors for dead shards,
            // with the shard predicted by the shared routing hash. The
            // trainer sees degraded batches, never a client error.
            Err(_) => {
                self.m.degraded_fallbacks.add(reqs.len() as u64);
                let shards = self.num_shards.max(1);
                reqs.iter()
                    .map(|r| SampleResponse::degraded(r, route_for(r.vertex, shards)))
                    .collect()
            }
        }
    }

    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        self.exchange_update(FrameKind::UpdateBatch, ops)
    }

    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        self.exchange_txn(FrameKind::TxnApply, txn)
    }

    fn graph_version(&self) -> u64 {
        // A failed probe falls back to the last observed version: the
        // neighbor cache keeps serving bounded-stale entries through a
        // server blip instead of thrashing.
        match self.probe() {
            Ok(reply) => reply.graph_version,
            Err(_) => self.last_version.load(Ordering::Acquire),
        }
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_healths(&self) -> Vec<ShardHealth> {
        match self.probe() {
            Ok(reply) => reply.healths,
            Err(_) => lock(&self.last_healths).clone(),
        }
    }

    fn heal(&self, shard: usize) -> usize {
        let drained: Result<u64, _> = self.ask(FrameKind::HealRequest, shard as u32);
        drained.unwrap_or(0) as usize
    }

    fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    // The fleet plane forwards over the wire, so a RemoteCluster is a
    // fully transparent proxy for a fleet-aware server.

    fn apply_replica_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        self.exchange_update(FrameKind::ReplicaBatch, ops)
    }

    fn apply_replica_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        self.exchange_txn(FrameKind::ReplicaTxn, txn)
    }

    fn fleet_map_bytes(&self) -> Option<(u64, Vec<u8>)> {
        let reply: MapReply = self.ask(FrameKind::MapFetch, ()).ok()?;
        reply.bytes.map(|bytes| (reply.epoch, bytes))
    }

    fn install_fleet_map(&self, epoch: u64, bytes: &[u8]) -> Result<u64, Error> {
        let install = MapInstall {
            epoch,
            bytes: bytes.to_vec(),
        };
        self.call(FrameKind::MapInstall, install)
            .map_err(fleet_err)?
            .map_err(|refusal| Error::invalid_config(refusal.message))
    }

    fn begin_migration(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        self.migrate_ctl(MigrateAction::Begin, partition, num_partitions)
    }

    fn migration_tail(&self, partition: u32, from: u64) -> Result<(Vec<UpdateOp>, u64), Error> {
        let tail: TailReply = self
            .call(FrameKind::TailFetch, TailFetch { partition, from })
            .map_err(fleet_err)?
            .map_err(|refusal| Error::Corrupt {
                what: refusal.message,
            })?;
        Ok((tail.ops, tail.next))
    }

    fn end_migration(&self, partition: u32) -> Result<u64, Error> {
        self.migrate_ctl(MigrateAction::End, partition, 0)
    }

    fn drop_partition(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        self.migrate_ctl(MigrateAction::Drop, partition, num_partitions)
    }

    fn partition_key_counts(&self, num_partitions: u32) -> Vec<u64> {
        self.ask(FrameKind::PartitionStats, num_partitions)
            .unwrap_or_else(|_| vec![0; num_partitions.max(1) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphServiceServer;
    use platod2gl_server::{Cluster, ClusterConfig};

    fn counter_value(registry: &Arc<Registry>, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    fn tiny_server() -> GraphServiceServer {
        let cluster = Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        ));
        GraphServiceServer::bind("127.0.0.1:0", cluster).expect("bind")
    }

    /// A dead pooled stream (the classic server-restart residue) must be
    /// evicted and redialed without spending the retry budget: the probe
    /// succeeds with zero retries and one recorded eviction.
    #[test]
    fn dead_pooled_connection_is_evicted_without_burning_retries() {
        let server = tiny_server();
        let client =
            RemoteCluster::connect(server.local_addr(), ClientConfig::default()).expect("connect");

        // Manufacture a dead stream: connect to a throwaway listener, then
        // drop the accepted side. The client's pool now holds a connection
        // whose peer is gone — exactly what a server restart leaves.
        let graveyard = std::net::TcpListener::bind("127.0.0.1:0").expect("bind graveyard");
        let dead = TcpStream::connect(graveyard.local_addr().expect("addr")).expect("dial");
        drop(graveyard.accept().expect("accept").0);
        drop(graveyard);
        dead.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        client.inject_pooled(dead, Instant::now());

        let retries_before = counter_value(client.registry(), "rpc.client.retries");
        let health = client.probe().expect("probe rides out the dead stream");
        assert_eq!(health.healths.len(), 2);
        assert_eq!(
            counter_value(client.registry(), "rpc.client.retries"),
            retries_before,
            "eviction must not count as a retry"
        );
        assert_eq!(
            counter_value(client.registry(), "rpc.client.pool_evictions"),
            1
        );
        server.shutdown();
    }

    /// A pooled stream parked past `IDLE_TIMEOUT` is reaped at checkout —
    /// counted in `rpc.client.pool_evictions` — instead of being handed to
    /// a request. The stream here is alive but points at a black-hole
    /// listener that will never answer: only the reap saves the probe from
    /// stalling on it.
    #[test]
    fn idle_pooled_connection_is_reaped_at_checkout() {
        let server = tiny_server();
        let client =
            RemoteCluster::connect(server.local_addr(), ClientConfig::default()).expect("connect");
        // Drop the connect-probe's pooled stream so the count below is
        // exactly the injected stream's reap.
        lock(&client.pool).clear();

        // A live-but-stale stream: the black-hole listener accepts and
        // holds the connection open without ever serving the protocol.
        let black_hole = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let stale = TcpStream::connect(black_hole.local_addr().expect("addr")).expect("dial");
        let _held = black_hole.accept().expect("accept").0;
        let long_ago = Instant::now()
            .checked_sub(IDLE_TIMEOUT)
            .expect("host up longer than the idle timeout");
        client.inject_pooled(stale, long_ago);

        let evictions_before = counter_value(client.registry(), "rpc.client.pool_evictions");
        client.probe().expect("probe rides on a fresh dial");
        assert_eq!(
            counter_value(client.registry(), "rpc.client.pool_evictions"),
            evictions_before + 1,
            "the stale stream must be reaped, not used"
        );
        server.shutdown();
    }

    /// A zero `request_timeout` would stall every call after a successful
    /// connect.
    #[test]
    fn connect_rejects_zero_sized_config() {
        let server = tiny_server();
        assert!(matches!(
            RemoteCluster::connect(
                server.local_addr(),
                ClientConfig::default().request_timeout(Duration::ZERO)
            ),
            Err(Error::InvalidConfig { .. })
        ));
        server.shutdown();
    }

    /// The multiplexed mode serves the full GraphService surface over a
    /// couple of shared sockets.
    #[test]
    fn multiplexed_mode_round_trips() {
        let server = tiny_server();
        let cfg = ClientConfig::default().mode(ConnectionMode::Multiplexed);
        let client = RemoteCluster::connect(server.local_addr(), cfg).expect("connect");
        assert_eq!(client.num_shards(), 2);
        let health = client.probe().expect("probe over mux");
        assert_eq!(health.healths.len(), 2);
        server.shutdown();
    }
}
