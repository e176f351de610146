//! The readiness-driven event loop behind [`GraphServiceServer`].
//!
//! One loop thread owns every connection. A [`Poller`] (epoll on Linux,
//! scanning fallback elsewhere — see [`crate::poll`]) reports readiness;
//! connections are non-blocking with per-connection read and write
//! buffers, so no thread ever parks on a socket. Frames are decoded
//! zero-copy: [`parse_frame`] borrows the payload straight out of the
//! connection's read buffer, and the request is dispatched inline on that
//! borrowed slice — no payload copy between socket and handler.
//!
//! One rule decides where a frame runs. Write-path frames
//! (`TxnApply`/`UpdateBatch` and their replica twins) never run on the
//! loop thread: a fleet node's handler for them issues nested RPCs (relay
//! to owners, replicate to followers), and a handler that blocks on a peer
//! whose own loop is blocked on us is a distributed deadlock. They are
//! offloaded to short-lived threads — unbounded, but scoped to the write
//! path where request rates are batch-sized — and their replies come back
//! through a completion queue plus a [`Waker`] poke, written in whatever
//! order handlers finish: clients correlate replies by `req_id`.
//! Everything else runs inline. Both paths serve the frame through the
//! same [`run_frame`].
//!
//! Event-loop health is published on the service's registry, the loop's
//! only ledger: the gauges `rpc.server.ready_queue_depth` (events per poll
//! batch), `rpc.server.in_flight_requests` (dispatched, reply not yet
//! queued), `rpc.server.accept_backlog` (accepts drained in the latest
//! burst — how far behind the listener the loop is running) and
//! `rpc.server.open_connections`, and the counters
//! `rpc.server.connections` (accepted) and
//! `rpc.server.rejected_connections` (dropped at the connection ceiling or
//! on socket setup failure).
//!
//! [`GraphServiceServer`]: crate::GraphServiceServer

use crate::codec::{
    append_timing_echo, encode, encode_frame, frame_len, parse_frame, ErrorReply, FrameError,
    FrameHeader, FrameKind,
};
use crate::dispatch::{dispatch, ServerMetrics};
use crate::lock;
use crate::poll::{PollEvent, Poller, Waker};
use platod2gl_obs::{Counter, Gauge, Histogram};
use platod2gl_server::GraphService;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the listening socket. (The poller reserves `u64::MAX`
/// for its internal waker; connection tokens pack a 32-bit slab index and
/// a 32-bit generation, so neither sentinel can collide.)
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Idle wait ceiling; wakes (shutdown, offloaded completions) cut it short.
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);
/// Read granularity: bytes appended to a connection's read buffer per
/// `read` call while draining a readable socket.
const READ_CHUNK: usize = 64 * 1024;
/// Bytes one readable event may pull off a socket before the loop serves
/// what is buffered and moves on. The poller is level-triggered, so a
/// socket with more to give reports readable again; the bound keeps a
/// peer that writes faster than the loop reads from monopolising the loop
/// thread and from growing its read buffer past the frame-length check.
const READ_BUDGET: usize = 4 * READ_CHUNK;

fn make_token(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// Spawn the loop thread; returns its handle and a waker that interrupts
/// the poller (used by shutdown). Accepts beyond `max_connections` open
/// connections are dropped (and counted) instead of exhausting fds.
pub(crate) fn spawn<S>(
    listener: TcpListener,
    service: Arc<S>,
    stop: Arc<AtomicBool>,
    max_connections: usize,
) -> io::Result<(JoinHandle<()>, Waker)>
where
    S: GraphService + Send + Sync + 'static,
{
    let poller = Poller::new()?;
    let waker = poller.waker();
    let loop_waker = waker.clone();
    let handle = std::thread::Builder::new()
        .name("platod2gl-rpc-loop".to_string())
        .spawn(move || run(listener, service, stop, max_connections, poller, loop_waker))?;
    Ok((handle, waker))
}

/// One non-blocking connection owned by the loop.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Frames handed to offload threads whose completions have not come
    /// back yet. Only the loop thread touches it.
    in_flight: u32,
    /// Accumulated unread bytes; frames are parsed zero-copy out of the
    /// front and drained once handled.
    rbuf: Vec<u8>,
    /// Bytes the socket would not take yet; `wpos` marks how far the
    /// front has already been written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Whether the poller currently watches this socket for writability.
    want_write: bool,
    /// Stop reading, flush what is queued, then close (fatal frame error).
    closing: bool,
    /// Close now; the peer is gone or the stream is broken.
    dead: bool,
    /// When the write buffer first pushed back (None while draining
    /// freely); resolved into `rpc.server.write_stall_ns` once it empties.
    stalled_since: Option<Instant>,
    /// The write-stall histogram, pre-resolved per connection.
    write_stall: Arc<Histogram>,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// A frame leaving the loop thread: the header plus an owned copy of the
/// payload.
struct WorkItem {
    token: u64,
    header: FrameHeader,
    payload: Vec<u8>,
    started: Instant,
}

/// A finished dispatch: the fully encoded reply frame, ready to queue.
struct Completion {
    bytes: Vec<u8>,
    /// The payload failed record-level decoding — send the (error) reply,
    /// then close.
    close_after: bool,
}

/// The loop's completion inbox: offload threads leave finished dispatches
/// here under their connection token, a waker poke gets the loop to drain
/// them.
struct Completions {
    done: Mutex<Vec<(u64, Completion)>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, token: u64, completion: Completion) {
        lock(&self.done).push((token, completion));
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(u64, Completion)> {
        std::mem::take(&mut *lock(&self.done))
    }
}

/// Saturate a duration into the u32 microseconds the timing echo carries.
fn echo_us(d: Duration) -> u32 {
    d.as_micros().min(u128::from(u32::MAX)) as u32
}

/// Serve one parsed frame to its finished completion — the one body both
/// the inline path and the offload threads run. Everything between frame
/// receipt (`started`) and this call — nothing inline, the thread spawn
/// when offloaded — is queue wait; the reply goes out under the request's
/// correlation id with both durations in its timing echo.
fn run_frame<S: GraphService + ?Sized>(
    service: &S,
    metrics: &ServerMetrics,
    header: FrameHeader,
    payload: &[u8],
    started: Instant,
) -> Completion {
    let queued = started.elapsed();
    let svc_started = Instant::now();
    match dispatch(service, metrics, header.kind, payload, started) {
        Ok((kind, mut reply)) => {
            let service_time = svc_started.elapsed();
            metrics.queue_wait.record(queued);
            metrics.service_time.record(service_time);
            append_timing_echo(&mut reply, echo_us(queued), echo_us(service_time));
            Completion {
                bytes: encode_frame(kind, header.req_id, &reply),
                close_after: false,
            }
        }
        Err(e) => {
            metrics.errors.inc();
            Completion {
                bytes: error_frame(&e),
                close_after: true,
            }
        }
    }
}

/// Frame kinds whose handlers may issue nested RPCs (fleet relay and
/// replication) and therefore must never occupy the loop thread — see the
/// module docs on distributed deadlock.
fn must_offload(kind: FrameKind) -> bool {
    matches!(
        kind,
        FrameKind::TxnApply
            | FrameKind::ReplicaTxn
            | FrameKind::UpdateBatch
            | FrameKind::ReplicaBatch
    )
}

/// Run a re-entrant dispatch on its own short-lived thread. If the spawn
/// itself fails (fd/thread exhaustion) the item runs inline — possibly
/// stalling the loop, but never losing the request.
fn spawn_offload<S>(
    service: &Arc<S>,
    metrics: &Arc<ServerMetrics>,
    completions: &Arc<Completions>,
    item: WorkItem,
) where
    S: GraphService + Send + Sync + 'static,
{
    // The item sits in a shared slot so a failed spawn can take it back
    // and still produce a completion.
    let slot = Arc::new(Mutex::new(Some(item)));
    let thread_slot = Arc::clone(&slot);
    let thread_service = Arc::clone(service);
    let thread_metrics = Arc::clone(metrics);
    let thread_completions = Arc::clone(completions);
    let spawned = std::thread::Builder::new()
        .name("platod2gl-rpc-offload".to_string())
        .spawn(move || {
            if let Some(item) = lock(&thread_slot).take() {
                run_offloaded(
                    &*thread_service,
                    &thread_metrics,
                    &thread_completions,
                    &item,
                );
            }
        });
    if spawned.is_err() {
        if let Some(item) = lock(&slot).take() {
            run_offloaded(&**service, metrics, completions, &item);
        }
    }
}

fn run_offloaded<S: GraphService + ?Sized>(
    service: &S,
    metrics: &ServerMetrics,
    completions: &Completions,
    item: &WorkItem,
) {
    let done = run_frame(service, metrics, item.header, &item.payload, item.started);
    completions.push(item.token, done);
}

/// A best-effort `BAD_REQUEST` error reply (correlation id 0: the frame
/// it answers could not be trusted to name one).
fn error_frame(e: &FrameError) -> Vec<u8> {
    let mut payload = encode(&ErrorReply::bad_request(e.to_string()));
    // Every reply carries the echo trailer (zeros here — no meaningful
    // breakdown).
    append_timing_echo(&mut payload, 0, 0);
    encode_frame(FrameKind::ErrorReply, 0, &payload)
}

#[allow(clippy::too_many_lines)]
fn run<S>(
    listener: TcpListener,
    service: Arc<S>,
    stop: Arc<AtomicBool>,
    max_connections: usize,
    mut poller: Poller,
    waker: Waker,
) where
    S: GraphService + Send + Sync + 'static,
{
    let metrics = Arc::new(ServerMetrics::new(Arc::clone(service.registry())));
    let registry = Arc::clone(&metrics.registry);
    let connections = registry.counter("rpc.server.connections");
    let rejected = registry.counter("rpc.server.rejected_connections");
    let g_ready = registry.gauge("rpc.server.ready_queue_depth");
    let g_in_flight = registry.gauge("rpc.server.in_flight_requests");
    let g_backlog = registry.gauge("rpc.server.accept_backlog");
    let g_open = registry.gauge("rpc.server.open_connections");

    if poller.register(&listener, LISTENER_TOKEN, false).is_err() {
        return;
    }
    let completions = Arc::new(Completions {
        done: Mutex::new(Vec::new()),
        waker,
    });

    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut gens: Vec<u32> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut open = 0usize;
    let mut in_flight = 0i64;
    let mut events: Vec<PollEvent> = Vec::new();

    while !stop.load(Ordering::Acquire) {
        let wait_started = Instant::now();
        let _ = poller.wait(&mut events, WAIT_TIMEOUT);
        metrics.poll_wait.record(wait_started.elapsed());
        g_ready.set(events.len() as i64);

        // Completions first (write-path offload threads): they free
        // in-flight slots and may queue writes that this batch's writable
        // events then flush.
        for (token, done) in completions.drain() {
            let (idx, gen) = split_token(token);
            let touched = match slots.get_mut(idx).and_then(Option::as_mut) {
                Some(conn) if conn.gen == gen => {
                    in_flight -= 1;
                    conn.in_flight -= 1;
                    apply_completion(conn, done);
                    true
                }
                _ => false, // connection already closed; drop the reply
            };
            if touched {
                settle(
                    &mut poller,
                    &g_open,
                    idx,
                    &mut slots,
                    &mut free,
                    &mut open,
                    &mut in_flight,
                );
            }
        }
        g_in_flight.set(in_flight);

        for &ev in &events {
            if ev.token == LISTENER_TOKEN {
                let burst = accept_burst(
                    &listener,
                    &mut poller,
                    &connections,
                    &rejected,
                    &metrics.write_stall,
                    max_connections,
                    &mut slots,
                    &mut gens,
                    &mut free,
                    &mut open,
                );
                g_backlog.set(burst);
                g_open.set(open as i64);
                continue;
            }
            let (idx, gen) = split_token(ev.token);
            let touched = match slots.get_mut(idx).and_then(Option::as_mut) {
                // Stale tokens from an already-recycled slot are spurious
                // wakes — the generation check filters them.
                Some(conn) if conn.gen == gen => {
                    if ev.readable && !conn.closing && !conn.dead {
                        handle_readable(
                            conn,
                            &service,
                            &metrics,
                            &completions,
                            ev.token,
                            &mut in_flight,
                        );
                    }
                    if ev.writable && !conn.dead {
                        flush_writes(conn);
                    }
                    true
                }
                _ => false,
            };
            if touched {
                settle(
                    &mut poller,
                    &g_open,
                    idx,
                    &mut slots,
                    &mut free,
                    &mut open,
                    &mut in_flight,
                );
            }
        }
        g_in_flight.set(in_flight);
    }

    // Connections drop (and close) with the slab.
}

/// Post-touch bookkeeping shared by every path that mutates a connection:
/// sync poller write interest, then close if the connection is finished.
fn settle(
    poller: &mut Poller,
    g_open: &Gauge,
    idx: usize,
    slots: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    open: &mut usize,
    in_flight: &mut i64,
) {
    let Some(mut conn) = slots.get_mut(idx).and_then(Option::take) else {
        return;
    };
    let token = make_token(idx, conn.gen);
    let finished = conn.dead || (conn.closing && !conn.pending_write() && conn.in_flight == 0);
    if finished {
        let _ = poller.deregister(&conn.stream, token);
        // Dispatches still in flight for this connection will be dropped
        // at completion (stale generation); settle their gauge debt now.
        *in_flight -= i64::from(conn.in_flight);
        free.push(idx);
        *open -= 1;
        g_open.set(*open as i64);
        return; // the connection drops (and closes) here
    }
    let want = conn.pending_write();
    if want != conn.want_write && poller.rearm(&conn.stream, token, want).is_ok() {
        conn.want_write = want;
    }
    slots[idx] = Some(conn);
}

/// Drain the listener until `WouldBlock`; returns how many connections
/// the burst accepted (the accept-backlog gauge).
#[allow(clippy::too_many_arguments)]
fn accept_burst(
    listener: &TcpListener,
    poller: &mut Poller,
    connections: &Counter,
    rejected: &Counter,
    write_stall: &Arc<Histogram>,
    max_connections: usize,
    slots: &mut Vec<Option<Conn>>,
    gens: &mut Vec<u32>,
    free: &mut Vec<usize>,
    open: &mut usize,
) -> i64 {
    let mut burst = 0i64;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                burst += 1;
                if *open >= max_connections || stream.set_nonblocking(true).is_err() {
                    rejected.inc();
                    continue; // stream drops, peer sees a reset
                }
                let _ = stream.set_nodelay(true);
                let idx = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    gens.push(0);
                    slots.len() - 1
                });
                gens[idx] = gens[idx].wrapping_add(1);
                let token = make_token(idx, gens[idx]);
                if poller.register(&stream, token, false).is_err() {
                    free.push(idx);
                    rejected.inc();
                    continue;
                }
                connections.inc();
                slots[idx] = Some(Conn {
                    stream,
                    gen: gens[idx],
                    in_flight: 0,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    want_write: false,
                    closing: false,
                    dead: false,
                    stalled_since: None,
                    write_stall: Arc::clone(write_stall),
                });
                *open += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    burst
}

/// Pull up to [`READ_BUDGET`] bytes off a readable socket into the
/// connection's buffer, then parse and serve every complete frame sitting
/// in it.
fn handle_readable<S>(
    conn: &mut Conn,
    service: &Arc<S>,
    metrics: &Arc<ServerMetrics>,
    completions: &Arc<Completions>,
    token: u64,
    in_flight: &mut i64,
) where
    S: GraphService + Send + Sync + 'static,
{
    // Phase 1: pull what the socket has, up to the per-event budget.
    for _ in 0..READ_BUDGET / READ_CHUNK {
        let start = conn.rbuf.len();
        conn.rbuf.resize(start + READ_CHUNK, 0);
        match conn.stream.read(&mut conn.rbuf[start..]) {
            Ok(0) => {
                conn.rbuf.truncate(start);
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.truncate(start + n);
                if n < READ_CHUNK {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.rbuf.truncate(start);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                conn.rbuf.truncate(start);
            }
            Err(_) => {
                conn.rbuf.truncate(start);
                conn.dead = true;
                break;
            }
        }
    }

    // Phase 2: serve complete frames. A half-received frame stays
    // buffered for the next readable event; EOF with a partial frame is
    // simply an abandoned connection.
    while !conn.closing {
        let flen = match frame_len(&conn.rbuf) {
            Ok(None) => break,
            Ok(Some(flen)) => {
                if conn.rbuf.len() < flen {
                    break;
                }
                flen
            }
            Err(e) => {
                fail_conn(conn, metrics, e);
                return;
            }
        };
        let started = Instant::now();
        // Computed while the payload still borrows the read buffer,
        // applied after the borrow ends: a finished inline completion, or
        // `None` for a frame handed to an offload thread.
        let step = parse_frame(&conn.rbuf[..flen]).map(|(header, payload)| {
            if must_offload(header.kind) {
                let item = WorkItem {
                    token,
                    header,
                    payload: payload.to_vec(),
                    started,
                };
                spawn_offload(service, metrics, completions, item);
                None
            } else {
                // The zero-copy path: `payload` borrows rbuf all the way
                // into the handler.
                Some(run_frame(&**service, metrics, header, payload, started))
            }
        });
        conn.rbuf.drain(..flen);
        match step {
            Ok(Some(done)) => apply_completion(conn, done),
            Ok(None) => {
                conn.in_flight += 1;
                *in_flight += 1;
            }
            Err(e) => {
                fail_conn(conn, metrics, e);
                return;
            }
        }
        if conn.dead {
            return;
        }
    }
}

/// Queue a fatal framing-error reply and mark the connection closing.
fn fail_conn(conn: &mut Conn, metrics: &ServerMetrics, e: FrameError) {
    metrics.errors.inc();
    let bytes = error_frame(&e);
    queue_write(conn, &bytes);
    conn.closing = true;
}

/// A dispatch finished: its reply goes straight out, in whatever order
/// handlers complete — the client re-stitches by id.
fn apply_completion(conn: &mut Conn, done: Completion) {
    queue_write(conn, &done.bytes);
    if done.close_after {
        conn.closing = true;
    }
}

/// Append reply bytes and push as much of the buffer as the socket takes.
fn queue_write(conn: &mut Conn, bytes: &[u8]) {
    conn.wbuf.extend_from_slice(bytes);
    flush_writes(conn);
}

/// Write buffered bytes until the socket pushes back.
fn flush_writes(conn: &mut Conn) {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        // Drained: resolve any stall window that was open.
        if let Some(since) = conn.stalled_since.take() {
            conn.write_stall.record(since.elapsed());
        }
        conn.wbuf.clear();
        conn.wpos = 0;
    } else {
        // The socket pushed back with bytes still queued: a stall window
        // opens (or continues).
        if conn.stalled_since.is_none() {
            conn.stalled_since = Some(Instant::now());
        }
        if conn.wpos > READ_CHUNK {
            // Keep the pending tail from pinning an ever-growing buffer.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
    }
}
