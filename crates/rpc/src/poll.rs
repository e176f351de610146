//! Readiness polling for the event-loop server.
//!
//! [`Poller`] is a minimal readiness-notification abstraction over two
//! backends:
//!
//! * **epoll** (Linux): level-triggered `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait` via direct FFI — the workspace builds with no external
//!   crates, and the symbols live in the C runtime every Rust binary
//!   already links. A `UnixStream` pair doubles as the cross-thread
//!   [`Waker`]: offload threads write one byte, the loop drains it.
//! * **scan** (portable fallback): no OS readiness at all. `wait` sleeps
//!   a short tick and reports *every* registered token as ready; the
//!   event loop's non-blocking reads/writes then no-op on `WouldBlock`.
//!   Correct everywhere `TcpStream::set_nonblocking` works, at O(n) scan
//!   cost per tick — the documented price of the fallback.
//!
//! Tokens are caller-chosen `u64`s (the event loop uses slab indices).
//! Registration is level-triggered: a readable event repeats until the
//! socket is drained, a writable event until the interest is dropped via
//! [`Poller::rearm`] — which is what makes the loop's "drain until
//! `WouldBlock`" discipline sound on both backends.

use std::io;
#[cfg(target_os = "linux")]
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness event: the registered token plus edge directions.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or closed/errored — a read will tell).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
}

/// Wakes a [`Poller::wait`] call from another thread.
#[derive(Clone)]
pub struct Waker {
    #[cfg(unix)]
    tx: Option<std::sync::Arc<std::os::unix::net::UnixStream>>,
    #[cfg(not(unix))]
    tx: Option<()>,
}

impl Waker {
    fn noop() -> Self {
        Self { tx: None }
    }

    /// Interrupt the poller's wait. Best-effort: a full wake pipe means a
    /// wake is already pending, which is all a waker promises.
    pub fn wake(&self) {
        #[cfg(unix)]
        if let Some(tx) = &self.tx {
            use std::io::Write;
            let _ = (&**tx).write(&[1u8]);
        }
    }
}

/// A readiness poller over one of the two backends.
pub enum Poller {
    /// Linux epoll.
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    /// Portable scanning fallback. On Linux only this module's test
    /// builds it.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    Scan(ScanPoller),
}

impl Poller {
    /// Build the platform's poller: epoll on Linux, scan elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        return Ok(Poller::Epoll(EpollPoller::new()?));
        #[cfg(not(target_os = "linux"))]
        return Ok(Poller::Scan(ScanPoller::default()));
    }

    /// A handle other threads can use to interrupt [`Poller::wait`]. On
    /// the scan backend this is a no-op — the short tick bounds latency.
    pub fn waker(&self) -> Waker {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.waker(),
            Poller::Scan(_) => Waker::noop(),
        }
    }

    /// Register `source` under `token`, readable always, writable iff
    /// `writable`.
    pub fn register(
        &mut self,
        source: &impl PollSource,
        token: u64,
        writable: bool,
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_ADD, source.raw_fd(), token, writable),
            Poller::Scan(p) => {
                p.tokens.push(token);
                Ok(())
            }
        }
    }

    /// Change the write interest of an already-registered source.
    pub fn rearm(
        &mut self,
        source: &impl PollSource,
        token: u64,
        writable: bool,
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_MOD, source.raw_fd(), token, writable),
            Poller::Scan(_) => Ok(()),
        }
    }

    /// Remove a source. The token may still surface from a concurrent
    /// `wait` batch; callers treat stale tokens as spurious wakes.
    pub fn deregister(&mut self, source: &impl PollSource, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_DEL, source.raw_fd(), token, false),
            Poller::Scan(p) => {
                p.tokens.retain(|&t| t != token);
                Ok(())
            }
        }
    }

    /// Block until readiness, a wake, or `timeout`; fills `events`
    /// (cleared first). Returning with no events is a valid outcome
    /// (timeout or wake).
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout),
            Poller::Scan(p) => {
                // No readiness source: tick, then report everything ready
                // and let non-blocking I/O sort out reality.
                std::thread::sleep(timeout.min(ScanPoller::TICK));
                events.extend(p.tokens.iter().map(|&token| PollEvent {
                    token,
                    readable: true,
                    writable: true,
                }));
                Ok(())
            }
        }
    }
}

/// Anything with a pollable OS handle. On non-unix hosts the trait is
/// vacuous (the scan backend never looks at the handle).
pub trait PollSource {
    /// The raw fd to register.
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> RawFd;
}

#[cfg(target_os = "linux")]
impl<T: std::os::fd::AsRawFd> PollSource for T {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

#[cfg(not(target_os = "linux"))]
impl<T> PollSource for T {}

/// The portable fallback: a plain token list (see module docs).
#[derive(Default)]
pub struct ScanPoller {
    tokens: Vec<u64>,
}

impl ScanPoller {
    /// Scan tick: latency ceiling and CPU floor of the fallback.
    const TICK: Duration = Duration::from_millis(2);
}

#[cfg(target_os = "linux")]
mod sys {
    //! Hand-rolled epoll FFI. The workspace vendors no `libc` crate, but
    //! these symbols come from the C runtime std already links against.
    use std::os::fd::RawFd;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors the kernel's `struct epoll_event`, which is packed on
    /// x86-64 only (12 bytes there, 16 elsewhere).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// The Linux epoll backend.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: i32,
    /// Wake pipe: `wake_tx` is cloned into [`Waker`]s, `wake_rx` is
    /// registered under [`EpollPoller::WAKER_TOKEN`] and drained in wait.
    wake_rx: std::os::unix::net::UnixStream,
    wake_tx: std::sync::Arc<std::os::unix::net::UnixStream>,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Reserved token of the internal wake pipe — never surfaced.
    const WAKER_TOKEN: u64 = u64::MAX;

    fn new() -> io::Result<Self> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let (wake_tx, wake_rx) = match std::os::unix::net::UnixStream::pair() {
            Ok(pair) => pair,
            Err(e) => {
                unsafe { sys::close(epfd) };
                return Err(e);
            }
        };
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let mut poller = Self {
            epfd,
            wake_rx,
            wake_tx: std::sync::Arc::new(wake_tx),
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        };
        let fd = {
            use std::os::fd::AsRawFd;
            poller.wake_rx.as_raw_fd()
        };
        poller.ctl(sys::EPOLL_CTL_ADD, fd, Self::WAKER_TOKEN, false)?;
        Ok(poller)
    }

    fn waker(&self) -> Waker {
        Waker {
            tx: Some(std::sync::Arc::clone(&self.wake_tx)),
        }
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        let mut events = sys::EPOLLIN | sys::EPOLLRDHUP;
        if writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = loop {
            let rc = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        let mut woken = false;
        for i in 0..n {
            // Copy out of the (possibly packed) kernel struct before
            // touching fields.
            let ev = self.buf[i];
            let (mask, token) = (ev.events, ev.data);
            if token == Self::WAKER_TOKEN {
                woken = true;
                continue;
            }
            events.push(PollEvent {
                token,
                readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP)
                    != 0,
                writable: mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        if woken {
            // Drain every pending wake byte so the next wait blocks.
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        if n == self.buf.len() && self.buf.len() < 4096 {
            // Saturated batch: grow so one wait can report more fds.
            self.buf
                .resize(self.buf.len() * 2, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// Both backends must surface readability of a socket with buffered
    /// bytes, and the epoll waker must interrupt a long wait.
    #[test]
    fn pollers_report_readable_sockets() {
        let scan = Poller::Scan(ScanPoller::default());
        for (backend, mut poller) in [("native", Poller::new().expect("poller")), ("scan", scan)] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("c");
            let (server, _) = listener.accept().expect("accept");
            server.set_nonblocking(true).expect("nonblocking");
            poller.register(&server, 7, false).expect("register");

            client.write_all(b"ping").expect("write");
            client.flush().expect("flush");

            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let seen = loop {
                poller
                    .wait(&mut events, Duration::from_millis(50))
                    .expect("wait");
                if events.iter().any(|e| e.token == 7 && e.readable) {
                    break true;
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
            };
            assert!(seen, "{backend} poller missed readability");
            poller.deregister(&server, 7).expect("deregister");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn waker_interrupts_an_idle_wait() {
        let mut poller = Poller::new().expect("poller");
        assert!(matches!(poller, Poller::Epoll(_)));
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let started = std::time::Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_secs(10))
            .expect("wait");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wake must cut the 10s timeout short"
        );
        assert!(events.is_empty());
        handle.join().expect("join");
    }
}
