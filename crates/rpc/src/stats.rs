//! Live connection-table bookkeeping for `/debug/rpc`.
//!
//! The server maintains one [`RpcServerStats`]: connections
//! register on accept and deregister on close, per-connection counters
//! are plain atomics touched on the hot path without locks. The admin
//! plane reads a point-in-time snapshot through the
//! [`RpcIntrospect`](platod2gl_admin::RpcIntrospect) trait, which
//! [`ServerIntrospect`] implements — wire a server into an
//! `AdminServer::bind_with_rpc` and `GET /debug/rpc` serves the table.

use crate::lock;
use platod2gl_admin::{RpcConnView, RpcIntrospect, RpcSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-connection live counters (lock-free on the request path).
pub(crate) struct ConnInfo {
    pub peer: String,
    pub opened: Instant,
    pub frames: AtomicU64,
    pub in_flight: AtomicU64,
}

impl ConnInfo {
    pub fn new(peer: String) -> Arc<Self> {
        Arc::new(Self {
            peer,
            opened: Instant::now(),
            frames: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        })
    }

    /// Record one served frame.
    pub fn served(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }
}

/// One server's aggregate serving state plus its connection table.
pub(crate) struct RpcServerStats {
    backend: Mutex<&'static str>,
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    conns: Mutex<HashMap<u64, Arc<ConnInfo>>>,
    next_conn_id: AtomicU64,
}

impl RpcServerStats {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            backend: Mutex::new("unbound"),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        })
    }

    pub fn set_backend(&self, name: &'static str) {
        *lock(&self.backend) = name;
    }

    /// Register a fresh connection; returns its table key.
    pub fn open(&self, info: Arc<ConnInfo>) -> u64 {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        lock(&self.conns).insert(id, info);
        id
    }

    pub fn close(&self, id: u64) {
        lock(&self.conns).remove(&id);
    }

    pub fn open_connections(&self) -> u64 {
        lock(&self.conns).len() as u64
    }
}

/// A cheap cloneable handle onto a server's live connection table;
/// implements the admin plane's [`RpcIntrospect`] so `GET /debug/rpc`
/// can serve it.
#[derive(Clone)]
pub struct ServerIntrospect(pub(crate) Arc<RpcServerStats>);

impl RpcIntrospect for ServerIntrospect {
    fn rpc_snapshot(&self) -> RpcSnapshot {
        let conns: Vec<RpcConnView> = lock(&self.0.conns)
            .values()
            .map(|c| RpcConnView {
                peer: c.peer.clone(),
                frames: c.frames.load(Ordering::Relaxed),
                in_flight: c.in_flight.load(Ordering::Relaxed),
                age_ms: c.opened.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            })
            .collect();
        RpcSnapshot {
            backend: lock(&self.0.backend).to_string(),
            accepted: self.0.accepted.load(Ordering::Relaxed),
            rejected: self.0.rejected.load(Ordering::Relaxed),
            open: self.0.open_connections(),
            conns,
        }
    }
}
