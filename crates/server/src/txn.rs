//! The cluster's transaction plane: idempotence ledger, abort streak, and
//! the `/debug/txns` journal.
//!
//! The ledger is the server half of the RPC retry contract: a
//! [`RemoteCluster`](../platod2gl_rpc) client re-sends a `TxnApply` frame
//! with the *same* txn id after a transport failure, and the ledger answers
//! replays of an already-committed id from the cached receipt instead of
//! applying the ops twice. Bounded LRU: the window only needs to cover the
//! client's retry horizon (seconds), not history.

use platod2gl_graph::{EdgeType, TxnReceipt};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::Mutex;

/// Committed-txn receipts remembered for replay dedupe.
const LEDGER_CAPACITY: usize = 1024;
/// Entries kept in the `/debug/txns` journal ring.
const RECENT_CAPACITY: usize = 64;

/// Whether `etype` is registered under `limit`, a value of
/// `TxnPlane::etype_limit`.
pub(crate) fn etype_within(limit: u32, etype: EdgeType) -> bool {
    limit == u32::MAX || u32::from(etype.0) < limit
}

/// One `/debug/txns` journal entry.
#[derive(Clone, Debug)]
pub struct TxnLogEntry {
    pub txn_id: u64,
    /// `committed` / `rejected` / `unavailable` / `panicked` / `deduped`.
    pub outcome: &'static str,
    /// Lowered ops applied (0 unless committed).
    pub ops: u64,
    /// Violation summary or shard error, empty on commit.
    pub detail: String,
}

#[derive(Default)]
struct Ledger {
    /// Insertion order for LRU eviction.
    order: VecDeque<u64>,
    receipts: HashMap<u64, TxnReceipt>,
}

/// Per-cluster transaction state. All of it is observability/idempotence
/// bookkeeping — graph state lives in the shards.
pub(crate) struct TxnPlane {
    ledger: Mutex<Ledger>,
    recent: Mutex<VecDeque<TxnLogEntry>>,
    /// Consecutive aborts since the last commit (fed to `/healthz` as a
    /// storage-sickness signal, distinct from shard health).
    pub(crate) abort_streak: AtomicU64,
    /// Registered edge-type count for phase-1 `UnknownEtype` validation;
    /// `u32::MAX` means unrestricted (no relation schema declared).
    pub(crate) etype_limit: AtomicU32,
}

impl TxnPlane {
    pub(crate) fn new() -> Self {
        TxnPlane {
            ledger: Mutex::new(Ledger::default()),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAPACITY)),
            abort_streak: AtomicU64::new(0),
            etype_limit: AtomicU32::new(u32::MAX),
        }
    }

    /// The cached receipt for an already-committed txn id, if remembered.
    pub(crate) fn lookup(&self, txn_id: u64) -> Option<TxnReceipt> {
        self.lock_ledger().receipts.get(&txn_id).copied()
    }

    /// Remember a committed receipt, evicting the oldest past capacity.
    pub(crate) fn record_commit(&self, receipt: TxnReceipt) {
        let mut ledger = self.lock_ledger();
        if ledger.receipts.insert(receipt.txn_id, receipt).is_none() {
            ledger.order.push_back(receipt.txn_id);
            if ledger.order.len() > LEDGER_CAPACITY {
                if let Some(evicted) = ledger.order.pop_front() {
                    ledger.receipts.remove(&evicted);
                }
            }
        }
    }

    /// Append to the `/debug/txns` journal ring.
    pub(crate) fn log(&self, txn_id: u64, outcome: &'static str, ops: u64, detail: String) {
        let mut recent = self.lock_recent();
        if recent.len() == RECENT_CAPACITY {
            recent.pop_front();
        }
        recent.push_back(TxnLogEntry {
            txn_id,
            outcome,
            ops,
            detail,
        });
    }

    /// The journal, oldest first.
    pub(crate) fn recent(&self) -> Vec<TxnLogEntry> {
        self.lock_recent().iter().cloned().collect()
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_recent(&self) -> std::sync::MutexGuard<'_, VecDeque<TxnLogEntry>> {
        self.recent
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receipt(id: u64) -> TxnReceipt {
        TxnReceipt {
            txn_id: id,
            ops_applied: 1,
            graph_version: id,
            deduped: false,
        }
    }

    #[test]
    fn ledger_remembers_and_dedupes() {
        let plane = TxnPlane::new();
        assert!(plane.lookup(7).is_none());
        plane.record_commit(receipt(7));
        assert_eq!(plane.lookup(7).unwrap().graph_version, 7);
    }

    #[test]
    fn ledger_evicts_oldest_past_capacity() {
        let plane = TxnPlane::new();
        for id in 0..(LEDGER_CAPACITY as u64 + 10) {
            plane.record_commit(receipt(id));
        }
        assert!(plane.lookup(5).is_none(), "oldest evicted");
        assert!(plane.lookup(LEDGER_CAPACITY as u64 + 9).is_some());
        // Re-committing an existing id does not double-track it.
        plane.record_commit(receipt(LEDGER_CAPACITY as u64 + 9));
    }

    #[test]
    fn journal_ring_is_bounded() {
        let plane = TxnPlane::new();
        for id in 0..(RECENT_CAPACITY as u64 + 5) {
            plane.log(id, "committed", 1, String::new());
        }
        let recent = plane.recent();
        assert_eq!(recent.len(), RECENT_CAPACITY);
        assert_eq!(recent[0].txn_id, 5, "oldest entries dropped");
    }
}
