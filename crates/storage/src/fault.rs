//! Crash-point fault injection for the durability plane.
//!
//! The WAL's atomicity claims ("recovery yields exactly the pre-txn or
//! post-txn graph") are only worth something if they are *swept*: killed at
//! every boundary where a real process can die and checked on reopen. A
//! [`CrashInjector`] is armed at one [`CrashPoint`] and makes the next
//! durability call through that point fail with an injected [`io::Error`],
//! simulating the process dying right there.
//!
//! Placement discipline: every crash point sits between two writes. The WAL
//! writes each logged write as one record with one `write_all` straight to
//! the file, with no buffer of its own, so when a point fires the disk holds
//! exactly what a kill there would leave. Torn *mid-record* writes — the
//! other way a real crash manifests — are covered separately by the
//! byte-level truncation/bit-flip property tests in `wal.rs`'s test suite
//! and `tests/wal_txn_props.rs`.
//!
//! Contract: a crash injected on a write poisons the store — it fail-stops
//! further writes — and the caller is expected to drop it and reopen:
//! recovery is the code under test.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One enumerable place where the durability plane can be killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before any logged write (a single op, an update batch or a
    /// transaction) writes its record: nothing of it is on disk.
    WalAppend,
    /// After a transaction's record is written, before the fsync. The
    /// record is in the OS page cache: a process kill keeps it, so recovery
    /// must replay the txn.
    TxnAfterCommit,
    /// After the transaction's fsync, before the in-memory apply. Fully
    /// durable; recovery must replay the txn.
    TxnAfterFsync,
    /// After `snapshot.tmp` is written and fsynced, before the rename.
    CheckpointAfterSnapshotWrite,
    /// After `snapshot.tmp` is renamed over `snapshot.bin`, before the
    /// directory fsync.
    CheckpointAfterRename,
    /// After the directory fsync, before the WAL is reset.
    CheckpointAfterDirSync,
    /// After the WAL is reset to empty and fsynced.
    CheckpointAfterWalReset,
}

impl CrashPoint {
    /// Every enumerable crash point, in durability-path order — the sweep
    /// domain for crash-matrix tests.
    pub const ALL: [CrashPoint; 7] = [
        CrashPoint::WalAppend,
        CrashPoint::TxnAfterCommit,
        CrashPoint::TxnAfterFsync,
        CrashPoint::CheckpointAfterSnapshotWrite,
        CrashPoint::CheckpointAfterRename,
        CrashPoint::CheckpointAfterDirSync,
        CrashPoint::CheckpointAfterWalReset,
    ];

    /// The points a transaction passes, in order: [`CrashPoint::WalAppend`]
    /// guards every logged write, transactions included.
    pub const TXN: [CrashPoint; 3] = [
        CrashPoint::WalAppend,
        CrashPoint::TxnAfterCommit,
        CrashPoint::TxnAfterFsync,
    ];

    /// Stable name for logs and sweep output.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::WalAppend => "wal-append",
            CrashPoint::TxnAfterCommit => "txn-after-commit",
            CrashPoint::TxnAfterFsync => "txn-after-fsync",
            CrashPoint::CheckpointAfterSnapshotWrite => "checkpoint-after-snapshot-write",
            CrashPoint::CheckpointAfterRename => "checkpoint-after-rename",
            CrashPoint::CheckpointAfterDirSync => "checkpoint-after-dir-sync",
            CrashPoint::CheckpointAfterWalReset => "checkpoint-after-wal-reset",
        }
    }

    /// True once the transaction's record is on disk (or in the page cache,
    /// which a process kill preserves): recovery must observe the post-txn
    /// graph.
    pub fn txn_is_committed(self) -> bool {
        matches!(self, CrashPoint::TxnAfterCommit | CrashPoint::TxnAfterFsync)
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Arms one [`CrashPoint`] at a time and fires an injected I/O error when
/// execution reaches it. One-shot: firing disarms.
///
/// The hot-path check is a single relaxed atomic load, so an unarmed
/// injector costs nothing on the durability paths it guards.
#[derive(Debug, Default)]
pub struct CrashInjector {
    /// `(point, remaining_skips)`: fire on the hit after `remaining_skips`
    /// prior hits of the same point pass through.
    armed: Mutex<Option<(CrashPoint, u32)>>,
    active: AtomicBool,
    crashes: AtomicU64,
}

impl CrashInjector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the injector to crash at the `nth` (0-based) hit of `point`.
    /// Re-arming replaces any previous plan.
    pub fn arm_nth(&self, point: CrashPoint, nth: u32) {
        *self.lock() = Some((point, nth));
        self.active.store(true, Ordering::Release);
    }

    /// Arm the injector to crash at the next hit of `point`.
    pub fn arm(&self, point: CrashPoint) {
        self.arm_nth(point, 0);
    }

    /// Clear any armed crash plan.
    pub fn disarm(&self) {
        *self.lock() = None;
        self.active.store(false, Ordering::Release);
    }

    /// Crashes fired so far.
    pub fn crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Probe a crash point. Returns the injected error when the armed plan
    /// fires; otherwise passes through.
    pub fn hit(&self, point: CrashPoint) -> io::Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut plan = self.lock();
        match *plan {
            Some((p, 0)) if p == point => {
                *plan = None;
                self.active.store(false, Ordering::Release);
                self.crashes.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "injected crash at {} (simulated process kill)",
                    point.name()
                )))
            }
            Some((p, ref mut n)) if p == point => {
                *n -= 1;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<(CrashPoint, u32)>> {
        self.armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_passes_every_point() {
        let inj = CrashInjector::new();
        for p in CrashPoint::ALL {
            assert!(inj.hit(p).is_ok());
        }
        assert_eq!(inj.crashes(), 0);
    }

    #[test]
    fn armed_point_fires_once_then_disarms() {
        let inj = CrashInjector::new();
        inj.arm(CrashPoint::TxnAfterCommit);
        assert!(inj.hit(CrashPoint::WalAppend).is_ok(), "other points pass");
        let err = inj.hit(CrashPoint::TxnAfterCommit).unwrap_err();
        assert!(err.to_string().contains("txn-after-commit"), "{err}");
        assert!(inj.hit(CrashPoint::TxnAfterCommit).is_ok(), "one-shot");
        assert_eq!(inj.crashes(), 1);
    }

    #[test]
    fn nth_hit_counts_down_before_firing() {
        let inj = CrashInjector::new();
        inj.arm_nth(CrashPoint::WalAppend, 2);
        assert!(inj.hit(CrashPoint::WalAppend).is_ok());
        assert!(inj.hit(CrashPoint::WalAppend).is_ok());
        assert!(inj.hit(CrashPoint::WalAppend).is_err(), "third hit fires");
    }

    #[test]
    fn disarm_clears_the_plan() {
        let inj = CrashInjector::new();
        inj.arm(CrashPoint::WalAppend);
        inj.disarm();
        assert!(inj.hit(CrashPoint::WalAppend).is_ok());
    }

    #[test]
    fn every_point_has_a_distinct_name() {
        let mut names: Vec<&str> = CrashPoint::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CrashPoint::ALL.len());
    }
}
