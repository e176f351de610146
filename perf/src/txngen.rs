//! Write-side generators: the bench-side ledger of live edges, the raw
//! update batches and the transactions that are valid by construction.
//!
//! The ledger is the oracle the post-run check compares the store against,
//! so it is maintained from the generated ops alone and never reads the
//! system under test.

use platod2gl::{DatasetProfile, Edge, GraphTxn, TxnOp, UpdateOp, UpdateStream, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Known-live edges kept as patch/delete candidates.
const POOL_CAP: usize = 1 << 16;
/// Pool picks tried before a patch/delete slot falls back to an insert.
const PICK_TRIES: usize = 16;

/// Multiply-shift hashing for the packed edge keys. The keys come from the
/// benchmark's own generators, so the default hasher's collision resistance
/// buys nothing here, and the ledger's upkeep is time the driver spends
/// between calls.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, k: u64) {
        let h = (self.0 ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;

/// Pack an edge key. All benchmark vertices are of type 0 with indices far
/// below 2^32, so `(src, dst)` fits one word.
fn key(src: VertexId, dst: VertexId) -> u64 {
    debug_assert!(src.raw() < 1 << 32 && dst.raw() < 1 << 32);
    (src.raw() << 32) | dst.raw()
}

fn unkey(k: u64) -> (VertexId, VertexId) {
    (VertexId(k >> 32), VertexId(k & 0xffff_ffff))
}

/// The set of edges that must be live in the store, plus a bounded pool of
/// candidates that patch/delete ops are drawn from.
pub struct EdgeLedger {
    live: KeySet,
    pool: Vec<u64>,
    /// Inserts seen; every 8th new edge is offered to the pool so the pool
    /// follows the insert stream's (Zipf) source distribution.
    offered: u64,
}

impl EdgeLedger {
    pub fn with_capacity(edges: usize) -> Self {
        Self {
            live: KeySet::with_capacity_and_hasher(edges, Default::default()),
            pool: Vec::with_capacity(POOL_CAP),
            offered: 0,
        }
    }

    /// Live edge count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    #[cfg(test)]
    pub fn contains(&self, src: VertexId, dst: VertexId) -> bool {
        self.live.contains(&key(src, dst))
    }

    pub fn insert(&mut self, src: VertexId, dst: VertexId) {
        let k = key(src, dst);
        if self.live.insert(k) {
            self.offered += 1;
            if self.offered.is_multiple_of(8) {
                if self.pool.len() < POOL_CAP {
                    self.pool.push(k);
                } else {
                    let slot = (self.offered / 8) as usize % POOL_CAP;
                    self.pool[slot] = k;
                }
            }
        }
    }

    pub fn delete(&mut self, src: VertexId, dst: VertexId) {
        self.live.remove(&key(src, dst));
    }

    /// Mirror one raw update op (upsert / set-weight / delete semantics).
    pub fn apply_update(&mut self, op: &UpdateOp) {
        match op {
            UpdateOp::Insert(e) => self.insert(e.src, e.dst),
            UpdateOp::UpdateWeight(_) => {}
            UpdateOp::Delete { src, dst, .. } => self.delete(*src, *dst),
        }
    }

    /// Mirror a committed transaction.
    pub fn apply_txn(&mut self, txn: &GraphTxn) {
        for op in txn.ops() {
            match op {
                TxnOp::InsertEdge(e) => self.insert(e.src, e.dst),
                TxnOp::DeleteEdge { src, dst, .. } => self.delete(*src, *dst),
                TxnOp::PatchWeight(_) | TxnOp::UpsertVertex { .. } => {}
                TxnOp::DeleteVertex { .. } => {
                    unreachable!("the generator never emits DeleteVertex")
                }
            }
        }
    }

    /// Pick a live edge not yet used by the transaction being built,
    /// dropping dead pool entries it meets on the way.
    fn pick_live(&mut self, rng: &mut StdRng, used: &KeySet) -> Option<u64> {
        for _ in 0..PICK_TRIES {
            if self.pool.is_empty() {
                return None;
            }
            let i = rng.random_range(0..self.pool.len());
            let k = self.pool[i];
            if !self.live.contains(&k) {
                self.pool.swap_remove(i);
            } else if !used.contains(&k) {
                return Some(k);
            }
        }
        None
    }
}

/// Deterministic source of update batches and valid transactions.
pub struct WriteGen {
    updates: UpdateStream,
    txn_shapes: UpdateStream,
    rng: StdRng,
    next_txn_id: u64,
    /// Next event time for inserted edges; `None` on a timeless graph.
    next_ts: Option<u64>,
}

impl WriteGen {
    /// `profile` sets the key space (the workloads pass one twice the
    /// graph's, so a share of ops create new sources); `first_ts` is the
    /// first event time past the graph's horizon, or `None` for timeless.
    pub fn new(profile: &DatasetProfile, seed: u64, first_ts: Option<u64>) -> Self {
        Self {
            updates: profile.update_stream(seed),
            txn_shapes: profile.update_stream(seed ^ 0x7478_6e5f_6b65_7973),
            rng: StdRng::seed_from_u64(seed ^ 0x7069_636b),
            next_txn_id: 1,
            next_ts: first_ts,
        }
    }

    fn stamp(&mut self, e: Edge) -> Edge {
        match &mut self.next_ts {
            Some(ts) => {
                *ts += 1;
                e.at(*ts)
            }
            None => e,
        }
    }

    /// The next raw batch: `UpdateStream`'s 60/30/10 insert/update/delete
    /// mix over Zipf keys; targets may miss (a no-op in the store).
    pub fn update_batch(&mut self, n: usize) -> Vec<UpdateOp> {
        (0..n)
            .map(|_| match self.updates.next_op() {
                UpdateOp::Insert(e) => UpdateOp::Insert(self.stamp(e)),
                other => other,
            })
            .collect()
    }

    /// The next transaction of `n` ops, valid against `ledger`: keys are
    /// unique within it and every patch/delete names a live edge. The op
    /// kinds follow the same 60/30/10 stream; a patch/delete slot that finds
    /// no free live edge becomes an insert.
    pub fn valid_txn(&mut self, n: usize, ledger: &mut EdgeLedger) -> GraphTxn {
        let mut txn = GraphTxn::new(self.next_txn_id);
        self.next_txn_id += 1;
        let mut used = KeySet::with_capacity_and_hasher(n, Default::default());
        while txn.len() < n {
            let shape = self.txn_shapes.next_op();
            let (edge, wants_live) = match shape {
                UpdateOp::Insert(e) => (e, None),
                UpdateOp::UpdateWeight(e) => (e, Some(false)),
                UpdateOp::Delete { src, dst, etype } => (
                    Edge {
                        src,
                        dst,
                        etype,
                        weight: 0.5,
                        ts: 0,
                    },
                    Some(true),
                ),
            };
            let target = wants_live
                .and_then(|delete| ledger.pick_live(&mut self.rng, &used).map(|k| (k, delete)));
            match target {
                Some((k, delete)) => {
                    used.insert(k);
                    let (src, dst) = unkey(k);
                    if delete {
                        txn.push(TxnOp::DeleteEdge {
                            src,
                            dst,
                            etype: edge.etype,
                        });
                    } else {
                        txn.push(TxnOp::PatchWeight(Edge { src, dst, ..edge }));
                    }
                }
                None => {
                    if used.insert(key(edge.src, edge.dst)) {
                        let edge = self.stamp(edge);
                        txn.push(TxnOp::InsertEdge(edge));
                    }
                }
            }
        }
        txn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl::{validate_and_lower, Cluster, ClusterConfig, GraphService, GraphStore};

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    fn small_profile() -> DatasetProfile {
        let mut p = DatasetProfile::tiny();
        p.relations[0].num_src = 400;
        p.relations[0].num_dst = 400;
        p
    }

    #[test]
    fn ledger_mirrors_upsert_and_delete_semantics() {
        let mut l = EdgeLedger::with_capacity(8);
        l.apply_update(&UpdateOp::Insert(Edge::new(v(1), v(2), 1.0)));
        l.apply_update(&UpdateOp::Insert(Edge::new(v(1), v(2), 2.0))); // upsert
        l.apply_update(&UpdateOp::UpdateWeight(Edge::new(v(9), v(9), 1.0))); // miss
        assert_eq!(l.len(), 1);
        assert!(l.contains(v(1), v(2)));
        l.apply_update(&UpdateOp::Delete {
            src: v(3),
            dst: v(4),
            etype: platod2gl::EdgeType(0),
        }); // miss
        assert_eq!(l.len(), 1);
        l.apply_update(&UpdateOp::Delete {
            src: v(1),
            dst: v(2),
            etype: platod2gl::EdgeType(0),
        });
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn key_round_trips() {
        assert_eq!(unkey(key(v(123_456), v(7))), (v(123_456), v(7)));
    }

    #[test]
    fn generated_txns_validate_commit_and_keep_the_ledger_exact() {
        let profile = small_profile();
        let cluster = Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        );
        let mut ledger = EdgeLedger::with_capacity(4096);
        let mut gen = WriteGen::new(&profile, 7, Some(100));
        let mut saw = [false; 3];
        for round in 0..24 {
            let batch = gen.update_batch(256);
            cluster.apply_updates(&batch).expect("healthy cluster");
            batch.iter().for_each(|op| ledger.apply_update(op));

            let txn = gen.valid_txn(256, &mut ledger);
            assert_eq!(txn.len(), 256);
            // Keys unique within the txn.
            let mut keys = HashSet::new();
            for op in txn.ops() {
                let k = match op {
                    TxnOp::InsertEdge(e) => {
                        saw[0] = true;
                        assert!(e.ts > 100, "inserts carry fresh event times");
                        key(e.src, e.dst)
                    }
                    TxnOp::PatchWeight(e) => {
                        saw[1] = true;
                        assert!(ledger.contains(e.src, e.dst));
                        key(e.src, e.dst)
                    }
                    TxnOp::DeleteEdge { src, dst, .. } => {
                        saw[2] = true;
                        assert!(ledger.contains(*src, *dst));
                        key(*src, *dst)
                    }
                    other => panic!("unexpected op {other:?}"),
                };
                assert!(keys.insert(k), "duplicate key in txn, round {round}");
            }
            // Phase 1 accepts it against live topology, and it commits.
            validate_and_lower(&txn, &cluster).expect("valid by construction");
            let receipt = cluster.apply_txn(&txn).expect("commits");
            assert!(!receipt.deduped);
            ledger.apply_txn(&txn);
            assert_eq!(cluster.num_edges(), ledger.len(), "round {round}");
        }
        assert_eq!(saw, [true; 3], "all three op kinds were generated");
    }

    #[test]
    fn same_seed_same_stream() {
        let profile = small_profile();
        let mut a = WriteGen::new(&profile, 3, None);
        let mut b = WriteGen::new(&profile, 3, None);
        assert_eq!(a.update_batch(64), b.update_batch(64));
        let (mut la, mut lb) = (EdgeLedger::with_capacity(64), EdgeLedger::with_capacity(64));
        assert_eq!(a.valid_txn(64, &mut la), b.valid_txn(64, &mut lb));
        // Timeless generators never stamp.
        assert!(a.update_batch(64).iter().all(|op| match op {
            UpdateOp::Insert(e) => e.ts == 0,
            _ => true,
        }));
    }
}
