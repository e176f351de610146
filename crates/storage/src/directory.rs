//! The vertex directory (paper Sec. IV-B): every `(src, etype)` samtree of
//! a store, found through a cuckoo index and held in a dense slab.
//!
//! The directory is [`STRIPES`] stripes, each one `RwLock` over a
//! [`CuckooTable`] that maps a key to a `u32` slot in the stripe's dense
//! `Vec<SamTree>`, and over that vector. A tree has no lock or reference
//! count of its own: a read holds its stripe's read guard for all of its
//! work (two atomic operations per tree visit), and a write holds the write
//! guard for one tree group. Write concurrency is the paper's: a sorted
//! batch gives every tree one owner (Sec. VI-B, App. B).
//!
//! An index slot is 16 bytes (`src`, slab index, `etype`; a vacant slot has
//! the index `u32::MAX`), so a 4-slot bucket is 64 bytes. The slot stores
//! no hash: a displacement recomputes the occupant's from its key. The hash
//! is `CuckooMap`'s SipHash with a fixed key: deterministic, so layouts and
//! byte counts repeat across runs, and independent of shard routing (which
//! is `splitmix64(src) % shards`). Keys come from clients, so the hash must
//! not be invertible: with `splitmix64` a client could build nine keys that
//! agree in all 64 bits, and no table size separates those. A key whose
//! candidate buckets are full of its own hash is refused all the same: its
//! write is dropped and counted in `storage.directory_refused`, and the
//! index does not grow. A stripe is chosen by the hash's top bits and a
//! bucket by its low bits.
//!
//! **No nested guards.** The vendored `parking_lot` is `std::sync`, whose
//! `RwLock` makes a new reader wait behind a queued writer. A closure run
//! under a stripe guard must therefore never call back into the store: a
//! nested read of a stripe a writer is waiting on would deadlock.

use parking_lot::RwLock;
use platod2gl_cuckoo::{CuckooTable, Slot};
use platod2gl_mem::{reserve_rows, trim_rows, DeepSize};
use platod2gl_obs::{Counter, Histogram, Registry};
use platod2gl_samtree::SamTree;
use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;
use std::time::Duration;

/// Directory key: one samtree per (source vertex, relation).
///
/// The paper's Fig. 3 hashmap is keyed by vertex alone on a homogeneous
/// example; for heterogeneous graphs each relation keeps its own
/// neighborhood so that typed neighbor sampling never filters.
pub(crate) type TreeKey = (u64, u16);

/// Stripes per directory (a power of two).
const STRIPES: usize = 64;

/// Index buckets a stripe starts with.
const INITIAL_BUCKETS: usize = 4;

/// Slab index of a vacant slot.
const VACANT: u32 = u32::MAX;

/// The directory hash (see the module docs).
fn tree_hash(key: TreeKey) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
}

fn stripe_of(hash: u64) -> usize {
    (hash >> (64 - STRIPES.trailing_zeros())) as usize
}

/// One index slot: a key and the slab index of its tree.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TreeSlot {
    src: u64,
    idx: u32,
    etype: u16,
}

impl Slot for TreeSlot {
    type Key = TreeKey;

    fn empty() -> Self {
        TreeSlot {
            src: 0,
            idx: VACANT,
            etype: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.idx == VACANT
    }

    fn hash(&self) -> u64 {
        tree_hash((self.src, self.etype))
    }

    fn holds(&self, _hash: u64, &(src, etype): &TreeKey) -> bool {
        self.src == src && self.etype == etype && self.idx != VACANT
    }
}

/// One stripe: its keys' index and the slab their trees live in.
struct Stripe {
    index: CuckooTable<TreeSlot>,
    trees: Vec<SamTree>,
}

/// A stripe's lock on a cache line of its own, so readers of neighbouring
/// stripes do not bounce one line between cores.
#[repr(align(64))]
pub(crate) struct StripeLock(RwLock<Stripe>);

/// The striped directory of one store's samtrees. See the module docs.
pub(crate) struct Directory {
    stripes: Box<[StripeLock]>,
    /// `storage.directory_grows`: stripe index doublings.
    grows: Arc<Counter>,
    /// `storage.directory_grow_ns`: how long each doubling held its stripe.
    grow_ns: Arc<Histogram>,
    /// `storage.directory_refused`: keys the index could not place.
    refused: Arc<Counter>,
}

impl Directory {
    /// An empty directory recording its index doublings into `registry`.
    pub(crate) fn new(registry: &Registry) -> Self {
        let stripe = || {
            StripeLock(RwLock::new(Stripe {
                index: CuckooTable::with_buckets(INITIAL_BUCKETS),
                trees: Vec::new(),
            }))
        };
        Self {
            stripes: (0..STRIPES).map(|_| stripe()).collect(),
            grows: registry.counter("storage.directory_grows"),
            grow_ns: registry.histogram("storage.directory_grow_ns"),
            refused: registry.counter("storage.directory_refused"),
        }
    }

    fn stripe(&self, hash: u64) -> &RwLock<Stripe> {
        &self.stripes[stripe_of(hash)].0
    }

    /// Run `f` on the tree of `key` under its stripe's read guard; `None`
    /// if the key is not resident.
    pub(crate) fn read<R>(&self, key: TreeKey, f: impl FnOnce(&SamTree) -> R) -> Option<R> {
        let hash = tree_hash(key);
        let stripe = self.stripe(hash).read();
        let idx = stripe.index.get(hash, &key)?.idx;
        Some(f(&stripe.trees[idx as usize]))
    }

    /// Run `f` on the tree of `key` under its stripe's write guard. A
    /// missing key gets an empty tree first if `create` is set, and is left
    /// alone (`None`) otherwise; so is a key the index refuses.
    pub(crate) fn write<R>(
        &self,
        key: TreeKey,
        create: bool,
        f: impl FnOnce(&mut SamTree) -> R,
    ) -> Option<R> {
        let hash = tree_hash(key);
        let mut guard = self.stripe(hash).write();
        let stripe = &mut *guard;
        let idx = match stripe.index.get(hash, &key) {
            Some(slot) => slot.idx,
            None if create => {
                let idx = u32::try_from(stripe.trees.len())
                    .ok()
                    .filter(|&i| i != VACANT)
                    .expect("a stripe holds fewer than u32::MAX trees");
                let (src, etype) = key;
                let slot = TreeSlot { src, idx, etype };
                let placed = stripe.index.insert(slot, &mut |took: Duration| {
                    self.grows.inc();
                    self.grow_ns.record(took);
                });
                if placed.is_err() {
                    self.refused.inc();
                    return None;
                }
                reserve_rows(&mut stripe.trees, 1, 1);
                stripe.trees.push(SamTree::new());
                idx
            }
            None => return None,
        };
        Some(f(&mut stripe.trees[idx as usize]))
    }

    /// Detach the tree of `key`: swap-remove it from the slab and re-point
    /// the slot of the tree that moved into its place.
    pub(crate) fn remove(&self, key: TreeKey) -> Option<SamTree> {
        let hash = tree_hash(key);
        let mut guard = self.stripe(hash).write();
        let stripe = &mut *guard;
        let idx = stripe.index.remove(hash, &key)?.idx;
        let tree = stripe.trees.swap_remove(idx as usize);
        let moved = stripe.trees.len() as u32;
        if idx != moved {
            // Dropping a whole source is rare enough to scan for the slot.
            let slot = stripe.index.iter_mut().find(|s| s.idx == moved);
            slot.expect("every slab tree has a slot").idx = idx;
        }
        trim_rows(&mut stripe.trees, 1);
        Some(tree)
    }

    /// Visit every resident tree with its key, one stripe read guard at a
    /// time. `f` must not call back into the store.
    pub(crate) fn for_each(&self, mut f: impl FnMut(TreeKey, &SamTree)) {
        for lock in self.stripes.iter() {
            let stripe = lock.0.read();
            for slot in stripe.index.iter() {
                f((slot.src, slot.etype), &stripe.trees[slot.idx as usize]);
            }
        }
    }

    /// Number of resident keys.
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|l| l.0.read().index.len()).sum()
    }
}

impl DeepSize for Directory {
    /// The stripe locks, every stripe's index buckets and tree slab at their
    /// capacity, and each tree's heap.
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.stripes.len() * std::mem::size_of::<StripeLock>();
        for lock in self.stripes.iter() {
            let stripe = lock.0.read();
            bytes += stripe.index.bucket_bytes();
            bytes += stripe.trees.capacity() * std::mem::size_of::<SamTree>();
            bytes += stripe.trees.iter().map(SamTree::heap_bytes).sum::<usize>();
        }
        bytes
    }
}

/// `n` distinct keys that share one stripe (test support).
#[cfg(test)]
pub(crate) fn same_stripe_keys(n: usize) -> Vec<TreeKey> {
    let home = stripe_of(tree_hash((0, 0)));
    (0u64..)
        .map(|src| (src, (src % 3) as u16))
        .filter(|&key| stripe_of(tree_hash(key)) == home)
        .take(n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_samtree::{OpStats, SamTreeConfig};

    fn insert(dir: &Directory, key: TreeKey, dst: u64) {
        dir.write(key, true, |t| {
            t.insert(&SamTreeConfig::default(), dst, 1.0, &mut OpStats::default())
        });
    }

    #[test]
    fn grow_telemetry_counts_every_stripe_doubling() {
        let registry = Registry::new();
        let dir = Directory::new(&registry);
        // 5,000 sources over 64 stripes of 16 slots each: every stripe
        // doubles several times.
        for src in 0..5_000u64 {
            insert(&dir, (src, 0), 1);
        }
        // A stripe's index doubles from `INITIAL_BUCKETS` buckets, so its
        // bucket bytes tell how often it grew.
        let initial = INITIAL_BUCKETS * std::mem::size_of::<[TreeSlot; 4]>();
        let doublings: u64 = dir
            .stripes
            .iter()
            .map(|l| u64::from((l.0.read().index.bucket_bytes() / initial).trailing_zeros()))
            .sum();
        assert!(doublings >= 64, "every stripe grew: {doublings}");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.directory_grows"), Some(doublings));
        let hist = snap
            .histogram("storage.directory_grow_ns")
            .expect("recorded");
        assert_eq!(hist.count, doublings);
    }

    #[test]
    fn remove_repoints_the_tree_that_moved() {
        let dir = Directory::new(&Registry::new());
        let keys = same_stripe_keys(40);
        for (i, &key) in keys.iter().enumerate() {
            insert(&dir, key, i as u64);
        }
        // Removing the first tree moves the last one into its slab row.
        let gone = dir.remove(keys[0]).expect("resident");
        assert_eq!(gone.rows()[0].0, 0);
        assert!(dir.read(keys[0], SamTree::len).is_none());
        for (i, &key) in keys.iter().enumerate().skip(1) {
            assert_eq!(dir.read(key, |t| t.rows()[0].0), Some(i as u64), "{key:?}");
        }
        assert_eq!(dir.len(), 39);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use platod2gl_samtree::{OpStats, SamTreeConfig};
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    /// Keys the model draws from. They all share one stripe, whose 16
    /// starting slots hold a fraction of them, so histories cross BFS
    /// evictions and index doublings.
    const KEYS: usize = 48;

    fn ids(tree: &SamTree) -> Vec<u64> {
        let mut ids: Vec<u64> = tree.rows().into_iter().map(|(id, _, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn behaves_like_hashmap(
            ops in proptest::collection::vec((0u8..4, 0usize..KEYS, 0u64..1000), 0..200)
        ) {
            let keys = same_stripe_keys(KEYS);
            let dir = Directory::new(&Registry::new());
            let cfg = SamTreeConfig::default();
            let mut model: HashMap<TreeKey, BTreeSet<u64>> = HashMap::new();
            for (kind, k, dst) in ops {
                let key = keys[k];
                let add = |t: &mut SamTree| t.insert(&cfg, dst, 1.0, &mut OpStats::default());
                match kind {
                    // Insert, creating the tree (the batch and insert path).
                    0 | 1 => {
                        dir.write(key, true, add);
                        model.entry(key).or_default().insert(dst);
                    }
                    // Write without creating (single deletes, updates, decay).
                    2 => {
                        let hit = dir.write(key, false, add).is_some();
                        prop_assert_eq!(hit, model.contains_key(&key));
                        if let Some(set) = model.get_mut(&key) {
                            set.insert(dst);
                        }
                    }
                    // Drop the source: swap-remove from the slab.
                    _ => {
                        let got = dir.remove(key).map(|t| ids(&t));
                        let want = model.remove(&key).map(|s| s.into_iter().collect());
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(dir.len(), model.len());
                for &key in &keys {
                    let want: Option<Vec<u64>> =
                        model.get(&key).map(|s| s.iter().copied().collect());
                    prop_assert_eq!(dir.read(key, ids), want);
                }
            }
        }
    }
}
