//! # Bucketized cuckoo hashing
//!
//! PlatoD2GL stores the per-vertex samtrees in "a concurrent hashmap
//! structure by exploiting Cuckoo hash" (Sec. IV-B, citing MemC3 \[7\] and
//! libcuckoo \[23\]). This crate holds that hashing once:
//!
//! * **Bucketized cuckoo hashing** — every key has two candidate buckets of
//!   [`SLOTS`] entries each (4-way set-associative, as in MemC3), giving
//!   >90 % load factors with two memory probes per lookup.
//! * **BFS path eviction** — when both candidate buckets are full, a
//!   breadth-first search finds the *shortest* chain of displacements that
//!   frees a slot (libcuckoo's improvement over random-walk kicking), and the
//!   chain is unwound back-to-front.
//!
//! **One eviction core, two slot layouts.** [`CuckooTable`] is the core:
//! lookup, BFS eviction and `grow()`, written once and generic over its
//! [`Slot`]. It takes no lock and picks no hash; its owner does both.
//!
//! * [`CuckooMap`] — the general concurrent map of the attribute store, the
//!   PlatoGL and AliGraph baselines and DeepWalk's embedding table. Its
//!   slot is `Option<(hash, key, value)>`: it stores the 64-bit hash, which
//!   is `std`'s SipHash through `BuildHasherDefault`. The map is split into a
//!   power of two of tables (the `shards` argument of
//!   [`CuckooMap::with_shards_and_capacity`]), each behind its own
//!   `parking_lot::Mutex`, and a key's shard comes from the hash's top bits,
//!   so displacement chains never cross a lock.
//! * The storage layer's samtree directory — a compact 16-byte slot of key
//!   and slab index, with no stored hash: its owner recomputes the same
//!   SipHash of the key whenever a displacement needs it.
//!
//! Both use SipHash with a fixed key, so table layouts (and the memory
//! figures the benchmarks report) are reproducible across runs, and keys
//! come from clients: an invertible mix would let a client build keys that
//! agree in all 64 bits of hash. No table size separates such keys, so
//! [`CuckooTable::insert`] refuses a key whose candidate buckets are full
//! of its own hash instead of doubling without end.

use parking_lot::Mutex;
use platod2gl_mem::DeepSize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::time::{Duration, Instant};

/// Entries per bucket (4-way set-associative, as in MemC3).
pub const SLOTS: usize = 4;

/// Maximum number of buckets the BFS eviction explores before giving up and
/// growing the table.
const BFS_LIMIT: usize = 256;

/// Grow once a table exceeds this load factor even if inserts still
/// succeed, to keep displacement chains short.
const MAX_LOAD: f64 = 0.90;

/// One cell of a [`CuckooTable`] bucket: empty, or one entry.
pub trait Slot {
    /// What a lookup compares an occupied slot against.
    type Key;

    /// An empty slot.
    fn empty() -> Self;

    /// Whether the slot holds no entry.
    fn is_empty(&self) -> bool;

    /// The occupant's 64-bit hash, stored or recomputed from its key. Only
    /// asked of occupied slots.
    fn hash(&self) -> u64;

    /// Whether the slot holds `key`, whose hash is `hash`.
    fn holds(&self, hash: u64, key: &Self::Key) -> bool;
}

/// One cuckoo hash table over slots of type `S`: the eviction and growth
/// core every slot layout shares. It takes no lock; its owner wraps it in
/// one. A lookup takes the key's hash from the caller; an insert reads it
/// from the slot.
pub struct CuckooTable<S> {
    buckets: Vec<[S; SLOTS]>,
    len: usize,
}

impl<S: Slot> CuckooTable<S> {
    /// An empty table of `n` buckets (rounded up to a power of two, at
    /// least two).
    pub fn with_buckets(n: usize) -> Self {
        let n = n.next_power_of_two().max(2);
        Self {
            buckets: (0..n)
                .map(|_| std::array::from_fn(|_| S::empty()))
                .collect(),
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    /// The key's two candidate buckets, derived from independent halves of
    /// the 64-bit hash (partial-key cuckoo hashing style).
    #[inline]
    fn candidates(&self, hash: u64) -> (usize, usize) {
        let b1 = (hash & self.mask()) as usize;
        // Mix the high half so the alternate bucket is independent of b1.
        let h2 = (hash >> 32) ^ (hash >> 17) ^ 0x9e37_79b9_7f4a_7c15;
        let b2 = (h2 & self.mask()) as usize;
        (b1, b2)
    }

    /// Alternate bucket of an entry currently living in `bucket`.
    #[inline]
    fn alternate(&self, hash: u64, bucket: usize) -> usize {
        let (b1, b2) = self.candidates(hash);
        if bucket == b1 {
            b2
        } else {
            b1
        }
    }

    fn free_slot(&self, bucket: usize) -> Option<usize> {
        self.buckets[bucket].iter().position(S::is_empty)
    }

    /// (bucket, slot) holding `key`.
    fn find(&self, hash: u64, key: &S::Key) -> Option<(usize, usize)> {
        let (b1, b2) = self.candidates(hash);
        [b1, b2].into_iter().find_map(|b| {
            let s = self.buckets[b].iter().position(|s| s.holds(hash, key))?;
            Some((b, s))
        })
    }

    /// The slot holding `key`.
    pub fn get(&self, hash: u64, key: &S::Key) -> Option<&S> {
        let (b, s) = self.find(hash, key)?;
        Some(&self.buckets[b][s])
    }

    /// The slot holding `key`, mutably. The caller must not change which
    /// key the slot holds.
    pub fn get_mut(&mut self, hash: u64, key: &S::Key) -> Option<&mut S> {
        let (b, s) = self.find(hash, key)?;
        Some(&mut self.buckets[b][s])
    }

    /// Empty the slot holding `key`, returning what it held.
    pub fn remove(&mut self, hash: u64, key: &S::Key) -> Option<S> {
        let (b, s) = self.find(hash, key)?;
        self.len -= 1;
        Some(std::mem::replace(&mut self.buckets[b][s], S::empty()))
    }

    /// Insert an occupied slot whose key is absent (callers look it up
    /// first). `on_grow` hears how long each doubling of the bucket array
    /// took; most inserts double nothing.
    ///
    /// `Err` hands the slot back, with the table unchanged, when its
    /// candidate buckets are full of entries with its own 64-bit hash: no
    /// table size separates those, so doubling would never end.
    pub fn insert<F: FnMut(Duration)>(&mut self, slot: S, on_grow: &mut F) -> Result<(), S> {
        if self.len as f64 >= self.capacity() as f64 * MAX_LOAD {
            self.grow(on_grow);
        }
        let mut slot = slot;
        loop {
            slot = match self.place(slot) {
                Ok(()) => {
                    self.len += 1;
                    return Ok(());
                }
                Err(back) if self.saturated(back.hash()) => return Err(back),
                Err(back) => back,
            };
            self.grow(on_grow);
        }
    }

    /// Whether every candidate slot of `hash` holds an entry of that hash.
    fn saturated(&self, hash: u64) -> bool {
        let (b1, b2) = self.candidates(hash);
        [b1, b2]
            .into_iter()
            .flat_map(|b| &self.buckets[b])
            .all(|s| !s.is_empty() && s.hash() == hash)
    }

    /// Place a slot, displacing others along a BFS-discovered path if both
    /// candidate buckets are full. `Err` returns the slot when no path of
    /// length `<= BFS_LIMIT` exists.
    fn place(&mut self, slot: S) -> Result<(), S> {
        let (b1, b2) = self.candidates(slot.hash());
        for b in [b1, b2] {
            if let Some(s) = self.free_slot(b) {
                self.buckets[b][s] = slot;
                return Ok(());
            }
            if b1 == b2 {
                break;
            }
        }
        // BFS over buckets: node = bucket index, edge = moving one occupant
        // to its alternate bucket.
        struct Node {
            bucket: usize,
            /// Slot in the *parent* bucket whose occupant moved here.
            via_slot: usize,
            parent: usize, // index into `nodes`; usize::MAX for roots
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(BFS_LIMIT);
        let mut seen = vec![false; self.buckets.len()];
        for b in [b1, b2] {
            if !seen[b] {
                seen[b] = true;
                nodes.push(Node {
                    bucket: b,
                    via_slot: usize::MAX,
                    parent: usize::MAX,
                });
            }
        }
        let mut cursor = 0;
        let mut found: Option<usize> = None;
        'bfs: while cursor < nodes.len() && nodes.len() < BFS_LIMIT {
            let bucket = nodes[cursor].bucket;
            for via_slot in 0..SLOTS {
                let occ = &self.buckets[bucket][via_slot];
                debug_assert!(!occ.is_empty(), "full bucket on BFS frontier");
                let alt = self.alternate(occ.hash(), bucket);
                if seen[alt] {
                    continue;
                }
                seen[alt] = true;
                nodes.push(Node {
                    bucket: alt,
                    via_slot,
                    parent: cursor,
                });
                if self.free_slot(alt).is_some() {
                    found = Some(nodes.len() - 1);
                    break 'bfs;
                }
            }
            cursor += 1;
        }
        let Some(mut at) = found else {
            return Err(slot);
        };
        // Unwind: move occupants back-to-front along the path.
        while nodes[at].parent != usize::MAX {
            let parent = nodes[at].parent;
            let from_bucket = nodes[parent].bucket;
            let from_slot = nodes[at].via_slot;
            let to_bucket = nodes[at].bucket;
            let free = self
                .free_slot(to_bucket)
                .expect("path invariant: destination has a free slot");
            let moved = std::mem::replace(&mut self.buckets[from_bucket][from_slot], S::empty());
            debug_assert!(!moved.is_empty(), "path invariant: source slot occupied");
            debug_assert_eq!(self.alternate(moved.hash(), from_bucket), to_bucket);
            self.buckets[to_bucket][free] = moved;
            at = parent;
        }
        let root = nodes[at].bucket;
        let free = self.free_slot(root).expect("root slot freed by unwinding");
        self.buckets[root][free] = slot;
        Ok(())
    }

    /// Double the bucket array and re-place every entry (stop-the-world for
    /// whoever holds this table).
    fn grow<F: FnMut(Duration)>(&mut self, on_grow: &mut F) {
        let started = Instant::now();
        let new_size = self.buckets.len() * 2;
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_size)
                .map(|_| std::array::from_fn(|_| S::empty()))
                .collect(),
        );
        self.len = 0;
        // Every entry was admitted once, so none is refused here: a bucket
        // pair that cannot hold its entries at this size grows again.
        for mut slot in old.into_iter().flatten().filter(|s| !s.is_empty()) {
            while let Err(back) = self.place(slot) {
                slot = back;
                self.grow(on_grow);
            }
            self.len += 1;
        }
        on_grow(started.elapsed());
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated (occupied or not).
    fn capacity(&self) -> usize {
        self.buckets.len() * SLOTS
    }

    /// Bytes of the bucket array at its capacity: the hash-index overhead,
    /// empty slots included. Heap owned by the occupants is not included.
    pub fn bucket_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<[S; SLOTS]>()
    }

    /// Every occupied slot, in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.buckets.iter().flatten().filter(|s| !s.is_empty())
    }

    /// Every occupied slot, mutably, in bucket order. The caller must not
    /// change which key a slot holds.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.buckets.iter_mut().flatten().filter(|s| !s.is_empty())
    }
}

type HashBuilder = BuildHasherDefault<DefaultHasher>;

/// [`CuckooMap`]'s occupant: the key's stored SipHash, the key, the value.
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

impl<K: Eq, V> Slot for Option<Entry<K, V>> {
    type Key = K;

    fn empty() -> Self {
        None
    }

    fn is_empty(&self) -> bool {
        self.is_none()
    }

    fn hash(&self) -> u64 {
        self.as_ref().expect("occupied slot").hash
    }

    fn holds(&self, hash: u64, key: &K) -> bool {
        self.as_ref()
            .is_some_and(|e| e.hash == hash && &e.key == key)
    }
}

type Shard<K, V> = CuckooTable<Option<Entry<K, V>>>;

/// Insert into a [`CuckooMap`] shard. Only keys whose SipHashes agree in
/// all 64 bits are refused, and no caller can build those short of a
/// brute-force search.
fn admit<K: Eq, V>(shard: &mut Shard<K, V>, entry: Entry<K, V>) {
    if shard.insert(Some(entry), &mut |_| ()).is_err() {
        panic!("cuckoo: keys with one 64-bit SipHash fill both candidate buckets");
    }
}

/// A concurrent cuckoo hash map.
///
/// See the crate docs for the design. All methods take `&self`; internal
/// sharded mutexes provide interior mutability, so the map can be shared
/// across threads behind an `Arc` (or borrowed by scoped threads).
///
/// ```
/// use platod2gl_cuckoo::CuckooMap;
///
/// let map: CuckooMap<u64, String> = CuckooMap::new();
/// map.insert(1, "tree-1".into());
/// map.update(&1, |v| v.push_str("!"));
/// assert_eq!(map.read(&1, |v| v.clone()).as_deref(), Some("tree-1!"));
/// assert_eq!(map.len(), 1);
/// assert_eq!(map.remove(&1).as_deref(), Some("tree-1!"));
/// ```
pub struct CuckooMap<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// log2(shard count), used to take shard bits from the hash top.
    shard_bits: u32,
    hasher: HashBuilder,
}

impl<K: Eq + Hash, V> Default for CuckooMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> CuckooMap<K, V> {
    /// Create a map with the default shard count (64).
    pub fn new() -> Self {
        Self::with_shards_and_capacity(64, 0)
    }

    /// Create a map pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_shards_and_capacity(64, capacity)
    }

    /// Create a map with an explicit shard count (rounded up to a power of
    /// two) and a total capacity hint.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        let shards = shards.next_power_of_two().max(1);
        let per_shard_buckets = (capacity / shards / SLOTS).next_power_of_two().max(2);
        let shard_bits = shards.trailing_zeros();
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::with_buckets(per_shard_buckets)))
                .collect(),
            shard_bits,
            hasher: HashBuilder::default(),
        }
    }

    #[inline]
    fn hash_of(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Shard selection uses the hash's top bits; bucket selection inside the
    /// shard uses the low bits, so the two are independent.
    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }

    /// Insert a key-value pair, returning the previous value if present.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let hash = self.hash_of(&key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        if let Some(Some(e)) = shard.get_mut(hash, &key) {
            return Some(std::mem::replace(&mut e.value, value));
        }
        admit(&mut shard, Entry { hash, key, value });
        None
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let hash = self.hash_of(key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        shard.remove(hash, key).flatten().map(|e| e.value)
    }

    /// Run `f` over the value for `key`, if present, while holding the shard
    /// lock.
    pub fn read<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let hash = self.hash_of(key);
        let shard = self.shards[self.shard_of(hash)].lock();
        let e = shard.get(hash, key)?.as_ref()?;
        Some(f(&e.value))
    }

    /// Run `f` over a mutable reference to the value for `key`, if present.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let hash = self.hash_of(key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        let e = shard.get_mut(hash, key)?.as_mut()?;
        Some(f(&mut e.value))
    }

    /// Run `f` over the value for `key`, inserting `default()` first if the
    /// key is absent (get-or-create).
    pub fn update_or_insert_with<R>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R
    where
        K: Clone,
    {
        let hash = self.hash_of(&key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        if shard.get(hash, &key).is_none() {
            let entry = Entry {
                hash,
                key: key.clone(),
                value: default(),
            };
            admit(&mut shard, entry);
        }
        let e = shard.get_mut(hash, &key).and_then(Option::as_mut);
        f(&mut e.expect("just inserted").value)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V> DeepSize for CuckooMap<K, V>
where
    K: Eq + DeepSize,
    V: DeepSize,
{
    /// Counts every allocated slot — including empty ones — plus the heap
    /// memory owned by keys and values. Empty slots are the hash-index
    /// overhead that key-value topology storage pays per entry.
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.shards.len() * std::mem::size_of::<Mutex<Shard<K, V>>>();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            bytes += shard.bucket_bytes();
            for e in shard.iter().flatten() {
                bytes += e.key.heap_bytes() + e.value.heap_bytes();
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<K: Eq + Hash, V: Clone>(map: &CuckooMap<K, V>, key: &K) -> Option<V> {
        map.read(key, V::clone)
    }

    #[test]
    fn insert_get_roundtrip() {
        let map: CuckooMap<u64, String> = CuckooMap::new();
        assert_eq!(map.insert(1, "a".into()), None);
        assert_eq!(map.insert(2, "b".into()), None);
        assert_eq!(get(&map, &1).as_deref(), Some("a"));
        assert_eq!(get(&map, &2).as_deref(), Some("b"));
        assert_eq!(get(&map, &3), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        assert_eq!(map.insert(7, 1), None);
        assert_eq!(map.insert(7, 2), Some(1));
        assert_eq!(get(&map, &7), Some(2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn remove_returns_value() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        map.insert(5, 50);
        assert_eq!(map.remove(&5), Some(50));
        assert_eq!(map.remove(&5), None);
        assert!(map.is_empty());
    }

    #[test]
    fn update_mutates_in_place() {
        let map: CuckooMap<u64, Vec<u64>> = CuckooMap::new();
        map.insert(1, vec![]);
        map.update(&1, |v| v.push(42));
        map.update(&1, |v| v.push(43));
        assert_eq!(get(&map, &1), Some(vec![42, 43]));
        assert_eq!(map.update(&999, |_| ()), None);
    }

    #[test]
    fn update_or_insert_with_creates_then_reuses() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        let a = map.update_or_insert_with(
            9,
            || 100,
            |v| {
                *v += 1;
                *v
            },
        );
        assert_eq!(a, 101);
        let b = map.update_or_insert_with(
            9,
            || 100,
            |v| {
                *v += 1;
                *v
            },
        );
        assert_eq!(b, 102);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn many_inserts_force_evictions_and_growth() {
        // One shard with tiny initial capacity forces BFS evictions and
        // several grow() rehashes.
        let map: CuckooMap<u64, u64> = CuckooMap::with_shards_and_capacity(1, 8);
        let n = 50_000u64;
        for k in 0..n {
            map.insert(k, k * 10);
        }
        assert_eq!(map.len(), n as usize);
        for k in 0..n {
            assert_eq!(get(&map, &k), Some(k * 10), "key {k}");
        }
    }

    #[test]
    fn mixed_ops_match_std_hashmap() {
        use std::collections::HashMap;
        let map: CuckooMap<u64, u64> = CuckooMap::with_shards_and_capacity(4, 16);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random op mix.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..30_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 500;
            match step % 3 {
                0 | 1 => {
                    assert_eq!(map.insert(key, step), reference.insert(key, step));
                }
                _ => {
                    assert_eq!(map.remove(&key), reference.remove(&key));
                }
            }
        }
        assert_eq!(map.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(get(&map, k), Some(*v));
        }
    }

    #[test]
    fn deep_size_counts_empty_slots_as_index_overhead() {
        let map: CuckooMap<u64, u64> = CuckooMap::with_shards_and_capacity(1, 64);
        let empty_bytes = map.heap_bytes();
        assert!(empty_bytes > 0, "empty table still owns its bucket array");
        map.insert(1, 1);
        // u64 values have no heap of their own, so size is unchanged until
        // the table grows.
        assert_eq!(map.heap_bytes(), empty_bytes);
    }

    #[test]
    fn concurrent_inserts_from_many_threads() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        let threads = 8u64;
        let per = 5_000u64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move |_| {
                    for i in 0..per {
                        let k = t * per + i;
                        map.insert(k, k + 1);
                    }
                });
            }
        })
        .expect("threads join");
        assert_eq!(map.len(), (threads * per) as usize);
        for k in 0..threads * per {
            assert_eq!(get(&map, &k), Some(k + 1));
        }
    }

    #[test]
    fn concurrent_mixed_readers_and_writers() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        for k in 0..1_000 {
            map.insert(k, 0);
        }
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let map = &map;
                s.spawn(move |_| {
                    for k in 0..1_000u64 {
                        map.update(&k, |v| *v += 1);
                    }
                });
            }
            for _ in 0..4 {
                let map = &map;
                s.spawn(move |_| {
                    for k in 0..1_000u64 {
                        let _ = map.read(&k, |v| *v);
                    }
                });
            }
        })
        .expect("threads join");
        let sum: u64 = (0..1_000u64).filter_map(|k| get(&map, &k)).sum();
        assert_eq!(sum, 4_000, "each of 4 writers increments every key once");
    }

    /// A slot whose hash the test picks: `(hash, key)`.
    struct Picked(Option<(u64, u64)>);

    impl Slot for Picked {
        type Key = u64;

        fn empty() -> Self {
            Picked(None)
        }

        fn is_empty(&self) -> bool {
            self.0.is_none()
        }

        fn hash(&self) -> u64 {
            self.0.expect("occupied slot").0
        }

        fn holds(&self, hash: u64, &key: &u64) -> bool {
            self.0 == Some((hash, key))
        }
    }

    #[test]
    fn keys_of_one_full_hash_are_refused_without_growing() {
        let mut table: CuckooTable<Picked> = CuckooTable::with_buckets(4);
        let refuse = |table: &mut CuckooTable<Picked>| {
            let bytes = table.bucket_bytes();
            let mut no_grow = |_: Duration| panic!("a refused key grew the table");
            let refused = table.insert(Picked(Some((0, 8))), &mut no_grow);
            assert_eq!(refused.err().and_then(|p| p.0), Some((0, 8)));
            assert_eq!(table.bucket_bytes(), bytes);
        };
        let mut grows = 0;
        let mut on_grow = |_: Duration| grows += 1;
        // Hash 0's candidate buckets (0 and 1) hold eight keys between
        // them; a ninth with that hash can never be placed.
        for key in 0..8 {
            assert!(table.insert(Picked(Some((0, key))), &mut on_grow).is_ok());
        }
        for _ in 0..100 {
            refuse(&mut table);
        }
        assert_eq!(table.len(), 8);
        // The table stays usable: other keys go in (growing as they must)
        // and every admitted key is still found.
        let spread = |key: u64| key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for key in 100..1_100u64 {
            let slot = Picked(Some((spread(key), key)));
            assert!(table.insert(slot, &mut on_grow).is_ok());
        }
        assert!(grows > 0);
        refuse(&mut table);
        assert_eq!(table.len(), 1_008);
        for key in 0..8 {
            assert!(table.get(0, &key).is_some(), "{key}");
        }
        assert!(table.get(0, &8).is_none());
        assert!((100..1_100u64).all(|key| table.get(spread(key), &key).is_some()));
    }

    #[test]
    fn string_keys_work() {
        let map: CuckooMap<String, u64> = CuckooMap::new();
        map.insert("alpha".into(), 1);
        map.insert("beta".into(), 2);
        assert_eq!(get(&map, &"alpha".to_string()), Some(1));
        assert_eq!(get(&map, &"beta".to_string()), Some(2));
        assert_eq!(get(&map, &"gamma".to_string()), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #[test]
        fn behaves_like_hashmap(
            ops in proptest::collection::vec((0u8..3, 0u64..64, 0u64..1000), 0..400)
        ) {
            let map: CuckooMap<u64, u64> = CuckooMap::with_shards_and_capacity(2, 8);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for (kind, k, v) in ops {
                match kind {
                    0 => prop_assert_eq!(map.insert(k, v), reference.insert(k, v)),
                    1 => prop_assert_eq!(map.remove(&k), reference.remove(&k)),
                    _ => prop_assert_eq!(map.read(&k, |v| *v), reference.get(&k).copied()),
                }
                prop_assert_eq!(map.len(), reference.len());
            }
        }
    }
}
