//! # Concurrent bucketized cuckoo hash map
//!
//! PlatoD2GL stores the per-vertex samtrees in "a concurrent hashmap
//! structure by exploiting Cuckoo hash" (Sec. IV-B, citing MemC3 \[7\] and
//! libcuckoo \[23\]). This crate provides that directory:
//!
//! * **Bucketized cuckoo hashing** — every key has two candidate buckets of
//!   [`SLOTS`] entries each (4-way set-associative, as in MemC3), giving
//!   >90 % load factors with two memory probes per lookup.
//! * **BFS path eviction** — when both candidate buckets are full, a
//!   breadth-first search finds the *shortest* chain of displacements that
//!   frees a slot (libcuckoo's improvement over random-walk kicking), and the
//!   chain is unwound back-to-front.
//! * **Shard-per-lock concurrency** — the table is split into a power of
//!   two of independent cuckoo tables (the `shards` argument of
//!   [`CuckooMap::with_shards_and_capacity`]), each guarded by a
//!   `parking_lot::Mutex`. A key's shard is derived from the high hash bits,
//!   so displacement chains never cross a lock boundary. This is the
//!   practical sharding used by production concurrent cuckoo maps.
//!
//! Hashing uses `std`'s SipHash through `BuildHasherDefault`, so layouts are
//! deterministic across runs — benchmark memory numbers are reproducible.

use parking_lot::Mutex;
use platod2gl_mem::DeepSize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Entries per bucket (4-way set-associative, as in MemC3).
pub const SLOTS: usize = 4;

/// Maximum number of buckets the BFS eviction explores before giving up and
/// growing the table.
const BFS_LIMIT: usize = 256;

/// Grow once a shard exceeds this load factor even if inserts still succeed,
/// to keep displacement chains short.
const MAX_LOAD: f64 = 0.90;

type HashBuilder = BuildHasherDefault<DefaultHasher>;

struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

struct Bucket<K, V> {
    slots: [Option<Entry<K, V>>; SLOTS],
}

impl<K, V> Bucket<K, V> {
    fn empty() -> Self {
        Self {
            slots: [None, None, None, None],
        }
    }

    fn free_slot(&self) -> Option<usize> {
        self.slots.iter().position(Option::is_none)
    }

    fn find(&self, hash: u64, key: &K) -> Option<usize>
    where
        K: Eq,
    {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|e| e.hash == hash && &e.key == key))
    }
}

struct Shard<K, V> {
    buckets: Vec<Bucket<K, V>>,
    len: usize,
}

impl<K: Eq + Hash, V> Shard<K, V> {
    fn with_buckets(n: usize) -> Self {
        let n = n.next_power_of_two().max(2);
        Self {
            buckets: (0..n).map(|_| Bucket::empty()).collect(),
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

    fn get(&self, hash: u64, key: &K) -> Option<&V> {
        let (b1, b2) = self.candidates(hash);
        if let Some(s) = self.buckets[b1].find(hash, key) {
            return self.buckets[b1].slots[s].as_ref().map(|e| &e.value);
        }
        if b2 != b1 {
            if let Some(s) = self.buckets[b2].find(hash, key) {
                return self.buckets[b2].slots[s].as_ref().map(|e| &e.value);
            }
        }
        None
    }

    fn get_mut(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        let (b1, b2) = self.candidates(hash);
        let hit = if self.buckets[b1].find(hash, key).is_some() {
            (b1, self.buckets[b1].find(hash, key).expect("just found"))
        } else if b2 != b1 {
            let s = self.buckets[b2].find(hash, key)?;
            (b2, s)
        } else {
            return None;
        };
        self.buckets[hit.0].slots[hit.1]
            .as_mut()
            .map(|e| &mut e.value)
    }

    fn remove(&mut self, hash: u64, key: &K) -> Option<V> {
        let (b1, b2) = self.candidates(hash);
        for b in [b1, b2] {
            if let Some(s) = self.buckets[b].find(hash, key) {
                let entry = self.buckets[b].slots[s].take().expect("found slot");
                self.len -= 1;
                return Some(entry.value);
            }
            if b1 == b2 {
                break;
            }
        }
        None
    }

    fn insert(&mut self, hash: u64, key: K, value: V) -> Option<V> {
        let (b1, b2) = self.candidates(hash);
        // Replace an existing mapping.
        for b in [b1, b2] {
            if let Some(s) = self.buckets[b].find(hash, &key) {
                let old = self.buckets[b].slots[s]
                    .replace(Entry { hash, key, value })
                    .expect("found slot");
                return Some(old.value);
            }
            if b1 == b2 {
                break;
            }
        }
        if self.len as f64 >= self.capacity() as f64 * MAX_LOAD {
            self.grow();
        }
        let mut entry = Entry { hash, key, value };
        loop {
            match self.place(entry) {
                Ok(()) => {
                    self.len += 1;
                    return None;
                }
                Err(back) => {
                    entry = back;
                    self.grow();
                }
            }
        }
    }

    /// Place an entry, displacing others along a BFS-discovered path if both
    /// candidate buckets are full. `Err` returns the entry when no path of
    /// length `<= BFS_LIMIT` exists.
    fn place(&mut self, entry: Entry<K, V>) -> Result<(), Entry<K, V>> {
        let (b1, b2) = self.candidates(entry.hash);
        for b in [b1, b2] {
            if let Some(s) = self.buckets[b].free_slot() {
                self.buckets[b].slots[s] = Some(entry);
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
            for slot in 0..SLOTS {
                let occ = self.buckets[bucket].slots[slot]
                    .as_ref()
                    .expect("full bucket on BFS frontier");
                let alt = self.alternate(occ.hash, bucket);
                if seen[alt] {
                    continue;
                }
                seen[alt] = true;
                nodes.push(Node {
                    bucket: alt,
                    via_slot: slot,
                    parent: cursor,
                });
                if self.buckets[alt].free_slot().is_some() {
                    found = Some(nodes.len() - 1);
                    break 'bfs;
                }
            }
            cursor += 1;
        }
        let Some(mut at) = found else {
            return Err(entry);
        };
        // Unwind: move occupants back-to-front along the path.
        while nodes[at].parent != usize::MAX {
            let parent = nodes[at].parent;
            let from_bucket = nodes[parent].bucket;
            let from_slot = nodes[at].via_slot;
            let to_bucket = nodes[at].bucket;
            let free = self.buckets[to_bucket]
                .free_slot()
                .expect("path invariant: destination has a free slot");
            let moved = self.buckets[from_bucket].slots[from_slot]
                .take()
                .expect("path invariant: source slot occupied");
            debug_assert_eq!(self.alternate(moved.hash, from_bucket), to_bucket);
            self.buckets[to_bucket].slots[free] = Some(moved);
            at = parent;
        }
        let root = nodes[at].bucket;
        let free = self.buckets[root]
            .free_slot()
            .expect("root slot freed by unwinding");
        self.buckets[root].slots[free] = Some(entry);
        Ok(())
    }

    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_size).map(|_| Bucket::empty()).collect(),
        );
        self.len = 0;
        for bucket in old {
            for e in bucket.slots.into_iter().flatten() {
                self.insert(e.hash, e.key, e.value);
            }
        }
    }

    fn capacity(&self) -> usize {
        self.buckets.len() * SLOTS
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
/// assert_eq!(map.get(&1).as_deref(), Some("tree-1!"));
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
        shard.insert(hash, key, value)
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let hash = self.hash_of(key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        shard.remove(hash, key)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.read(key, |_| ()).is_some()
    }

    /// Run `f` over the value for `key`, if present, while holding the shard
    /// lock. Prefer this over [`get`](Self::get) when `V` is expensive to
    /// clone (the topology store's values are whole samtrees).
    pub fn read<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let hash = self.hash_of(key);
        let shard = self.shards[self.shard_of(hash)].lock();
        shard.get(hash, key).map(f)
    }

    /// Run `f` over a mutable reference to the value for `key`, if present.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let hash = self.hash_of(key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        shard.get_mut(hash, key).map(f)
    }

    /// Run `f` over the value for `key`, inserting `default()` first if the
    /// key is absent. This is the topology store's get-or-create-samtree
    /// primitive.
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
        if shard.get_mut(hash, &key).is_none() {
            shard.insert(hash, key.clone(), default());
        }
        let v = shard.get_mut(hash, &key).expect("just inserted");
        f(v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every entry. Shards are visited one at a time, each under its
    /// lock; do not call map methods from inside `f`.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for bucket in &shard.buckets {
                for e in bucket.slots.iter().flatten() {
                    f(&e.key, &e.value);
                }
            }
        }
    }

    /// Visit every entry mutably.
    pub fn for_each_mut(&self, mut f: impl FnMut(&K, &mut V)) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            for bucket in &mut shard.buckets {
                for e in bucket.slots.iter_mut().flatten() {
                    f(&e.key, &mut e.value);
                }
            }
        }
    }

    /// Collect all keys.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, _| out.push(k.clone()));
        out
    }

    /// Clone the value for `key`.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.read(key, V::clone)
    }
}

impl<K, V> DeepSize for CuckooMap<K, V>
where
    K: DeepSize,
    V: DeepSize,
{
    /// Counts every allocated slot — including empty ones — plus the heap
    /// memory owned by keys and values. Empty slots are the hash-index
    /// overhead that key-value topology storage pays per entry.
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.shards.len() * std::mem::size_of::<Mutex<Shard<K, V>>>();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            bytes += shard.buckets.capacity() * std::mem::size_of::<Bucket<K, V>>();
            for bucket in &shard.buckets {
                for e in bucket.slots.iter().flatten() {
                    bytes += e.key.heap_bytes() + e.value.heap_bytes();
                }
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let map: CuckooMap<u64, String> = CuckooMap::new();
        assert_eq!(map.insert(1, "a".into()), None);
        assert_eq!(map.insert(2, "b".into()), None);
        assert_eq!(map.get(&1).as_deref(), Some("a"));
        assert_eq!(map.get(&2).as_deref(), Some("b"));
        assert_eq!(map.get(&3), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        assert_eq!(map.insert(7, 1), None);
        assert_eq!(map.insert(7, 2), Some(1));
        assert_eq!(map.get(&7), Some(2));
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
        assert_eq!(map.get(&1), Some(vec![42, 43]));
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
            assert_eq!(map.get(&k), Some(k * 10), "key {k}");
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
            assert_eq!(map.get(k), Some(*v));
        }
    }

    #[test]
    fn for_each_visits_every_entry_once() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        for k in 0..1000 {
            map.insert(k, k);
        }
        let mut seen = vec![false; 1000];
        map.for_each(|k, v| {
            assert_eq!(k, v);
            assert!(!seen[*k as usize], "visited twice");
            seen[*k as usize] = true;
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn for_each_mut_can_rewrite_values() {
        let map: CuckooMap<u64, u64> = CuckooMap::new();
        for k in 0..100 {
            map.insert(k, 0);
        }
        map.for_each_mut(|k, v| *v = k * 2);
        for k in 0..100 {
            assert_eq!(map.get(&k), Some(k * 2));
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
            assert_eq!(map.get(&k), Some(k + 1));
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
        let mut sum = 0u64;
        map.for_each(|_, v| sum += *v);
        assert_eq!(sum, 4_000, "each of 4 writers increments every key once");
    }

    #[test]
    fn string_keys_work() {
        let map: CuckooMap<String, u64> = CuckooMap::new();
        map.insert("alpha".into(), 1);
        map.insert("beta".into(), 2);
        assert_eq!(map.get(&"alpha".to_string()), Some(1));
        assert!(map.contains_key(&"beta".to_string()));
        assert!(!map.contains_key(&"gamma".to_string()));
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
                    _ => prop_assert_eq!(map.get(&k), reference.get(&k).copied()),
                }
                prop_assert_eq!(map.len(), reference.len());
            }
        }
    }
}
