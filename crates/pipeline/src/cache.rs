//! Epoch-versioned neighbor cache with bounded staleness.
//!
//! The sampling path dominates dynamic-graph GNN training (the motivation
//! for the paper's FTS index and the GLISP/FAST pipelines in PAPERS.md):
//! every k-hop expansion re-asks the cluster for the same hub vertices over
//! and over. This cache keeps recent sampled neighbor lists keyed by
//! `(vertex, etype, fanout)` and invalidates them with the cluster's
//! [graph version](platod2gl_server::Cluster::graph_version) rather than a
//! wall clock: an entry inserted at version `v` may be served while
//! `now - v <= max_staleness`, i.e. while at most `max_staleness` update
//! rounds landed since the sample was drawn. That gives *bounded-staleness*
//! reads under a concurrent update stream — the trainer never consumes a
//! neighborhood more than a configured number of versions old, and a quiet
//! graph caches forever.
//!
//! Eviction is a two-generation (segmented) LRU: lookups promote entries to
//! the hot generation, inserts land hot, and when the hot generation fills
//! half a shard's budget the cold generation is dropped wholesale. Every
//! operation is O(1) and the cache is sharded by key hash so prefetch
//! workers do not serialize on one lock.

use crate::hash::MixMap;
use platod2gl_graph::{splitmix64, EdgeType, TimeWindow, VertexId};
use platod2gl_obs::{Counter, Registry};
use std::sync::{Arc, Mutex};

/// Cache sizing and staleness policy.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum cached entries across all shards. `0` disables the cache
    /// (every lookup misses, inserts are dropped).
    pub capacity: usize,
    /// Number of independently locked shards.
    pub shards: usize,
    /// How many graph versions an entry may lag behind the cluster before
    /// it stops being served: `0` means entries die on the first update
    /// round after insertion, `k` means reads may be up to `k` update
    /// rounds stale.
    pub max_staleness: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 15,
            shards: 8,
            max_staleness: 4,
        }
    }
}

impl CacheConfig {
    /// A disabled cache (all lookups miss).
    pub fn disabled() -> Self {
        Self {
            capacity: 0,
            ..Self::default()
        }
    }
}

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an entry at the current graph version.
    pub hits: u64,
    /// Lookups served from an entry older than the current version but
    /// within the staleness bound.
    pub stale_hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries dropped because they exceeded the staleness bound.
    pub stale_evictions: u64,
    /// Entries dropped by generation rotation (capacity pressure).
    pub capacity_evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.stale_hits + self.misses
    }

    /// Fraction of lookups served from cache (fresh or bounded-stale).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (self.hits + self.stale_hits) as f64 / lookups as f64
    }
}

/// Cache key. The time window is part of the key: a windowed sample is a
/// *different* population than an unwindowed one over the same `(vertex,
/// etype, fanout)`, and serving one for the other would leak future edges
/// into a temporal batch (or starve an unwindowed batch of them).
type Key = (VertexId, EdgeType, u32, Option<TimeWindow>);

struct Entry {
    neighbors: Vec<VertexId>,
    /// Graph version at which the sample was drawn.
    version: u64,
}

/// One locked shard: a two-generation segmented LRU.
struct Segment {
    hot: MixMap<Key, Entry>,
    cold: MixMap<Key, Entry>,
}

/// Sharded, epoch-versioned neighbor cache.
///
/// Counters live in the shared observability registry when built with
/// [`NeighborCache::with_registry`] (names `pipeline.cache.*`), so one
/// snapshot shows cache behavior next to cluster and storage metrics;
/// [`NeighborCache::new`] keeps them private to this instance.
pub struct NeighborCache {
    cfg: CacheConfig,
    /// Entry budget of one shard's hot generation (half the shard budget).
    half_cap: usize,
    segments: Vec<Mutex<Segment>>,
    hits: Arc<Counter>,
    stale_hits: Arc<Counter>,
    misses: Arc<Counter>,
    stale_evictions: Arc<Counter>,
    capacity_evictions: Arc<Counter>,
    insertions: Arc<Counter>,
}

fn key_hash(key: &Key) -> u64 {
    let base = splitmix64(key.0.raw() ^ (u64::from(key.1 .0) << 48) ^ (u64::from(key.2) << 32));
    match key.3 {
        None => base,
        // Mix both bounds in so adjacent windows land on different shards.
        Some(w) => splitmix64(base ^ splitmix64(w.min_ts) ^ w.max_ts),
    }
}

impl NeighborCache {
    /// Build a cache with instance-private counters; `shards` is clamped to
    /// at least 1.
    pub fn new(cfg: CacheConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Build a cache whose counters are registered as `pipeline.cache.*`
    /// in `registry`.
    pub fn with_registry(cfg: CacheConfig, registry: &Registry) -> Self {
        Self::build(cfg, Some(registry))
    }

    fn build(cfg: CacheConfig, registry: Option<&Registry>) -> Self {
        let shards = cfg.shards.max(1);
        let half_cap = (cfg.capacity / shards / 2).max(1);
        let counter = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Arc::new(Counter::default()),
        };
        Self {
            cfg,
            half_cap,
            segments: (0..shards)
                .map(|_| {
                    Mutex::new(Segment {
                        hot: MixMap::default(),
                        cold: MixMap::default(),
                    })
                })
                .collect(),
            hits: counter("pipeline.cache.hits"),
            stale_hits: counter("pipeline.cache.stale_hits"),
            misses: counter("pipeline.cache.misses"),
            stale_evictions: counter("pipeline.cache.stale_evictions"),
            capacity_evictions: counter("pipeline.cache.capacity_evictions"),
            insertions: counter("pipeline.cache.insertions"),
        }
    }

    /// Whether the cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.cfg.capacity > 0
    }

    /// The configured staleness bound.
    pub fn max_staleness(&self) -> u64 {
        self.cfg.max_staleness
    }

    /// Entries currently resident (sum over generations and shards).
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| {
                let seg = s.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                seg.hot.len() + seg.cold.len()
            })
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn segment(&self, key: &Key) -> std::sync::MutexGuard<'_, Segment> {
        let idx = (key_hash(key) % self.segments.len() as u64) as usize;
        self.segments[idx]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// `true` when an entry drawn at `version` may still be served at
    /// graph version `now`.
    fn servable(&self, version: u64, now: u64) -> bool {
        now.saturating_sub(version) <= self.cfg.max_staleness
    }

    /// Rotate generations when the hot one is full: the hot generation
    /// turns cold and the old cold one, emptied, becomes the new hot one,
    /// so both tables keep their allocations.
    fn maybe_rotate(&self, seg: &mut Segment) {
        if seg.hot.len() >= self.half_cap {
            std::mem::swap(&mut seg.hot, &mut seg.cold);
            let dropped = seg.hot.len();
            seg.hot.clear();
            if dropped > 0 {
                self.capacity_evictions.add(dropped as u64);
            }
        }
    }

    /// Look up a sampled neighbor list for `(v, etype, fanout)` at the
    /// current graph version `now`. Serves entries within the staleness
    /// bound (promoting them to the hot generation) and drops entries
    /// beyond it. An unwindowed sample is `window: None`; see
    /// [`NeighborCache::lookup_windowed`] for the temporal path.
    pub fn lookup(
        &self,
        v: VertexId,
        etype: EdgeType,
        fanout: u32,
        now: u64,
    ) -> Option<Vec<VertexId>> {
        self.lookup_windowed(v, etype, fanout, None, now)
    }

    /// [`NeighborCache::lookup`] with the time window folded into the key:
    /// windowed and unwindowed samples of the same vertex never alias.
    pub fn lookup_windowed(
        &self,
        v: VertexId,
        etype: EdgeType,
        fanout: u32,
        window: Option<TimeWindow>,
        now: u64,
    ) -> Option<Vec<VertexId>> {
        if !self.enabled() {
            self.misses.inc();
            return None;
        }
        let key = (v, etype, fanout, window);
        let mut seg = self.segment(&key);
        if let Some(entry) = seg.hot.get(&key) {
            if self.servable(entry.version, now) {
                let counter = if entry.version >= now {
                    &self.hits
                } else {
                    &self.stale_hits
                };
                counter.inc();
                return Some(entry.neighbors.clone());
            }
            seg.hot.remove(&key);
            self.stale_evictions.inc();
            self.misses.inc();
            return None;
        }
        if let Some(entry) = seg.cold.remove(&key) {
            if self.servable(entry.version, now) {
                let counter = if entry.version >= now {
                    &self.hits
                } else {
                    &self.stale_hits
                };
                counter.inc();
                let neighbors = entry.neighbors.clone();
                seg.hot.insert(key, entry);
                self.maybe_rotate(&mut seg);
                return Some(neighbors);
            }
            self.stale_evictions.inc();
        }
        self.misses.inc();
        None
    }

    /// Insert a neighbor list sampled at graph version `version` (no time
    /// window).
    pub fn insert(
        &self,
        v: VertexId,
        etype: EdgeType,
        fanout: u32,
        neighbors: Vec<VertexId>,
        version: u64,
    ) {
        self.insert_windowed(v, etype, fanout, None, neighbors, version)
    }

    /// [`NeighborCache::insert`] under a windowed key.
    pub fn insert_windowed(
        &self,
        v: VertexId,
        etype: EdgeType,
        fanout: u32,
        window: Option<TimeWindow>,
        neighbors: Vec<VertexId>,
        version: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let key = (v, etype, fanout, window);
        let mut seg = self.segment(&key);
        seg.cold.remove(&key);
        seg.hot.insert(key, Entry { neighbors, version });
        self.maybe_rotate(&mut seg);
        self.insertions.inc();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            stale_hits: self.stale_hits.get(),
            misses: self.misses.get(),
            stale_evictions: self.stale_evictions.get(),
            capacity_evictions: self.capacity_evictions.get(),
            insertions: self.insertions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ET: EdgeType = EdgeType(0);

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn cache(capacity: usize, max_staleness: u64) -> NeighborCache {
        NeighborCache::new(CacheConfig {
            capacity,
            shards: 2,
            max_staleness,
        })
    }

    #[test]
    fn serves_within_staleness_bound_only() {
        let c = cache(64, 2);
        c.insert(v(1), ET, 4, vec![v(10), v(11)], 5);
        // Fresh at the insertion version.
        assert_eq!(c.lookup(v(1), ET, 4, 5), Some(vec![v(10), v(11)]));
        // Stale-but-bounded at versions 6 and 7.
        assert!(c.lookup(v(1), ET, 4, 6).is_some());
        assert!(c.lookup(v(1), ET, 4, 7).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.stale_hits, 2);
        // Beyond the bound: must miss and evict.
        assert_eq!(c.lookup(v(1), ET, 4, 8), None);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.stale_evictions, 1);
        // Evicted for good — a later in-bound version cannot resurrect it.
        assert_eq!(c.lookup(v(1), ET, 4, 6), None);
    }

    #[test]
    fn key_includes_etype_and_fanout() {
        let c = cache(64, 10);
        c.insert(v(1), ET, 4, vec![v(10)], 0);
        assert!(c.lookup(v(1), EdgeType(1), 4, 0).is_none());
        assert!(c.lookup(v(1), ET, 8, 0).is_none());
        assert!(c.lookup(v(1), ET, 4, 0).is_some());
    }

    #[test]
    fn windowed_and_unwindowed_entries_never_alias() {
        let c = cache(64, 10);
        let win = TimeWindow::new(100, 200);
        let other = TimeWindow::new(100, 201);
        // Same (vertex, etype, fanout), three distinct populations.
        c.insert(v(1), ET, 4, vec![v(10)], 0);
        c.insert_windowed(v(1), ET, 4, Some(win), vec![v(20)], 0);
        // An unwindowed lookup must not see the windowed entry and vice
        // versa — aliasing here would leak future edges into a temporal
        // batch.
        assert_eq!(c.lookup(v(1), ET, 4, 0), Some(vec![v(10)]));
        assert_eq!(
            c.lookup_windowed(v(1), ET, 4, Some(win), 0),
            Some(vec![v(20)])
        );
        // A *different* window is a different key too.
        assert!(c.lookup_windowed(v(1), ET, 4, Some(other), 0).is_none());
        // Inserting the windowed entry did not clobber the unwindowed one.
        assert_eq!(c.lookup(v(1), ET, 4, 0), Some(vec![v(10)]));
    }

    #[test]
    fn disabled_cache_never_serves() {
        let c = cache(0, 10);
        c.insert(v(1), ET, 4, vec![v(10)], 0);
        assert!(c.lookup(v(1), ET, 4, 0).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn capacity_rotation_bounds_residency() {
        // capacity 8 over 2 shards -> hot budget 2 per shard, total
        // residency can never exceed capacity.
        let c = cache(8, 100);
        for i in 0..1_000u64 {
            c.insert(v(i), ET, 4, vec![v(i + 1)], 0);
        }
        assert!(c.len() <= 8, "resident {} > capacity", c.len());
        assert!(c.stats().capacity_evictions > 0);
    }

    #[test]
    fn rotations_evict_exactly_one_generation() {
        // One shard, capacity 8: the hot generation rotates at 4 entries.
        let c = NeighborCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
            max_staleness: 100,
        });
        for i in 0..20u64 {
            c.insert(v(i), ET, 4, vec![v(i + 100)], 0);
            let rotations = (i + 1) / 4;
            let s = c.stats();
            assert_eq!(s.insertions, i + 1);
            // Every rotation after the first drops a full cold generation.
            assert_eq!(s.capacity_evictions, 4 * rotations.saturating_sub(1));
            assert!(c.len() <= 8, "resident {} after insert {i}", c.len());
            assert_eq!(c.len() as u64, i + 1 - s.capacity_evictions);
        }
        // 20 inserts = 5 rotations: keys 0..16 are gone, 16..20 are cold.
        assert_eq!(c.lookup(v(15), ET, 4, 0), None, "rotated-out key misses");
        assert_eq!(c.lookup(v(0), ET, 4, 0), None);
        assert_eq!(c.lookup(v(16), ET, 4, 0), Some(vec![v(116)]));
        assert_eq!(c.lookup(v(19), ET, 4, 0), Some(vec![v(119)]));
        assert_eq!(c.stats().capacity_evictions, 16);
    }

    #[test]
    fn lookups_promote_across_generations() {
        let c = NeighborCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
            max_staleness: 100,
        });
        // hot budget = 4. Fill hot, rotate it cold, then keep touching one
        // key: it must survive rotations that drop untouched keys.
        for i in 0..4u64 {
            c.insert(v(i), ET, 4, vec![v(100 + i)], 0);
        }
        for i in 4..12u64 {
            assert!(c.lookup(v(0), ET, 4, 0).is_some(), "key 0 at insert {i}");
            c.insert(v(i), ET, 4, vec![v(100 + i)], 0);
        }
        assert!(c.lookup(v(0), ET, 4, 0).is_some());
        assert!(
            c.lookup(v(5), ET, 4, 0).is_none(),
            "untouched key rotated out"
        );
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let c = cache(1 << 10, 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = v((t * 37 + i) % 128);
                        if c.lookup(key, ET, 4, i / 100).is_none() {
                            c.insert(key, ET, 4, vec![v(i)], i / 100);
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.lookups(), 8_000);
        assert!(s.hits + s.stale_hits > 0);
    }
}
