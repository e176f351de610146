//! K-hop fan-out sampling against a graph service.
//!
//! Expands a seed batch hop by hop through [`GraphService::sample_many`]
//! into a **message-flow block**: per depth the distinct `(vertex, window)`
//! nodes in first-occurrence order, per hop a `child` table of `fanouts[d]`
//! indices into depth `d + 1` for every node of depth `d`. All occurrences
//! of a node in a level share one draw, so they root one and the same
//! sub-tree; the block holds it once, and the trainer gathers and computes
//! it once. An isolated (or degraded) node is self-padded: its children
//! index a node holding the same vertex. Two depths are left as they come.
//! Depth 0 keeps one row per seed, so labels stay positional. The last
//! depth is the concatenated child lists of the nodes above it: nothing is
//! computed per row below it, so an index there would cost a hash per slot
//! and save nothing. [`SampleOutcome::levels`] is the block expanded slot by
//! slot into the padded node flow, whose shapes are static whatever the
//! graph or the fault injector does. Both are a function of the seeds,
//! windows, graph, cache and RNG alone: requests go out in first-occurrence
//! order and no hash map is iterated. The service may be the in-process
//! `Cluster` or a `RemoteCluster` over TCP; the sampler is generic over it.
//!
//! Three serving-path optimizations, all measured by the bench harness:
//!
//! * **frontier dedup** — a node appearing `m` times in a level is sampled
//!   once and its draw reused for every occurrence (each slot's marginal
//!   distribution is unchanged because the shared draw is itself
//!   weighted); hub-heavy frontiers collapse to a fraction of the RPCs;
//! * **batch coalescing** — a level's cache misses are issued as one
//!   [`GraphService::sample_many`] call, which a remote service turns into
//!   pipelined frames instead of per-vertex round trips;
//! * **neighbor cache** — draws are served from the epoch-versioned
//!   [`NeighborCache`] when a bounded-staleness entry exists, and misses
//!   refill it. Degraded responses (failed shards) are never cached, so a
//!   healed shard serves fresh samples immediately.

use crate::cache::NeighborCache;
use crate::hash::MixMap;
use platod2gl_graph::{EdgeType, TimeWindow, VertexId};
use platod2gl_server::{GraphService, SampleRequest};
use rand::RngCore;

/// A k-hop sampler over one relation with per-hop fanouts.
#[derive(Clone, Debug)]
pub struct KHopSampler {
    pub etype: EdgeType,
    pub fanouts: Vec<usize>,
}

/// A vertex under the window its seed set.
type Node = (VertexId, Option<TimeWindow>);

/// One sampled message-flow block (module docs) plus serving-path
/// accounting.
#[derive(Clone, Debug, Default)]
pub struct SampleOutcome {
    /// `nodes[0]` are the seeds, one row each; inner depths are distinct by
    /// `(vertex, window)`; the last is the child lists of the one above.
    pub nodes: Vec<Vec<VertexId>>,
    /// Every node's window, parallel to `nodes`.
    pub windows: Vec<Vec<Option<TimeWindow>>>,
    /// `child[d][r * fanouts[d]..][..fanouts[d]]` are the rows of
    /// `nodes[d + 1]` holding the children of `nodes[d][r]`.
    pub child: Vec<Vec<u32>>,
    /// The block expanded: `levels[0]` are the seeds; `levels[d + 1]` has
    /// exactly `levels[d].len() * fanouts[d]` entries (self-padded).
    pub levels: Vec<Vec<VertexId>>,
    /// Sample requests answered degraded (failed shard): those nodes are
    /// self-padded and the block counts as degraded.
    pub degraded_samples: u64,
    /// Distinct (vertex, level) expansions performed after dedup.
    pub distinct_sampled: u64,
    /// Requests actually issued to the cluster (cache misses).
    pub cluster_requests: u64,
    /// Expansions served by the neighbor cache.
    pub cache_served: u64,
}

/// The distinct nodes of `slots` in first-occurrence order, and each slot's
/// index among them.
fn dedup(slots: impl ExactSizeIterator<Item = Node>) -> (Vec<Node>, Vec<u32>) {
    let mut index: MixMap<Node, u32> =
        MixMap::with_capacity_and_hasher(slots.len(), Default::default());
    let mut nodes = Vec::new();
    let node_of = slots
        .map(|node| {
            *index.entry(node).or_insert_with(|| {
                nodes.push(node);
                nodes.len() as u32 - 1
            })
        })
        .collect();
    (nodes, node_of)
}

/// `table`'s run of `fanout` entries for every row in `rows`, concatenated.
fn runs(table: &[u32], rows: &[u32], fanout: usize) -> Vec<u32> {
    let run = |&r: &u32| &table[r as usize * fanout..][..fanout];
    rows.iter().flat_map(run).copied().collect()
}

impl KHopSampler {
    /// Build a sampler; `fanouts` must name at least one hop.
    pub fn new(etype: EdgeType, fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "zero fanout hop");
        Self { etype, fanouts }
    }

    /// Sample one block rooted at `seeds` (no time windows).
    pub fn sample_block<S: GraphService + ?Sized>(
        &self,
        service: &S,
        cache: &NeighborCache,
        seeds: &[VertexId],
        rng: &mut dyn RngCore,
    ) -> SampleOutcome {
        self.sample_block_windowed(service, cache, seeds, &[], rng)
    }

    /// Sample one block rooted at `seeds`, each seed under its own time
    /// window.
    ///
    /// `windows` is positionally parallel to `seeds` (`&[]` means
    /// unwindowed everywhere, the [`KHopSampler::sample_block`] behavior).
    /// A node's window is inherited by every vertex it expands into, hop
    /// after hop — so a seed windowed at its event time never reaches an
    /// edge newer than that event, no matter the depth. Dedup and cache
    /// keys both fold the window in: the same hub under two windows is two
    /// distinct nodes.
    pub fn sample_block_windowed<S: GraphService + ?Sized>(
        &self,
        service: &S,
        cache: &NeighborCache,
        seeds: &[VertexId],
        windows: &[Option<TimeWindow>],
        rng: &mut dyn RngCore,
    ) -> SampleOutcome {
        assert!(
            windows.is_empty() || windows.len() == seeds.len(),
            "windows must be empty or parallel to seeds"
        );
        let slots = seeds.len() * self.fanouts.iter().product::<usize>();
        assert!(slots < u32::MAX as usize, "block too large to index");
        // Each sample issued below nests under this span, so a slow
        // request's capture shows which block expansion issued it.
        let _span = service.registry().span("pipeline.sample_block");
        let mut out = SampleOutcome::default();
        let mut seed_windows = windows.to_vec();
        seed_windows.resize(seeds.len(), None);
        // The nodes a hop expands: distinct, first occurrence first. Below
        // depth 0 they are `out.nodes[d]` itself; seeds may repeat.
        let seed_slots = seeds.iter().zip(&seed_windows).map(|(&v, &win)| (v, win));
        let (mut frontier, seed_node) = dedup(seed_slots);
        // The row of `out.nodes[d]` behind every slot of the padded level.
        let mut slot_rows: Vec<u32> = (0..seeds.len() as u32).collect();
        out.nodes.push(seeds.to_vec());
        out.windows.push(seed_windows);
        out.levels.push(seeds.to_vec());
        for (d, &fanout) in self.fanouts.iter().enumerate() {
            // Snapshot the version once per level: all of a level's cache
            // traffic is judged against the same point in time.
            let version = service.graph_version();
            // Pass 1: answer what the cache can; misses coalesce into one
            // batch so a remote service ships the whole level as pipelined
            // frames, not per-vertex round trips.
            let lookup = |&(v, win): &Node| {
                cache.lookup_windowed(v, self.etype, fanout as u32, win, version)
            };
            let cached: Vec<Option<Vec<VertexId>>> = frontier.iter().map(lookup).collect();
            let missed = frontier.iter().zip(&cached).filter(|(_, c)| c.is_none());
            let request = |(&(v, window), _)| SampleRequest {
                window,
                ..SampleRequest::new(v, self.etype, fanout)
            };
            let misses: Vec<SampleRequest> = missed.map(request).collect();
            out.distinct_sampled += frontier.len() as u64;
            out.cache_served += (frontier.len() - misses.len()) as u64;
            out.cluster_requests += misses.len() as u64;
            // Pass 2: one coalesced call for the level's misses, then every
            // node's `fanout` children under the node's window — built once
            // per node, so all its occurrences see the same children.
            let mut answers = service.sample_many(&misses, rng).into_iter();
            let mut kids: Vec<Node> = Vec::with_capacity(frontier.len() * fanout);
            for (&(v, win), cached) in frontier.iter().zip(cached) {
                // A fresh real answer goes into the cache once its
                // children are built — including "no out-edges", which is
                // knowledge; a degraded empty set is not.
                let (n, fresh) = match cached {
                    Some(n) => (n, false),
                    None => {
                        let resp = answers.next().expect("one answer per request");
                        out.degraded_samples += u64::from(resp.degraded);
                        (resp.neighbors, !resp.degraded)
                    }
                };
                if n.is_empty() {
                    // Self-loop padding, the standard GraphSAGE fallback.
                    kids.extend(std::iter::repeat_n((v, win), fanout));
                } else {
                    kids.extend(n.iter().take(fanout).map(|&u| (u, win)));
                    // Short lists (possible under degradation) fill with
                    // uniform redraws from what we have.
                    for _ in n.len()..fanout {
                        kids.push((n[rng.next_u64() as usize % n.len()], win));
                    }
                }
                if fresh {
                    cache.insert_windowed(v, self.etype, fanout as u32, win, n, version);
                }
            }
            let (next, node_of) = if d + 1 < self.fanouts.len() {
                dedup(kids.into_iter())
            } else {
                let rows = (0..kids.len() as u32).collect();
                (kids, rows)
            };
            let (vertices, windows): (Vec<_>, _) = next.iter().copied().unzip();
            out.child.push(match d {
                0 => runs(&node_of, &seed_node, fanout),
                _ => node_of,
            });
            slot_rows = runs(&out.child[d], &slot_rows, fanout);
            let level = slot_rows.iter().map(|&r| vertices[r as usize]);
            out.levels.push(level.collect());
            out.nodes.push(vertices);
            out.windows.push(windows);
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, NeighborCache};
    use platod2gl_graph::{Edge, GraphStore};
    use platod2gl_server::{Cluster, ClusterConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ET: EdgeType = EdgeType(0);

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn cluster_with_star() -> Cluster {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(3)
                .build()
                .expect("valid config"),
        );
        // 0 -> 1..=5, each i -> i*10, i*10+1.
        for i in 1..=5u64 {
            c.insert_edge(Edge::new(v(0), v(i), 1.0));
            c.insert_edge(Edge::new(v(i), v(i * 10), 1.0));
            c.insert_edge(Edge::new(v(i), v(i * 10 + 1), 1.0));
        }
        c
    }

    /// What every block must satisfy: tables of static shape and in range,
    /// every node somebody's child, inner depths distinct by `(vertex,
    /// window)`, children under their parent's window — and walking each
    /// seed's slot tree through the tables visits exactly `levels`.
    fn assert_block_invariants(out: &SampleOutcome, fanouts: &[usize]) {
        let hops = fanouts.len();
        assert_eq!(out.child.len(), hops);
        assert_eq!((out.nodes.len(), out.windows.len()), (hops + 1, hops + 1));
        for (d, &fanout) in fanouts.iter().enumerate() {
            assert_eq!(out.nodes[d].len(), out.windows[d].len());
            assert_eq!(out.child[d].len(), out.nodes[d].len() * fanout);
            let below = out.nodes[d + 1].len();
            let mut named = vec![false; below];
            for (i, &c) in out.child[d].iter().enumerate() {
                assert!((c as usize) < below, "child index out of range");
                assert_eq!(out.windows[d + 1][c as usize], out.windows[d][i / fanout]);
                named[c as usize] = true;
            }
            assert!(named.iter().all(|&n| n), "depth {} has an orphan", d + 1);
        }
        for d in 1..hops {
            let nodes = out.nodes[d].iter().zip(&out.windows[d]);
            let distinct: std::collections::HashSet<_> = nodes.collect();
            assert_eq!(distinct.len(), out.nodes[d].len(), "depth {d} repeats");
        }
        fn walk(
            out: &SampleOutcome,
            fanouts: &[usize],
            d: usize,
            row: usize,
            levels: &mut [Vec<VertexId>],
        ) {
            levels[d].push(out.nodes[d][row]);
            if let Some(&fanout) = fanouts.get(d) {
                for &c in &out.child[d][row * fanout..][..fanout] {
                    walk(out, fanouts, d + 1, c as usize, levels);
                }
            }
        }
        let mut levels = vec![Vec::new(); hops + 1];
        for seed in 0..out.nodes[0].len() {
            walk(out, fanouts, 0, seed, &mut levels);
        }
        assert_eq!(levels, out.levels);
    }

    #[test]
    fn block_shapes_are_static_and_padded() {
        let c = cluster_with_star();
        let cache = NeighborCache::new(CacheConfig::disabled());
        let sampler = KHopSampler::new(ET, vec![3, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        // Seed 999 is isolated: its whole subtree must be self-padding.
        let out = sampler.sample_block(&c, &cache, &[v(0), v(999)], &mut rng);
        assert_eq!(out.levels.len(), 3);
        assert_eq!(out.levels[1].len(), 2 * 3);
        assert_eq!(out.levels[2].len(), 6 * 2);
        assert!(out.levels[1][3..6].iter().all(|&u| u == v(999)));
        assert!(out.levels[2][6..12].iter().all(|&u| u == v(999)));
        // In the block, self-padding is three indices to one node.
        assert_block_invariants(&out, &sampler.fanouts);
        let pad = out.child[0][3] as usize;
        assert_eq!(out.child[0][3..6], [pad as u32; 3]);
        assert_eq!(out.nodes[1][pad], v(999));
        for &u in &out.levels[1][..3] {
            assert!((1..=5).contains(&u.raw()));
        }
        assert_eq!(out.degraded_samples, 0);
    }

    #[test]
    fn frontier_dedup_collapses_duplicate_requests() {
        let c = cluster_with_star();
        let cache = NeighborCache::new(CacheConfig::disabled());
        let sampler = KHopSampler::new(ET, vec![4]);
        let mut rng = StdRng::seed_from_u64(2);
        let seeds = vec![v(0); 32];
        let out = sampler.sample_block(&c, &cache, &seeds, &mut rng);
        assert_eq!(
            out.distinct_sampled, 1,
            "32 copies of one seed = 1 expansion"
        );
        assert_eq!(out.cluster_requests, 1);
        assert_eq!(out.levels[1].len(), 32 * 4);
    }

    #[test]
    fn cache_serves_repeat_blocks_without_cluster_traffic() {
        let c = cluster_with_star();
        let cache = NeighborCache::new(CacheConfig {
            capacity: 1 << 10,
            shards: 2,
            max_staleness: 8,
        });
        let sampler = KHopSampler::new(ET, vec![2, 2]);
        let mut rng = StdRng::seed_from_u64(3);
        let first = sampler.sample_block(&c, &cache, &[v(0)], &mut rng);
        assert!(first.cluster_requests > 0);
        assert_eq!(first.cache_served, 0);
        let again = sampler.sample_block(&c, &cache, &[v(0)], &mut rng);
        // Seed expansion is cached; hop-2 frontiers may differ (they are
        // the cached hop-1 draw, so they are identical -> fully served).
        assert_eq!(again.cluster_requests, 0, "{again:?}");
        assert_eq!(again.cache_served, again.distinct_sampled);
        assert_eq!(again.levels[1], first.levels[1]);
    }

    #[test]
    fn update_beyond_staleness_bound_invalidates() {
        let c = cluster_with_star();
        let cache = NeighborCache::new(CacheConfig {
            capacity: 1 << 10,
            shards: 2,
            max_staleness: 1,
        });
        let sampler = KHopSampler::new(ET, vec![2]);
        let mut rng = StdRng::seed_from_u64(4);
        sampler.sample_block(&c, &cache, &[v(0)], &mut rng);
        // Two update rounds push cached entries past the bound of 1.
        c.insert_edge(Edge::new(v(7), v(8), 1.0));
        c.insert_edge(Edge::new(v(8), v(9), 1.0));
        let out = sampler.sample_block(&c, &cache, &[v(0)], &mut rng);
        assert_eq!(out.cache_served, 0, "stale entry must not serve");
        assert!(out.cluster_requests > 0);
        assert!(cache.stats().stale_evictions > 0);
    }

    #[test]
    fn short_list_is_filled_once_for_all_occurrences() {
        // Cached answers shorter than the fanout, under a seed that occurs
        // three times and hop-1 vertices that then occur many times: the
        // redraws that fill a list are drawn once, when the list is stored
        // for its node, so every occurrence roots the same children.
        let c = cluster_with_star();
        let cache = NeighborCache::new(CacheConfig {
            capacity: 1 << 10,
            shards: 2,
            max_staleness: 8,
        });
        let version = c.graph_version();
        cache.insert_windowed(v(0), ET, 5, None, vec![v(1), v(2)], version);
        cache.insert_windowed(v(1), ET, 4, None, vec![v(10), v(11)], version);
        let sampler = KHopSampler::new(ET, vec![5, 4]);
        let mut rng = StdRng::seed_from_u64(21);
        let out = sampler.sample_block(&c, &cache, &[v(0); 3], &mut rng);
        assert_block_invariants(&out, &sampler.fanouts);
        assert_eq!(out.levels[1][..2], [v(1), v(2)]);
        let seed_runs: Vec<&[VertexId]> = out.levels[1].chunks(5).collect();
        assert!(seed_runs.iter().all(|run| *run == seed_runs[0]));
        let hop2_runs = out.levels[1].iter().zip(out.levels[2].chunks(4));
        let of_v1: Vec<&[VertexId]> = hop2_runs.filter(|(&u, _)| u == v(1)).map(|p| p.1).collect();
        assert!(of_v1.len() >= 3 && of_v1.iter().all(|run| *run == of_v1[0]));
        assert!(of_v1[0].iter().all(|u| [v(10), v(11)].contains(u)));
    }

    #[test]
    fn windowed_block_respects_time_and_propagates_hop_to_hop() {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        );
        // 0 -> i at time 10*i; each i -> 100*i at time 10*i + 5.
        for i in 1..=9u64 {
            c.insert_edge(Edge::new(v(0), v(i), 1.0).at(10 * i));
            c.insert_edge(Edge::new(v(i), v(100 * i), 1.0).at(10 * i + 5));
        }
        let cache = NeighborCache::new(CacheConfig {
            capacity: 1 << 10,
            shards: 2,
            max_staleness: 8,
        });
        let sampler = KHopSampler::new(ET, vec![6, 4]);
        let mut rng = StdRng::seed_from_u64(11);
        let win = TimeWindow::until(50);
        for _ in 0..8 {
            let out = sampler.sample_block_windowed(&c, &cache, &[v(0)], &[Some(win)], &mut rng);
            // Hop 1: only edges stamped <= 50, i.e. dst 1..=5.
            for &u in &out.levels[1] {
                assert!(
                    (1..=5).contains(&u.raw()),
                    "future edge {} leaked into hop 1",
                    u.raw()
                );
            }
            // Hop 2 inherits the seed's window: i -> 100*i is stamped
            // 10*i + 5, in-window only for i <= 4 — a hop-2 slot is either
            // an allowed grandchild or self-loop padding.
            for (j, &u) in out.levels[2].iter().enumerate() {
                let parent = out.levels[1][j / 4];
                assert!(
                    u == parent || (u.raw() % 100 == 0 && u.raw() / 100 <= 4),
                    "future edge {} leaked into hop 2",
                    u.raw()
                );
            }
        }
        // The same seed unwindowed draws from the full neighborhood and
        // must not be served from the windowed entries.
        let unbounded = sampler.sample_block(&c, &cache, &[v(0)], &mut rng);
        assert!(unbounded.levels[1].iter().any(|&u| u.raw() > 5));
    }

    #[test]
    fn degraded_shard_pads_and_is_never_cached() {
        let c = cluster_with_star();
        let cache = NeighborCache::new(CacheConfig {
            capacity: 1 << 10,
            shards: 2,
            max_staleness: 8,
        });
        // Find a populated vertex on shard 1 and fail that shard.
        let dead = (1..=5u64).map(v).find(|&u| c.route(u) == 1);
        let Some(dead) = dead else {
            return; // routing put nothing on shard 1 at this scale
        };
        c.faults().fail_shard(1);
        let sampler = KHopSampler::new(ET, vec![3]);
        let mut rng = StdRng::seed_from_u64(5);
        let out = sampler.sample_block(&c, &cache, &[dead, dead], &mut rng);
        assert_eq!(out.degraded_samples, 1, "one request for both occurrences");
        assert!(out.levels[1].iter().all(|&u| u == dead), "self-padded");
        assert_block_invariants(&out, &sampler.fanouts);
        // Heal and resample: the degraded answer must not have stuck.
        c.heal_shard(1);
        let out = sampler.sample_block(&c, &cache, &[dead], &mut rng);
        assert_eq!(out.degraded_samples, 0);
        assert!(out.levels[1].iter().all(|&u| u != dead), "real neighbors");
    }

    /// A stamped 400-vertex graph whose out-edges lean on forty hubs, so
    /// every level repeats vertices; 380.. have no out-edges.
    fn hub_cluster() -> Cluster {
        let c = Cluster::new(
            ClusterConfig::builder()
                .num_shards(3)
                .build()
                .expect("valid config"),
        );
        let mut state = 0x5eed_1234_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for src in 0..380u64 {
            for _ in 0..1 + next() % 8 {
                let dst = if next() % 4 == 0 {
                    next() % 380
                } else {
                    next() % 40
                };
                let w = 0.5 + (next() % 16) as f64 / 8.0;
                c.insert_edge(Edge::new(v(src), v(dst), w).at(1 + next() % 1000));
            }
        }
        c
    }

    /// FNV-1a over everything an outcome exposed at the parent commit, then
    /// the RNG's next output (so the draws consumed are part of the digest).
    fn digest(out: &SampleOutcome, rng: &mut StdRng) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(out.levels.len() as u64);
        for level in &out.levels {
            eat(level.len() as u64);
            level.iter().for_each(|u| eat(u.raw()));
        }
        eat(out.degraded_samples);
        eat(out.distinct_sampled);
        eat(out.cluster_requests);
        eat(out.cache_served);
        eat(rng.next_u64());
        h
    }

    /// Recorded at the parent commit (padded slot-by-slot sampler): the
    /// block sampler must reproduce every level, counter and RNG draw.
    #[test]
    fn outcomes_are_byte_identical_to_the_padded_sampler() {
        let c = hub_cluster();
        let warm = || {
            NeighborCache::new(CacheConfig {
                capacity: 1 << 12,
                shards: 2,
                max_staleness: 8,
            })
        };
        let cold = NeighborCache::new(CacheConfig::disabled());
        let spread: Vec<VertexId> = (0..64u64).map(|i| v(i * 37 % 380)).collect();
        let until = |t| Some(TimeWindow::until(t));
        let mut got = Vec::new();
        let mut record = |out: SampleOutcome, rng: &mut StdRng| {
            assert_eq!(out.degraded_samples, 0);
            let fanouts: Vec<usize> = out
                .child
                .iter()
                .zip(&out.nodes)
                .map(|(c, n)| c.len() / n.len())
                .collect();
            assert_block_invariants(&out, &fanouts);
            got.push(digest(&out, rng));
        };

        // Unwindowed, three hops, no cache.
        let deep = KHopSampler::new(ET, vec![5, 4, 3]);
        let mut rng = StdRng::seed_from_u64(101);
        record(deep.sample_block(&c, &cold, &spread, &mut rng), &mut rng);

        // Per-seed windows; early windows admit nothing and self-pad.
        let two = KHopSampler::new(ET, vec![6, 5]);
        let windows: Vec<_> = (0..64u64).map(|i| until(20 * i)).collect();
        let mut rng = StdRng::seed_from_u64(102);
        let cache = warm();
        record(
            two.sample_block_windowed(&c, &cache, &spread, &windows, &mut rng),
            &mut rng,
        );

        // Duplicate seeds, one of them under two windows, and isolated ones.
        let seeds = [3, 3, 9, 3, 390, 9, 3, 395, 390, 17].map(v);
        let windows = [500, 500, 900, 700, 500, 900, 500, 100, 500, 1000].map(until);
        let mut rng = StdRng::seed_from_u64(103);
        record(
            two.sample_block_windowed(&c, &cold, &seeds, &windows, &mut rng),
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(104);
        record(deep.sample_block(&c, &cold, &seeds, &mut rng), &mut rng);
        let one = KHopSampler::new(ET, vec![7]);
        record(one.sample_block(&c, &cold, &seeds, &mut rng), &mut rng);

        // Warm cache: the second block is served partly from the first's.
        let cache = warm();
        let mut rng = StdRng::seed_from_u64(105);
        record(two.sample_block(&c, &cache, &spread, &mut rng), &mut rng);
        let shifted: Vec<VertexId> = (8..72u64).map(|i| v(i * 37 % 380)).collect();
        let again = two.sample_block(&c, &cache, &shifted, &mut rng);
        assert!(again.cache_served > 0 && again.cluster_requests > 0);
        record(again, &mut rng);

        assert_eq!(got, GOLDEN, "{got:#018x?}");
    }

    const GOLDEN: [u64; 7] = [
        0x9ac8_f73f_8da9_1bba,
        0x6b7f_1ace_1bc5_b39e,
        0x02a7_ad96_79b2_a717,
        0xb2b3_8f9e_bfd3_3147,
        0x3274_43a8_84b6_3175,
        0x26d8_9182_4157_236b,
        0xdf84_4600_9cb4_11ec,
    ];
}
