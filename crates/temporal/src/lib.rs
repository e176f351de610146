//! # Temporal graph plane: the recency-decay maintenance worker
//!
//! Dynamic interaction graphs age: an edge observed a week ago should
//! carry less sampling weight than one observed a minute ago, or hub
//! neighborhoods ossify around stale interests. PlatoD2GL keeps event
//! times as a first-class per-edge column inside the samtree leaves
//! ([`DynamicGraphStore::edge_ts`]); this crate turns those timestamps
//! into weights with the standard exponential recency kernel
//!
//! ```text
//!   w' = max(w · exp(-λ · (now - ts)), floor)
//! ```
//!
//! applied **in place** through the samtree's floored FSTable update
//! ([`DynamicGraphStore::decay_recency`]) — one walk over the source's
//! leaves, `O(log n)` per touched edge, no rebuild, and the inverse-CDF
//! sampling invariant (all weights strictly positive once set) is
//! preserved by the clamp.
//!
//! A full-store sweep is too expensive to run inline with training, so
//! [`RecencyDecay`] amortizes it: each [`RecencyDecay::tick`] decays at
//! most [`DecayConfig::batch_sources`] source neighborhoods, resuming
//! from a persistent `(src, etype)` cursor, and reports when a sweep
//! wraps. Interleave ticks with update batches (or run them from a
//! maintenance thread) and the whole store decays continuously at a
//! bounded per-tick cost.
//!
//! Everything the worker does is counted under `temporal.*` in the
//! store's observability registry, next to the sampler's
//! `temporal.window_retries` / `temporal.window_fallbacks`.

use platod2gl_graph::{EdgeType, Error, VertexId};
use platod2gl_obs::{Counter, Registry};
use platod2gl_storage::DynamicGraphStore;
use std::sync::Arc;

/// Recency-decay policy.
#[derive(Clone, Copy, Debug)]
pub struct DecayConfig {
    /// Decay rate per time unit: an edge `Δt` old keeps `exp(-λ·Δt)` of
    /// its weight. `0` disables decay (ticks become no-ops).
    pub lambda: f64,
    /// Strictly positive weight floor. Decay clamps here instead of
    /// driving weights to (or past) zero, so every aged edge remains
    /// drawable and the FSTable never underflows.
    pub floor: f64,
    /// Source neighborhoods decayed per [`RecencyDecay::tick`] — the
    /// amortization knob.
    pub batch_sources: usize,
}

impl Default for DecayConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            floor: 1e-6,
            batch_sources: 64,
        }
    }
}

impl DecayConfig {
    /// Validate the policy.
    pub fn validated(self) -> Result<Self, Error> {
        if !self.lambda.is_finite() || self.lambda < 0.0 {
            return Err(Error::invalid_config(
                "decay lambda must be finite and >= 0",
            ));
        }
        if !self.floor.is_finite() || self.floor <= 0.0 {
            return Err(Error::invalid_config(
                "decay floor must be finite and strictly positive",
            ));
        }
        if self.batch_sources == 0 {
            return Err(Error::invalid_config("batch_sources must be at least 1"));
        }
        Ok(self)
    }
}

/// What one [`RecencyDecay::tick`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecayTick {
    /// Source neighborhoods visited this tick.
    pub sources: usize,
    /// Edges examined across those sources.
    pub scanned: usize,
    /// Edges whose weight actually shrank.
    pub decayed: usize,
    /// Edges clamped at the floor this tick.
    pub floored: usize,
    /// This tick reached the end of the directory: the sweep wrapped and
    /// the next tick starts a fresh pass.
    pub sweep_completed: bool,
}

/// The amortized recency-decay worker. One instance per store; keeps the
/// resume cursor between ticks.
pub struct RecencyDecay {
    cfg: DecayConfig,
    /// Resume strictly after this `(src, etype)` key; `None` starts a
    /// fresh sweep.
    cursor: Option<(u64, u16)>,
    batches: Arc<Counter>,
    sources: Arc<Counter>,
    scanned: Arc<Counter>,
    decayed: Arc<Counter>,
    floored: Arc<Counter>,
    sweeps: Arc<Counter>,
}

impl RecencyDecay {
    /// Build a worker, registering its counters as `temporal.*` in
    /// `registry` (pass the store's registry so decay telemetry lands next
    /// to sampling telemetry).
    pub fn new(cfg: DecayConfig, registry: &Registry) -> Result<Self, Error> {
        let cfg = cfg.validated()?;
        Ok(Self {
            cfg,
            cursor: None,
            batches: registry.counter("temporal.decay_batches"),
            sources: registry.counter("temporal.decay_sources"),
            scanned: registry.counter("temporal.scanned_edges"),
            decayed: registry.counter("temporal.decayed_edges"),
            floored: registry.counter("temporal.floored_edges"),
            sweeps: registry.counter("temporal.decay_sweeps"),
        })
    }

    /// The policy in effect.
    pub fn config(&self) -> &DecayConfig {
        &self.cfg
    }

    /// Where the next tick resumes (`None` = start of a sweep).
    pub fn cursor(&self) -> Option<(u64, u16)> {
        self.cursor
    }

    /// Decay up to `batch_sources` source neighborhoods at time `now`,
    /// resuming from the cursor. Timeless (`ts == 0`) edges are never
    /// touched; neither are edges stamped at or after `now`. A tick that
    /// changes a weight counts once in the store's
    /// [`DynamicGraphStore::decay_ticks`], which a cluster adds to its graph
    /// version so cached draws go stale.
    pub fn tick(&mut self, store: &DynamicGraphStore, now: u64) -> DecayTick {
        let mut out = DecayTick::default();
        if self.cfg.lambda == 0.0 {
            return out;
        }
        // Census under the directory's shard locks: keys only, sorted so
        // the cursor is a total order and a wrapping sweep visits every
        // resident source exactly once (new sources racing in land in the
        // next sweep at the latest).
        let mut keys: Vec<(u64, u16)> = Vec::new();
        store.for_each_source(|src, etype, _len| {
            let key = (src.raw(), etype.0);
            if self.cursor.is_none_or(|cur| key > cur) {
                keys.push(key);
            }
        });
        keys.sort_unstable();
        let take = keys.len().min(self.cfg.batch_sources);
        for &(src, etype) in &keys[..take] {
            let o = store.decay_recency(
                VertexId(src),
                EdgeType(etype),
                now,
                self.cfg.lambda,
                self.cfg.floor,
            );
            out.sources += 1;
            out.scanned += o.scanned;
            out.decayed += o.decayed;
            out.floored += o.floored;
        }
        out.sweep_completed = take == keys.len();
        self.cursor = if out.sweep_completed {
            None
        } else {
            keys[..take].last().copied().or(self.cursor)
        };
        if out.decayed > 0 {
            store.record_decay_tick();
        }
        self.batches.inc();
        self.sources.add(out.sources as u64);
        self.scanned.add(out.scanned as u64);
        self.decayed.add(out.decayed as u64);
        self.floored.add(out.floored as u64);
        if out.sweep_completed {
            self.sweeps.inc();
        }
        out
    }

    /// Run ticks until one sweep completes; returns the aggregate. Handy
    /// for maintenance windows and tests; production interleaves
    /// [`RecencyDecay::tick`] with update traffic instead.
    pub fn run_sweep(&mut self, store: &DynamicGraphStore, now: u64) -> DecayTick {
        let mut total = DecayTick::default();
        loop {
            let t = self.tick(store, now);
            total.sources += t.sources;
            total.scanned += t.scanned;
            total.decayed += t.decayed;
            total.floored += t.floored;
            if t.sweep_completed {
                total.sweep_completed = true;
                return total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::{Edge, GraphStore};
    use platod2gl_storage::StoreConfig;

    const ET: EdgeType = EdgeType(0);

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn stamped_store(sources: u64) -> DynamicGraphStore {
        let store = DynamicGraphStore::new(StoreConfig::default());
        for s in 0..sources {
            // Edge ages spread across [0, 900]; one timeless edge per
            // source as the control group.
            for d in 1..=9u64 {
                store.insert_edge(Edge::new(v(s), v(1000 + d), 1.0).at(100 * d));
            }
            store.insert_edge(Edge::new(v(s), v(2000), 1.0));
        }
        store
    }

    #[test]
    fn config_validation_rejects_bad_policies() {
        assert!(DecayConfig::default().validated().is_ok());
        for bad in [
            DecayConfig {
                lambda: -1.0,
                ..DecayConfig::default()
            },
            DecayConfig {
                lambda: f64::NAN,
                ..DecayConfig::default()
            },
            DecayConfig {
                floor: 0.0,
                ..DecayConfig::default()
            },
            DecayConfig {
                batch_sources: 0,
                ..DecayConfig::default()
            },
        ] {
            assert!(bad.validated().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_decays_stamped_edges_and_spares_timeless_ones() {
        let store = stamped_store(4);
        let registry = Registry::new();
        let mut worker = RecencyDecay::new(
            DecayConfig {
                lambda: 1e-3,
                floor: 1e-6,
                batch_sources: 64,
            },
            &registry,
        )
        .expect("valid policy");
        let total = worker.run_sweep(&store, 1_000);
        assert!(total.sweep_completed);
        assert_eq!(total.sources, 4);
        assert_eq!(total.decayed, 4 * 9, "every stamped edge shrank");
        for s in 0..4u64 {
            // The older the edge, the smaller the weight.
            let mut prev = 0.0;
            for d in 1..=9u64 {
                let w = store.edge_weight(v(s), v(1000 + d), ET).expect("present");
                let expect = (-1e-3 * (1_000 - 100 * d) as f64).exp();
                assert!((w - expect).abs() < 1e-12, "w={w} expect={expect}");
                assert!(w > prev);
                prev = w;
            }
            // Timeless control edge untouched.
            assert_eq!(store.edge_weight(v(s), v(2000), ET), Some(1.0));
        }
    }

    #[test]
    fn ticks_amortize_and_the_cursor_wraps() {
        let store = stamped_store(10);
        let registry = Registry::new();
        let mut worker = RecencyDecay::new(
            DecayConfig {
                batch_sources: 3,
                ..DecayConfig::default()
            },
            &registry,
        )
        .expect("valid policy");
        let mut sources = 0;
        let mut ticks = 0;
        loop {
            let t = worker.tick(&store, 1_000);
            assert!(t.sources <= 3, "tick exceeded its batch bound");
            sources += t.sources;
            ticks += 1;
            if t.sweep_completed {
                break;
            }
            assert!(worker.cursor().is_some());
        }
        assert_eq!(sources, 10, "each source visited exactly once per sweep");
        assert_eq!(ticks, 4, "10 sources at batch 3 = 4 ticks");
        assert_eq!(worker.cursor(), None, "sweep wrap resets the cursor");
        assert_eq!(registry.counter("temporal.decay_sweeps").get(), 1);
        assert_eq!(registry.counter("temporal.decay_sources").get(), 10);
    }

    #[test]
    fn aggressive_decay_clamps_at_the_floor_and_stays_samplable() {
        let store = stamped_store(1);
        let registry = Registry::new();
        let mut worker = RecencyDecay::new(
            DecayConfig {
                lambda: 10.0,
                floor: 1e-6,
                batch_sources: 64,
            },
            &registry,
        )
        .expect("valid policy");
        // Two sweeps: the second finds everything already at the floor.
        let first = worker.run_sweep(&store, 10_000);
        assert_eq!(first.floored, 9);
        let second = worker.run_sweep(&store, 10_000);
        assert_eq!(second.decayed, 0, "floored edges never decay further");
        for d in 1..=9u64 {
            // Prefix-sum readback noise: at the floor within a few ULPs.
            let w = store.edge_weight(v(0), v(1000 + d), ET).expect("present");
            assert!((w - 1e-6).abs() <= 1e-9 * 1e-6, "w={w}");
        }
        // The neighborhood still samples (weights all strictly positive).
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let picks = store.sample_neighbors(v(0), ET, 16, &mut rng);
        assert_eq!(picks.len(), 16);
    }

    #[test]
    fn zero_lambda_is_a_no_op() {
        let store = stamped_store(2);
        let registry = Registry::new();
        let mut worker = RecencyDecay::new(
            DecayConfig {
                lambda: 0.0,
                ..DecayConfig::default()
            },
            &registry,
        )
        .expect("valid policy");
        let t = worker.tick(&store, 10_000);
        assert_eq!(t, DecayTick::default());
        assert_eq!(store.edge_weight(v(0), v(1001), ET), Some(1.0));
    }
}
