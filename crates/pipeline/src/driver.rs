//! The trainer driver: batching, prefetch, and per-stage telemetry.
//!
//! A training epoch is a three-stage pipeline:
//!
//! ```text
//!   sample (k-hop vs cluster+cache) -> gather (features) -> train (SGD)
//! ```
//!
//! Sample and gather are read-only against shared state (`&Cluster`,
//! `&NeighborCache`, `&dyn FeatureProvider`) so they can run on worker
//! threads; train mutates the model and always runs on the caller's
//! thread. With `prefetch_depth > 0` two workers produce finished
//! blocks into a bounded channel — when the trainer falls behind, the
//! channel fills and the workers block on `send`, which is the
//! backpressure bound: at most `prefetch_depth + 2` blocks exist
//! beyond the one being trained.

use crate::cache::{CacheConfig, CacheStats, NeighborCache};
use crate::sampler::KHopSampler;
use platod2gl_gnn::{gather_features, FeatureProvider, Matrix, SageNet};
use platod2gl_graph::{splitmix64, EdgeType, Error, TimeWindow, VertexId};
use platod2gl_obs::{Counter, Histogram};
use platod2gl_server::{Cluster, GraphService, HistogramSnapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Producer threads when prefetching (capped by the epoch's batch count).
const WORKERS: usize = 2;

/// Pipeline shape: what to sample, how to batch, how far to run ahead.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Relation to expand over.
    pub etype: EdgeType,
    /// Per-hop fanouts; must match the model's
    /// [`SageNetConfig::fanouts`](platod2gl_gnn::SageNetConfig).
    pub fanouts: Vec<usize>,
    /// Seeds per mini-batch.
    pub batch_size: usize,
    /// Bounded channel capacity between workers and the trainer.
    /// `0` disables prefetch: sample/gather/train run inline.
    pub prefetch_depth: usize,
    /// Neighbor-cache shape ([`CacheConfig::disabled`] turns it off).
    pub cache: CacheConfig,
    /// Base RNG seed; worker streams derive from `(seed, epoch, worker)`.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            etype: EdgeType::DEFAULT,
            fanouts: vec![5, 5],
            batch_size: 64,
            prefetch_depth: 4,
            cache: CacheConfig::default(),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl PipelineConfig {
    /// Start building a validated configuration.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`PipelineConfig`] that validates at [`build`] time.
///
/// [`build`]: PipelineConfigBuilder::build
#[derive(Clone, Debug)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Relation to expand over.
    pub fn etype(mut self, etype: EdgeType) -> Self {
        self.config.etype = etype;
        self
    }

    /// Per-hop fanouts.
    pub fn fanouts(mut self, fanouts: Vec<usize>) -> Self {
        self.config.fanouts = fanouts;
        self
    }

    /// Seeds per mini-batch.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.config.batch_size = n;
        self
    }

    /// Bounded channel capacity between workers and the trainer.
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.config.prefetch_depth = depth;
        self
    }

    /// Neighbor-cache shape.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<PipelineConfig, Error> {
        let c = self.config;
        if c.fanouts.is_empty() {
            return Err(Error::invalid_config("fanouts must name at least one hop"));
        }
        if c.fanouts.contains(&0) {
            return Err(Error::invalid_config("every hop fanout must be non-zero"));
        }
        if c.batch_size == 0 {
            return Err(Error::invalid_config("batch_size must be at least 1"));
        }
        if c.cache.capacity > 0 && c.cache.shards == 0 {
            return Err(Error::invalid_config(
                "cache.shards must be at least 1 when the cache is enabled",
            ));
        }
        if c.cache.max_staleness == u64::MAX {
            return Err(Error::invalid_config(
                "cache.max_staleness must be a finite bound (u64::MAX reads as unbounded)",
            ));
        }
        Ok(c)
    }
}

/// One mini-batch for [`TrainingPipeline::run_batches`]: seeds, labels, and
/// per-seed time windows (empty = unwindowed batch).
pub type WindowedBatch = (Vec<VertexId>, Vec<usize>, Vec<Option<TimeWindow>>);

/// A fully materialized mini-batch, ready for `train_step_block`.
struct Block {
    /// Class labels for the seed vertices.
    labels: Vec<usize>,
    /// Per-depth feature matrices, one row per node (`feats[0]` = seeds).
    feats: Vec<Matrix>,
    /// Per-hop child tables into the next depth's rows.
    child: Vec<Vec<u32>>,
    /// Sample requests in this block answered by a degraded shard.
    degraded_samples: u64,
}

/// Result of one epoch (or one `run_batches` call).
#[derive(Clone, Debug, Default)]
pub struct EpochReport {
    /// Mini-batches trained.
    pub batches: u64,
    /// Batches containing at least one degraded sample.
    pub degraded_batches: u64,
    /// Mean cross-entropy loss over the batches.
    pub mean_loss: f64,
    /// Mean training accuracy over the batches.
    pub mean_accuracy: f64,
    /// Wall-clock time for the whole call.
    pub elapsed: Duration,
}

impl EpochReport {
    /// Batches per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.batches as f64 / self.elapsed.as_secs_f64()
    }
}

/// Cumulative pipeline telemetry, serializable for the bench harness.
#[derive(Clone, Debug)]
pub struct PipelineStats {
    pub sample: HistogramSnapshot,
    pub gather: HistogramSnapshot,
    pub train: HistogramSnapshot,
    pub cache: CacheStats,
    /// Distinct frontier expansions after dedup.
    pub distinct_sampled: u64,
    /// Requests issued to the cluster (dedup + cache misses only).
    pub cluster_requests: u64,
    /// Frontier slots before dedup (what a naive sampler would issue).
    pub frontier_slots: u64,
}

impl PipelineStats {
    /// Hand-rolled JSON object (the workspace vendors no serde_json).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sample\":{},\"gather\":{},\"train\":{},",
                "\"cache\":{{\"hits\":{},\"stale_hits\":{},\"misses\":{},",
                "\"hit_rate\":{:.4},\"stale_evictions\":{}}},",
                "\"distinct_sampled\":{},\"cluster_requests\":{},",
                "\"frontier_slots\":{}}}"
            ),
            self.sample.to_json(),
            self.gather.to_json(),
            self.train.to_json(),
            self.cache.hits,
            self.cache.stale_hits,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.stale_evictions,
            self.distinct_sampled,
            self.cluster_requests,
            self.frontier_slots,
        )
    }
}

/// Drives mini-batch GraphSAGE training against a live, mutating graph
/// service — the in-process [`Cluster`] (the default) or any other
/// [`GraphService`], such as the TCP `RemoteCluster` client; the pipeline
/// is generic over that boundary and runs unmodified against either.
///
/// All telemetry records into the service's observability registry
/// ([`GraphService::registry`]) under `pipeline.*` names, so one snapshot
/// covers the whole serving + training stack; [`TrainingPipeline::stats`]
/// remains as a typed view over those handles.
pub struct TrainingPipeline<'a, S: GraphService = Cluster> {
    service: &'a S,
    cfg: PipelineConfig,
    sampler: KHopSampler,
    cache: NeighborCache,
    sample_lat: Arc<Histogram>,
    gather_lat: Arc<Histogram>,
    train_lat: Arc<Histogram>,
    batches: Arc<Counter>,
    degraded_batches: Arc<Counter>,
    distinct_sampled: Arc<Counter>,
    cluster_requests: Arc<Counter>,
    frontier_slots: Arc<Counter>,
    gather_rows: Arc<Counter>,
    gather_distinct_rows: Arc<Counter>,
}

impl<'a, S: GraphService> TrainingPipeline<'a, S> {
    /// Build a pipeline over `service` with its own cache instance. Stage
    /// telemetry registers into the service's registry as `pipeline.*`.
    pub fn new(service: &'a S, cfg: PipelineConfig) -> Self {
        let sampler = KHopSampler::new(cfg.etype, cfg.fanouts.clone());
        let registry = service.registry();
        let cache = NeighborCache::with_registry(cfg.cache, registry);
        Self {
            service,
            cfg,
            sampler,
            cache,
            sample_lat: registry.histogram("pipeline.sample_ns"),
            gather_lat: registry.histogram("pipeline.gather_ns"),
            train_lat: registry.histogram("pipeline.train_ns"),
            batches: registry.counter("pipeline.batches"),
            degraded_batches: registry.counter("pipeline.degraded_batches"),
            distinct_sampled: registry.counter("pipeline.distinct_sampled"),
            cluster_requests: registry.counter("pipeline.cluster_requests"),
            frontier_slots: registry.counter("pipeline.frontier_slots"),
            gather_rows: registry.counter("pipeline.gather_rows"),
            gather_distinct_rows: registry.counter("pipeline.gather_distinct_rows"),
        }
    }

    /// Cumulative telemetry across all epochs run so far.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            sample: self.sample_lat.snapshot(),
            gather: self.gather_lat.snapshot(),
            train: self.train_lat.snapshot(),
            cache: self.cache.stats(),
            distinct_sampled: self.distinct_sampled.get(),
            cluster_requests: self.cluster_requests.get(),
            frontier_slots: self.frontier_slots.get(),
        }
    }

    /// Sample + gather one batch into a trainable block. `windows` is
    /// positionally parallel to `seeds` (`&[]` = unwindowed).
    fn produce_block(
        &self,
        provider: &dyn FeatureProvider,
        seeds: &[VertexId],
        labels: &[usize],
        windows: &[Option<TimeWindow>],
        rng: &mut dyn RngCore,
    ) -> Block {
        let t = Instant::now();
        let outcome = {
            let _span = self.service.registry().span("pipeline.sample");
            self.sampler
                .sample_block_windowed(self.service, &self.cache, seeds, windows, rng)
        };
        self.sample_lat.record(t.elapsed());
        self.distinct_sampled.add(outcome.distinct_sampled);
        self.cluster_requests.add(outcome.cluster_requests);
        // All of the padded flow's slots but its last level's get expanded.
        let len = |level: &Vec<VertexId>| level.len() as u64;
        let slots: u64 = outcome.levels.iter().map(len).sum();
        self.frontier_slots
            .add(slots - outcome.levels.last().map_or(0, len));

        let t = Instant::now();
        let _span = self.service.registry().span("pipeline.gather");
        let dim = provider.dim();
        let gather = |nodes: &Vec<VertexId>| gather_features(provider, nodes, dim);
        let feats = outcome.nodes.iter().map(gather).collect();
        // Slots the block stands for vs rows it holds: the share between
        // them is gather and layer-0 work the block did not do.
        self.gather_rows.add(slots);
        self.gather_distinct_rows
            .add(outcome.nodes.iter().map(len).sum());
        self.gather_lat.record(t.elapsed());
        Block {
            labels: labels.to_vec(),
            feats,
            child: outcome.child,
            degraded_samples: outcome.degraded_samples,
        }
    }

    /// Train on one materialized block, updating the running report.
    fn train_block(&self, net: &mut SageNet, block: Block, report: &mut EpochReport) {
        let t = Instant::now();
        let _span = self.service.registry().span("pipeline.train_step");
        let stats = net.train_step_block(&block.feats, &block.child, &block.labels);
        self.train_lat.record(t.elapsed());
        self.batches.inc();
        report.batches += 1;
        if block.degraded_samples > 0 {
            self.degraded_batches.inc();
            report.degraded_batches += 1;
        }
        report.mean_loss += stats.loss;
        report.mean_accuracy += stats.accuracy;
    }

    /// Run one epoch: shuffle `(seeds, labels)`, chunk into mini-batches,
    /// and train on every batch (prefetched if configured).
    pub fn run_epoch(
        &self,
        net: &mut SageNet,
        provider: &dyn FeatureProvider,
        seeds: &[VertexId],
        labels: &[usize],
        epoch: u64,
    ) -> EpochReport {
        assert_eq!(seeds.len(), labels.len(), "one label per seed");
        let batches = self.shuffled_batches(seeds, labels, &[], epoch);
        self.run_batches(net, provider, batches, epoch)
    }

    /// Run one *temporal* epoch: like [`TrainingPipeline::run_epoch`], but
    /// seed `i` samples only edges no newer than `seed_times[i]` — the
    /// time-respecting contract, enforced down every hop. The shuffle is
    /// seeded identically to `run_epoch`, so a windowed epoch and its
    /// shuffled-time ablation visit seeds in the same order.
    pub fn run_epoch_windowed(
        &self,
        net: &mut SageNet,
        provider: &dyn FeatureProvider,
        seeds: &[VertexId],
        labels: &[usize],
        seed_times: &[u64],
        epoch: u64,
    ) -> EpochReport {
        assert_eq!(seeds.len(), labels.len(), "one label per seed");
        assert_eq!(seeds.len(), seed_times.len(), "one event time per seed");
        let windows: Vec<Option<TimeWindow>> = seed_times
            .iter()
            .map(|&t| Some(TimeWindow::until(t)))
            .collect();
        let batches = self.shuffled_batches(seeds, labels, &windows, epoch);
        self.run_batches(net, provider, batches, epoch)
    }

    fn shuffled_batches(
        &self,
        seeds: &[VertexId],
        labels: &[usize],
        windows: &[Option<TimeWindow>],
        epoch: u64,
    ) -> Vec<WindowedBatch> {
        let mut order: Vec<usize> = (0..seeds.len()).collect();
        let mut rng = StdRng::seed_from_u64(splitmix64(self.cfg.seed ^ splitmix64(epoch)));
        order.shuffle(&mut rng);
        order
            .chunks(self.cfg.batch_size.max(1))
            .map(|chunk| {
                (
                    chunk.iter().map(|&i| seeds[i]).collect(),
                    chunk.iter().map(|&i| labels[i]).collect(),
                    if windows.is_empty() {
                        Vec::new()
                    } else {
                        chunk.iter().map(|&i| windows[i]).collect()
                    },
                )
            })
            .collect()
    }

    /// Train on an explicit batch list (a batch with an empty window vector
    /// is unwindowed). Public so tests can interleave fault injection
    /// deterministically between two halves of an epoch.
    pub fn run_batches(
        &self,
        net: &mut SageNet,
        provider: &dyn FeatureProvider,
        batches: Vec<WindowedBatch>,
        epoch: u64,
    ) -> EpochReport {
        assert_eq!(
            net.config().fanouts,
            self.cfg.fanouts,
            "model and pipeline fanouts must agree"
        );
        assert_eq!(
            provider.dim(),
            net.config().feature_dim,
            "feature provider and model widths must agree"
        );
        let _span = self.service.registry().span("pipeline.run_batches");
        let started = Instant::now();
        let mut report = EpochReport::default();
        if batches.is_empty() {
            return report;
        }
        if self.cfg.prefetch_depth == 0 {
            let mut rng =
                StdRng::seed_from_u64(splitmix64(self.cfg.seed ^ splitmix64(epoch) ^ 0x53796e63));
            for (seeds, labels, windows) in &batches {
                let block = self.produce_block(provider, seeds, labels, windows, &mut rng);
                self.train_block(net, block, &mut report);
            }
        } else {
            let workers = WORKERS.min(batches.len());
            std::thread::scope(|scope| {
                // Made inside the scope so that a panicking trainer drops
                // `rx` while unwinding, before the scope joins the workers:
                // their `send` then fails instead of blocking forever.
                let (tx, rx) = sync_channel::<Block>(self.cfg.prefetch_depth);
                for w in 0..workers {
                    let tx = tx.clone();
                    let batches = &batches;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(splitmix64(
                            self.cfg.seed ^ splitmix64(epoch) ^ splitmix64(w as u64 + 1),
                        ));
                        for (seeds, labels, windows) in batches.iter().skip(w).step_by(workers) {
                            let block =
                                self.produce_block(provider, seeds, labels, windows, &mut rng);
                            // Trainer hung up (panic): just stop producing.
                            if tx.send(block).is_err() {
                                return;
                            }
                        }
                    });
                }
                // Drop the template sender so `rx` closes when the last
                // worker finishes — otherwise the consumer never exits.
                drop(tx);
                while let Ok(block) = rx.recv() {
                    self.train_block(net, block, &mut report);
                }
            });
        }
        if report.batches > 0 {
            report.mean_loss /= report.batches as f64;
            report.mean_accuracy /= report.batches as f64;
        }
        report.elapsed = started.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_gnn::{HashFeatures, SageNetConfig};
    use platod2gl_graph::{Edge, GraphStore};
    use platod2gl_server::ClusterConfig;
    use std::sync::mpsc::{channel, RecvTimeoutError};

    #[test]
    fn trainer_panic_under_prefetch_unwinds_out_of_run_epoch() {
        // The epoch runs on a helper thread, so a hang fails the test on the
        // timeout below instead of hanging the suite.
        let (done, finished) = channel();
        let epoch = std::thread::spawn(move || {
            let config = ClusterConfig::builder().num_shards(2).build();
            let cluster = Cluster::new(config.expect("valid config"));
            for v in 0..64u64 {
                cluster.insert_edge(Edge::new(VertexId(v), VertexId((v + 1) % 64), 1.0));
            }
            let cfg = PipelineConfig::builder()
                .fanouts(vec![2, 2])
                .batch_size(8)
                .prefetch_depth(1)
                .build()
                .expect("valid config");
            let pipeline = TrainingPipeline::new(&cluster, cfg);
            let mut net = SageNet::new(SageNetConfig {
                fanouts: vec![2, 2],
                ..Default::default()
            });
            let provider = HashFeatures::new(16, 2, 3);
            let seeds: Vec<VertexId> = (0..64).map(VertexId).collect();
            // Class 2 of a two-class net: the trainer's first step panics
            // while both workers still have blocks to send.
            pipeline.run_epoch(&mut net, &provider, &seeds, &[2; 64], 0);
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(10)) {
            // The panic reached the caller.
            Err(RecvTimeoutError::Disconnected) => assert!(epoch.join().is_err()),
            Ok(()) => panic!("an out-of-range label trained without a panic"),
            Err(RecvTimeoutError::Timeout) => panic!("run_epoch hung after its trainer panicked"),
        }
    }
}
