//! GraphSAGE over message-flow blocks: the paper's Eq. 1 with mean
//! aggregation, fixed-fanout neighborhoods and minibatch SGD.
//!
//! `SageNet` samples nothing. The `pipeline` crate's `KHopSampler` builds
//! the blocks it trains and predicts on, and gathers their features.
//!
//! A minibatch is a message-flow block: `feats[d]` holds one feature row per
//! node of depth `d` (`feats[0]` the seeds, one per label) and `child[d]`
//! names, for every node of depth `d`, the `fanout_d` rows of depth `d + 1`
//! that are its sampled (self-padded) neighbors. Layer `l` computes
//! `h^l_v = ReLU(h^{l-1}_v W_self + mean(h^{l-1}_u) W_neigh + b)` once per
//! node of every depth it is still needed at. The mean reads its rows
//! through `child` and backward scatter-adds through it, which is what sums
//! the gradients of every slot a shared node stands for into its one row —
//! so a block that holds each distinct `(vertex, window)` of a depth once
//! (the pipeline's) costs what its distinct nodes cost. A padded node flow,
//! one row per slot, is the same computation under identity tables. Both
//! kernels walk the tables in order on one thread: the loss is a function
//! of the block alone.
//!
//! A step computes only what the parameter gradients need: the backward
//! pass stops at layer 0, whose input gradient would be a gradient with
//! respect to the *features*, which nothing reads.

use crate::nn::{sgd_update, softmax_cross_entropy, Dense, Matrix};
use platod2gl_graph::EdgeType;

/// One GraphSAGE layer: self and neighbor transforms plus bias and ReLU.
#[derive(Clone, Debug)]
pub struct SageLayer {
    w_self: Matrix,
    w_neigh: Matrix,
    bias: Vec<f64>,
}

/// Accumulated parameter gradients for one layer.
#[derive(Default)]
struct SageGrads {
    gw_self: Matrix,
    gw_neigh: Matrix,
    gbias: Vec<f64>,
}

impl SageLayer {
    fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w_self: Matrix::glorot(in_dim, out_dim, seed),
            w_neigh: Matrix::glorot(in_dim, out_dim, seed ^ 0xdead_beef),
            bias: vec![0.0; out_dim],
        }
    }

    /// `out = ReLU(h_self W_self + pooled W_neigh + b)`.
    fn forward(&self, h_self: &Matrix, pooled: &Matrix, out: &mut Matrix) {
        out.reset_rows(h_self.rows(), &self.bias);
        out.add_matmul(h_self, &self.w_self);
        out.add_matmul(pooled, &self.w_neigh);
        out.relu();
    }

    fn apply(&mut self, grads: &SageGrads, lr: f64) {
        sgd_update(self.w_self.as_mut_slice(), grads.gw_self.as_slice(), lr);
        sgd_update(self.w_neigh.as_mut_slice(), grads.gw_neigh.as_slice(), lr);
        sgd_update(&mut self.bias, &grads.gbias, lr);
    }
}

/// Network hyperparameters.
#[derive(Clone, Debug)]
pub struct SageNetConfig {
    /// Input feature width.
    pub feature_dim: usize,
    /// Hidden width of every GraphSAGE layer.
    pub hidden_dim: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Per-layer sampling fanouts; the length sets the number of layers
    /// (hops).
    pub fanouts: Vec<usize>,
    /// Relation the blocks are sampled over. `SageNet` does not read it: the
    /// pipeline's `PipelineConfig::etype` is what a sampler follows.
    pub etype: EdgeType,
    /// SGD learning rate.
    pub lr: f64,
    /// Parameter-init seed.
    pub seed: u64,
}

impl Default for SageNetConfig {
    fn default() -> Self {
        Self {
            feature_dim: 16,
            hidden_dim: 32,
            num_classes: 2,
            fanouts: vec![5, 5],
            etype: EdgeType::DEFAULT,
            lr: 0.05,
            seed: 42,
        }
    }
}

/// Per-step training metrics.
#[derive(Clone, Copy, Debug)]
pub struct TrainStats {
    pub loss: f64,
    pub accuracy: f64,
}

/// Every intermediate of a forward/backward pass. The net owns one for
/// training: its matrices are sized by the first step and reused by every
/// later one, so a steady-state step allocates nothing of its own.
#[derive(Default)]
struct Workspace {
    /// `pooled[l][d]`: mean over the children of depth `d` in layer `l`'s
    /// input (kept for backward).
    pooled: Vec<Vec<Matrix>>,
    /// `act[l][d]`: layer `l`'s output at depth `d`.
    act: Vec<Vec<Matrix>>,
    logits: Matrix,
    /// `grad[d]` = dL/d `act[l][d]` for the layer `l` being walked.
    grad: Vec<Matrix>,
    /// dL/d (layer `l`'s input) per depth, which becomes `grad` one layer
    /// down.
    grad_below: Vec<Matrix>,
    /// Gradient of one pooled input before it is spread over the children.
    grad_pooled: Matrix,
    /// The walked layer's weights, transposed once for its input-gradient
    /// products.
    wt_self: Matrix,
    wt_neigh: Matrix,
    layer_grads: Vec<SageGrads>,
    gw_cls: Matrix,
    gb_cls: Vec<f64>,
}

/// Index of the largest logit. `total_cmp` gives NaN a place in the order,
/// so non-finite logits (features come off the write path) pick some class
/// instead of panicking the training thread.
fn argmax(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty row")
}

/// The child tables of a padded node flow: every slot is its own row.
fn identity_tables(feats: &[Matrix]) -> Vec<Vec<u32>> {
    let rows = feats.iter().skip(1).map(|m| 0..m.rows() as u32);
    rows.map(Vec::from_iter).collect()
}

/// A stacked GraphSAGE classifier trained by minibatch SGD on message-flow
/// blocks (module docs).
pub struct SageNet {
    cfg: SageNetConfig,
    layers: Vec<SageLayer>,
    classifier: Dense,
    workspace: Workspace,
}

impl SageNet {
    /// Build with Glorot-initialized parameters.
    pub fn new(cfg: SageNetConfig) -> Self {
        assert!(!cfg.fanouts.is_empty(), "need at least one layer");
        let mut layers = Vec::with_capacity(cfg.fanouts.len());
        let mut in_dim = cfg.feature_dim;
        for l in 0..cfg.fanouts.len() {
            layers.push(SageLayer::new(in_dim, cfg.hidden_dim, cfg.seed + l as u64));
            in_dim = cfg.hidden_dim;
        }
        let classifier = Dense::new(cfg.hidden_dim, cfg.num_classes, cfg.seed ^ 0x5151);
        Self {
            cfg,
            layers,
            classifier,
            workspace: Workspace::default(),
        }
    }

    /// The network's hyperparameters (pipelines validate their sampling
    /// plan against `fanouts` / `feature_dim` before producing blocks).
    pub fn config(&self) -> &SageNetConfig {
        &self.cfg
    }

    /// Forward pass over a block (`feats[d]` is the feature matrix of its
    /// depth-`d` nodes, `child[d]` their children's rows), leaving the logits
    /// and every intermediate backward needs in `ws`.
    fn forward(&self, feats: &[Matrix], child: &[Vec<u32>], ws: &mut Workspace) {
        let num_layers = self.layers.len();
        ws.pooled.resize_with(num_layers, Vec::new);
        ws.act.resize_with(num_layers, Vec::new);
        for (l, layer) in self.layers.iter().enumerate() {
            let depths = num_layers - l; // layer l's output exists for d < depths
            let (below, at) = ws.act.split_at_mut(l);
            let input = below.last().map_or(feats, Vec::as_slice);
            let (out, pooled) = (&mut at[0], &mut ws.pooled[l]);
            out.resize_with(depths, Matrix::default);
            pooled.resize_with(depths, Matrix::default);
            for (d, (out, pooled)) in out.iter_mut().zip(pooled).enumerate() {
                input[d + 1].index_mean_into(&child[d], self.cfg.fanouts[d], pooled);
                layer.forward(&input[d], pooled, out);
            }
        }
        self.classifier
            .forward(&ws.act[num_layers - 1][0], &mut ws.logits);
    }

    /// The predicted class of every seed row of a block (module docs).
    pub fn predict(&self, feats: &[Matrix], child: &[Vec<u32>]) -> Vec<usize> {
        self.assert_block(feats, child);
        let mut ws = Workspace::default();
        self.forward(feats, child, &mut ws);
        (0..ws.logits.rows())
            .map(|r| argmax(ws.logits.row(r)))
            .collect()
    }

    /// One SGD step on a pre-sampled, pre-gathered *padded* node flow, one
    /// row per slot (`feats[d + 1].rows() == feats[d].rows() * fanouts[d]`,
    /// seeds at depth 0): the identity-table entry to
    /// [`SageNet::train_step_block`].
    pub fn train_step_features(&mut self, feats: Vec<Matrix>, labels: &[usize]) -> TrainStats {
        self.train_step_block(&feats, &identity_tables(&feats), labels)
    }

    /// One SGD step on a message-flow block (module docs): `child[d]` holds
    /// `feats[d].rows() * fanouts[d]` row indices into `feats[d + 1]`.
    /// Sampling and gathering can therefore run on prefetch workers while
    /// this step consumes earlier blocks.
    pub fn train_step_block(
        &mut self,
        feats: &[Matrix],
        child: &[Vec<u32>],
        labels: &[usize],
    ) -> TrainStats {
        self.assert_block(feats, child);
        assert_eq!(feats[0].rows(), labels.len(), "one label per seed row");
        let mut ws = std::mem::take(&mut self.workspace);
        let stats = self.compute_grads(feats, child, labels, &mut ws);
        self.apply_grads(&ws);
        self.workspace = ws;
        stats
    }

    /// Panic unless `(feats, child)` is a block of this net's shape.
    fn assert_block(&self, feats: &[Matrix], child: &[Vec<u32>]) {
        let num_layers = self.layers.len();
        assert_eq!(
            (feats.len(), child.len()),
            (num_layers + 1, num_layers),
            "need one feature matrix per depth and one child table per hop"
        );
        for (d, &fanout) in self.cfg.fanouts.iter().enumerate() {
            assert_eq!(
                child[d].len(),
                feats[d].rows() * fanout,
                "depth {} slots must equal parent rows x fanout",
                d + 1
            );
        }
        for (d, m) in feats.iter().enumerate() {
            assert_eq!(
                m.cols(),
                self.cfg.feature_dim,
                "depth {d} feature width mismatch"
            );
        }
    }

    /// Forward, loss, and backward down to layer 0's parameters: leaves
    /// dL/d(every parameter) in `ws.layer_grads` / `ws.gw_cls` / `ws.gb_cls`
    /// and moves nothing.
    fn compute_grads(
        &self,
        feats: &[Matrix],
        child: &[Vec<u32>],
        labels: &[usize],
        ws: &mut Workspace,
    ) -> TrainStats {
        let num_layers = self.layers.len();
        self.forward(feats, child, ws);
        let (loss, grad_logits) = softmax_cross_entropy(&ws.logits, labels);
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(r, &label)| argmax(ws.logits.row(r)) == label)
            .count();

        ws.grad.resize_with(num_layers + 1, Matrix::default);
        ws.grad_below.resize_with(num_layers + 1, Matrix::default);
        ws.layer_grads.resize_with(num_layers, SageGrads::default);

        ws.gw_cls.reset(self.cfg.hidden_dim, self.cfg.num_classes);
        ws.gb_cls.clear();
        ws.gb_cls.resize(self.cfg.num_classes, 0.0);
        self.classifier.backward(
            &ws.act[num_layers - 1][0],
            &grad_logits,
            &mut ws.gw_cls,
            &mut ws.gb_cls,
            &mut ws.grad[0],
        );

        // Walk the layers top down; parameter gradients accumulate across
        // the depths a layer runs at.
        let layer_grads = self.layers.iter().zip(&mut ws.layer_grads);
        for (l, (layer, grads)) in layer_grads.enumerate().rev() {
            let depths = num_layers - l;
            let input = if l == 0 { feats } else { &ws.act[l - 1] };
            let (in_dim, out_dim) = (layer.w_self.rows(), layer.bias.len());
            grads.gw_self.reset(in_dim, out_dim);
            grads.gw_neigh.reset(in_dim, out_dim);
            grads.gbias.clear();
            grads.gbias.resize(out_dim, 0.0);
            if l > 0 {
                layer.w_self.transpose_into(&mut ws.wt_self);
                layer.w_neigh.transpose_into(&mut ws.wt_neigh);
                for (below, input) in ws.grad_below.iter_mut().zip(input) {
                    below.reset(input.rows(), in_dim);
                }
            }
            for (d, gz) in ws.grad.iter_mut().enumerate().take(depths) {
                // Through the ReLU, then into the parameters.
                gz.relu_backward(&ws.act[l][d]);
                grads.gw_self.add_t_matmul(&input[d], gz);
                grads.gw_neigh.add_t_matmul(&ws.pooled[l][d], gz);
                gz.add_col_sums(&mut grads.gbias);
                // Layer 0's input is the features: nothing below it learns.
                if l > 0 {
                    ws.grad_below[d].add_matmul(gz, &ws.wt_self);
                    ws.grad_pooled.reset(gz.rows(), in_dim);
                    ws.grad_pooled.add_matmul(gz, &ws.wt_neigh);
                    let fanout = self.cfg.fanouts[d];
                    ws.grad_below[d + 1].add_index_spread(&ws.grad_pooled, &child[d], fanout);
                }
            }
            std::mem::swap(&mut ws.grad, &mut ws.grad_below);
        }
        TrainStats {
            loss,
            accuracy: correct as f64 / labels.len() as f64,
        }
    }

    /// The SGD update from the gradients `compute_grads` left in `ws`.
    fn apply_grads(&mut self, ws: &Workspace) {
        self.classifier
            .apply_grads(&ws.gw_cls, &ws.gb_cls, self.cfg.lr);
        for (layer, g) in self.layers.iter_mut().zip(&ws.layer_grads) {
            layer.apply(g, self.cfg.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{gather_features, HashFeatures};
    use platod2gl_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_layer_shapes_are_consistent() {
        let provider = HashFeatures::new(8, 2, 1);
        let net = SageNet::new(SageNetConfig {
            feature_dim: 8,
            hidden_dim: 4,
            num_classes: 3,
            fanouts: vec![2],
            ..Default::default()
        });
        // Seed 1's one neighbor is 2; seed 9 is isolated and self-padded.
        let flow = [vec![1, 9], vec![2, 2, 9, 9]];
        let gather = |level: &Vec<u64>| {
            let nodes: Vec<VertexId> = level.iter().copied().map(VertexId).collect();
            gather_features(&provider, &nodes, 8)
        };
        let feats: Vec<Matrix> = flow.iter().map(gather).collect();
        assert_eq!(feats.len(), 2); // depths 0 and 1
        assert_eq!(feats[1].rows(), 4); // 2 seeds * fanout 2
        let mut ws = Workspace::default();
        net.forward(&feats, &identity_tables(&feats), &mut ws);
        assert_eq!((ws.logits.rows(), ws.logits.cols()), (2, 3));
        assert_eq!(ws.act.len(), 1);
        assert_eq!(ws.act[0].len(), 1);
        assert_eq!((ws.act[0][0].rows(), ws.act[0][0].cols()), (2, 4));
    }

    #[test]
    #[should_panic(expected = "slots must equal parent rows x fanout")]
    fn train_step_features_rejects_malformed_blocks() {
        let mut net = SageNet::new(SageNetConfig {
            feature_dim: 4,
            hidden_dim: 4,
            fanouts: vec![3],
            ..Default::default()
        });
        let feats = vec![Matrix::zeros(2, 4), Matrix::zeros(5, 4)]; // needs 6 rows
        net.train_step_features(feats, &[0, 1]);
    }

    /// The parent commit's training step, verbatim over the element-wise
    /// reference kernels: all six products at every layer, input gradients
    /// propagated below layer 0 and thrown away.
    #[allow(clippy::needless_range_loop)]
    mod reference_step {
        use super::super::*;
        use crate::nn::reference as k;

        fn layer_forward(layer: &SageLayer, h_self: &Matrix, pooled: &Matrix) -> Matrix {
            let mut z = k::matmul(h_self, &layer.w_self);
            z.add_assign(&k::matmul(pooled, &layer.w_neigh));
            k::add_row_broadcast(&mut z, &layer.bias);
            k::relu(&z)
        }

        fn layer_backward(
            layer: &SageLayer,
            h_self: &Matrix,
            pooled: &Matrix,
            activated: &Matrix,
            grad_out: &Matrix,
            grads: &mut SageGrads,
        ) -> (Matrix, Matrix) {
            let gz = k::relu_backward(grad_out, activated);
            grads.gw_self.add_assign(&k::t_matmul(h_self, &gz));
            grads.gw_neigh.add_assign(&k::t_matmul(pooled, &gz));
            for r in 0..gz.rows() {
                for c in 0..gz.cols() {
                    grads.gbias[c] += gz.get(r, c);
                }
            }
            (
                k::matmul_t(&gz, &layer.w_self),
                k::matmul_t(&gz, &layer.w_neigh),
            )
        }

        fn forward_from_features(
            net: &SageNet,
            feats: Vec<Matrix>,
        ) -> (Matrix, Vec<Vec<Matrix>>, Vec<Vec<Matrix>>) {
            let num_layers = net.layers.len();
            let mut h: Vec<Vec<Matrix>> = Vec::with_capacity(num_layers + 1);
            h.push(feats);
            let mut pooled_cache: Vec<Vec<Matrix>> = Vec::with_capacity(num_layers);
            for l in 0..num_layers {
                let depths = num_layers - l;
                let mut level = Vec::with_capacity(depths);
                let mut pooled_level = Vec::with_capacity(depths);
                for d in 0..depths {
                    let pooled = k::group_mean(&h[l][d + 1], net.cfg.fanouts[d]);
                    let out = layer_forward(&net.layers[l], &h[l][d], &pooled);
                    pooled_level.push(pooled);
                    level.push(out);
                }
                pooled_cache.push(pooled_level);
                h.push(level);
            }
            let mut logits = k::matmul(&h[num_layers][0], &net.classifier.w);
            k::add_row_broadcast(&mut logits, &net.classifier.b);
            (logits, pooled_cache, h)
        }

        pub(super) fn train_step_features(
            net: &mut SageNet,
            feats: Vec<Matrix>,
            labels: &[usize],
        ) -> TrainStats {
            let num_layers = net.layers.len();
            let (logits, pooled_cache, h) = forward_from_features(net, feats);
            let (loss, grad_logits) = softmax_cross_entropy(&logits, labels);
            let accuracy = {
                let mut correct = 0usize;
                for r in 0..logits.rows() {
                    if argmax(logits.row(r)) == labels[r] {
                        correct += 1;
                    }
                }
                correct as f64 / labels.len() as f64
            };

            // Classifier backward.
            let mut gw_cls = Matrix::zeros(net.cfg.hidden_dim, net.cfg.num_classes);
            let mut gb_cls = vec![0.0; net.cfg.num_classes];
            gw_cls.add_assign(&k::t_matmul(&h[num_layers][0], &grad_logits));
            for r in 0..grad_logits.rows() {
                for c in 0..grad_logits.cols() {
                    gb_cls[c] += grad_logits.get(r, c);
                }
            }
            let grad_top = k::matmul_t(&grad_logits, &net.classifier.w);

            // Layer grads, accumulated across depths.
            let mut layer_grads: Vec<SageGrads> = net
                .layers
                .iter()
                .map(|l| SageGrads {
                    gw_self: Matrix::zeros(l.w_self.rows(), l.w_self.cols()),
                    gw_neigh: Matrix::zeros(l.w_neigh.rows(), l.w_neigh.cols()),
                    gbias: vec![0.0; l.bias.len()],
                })
                .collect();

            // grads[d] = dL/d h[l][d] for the current level l.
            let mut grads: Vec<Option<Matrix>> = vec![None; num_layers + 2];
            grads[0] = Some(grad_top);
            for l in (0..num_layers).rev() {
                let depths = num_layers - l;
                let mut next: Vec<Option<Matrix>> = vec![None; num_layers + 2];
                for (d, maybe_g) in grads.iter().enumerate().take(depths) {
                    let Some(g) = maybe_g else { continue };
                    let (g_self, g_pooled) = layer_backward(
                        &net.layers[l],
                        &h[l][d],
                        &pooled_cache[l][d],
                        &h[l + 1][d],
                        g,
                        &mut layer_grads[l],
                    );
                    match &mut next[d] {
                        Some(acc) => acc.add_assign(&g_self),
                        slot => *slot = Some(g_self),
                    }
                    let spread = k::group_mean_backward(&g_pooled, net.cfg.fanouts[d]);
                    match &mut next[d + 1] {
                        Some(acc) => acc.add_assign(&spread),
                        slot => *slot = Some(spread),
                    }
                }
                grads = next;
            }

            // SGD updates.
            net.classifier.apply_grads(&gw_cls, &gb_cls, net.cfg.lr);
            for (layer, g) in net.layers.iter_mut().zip(&layer_grads) {
                layer.apply(g, net.cfg.lr);
            }
            TrainStats { loss, accuracy }
        }
    }

    /// Feature matrices, child tables and seed labels.
    type FlowBlock = (Vec<Matrix>, Vec<Vec<u32>>, Vec<usize>);

    /// A net over `fanouts` with no dimension a multiple of four, and
    /// `steps` random padded blocks for it (5 seeds at depth 0).
    fn odd_net_and_blocks(fanouts: &[usize], steps: u64) -> (SageNet, Vec<FlowBlock>) {
        let net = SageNet::new(SageNetConfig {
            feature_dim: 5,
            hidden_dim: 7,
            num_classes: 3,
            fanouts: fanouts.to_vec(),
            lr: 0.1,
            seed: 17,
            ..Default::default()
        });
        let blocks = (0..steps)
            .map(|s| {
                let mut rows = 5;
                let mut feats = vec![Matrix::glorot(rows, 5, 100 + 10 * s)];
                for (d, fanout) in fanouts.iter().enumerate() {
                    rows *= fanout;
                    feats.push(Matrix::glorot(rows, 5, 101 + 10 * s + d as u64));
                }
                let child = identity_tables(&feats);
                (feats, child, (0..5).map(|i| (i + s as usize) % 3).collect())
            })
            .collect();
        (net, blocks)
    }

    /// `steps` compact blocks for [`odd_net_and_blocks`]' net: 5 seeds, 4
    /// nodes at every inner depth — each named at least once, then again in
    /// any order, so seeds share depth-1 nodes — and the child lists of the
    /// last inner depth below them. Seed 0 is self-padded (all its children
    /// are node 0, which carries the seed's features) and depth-1 nodes 1
    /// and 2 are one vertex under two windows: same features, own children.
    fn compact_blocks(fanouts: &[usize], steps: u64) -> Vec<FlowBlock> {
        let blocks = (0..steps).map(|s| {
            let mut rng = StdRng::seed_from_u64(900 + s);
            let mut rows = vec![5];
            let mut child: Vec<Vec<u32>> = Vec::new();
            for (d, &fanout) in fanouts.iter().enumerate() {
                let slots = rows[d] * fanout;
                if d + 1 == fanouts.len() {
                    rows.push(slots);
                    child.push((0..slots as u32).collect());
                } else {
                    rows.push(4);
                    let named = (0..slots).map(|i| match slots - i {
                        left @ 1..=4 => left as u32 - 1,
                        _ => rng.random_range(0..4),
                    });
                    child.push(named.collect());
                }
            }
            child[0][..fanouts[0]].fill(0);
            let mut feats: Vec<Matrix> = (0u64..)
                .zip(&rows)
                .map(|(d, &n)| Matrix::glorot(n, 5, 100 + 10 * s + d))
                .collect();
            let seed_row = feats[0].row(0).to_vec();
            feats[1].as_mut_slice()[..5].copy_from_slice(&seed_row);
            feats[1].as_mut_slice().copy_within(5..10, 10);
            (feats, child, (0..5).map(|i| (i + s as usize) % 3).collect())
        });
        blocks.collect()
    }

    /// The padded node flow a block stands for: one feature row per slot.
    fn padded(feats: &[Matrix], child: &[Vec<u32>], fanouts: &[usize]) -> Vec<Matrix> {
        let mut rows: Vec<usize> = (0..feats[0].rows()).collect();
        let mut out = vec![feats[0].clone()];
        for (d, &fanout) in fanouts.iter().enumerate() {
            let kids = |&r: &usize| child[d][r * fanout..][..fanout].iter();
            rows = rows.iter().flat_map(kids).map(|&c| c as usize).collect();
            let below = &feats[d + 1];
            out.push(Matrix::from_fn(rows.len(), below.cols(), |r, c| {
                below.get(rows[r], c)
            }));
        }
        out
    }

    /// Every parameter tensor, flat, in one fixed order.
    fn params_mut(net: &mut SageNet) -> Vec<&mut [f64]> {
        let mut out: Vec<&mut [f64]> = Vec::new();
        for l in &mut net.layers {
            out.push(l.w_self.as_mut_slice());
            out.push(l.w_neigh.as_mut_slice());
            out.push(&mut l.bias);
        }
        out.push(net.classifier.w.as_mut_slice());
        out.push(&mut net.classifier.b);
        out
    }

    fn flat_params(net: &mut SageNet) -> Vec<f64> {
        params_mut(net)
            .iter()
            .flat_map(|p| p.iter().copied())
            .collect()
    }

    /// The gradients `compute_grads` left in `ws`, in `params_mut` order.
    fn grads_of(ws: &Workspace) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = Vec::new();
        for g in &ws.layer_grads {
            out.push(g.gw_self.as_slice());
            out.push(g.gw_neigh.as_slice());
            out.push(&g.gbias);
        }
        out.push(ws.gw_cls.as_slice());
        out.push(&ws.gb_cls);
        out
    }

    /// Central differences on every parameter against `compute_grads`.
    fn assert_gradients_match_finite_differences(
        net: &mut SageNet,
        (feats, child, labels): &FlowBlock,
    ) {
        let mut ws = Workspace::default();
        net.compute_grads(feats, child, labels, &mut ws);
        let analytic: Vec<Vec<f64>> = grads_of(&ws).iter().map(|g| g.to_vec()).collect();
        let loss_at = |net: &SageNet| {
            let mut ws = Workspace::default();
            net.forward(feats, child, &mut ws);
            softmax_cross_entropy(&ws.logits, labels).0
        };
        let eps = 1e-5;
        let mut checked = 0;
        for (t, grads) in analytic.iter().enumerate() {
            assert_eq!(grads.len(), params_mut(net)[t].len());
            assert!(
                grads.iter().any(|&g| g != 0.0),
                "tensor {t} has no gradient"
            );
            for (i, &analytic) in grads.iter().enumerate() {
                let orig = params_mut(net)[t][i];
                params_mut(net)[t][i] = orig + eps;
                let plus = loss_at(net);
                params_mut(net)[t][i] = orig - eps;
                let minus = loss_at(net);
                params_mut(net)[t][i] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                let scale = numeric.abs().max(analytic.abs()).max(1e-4);
                assert!(
                    (numeric - analytic).abs() <= 1e-6 * scale,
                    "tensor {t}[{i}]: numeric {numeric} vs analytic {analytic}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 2 * (5 * 7 + 7 * 7) + 2 * 7 + 7 * 3 + 3);
    }

    #[test]
    fn finite_differences_match_every_parameter_gradient() {
        let (mut net, blocks) = odd_net_and_blocks(&[3, 2], 1);
        assert_gradients_match_finite_differences(&mut net, &blocks[0]);
        // Depth-1 nodes shared by several seeds: the gradient through a
        // shared row is the sum over the slots that name it.
        let block = &compact_blocks(&[3, 2], 1)[0];
        let mut uses = [0; 4];
        block.1[0].iter().for_each(|&c| uses[c as usize] += 1);
        assert!(uses.iter().all(|&n| n >= 1) && uses.iter().any(|&n| n > 3));
        assert_gradients_match_finite_differences(&mut net, block);
    }

    #[test]
    fn compact_step_matches_the_padded_step() {
        // One row per distinct node against one row per slot, same init,
        // same three blocks: same loss, same parameters.
        for fanouts in [&[3, 2][..], &[2, 3, 2]] {
            let (mut compact, _) = odd_net_and_blocks(fanouts, 0);
            let (mut slotwise, _) = odd_net_and_blocks(fanouts, 0);
            for (feats, child, labels) in compact_blocks(fanouts, 3) {
                let flow = padded(&feats, &child, fanouts);
                assert!(flow[1].rows() > feats[1].rows());
                let got = compact.train_step_block(&feats, &child, &labels);
                let want = slotwise.train_step_features(flow, &labels);
                assert!((got.loss - want.loss).abs() <= 1e-10);
                assert_eq!(got.accuracy, want.accuracy);
            }
            let (got, want) = (flat_params(&mut compact), flat_params(&mut slotwise));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= 1e-10, "parameter {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn new_step_matches_the_parents_step() {
        // Same init, same three blocks: the step that skips layer 0's input
        // gradients must land on the parameters of the one that computes
        // them — which is what proves those products were dead.
        // Three layers as well: there layers 1 and 2 do propagate, over
        // more than one depth.
        for fanouts in [&[3, 2][..], &[2, 3, 2]] {
            let (mut new, blocks) = odd_net_and_blocks(fanouts, 3);
            let (mut old, _) = odd_net_and_blocks(fanouts, 0);
            for (feats, _, labels) in blocks {
                let want = reference_step::train_step_features(&mut old, feats.clone(), &labels);
                let got = new.train_step_features(feats, &labels);
                assert!((got.loss - want.loss).abs() <= 1e-10);
                assert_eq!(got.accuracy, want.accuracy);
            }
            let (got, want) = (flat_params(&mut new), flat_params(&mut old));
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= 1e-10, "parameter {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn same_blocks_give_bit_identical_parameters() {
        // Padded blocks, then compact ones: the scatter-add runs in table
        // order, so shared rows sum in one order every time.
        let run = || {
            let (mut net, mut blocks) = odd_net_and_blocks(&[3, 2], 3);
            blocks.extend(compact_blocks(&[3, 2], 3));
            let steps = blocks
                .iter()
                .map(|(feats, child, labels)| net.train_step_block(feats, child, labels));
            let losses: Vec<u64> = steps.map(|s| s.loss.to_bits()).collect();
            let params: Vec<u64> = flat_params(&mut net).iter().map(|p| p.to_bits()).collect();
            (losses, params)
        };
        assert_eq!(run(), run());
    }

    /// The loss of every step of [`golden_losses_are_pinned`], as
    /// `f64::to_bits`, taken by running that test's body on the commit
    /// before the product kernels gained their AVX2 build (baseline x86-64,
    /// debug and release builds agreeing).
    const GOLDEN_LOSS_BITS: [u64; 20] = [
        0x3fef273da18684f0,
        0x3fee8a0ad49ea6c9,
        0x3fee01712f93b3a4,
        0x3fed7ce095425335,
        0x3fed0097781796fe,
        0x3fec8ae09fc10ddb,
        0x3fec1b413c46fa4b,
        0x3febad7f255c6e8c,
        0x3feb41f61ae94953,
        0x3feac9a034339a57,
        0x3fea3a5904ea21ab,
        0x3fe9b301248e7dc5,
        0x3fe93756b621a2ef,
        0x3fe8c18b3ec237de,
        0x3fe84e582e73c654,
        0x3fe7dd7ead2de0ad,
        0x3fe76190b36ecac2,
        0x3fe6eb19e147d2a4,
        0x3fe672b426ecb18d,
        0x3fe5f9f5ccd38e09,
    ];

    #[test]
    fn golden_losses_are_pinned() {
        // Widths 12 (k % 4 = 0) and 10 (k % 4 = 2, a 4-lane tail of 2) and
        // 9 seeds (an odd last row), trained 20 times on one fixed block:
        // every build of the product kernels, on any host, must reproduce
        // the losses bit for bit.
        let mut net = SageNet::new(SageNetConfig {
            feature_dim: 12,
            hidden_dim: 10,
            num_classes: 3,
            fanouts: vec![3, 2],
            lr: 0.1,
            seed: 23,
            ..Default::default()
        });
        let feats: Vec<Matrix> = [9, 27, 54]
            .iter()
            .zip(300u64..)
            .map(|(&rows, seed)| Matrix::glorot(rows, 12, seed))
            .collect();
        let labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let losses: Vec<u64> = (0..20)
            .map(|_| {
                net.train_step_features(feats.clone(), &labels)
                    .loss
                    .to_bits()
            })
            .collect();
        assert_eq!(losses, GOLDEN_LOSS_BITS);
    }

    #[test]
    fn zero_lr_step_leaves_parameters_alone() {
        let (mut net, blocks) = odd_net_and_blocks(&[3, 2], 1);
        net.cfg.lr = 0.0;
        let before = flat_params(&mut net);
        let (feats, _, labels) = blocks.into_iter().next().expect("one block");
        net.train_step_features(feats, &labels);
        assert_eq!(flat_params(&mut net), before);
    }

    #[test]
    fn argmax_orders_non_finite_logits_without_panicking() {
        assert_eq!(argmax(&[0.5, f64::INFINITY, -1.0]), 1);
        assert_eq!(argmax(&[f64::NEG_INFINITY, -3.0]), 1);
        // A NaN sorts above +inf under total_cmp; any answer would do, a
        // panic would not.
        assert_eq!(argmax(&[1.0, f64::NAN, f64::INFINITY]), 1);
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 1);
    }

    #[test]
    fn stored_nan_feature_trains_to_a_finite_loss() {
        use crate::features::AttributeFeatures;
        use platod2gl_storage::AttributeStore;
        let attrs = AttributeStore::new();
        for v in 0..8u64 {
            let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.25];
            attrs.set_vertex(VertexId(v), AttributeFeatures::encode(&poison));
        }
        let provider = AttributeFeatures::new(&attrs, 4);
        let mut net = SageNet::new(SageNetConfig {
            feature_dim: 4,
            hidden_dim: 6,
            fanouts: vec![2, 2],
            ..Default::default()
        });
        // The padded flow of the ring v -> v + 1 (mod 8): every slot of
        // depth d holds its seed + d.
        let flow = |d: u64| -> Vec<VertexId> {
            let slots = (0..8u64).flat_map(|v| std::iter::repeat_n(v, 1 << d));
            slots.map(|v| VertexId((v + d) % 8)).collect()
        };
        let feats: Vec<Matrix> = (0..3)
            .map(|d| gather_features(&provider, &flow(d), 4))
            .collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let stats = net.train_step_features(feats.clone(), &labels);
        assert!(stats.loss.is_finite(), "loss {}", stats.loss);
        assert_eq!(net.predict(&feats, &identity_tables(&feats)).len(), 8);
    }
}
