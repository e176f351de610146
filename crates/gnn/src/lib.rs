//! # GNN operator layer and training substrate
//!
//! The top layer of PlatoD2GL (paper Fig. 2) exposes TensorFlow operators
//! for GNN training; this crate rebuilds that layer natively:
//!
//! * **Sampling operators** (paper Sec. III) — [`NodeSampler`] (sample seed
//!   nodes from the graph), [`NeighborSampler`] (fixed-fanout weighted
//!   neighbor sampling), [`SubgraphSampler`] (k-hop subgraphs pivoted at a
//!   seed) and [`MetapathSampler`] (multi-hop sampling over a sequence of
//!   edge types, the "multi-hops meta-paths sampling" of Sec. VII-C). All
//!   operate against any [`GraphStore`](platod2gl_graph::GraphStore), so
//!   PlatoD2GL and the baselines can be benchmarked under identical query
//!   plans.
//! * **Training substrate** — a from-scratch dense-matrix GraphSAGE
//!   implementation of the message-passing recurrence (paper Eq. 1):
//!   mean-aggregate sampled neighbor embeddings, combine with the
//!   self-embedding, ReLU, stacked `L` layers, softmax cross-entropy and
//!   SGD. It replaces the paper's TensorFlow dependency. [`SageNet`] only
//!   computes: it trains and predicts on message-flow blocks of gathered
//!   features and child tables. Sampling those blocks from a graph service
//!   is the `pipeline` crate's job (`KHopSampler`, `TrainingPipeline`).

#![deny(clippy::undocumented_unsafe_blocks)]

mod features;
mod nn;
mod ops;
mod sage;

pub use features::{gather_features, AttributeFeatures, FeatureProvider, HashFeatures};
pub use nn::{softmax_cross_entropy, Dense, Matrix};
pub use ops::{MetapathSampler, NeighborSampler, NodeSampler, SampledSubgraph, SubgraphSampler};
pub use sage::{SageLayer, SageNet, SageNetConfig, TrainStats};
