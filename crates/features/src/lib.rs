//! Graph → feature-space transformation (Section II of the paper).
//!
//! GraphSig "slides a window" across every graph by running a Random Walk
//! with Restart (RWR) from each node and recording how often each *feature*
//! — an edge type between frequent atoms, or an atom type — is traversed.
//! The result is one discretized feature vector per node; a graph of `m`
//! nodes becomes `m` vectors, all computed by one solve per graph.
//!
//! * [`selection`] — choosing the feature set: the chemical-compound recipe
//!   (all atom types + edge types among the top-K most frequent atoms,
//!   Sec. II-B) and the greedy importance-vs-similarity selector of Eqn. 2
//!   (Sec. II-A).
//! * [`rwr`] — the random walk with restart, steady-state feature
//!   distribution, and 10-bin discretization (Sec. II-C).
//! * [`window_count`] — plain occurrence counting, the ablation strawman.

pub mod rwr;
pub mod selection;
pub mod window_count;

pub use rwr::{
    discretize, graph_feature_distributions, graph_feature_vectors, NodeVector, RwrConfig,
};
pub use selection::{greedy_select, FeatureKind, FeatureSet, GreedyParams};
pub use window_count::{count_feature_distribution, graph_count_vectors};
