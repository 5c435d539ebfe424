//! GraphSig — scalable mining of statistically significant subgraphs
//! (Ranu & Singh, ICDE 2009).
//!
//! This crate is the paper's primary contribution: Algorithm 2, assembled
//! from the workspace substrates. Given a database of labeled graphs it
//! returns the subgraphs whose occurrence is statistically surprising
//! (low binomial p-value in feature space, confirmed in graph space), even
//! when their frequency is far below what any frequent-subgraph miner can
//! reach:
//!
//! 1. **RWR pass** (Sec. II): every node becomes a discretized feature
//!    vector describing its neighborhood (`graphsig-features`).
//! 2. **Grouping** (Alg. 2 line 6): vectors are grouped by the label of
//!    their source node.
//! 3. **FVMine** (Alg. 2 line 7, `graphsig-fvmine`): each group is mined
//!    for closed significant sub-feature vectors under the group's
//!    empirical priors.
//! 4. **Region extraction** (lines 9–12): for each significant vector, the
//!    nodes it describes are located, and `CutGraph(node, radius)`
//!    isolates each neighborhood. The sets share most of their nodes, so
//!    each distinct node is cut and compiled once into a per-mine
//!    [`RegionArena`], and a region set is a list of its regions.
//! 5. **Maximal FSM** (line 13): each region set is mined for maximal
//!    frequent subgraphs at a *high* threshold (the paper's default: 80%)
//!    using FSG over the set's compiled regions — cheap because the sets
//!    are small and homogeneous. Sets without a common subgraph produce
//!    nothing, which prunes feature-space false positives.
//!
//! The result carries, per subgraph, the feature-space evidence (vector,
//! p-value, support) and the graph-space evidence (supporting graph ids),
//! plus a [`Profile`] of where time went (the paper's Fig. 10).
//!
//! # Example
//!
//! ```no_run
//! use graphsig_core::{GraphSig, GraphSigConfig};
//! use graphsig_datagen::aids_like;
//!
//! let data = aids_like(1000, 42);
//! let result = GraphSig::new(GraphSigConfig::default()).mine(&data.active_subset());
//! for sg in &result.subgraphs {
//!     println!(
//!         "{} edges, p-value {:.3e}, support {}",
//!         sg.graph.edge_count(),
//!         sg.vector_pvalue,
//!         sg.gids.len()
//!     );
//! }
//! ```

pub mod config;
pub mod par;
pub mod pipeline;
pub mod regions;
pub mod report;
pub mod vectors;

/// Request-level resource governance (re-exported from
/// [`graphsig_graph::control`]): [`Budget`], [`CancelToken`], and the
/// [`Outcome`]/[`Completion`] types the `*_outcome` pipeline entry points
/// report truncation through.
pub use graphsig_graph::control;
pub use graphsig_graph::{Budget, CancelToken, Completion, Outcome, StopReason};

pub use config::{FsmBackend, GraphSigConfig, WindowKind};
pub use par::{par_map, par_map_range, resolve_threads, try_par_map, try_par_map_range};
pub use pipeline::{GraphSig, GraphSigResult, Prepared, Profile, RunStats, SignificantSubgraph};
pub use regions::{RegionArena, RegionSet};
pub use report::{describe, describe_run, render_subgraphs};
pub use vectors::{
    compute_all_vectors, compute_all_window_vectors, compute_all_window_vectors_governed,
    group_by_label, GraphVectors, LabelGroup,
};
