//! The database-wide RWR pass and label grouping (Alg. 2 lines 3–6).
//!
//! `D <- D + RWR(g)` for every graph, then `D_a <- {v in D : label(v) = a}`.
//! The RWR pass is embarrassingly parallel across graphs and runs through
//! the shared dynamically-scheduled executor ([`crate::par`]) when more
//! than one thread is configured (`threads == 0` means auto). It computes a
//! fixed point rather than searching, so a step budget never meters it:
//! step budgets bound FVMine and FSM only.

use graphsig_features::{
    graph_count_vectors, graph_feature_vectors, FeatureSet, NodeVector, RwrConfig,
};
use graphsig_graph::control::{self, Budget, StopReason};
use graphsig_graph::{GraphDb, NodeLabel};

use crate::config::WindowKind;

/// All node vectors of one graph.
#[derive(Debug, Clone)]
pub struct GraphVectors {
    /// Graph id in the database.
    pub gid: u32,
    /// One vector per node, in node order.
    pub vectors: Vec<NodeVector>,
}

/// One label group `D_a`: every vector produced from a node labeled `a`,
/// across the whole database.
#[derive(Debug, Clone)]
pub struct LabelGroup {
    /// The atom type `a`.
    pub label: NodeLabel,
    /// `(gid, node)` provenance, parallel to `vectors`.
    pub members: Vec<(u32, u32)>,
    /// The discretized vectors.
    pub vectors: Vec<Vec<u8>>,
}

/// Run RWR on every node of every graph (Alg. 2 lines 3–4).
///
/// With `threads != 1` the graphs are distributed over scoped worker
/// threads by dynamic self-scheduling (`threads == 0` = auto); the output
/// is byte-identical to the sequential run for any thread count.
pub fn compute_all_vectors(
    db: &GraphDb,
    fs: &FeatureSet,
    rwr: &RwrConfig,
    threads: usize,
) -> Vec<GraphVectors> {
    compute_all_window_vectors(db, fs, rwr, WindowKind::Rwr, threads)
}

/// Window pass with an explicit mechanism: RWR (the paper) or plain
/// counting (the ablation strawman of Sec. II-C).
pub fn compute_all_window_vectors(
    db: &GraphDb,
    fs: &FeatureSet,
    rwr: &RwrConfig,
    window: WindowKind,
    threads: usize,
) -> Vec<GraphVectors> {
    compute_all_window_vectors_governed(db, fs, rwr, window, threads, None).0
}

/// [`compute_all_window_vectors`] under a resource [`Budget`]. Only the
/// deadline and the cancel token govern the pass, checked before each
/// graph; a step budget does not apply, so the vectors of a step-budgeted
/// run are the converged ones. A graph started after a stop gets zero
/// sweeps (the point mass at each source node), so downstream phases still
/// see one vector per node; the stop is sticky, so those phases skip every
/// unit and never mine these vectors. The second return value is the first
/// stop reason encountered, in graph-id order.
pub fn compute_all_window_vectors_governed(
    db: &GraphDb,
    fs: &FeatureSet,
    rwr: &RwrConfig,
    window: WindowKind,
    threads: usize,
    budget: Option<&Budget>,
) -> (Vec<GraphVectors>, Option<StopReason>) {
    // Dynamic scheduling instead of static contiguous chunking: graph
    // sizes are skewed, and a contiguous run of large molecules used to
    // leave one worker as the straggler while the others sat idle.
    let per_graph: Vec<(GraphVectors, Option<StopReason>)> =
        crate::par::par_map_range(threads, db.len(), |gid| {
            let g = db.graph(gid);
            let stop = control::check_start(budget);
            let vectors = match window {
                WindowKind::Rwr if stop.is_some() => {
                    let degenerate = RwrConfig {
                        max_iters: 0,
                        ..*rwr
                    };
                    graph_feature_vectors(g, fs, &degenerate)
                }
                WindowKind::Rwr => graph_feature_vectors(g, fs, rwr),
                WindowKind::Count { radius } => graph_count_vectors(g, radius, fs),
            };
            (
                GraphVectors {
                    gid: gid as u32,
                    vectors,
                },
                stop,
            )
        });
    let mut out = Vec::with_capacity(per_graph.len());
    let mut truncation: Option<StopReason> = None;
    for (gv, stop) in per_graph {
        if truncation.is_none() {
            truncation = stop;
        }
        out.push(gv);
    }
    (out, truncation)
}

/// Group all vectors by source-node label (Alg. 2 line 6), returning the
/// groups sorted by label id. Empty groups are omitted.
pub fn group_by_label(all: &[GraphVectors]) -> Vec<LabelGroup> {
    let max_label = all
        .iter()
        .flat_map(|gv| gv.vectors.iter().map(|v| v.label))
        .max();
    let Some(max_label) = max_label else {
        return Vec::new();
    };
    let mut groups: Vec<LabelGroup> = (0..=max_label)
        .map(|l| LabelGroup {
            label: l,
            members: Vec::new(),
            vectors: Vec::new(),
        })
        .collect();
    for gv in all {
        for v in &gv.vectors {
            let g = &mut groups[v.label as usize];
            g.members.push((gv.gid, v.node));
            g.vectors.push(v.bins.clone());
        }
    }
    groups.retain(|g| !g.vectors.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_datagen::aids_like;
    use graphsig_features::FeatureSet;

    #[test]
    fn parallel_matches_sequential() {
        let data = aids_like(40, 5);
        let fs = FeatureSet::for_chemical(&data.db, 5);
        let rwr = RwrConfig::default();
        let seq = compute_all_vectors(&data.db, &fs, &rwr, 1);
        let par = compute_all_vectors(&data.db, &fs, &rwr, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.gid, b.gid);
            assert_eq!(a.vectors, b.vectors);
        }
    }

    #[test]
    fn one_vector_per_node() {
        let data = aids_like(10, 9);
        let fs = FeatureSet::for_chemical(&data.db, 5);
        let all = compute_all_vectors(&data.db, &fs, &RwrConfig::default(), 1);
        for gv in &all {
            assert_eq!(
                gv.vectors.len(),
                data.db.graph(gv.gid as usize).node_count()
            );
        }
    }

    #[test]
    fn groups_partition_all_vectors() {
        let data = aids_like(15, 21);
        let fs = FeatureSet::for_chemical(&data.db, 5);
        let all = compute_all_vectors(&data.db, &fs, &RwrConfig::default(), 1);
        let total: usize = all.iter().map(|gv| gv.vectors.len()).sum();
        let groups = group_by_label(&all);
        let grouped: usize = groups.iter().map(|g| g.vectors.len()).sum();
        assert_eq!(total, grouped);
        // Provenance is consistent: the node really has the group's label.
        for g in &groups {
            for &(gid, node) in &g.members {
                assert_eq!(data.db.graph(gid as usize).node_label(node), g.label);
            }
        }
        // Sorted by label, no empties.
        for w in groups.windows(2) {
            assert!(w[0].label < w[1].label);
        }
        assert!(groups.iter().all(|g| !g.vectors.is_empty()));
    }

    #[test]
    fn count_window_parallel_matches_sequential() {
        let data = aids_like(30, 8);
        let fs = FeatureSet::for_chemical(&data.db, 5);
        let rwr = RwrConfig::default();
        let seq = compute_all_window_vectors(
            &data.db,
            &fs,
            &rwr,
            crate::config::WindowKind::Count { radius: 3 },
            1,
        );
        let par = compute_all_window_vectors(
            &data.db,
            &fs,
            &rwr,
            crate::config::WindowKind::Count { radius: 3 },
            4,
        );
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.vectors, b.vectors);
        }
        // Count vectors differ from RWR vectors (different mechanism).
        let rwr_vecs = compute_all_vectors(&data.db, &fs, &rwr, 1);
        assert!(seq
            .iter()
            .zip(&rwr_vecs)
            .any(|(a, b)| a.vectors != b.vectors));
    }

    #[test]
    fn empty_database() {
        let db = GraphDb::new();
        let data = aids_like(5, 1);
        let fs = FeatureSet::for_chemical(&data.db, 5);
        let all = compute_all_vectors(&db, &fs, &RwrConfig::default(), 2);
        assert!(all.is_empty());
        assert!(group_by_label(&all).is_empty());
    }
}
