//! Human-readable reports for mined subgraphs.
//!
//! A [`SignificantSubgraph`](crate::SignificantSubgraph) carries both
//! graph-space structure and feature-space evidence; this module renders
//! them with label and feature *names* so a chemist (or a test log reader)
//! can see what was found and why it was surprising.

use std::fmt::Write as _;

use graphsig_features::FeatureSet;
use graphsig_graph::{Completion, GraphDb, LabelTable};

use crate::pipeline::SignificantSubgraph;
use crate::pipeline::{GraphSigResult, RunStats};

/// Multi-line description of one answer: structure, statistics, and the
/// non-zero features of the sub-feature vector that discovered it.
pub fn describe(sg: &SignificantSubgraph, fs: &FeatureSet, labels: &LabelTable) -> String {
    let mut out = String::new();
    let atoms: Vec<String> = sg
        .graph
        .node_labels()
        .iter()
        .map(|&l| labels.node_name(l).unwrap_or("?").to_string())
        .collect();
    out.push_str(&format!(
        "subgraph: {} atoms [{}], {} bonds\n",
        atoms.len(),
        atoms.join(" "),
        sg.graph.edge_count()
    ));
    for e in sg.graph.edges() {
        out.push_str(&format!(
            "  {}{} -{}- {}{}\n",
            atoms[e.u as usize],
            e.u,
            labels.edge_name(e.label).unwrap_or("?"),
            atoms[e.v as usize],
            e.v
        ));
    }
    out.push_str(&format!(
        "evidence: p-value {:.3e} at support {} (group atom:{}), found in {} graphs via {} regions\n",
        sg.vector_pvalue,
        sg.vector_support,
        labels.node_name(sg.group_label).unwrap_or("?"),
        sg.gids.len(),
        sg.set_size,
    ));
    out.push_str("discovering vector (non-zero features):\n");
    for (i, &v) in sg.source_vector.iter().enumerate() {
        if v > 0 {
            out.push_str(&format!("  {} >= {}\n", fs.name(i), v));
        }
    }
    out
}

/// One-line run summary: answer count, counters, and — when the run was
/// budget-governed — whether it completed or what cut it short. Used by the
/// CLI and the benchmark harness so truncation is never silent.
pub fn describe_run(result: &GraphSigResult, completion: Completion) -> String {
    let RunStats {
        vectors,
        groups,
        significant_vectors,
        region_sets,
        regions,
        pruned_sets,
        truncated_sets,
        match_steps,
        canon_calls,
        cert_hits,
    } = result.stats;
    let mut line = format!(
        "{} subgraphs ({}); {} vectors in {} groups -> {} significant, \
         {} region sets over {} regions ({} pruned, {} truncated)",
        result.subgraphs.len(),
        completion,
        vectors,
        groups,
        significant_vectors,
        region_sets,
        regions,
        pruned_sets,
        truncated_sets,
    );
    // On budgeted runs, name how much of the cooperative step spend was
    // isomorphism matching — the usual suspect when a step budget bites.
    if match_steps > 0 {
        let _ = write!(line, "; {match_steps} matcher steps");
    }
    // Canonicalization economics (also budgeted-run-only): full min-code
    // computations vs. queries short-circuited through certificates.
    if canon_calls > 0 || cert_hits > 0 {
        let _ = write!(line, "; {canon_calls} canon calls, {cert_hits} cert hits");
    }
    line
}

/// The canonical machine-parseable rendering of a mined answer set: for
/// each of the first `top` subgraphs, a `# subgraph i: ...` statistics
/// comment followed by the subgraph as a gSpan transaction block. This is
/// the CLI's `mine` stdout *and* the `graphsig serve` mine payload — one
/// implementation, so the two are byte-identical by construction.
pub fn render_subgraphs(db: &GraphDb, result: &GraphSigResult, top: usize) -> String {
    let mut out = String::new();
    for (i, sg) in result.subgraphs.iter().take(top).enumerate() {
        let _ = writeln!(
            out,
            "# subgraph {i}: p-value {:.6e}, support {} graphs ({:.3}%), {} edges",
            sg.vector_pvalue,
            sg.gids.len(),
            100.0 * sg.frequency(db.len()),
            sg.graph.edge_count()
        );
        let one = GraphDb::from_parts(vec![sg.graph.clone()], db.labels().clone());
        out.push_str(&graphsig_graph::write_transactions(&one));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphSig, GraphSigConfig};
    use graphsig_datagen::aids_like;
    use graphsig_features::FeatureSet;

    #[test]
    fn describe_names_everything() {
        let data = aids_like(200, 5);
        let actives = data.active_subset();
        let fs = FeatureSet::for_chemical(&actives, 5);
        let cfg = GraphSigConfig {
            min_freq: 0.1,
            max_pvalue: 0.05,
            radius: 4,
            max_pattern_edges: 10,
            max_patterns_per_set: 3_000,
            ..Default::default()
        };
        let result = GraphSig::new(cfg).mine_with_features(&actives, &fs);
        assert!(!result.subgraphs.is_empty());
        let text = describe(&result.subgraphs[0], &fs, actives.labels());
        assert!(text.contains("subgraph:"));
        assert!(text.contains("evidence: p-value"));
        assert!(text.contains(">="), "no feature evidence lines:\n{text}");
        // Names resolved, not raw ids.
        assert!(!text.contains('?'), "unresolved label in:\n{text}");
    }

    #[test]
    fn describe_run_shows_completion() {
        use graphsig_graph::{Completion, StopReason};
        let data = aids_like(60, 6);
        let cfg = GraphSigConfig {
            min_freq: 0.1,
            max_pvalue: 0.05,
            radius: 3,
            max_pattern_edges: 8,
            ..Default::default()
        };
        let outcome = GraphSig::new(cfg).mine_outcome(&data.db);
        let line = describe_run(&outcome.result, outcome.completion);
        assert!(line.contains("subgraphs"), "{line}");
        assert!(line.contains("region sets"), "{line}");
        let truncated = describe_run(&outcome.result, Completion::Truncated(StopReason::Deadline));
        assert!(
            truncated.contains("truncated (deadline exceeded)"),
            "{truncated}"
        );
    }
}
