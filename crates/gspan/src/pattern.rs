//! Mined patterns and closed / maximal post-filters.

use crate::dfs_code::DfsCode;
use graphsig_graph::{Graph, MatcherKind, MultiMatcher};

/// A frequent subgraph produced by a miner.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// Canonical DFS code (dedup key).
    pub code: DfsCode,
    /// The pattern graph (node ids = DFS indices).
    pub graph: Graph,
    /// Number of distinct database graphs containing the pattern.
    pub support: usize,
    /// Ids of the supporting graphs, ascending.
    pub gids: Vec<u32>,
}

impl Pattern {
    /// Relative frequency given the database size.
    pub fn frequency(&self, db_size: usize) -> f64 {
        if db_size == 0 {
            0.0
        } else {
            self.support as f64 / db_size as f64
        }
    }
}

/// Keep only *closed* patterns: those with no super-pattern of equal
/// support. (CloseGraph output semantics, by post-filtering.)
pub fn filter_closed(patterns: Vec<Pattern>) -> Vec<Pattern> {
    retain_without_superpattern(patterns, true)
}

/// Keep only *maximal* patterns: those that are not a subgraph of any other
/// frequent pattern. This is the `MaximalFSM` output of GraphSig's
/// Algorithm 2 — "a frequent subgraph is maximal if it is not a subgraph of
/// any other frequent subgraph".
pub fn filter_maximal(patterns: Vec<Pattern>) -> Vec<Pattern> {
    retain_without_superpattern(patterns, false)
}

/// [`filter_maximal`]; the engine argument carries no choice. Kept only
/// because the benchmark crate still calls it; removed with that call.
pub fn filter_maximal_with(patterns: Vec<Pattern>, _matcher: MatcherKind) -> Vec<Pattern> {
    filter_maximal(patterns)
}

/// Shared filter: drop `p` when some other pattern strictly contains it
/// (and, for the closed variant, additionally has the same support).
///
/// Processing patterns in descending edge count and comparing each
/// candidate only against the *kept* set is sound: containment is
/// transitive and support is anti-monotone, so any strict super-pattern
/// witnessing that `p` is non-maximal (or non-closed) is itself contained
/// in a kept maximal (closed) pattern that also witnesses it. This keeps
/// the filter O(|patterns| × |kept|) instead of O(|patterns|²) — the kept
/// set is tiny for the high-threshold region sets of Algorithm 2.
fn retain_without_superpattern(patterns: Vec<Pattern>, same_support_only: bool) -> Vec<Pattern> {
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by(|&a, &b| {
        patterns[b]
            .graph
            .edge_count()
            .cmp(&patterns[a].graph.edge_count())
    });
    let mut kept: Vec<usize> = Vec::new();
    for &i in &order {
        let p = &patterns[i];
        let pe = p.graph.edge_count();
        // One matcher for p against every kept super-pattern candidate:
        // the pattern-side compilation is shared across the kept set.
        let mut m = MultiMatcher::new(&p.graph);
        let dominated = kept.iter().any(|&k| {
            let q = &patterns[k];
            if q.graph.edge_count() <= pe {
                return false;
            }
            if same_support_only && q.support != p.support {
                return false;
            }
            // A super-pattern's support set is a subset of p's; cheap gid
            // containment check before the isomorphism test.
            if !is_subset(&p.gids, &q.gids) {
                return false;
            }
            m.exists_in(&q.graph)
        });
        if !dominated {
            kept.push(i);
        }
    }
    kept.sort_unstable();
    let keep_set: std::collections::HashSet<usize> = kept.into_iter().collect();
    patterns
        .into_iter()
        .enumerate()
        .filter_map(|(i, p)| keep_set.contains(&i).then_some(p))
        .collect()
}

/// Whether sorted slice `sub` is a subset of sorted slice `sup` — used with
/// the closed filter where equal support implies equal gid sets.
fn is_subset(sup: &[u32], sub: &[u32]) -> bool {
    let mut it = sup.iter();
    'outer: for x in sub {
        for y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{GSpan, MinerConfig};
    use graphsig_graph::parse_transactions;

    /// Database where the path C-C-O is frequent; its sub-edges are not
    /// closed (same support as the path) and not maximal.
    fn db() -> graphsig_graph::GraphDb {
        parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n",
        )
        .unwrap()
    }

    #[test]
    fn closed_filter_drops_equal_support_subpatterns() {
        let pats = GSpan::new(MinerConfig::new(2)).mine(&db());
        assert_eq!(pats.len(), 3); // C-C, C-O, C-C-O
        let closed = filter_closed(pats);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].graph.edge_count(), 2);
    }

    #[test]
    fn closed_keeps_subpattern_with_strictly_higher_support() {
        // C-C alone in a third graph: support(C-C)=3 > support(C-C-O)=2,
        // so C-C is closed too.
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 2\nv 0 C\nv 1 C\ne 0 1 s\n",
        )
        .unwrap();
        let closed = GSpan::new(MinerConfig::new(2)).mine_closed(&db);
        let mut sizes: Vec<_> = closed.iter().map(|p| p.graph.edge_count()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]); // C-C (support 3) and C-C-O (support 2)
        assert!(closed
            .iter()
            .any(|p| p.support == 3 && p.graph.edge_count() == 1));
    }

    #[test]
    fn maximal_filter_keeps_only_top_patterns() {
        let maximal = GSpan::new(MinerConfig::new(2)).mine_maximal(&db());
        assert_eq!(maximal.len(), 1);
        assert_eq!(maximal[0].graph.edge_count(), 2);
        assert_eq!(maximal[0].support, 2);
    }

    #[test]
    fn maximal_drops_subpatterns_even_with_higher_support() {
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 2\nv 0 C\nv 1 C\ne 0 1 s\n",
        )
        .unwrap();
        let maximal = GSpan::new(MinerConfig::new(2)).mine_maximal(&db);
        // C-C has support 3 but is still inside C-C-O → not maximal.
        assert_eq!(maximal.len(), 1);
        assert_eq!(maximal[0].graph.edge_count(), 2);
    }

    #[test]
    fn frequency_helper() {
        let pats = GSpan::new(MinerConfig::new(2)).mine(&db());
        assert!((pats[0].frequency(2) - 1.0).abs() < 1e-12);
        assert_eq!(pats[0].frequency(0), 0.0);
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 2, 3], &[2, 3]));
        assert!(is_subset(&[1, 2, 3], &[]));
        assert!(!is_subset(&[1, 3], &[2]));
        assert!(!is_subset(&[], &[1]));
    }
}
