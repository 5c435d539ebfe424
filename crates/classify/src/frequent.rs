//! Frequent-pattern classifier — the strawman of Section V.
//!
//! "Take the example of a classifier built on frequent subgraphs such as
//! benzene ... even though benzene is frequent, it is not discriminative
//! enough." This baseline does exactly that: the top-k most *frequent*
//! patterns of the training set become binary features (class labels are
//! ignored during feature mining), and a linear SVM classifies. The
//! `ablation_significant_vs_frequent` experiment shows it trailing the
//! significance-based classifier, reproducing the paper's motivation.

use crate::svm::{Kernel, Svm, SvmConfig};
use graphsig_graph::{CompiledGraph, Graph, GraphDb, MultiMatcher};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

/// Frequent-pattern classifier parameters.
#[derive(Debug, Clone, Copy)]
pub struct FrequentConfig {
    /// Mining frequency threshold over the training set.
    pub min_freq: f64,
    /// Candidate pattern size cap (edges).
    pub max_edges: usize,
    /// Safety cap on enumerated candidates.
    pub max_candidates: usize,
    /// Number of most-frequent patterns kept as features.
    pub top_k: usize,
    /// SVM parameters (linear kernel).
    pub svm: SvmConfig,
}

impl Default for FrequentConfig {
    fn default() -> Self {
        Self {
            min_freq: 0.1,
            max_edges: 8,
            max_candidates: 5_000,
            top_k: 50,
            svm: SvmConfig::default(),
        }
    }
}

/// The trained frequency-only baseline.
pub struct FrequentPatternClassifier {
    features: Vec<Pattern>,
    svm: Svm,
    train_vectors: Vec<Vec<f64>>,
}

impl FrequentPatternClassifier {
    /// Train on `(db, labels)`: features are chosen by frequency alone.
    pub fn train(db: &GraphDb, labels: &[bool], cfg: FrequentConfig) -> Self {
        assert_eq!(db.len(), labels.len(), "label count mismatch");
        assert!(!db.is_empty(), "empty training set");
        let support = ((cfg.min_freq * db.len() as f64).ceil() as usize).max(1);
        let mut patterns = GSpan::new(
            MinerConfig::new(support)
                .with_max_edges(cfg.max_edges)
                .with_max_patterns(cfg.max_candidates),
        )
        .mine(db);
        // Most frequent first; bigger patterns break ties (more structure).
        patterns.sort_by(|a, b| {
            b.support
                .cmp(&a.support)
                .then_with(|| b.graph.edge_count().cmp(&a.graph.edge_count()))
        });
        patterns.truncate(cfg.top_k);

        let train_vectors: Vec<Vec<f64>> = db
            .graphs()
            .iter()
            .map(|g| vectorize(g, &patterns))
            .collect();
        let y: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let gram = Kernel::Linear.gram(&train_vectors);
        let svm = Svm::train(&gram, &y, cfg.svm);
        Self {
            features: patterns,
            svm,
            train_vectors,
        }
    }

    /// The selected pattern features, most frequent first.
    pub fn features(&self) -> &[Pattern] {
        &self.features
    }

    /// Decision value (`> 0` ⇒ positive).
    pub fn score(&self, query: &Graph) -> f64 {
        let x = vectorize(query, &self.features);
        let k_row: Vec<f64> = self
            .train_vectors
            .iter()
            .map(|t| Kernel::Linear.eval(&x, t))
            .collect();
        self.svm.decision(&k_row)
    }

    /// Hard classification.
    pub fn classify(&self, query: &Graph) -> bool {
        self.score(query) > 0.0
    }
}

/// Binary containment feature vector for `g` over `features`. The target
/// is compiled to bitsets once and shared across all feature patterns (one
/// compilation per graph, not per test). Shared with the LEAP classifier
/// via [`vectorize_over`].
pub(crate) fn vectorize(g: &Graph, features: &[Pattern]) -> Vec<f64> {
    vectorize_over(g, features.iter().map(|p| &p.graph))
}

/// [`vectorize`] over any sequence of pattern graphs.
pub(crate) fn vectorize_over<'a>(g: &Graph, patterns: impl Iterator<Item = &'a Graph>) -> Vec<f64> {
    let compiled = CompiledGraph::compile(g);
    patterns
        .map(|p| MultiMatcher::new(p).exists_in_compiled(&compiled))
        .map(|m| if m { 1.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::parse_transactions;

    #[test]
    fn features_are_ranked_by_frequency() {
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 C\ne 0 1 s\n\
             t # 1\nv 0 C\nv 1 C\ne 0 1 s\n\
             t # 2\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n",
        )
        .unwrap();
        let labels = vec![true, false, true];
        let clf = FrequentPatternClassifier::train(
            &db,
            &labels,
            FrequentConfig {
                min_freq: 0.3,
                top_k: 10,
                ..Default::default()
            },
        );
        let f = clf.features();
        assert!(!f.is_empty());
        // C-C (support 3) outranks C-O (support 1, filtered by min_freq).
        assert_eq!(f[0].support, 3);
        for w in f.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn frequency_alone_misses_class_structure() {
        // The class marker (N) is RARE: frequent features miss it entirely,
        // so the classifier cannot separate the classes, while the marker
        // trivially separates them for anything class-aware.
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 N\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 N\ne 0 1 s\ne 1 2 s\n\
             t # 2\nv 0 C\nv 1 C\ne 0 1 s\n\
             t # 3\nv 0 C\nv 1 C\ne 0 1 s\n\
             t # 4\nv 0 C\nv 1 C\ne 0 1 s\n\
             t # 5\nv 0 C\nv 1 C\ne 0 1 s\n",
        )
        .unwrap();
        let labels = vec![true, true, false, false, false, false];
        // min_freq 0.6 excludes the C-N pattern (frequency 1/3).
        let clf = FrequentPatternClassifier::train(
            &db,
            &labels,
            FrequentConfig {
                min_freq: 0.6,
                top_k: 5,
                ..Default::default()
            },
        );
        // Every feature occurs in every graph → identical vectors → the
        // SVM cannot separate the training set.
        let scores: Vec<f64> = (0..db.len()).map(|i| clf.score(db.graph(i))).collect();
        let first = scores[0];
        assert!(
            scores.iter().all(|s| (s - first).abs() < 1e-9),
            "frequency-only features unexpectedly discriminate: {scores:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_rejected() {
        FrequentPatternClassifier::train(&GraphDb::new(), &[], FrequentConfig::default());
    }
}
