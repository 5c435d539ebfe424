//! LEAP-style discriminative-pattern classifier baseline (Yan et al.,
//! SIGMOD'08).
//!
//! LEAP mines subgraph patterns that maximize an objective contrasting
//! their frequency in the positive vs the negative class, converts each
//! training graph into a binary pattern-containment vector, and trains an
//! SVM on those features. We reproduce that pipeline: gSpan enumerates
//! frequent candidates over the combined training set, each candidate is
//! scored by its *frequency leap* `|freq_pos - freq_neg|`, the top-k
//! patterns become features, and a linear SVM classifies. As in the paper,
//! the pattern-mining phase dominates the running time.

use crate::frequent::vectorize_over;
use crate::svm::{Kernel, Svm, SvmConfig};
use graphsig_graph::{Graph, GraphDb};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

/// LEAP-style classifier parameters.
#[derive(Debug, Clone, Copy)]
pub struct LeapConfig {
    /// Candidate-mining frequency threshold over the combined training set.
    pub min_freq: f64,
    /// Candidate pattern size cap (edges).
    pub max_edges: usize,
    /// Safety cap on enumerated candidates.
    pub max_candidates: usize,
    /// Number of top-leap patterns kept as features.
    pub top_k: usize,
    /// SVM parameters (linear kernel).
    pub svm: SvmConfig,
}

impl Default for LeapConfig {
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

/// A pattern feature with its class frequencies.
#[derive(Debug, Clone)]
pub struct LeapFeature {
    /// The subgraph pattern.
    pub graph: Graph,
    /// Frequency among positive training graphs.
    pub freq_pos: f64,
    /// Frequency among negative training graphs.
    pub freq_neg: f64,
}

impl LeapFeature {
    /// The discrimination score: `|freq_pos - freq_neg|`.
    pub fn leap(&self) -> f64 {
        (self.freq_pos - self.freq_neg).abs()
    }
}

/// The trained LEAP-style classifier.
pub struct LeapClassifier {
    features: Vec<LeapFeature>,
    svm: Svm,
    train_vectors: Vec<Vec<f64>>,
}

impl LeapClassifier {
    /// Train on `(db, labels)`.
    pub fn train(db: &GraphDb, labels: &[bool], cfg: LeapConfig) -> Self {
        assert_eq!(db.len(), labels.len(), "label count mismatch");
        assert!(!db.is_empty(), "empty training set");
        let n_pos = labels.iter().filter(|&&l| l).count();
        let n_neg = labels.len() - n_pos;
        assert!(n_pos > 0 && n_neg > 0, "need both classes to train");

        // Candidate mining over the whole training set.
        let support = ((cfg.min_freq * db.len() as f64).ceil() as usize).max(1);
        let patterns: Vec<Pattern> = GSpan::new(
            MinerConfig::new(support)
                .with_max_edges(cfg.max_edges)
                .with_max_patterns(cfg.max_candidates),
        )
        .mine(db);

        // Score by frequency leap between classes (computed from the gids
        // gSpan already tracked — no extra isomorphism tests).
        let mut scored: Vec<LeapFeature> = patterns
            .into_iter()
            .map(|p| {
                let pos = p.gids.iter().filter(|&&g| labels[g as usize]).count();
                let neg = p.gids.len() - pos;
                LeapFeature {
                    graph: p.graph,
                    freq_pos: pos as f64 / n_pos as f64,
                    freq_neg: neg as f64 / n_neg as f64,
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.leap()
                .partial_cmp(&a.leap())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.graph.edge_count().cmp(&a.graph.edge_count()))
        });
        scored.truncate(cfg.top_k);

        // Binary containment features for the training graphs.
        let train_vectors: Vec<Vec<f64>> = db
            .graphs()
            .iter()
            .map(|g| Self::vectorize_graph(g, &scored))
            .collect();
        let y: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let gram = Kernel::Linear.gram(&train_vectors);
        let svm = Svm::train(&gram, &y, cfg.svm);
        Self {
            features: scored,
            svm,
            train_vectors,
        }
    }

    fn vectorize_graph(g: &Graph, features: &[LeapFeature]) -> Vec<f64> {
        vectorize_over(g, features.iter().map(|f| &f.graph))
    }

    /// The selected pattern features, best leap first.
    pub fn features(&self) -> &[LeapFeature] {
        &self.features
    }

    /// Decision value (`> 0` ⇒ positive).
    pub fn score(&self, query: &Graph) -> f64 {
        let x = Self::vectorize_graph(query, &self.features);
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::parse_transactions;

    /// Positives contain a C-N edge; negatives don't.
    fn db_and_labels() -> (GraphDb, Vec<bool>) {
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 N\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 N\ne 0 1 s\n\
             t # 2\nv 0 C\nv 1 N\nv 2 C\ne 0 1 s\ne 1 2 s\n\
             t # 3\nv 0 C\nv 1 O\ne 0 1 s\n\
             t # 4\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 5\nv 0 O\nv 1 C\nv 2 C\ne 0 1 s\ne 1 2 s\n",
        )
        .unwrap();
        (db, vec![true, true, true, false, false, false])
    }

    #[test]
    fn discriminative_pattern_becomes_top_feature() {
        let (db, labels) = db_and_labels();
        let clf = LeapClassifier::train(
            &db,
            &labels,
            LeapConfig {
                min_freq: 0.3,
                top_k: 5,
                ..Default::default()
            },
        );
        let top = &clf.features()[0];
        assert!((top.leap() - 1.0).abs() < 1e-12, "top leap {}", top.leap());
        // The top feature must involve N (the class marker).
        assert!(top
            .graph
            .node_labels()
            .iter()
            .any(|&l| { db.labels().node_name(l) == Some("N") }));
    }

    #[test]
    fn classifier_separates_training_classes() {
        let (db, labels) = db_and_labels();
        let clf = LeapClassifier::train(&db, &labels, LeapConfig::default());
        for (i, &l) in labels.iter().enumerate() {
            assert_eq!(clf.classify(db.graph(i)), l, "graph {i}");
        }
    }

    #[test]
    fn generalizes_to_unseen_graphs() {
        let (db, labels) = db_and_labels();
        let clf = LeapClassifier::train(&db, &labels, LeapConfig::default());
        let test = parse_transactions(
            "t # 0\nv 0 N\nv 1 C\nv 2 C\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 O\nv 1 C\ne 0 1 s\n",
        )
        .unwrap();
        assert!(clf.classify(test.graph(0))); // has C-N
        assert!(!clf.classify(test.graph(1))); // no C-N
    }

    #[test]
    fn leap_scores_are_frequencies() {
        let (db, labels) = db_and_labels();
        let clf = LeapClassifier::train(&db, &labels, LeapConfig::default());
        for f in clf.features() {
            assert!((0.0..=1.0).contains(&f.freq_pos));
            assert!((0.0..=1.0).contains(&f.freq_neg));
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_rejected() {
        let (db, _) = db_and_labels();
        LeapClassifier::train(&db, &[true; 6], LeapConfig::default());
    }
}
