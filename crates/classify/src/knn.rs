//! The GraphSig classifier (Algorithms 3 and 4 of the paper).
//!
//! Training mines the sets `P` and `N` of significant sub-feature vectors
//! from the positive and negative training graphs (the feature-space half
//! of GraphSig: RWR → label groups → FVMine). Classification walks the
//! query graph's node vectors, finds for each node the distance to the
//! closest significant vector of either class (Algorithm 4), keeps the `k`
//! globally closest `(distance, class)` pairs, and takes a
//! distance-weighted vote: `score = Σ sign / (dist + δ)` (Algorithm 3).
//! Positive score → positive class.

use graphsig_core::{compute_all_window_vectors, group_by_label, GraphSigConfig, WindowKind};
use graphsig_features::{graph_count_vectors, graph_feature_vectors, FeatureSet};
use graphsig_fvmine::{is_sub_vector, FvMineConfig, FvMiner};
use graphsig_graph::{Graph, GraphDb};

/// Classifier hyper-parameters. The paper uses `k = 9` (Sec. VI-D).
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Number of nearest significant vectors that vote.
    pub k: usize,
    /// The `δ` added to distances before inversion (div-by-zero guard).
    pub delta: f64,
    /// Feature-space mining parameters (RWR, FVMine thresholds).
    pub mining: GraphSigConfig,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self {
            k: 9,
            delta: 1.0,
            mining: GraphSigConfig::default(),
        }
    }
}

/// Algorithm 4: distance from vector `x` to the closest *sub-vector* of it
/// in `set`. Vectors in `set` that are not sub-vectors of `x` are at
/// distance infinity; a sub-vector's distance is `Σ_i (x_i - v_i)`.
pub fn min_dist(x: &[u8], set: &[Vec<u8>]) -> f64 {
    let mut min = f64::INFINITY;
    for v in set {
        if v.len() == x.len() && is_sub_vector(v, x) {
            let d: u32 = x.iter().zip(v).map(|(&a, &b)| (a - b) as u32).sum();
            min = min.min(d as f64);
        }
    }
    min
}

/// Algorithm 3 given pre-mined vector sets: returns the signed
/// distance-weighted score of a query graph's node vectors (`> 0` ⇒
/// positive).
pub fn score_vectors(
    query_vectors: &[Vec<u8>],
    positive: &[Vec<u8>],
    negative: &[Vec<u8>],
    k: usize,
    delta: f64,
) -> f64 {
    // The k globally closest (distance, sign) pairs, kept in the paper's
    // size-k priority queue (Algorithm 3, line 1).
    let mut best = crate::heap::BoundedMinK::new(k.max(1));
    for x in query_vectors {
        let pos = min_dist(x, positive);
        let neg = min_dist(x, negative);
        let (d, sign) = if neg < pos { (neg, -1.0) } else { (pos, 1.0) };
        if d.is_finite() {
            best.push(d, sign);
        }
    }
    best.into_sorted()
        .iter()
        .map(|&(d, s)| s / (d + delta))
        .sum()
}

/// The trained classifier: the significant vector sets `P` and `N` plus the
/// feature space they live in.
pub struct GraphSigClassifier {
    cfg: KnnConfig,
    features: FeatureSet,
    positive: Vec<Vec<u8>>,
    negative: Vec<Vec<u8>>,
}

impl GraphSigClassifier {
    /// Train: mine significant sub-feature vectors from each class.
    ///
    /// The feature set is selected on the union of both classes (so the two
    /// vector sets are comparable), then each class is mined independently
    /// with its own empirical priors — a vector significant among actives
    /// describes a region over-represented *within the active class*.
    ///
    /// # Panics
    /// Panics if `cfg.mining` fails [`GraphSigConfig::validate`].
    pub fn train(positive: &GraphDb, negative: &GraphDb, cfg: KnnConfig) -> Self {
        cfg.mining.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut union = GraphDb::from_parts(Vec::new(), positive.labels().clone());
        for g in positive.graphs().iter().chain(negative.graphs()) {
            union.push(g.clone());
        }
        let features = FeatureSet::for_chemical(&union, cfg.mining.top_k_atoms);
        let pos_vectors = Self::mine_class(positive, &features, &cfg);
        let neg_vectors = Self::mine_class(negative, &features, &cfg);
        Self {
            cfg,
            features,
            positive: pos_vectors,
            negative: neg_vectors,
        }
    }

    fn mine_class(db: &GraphDb, fs: &FeatureSet, cfg: &KnnConfig) -> Vec<Vec<u8>> {
        let all = compute_all_window_vectors(
            db,
            fs,
            &cfg.mining.rwr,
            cfg.mining.window,
            cfg.mining.threads,
        );
        // FVMine per label group on the shared executor; flattening in
        // group order keeps the model byte-identical to a sequential run.
        let groups = group_by_label(&all);
        graphsig_core::par_map(cfg.mining.threads, &groups, |group| {
            let min_support = cfg.mining.fvmine_support(group.vectors.len());
            if group.vectors.len() < min_support {
                return Vec::new();
            }
            let miner = FvMiner::new(FvMineConfig::new(min_support, cfg.mining.max_pvalue));
            miner
                .mine(&group.vectors)
                .into_iter()
                .map(|sv| sv.vector)
                .collect()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Number of mined positive / negative significant vectors.
    pub fn model_sizes(&self) -> (usize, usize) {
        (self.positive.len(), self.negative.len())
    }

    /// The feature space the model was trained in.
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// Signed score of a query graph (`> 0` ⇒ positive). This is the value
    /// whose threshold sweep yields the ROC curve.
    pub fn score(&self, query: &Graph) -> f64 {
        // The query must be windowed the same way the model was trained.
        let node_vectors = match self.cfg.mining.window {
            WindowKind::Rwr => graph_feature_vectors(query, &self.features, &self.cfg.mining.rwr),
            WindowKind::Count { radius } => graph_count_vectors(query, radius, &self.features),
        };
        let vectors: Vec<Vec<u8>> = node_vectors.into_iter().map(|nv| nv.bins).collect();
        score_vectors(
            &vectors,
            &self.positive,
            &self.negative,
            self.cfg.k,
            self.cfg.delta,
        )
    }

    /// Hard classification (Algorithm 3 lines 12–15).
    pub fn classify(&self, query: &Graph) -> bool {
        self.score(query) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_dist_matches_paper_example() {
        // Query vectors from Table I, training vectors from Table III.
        // "For vector v1 ... for both P2 and P3 the distance is 2."
        let v1 = vec![1u8, 0, 0, 2];
        let negatives = vec![
            vec![0u8, 0, 1, 1], // N1
            vec![0u8, 1, 0, 0], // N2
            vec![1u8, 1, 0, 1], // N3
        ];
        let positives = vec![
            vec![2u8, 0, 1, 3], // P1
            vec![1u8, 0, 0, 0], // P2
            vec![0u8, 0, 0, 1], // P3
        ];
        assert_eq!(min_dist(&v1, &negatives), f64::INFINITY);
        assert_eq!(min_dist(&v1, &positives), 2.0);
    }

    #[test]
    fn score_matches_paper_walkthrough() {
        // The full worked example: query = Table I (4 node vectors),
        // training = Table III, k = 3, δ = 0 in the paper's arithmetic.
        // Closest pairs: dist 2 (positive, v1), dist 1 (negative, v2),
        // dist 1 (positive, v4) → score = 1/2 - 1 + 1 = 0.5 → positive.
        let query = vec![
            vec![1u8, 0, 0, 2], // v1
            vec![1u8, 1, 0, 2], // v2
            vec![2u8, 0, 1, 2], // v3
            vec![1u8, 0, 1, 0], // v4
        ];
        let negatives = vec![vec![0u8, 0, 1, 1], vec![0u8, 1, 0, 0], vec![1u8, 1, 0, 1]];
        let positives = vec![vec![2u8, 0, 1, 3], vec![1u8, 0, 0, 0], vec![0u8, 0, 0, 1]];
        let score = score_vectors(&query, &positives, &negatives, 3, 0.0);
        assert!((score - 0.5).abs() < 1e-12, "score {score}");
        assert!(score > 0.0); // classified positive
    }

    #[test]
    fn per_node_distances_match_paper() {
        // v2's closest is N3 at distance 1; v3 has no finite sub-vector
        // among N1-N3/P2-P3? P2=[1,0,0,0] ⊆ v3=[2,0,1,2] at distance 4,
        // P3=[0,0,0,1] at distance 5, P1=[2,0,1,3] not ⊆ v3.
        let negatives = vec![vec![0u8, 0, 1, 1], vec![0u8, 1, 0, 0], vec![1u8, 1, 0, 1]];
        let positives = vec![vec![2u8, 0, 1, 3], vec![1u8, 0, 0, 0], vec![0u8, 0, 0, 1]];
        let v2 = vec![1u8, 1, 0, 2];
        assert_eq!(min_dist(&v2, &negatives), 1.0);
        let v4 = vec![1u8, 0, 1, 0];
        assert_eq!(min_dist(&v4, &positives), 1.0); // P2 at distance 1
        let v3 = vec![2u8, 0, 1, 2];
        assert_eq!(min_dist(&v3, &positives), 4.0);
    }

    #[test]
    fn empty_training_sets_give_zero_score() {
        let q = vec![vec![1u8, 2, 3]];
        assert_eq!(score_vectors(&q, &[], &[], 5, 1.0), 0.0);
    }

    #[test]
    fn delta_prevents_division_by_zero() {
        // Exact match: distance 0.
        let q = vec![vec![1u8, 1]];
        let p = vec![vec![1u8, 1]];
        let s = score_vectors(&q, &p, &[], 1, 0.5);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_separates_planted_classes() {
        use graphsig_datagen::aids_like;
        // Small but real: actives carry AZT/FDT cores, inactives don't.
        let data = aids_like(400, 77);
        let active_ids = data.active_ids();
        let inactive_ids = data.inactive_ids();
        assert!(active_ids.len() >= 10);
        // Train on ~2/3 of each class, test on the rest.
        let (ptrain, ptest) = active_ids.split_at(active_ids.len() * 2 / 3);
        let ntrain = &inactive_ids[..ptrain.len()];
        let ntest = &inactive_ids[ptrain.len()..ptrain.len() + ptest.len().max(3)];
        let pos_db = data.db.subset(ptrain);
        let neg_db = data.db.subset(ntrain);
        let cfg = KnnConfig {
            mining: GraphSigConfig {
                min_freq: 0.05,
                max_pvalue: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let clf = GraphSigClassifier::train(&pos_db, &neg_db, cfg);
        let (np, nn) = clf.model_sizes();
        assert!(np > 0, "no positive significant vectors mined");
        assert!(nn > 0, "no negative significant vectors mined");
        // Scores of actives should exceed scores of inactives on average.
        let mean = |ids: &[usize]| {
            ids.iter()
                .map(|&i| clf.score(data.db.graph(i)))
                .sum::<f64>()
                / ids.len() as f64
        };
        let pos_mean = mean(ptest);
        let neg_mean = mean(ntest);
        assert!(
            pos_mean > neg_mean,
            "pos mean {pos_mean} vs neg mean {neg_mean}"
        );
    }
}
