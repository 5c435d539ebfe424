//! Reports explain the answers in the feature names the miner used.

use graphsig_core::{describe, GraphSig, GraphSigConfig};
use graphsig_datagen::aids_like;
use graphsig_features::FeatureSet;

#[test]
fn reports_render_for_every_answer() {
    let data = aids_like(200, 35);
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
    for sg in &result.subgraphs {
        let text = describe(sg, &fs, actives.labels());
        assert!(text.contains("evidence: p-value"));
        // The evidence lines must reference real feature names.
        for line in text
            .lines()
            .filter(|l| l.trim_start().ends_with(|c: char| c.is_ascii_digit()) && l.contains(">="))
        {
            let name = line.trim().split(" >=").next().unwrap();
            assert!(
                (0..fs.dim()).any(|i| fs.name(i) == name),
                "unknown feature name {name}"
            );
        }
    }
}
