//! Ablation — FVMine's optimistic significance pruning (Alg. 1, lines
//! 10–11).
//!
//! The bound `p_value(ceiling(S'), |S'|)` is safe (never changes the
//! output); this experiment measures how much of the closed-vector lattice
//! it kills on real RWR vector groups, next to the support and
//! duplicate-state prunings.

use graphsig_bench::{header, row, secs, timed, Cli};
use graphsig_core::{compute_all_vectors, group_by_label};
use graphsig_datagen::aids_like;
use graphsig_features::{FeatureSet, RwrConfig};
use graphsig_fvmine::{FvMineConfig, FvMiner};

fn main() {
    let cli = Cli::parse(0.01);
    let n = (43_905.0 * cli.scale).round() as usize;
    let data = aids_like(n, cli.seed);
    let fs = FeatureSet::for_chemical(&data.db, 5);
    let all = compute_all_vectors(&data.db, &fs, &RwrConfig::default(), 4);
    let groups = group_by_label(&all);
    let carbon = groups
        .iter()
        .max_by_key(|g| g.vectors.len())
        .expect("groups exist");
    println!(
        "# Ablation: FVMine optimistic pruning (largest label group: {} vectors, dim {})",
        carbon.vectors.len(),
        carbon.vectors[0].len()
    );
    header(&[
        "min support",
        "maxPvalue",
        "pruning",
        "time s",
        "states visited",
        "support prunes",
        "duplicate prunes",
        "optimistic prunes",
        "outputs",
    ]);
    // 1% support, then the paper's 0.1% (Table IV).
    for min_freq in [0.01, 0.001] {
        let min_support = ((min_freq * carbon.vectors.len() as f64).ceil() as usize).max(2);
        for max_pvalue in [0.1, 0.01, 0.001] {
            let mut outputs: Option<usize> = None;
            for optimistic in [true, false] {
                let cfg = FvMineConfig {
                    min_support,
                    max_pvalue,
                    optimistic_pruning: optimistic,
                };
                let ((out, stats), t) =
                    timed(|| FvMiner::new(cfg).mine_with_stats(&carbon.vectors));
                // Outputs must be identical with and without the pruning.
                match outputs {
                    None => outputs = Some(out.len()),
                    Some(o) => assert_eq!(o, out.len(), "pruning changed the output!"),
                }
                row(&[
                    format!("{}% ({min_support})", min_freq * 100.0),
                    format!("{max_pvalue}"),
                    if optimistic { "on" } else { "off" }.to_string(),
                    secs(t).to_string(),
                    stats.states_visited.to_string(),
                    stats.pruned_support.to_string(),
                    stats.pruned_duplicate.to_string(),
                    stats.pruned_optimistic.to_string(),
                    out.len().to_string(),
                ]);
            }
        }
    }
    println!();
    println!("Expected: identical outputs. At 1% support the support rule does all");
    println!("the pruning and the optimistic bound never fires; at 0.1% it fires on");
    println!("a few dozen branches, more as the p-value threshold tightens.");
}
