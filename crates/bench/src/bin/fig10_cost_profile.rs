//! Fig. 10 — profile of GraphSig's computation cost per cancer dataset.
//!
//! The paper reports ~20% of GraphSig's time in RWR, with the rest split
//! between feature-space analysis and frequent subgraph mining. Prints the
//! three-way percentage split for each of the eleven screens, and how many
//! of each screen's region sets hit the per-set pattern cap (their maximal
//! answers are approximate, and their FSM time is the cap's, not the
//! lattice's).

use graphsig_bench::{header, row, secs, Cli};
use graphsig_core::{GraphSig, GraphSigConfig};
use graphsig_datagen::{cancer_screen, cancer_screen_names};

fn main() {
    let cli = Cli::parse(0.01);
    println!(
        "# Fig. 10 — GraphSig cost profile per dataset (scale {})",
        cli.scale
    );
    header(&[
        "dataset",
        "molecules",
        "RWR %",
        "feature analysis %",
        "FSM %",
        "total s",
        "truncated sets",
    ]);
    let mut rwr_sum = 0.0;
    let mut count = 0.0;
    for name in cancer_screen_names() {
        let d = cancer_screen(name, cli.scale);
        let cfg = GraphSigConfig {
            min_freq: 0.01,
            ..Default::default()
        };
        let result = GraphSig::new(cfg).mine(&d.db);
        let (r, f, m) = result.profile.percentages();
        rwr_sum += r;
        count += 1.0;
        row(&[
            name.to_string(),
            d.len().to_string(),
            format!("{r:.1}"),
            format!("{f:.1}"),
            format!("{m:.1}"),
            secs(result.profile.total()).to_string(),
            format!(
                "{} of {}",
                result.stats.truncated_sets, result.stats.region_sets
            ),
        ]);
    }
    println!();
    println!(
        "Mean RWR share: {:.1}% (paper: ~20%; RWR cost is frequency-independent).",
        rwr_sum / count
    );
}
