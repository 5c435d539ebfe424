//! Fig. 16 — relationship between frequency and p-value.
//!
//! The paper mines significant subgraphs at a p-value threshold of 0.1 and
//! plots each answer's p-value against its frequency: a large share of
//! significant subgraphs sit below 1% frequency (unreachable for frequent
//! subgraph miners), while benzene — ~70% frequent — is *not* significant.

use graphsig_bench::{header, row, Cli};
use graphsig_core::{compute_all_vectors, group_by_label, GraphSig, GraphSigConfig};
use graphsig_datagen::{aids_like, motifs, standard_alphabet};
use graphsig_features::FeatureSet;
use graphsig_fvmine::{floor_of, is_sub_vector, SignificanceModel};
use graphsig_graph::{iso::contains, MultiMatcher};

fn main() {
    let cli = Cli::parse(0.02);
    let n = (43_905.0 * cli.scale).round() as usize;
    let data = aids_like(n, cli.seed);
    let cfg = GraphSigConfig {
        min_freq: 0.01,
        max_pvalue: 0.1,
        radius: 6,
        threads: 0, // auto: one worker per core
        ..Default::default()
    };
    let result = GraphSig::new(cfg).mine(&data.db);
    println!(
        "# Fig. 16 — p-value vs frequency ({} molecules, maxPvalue 0.1)",
        data.len()
    );
    header(&["global frequency %", "p-value", "edges"]);
    let mut below_1pct = 0usize;
    for sg in &result.subgraphs {
        let freq = 100.0 * sg.frequency(data.len());
        if freq < 1.0 {
            below_1pct += 1;
        }
        row(&[
            format!("{freq:.3}"),
            format!("{:.3e}", sg.vector_pvalue),
            sg.graph.edge_count().to_string(),
        ]);
    }
    println!();
    println!(
        "{below_1pct} of {} significant subgraphs have frequency below 1% \
         (paper: a high number do).",
        result.subgraphs.len()
    );

    // Benzene: ubiquitous but class-independent. The paper's claim is that
    // benzene's own p-value is above the threshold. We evaluate benzene
    // exactly the way Section III scores any subgraph: its feature-space
    // representation is the floor of the vectors of the windows centered
    // on its ring atoms, and its p-value is the binomial tail of that
    // vector's support within the carbon group.
    let alphabet = standard_alphabet();
    let benzene = motifs::benzene(&alphabet);
    let benzene_freq = data
        .db
        .graphs()
        .iter()
        .filter(|g| contains(g, &benzene))
        .count() as f64
        / data.len() as f64;
    let fs = FeatureSet::for_chemical(&data.db, 5);
    let all = compute_all_vectors(&data.db, &fs, &Default::default(), 4);
    let carbon_label = alphabet.atom("C");
    let groups = group_by_label(&all);
    let carbon = groups
        .iter()
        .find(|g| g.label == carbon_label)
        .expect("carbon group exists");
    // Collect the vectors of ring atoms across all benzene embeddings.
    let mut ring_vectors: Vec<&Vec<u8>> = Vec::new();
    let mut ring = MultiMatcher::new(&benzene);
    for (gid, g) in data.db.graphs().iter().enumerate() {
        if let Some(embedding) = ring.first_embedding(g) {
            for &node in &embedding {
                if let Some(pos) = carbon
                    .members
                    .iter()
                    .position(|&(mg, mn)| mg == gid as u32 && mn == node)
                {
                    ring_vectors.push(&carbon.vectors[pos]);
                }
            }
        }
    }
    let benzene_vector = floor_of(ring_vectors.iter().map(|v| v.as_slice()));
    let support = carbon
        .vectors
        .iter()
        .filter(|v| is_sub_vector(&benzene_vector, v))
        .count();
    let model = SignificanceModel::from_vectors(&carbon.vectors, 10);
    let benzene_pvalue = model.p_value(&benzene_vector, support as u64);
    println!(
        "Benzene: frequency {:.1}%, own p-value {:.3} (support {} of {} expected {:.0}) — {}          (paper: ~70% frequent, NOT significant).",
        benzene_freq * 100.0,
        benzene_pvalue,
        support,
        carbon.vectors.len(),
        model.expected_support(&benzene_vector),
        if benzene_pvalue > 0.1 {
            "not significant"
        } else {
            "significant (UNEXPECTED)"
        }
    );
}
