//! Named dataset assembly (Table V of the paper).
//!
//! A [`DatasetSpec`] describes one screen: total size, active fraction
//! (~5%, as in the PubChem screens), which motifs the active class embeds
//! and with what mixture weights, and the class-independent benzene rate.
//! [`cancer_screen`] instantiates the paper's eleven anti-cancer screens
//! (names and full sizes from Table V, scalable), and [`aids_like`] the
//! DTP-AIDS-like dataset used for the scalability experiments.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::alphabet::{standard_alphabet, Alphabet};
use crate::molecule::{MoleculeConfig, MoleculeGen};
use crate::motifs;
use graphsig_graph::{Graph, GraphDb};

/// Smallest dataset the generator emits: smaller sizes are raised to it so
/// cross-validation folds stay non-empty.
pub const MIN_DATASET_SIZE: usize = 20;

/// Specification of one synthetic screen.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (e.g. `MOLT-4`).
    pub name: String,
    /// Number of molecules at `scale = 1.0`.
    pub full_size: usize,
    /// Multiplier on `full_size` (experiments run scaled-down versions).
    pub scale: f64,
    /// Fraction of molecules labeled active (paper: "roughly 5%").
    pub active_fraction: f64,
    /// `(motif name, weight)` mixture each active molecule draws its
    /// planted core from.
    pub active_motifs: Vec<(String, f64)>,
    /// Probability that any molecule (active or not) carries a benzene
    /// ring — frequent but class-independent (Fig. 16).
    pub benzene_fraction: f64,
    /// Probability that a planted active core is *eroded* — one random
    /// leaf atom removed — before grafting. Real drug classes conserve
    /// their cores only approximately; erosion reproduces that regime
    /// (exact-subgraph features degrade, feature-space significance does
    /// not). `0.0` (the default) plants exact copies.
    pub motif_erosion: f64,
    /// Base molecule shape.
    pub molecule: MoleculeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// A spec with paper-like defaults for the given name/size/seed.
    pub fn new(name: &str, full_size: usize, seed: u64) -> Self {
        Self {
            name: name.to_owned(),
            full_size,
            scale: 1.0,
            active_fraction: 0.05,
            active_motifs: vec![("azt".to_owned(), 1.0)],
            benzene_fraction: 0.7,
            motif_erosion: 0.0,
            molecule: MoleculeConfig::default(),
            seed,
        }
    }

    /// Set the motif erosion probability.
    pub fn with_erosion(mut self, erosion: f64) -> Self {
        assert!((0.0..=1.0).contains(&erosion), "erosion must be in [0,1]");
        self.motif_erosion = erosion;
        self
    }

    /// Set the scale multiplier.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Set the active-motif mixture.
    pub fn with_motifs(mut self, motifs: &[(&str, f64)]) -> Self {
        self.active_motifs = motifs.iter().map(|&(n, w)| (n.to_owned(), w)).collect();
        self
    }

    /// Effective size after scaling, at least [`MIN_DATASET_SIZE`].
    pub fn effective_size(&self) -> usize {
        ((self.full_size as f64 * self.scale).round() as usize).max(MIN_DATASET_SIZE)
    }
}

/// A generated, class-labeled graph database.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// The molecules.
    pub db: GraphDb,
    /// `active[i]` — class label of graph `i`.
    pub active: Vec<bool>,
}

impl Dataset {
    /// Number of molecules.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Number of active molecules.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Ids of the active molecules.
    pub fn active_ids(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.active[i]).collect()
    }

    /// Ids of the inactive molecules.
    pub fn inactive_ids(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.active[i]).collect()
    }

    /// A database holding only the active molecules (the paper's quality
    /// experiments "separate the set of compounds medically active against
    /// a disease and run our algorithm on it").
    pub fn active_subset(&self) -> GraphDb {
        self.db.subset(&self.active_ids())
    }

    /// A database holding only the inactive molecules.
    pub fn inactive_subset(&self) -> GraphDb {
        self.db.subset(&self.inactive_ids())
    }

    /// A random sub-dataset of `n` molecules drawn without replacement —
    /// the paper's Fig. 11 protocol ("datasets for this experiment are
    /// populated by randomly drawing graphs from the AIDS dataset").
    /// Deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the dataset size.
    pub fn sample(&self, n: usize, seed: u64) -> Dataset {
        assert!(n <= self.len(), "cannot sample {n} of {}", self.len());
        use rand::seq::SliceRandom;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..self.len()).collect();
        ids.shuffle(&mut rng);
        ids.truncate(n);
        ids.sort_unstable();
        Dataset {
            name: format!("{}[{n}]", self.name),
            db: self.db.subset(&ids),
            active: ids.iter().map(|&i| self.active[i]).collect(),
        }
    }

    /// Serialize the dataset as two transaction texts:
    /// `(actives, inactives)`. Together with
    /// [`graphsig_graph::parse_transactions`] this round-trips the class
    /// split for external tools (e.g. `graphsig classify`).
    pub fn to_transactions_split(&self) -> (String, String) {
        (
            graphsig_graph::write_transactions(&self.active_subset()),
            graphsig_graph::write_transactions(&self.inactive_subset()),
        )
    }
}

/// Generate a dataset from a spec.
pub fn generate(spec: &DatasetSpec) -> Dataset {
    let alphabet = standard_alphabet();
    generate_with_alphabet(spec, &alphabet)
}

/// Generate with a caller-supplied alphabet (shared across datasets).
pub fn generate_with_alphabet(spec: &DatasetSpec, alphabet: &Alphabet) -> Dataset {
    assert!(
        (0.0..=1.0).contains(&spec.active_fraction),
        "active_fraction must be in [0,1]"
    );
    let n = spec.effective_size();
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let gen = MoleculeGen::new(alphabet, spec.molecule.clone());
    let benzene = motifs::benzene(alphabet);
    let motif_graphs: Vec<Graph> = spec
        .active_motifs
        .iter()
        .map(|(name, _)| motifs::by_name(alphabet, name))
        .collect();
    let motif_dist = if motif_graphs.is_empty() {
        None
    } else {
        Some(
            WeightedIndex::new(spec.active_motifs.iter().map(|&(_, w)| w))
                .expect("motif weights must be positive"),
        )
    };

    let mut db = GraphDb::from_parts(Vec::new(), alphabet.labels().clone());
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        let is_active = rng.gen_bool(spec.active_fraction);
        let mut grafts: Vec<&Graph> = Vec::with_capacity(2);
        if rng.gen_bool(spec.benzene_fraction) {
            grafts.push(&benzene);
        }
        let eroded_holder;
        if is_active {
            if let Some(dist) = &motif_dist {
                let motif = &motif_graphs[dist.sample(&mut rng)];
                if spec.motif_erosion > 0.0 && rng.gen_bool(spec.motif_erosion) {
                    eroded_holder = erode_leaf(motif, &mut rng);
                    grafts.push(&eroded_holder);
                } else {
                    grafts.push(motif);
                }
            }
        }
        db.push(gen.molecule_with_motifs(&mut rng, &grafts));
        active.push(is_active);
    }
    // Guarantee at least one active molecule when actives are requested:
    // tiny scaled screens can otherwise draw none, which breaks every
    // classifier protocol downstream.
    if let Some(dist) = motif_dist
        .as_ref()
        .filter(|_| spec.active_fraction > 0.0 && !active.iter().any(|&a| a) && n > 0)
    {
        let mut grafts: Vec<&Graph> = Vec::new();
        if rng.gen_bool(spec.benzene_fraction) {
            grafts.push(&benzene);
        }
        grafts.push(&motif_graphs[dist.sample(&mut rng)]);
        let forced = gen.molecule_with_motifs(&mut rng, &grafts);
        let replaced = GraphDb::from_parts(
            {
                let mut gs: Vec<Graph> = db.graphs().to_vec();
                gs[0] = forced;
                gs
            },
            db.labels().clone(),
        );
        db = replaced;
        active[0] = true;
    }
    Dataset {
        name: spec.name.clone(),
        db,
        active,
    }
}

/// Remove one random degree-1 atom from a motif copy (the "erosion" of an
/// approximately conserved core). Motifs without leaves are returned
/// unchanged.
fn erode_leaf(motif: &Graph, rng: &mut SmallRng) -> Graph {
    let leaves: Vec<u32> = motif.nodes().filter(|&n| motif.degree(n) == 1).collect();
    if leaves.is_empty() {
        return motif.clone();
    }
    let drop = leaves[rng.gen_range(0..leaves.len())];
    graphsig_graph::remove_node(motif, drop).0
}

/// The eleven anti-cancer screens of Table V: `(name, size, description)`.
pub const CANCER_SCREENS: [(&str, usize, &str); 11] = [
    ("MCF-7", 28972, "Breast"),
    ("MOLT-4", 41810, "Leukemia"),
    ("NCI-H23", 42164, "Non-Small Cell Lung"),
    ("OVCAR-8", 42386, "Ovarian"),
    ("P388", 46440, "Leukemia"),
    ("PC-3", 28679, "Prostate"),
    ("SF-295", 40350, "Central Nervous System"),
    ("SN12C", 41855, "Renal"),
    ("SW-620", 42405, "Colon"),
    ("UACC-257", 41864, "Melanoma"),
    ("Yeast", 83933, "Yeast anticancer"),
];

/// Names of the eleven cancer screens, in Table V order.
pub fn cancer_screen_names() -> Vec<&'static str> {
    CANCER_SCREENS.iter().map(|&(n, _, _)| n).collect()
}

/// Per-screen active-motif mixtures. The Leukemia screens plant the Sb/Bi
/// pair at low weight so their global frequency lands below 1% (Fig. 15);
/// Melanoma leans on the phosphonium core (Fig. 14).
fn screen_motifs(name: &str) -> Vec<(&'static str, f64)> {
    match name {
        "MCF-7" => vec![("azt", 0.4), ("phosphonium", 0.4), ("fused", 0.2)],
        "MOLT-4" => vec![("sb", 0.12), ("bi", 0.12), ("azt", 0.76)],
        "NCI-H23" => vec![("fdt", 0.5), ("azt", 0.5)],
        "OVCAR-8" => vec![("phosphonium", 0.5), ("fdt", 0.5)],
        "P388" => vec![("sb", 0.12), ("bi", 0.12), ("azt", 0.76)],
        "PC-3" => vec![("azt", 1.0)],
        "SF-295" => vec![("fdt", 1.0)],
        "SN12C" => vec![("phosphonium", 0.4), ("azt", 0.4), ("nitro", 0.2)],
        "SW-620" => vec![("azt", 0.5), ("fdt", 0.5)],
        "UACC-257" => vec![("phosphonium", 0.8), ("azt", 0.2)],
        "Yeast" => vec![
            ("azt", 0.3),
            ("fdt", 0.3),
            ("phosphonium", 0.2),
            ("fused", 0.1),
            ("nitro", 0.1),
        ],
        other => panic!("unknown cancer screen {other}"),
    }
}

/// FNV-1a over the dataset name, for stable per-name seeds.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One of the paper's Table V anti-cancer screens, scaled by `scale`.
///
/// # Panics
/// Panics on an unknown name (see [`cancer_screen_names`]).
pub fn cancer_screen(name: &str, scale: f64) -> Dataset {
    cancer_screen_eroded(name, scale, 0.0)
}

/// A Table V screen whose planted cores are eroded with the given
/// probability — the approximately-conserved regime used by the
/// classification experiments.
pub fn cancer_screen_eroded(name: &str, scale: f64, erosion: f64) -> Dataset {
    let (_, size, _) = CANCER_SCREENS
        .iter()
        .find(|&&(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("unknown cancer screen {name}"));
    let spec = DatasetSpec::new(name, *size, name_seed(name))
        .with_scale(scale)
        .with_motifs(&screen_motifs(name))
        .with_erosion(erosion);
    generate(&spec)
}

/// A DTP-AIDS-like dataset of `n` molecules: AZT/FDT actives, used by the
/// scalability experiments (Figs. 2, 9, 11, 12).
pub fn aids_like(n: usize, seed: u64) -> Dataset {
    let spec = DatasetSpec {
        name: "AIDS".to_owned(),
        full_size: n,
        scale: 1.0,
        active_fraction: 0.05,
        active_motifs: vec![("azt".to_owned(), 0.6), ("fdt".to_owned(), 0.4)],
        benzene_fraction: 0.7,
        motif_erosion: 0.0,
        molecule: MoleculeConfig::default(),
        seed,
    };
    generate(&spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::iso::contains;

    #[test]
    fn generation_is_deterministic() {
        let a = aids_like(50, 1);
        let b = aids_like(50, 1);
        assert_eq!(a.active, b.active);
        for (x, y) in a.db.graphs().iter().zip(b.db.graphs()) {
            assert_eq!(x.node_labels(), y.node_labels());
            assert_eq!(x.edges(), y.edges());
        }
        let c = aids_like(50, 2);
        assert_ne!(
            a.db.graphs()[0].node_labels(),
            c.db.graphs()[0].node_labels()
        );
    }

    #[test]
    fn active_fraction_near_five_percent() {
        let d = aids_like(2000, 7);
        let frac = d.active_count() as f64 / d.len() as f64;
        assert!((frac - 0.05).abs() < 0.02, "active fraction {frac}");
    }

    #[test]
    fn every_active_contains_a_planted_motif() {
        let alphabet = standard_alphabet();
        let d = aids_like(300, 3);
        let azt = motifs::azt_like(&alphabet);
        let fdt = motifs::fdt_like(&alphabet);
        for id in d.active_ids() {
            let g = d.db.graph(id);
            assert!(
                contains(g, &azt) || contains(g, &fdt),
                "active molecule {id} lost its motif"
            );
        }
    }

    #[test]
    fn benzene_is_frequent_but_class_independent() {
        let alphabet = standard_alphabet();
        let d = aids_like(500, 11);
        let benz = motifs::benzene(&alphabet);
        let hits = d.db.graphs().iter().filter(|g| contains(g, &benz)).count();
        let frac = hits as f64 / d.len() as f64;
        assert!(frac > 0.6 && frac < 0.85, "benzene fraction {frac}");
    }

    #[test]
    fn atom_coverage_matches_fig4_shape() {
        let d = aids_like(500, 13);
        let curve = d.db.atom_coverage_curve();
        // Top-5 atoms cover ~99%.
        assert!(curve.len() >= 5);
        assert!(curve[4].2 > 0.97, "top-5 coverage {}", curve[4].2);
        // But rare atoms exist.
        assert!(curve.len() > 6);
    }

    #[test]
    fn dataset_shape_matches_aids_profile() {
        let d = aids_like(400, 17);
        let s = d.db.stats();
        assert!(
            (s.avg_nodes - 27.0).abs() < 6.0,
            "avg nodes {}",
            s.avg_nodes
        );
        assert!(
            s.avg_edges >= s.avg_nodes - 1.0,
            "avg edges {}",
            s.avg_edges
        );
    }

    #[test]
    fn cancer_screen_sizes_scale() {
        let d = cancer_screen("MOLT-4", 0.005);
        assert_eq!(d.len(), (41810.0f64 * 0.005).round() as usize);
        assert_eq!(d.name, "MOLT-4");
    }

    #[test]
    fn all_screens_generate() {
        for name in cancer_screen_names() {
            let d = cancer_screen(name, 0.002);
            assert!(d.len() >= 20, "{name}");
            assert!(d.active_count() >= 1, "{name}: no actives");
        }
    }

    #[test]
    fn leukemia_screens_plant_metal_motifs_below_one_percent() {
        let alphabet = standard_alphabet();
        let d = cancer_screen("MOLT-4", 0.05); // ~2090 molecules
        let sb = motifs::sb_motif(&alphabet);
        let bi = motifs::bi_motif(&alphabet);
        let sb_hits = d.db.graphs().iter().filter(|g| contains(g, &sb)).count();
        let bi_hits = d.db.graphs().iter().filter(|g| contains(g, &bi)).count();
        assert!(sb_hits >= 1, "no Sb-motif molecules planted");
        assert!(bi_hits >= 1, "no Bi-motif molecules planted");
        assert!((sb_hits as f64) / (d.len() as f64) < 0.01);
        assert!((bi_hits as f64) / (d.len() as f64) < 0.01);
    }

    #[test]
    fn active_subset_extracts_only_actives() {
        let d = aids_like(200, 19);
        let sub = d.active_subset();
        assert_eq!(sub.len(), d.active_count());
        assert_eq!(d.inactive_subset().len(), d.len() - d.active_count());
    }

    #[test]
    fn sampling_draws_without_replacement() {
        let d = aids_like(100, 3);
        let s = d.sample(40, 9);
        assert_eq!(s.len(), 40);
        assert_eq!(s.active.len(), 40);
        // Deterministic and seed-sensitive.
        let s2 = d.sample(40, 9);
        assert_eq!(s.active, s2.active);
        let s3 = d.sample(40, 10);
        assert!(
            s.active != s3.active || {
                // identical label patterns are possible; compare structures too
                s.db.graphs()
                    .iter()
                    .zip(s3.db.graphs())
                    .any(|(a, b)| a.node_labels() != b.node_labels())
            }
        );
    }

    #[test]
    fn motif_decorations_vary_contexts() {
        // Two active molecules with the same planted core should not both
        // be super-graphs of each other's cores+context: decorations differ.
        let alphabet = standard_alphabet();
        let d = cancer_screen("SF-295", 0.05); // fdt-only actives
        let fdt = motifs::fdt_like(&alphabet);
        let actives: Vec<_> = d
            .active_ids()
            .into_iter()
            .map(|i| d.db.graph(i).clone())
            .filter(|g| graphsig_graph::iso::contains(g, &fdt))
            .take(10)
            .collect();
        assert!(actives.len() >= 5);
        // Degree sequences around the motif differ across molecules.
        let signatures: std::collections::HashSet<Vec<u16>> =
            actives.iter().map(|g| g.sorted_node_labels()).collect();
        assert!(signatures.len() > 1, "all active contexts identical");
    }

    #[test]
    fn split_serialization_roundtrips() {
        let d = aids_like(60, 23);
        let (pos, neg) = d.to_transactions_split();
        let pos_db = graphsig_graph::parse_transactions(&pos).unwrap();
        let neg_db = graphsig_graph::parse_transactions(&neg).unwrap();
        assert_eq!(pos_db.len(), d.active_count());
        assert_eq!(neg_db.len(), d.len() - d.active_count());
        // Structure preserved graph by graph.
        for (a, b) in d.active_subset().graphs().iter().zip(pos_db.graphs()) {
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.edge_count(), b.edge_count());
        }
    }

    #[test]
    #[should_panic(expected = "unknown cancer screen")]
    fn unknown_screen_panics() {
        cancer_screen("NOPE", 1.0);
    }
}

#[cfg(test)]
mod erosion_tests {
    use super::*;
    use crate::motifs;
    use graphsig_graph::iso::contains;

    #[test]
    fn erode_leaf_removes_exactly_one_leaf() {
        let alphabet = standard_alphabet();
        let motif = motifs::azt_like(&alphabet);
        let mut rng = SmallRng::seed_from_u64(1);
        let eroded = erode_leaf(&motif, &mut rng);
        assert_eq!(eroded.node_count(), motif.node_count() - 1);
        assert_eq!(eroded.edge_count(), motif.edge_count() - 1);
        assert!(eroded.is_connected());
        assert!(contains(&motif, &eroded));
    }

    #[test]
    fn erode_leafless_ring_is_identity() {
        let alphabet = standard_alphabet();
        let ring = motifs::benzene(&alphabet);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = erode_leaf(&ring, &mut rng);
        assert_eq!(out.node_count(), 6);
        assert_eq!(out.edge_count(), 6);
    }

    #[test]
    fn eroded_screens_have_partial_core_conservation() {
        let alphabet = standard_alphabet();
        let exact = cancer_screen_eroded("SF-295", 0.03, 0.0);
        let eroded = cancer_screen_eroded("SF-295", 0.03, 0.6);
        let fdt = motifs::fdt_like(&alphabet);
        let frac = |d: &Dataset| {
            let ids = d.active_ids();
            ids.iter()
                .filter(|&&i| contains(d.db.graph(i), &fdt))
                .count() as f64
                / ids.len() as f64
        };
        assert!(frac(&exact) > 0.99, "exact planting lost cores");
        let f = frac(&eroded);
        assert!(
            f > 0.15 && f < 0.85,
            "erosion 0.6 should leave a partial conservation rate, got {f}"
        );
    }

    #[test]
    #[should_panic(expected = "erosion must be in")]
    fn bad_erosion_rejected() {
        DatasetSpec::new("x", 100, 1).with_erosion(1.5);
    }
}
