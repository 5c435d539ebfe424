//! Synthetic chemical-compound datasets for the GraphSig experiments.
//!
//! The paper evaluates on the NCI/NIH DTP-AIDS antiviral screen and eleven
//! PubChem anti-cancer screens (Table V). Those datasets cannot be shipped
//! here, so this crate generates molecule-like graph databases that
//! reproduce every property the GraphSig algorithms are sensitive to:
//!
//! * a **skewed atom alphabet** — ~20 atom types with Zipf-like weights so
//!   the top 5 cover ≈99% of all atoms (the paper's Fig. 4 observation that
//!   drives feature selection);
//! * **molecule-shaped graphs** — connected, valence-bounded, ring-bearing
//!   graphs of ~25 vertices / ~27 edges on average (the AIDS screen's
//!   shape);
//! * **planted active cores** — each screen's active class (≈5% of
//!   molecules, as in the PubChem screens) embeds one of a few conserved
//!   substructures from [`motifs`], standing in for AZT/FDT (Fig. 13),
//!   methyl-triphenyl-phosphonium (Fig. 14) and the Sb/Bi pair (Fig. 15);
//!   some cores are planted below 1% global frequency, reproducing the
//!   "significant but infrequent" regime;
//! * a **benzene-like ring** embedded class-independently in ~70% of all
//!   molecules — frequent yet statistically unremarkable (Fig. 16).
//!
//! Every generator is fully deterministic given a seed; the named datasets
//! of Table V get fixed per-name seeds and sizes (scalable via
//! [`DatasetSpec::scale`]).

pub mod alphabet;
pub mod dataset;
pub mod molecule;
pub mod motifs;

pub use alphabet::{standard_alphabet, Alphabet};
pub use dataset::{
    aids_like, cancer_screen, cancer_screen_eroded, cancer_screen_names, Dataset, DatasetSpec,
    MIN_DATASET_SIZE,
};
pub use molecule::{MoleculeConfig, MoleculeGen};
