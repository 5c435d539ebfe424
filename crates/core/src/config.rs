//! GraphSig configuration — the paper's Table IV.

use graphsig_features::RwrConfig;
use graphsig_graph::{Budget, MatcherKind};

/// How the sliding window captures a node's neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Random walk with restart (the paper's method, Sec. II-C):
    /// proximity-weighted feature distribution.
    Rwr,
    /// Plain occurrence counting inside the hop-radius window — the
    /// strawman the paper argues against; kept for the ablation experiment.
    Count {
        /// Hop radius of the counting window.
        radius: usize,
    },
}

/// The frequent-subgraph miner of the region sets (Alg. 2 line 13).
/// Carries no choice: FSG, the paper's miner, is the only one. Kept only
/// because the benchmark crate still names it; removed with that use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmBackend {
    /// Level-wise apriori miner (`graphsig-fsg`).
    Fsg,
}

/// All GraphSig parameters. `Default` reproduces Table IV of the paper:
///
/// | parameter | description | value |
/// |---|---|---|
/// | `alpha` | restart probability of the random walk | 0.25 |
/// | `max_pvalue` | p-value threshold for FVMine | 0.1 |
/// | `min_freq` | frequency threshold for FVMine | 0.1% |
/// | `radius` | CutGraph radius around a described node | 8 |
/// | `fsm_freq` | frequency threshold for maximal FSM on region sets | 80% |
#[derive(Debug, Clone)]
pub struct GraphSigConfig {
    /// Random-walk-with-restart parameters (`alpha` of Table IV).
    pub rwr: RwrConfig,
    /// Window mechanism (RWR by default; counting for the ablation).
    pub window: WindowKind,
    /// Number of most-frequent atom types whose mutual edge types become
    /// features (the paper selects 5 via Fig. 4).
    pub top_k_atoms: usize,
    /// FVMine p-value threshold (`maxPvalue`).
    pub max_pvalue: f64,
    /// FVMine support threshold as a fraction of the label group size
    /// (`minFreq`; Table IV: 0.1%). The absolute support is never allowed
    /// below 2 — a "common" sub-feature vector needs at least two regions.
    pub min_freq: f64,
    /// `CutGraph` radius (hops).
    pub radius: usize,
    /// Frequency threshold for the maximal-FSM step on each region set
    /// (`fsgFreq`; Table IV: 80%).
    pub fsm_freq: f64,
    /// Carries no choice (see [`FsmBackend`]). Kept only because the
    /// benchmark crate still reads it; removed with that use.
    pub fsm_backend: FsmBackend,
    /// Edge cap for patterns grown by the FSM step (guards worst-case
    /// region sets; generous by default).
    pub max_pattern_edges: usize,
    /// Per-region-set cap on patterns enumerated by the FSM step. Tiny,
    /// highly homogeneous sets can share a large common subgraph whose
    /// frequent-subgraph lattice is combinatorial; hitting the cap
    /// truncates that set's enumeration (counted in
    /// `RunStats::truncated_sets`) and returns the maximal patterns of
    /// what was enumerated.
    pub max_patterns_per_set: usize,
    /// Carries no choice: there is one isomorphism engine. Kept only
    /// because the benchmark crate still reads it; removed with that use.
    pub matcher: MatcherKind,
    /// Worker threads for the parallel pipeline phases (RWR pass, FVMine
    /// per label group, CutGraph + maximal FSM per region set). `0` = auto
    /// ([`std::thread::available_parallelism`]), `1` = sequential. The
    /// mined output is byte-identical for every thread count.
    pub threads: usize,
    /// Optional resource governance for the whole run: wall-clock deadline,
    /// cooperative step budget, external cancellation. `None` (the default)
    /// mines exhaustively with zero overhead. When set, the pipeline checks
    /// the budget cooperatively in every phase and returns a *truncated but
    /// well-formed* partial result instead of running away; step-budget
    /// truncation is deterministic across thread counts, deadline and
    /// cancellation are best-effort (see [`graphsig_graph::control`]).
    pub budget: Option<Budget>,
}

impl Default for GraphSigConfig {
    fn default() -> Self {
        Self {
            rwr: RwrConfig::default(), // alpha = 0.25
            window: WindowKind::Rwr,
            top_k_atoms: 5,
            max_pvalue: 0.1,
            min_freq: 0.001, // 0.1%
            radius: 8,
            fsm_freq: 0.8, // 80%
            fsm_backend: FsmBackend::Fsg,
            max_pattern_edges: 25,
            max_patterns_per_set: 20_000,
            matcher: MatcherKind::default(),
            threads: 0, // auto: use every available core
            budget: None,
        }
    }
}

impl GraphSigConfig {
    /// Set the run's resource [`Budget`] (builder-style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Check the ranges of the mining settings; the error names the
    /// offending field. [`crate::GraphSig::new`] panics on an error, so
    /// callers holding untrusted values (the CLI, the server) call this
    /// first. Every `threads` value is valid: 0 = auto, n >= 1 = exactly
    /// n workers.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.max_pvalue) {
            return Err(format!(
                "max_pvalue must be in [0, 1], got {}",
                self.max_pvalue
            ));
        }
        for (name, v) in [("min_freq", self.min_freq), ("fsm_freq", self.fsm_freq)] {
            if v == 0.0 || !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in (0, 1], got {v}"));
            }
        }
        if self.top_k_atoms == 0 {
            return Err("top_k_atoms must be >= 1".into());
        }
        Ok(())
    }

    /// Absolute FVMine support threshold for a group of `group_size`
    /// vectors: `ceil(min_freq * size)`, floored at 2.
    pub fn fvmine_support(&self, group_size: usize) -> usize {
        ((self.min_freq * group_size as f64).ceil() as usize).max(2)
    }

    /// Absolute FSM support threshold for a region set of `set_size`:
    /// `ceil(fsm_freq * size)`, floored at 2.
    pub fn fsm_support(&self, set_size: usize) -> usize {
        ((self.fsm_freq * set_size as f64).ceil() as usize).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let c = GraphSigConfig::default();
        assert!((c.rwr.alpha - 0.25).abs() < 1e-12);
        assert!((c.max_pvalue - 0.1).abs() < 1e-12);
        assert!((c.min_freq - 0.001).abs() < 1e-12);
        assert_eq!(c.radius, 8);
        assert!((c.fsm_freq - 0.8).abs() < 1e-12);
        assert_eq!(c.fsm_backend, FsmBackend::Fsg);
        assert_eq!(c.top_k_atoms, 5);
    }

    #[test]
    fn support_thresholds() {
        let c = GraphSigConfig::default();
        assert_eq!(c.fvmine_support(10_000), 10); // 0.1% of 10k
        assert_eq!(c.fvmine_support(100), 2); // floored at 2
        assert_eq!(c.fsm_support(10), 8); // 80% of 10
        assert_eq!(c.fsm_support(1), 2); // floored at 2
        assert_eq!(c.fsm_support(11), 9); // ceil(8.8)
    }

    #[test]
    fn bad_min_freq_rejected() {
        for min_freq in [0.0, -0.5, 1.5, f64::NAN] {
            let c = GraphSigConfig {
                min_freq,
                ..Default::default()
            };
            let e = c.validate().unwrap_err();
            assert!(e.starts_with("min_freq must be in (0, 1]"), "{e}");
        }
        assert_eq!(GraphSigConfig::default().validate(), Ok(()));
    }

    #[test]
    fn bad_fsm_freq_rejected() {
        let c = GraphSigConfig {
            fsm_freq: 1.5,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err("fsm_freq must be in (0, 1], got 1.5".into())
        );
        let c = GraphSigConfig {
            max_pvalue: 2.0,
            ..Default::default()
        };
        assert!(c.validate().unwrap_err().starts_with("max_pvalue"));
    }
}
