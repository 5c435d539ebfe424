//! The GraphSig pipeline (Algorithm 2 of the paper).

use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

use graphsig_features::FeatureSet;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_fvmine::{is_sub_vector, FvMineConfig, FvMiner, SignificantVector};
use graphsig_graph::control::{self, Completion, Meter, Outcome, StopReason};
use graphsig_graph::{cut_graph, Graph, GraphDb, NodeLabel};
use graphsig_gspan::{DfsCode, Pattern};

use crate::config::GraphSigConfig;
use crate::vectors::{compute_all_window_vectors_governed, group_by_label};

/// One mined significant subgraph, with its feature-space and graph-space
/// evidence.
#[derive(Debug, Clone)]
pub struct SignificantSubgraph {
    /// The subgraph.
    pub graph: Graph,
    /// Canonical code (dedup key).
    pub code: DfsCode,
    /// The closed significant sub-feature vector that led to it.
    pub source_vector: Vec<u8>,
    /// p-value of that vector at its observed support (feature space).
    pub vector_pvalue: f64,
    /// Observed support of the vector (number of described regions).
    pub vector_support: usize,
    /// Label of the group (`D_a`) the vector came from.
    pub group_label: NodeLabel,
    /// Number of regions cut for the FSM step.
    pub set_size: usize,
    /// Support of the subgraph *within the region set*.
    pub fsm_support: usize,
    /// Distinct database graphs among the supporting regions, ascending.
    pub gids: Vec<u32>,
}

impl SignificantSubgraph {
    /// Global frequency: fraction of database graphs containing a
    /// supporting region.
    pub fn frequency(&self, db_size: usize) -> f64 {
        if db_size == 0 {
            0.0
        } else {
            self.gids.len() as f64 / db_size as f64
        }
    }
}

/// Wall-clock breakdown of one run — the paper's Fig. 10 splits GraphSig
/// cost into RWR, feature-space analysis, and frequent subgraph mining.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// Sliding the window: one RWR solve per graph, giving every node's
    /// vector (≈20% of the cost in the paper's Fig. 10).
    pub rwr: Duration,
    /// Grouping + FVMine + locating supporting nodes.
    pub feature_analysis: Duration,
    /// CutGraph + maximal FSM on the region sets.
    pub fsm: Duration,
}

impl Profile {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.rwr + self.feature_analysis + self.fsm
    }

    /// `(rwr, feature analysis, fsm)` as percentages of the total.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.rwr.as_secs_f64() / t,
            100.0 * self.feature_analysis.as_secs_f64() / t,
            100.0 * self.fsm.as_secs_f64() / t,
        )
    }
}

/// Counters describing the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Total node vectors produced by the RWR pass.
    pub vectors: usize,
    /// Label groups mined.
    pub groups: usize,
    /// Significant sub-feature vectors found by FVMine.
    pub significant_vectors: usize,
    /// Region sets that survived to the FSM step.
    pub region_sets: usize,
    /// Region sets whose FSM step produced no pattern (feature-space false
    /// positives pruned in graph space — Sec. IV-B).
    pub pruned_sets: usize,
    /// Region sets whose FSM enumeration hit `max_patterns_per_set` and
    /// was truncated (their maximal output is approximate).
    pub truncated_sets: usize,
    /// Cooperative steps attributed to isomorphism-matcher work (support
    /// counting inside the FSM phase). Only tracked on budgeted runs — an
    /// unbudgeted run reports 0 — and useful for naming the dominant phase
    /// when a step budget truncates the run.
    pub match_steps: u64,
    /// Full canonical-code (`min_dfs_code` / restricted self-projection)
    /// computations performed during the FSM phase. Only tracked on
    /// budgeted runs; the canonicalization-v2 certificate layer exists to
    /// drive this number down.
    pub canon_calls: u64,
    /// Canonicalization queries answered from certificates (dedup merges,
    /// certificate-set apriori checks, canonical-cache hits) instead of a
    /// full `min_dfs_code`. Only tracked on budgeted runs.
    pub cert_hits: u64,
}

/// The result of [`GraphSig::mine`].
#[derive(Debug, Clone)]
pub struct GraphSigResult {
    /// Deduplicated significant subgraphs, most significant vector first.
    pub subgraphs: Vec<SignificantSubgraph>,
    /// Cost profile (Fig. 10).
    pub profile: Profile,
    /// Run counters.
    pub stats: RunStats,
}

/// A cached window pass (phases 1–2a of Algorithm 2): the per-label vector
/// groups plus provenance, reusable across threshold settings. Built by
/// [`GraphSig::prepare`].
#[derive(Debug, Clone)]
pub struct Prepared {
    groups: Vec<crate::vectors::LabelGroup>,
    vectors: usize,
    rwr_time: Duration,
    db_len: usize,
    window: crate::config::WindowKind,
    alpha: f64,
    /// First deadline or cancel stop hit during the window pass, if any
    /// (graph-id order).
    truncation: Option<StopReason>,
}

impl Prepared {
    /// The per-label vector groups.
    pub fn groups(&self) -> &[crate::vectors::LabelGroup] {
        &self.groups
    }

    /// Total node vectors produced.
    pub fn vector_count(&self) -> usize {
        self.vectors
    }

    /// Approximate heap bytes held by the cached window pass (discretized
    /// vectors plus provenance). Estimate for the server's memory
    /// admission governor, not an allocator audit.
    pub fn approx_resident_bytes(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| {
                let vectors: usize = g
                    .vectors
                    .iter()
                    .map(|v| std::mem::size_of::<Vec<u8>>() + v.len())
                    .sum();
                std::mem::size_of_val(g) + g.members.len() * 8 + vectors
            })
            .sum::<usize>() as u64
    }
}

/// The GraphSig miner. See the crate docs for the pipeline outline.
pub struct GraphSig {
    cfg: GraphSigConfig,
}

impl GraphSig {
    /// Create a miner; panics on invalid configuration (see
    /// [`GraphSigConfig::validate`]).
    pub fn new(cfg: GraphSigConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GraphSigConfig {
        &self.cfg
    }

    /// Mine significant subgraphs from `db`, building the chemical feature
    /// set from the database itself (Sec. II-B).
    pub fn mine(&self, db: &GraphDb) -> GraphSigResult {
        self.mine_outcome(db).result
    }

    /// [`mine`](Self::mine), additionally reporting whether the run was
    /// truncated by the configured [`Budget`](graphsig_graph::Budget).
    /// Unbudgeted runs always report [`Completion::Complete`]; a
    /// `max_patterns_per_set` hit reports `Truncated(PatternCap)` even
    /// without a budget (it was always a silent cap before).
    pub fn mine_outcome(&self, db: &GraphDb) -> Outcome<GraphSigResult> {
        let fs = FeatureSet::for_chemical(db, self.cfg.top_k_atoms);
        self.mine_with_features_outcome(db, &fs)
    }

    /// Mine with a caller-supplied feature set (e.g. one selected on a
    /// larger corpus, or via the greedy selector).
    pub fn mine_with_features(&self, db: &GraphDb, fs: &FeatureSet) -> GraphSigResult {
        self.mine_with_features_outcome(db, fs).result
    }

    /// [`mine_with_features`](Self::mine_with_features) with completion
    /// reporting (see [`mine_outcome`](Self::mine_outcome)).
    pub fn mine_with_features_outcome(
        &self,
        db: &GraphDb,
        fs: &FeatureSet,
    ) -> Outcome<GraphSigResult> {
        let prepared = self.prepare_with_features(db, fs);
        self.mine_prepared_outcome(db, &prepared)
    }

    /// Run the window pass once (phases 1–2a) and keep the result for
    /// repeated mining. The RWR cost is independent of every threshold, so
    /// parameter sweeps (the Fig. 9/12 experiments, hyper-parameter tuning)
    /// should prepare once and call [`mine_prepared`](Self::mine_prepared)
    /// per threshold setting.
    pub fn prepare(&self, db: &GraphDb) -> Prepared {
        let fs = FeatureSet::for_chemical(db, self.cfg.top_k_atoms);
        self.prepare_with_features(db, &fs)
    }

    /// [`prepare`](Self::prepare) with an explicit feature set.
    pub fn prepare_with_features(&self, db: &GraphDb, fs: &FeatureSet) -> Prepared {
        let t0 = Instant::now();
        let (all_vectors, truncation) = compute_all_window_vectors_governed(
            db,
            fs,
            &self.cfg.rwr,
            self.cfg.window,
            self.cfg.threads,
            self.cfg.budget.as_ref(),
        );
        let rwr_time = t0.elapsed();
        let vectors = all_vectors.iter().map(|gv| gv.vectors.len()).sum();
        let groups = group_by_label(&all_vectors);
        Prepared {
            groups,
            vectors,
            rwr_time,
            db_len: db.len(),
            window: self.cfg.window,
            alpha: self.cfg.rwr.alpha,
            truncation,
        }
    }

    /// Mine from a [`Prepared`] window pass. The prepared vectors only
    /// depend on the window mechanism (`window`, `rwr.alpha`) and feature
    /// set, so any `max_pvalue` / `min_freq` / `radius` / FSM setting can
    /// be swept against the same preparation.
    ///
    /// # Panics
    /// Panics if `prepared` was built for a different database size or a
    /// different window configuration than this miner's.
    pub fn mine_prepared(&self, db: &GraphDb, prepared: &Prepared) -> GraphSigResult {
        self.mine_prepared_outcome(db, prepared).result
    }

    /// [`mine_prepared`](Self::mine_prepared) with completion reporting
    /// (see [`mine_outcome`](Self::mine_outcome)). Truncation reasons are
    /// merged in a fixed phase/unit order (window pass by graph id, FVMine
    /// by group, FSM by region set), so with a pure step budget the
    /// reported completion — like the result itself — is byte-identical
    /// across thread counts.
    pub fn mine_prepared_outcome(
        &self,
        db: &GraphDb,
        prepared: &Prepared,
    ) -> Outcome<GraphSigResult> {
        assert_eq!(
            prepared.db_len,
            db.len(),
            "prepared for a different database"
        );
        assert_eq!(
            prepared.window, self.cfg.window,
            "prepared with a different window mechanism"
        );
        assert!(
            (prepared.alpha - self.cfg.rwr.alpha).abs() < 1e-12,
            "prepared with a different restart probability"
        );
        let mut profile = Profile {
            rwr: prepared.rwr_time,
            ..Profile::default()
        };
        let mut stats = RunStats {
            vectors: prepared.vectors,
            ..RunStats::default()
        };
        let budget = self.cfg.budget.as_ref();
        // First stop reason across the whole run, in deterministic phase
        // and work-unit order: window pass, then FVMine groups, then FSM
        // region sets.
        let mut truncation = prepared.truncation;

        // ---- Phase 2: FVMine per group (lines 5-9) ------------------------
        // Label groups are independent, so each group's FVMine runs as one
        // task on the shared executor. Flattening the per-group outputs in
        // group order reproduces the sequential work list exactly.
        let t1 = Instant::now();
        let groups = &prepared.groups;
        stats.groups = groups.len();
        // (group label, significant vector, supporting (gid, node) pairs).
        type WorkItem = (NodeLabel, SignificantVector, Vec<(u32, u32)>);
        let per_group: Vec<(Vec<WorkItem>, Option<StopReason>)> =
            crate::par::par_map(self.cfg.threads, groups, |group| {
                let min_support = self.cfg.fvmine_support(group.vectors.len());
                if group.vectors.len() < min_support {
                    return (Vec::new(), None);
                }
                if let Some(reason) = control::check_start(budget) {
                    // Out of time / cancelled: skip the group entirely —
                    // fewer significant vectors, but every one we *did*
                    // produce stays exact.
                    return (Vec::new(), Some(reason));
                }
                // Each group is one metered work unit: its FVMine branch
                // expansions draw on a fresh per-unit step allowance, so
                // exhaustion is a property of the group, not the schedule.
                let mut meter = Meter::new(budget);
                let miner = FvMiner::new(FvMineConfig::new(min_support, self.cfg.max_pvalue));
                let items = miner
                    .mine_metered(&group.vectors, &mut meter)
                    .into_iter()
                    .map(|sv| {
                        // Line 9: nodes described by the vector = its exact
                        // support set, which FVMine already carries.
                        let nodes: Vec<(u32, u32)> = sv
                            .support_ids
                            .iter()
                            .map(|&i| group.members[i as usize])
                            .collect();
                        debug_assert!(nodes.iter().zip(&sv.support_ids).all(|(&(_, _), &i)| {
                            is_sub_vector(&sv.vector, &group.vectors[i as usize])
                        }));
                        (group.label, sv, nodes)
                    })
                    .collect();
                let stop = meter.stop_reason();
                (items, stop)
            });
        let mut work: Vec<WorkItem> = Vec::new();
        for (items, stop) in per_group {
            if truncation.is_none() {
                truncation = stop;
            }
            work.extend(items);
        }
        stats.significant_vectors = work.len();
        profile.feature_analysis = t1.elapsed();

        // ---- Phase 3: CutGraph + maximal FSM per set (lines 10-13) --------
        // Each work item is an independent region set — embarrassingly
        // parallel. Workers return per-item outcomes; counters and the
        // cross-vector dedup are merged on this thread in item order, so
        // the result is byte-identical for any thread count.
        struct SetOutcome {
            /// Reached the FSM step (at least two supporting nodes).
            mined: bool,
            truncated: bool,
            /// Produced no pattern: feature-space false positive.
            pruned: bool,
            /// Budget stop hit while (or before) mining this set.
            stop: Option<StopReason>,
            /// This set's answers, in FSM output order.
            candidates: Vec<SignificantSubgraph>,
        }
        let t2 = Instant::now();
        // Outer parallelism spreads the work items across cores; any cores
        // the item fan-out can't use go to the miners inside each item
        // (inner > 1 only when there are fewer items than cores). Both
        // miners are byte-deterministic at every thread count, so the
        // split never changes the output.
        let inner_threads =
            (crate::par::resolve_threads(self.cfg.threads) / work.len().max(1)).max(1);
        let outcomes: Vec<SetOutcome> =
            crate::par::par_map(self.cfg.threads, &work, |(label, sv, nodes)| {
                if nodes.len() < 2 {
                    return SetOutcome {
                        mined: false,
                        truncated: false,
                        pruned: false,
                        stop: None,
                        candidates: Vec::new(),
                    };
                }
                if let Some(reason) = control::check_start(budget) {
                    // Out of time / cancelled before this set: drop it and
                    // report why. Everything already mined stays exact.
                    return SetOutcome {
                        mined: false,
                        truncated: false,
                        pruned: false,
                        stop: Some(reason),
                        candidates: Vec::new(),
                    };
                }
                // Cut one region per described node; remember each region's
                // source graph for global-frequency accounting.
                let mut regions = GraphDb::from_parts(Vec::new(), db.labels().clone());
                let mut region_sources: Vec<u32> = Vec::with_capacity(nodes.len());
                for &(gid, node) in nodes {
                    let (region, _) = cut_graph(db.graph(gid as usize), node, self.cfg.radius);
                    regions.push(region);
                    region_sources.push(gid);
                }
                let support = self.cfg.fsm_support(regions.len());
                let (patterns, truncated, stop) =
                    self.maximal_fsm(&regions, support, inner_threads);
                let pruned = patterns.is_empty();
                let candidates = patterns
                    .into_iter()
                    .map(|p| {
                        let mut gids: Vec<u32> = p
                            .gids
                            .iter()
                            .map(|&rid| region_sources[rid as usize])
                            .collect();
                        gids.sort_unstable();
                        gids.dedup();
                        SignificantSubgraph {
                            graph: p.graph,
                            code: p.code,
                            source_vector: sv.vector.clone(),
                            vector_pvalue: sv.p_value,
                            vector_support: sv.support(),
                            group_label: *label,
                            set_size: nodes.len(),
                            fsm_support: p.support,
                            gids,
                        }
                    })
                    .collect();
                SetOutcome {
                    mined: true,
                    truncated,
                    pruned,
                    stop,
                    candidates,
                }
            });
        // Deterministic merge: aggregate counters and dedup in item order,
        // keeping the most significant evidence per canonical code.
        let mut best: HashMap<DfsCode, SignificantSubgraph> = HashMap::new();
        for outcome in outcomes {
            if truncation.is_none() {
                truncation = outcome.stop;
            }
            if !outcome.mined {
                continue;
            }
            stats.region_sets += 1;
            if outcome.truncated {
                stats.truncated_sets += 1;
            }
            if outcome.pruned {
                stats.pruned_sets += 1;
                continue;
            }
            for sg in outcome.candidates {
                match best.entry(sg.code.clone()) {
                    Entry::Occupied(mut o) => {
                        if sg.vector_pvalue < o.get().vector_pvalue {
                            o.insert(sg);
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(sg);
                    }
                }
            }
        }
        profile.fsm = t2.elapsed();
        stats.match_steps = budget.map_or(0, |b| b.match_steps_spent());
        stats.canon_calls = budget.map_or(0, |b| b.canon_calls());
        stats.cert_hits = budget.map_or(0, |b| b.cert_hits());

        let mut subgraphs: Vec<SignificantSubgraph> = best.into_values().collect();
        subgraphs.sort_by(|a, b| {
            a.vector_pvalue
                .partial_cmp(&b.vector_pvalue)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.graph.edge_count().cmp(&a.graph.edge_count()))
                // Canonical-code tiebreak: HashMap iteration order must not
                // leak into the result.
                .then_with(|| a.code.cmp(&b.code))
        });
        let mut completion = match truncation {
            Some(reason) => Completion::Truncated(reason),
            None => Completion::Complete,
        };
        if stats.truncated_sets > 0 {
            completion = completion.merge(Completion::Truncated(StopReason::PatternCap));
        }
        Outcome::new(
            GraphSigResult {
                subgraphs,
                profile,
                stats,
            },
            completion,
        )
    }

    /// Run FSG with `threads` workers and return `(maximal patterns, hit the
    /// per-set pattern cap, budget stop)`.
    fn maximal_fsm(
        &self,
        regions: &GraphDb,
        support: usize,
        threads: usize,
    ) -> (Vec<Pattern>, bool, Option<StopReason>) {
        if regions.len() < support {
            return (Vec::new(), false, None);
        }
        let cap = self.cfg.max_patterns_per_set;
        let mut cfg = FsgConfig::new(support)
            .with_max_edges(self.cfg.max_pattern_edges)
            .with_max_patterns(cap)
            .with_threads(threads);
        if let Some(b) = self.cfg.budget.as_ref() {
            cfg = cfg.with_budget(b.clone());
        }
        let outcome = Fsg::new(cfg).mine_outcome(regions);
        let all = outcome.result;
        let truncated = all.len() >= cap;
        // The per-set pattern cap is already surfaced through `truncated`
        // (and the run's `truncated_sets` counter); only budget stops need
        // to flow out of here.
        let stop = match outcome.completion {
            Completion::Truncated(reason) if reason != StopReason::PatternCap => Some(reason),
            _ => None,
        };
        (graphsig_gspan::filter_maximal(all), truncated, stop)
    }
}

/// Sanity-check helper used by tests and examples: verify with subgraph
/// isomorphism that `sg` really occurs in every database graph it claims.
pub fn verify_occurrences(sg: &SignificantSubgraph, db: &GraphDb) -> bool {
    sg.gids
        .iter()
        .all(|&gid| graphsig_graph::iso::contains(db.graph(gid as usize), &sg.graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_datagen::{aids_like, motifs, standard_alphabet};

    /// Fast config for small debug-mode tests.
    fn test_cfg() -> GraphSigConfig {
        GraphSigConfig {
            min_freq: 0.05,
            max_pvalue: 0.05,
            radius: 4,
            max_pattern_edges: 12,
            ..Default::default()
        }
    }

    #[test]
    fn mines_the_planted_core_from_actives() {
        // The paper's quality protocol (Sec. VI-C): run on the active set
        // only; the planted cores must surface.
        let data = aids_like(600, 42);
        let actives = data.active_subset();
        assert!(actives.len() >= 20);
        let result = GraphSig::new(test_cfg()).mine(&actives);
        assert!(
            !result.subgraphs.is_empty(),
            "no significant subgraphs found"
        );
        // Some mined subgraph must capture part of the AZT/FDT ring core:
        // it must contain an N atom bonded into a ring with C (all planted
        // cores share the C/N ring), with at least 4 edges.
        let alphabet = standard_alphabet();
        let n_label = alphabet.atom("N");
        let found_core = result
            .subgraphs
            .iter()
            .any(|sg| sg.graph.edge_count() >= 4 && sg.graph.node_labels().contains(&n_label));
        assert!(found_core, "no N-bearing core among mined subgraphs");
        // All claims verify in graph space.
        for sg in &result.subgraphs {
            assert!(verify_occurrences(sg, &actives), "bogus occurrence claim");
            assert!(sg.vector_pvalue <= 0.05 + 1e-12);
            assert!(sg.fsm_support >= 2);
        }
    }

    #[test]
    fn mined_patterns_occur_in_active_molecules_specifically() {
        let data = aids_like(600, 43);
        let actives = data.active_subset();
        let result = GraphSig::new(test_cfg()).mine(&actives);
        // A conserved core must surface: some mined subgraph of >= 4 edges
        // present in a decent share of the actives. (Not necessarily the
        // largest answer — motif decorations can make the largest pattern
        // an over-specialized variant shared by fewer molecules.)
        let conserved = result
            .subgraphs
            .iter()
            .filter(|sg| sg.graph.edge_count() >= 4)
            .map(|sg| sg.gids.len() as f64 / actives.len() as f64)
            .fold(0.0f64, f64::max);
        assert!(conserved > 0.3, "no widely shared core: best {conserved}");
    }

    #[test]
    fn profile_accounts_all_phases() {
        let data = aids_like(120, 44);
        let result = GraphSig::new(test_cfg()).mine(&data.db);
        let p = result.profile;
        assert!(p.rwr > Duration::ZERO);
        assert!(p.feature_analysis > Duration::ZERO);
        let (a, b, c) = p.percentages();
        assert!((a + b + c - 100.0).abs() < 1e-6);
        assert!(result.stats.vectors > 0);
        assert!(result.stats.groups > 0);
    }

    #[test]
    fn no_duplicate_answer_subgraphs() {
        let data = aids_like(300, 45);
        let result = GraphSig::new(test_cfg()).mine(&data.active_subset());
        let mut codes: Vec<_> = result.subgraphs.iter().map(|s| s.code.clone()).collect();
        let before = codes.len();
        codes.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
        codes.dedup();
        assert_eq!(codes.len(), before, "duplicate subgraphs in answer set");
    }

    #[test]
    fn results_sorted_by_significance() {
        let data = aids_like(300, 46);
        let result = GraphSig::new(test_cfg()).mine(&data.active_subset());
        for w in result.subgraphs.windows(2) {
            assert!(w[0].vector_pvalue <= w[1].vector_pvalue + 1e-12);
        }
    }

    #[test]
    fn benzene_is_not_significant() {
        // Benzene is in ~70% of molecules regardless of class: in the
        // full database its regions look statistically unremarkable, so no
        // mined subgraph should BE benzene (Fig. 16's point). We mine the
        // full db (not the active subset) at the default p-value threshold.
        let data = aids_like(250, 48);
        let cfg = GraphSigConfig {
            min_freq: 0.05,
            max_pvalue: 0.01,
            radius: 3,
            max_pattern_edges: 10,
            ..Default::default()
        };
        let result = GraphSig::new(cfg).mine(&data.db);
        let alphabet = standard_alphabet();
        let benzene = motifs::benzene(&alphabet);
        for sg in &result.subgraphs {
            assert!(
                !graphsig_graph::are_isomorphic(&sg.graph, &benzene),
                "benzene reported as significant"
            );
        }
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let result = GraphSig::new(test_cfg()).mine(&GraphDb::new());
        assert!(result.subgraphs.is_empty());
        assert_eq!(result.stats.vectors, 0);
    }

    #[test]
    fn false_positive_sets_are_pruned_in_graph_space() {
        // Run on a heterogeneous database (full db, loose thresholds) and
        // check the pruning counter: some sets produce no common pattern.
        let data = aids_like(200, 49);
        let cfg = GraphSigConfig {
            min_freq: 0.02,
            max_pvalue: 0.3,
            radius: 6,
            fsm_freq: 0.95,
            max_pattern_edges: 10,
            ..Default::default()
        };
        let result = GraphSig::new(cfg).mine(&data.db);
        assert!(result.stats.region_sets > 0);
        // Not asserting pruned_sets > 0 strictly — but the counter must be
        // consistent.
        assert!(result.stats.pruned_sets <= result.stats.region_sets);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use graphsig_datagen::aids_like;
    use graphsig_graph::{Budget, CancelToken};
    use std::time::Duration;

    fn cfg() -> GraphSigConfig {
        GraphSigConfig {
            min_freq: 0.05,
            max_pvalue: 0.05,
            radius: 3,
            max_pattern_edges: 8,
            ..Default::default()
        }
    }

    fn fingerprint(r: &GraphSigResult) -> Vec<String> {
        r.subgraphs
            .iter()
            .map(|s| format!("{} {:?}", s.code, s.gids))
            .collect()
    }

    #[test]
    fn unbudgeted_outcome_is_complete_and_matches_mine() {
        let data = aids_like(60, 11);
        let actives = data.active_subset();
        let miner = GraphSig::new(cfg());
        let outcome = miner.mine_outcome(&actives);
        assert!(outcome.completion.is_complete());
        assert_eq!(
            fingerprint(&outcome.result),
            fingerprint(&miner.mine(&actives))
        );
    }

    #[test]
    fn step_budget_truncation_is_identical_across_thread_counts() {
        let data = aids_like(60, 12);
        let actives = data.active_subset();
        for &max_steps in &[0u64, 5, 2_000] {
            let mut runs = Vec::new();
            for &threads in &[1usize, 2, 4, 8] {
                let c = GraphSigConfig { threads, ..cfg() }
                    .with_budget(Budget::unlimited().with_max_steps(max_steps));
                let outcome = GraphSig::new(c).mine_outcome(&actives);
                runs.push((fingerprint(&outcome.result), outcome.completion));
            }
            for w in runs.windows(2) {
                assert_eq!(w[0], w[1], "max_steps={max_steps}");
            }
            if max_steps == 0 {
                assert_eq!(runs[0].1, Completion::Truncated(StopReason::StepBudget));
                assert!(runs[0].0.is_empty(), "zero budget must yield no subgraphs");
            }
        }
    }

    #[test]
    fn step_budget_answers_are_a_subset_of_the_complete_answer() {
        // A step budget bounds the search, never the window pass: every
        // subgraph a truncated run reports is one the complete run reports.
        let data = aids_like(60, 12);
        let db = &data.db;
        let cfg = || GraphSigConfig {
            min_freq: 0.05,
            max_pvalue: 0.05,
            radius: 3,
            ..Default::default()
        };
        let complete = GraphSig::new(cfg()).mine(db);
        let codes: std::collections::HashSet<&DfsCode> =
            complete.subgraphs.iter().map(|s| &s.code).collect();
        for max_steps in [1_000u64, 2_000] {
            let c = cfg().with_budget(Budget::unlimited().with_max_steps(max_steps));
            let outcome = GraphSig::new(c).mine_outcome(db);
            assert_eq!(
                outcome.completion,
                Completion::Truncated(StopReason::StepBudget),
                "max_steps={max_steps}"
            );
            let absent = outcome
                .result
                .subgraphs
                .iter()
                .filter(|s| !codes.contains(&s.code))
                .count();
            assert_eq!(
                absent,
                0,
                "max_steps={max_steps}: {absent} of {} subgraphs absent from the complete answer",
                outcome.result.subgraphs.len()
            );
        }
    }

    #[test]
    fn budgeted_runs_attribute_matcher_steps() {
        let data = aids_like(60, 15);
        let actives = data.active_subset();
        // Generous budget: the run completes, but step accounting is live.
        let c = cfg().with_budget(Budget::unlimited().with_max_steps(u64::MAX / 2));
        let outcome = GraphSig::new(c).mine_outcome(&actives);
        assert!(outcome.completion.is_complete());
        assert!(
            outcome.result.stats.match_steps > 0,
            "no matcher steps attributed"
        );
        // The FSM phase canonicalizes emitted patterns and resolves the
        // rest through certificates: both counters are live on budgeted
        // runs.
        assert!(
            outcome.result.stats.canon_calls > 0,
            "no canonicalizations attributed"
        );
        assert!(
            outcome.result.stats.cert_hits > 0,
            "no certificate hits attributed"
        );
        // Unbudgeted runs don't track the split.
        let plain = GraphSig::new(cfg()).mine_outcome(&actives);
        assert_eq!(plain.result.stats.match_steps, 0);
        assert_eq!(plain.result.stats.canon_calls, 0);
        assert_eq!(plain.result.stats.cert_hits, 0);
    }

    #[test]
    fn expired_deadline_yields_truncated_outcome() {
        let data = aids_like(40, 13);
        let c = cfg().with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        let outcome = GraphSig::new(c).mine_outcome(&data.db);
        assert_eq!(
            outcome.completion,
            Completion::Truncated(StopReason::Deadline)
        );
        assert!(outcome.result.subgraphs.is_empty());
    }

    #[test]
    fn cancelled_token_yields_truncated_outcome() {
        let data = aids_like(40, 14);
        let token = CancelToken::new();
        token.cancel();
        let c = cfg().with_budget(Budget::unlimited().with_cancel(token));
        let outcome = GraphSig::new(c).mine_outcome(&data.db);
        assert_eq!(
            outcome.completion,
            Completion::Truncated(StopReason::Cancelled)
        );
        assert!(outcome.result.subgraphs.is_empty());
    }
}

#[cfg(test)]
mod prepared_tests {
    use super::*;
    use graphsig_datagen::aids_like;

    fn cfg(min_freq: f64, max_pvalue: f64) -> GraphSigConfig {
        GraphSigConfig {
            min_freq,
            max_pvalue,
            radius: 4,
            max_pattern_edges: 12,
            max_patterns_per_set: 5_000,
            ..Default::default()
        }
    }

    #[test]
    fn prepared_sweep_matches_fresh_runs() {
        let data = aids_like(150, 77);
        let actives = data.active_subset();
        let base = GraphSig::new(cfg(0.1, 0.05));
        let prepared = base.prepare(&actives);
        assert!(prepared.vector_count() > 0);
        assert!(!prepared.groups().is_empty());
        for (mf, mp) in [(0.1, 0.05), (0.2, 0.02), (0.05, 0.1)] {
            let miner = GraphSig::new(cfg(mf, mp));
            let via_prepared = miner.mine_prepared(&actives, &prepared);
            let fresh = miner.mine(&actives);
            assert_eq!(
                via_prepared.subgraphs.len(),
                fresh.subgraphs.len(),
                "mf={mf} mp={mp}"
            );
            for (a, b) in via_prepared.subgraphs.iter().zip(&fresh.subgraphs) {
                assert_eq!(a.code, b.code);
                assert_eq!(a.gids, b.gids);
            }
        }
    }

    #[test]
    #[should_panic(expected = "different database")]
    fn prepared_rejects_other_database() {
        let d1 = aids_like(30, 1);
        let d2 = aids_like(40, 1);
        let miner = GraphSig::new(cfg(0.1, 0.05));
        let prepared = miner.prepare(&d1.db);
        miner.mine_prepared(&d2.db, &prepared);
    }

    #[test]
    #[should_panic(expected = "different window")]
    fn prepared_rejects_other_window() {
        let d = aids_like(30, 1);
        let miner = GraphSig::new(cfg(0.1, 0.05));
        let prepared = miner.prepare(&d.db);
        let counting = GraphSig::new(GraphSigConfig {
            window: crate::config::WindowKind::Count { radius: 3 },
            ..cfg(0.1, 0.05)
        });
        counting.mine_prepared(&d.db, &prepared);
    }
}
