//! FSG-style apriori frequent-subgraph miner (Kuramochi & Karypis, ICDM'01).
//!
//! The second baseline of the GraphSig paper (Figs. 2, 9, 11) and the tool
//! the authors run on GraphSig's candidate sets to extract maximal frequent
//! subgraphs (`GraphSig+FSG`). Where gSpan grows patterns depth-first along
//! canonical DFS codes, FSG is *level-wise and breadth-first*:
//!
//! 1. level 1 = frequent single edges, read straight from the caller's
//!    level-1 entries (canonical key order, sorted TID lists);
//! 2. level k+1 candidates are generated by extending every frequent
//!    k-edge pattern with one edge (a new pendant vertex, or a cycle-closing
//!    edge between existing vertices), TID-prefiltered (an extension whose
//!    edge type does not co-occur with the parent in at least `min_support`
//!    transactions is dropped before any isomorphism work), and grouped
//!    into isomorphism classes (1-WL certificate buckets, confirmed by
//!    [`are_isomorphic`]);
//! 3. candidates whose (k-edge) sub-patterns are not all frequent are pruned
//!    (the apriori downward-closure check, against the previous level's
//!    certificates);
//! 4. surviving candidates are support-counted against the TID lists
//!    inherited from their parents (subgraph isomorphism per transaction),
//!    with one reusable [`MultiMatcher`] per candidate and an early exit
//!    once the remaining transactions cannot reach `min_support`; only the
//!    frequent ones are canonicalized, and they are emitted in code order.
//!
//! There is one core path, [`Fsg::mine_compiled_outcome`]: it mines from
//! level-1 entries and a slice of precompiled targets ([`CompiledGraph`],
//! indexed by TID). [`Fsg::mine_indexed_outcome`] passes a
//! [`LabelPairIndex`]'s entries and its cached compiled database (the
//! baselines and the server's `freq` op); GraphSig's pipeline passes a
//! region set's entries and compiled regions from its per-mine region
//! arena, so a region shared by many sets is compiled once.
//!
//! With `threads > 1` the expensive stages run on the shared deterministic
//! executor ([`graphsig_graph::par`]): extension generation and
//! certificates are parallel per parent (merged in parent order — TID
//! intersection is order-insensitive), and pruning, support counting and
//! canonicalization are parallel per candidate class (merged in class
//! order). The mined pattern list is byte-identical for every thread count.
//!
//! Deviations from the original implementation, documented in DESIGN.md:
//! canonical forms use the gSpan minimum DFS code rather than FSG's
//! canonical adjacency matrix (the canonical form is interchangeable), and
//! candidate generation extends patterns edge-wise rather than joining
//! (k-1)-core pairs (a superset of FSG's candidates that the TID prefilter
//! and the same pruning reduce). The output set — all frequent connected
//! subgraphs — is identical, and so is the level-wise combinatorial
//! explosion at low support thresholds that motivates GraphSig.
//!
//! # Example
//!
//! ```
//! use graphsig_graph::parse_transactions;
//! use graphsig_fsg::{Fsg, FsgConfig};
//!
//! let db = parse_transactions(
//!     "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
//!      t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n",
//! )
//! .unwrap();
//! let pats = Fsg::new(FsgConfig::new(2)).mine(&db);
//! assert_eq!(pats.len(), 3); // C-C, C-O, C-C-O
//! ```

use std::collections::{HashMap, HashSet};

use graphsig_graph::control::{self, Budget, Completion, Meter, Outcome, StopReason};
use graphsig_graph::invariant::refine_metered;
use graphsig_graph::{
    are_isomorphic, certificate, par_map, resolve_threads, CompiledGraph, Graph, GraphBuilder,
    GraphDb, LabelPairIndex, LabelTriple, MatchOutcome, MatcherKind, MultiMatcher,
};
use graphsig_gspan::{min_dfs_code, DfsCode, Pattern};

/// One parent's generated extensions plus the budget stop (if any) hit
/// while producing them: each child carries only its (cheap) certificate;
/// canonicalization is deferred to emitted survivors.
type ParentCertExtensions = (Vec<(u64, Graph)>, Option<StopReason>);

/// Configuration for [`Fsg`].
#[derive(Debug, Clone)]
pub struct FsgConfig {
    /// Minimum absolute support (distinct graphs), `>= 1`.
    pub min_support: usize,
    /// Stop after this level (pattern size in edges).
    pub max_edges: Option<usize>,
    /// Abort after emitting this many patterns.
    pub max_patterns: Option<usize>,
    /// Worker threads for candidate generation and support counting:
    /// `1` = sequential (the default), `0` = auto (one per core). The mined
    /// pattern list is byte-identical for every thread count.
    pub threads: usize,
    /// Resource governance. Each parent (extension generation) and each
    /// candidate (pruning + support counting) is one budget work unit with
    /// a fresh step allowance, so step-budget truncation is deterministic
    /// across thread counts; deadline/cancellation are best-effort. See
    /// [`graphsig_graph::control`].
    pub budget: Option<Budget>,
}

impl FsgConfig {
    /// Config with the given absolute support and no other limits.
    pub fn new(min_support: usize) -> Self {
        Self {
            min_support,
            max_edges: None,
            max_patterns: None,
            threads: 1,
            budget: None,
        }
    }

    /// Limit pattern size (in edges).
    pub fn with_max_edges(mut self, max_edges: usize) -> Self {
        self.max_edges = Some(max_edges);
        self
    }

    /// Limit the number of emitted patterns.
    pub fn with_max_patterns(mut self, max_patterns: usize) -> Self {
        self.max_patterns = Some(max_patterns);
        self
    }

    /// Set the worker thread count (`0` = auto, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a resource [`Budget`] (deadline, per-unit step allowance,
    /// cancellation).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Returns `self` unchanged: there is one isomorphism engine. Kept
    /// only because the benchmark crate still calls it; removed with
    /// that call.
    pub fn with_matcher(self, _matcher: MatcherKind) -> Self {
        self
    }

    /// Relative frequency (0..=1) to absolute support on `n` graphs,
    /// mirroring Definition 1 of the paper.
    pub fn from_frequency(freq: f64, n: usize) -> Self {
        assert!((0.0..=1.0).contains(&freq), "frequency must be in [0,1]");
        Self::new(((freq * n as f64).ceil() as usize).max(1))
    }
}

/// A pattern at the frontier of the level-wise search.
struct Candidate {
    graph: Graph,
    /// Intersection of the parents' TID lists (sorted): the only graphs
    /// that can possibly contain this candidate, by downward closure.
    tids: Vec<u32>,
}

/// A certificate-deduplicated candidate class: one representative graph
/// per isomorphism class, in deterministic first-generation order.
struct CertCandidate {
    cert: u64,
    graph: Graph,
    tids: Vec<u32>,
}

/// The per-level context: the compiled match targets (indexed by tid) and
/// the frequent-edge universe candidates are generated against.
struct LevelCtx<'a> {
    targets: &'a [&'a CompiledGraph],
    threads: usize,
    f1_tids: HashMap<(u16, u16, u16), Vec<u32>>,
    edge_labels: Vec<u16>,
    vertex_labels: Vec<u16>,
}

/// The FSG-style miner.
pub struct Fsg {
    cfg: FsgConfig,
}

impl Fsg {
    /// Create a miner with the given configuration.
    pub fn new(cfg: FsgConfig) -> Self {
        assert!(cfg.min_support >= 1, "min_support must be at least 1");
        Self { cfg }
    }

    /// Mine all frequent connected subgraphs with at least one edge.
    pub fn mine(&self, db: &GraphDb) -> Vec<Pattern> {
        self.mine_outcome(db).result
    }

    /// [`mine`](Self::mine), reporting whether the search ran to
    /// completion or was truncated by the configured budget or pattern
    /// cap. Step-budget/pattern-cap truncation is byte-identical across
    /// thread counts; deadline/cancellation truncation is best-effort.
    pub fn mine_outcome(&self, db: &GraphDb) -> Outcome<Vec<Pattern>> {
        self.mine_indexed_outcome(db, &LabelPairIndex::build(db))
    }

    /// [`mine`](Self::mine) with a prebuilt [`LabelPairIndex`] of `db`.
    /// Sharing one index across repeated mining runs (threshold sweeps on
    /// the same database) skips the per-run database scan.
    pub fn mine_indexed(&self, db: &GraphDb, index: &LabelPairIndex) -> Vec<Pattern> {
        self.mine_indexed_outcome(db, index).result
    }

    /// [`mine_indexed`](Self::mine_indexed) with completion reporting; see
    /// [`mine_outcome`](Self::mine_outcome).
    pub fn mine_indexed_outcome(
        &self,
        db: &GraphDb,
        index: &LabelPairIndex,
    ) -> Outcome<Vec<Pattern>> {
        // The compilation is cached on the index, so repeated runs and
        // threshold sweeps over the same index all share it.
        let compiled = index.compiled_db(db);
        let targets: Vec<&CompiledGraph> = (0..compiled.len()).map(|g| compiled.graph(g)).collect();
        let level1 = index.entries().iter().map(|e| (e.key, e.tids.as_slice()));
        self.mine_compiled_outcome(level1, &targets)
    }

    /// The one mining path, over precompiled targets: transaction `t` is
    /// `targets[t]`, and `level1` lists every edge type of those targets
    /// with its ascending tid list, ascending by canonical key — what a
    /// [`LabelPairIndex`] of the targets' source graphs holds. Edge types
    /// below `min_support` are skipped here. GraphSig's pipeline calls this
    /// with region sets of its per-mine region arena, so each region is
    /// compiled once however many sets it belongs to.
    pub fn mine_compiled_outcome<'t>(
        &self,
        level1: impl IntoIterator<Item = (LabelTriple, &'t [u32])>,
        targets: &[&CompiledGraph],
    ) -> Outcome<Vec<Pattern>> {
        let threads = resolve_threads(self.cfg.threads);
        let budget = self.cfg.budget.as_ref();
        let mut out: Vec<Pattern> = Vec::new();
        // First budget truncation observed, in deterministic level /
        // stage / unit order.
        let mut truncation: Option<StopReason> = None;
        if let Some(reason) = control::check_start(budget) {
            return Outcome::truncated(out, reason);
        }

        // ---- Level 1: frequent single edges, straight from `level1` -------
        // Entries arrive ascending by canonical key with sorted TID lists —
        // the exact order and content a fresh database scan would produce.
        let mut frontier: Vec<Candidate> = Vec::new();
        let mut f1_tids: HashMap<(u16, u16, u16), Vec<u32>> = HashMap::new();
        // Main-thread meter for level-1 diagnostics (canonicalization
        // counts); notes never consume budget.
        let mut l1_meter = Meter::new(budget);
        for (key, tids) in level1 {
            if tids.len() < self.cfg.min_support {
                continue;
            }
            let (la, le, lb) = key;
            f1_tids.insert(key, tids.to_vec());
            let mut b = GraphBuilder::new();
            let u = b.add_node(la);
            let v = b.add_node(lb);
            b.add_edge(u, v, le);
            let graph = b.build();
            l1_meter.note_canon();
            let code = min_dfs_code(&graph);
            out.push(Pattern {
                code,
                graph: graph.clone(),
                support: tids.len(),
                gids: tids.to_vec(),
            });
            frontier.push(Candidate {
                graph,
                tids: tids.to_vec(),
            });
            if self.reached_cap(&out) {
                return Outcome::truncated(out, StopReason::PatternCap);
            }
        }
        drop(l1_meter);
        let edge_label_universe: Vec<u16> = {
            let mut v: Vec<u16> = f1_tids.keys().map(|k| k.1).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let vertex_label_universe: Vec<u16> = {
            let mut v: Vec<u16> = f1_tids.keys().flat_map(|k| [k.0, k.2]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };

        // ---- Levels 2..: generate, dedup, prune, count ------------------
        let ctx = LevelCtx {
            targets,
            threads,
            f1_tids,
            edge_labels: edge_label_universe,
            vertex_labels: vertex_label_universe,
        };
        // The previous level's certificate set: level-1 patterns are in the
        // frontier, so derive their certificates directly.
        let level_certs: HashSet<u64> = frontier.iter().map(|c| certificate(&c.graph).0).collect();
        let capped =
            self.run_levels_certified(&ctx, frontier, level_certs, &mut out, &mut truncation);
        let mut completion = completion_of(truncation);
        if capped {
            completion = completion.merge(Completion::Truncated(StopReason::PatternCap));
        }
        Outcome::new(out, completion)
    }

    /// Levels 2..: certificates instead of canonical codes until a
    /// candidate is emitted.
    ///
    /// Per level:
    /// 1. **Generate** (parallel per parent): one-edge extensions, each
    ///    child hashed to its certificate — no canonicalization.
    /// 2. **Dedup** (sequential, parent order): children group into exact
    ///    isomorphism classes — certificate lookup narrows to a bucket,
    ///    [`are_isomorphic`] confirms (so certificate collisions are
    ///    harmless). Each class keeps its first-generated graph and the
    ///    intersection of its parents' TID lists.
    /// 3. **Prune + count** (parallel per class): the downward-closure
    ///    check consults the previous level's *certificate set*
    ///    ([`subpatterns_all_frequent_certs`]), then support is counted.
    /// 4. **Canonicalize survivors only** (parallel per survivor), then
    ///    emit sorted by code, so the pattern list, the `max_patterns`
    ///    truncation point, and the next frontier do not depend on
    ///    generation order or thread count.
    ///
    /// Returns whether the `max_patterns` cap stopped the search.
    fn run_levels_certified(
        &self,
        ctx: &LevelCtx<'_>,
        mut frontier: Vec<Candidate>,
        mut level_certs: HashSet<u64>,
        out: &mut Vec<Pattern>,
        truncation: &mut Option<StopReason>,
    ) -> bool {
        let budget = self.cfg.budget.as_ref();
        let min_support = self.cfg.min_support;
        let mut level = 1usize;
        while !frontier.is_empty() {
            if self.cfg.max_edges.is_some_and(|m| level >= m) {
                break;
            }
            if let Some(reason) = control::check_start(budget) {
                truncation.get_or_insert(reason);
                break;
            }
            level += 1;

            // Generate: children + certificates, one budget unit per
            // parent (certificate refinement charges one step per round,
            // so truncation stays deterministic at any thread count).
            let per_parent: Vec<ParentCertExtensions> = par_map(ctx.threads, &frontier, |parent| {
                if let Some(reason) = control::check_start(budget) {
                    return (Vec::new(), Some(reason));
                }
                let mut meter = Meter::new(budget);
                let mut exts = Vec::new();
                let children = one_edge_extensions(
                    &parent.graph,
                    &parent.tids,
                    &ctx.f1_tids,
                    &ctx.edge_labels,
                    &ctx.vertex_labels,
                    min_support,
                );
                for child in children {
                    match refine_metered(&child, &mut meter) {
                        Some(r) => exts.push((r.certificate.0, child)),
                        None => break,
                    }
                }
                (exts, meter.stop_reason())
            });

            // Dedup into isomorphism classes, in deterministic parent /
            // generation order. Certificate buckets keep the exact check
            // to same-bucket representatives; each duplicate resolved here
            // is one canonicalization saved.
            let mut dedup_meter = Meter::new(budget);
            let mut classes: Vec<CertCandidate> = Vec::new();
            let mut by_cert: HashMap<u64, Vec<usize>> = HashMap::new();
            for (parent, (exts, reason)) in frontier.iter().zip(per_parent) {
                if truncation.is_none() {
                    *truncation = reason;
                }
                for (cert, child) in exts {
                    let bucket = by_cert.entry(cert).or_default();
                    match bucket
                        .iter()
                        .find(|&&i| are_isomorphic(&classes[i].graph, &child))
                    {
                        Some(&i) => {
                            dedup_meter.note_cert_hit();
                            classes[i].tids = intersect_sorted(&classes[i].tids, &parent.tids);
                        }
                        None => {
                            bucket.push(classes.len());
                            classes.push(CertCandidate {
                                cert,
                                graph: child,
                                tids: parent.tids.clone(),
                            });
                        }
                    }
                }
            }
            drop(dedup_meter);

            // Prune + count, one budget unit per class, in class order.
            let prev_certs = std::mem::take(&mut level_certs);
            let counted: Vec<(Option<Vec<u32>>, Option<StopReason>)> =
                par_map(ctx.threads, &classes, |cand| {
                    if let Some(reason) = control::check_start(budget) {
                        return (None, Some(reason));
                    }
                    let mut meter = Meter::new(budget);
                    if cand.tids.len() < min_support {
                        return (None, None);
                    }
                    if !subpatterns_all_frequent_certs(&cand.graph, &prev_certs, &mut meter) {
                        return (None, meter.stop_reason());
                    }
                    let gids = count_support(
                        ctx.targets,
                        &cand.graph,
                        &cand.tids,
                        min_support,
                        &mut meter,
                    );
                    (gids, meter.stop_reason())
                });

            // Canonicalize the survivors — the only min_dfs_code calls in
            // the whole level — one budget unit per survivor.
            let survivors: Vec<(usize, Vec<u32>)> = classes
                .iter()
                .enumerate()
                .zip(counted)
                .filter_map(|((i, _), (gids, reason))| {
                    if truncation.is_none() {
                        *truncation = reason;
                    }
                    gids.map(|g| (i, g))
                })
                .collect();
            let coded: Vec<(Option<DfsCode>, Option<StopReason>)> =
                par_map(ctx.threads, &survivors, |&(i, _)| {
                    if let Some(reason) = control::check_start(budget) {
                        return (None, Some(reason));
                    }
                    let mut meter = Meter::new(budget);
                    if !meter.tick() {
                        return (None, meter.stop_reason());
                    }
                    meter.note_canon();
                    (Some(min_dfs_code(&classes[i].graph)), None)
                });

            // Emit sorted by code.
            let mut emit: Vec<(DfsCode, usize, Vec<u32>)> = survivors
                .into_iter()
                .zip(coded)
                .filter_map(|((i, gids), (code, reason))| {
                    if truncation.is_none() {
                        *truncation = reason;
                    }
                    code.map(|c| (c, i, gids))
                })
                .collect();
            emit.sort_by(|a, b| {
                a.0.edges()
                    .iter()
                    .map(dfs_edge_key)
                    .cmp(b.0.edges().iter().map(dfs_edge_key))
            });
            let mut next_frontier: Vec<Candidate> = Vec::with_capacity(emit.len());
            for (code, i, gids) in emit {
                let class = &classes[i];
                out.push(Pattern {
                    code,
                    graph: class.graph.clone(),
                    support: gids.len(),
                    gids: gids.clone(),
                });
                level_certs.insert(class.cert);
                next_frontier.push(Candidate {
                    graph: class.graph.clone(),
                    tids: gids,
                });
                if self.reached_cap(out) {
                    return true;
                }
            }
            frontier = next_frontier;
        }
        false
    }

    /// Mine, then keep only closed patterns.
    pub fn mine_closed(&self, db: &GraphDb) -> Vec<Pattern> {
        graphsig_gspan::filter_closed(self.mine(db))
    }

    /// Mine, then keep only maximal patterns (`MaximalFSM` of Algorithm 2).
    pub fn mine_maximal(&self, db: &GraphDb) -> Vec<Pattern> {
        graphsig_gspan::filter_maximal(self.mine(db))
    }

    fn reached_cap(&self, out: &[Pattern]) -> bool {
        self.cfg.max_patterns.is_some_and(|m| out.len() >= m)
    }
}

/// Count `pattern`'s support over the candidate transactions `tids`, using
/// one reusable matcher per candidate (the match plan is built once, and
/// the scratch buffers are shared across transactions) against the
/// precompiled targets, read by tid. Returns the gids containing the
/// pattern, or `None` as soon as the matches found so far plus *all* remaining
/// unchecked transactions cannot reach `min_support` — the remaining-count
/// cutoff skips the unreachable tail entirely.
///
/// Every candidate trial is charged to `meter` as matcher work
/// ([`Meter::consume_match`]); when the allowance runs out mid-count (or a
/// single match comes back [`MatchOutcome::Indeterminate`]) the candidate
/// is conservatively reported unsupported and the meter records the
/// truncation.
fn count_support(
    targets: &[&CompiledGraph],
    pattern: &Graph,
    tids: &[u32],
    min_support: usize,
    meter: &mut Meter<'_>,
) -> Option<Vec<u32>> {
    let mut matcher = MultiMatcher::new(pattern);
    let mut gids: Vec<u32> = Vec::new();
    for (i, &gid) in tids.iter().enumerate() {
        if gids.len() + (tids.len() - i) < min_support {
            return None;
        }
        let (outcome, used) =
            matcher.exists_in_counted_compiled(targets[gid as usize], meter.remaining_steps());
        let alive = meter.consume_match(used);
        match outcome {
            MatchOutcome::Matched => gids.push(gid),
            MatchOutcome::Unmatched => {}
            MatchOutcome::Indeterminate => {
                // The match hit the unit's step cap: make sure the meter
                // records exhaustion, then give up on this candidate.
                meter.consume(u64::MAX);
                return None;
            }
        }
        if !alive {
            return None;
        }
    }
    if gids.len() >= min_support {
        Some(gids)
    } else {
        None
    }
}

/// Map an optional first-truncation reason to a [`Completion`].
fn completion_of(truncation: Option<StopReason>) -> Completion {
    match truncation {
        Some(reason) => Completion::Truncated(reason),
        None => Completion::Complete,
    }
}

fn dfs_edge_key(e: &graphsig_gspan::DfsEdge) -> (u32, u32, u16, u16, u16) {
    (e.from, e.to, e.from_label, e.edge_label, e.to_label)
}

/// All one-edge extensions of `g` whose new edge can still yield a
/// frequent child: the edge type itself must be frequent, *and* the
/// parent's TID list must share at least `min_support` transactions with
/// the edge type's TID list. The second test (FSG's TID-list pruning) is
/// sound because every graph containing the child contains both the parent
/// and an edge of the new type — so `|tids(parent) ∩ tids(type)|` bounds
/// the child's support from above. Pruning here skips the far more
/// expensive canonical-code computation for hopeless extensions,
/// pendant-vertex attachments and cycle-closing edges alike; the mined
/// output is unchanged (only candidates that could never reach
/// `min_support` are dropped).
fn one_edge_extensions(
    g: &Graph,
    parent_tids: &[u32],
    f1: &HashMap<(u16, u16, u16), Vec<u32>>,
    edge_labels: &[u16],
    vertex_labels: &[u16],
    min_support: usize,
) -> Vec<Graph> {
    let mut exts = Vec::new();
    // Memoize viability per edge type: the answer depends only on the type
    // key and the parent, and the same key recurs for every node carrying
    // the same label, so each TID intersection is paid at most once per
    // parent. Generation order is unchanged (memoization is invisible).
    let mut viable_memo: HashMap<(u16, u16, u16), bool> = HashMap::new();
    let mut viable = |key: (u16, u16, u16)| -> bool {
        *viable_memo.entry(key).or_insert_with(|| {
            f1.get(&key)
                .is_some_and(|tids| intersection_reaches(parent_tids, tids, min_support))
        })
    };
    // Pendant vertex: for every node, every viable (label(u), le, vl) type.
    for u in g.nodes() {
        let lu = g.node_label(u);
        for &vl in vertex_labels {
            for &el in edge_labels {
                if !viable((lu.min(vl), el, lu.max(vl))) {
                    continue;
                }
                let mut b = clone_builder(g);
                let nv = b.add_node(vl);
                b.add_edge(u, nv, el);
                exts.push(b.build());
            }
        }
    }
    // Cycle closure: non-adjacent node pairs.
    for u in g.nodes() {
        for v in (u + 1)..g.node_count() as u32 {
            if g.edge_label_between(u, v).is_some() {
                continue;
            }
            let (lu, lv) = (g.node_label(u), g.node_label(v));
            for &el in edge_labels {
                if !viable((lu.min(lv), el, lu.max(lv))) {
                    continue;
                }
                let mut b = clone_builder(g);
                b.add_edge(u, v, el);
                exts.push(b.build());
            }
        }
    }
    exts
}

/// Does the intersection of two ascending-sorted id lists reach `k`
/// elements? Two-pointer scan with early success, plus an unreachability
/// cutoff once the matches found so far and the shorter remaining tail
/// cannot reach `k`.
fn intersection_reaches(a: &[u32], b: &[u32], k: usize) -> bool {
    if k == 0 {
        return true;
    }
    let (mut i, mut j, mut found) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        if found + (a.len() - i).min(b.len() - j) < k {
            return false;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                found += 1;
                if found >= k {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

fn clone_builder(g: &Graph) -> GraphBuilder {
    let mut b = GraphBuilder::with_capacity(g.node_count() + 1, g.edge_count() + 1);
    for &l in g.node_labels() {
        b.add_node(l);
    }
    for e in g.edges() {
        b.add_edge(e.u, e.v, e.label);
    }
    b
}

/// Downward closure against the previous level's *certificate* set — no
/// canonicalization at all: every connected (k-1)-edge subgraph obtained
/// by deleting one edge must be present. The check is one-sided and that
/// is exactly what apriori needs: a certificate absent from `prev` proves the
/// subpattern is not isomorphic to any frequent (k-1)-pattern, so pruning
/// is sound; a colliding certificate of an *infrequent* subpattern merely
/// fails to prune, and exact support counting rejects the candidate
/// anyway (its support is bounded by the infrequent subpattern's).
/// Refinement charges the meter per round; an exhausted meter
/// conservatively reports "not all frequent".
fn subpatterns_all_frequent_certs(g: &Graph, prev: &HashSet<u64>, meter: &mut Meter<'_>) -> bool {
    for skip in 0..g.edge_count() {
        if !meter.tick() {
            return false;
        }
        if let Some(sub) = delete_edge(g, skip) {
            if !sub.is_connected() {
                continue; // not a pattern; imposes no constraint
            }
            let Some(r) = refine_metered(&sub, meter) else {
                return false;
            };
            meter.note_cert_hit();
            if !prev.contains(&r.certificate.0) {
                return false;
            }
        }
    }
    true
}

/// `g` minus edge `skip`, dropping endpoints that become isolated. Returns
/// `None` when the result has no edges.
fn delete_edge(g: &Graph, skip: usize) -> Option<Graph> {
    if g.edge_count() <= 1 {
        return None;
    }
    Some(graphsig_graph::remove_edge(g, skip, true).0)
}

/// Intersection of two ascending-sorted id lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::{are_isomorphic, parse_transactions};

    fn tiny_db() -> GraphDb {
        parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 2\nv 0 C\nv 1 N\ne 0 1 s\n",
        )
        .unwrap()
    }

    /// Every graph of `db`, compiled, in gid order.
    fn compile_all(db: &GraphDb) -> Vec<CompiledGraph> {
        db.graphs().iter().map(CompiledGraph::compile).collect()
    }

    /// A single-edge pattern graph `la -le- lb` using interned label ids.
    fn edge_pattern(db: &GraphDb, la: &str, le: &str, lb: &str) -> Graph {
        let mut b = GraphBuilder::new();
        let u = b.add_node(db.labels().node_id(la).unwrap());
        let v = b.add_node(db.labels().node_id(lb).unwrap());
        b.add_edge(u, v, db.labels().edge_id(le).unwrap());
        b.build()
    }

    #[test]
    fn matches_gspan_output() {
        use graphsig_gspan::{GSpan, MinerConfig};
        let db = tiny_db();
        for sup in [1, 2, 3] {
            let mut fsg = Fsg::new(FsgConfig::new(sup)).mine(&db);
            let mut gsp = GSpan::new(MinerConfig::new(sup)).mine(&db);
            let key = |p: &Pattern| p.code.edges().iter().map(dfs_edge_key).collect::<Vec<_>>();
            fsg.sort_by_key(key);
            gsp.sort_by_key(key);
            assert_eq!(fsg.len(), gsp.len(), "support {sup}");
            for (f, g) in fsg.iter().zip(&gsp) {
                assert_eq!(f.code, g.code);
                assert_eq!(f.support, g.support);
                assert_eq!(f.gids, g.gids);
            }
        }
    }

    #[test]
    fn cyclic_patterns_found() {
        let db = parse_transactions(
            "t # 0\nv 0 a\nv 1 a\nv 2 a\ne 0 1 x\ne 1 2 x\ne 0 2 x\n\
             t # 1\nv 0 a\nv 1 a\nv 2 a\nv 3 b\ne 0 1 x\ne 1 2 x\ne 0 2 x\ne 1 3 y\n",
        )
        .unwrap();
        let pats = Fsg::new(FsgConfig::new(2)).mine(&db);
        assert!(pats
            .iter()
            .any(|p| p.graph.edge_count() == 3 && p.graph.node_count() == 3));
    }

    #[test]
    fn max_edges_cap() {
        let pats = Fsg::new(FsgConfig::new(1).with_max_edges(1)).mine(&tiny_db());
        assert!(pats.iter().all(|p| p.graph.edge_count() == 1));
        assert_eq!(pats.len(), 3);
    }

    #[test]
    fn maximal_output() {
        let pats = Fsg::new(FsgConfig::new(2)).mine_maximal(&tiny_db());
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].graph.edge_count(), 2);
    }

    #[test]
    fn no_duplicates() {
        let pats = Fsg::new(FsgConfig::new(1)).mine(&tiny_db());
        for (i, a) in pats.iter().enumerate() {
            for b in &pats[i + 1..] {
                assert!(!are_isomorphic(&a.graph, &b.graph));
            }
        }
    }

    #[test]
    fn parallel_output_identical_to_sequential() {
        let db = tiny_db();
        for sup in [1, 2, 3] {
            let seq = Fsg::new(FsgConfig::new(sup)).mine(&db);
            for threads in [0, 2, 4, 8] {
                let par = Fsg::new(FsgConfig::new(sup).with_threads(threads)).mine(&db);
                assert_eq!(seq.len(), par.len(), "support={sup} threads={threads}");
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.code, b.code, "support={sup} threads={threads}");
                    assert_eq!(a.support, b.support);
                    assert_eq!(a.gids, b.gids);
                }
            }
        }
    }

    #[test]
    fn parallel_respects_max_patterns_cap() {
        let db = tiny_db();
        for cap in 1..=4 {
            let seq = Fsg::new(FsgConfig::new(1).with_max_patterns(cap)).mine(&db);
            let par = Fsg::new(FsgConfig::new(1).with_max_patterns(cap).with_threads(4)).mine(&db);
            assert_eq!(seq.len(), par.len(), "cap={cap}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.code, b.code, "cap={cap}");
                assert_eq!(a.gids, b.gids, "cap={cap}");
            }
        }
    }

    #[test]
    fn budgeted_runs_attribute_match_steps() {
        let db = tiny_db();
        let budget = Budget::unlimited().with_max_steps(1_000_000);
        let out = Fsg::new(FsgConfig::new(1).with_budget(budget.clone())).mine_outcome(&db);
        assert_eq!(out.completion, Completion::Complete);
        assert!(budget.match_steps_spent() > 0);
        assert!(budget.match_steps_spent() <= budget.steps_spent());
    }

    #[test]
    fn certificate_pipeline_canonicalizes_less() {
        // Certificates dedup candidates and check downward closure, so the
        // only canonicalizations are one per emitted pattern; duplicate
        // children and apriori subpatterns are certificate hits.
        let db = tiny_db();
        let budget = Budget::unlimited();
        let pats = Fsg::new(FsgConfig::new(1).with_budget(budget.clone())).mine(&db);
        assert_eq!(budget.canon_calls(), pats.len() as u64);
        assert!(budget.cert_hits() > 0);
    }

    #[test]
    fn exhausted_budget_in_certificate_path_is_well_formed() {
        let db = tiny_db();
        for max_steps in [0u64, 1, 2, 5] {
            let out = Fsg::new(
                FsgConfig::new(1).with_budget(Budget::unlimited().with_max_steps(max_steps)),
            )
            .mine_outcome(&db);
            let Completion::Truncated(reason) = out.completion else {
                panic!("max_steps={max_steps}: expected truncation, got complete");
            };
            assert_eq!(reason, StopReason::StepBudget, "max_steps={max_steps}");
            // Whatever was emitted before the budget ran out is a valid
            // (per-pattern exact) partial result.
            for p in &out.result {
                assert_eq!(p.support, p.gids.len());
            }
        }
    }

    #[test]
    fn prebuilt_index_matches_fresh_mine() {
        let db = tiny_db();
        let index = LabelPairIndex::build(&db);
        let miner = Fsg::new(FsgConfig::new(1));
        let fresh = miner.mine(&db);
        let indexed = miner.mine_indexed(&db, &index);
        assert_eq!(fresh.len(), indexed.len());
        for (a, b) in fresh.iter().zip(&indexed) {
            assert_eq!(a.code, b.code);
            assert_eq!(a.gids, b.gids);
        }
    }

    #[test]
    fn count_support_counts_and_thresholds() {
        let db = tiny_db();
        let compiled = compile_all(&db);
        let targets: Vec<&CompiledGraph> = compiled.iter().collect();
        let all: Vec<u32> = (0..db.graphs().len() as u32).collect();
        let cc = edge_pattern(&db, "C", "s", "C");
        let mut m = Meter::unbudgeted();
        assert_eq!(
            count_support(&targets, &cc, &all, 1, &mut m),
            Some(vec![0, 1])
        );
        assert_eq!(
            count_support(&targets, &cc, &all, 2, &mut m),
            Some(vec![0, 1])
        );
        // Support 2 < 3: below threshold.
        assert_eq!(count_support(&targets, &cc, &all, 3, &mut m), None);
        let cn = edge_pattern(&db, "C", "s", "N");
        assert_eq!(count_support(&targets, &cn, &all, 1, &mut m), Some(vec![2]));
    }

    #[test]
    fn count_support_early_exit_skips_unreachable_tail() {
        let db = tiny_db();
        let compiled = compile_all(&db);
        let targets: Vec<&CompiledGraph> = compiled.iter().collect();
        // C-N occurs only in graph 2. With min_support 2 over TIDs
        // [0, 1, 999]: after misses on 0 and 1 at most one transaction is
        // left, so the cutoff must return before dereferencing the bogus
        // trailing id 999 (which would panic if checked).
        let cn = edge_pattern(&db, "C", "s", "N");
        let mut m = Meter::unbudgeted();
        assert_eq!(count_support(&targets, &cn, &[0, 1, 999], 2, &mut m), None);
    }

    #[test]
    fn count_support_under_exhausted_meter_is_conservative() {
        let db = tiny_db();
        let compiled = compile_all(&db);
        let targets: Vec<&CompiledGraph> = compiled.iter().collect();
        let all: Vec<u32> = (0..db.graphs().len() as u32).collect();
        let cc = edge_pattern(&db, "C", "s", "C");
        let budget = Budget::unlimited().with_max_steps(0);
        let mut m = budget.meter();
        assert_eq!(count_support(&targets, &cc, &all, 1, &mut m), None);
        assert_eq!(m.stop_reason(), Some(StopReason::StepBudget));
    }

    #[test]
    fn tid_prefilter_reaches_thresholds() {
        assert!(intersection_reaches(&[1, 3, 5, 7], &[3, 4, 5], 2));
        assert!(!intersection_reaches(&[1, 3, 5, 7], &[3, 4, 5], 3));
        assert!(intersection_reaches(&[], &[], 0));
        assert!(!intersection_reaches(&[1, 2], &[3, 4], 1));
        // Unreachability cutoff: disjoint long vs short lists.
        assert!(!intersection_reaches(
            &(0..100).collect::<Vec<_>>(),
            &[200],
            2
        ));
    }

    #[test]
    fn delete_edge_drops_isolated_endpoint() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(2);
        b.add_edge(n0, n1, 0);
        b.add_edge(n1, n2, 0);
        let g = b.build();
        let sub = delete_edge(&g, 1).unwrap();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn intersect_sorted_basic() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[3, 4, 5]), vec![3, 5]);
        assert!(intersect_sorted(&[1, 2], &[3]).is_empty());
        assert!(intersect_sorted(&[], &[1]).is_empty());
    }

    #[test]
    fn empty_db() {
        assert!(Fsg::new(FsgConfig::new(1)).mine(&GraphDb::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_support_rejected() {
        Fsg::new(FsgConfig::new(0));
    }

    #[test]
    fn unbudgeted_outcome_is_complete_and_matches_mine() {
        let db = tiny_db();
        let miner = Fsg::new(FsgConfig::new(1));
        let out = miner.mine_outcome(&db);
        assert_eq!(out.completion, Completion::Complete);
        assert_eq!(out.result.len(), miner.mine(&db).len());
    }

    #[test]
    fn pattern_cap_reports_truncation() {
        let db = tiny_db();
        let out = Fsg::new(FsgConfig::new(1).with_max_patterns(2)).mine_outcome(&db);
        assert_eq!(out.result.len(), 2);
        assert_eq!(
            out.completion,
            Completion::Truncated(StopReason::PatternCap)
        );
    }

    #[test]
    fn step_budget_truncation_is_identical_across_thread_counts() {
        let db = tiny_db();
        for max_steps in [0u64, 1, 2, 5, 100] {
            let run = |threads: usize| {
                Fsg::new(
                    FsgConfig::new(1)
                        .with_threads(threads)
                        .with_budget(Budget::unlimited().with_max_steps(max_steps)),
                )
                .mine_outcome(&db)
            };
            let seq = run(1);
            for threads in [2, 4, 8] {
                let par = run(threads);
                assert_eq!(
                    seq.completion, par.completion,
                    "max_steps={max_steps} threads={threads}"
                );
                assert_eq!(seq.result.len(), par.result.len());
                for (a, b) in seq.result.iter().zip(&par.result) {
                    assert_eq!(a.code, b.code, "max_steps={max_steps} threads={threads}");
                    assert_eq!(a.gids, b.gids);
                }
            }
        }
        // Level 1 comes from the index, so single edges survive a zero
        // allowance, but every deeper level is truncated — and reported.
        let zero = Fsg::new(FsgConfig::new(1).with_budget(Budget::unlimited().with_max_steps(0)))
            .mine_outcome(&db);
        assert!(zero.result.iter().all(|p| p.graph.edge_count() == 1));
        assert_eq!(
            zero.completion,
            Completion::Truncated(StopReason::StepBudget)
        );
    }

    #[test]
    fn expired_deadline_yields_truncated_outcome() {
        let db = tiny_db();
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let out = Fsg::new(FsgConfig::new(1).with_budget(budget)).mine_outcome(&db);
        assert!(out.result.is_empty());
        assert_eq!(out.completion, Completion::Truncated(StopReason::Deadline));
    }
}
