//! Spans around the benchmark's own calls into the program, and the traced
//! assembly of Algorithm 2 they wrap.
//!
//! Tracing lives entirely in the benchmark: [`traced_mine`] rebuilds
//! `GraphSig::mine_outcome` + `render_subgraphs` from the public functions
//! of each module and records a span around every call, so its rendered
//! bytes must equal the library's (checked by the callers).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use graphsig_core::{
    compute_all_window_vectors_governed, group_by_label, par_map, render_subgraphs,
    resolve_threads, Budget, Completion, FsmBackend, GraphSigConfig, GraphSigResult,
    SignificantSubgraph, StopReason,
};
use graphsig_features::FeatureSet;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_fvmine::{FvMineConfig, FvMineStats, FvMiner, SignificantVector};
use graphsig_graph::control::Meter;
use graphsig_graph::{cut_graph, parse_transactions, Graph, GraphDb, NodeLabel};
use graphsig_gspan::{filter_maximal_with, DfsCode};

use crate::util::{cpu_seconds, ratio, Metric};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Request the span belongs to (one traced mine = one request).
    pub req: u32,
}

/// In-memory span recorder, shared by the worker threads of a traced call.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`exit`](Self::exit) and children.
    pub fn enter(&self, name: &'static str, parent: Option<usize>, req: u32) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("a traced task panicked");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Close span `id`.
    pub fn exit(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("a traced task panicked")[id].end = end;
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: usize,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, Some(parent), req);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced task panicked").clone()
    }
}

/// Per-name aggregates over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Sum of span durations (s).
    pub total: f64,
    /// Longest single span (s).
    pub max: f64,
    /// Sum of self times (s): duration minus the part covered by children.
    pub self_time: f64,
}

/// Aggregate the spans of request `req` by name, with self times.
pub fn layer_times(spans: &[Span], req: u32) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.req == req) {
        let dur = (s.end - s.start) as f64 / 1e9;
        // Union of the children's intervals clipped to this span; children
        // on parallel workers may overlap one another.
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name).or_default();
        e.total += dur;
        e.max = e.max.max(dur);
        e.self_time += dur - covered as f64 / 1e9;
    }
    out
}

/// Counts of one traced mine. The ones in [`Counts::ledger`] must repeat
/// exactly for a fixed input.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub vectors: u64,
    pub sig_vectors: u64,
    pub states_visited: u64,
    pub sets: u64,
    pub sets_with_patterns: u64,
    pub patterns: u64,
    pub maximal_kept: u64,
    pub regions: u64,
    pub match_steps: u64,
    pub canon_calls: u64,
    pub cert_hits: u64,
    pub subgraphs: u64,
    pub render_bytes: u64,
}

impl Counts {
    /// The exact-count ledger entries.
    pub fn ledger(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("features.vectors", self.vectors),
            ("fvmine.sig_vectors", self.sig_vectors),
            ("fsm.sets", self.sets),
            ("fsm.patterns", self.patterns),
            ("iso.match_steps", self.match_steps),
            ("canon.calls", self.canon_calls),
            ("canon.cert_hits", self.cert_hits),
            ("subgraphs", self.subgraphs),
            ("render_bytes", self.render_bytes),
        ]
    }

    pub fn add(&mut self, o: &Counts) {
        self.vectors += o.vectors;
        self.sig_vectors += o.sig_vectors;
        self.states_visited += o.states_visited;
        self.sets += o.sets;
        self.sets_with_patterns += o.sets_with_patterns;
        self.patterns += o.patterns;
        self.maximal_kept += o.maximal_kept;
        self.regions += o.regions;
        self.match_steps += o.match_steps;
        self.canon_calls += o.canon_calls;
        self.cert_hits += o.cert_hits;
        self.subgraphs += o.subgraphs;
        self.render_bytes += o.render_bytes;
    }
}

/// The outcome of one traced mine.
pub struct Traced {
    pub bytes: String,
    pub completion: Completion,
    pub counts: Counts,
    /// Span id of the whole mine (parse to render).
    pub root: usize,
    /// CPU seconds the process spent inside the window pass.
    pub rwr_cpu_s: f64,
    pub threads: usize,
}

/// A significant subgraph minus its canonical code, which serves as the
/// dedup key (the library's own merge does the same).
struct Candidate {
    graph: Graph,
    source_vector: Vec<u8>,
    vector_pvalue: f64,
    vector_support: usize,
    group_label: NodeLabel,
    set_size: usize,
    fsm_support: usize,
    gids: Vec<u32>,
}

/// What one region set produced.
#[derive(Default)]
struct SetOut {
    mined: bool,
    truncated: bool,
    patterns: u64,
    regions: u64,
    candidates: Vec<(DfsCode, Candidate)>,
}

/// Parse `text` and mine it with `cfg` through the public calls of each
/// layer, recording a span around every call. Renders every subgraph, as
/// `graphsig mine` does without `--top`. The FSG backend is the only one
/// the assembly rebuilds (it is the default).
pub fn traced_mine(
    tr: &Tracer,
    req: u32,
    text: &str,
    cfg: &GraphSigConfig,
) -> Result<Traced, String> {
    if cfg.fsm_backend != FsmBackend::Fsg || cfg.budget.is_some() {
        return Err("the traced assembly rebuilds the unbudgeted FSG pipeline only".into());
    }
    // An unlimited budget changes no result; it makes the matcher, canon
    // and certificate counters flow.
    let budget = Budget::unlimited();
    let threads = resolve_threads(cfg.threads);
    let root = tr.enter("mine", None, req);

    let db = tr
        .scope("io.parse", root, req, || parse_transactions(text))
        .map_err(|e| format!("benchmark input does not parse: {e}"))?;
    let fs = tr.scope("features.select", root, req, || {
        FeatureSet::for_chemical(&db, cfg.top_k_atoms)
    });
    let cpu0 = cpu_seconds();
    let (all_vectors, window_stop) = tr.scope("features.rwr", root, req, || {
        compute_all_window_vectors_governed(
            &db,
            &fs,
            &cfg.rwr,
            cfg.window,
            cfg.threads,
            Some(&budget),
        )
    });
    let rwr_cpu_s = cpu_seconds() - cpu0;
    let mut counts = Counts {
        vectors: all_vectors.iter().map(|gv| gv.vectors.len() as u64).sum(),
        ..Counts::default()
    };
    let groups = tr.scope("core.group", root, req, || group_by_label(&all_vectors));

    // Phase 2: FVMine per label group.
    type WorkItem = (NodeLabel, SignificantVector, Vec<(u32, u32)>);
    let phase2 = tr.enter("par.fvmine", Some(root), req);
    let per_group: Vec<(Vec<WorkItem>, FvMineStats)> = par_map(cfg.threads, &groups, |group| {
        let min_support = cfg.fvmine_support(group.vectors.len());
        if group.vectors.len() < min_support {
            return (Vec::new(), FvMineStats::default());
        }
        let span = tr.enter("fvmine.group", Some(phase2), req);
        let mut meter = Meter::new(Some(&budget));
        let (found, stats) = FvMiner::new(FvMineConfig::new(min_support, cfg.max_pvalue))
            .mine_with_stats_metered(&group.vectors, &mut meter);
        drop(meter);
        tr.exit(span);
        let items = found
            .into_iter()
            .map(|sv| {
                let nodes = sv
                    .support_ids
                    .iter()
                    .map(|&i| group.members[i as usize])
                    .collect();
                (group.label, sv, nodes)
            })
            .collect();
        (items, stats)
    });
    let mut work: Vec<WorkItem> = Vec::new();
    for (items, stats) in per_group {
        counts.states_visited += stats.states_visited as u64;
        work.extend(items);
    }
    tr.exit(phase2);
    counts.sig_vectors = work.len() as u64;

    // Phase 3: CutGraph + maximal FSM per region set.
    let inner_threads = (threads / work.len().max(1)).max(1);
    let cap = cfg.max_patterns_per_set;
    let phase3 = tr.enter("par.fsm", Some(root), req);
    let outcomes: Vec<SetOut> = par_map(cfg.threads, &work, |(label, sv, nodes)| {
        if nodes.len() < 2 {
            return SetOut::default();
        }
        let cut = tr.enter("cutgraph", Some(phase3), req);
        let mut regions = GraphDb::from_parts(Vec::new(), db.labels().clone());
        let mut sources: Vec<u32> = Vec::with_capacity(nodes.len());
        for &(gid, node) in nodes {
            regions.push(cut_graph(db.graph(gid as usize), node, cfg.radius).0);
            sources.push(gid);
        }
        tr.exit(cut);
        let support = cfg.fsm_support(regions.len());
        let mut out = SetOut {
            mined: true,
            regions: regions.len() as u64,
            ..SetOut::default()
        };
        if regions.len() < support {
            return out;
        }
        let fsm = tr.enter("fsm.set", Some(phase3), req);
        let all = Fsg::new(
            FsgConfig::new(support)
                .with_max_edges(cfg.max_pattern_edges)
                .with_max_patterns(cap)
                .with_matcher(cfg.matcher)
                .with_threads(inner_threads)
                .with_budget(budget.clone()),
        )
        .mine_outcome(&regions)
        .result;
        tr.exit(fsm);
        out.truncated = all.len() >= cap;
        out.patterns = all.len() as u64;
        let maximal = tr.scope("fsm.maximal", phase3, req, || {
            filter_maximal_with(all, cfg.matcher)
        });
        out.candidates = maximal
            .into_iter()
            .map(|p| {
                let mut gids: Vec<u32> = p.gids.iter().map(|&r| sources[r as usize]).collect();
                gids.sort_unstable();
                gids.dedup();
                let cand = Candidate {
                    graph: p.graph,
                    source_vector: sv.vector.clone(),
                    vector_pvalue: sv.p_value,
                    vector_support: sv.support(),
                    group_label: *label,
                    set_size: nodes.len(),
                    fsm_support: p.support,
                    gids,
                };
                (p.code, cand)
            })
            .collect();
        out
    });
    tr.exit(phase3);

    // Dedup in item order (most significant evidence per canonical code),
    // then the library's final order.
    let dedup = tr.enter("core.dedup", Some(root), req);
    let mut truncated_sets = 0;
    let mut best: HashMap<DfsCode, Candidate> = HashMap::new();
    for out in outcomes {
        if !out.mined {
            continue;
        }
        counts.sets += 1;
        counts.regions += out.regions;
        counts.patterns += out.patterns;
        counts.maximal_kept += out.candidates.len() as u64;
        truncated_sets += usize::from(out.truncated);
        if !out.candidates.is_empty() {
            counts.sets_with_patterns += 1;
        }
        for (code, cand) in out.candidates {
            match best.entry(code) {
                Entry::Occupied(mut o) => {
                    if cand.vector_pvalue < o.get().vector_pvalue {
                        o.insert(cand);
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(cand);
                }
            }
        }
    }
    let code_key = |c: &DfsCode| {
        c.edges()
            .iter()
            .map(|e| (e.from, e.to, e.from_label, e.edge_label, e.to_label))
            .collect::<Vec<_>>()
    };
    let mut decorated: Vec<_> = best
        .into_iter()
        .map(|(code, c)| {
            let key = code_key(&code);
            let sg = SignificantSubgraph {
                graph: c.graph,
                code,
                source_vector: c.source_vector,
                vector_pvalue: c.vector_pvalue,
                vector_support: c.vector_support,
                group_label: c.group_label,
                set_size: c.set_size,
                fsm_support: c.fsm_support,
                gids: c.gids,
            };
            (key, sg)
        })
        .collect();
    decorated.sort_by(|(ka, a), (kb, b)| {
        a.vector_pvalue
            .partial_cmp(&b.vector_pvalue)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.graph.edge_count().cmp(&a.graph.edge_count()))
            .then_with(|| ka.cmp(kb))
    });
    let result = GraphSigResult {
        subgraphs: decorated.into_iter().map(|(_, sg)| sg).collect(),
        profile: Default::default(),
        stats: Default::default(),
    };
    tr.exit(dedup);

    let bytes = tr.scope("core.render", root, req, || {
        render_subgraphs(&db, &result, usize::MAX)
    });
    tr.exit(root);

    counts.match_steps = budget.match_steps_spent();
    counts.canon_calls = budget.canon_calls();
    counts.cert_hits = budget.cert_hits();
    counts.subgraphs = result.subgraphs.len() as u64;
    counts.render_bytes = bytes.len() as u64;
    let mut completion = match window_stop {
        Some(reason) => Completion::Truncated(reason),
        None => Completion::Complete,
    };
    if truncated_sets > 0 {
        completion = completion.merge(Completion::Truncated(StopReason::PatternCap));
    }
    Ok(Traced {
        bytes,
        completion,
        counts,
        root,
        rwr_cpu_s,
        threads,
    })
}

/// Names of the assembly-layer metrics, in output order.
pub const ASSEMBLY_METRICS: [(&str, &str); 35] = [
    ("io.parse_s", "s"),
    ("features.select_s", "s"),
    ("features.rwr_s", "s"),
    ("features.vectors", "count"),
    ("core.group_s", "s"),
    ("fvmine.busy_s", "s"),
    ("fvmine.max_group_s", "s"),
    ("fvmine.sig_vectors", "count"),
    ("fvmine.states_visited", "count"),
    ("fvmine.useful", "ratio"),
    ("cutgraph.busy_s", "s"),
    ("cutgraph.regions", "count"),
    ("fsm.busy_s", "s"),
    ("fsm.max_set_s", "s"),
    ("fsm.sets", "count"),
    ("fsm.yield", "ratio"),
    ("fsm.patterns", "count"),
    ("fsm.maximal_s", "s"),
    ("fsm.maximal_kept", "count"),
    ("iso.match_steps", "count"),
    ("canon.calls", "count"),
    ("canon.cert_hits", "count"),
    ("canon.cert_share", "ratio"),
    ("par.rwr.wall_s", "s"),
    ("par.rwr.idle_s", "s"),
    ("par.fvmine.wall_s", "s"),
    ("par.fvmine.idle_s", "s"),
    ("par.fsm.wall_s", "s"),
    ("par.fsm.idle_s", "s"),
    ("core.dedup_s", "s"),
    ("core.dedup_ratio", "ratio"),
    ("core.render_s", "s"),
    ("core.render_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
];

/// Per-layer values of a set of traced mines, each weighted by `weight`
/// (the number of requests it stands for), averaged per mine.
pub struct LayerReport {
    pub values: BTreeMap<&'static str, f64>,
}

impl LayerReport {
    /// Build from the spans of `mines` (each `(traced, weight)`) recorded
    /// by `tr`.
    pub fn new(tr: &Tracer, mines: &[(&Traced, f64)]) -> Self {
        let spans = tr.spans();
        let total_weight: f64 = mines.iter().map(|(_, w)| w).sum();
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (t, w) in mines {
            let w = w / total_weight;
            let lt = layer_times(&spans, spans[t.root].req);
            let get = |n: &str| lt.get(n).copied().unwrap_or_default();
            let c = &t.counts;
            let threads = t.threads as f64;
            let fvmine_busy = get("fvmine.group").total;
            let fsm_busy = get("fsm.set").total;
            let cut_busy = get("cutgraph").total;
            let maximal = get("fsm.maximal").total;
            let rwr_wall = get("features.rwr").total;
            let per_mine: [(&'static str, f64); 33] = [
                ("io.parse_s", get("io.parse").total),
                ("features.select_s", get("features.select").total),
                ("features.rwr_s", rwr_wall),
                ("features.vectors", c.vectors as f64),
                ("core.group_s", get("core.group").total),
                ("fvmine.busy_s", fvmine_busy),
                ("fvmine.max_group_s", get("fvmine.group").max),
                ("fvmine.sig_vectors", c.sig_vectors as f64),
                ("fvmine.states_visited", c.states_visited as f64),
                (
                    "fvmine.useful",
                    ratio(c.sig_vectors as f64, c.states_visited as f64),
                ),
                ("cutgraph.busy_s", cut_busy),
                ("cutgraph.regions", c.regions as f64),
                ("fsm.busy_s", fsm_busy),
                ("fsm.max_set_s", get("fsm.set").max),
                ("fsm.sets", c.sets as f64),
                (
                    "fsm.yield",
                    ratio(c.sets_with_patterns as f64, c.sets as f64),
                ),
                ("fsm.patterns", c.patterns as f64),
                ("fsm.maximal_s", maximal),
                ("fsm.maximal_kept", c.maximal_kept as f64),
                ("iso.match_steps", c.match_steps as f64),
                ("canon.calls", c.canon_calls as f64),
                ("canon.cert_hits", c.cert_hits as f64),
                (
                    "canon.cert_share",
                    ratio(c.cert_hits as f64, (c.cert_hits + c.canon_calls) as f64),
                ),
                ("par.rwr.wall_s", rwr_wall),
                ("par.rwr.idle_s", threads * rwr_wall - t.rwr_cpu_s),
                ("par.fvmine.wall_s", get("par.fvmine").total),
                (
                    "par.fvmine.idle_s",
                    threads * get("par.fvmine").total - fvmine_busy,
                ),
                ("par.fsm.wall_s", get("par.fsm").total),
                (
                    "par.fsm.idle_s",
                    threads * get("par.fsm").total - (cut_busy + fsm_busy + maximal),
                ),
                ("core.dedup_s", get("core.dedup").total),
                ("core.dedup_ratio", {
                    ratio(c.subgraphs as f64, c.maximal_kept as f64)
                }),
                ("core.render_s", get("core.render").total),
                ("core.render_bytes", c.render_bytes as f64),
            ];
            for (name, v) in per_mine {
                *values.entry(name).or_default() += w * v;
            }
        }
        Self { values }
    }

    /// Sum of the layer self times of traced mine `t` over its end-to-end
    /// time (1.0 = the layers account for all of it).
    pub fn self_sum_ratio(tr: &Tracer, t: &Traced) -> f64 {
        let spans = tr.spans();
        let lt = layer_times(&spans, spans[t.root].req);
        let e2e = lt.get("mine").map_or(0.0, |l| l.total);
        let layers: f64 = lt
            .iter()
            .filter(|(name, _)| **name != "mine")
            .map(|(_, l)| l.self_time)
            .sum();
        ratio(layers, e2e)
    }

    /// Emit the assembly metrics in [`ASSEMBLY_METRICS`] order, with the
    /// two trace-quality figures supplied by the caller.
    pub fn metrics(&self, overhead_ratio: f64, self_sum_ratio: f64) -> Vec<Metric> {
        ASSEMBLY_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: match name {
                    "trace.overhead_ratio" => overhead_ratio,
                    "trace.self_sum_ratio" => self_sum_ratio,
                    _ => self.values.get(name).copied().unwrap_or(0.0),
                },
            })
            .collect()
    }
}

/// Write every span of `tr` as one line each (`name start end parent req`)
/// to `path`, after the run — spans stay in memory until then.
pub fn write_spans(tr: &Tracer, path: &std::path::Path) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::from("# name start_ns end_ns parent req\n");
    for (i, s) in tr.spans().iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i} {} {} {} {parent} {}",
            s.name, s.start, s.end, s.req
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Compare two ledgers; returns the names whose counts differ.
pub fn ledger_diff(a: &[(&'static str, u64)], b: &[(&'static str, u64)]) -> Vec<String> {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, y)| format!("{} {} != {}", x.0, x.1, y.1))
        .collect()
}

/// Record `ledger` for (`workload`, `seed`, this binary) and compare it
/// with the one a previous run of the same left, if any. Returns the
/// differences.
pub fn ledger_check(
    workload: &str,
    seed: u64,
    ledger: &[(&'static str, u64)],
) -> Result<Vec<String>, String> {
    // Keyed by the binary too: another build may legitimately count
    // differently, the same build on the same input may not.
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read the benchmark binary: {e}"))?;
    let build = graphsig_store::crc64(&exe);
    let dir = std::path::Path::new(".perfbench-work").join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}-build{build:016x}.txt"));
    let text: String = ledger.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let mut diffs = Vec::new();
    if let Ok(previous) = std::fs::read_to_string(&path) {
        for (line, (k, v)) in previous.lines().zip(ledger) {
            if line != format!("{k} {v}") {
                diffs.push(format!("{k}: previous run '{line}', this run {v}"));
            }
        }
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..60 (parallel
        // workers) and 70..80: covered = 50 + 10.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 30, 60, Some(0)),
            span("b", 70, 80, Some(0)),
        ];
        let lt = layer_times(&spans, 0);
        assert!((lt["root"].self_time - 40e-9).abs() < 1e-15);
        assert!((lt["a"].total - 60e-9).abs() < 1e-15);
        assert!((lt["a"].max - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn assembly_matches_the_library() {
        let text = graphsig_graph::write_transactions(&graphsig_datagen::aids_like(60, 3).db);
        let cfg = crate::data::MINE_BATCH_CFG.graphsig(2);
        let db = parse_transactions(&text).unwrap();
        let lib = graphsig_core::GraphSig::new(cfg.clone()).mine_outcome(&db);
        let expected = render_subgraphs(&db, &lib.result, usize::MAX);
        let tr = Tracer::new();
        let traced = traced_mine(&tr, 0, &text, &cfg).unwrap();
        assert_eq!(traced.bytes, expected);
        assert_eq!(traced.counts.subgraphs as usize, lib.result.subgraphs.len());
        // On one thread the spans nest without overlap, so the layers'
        // self times can never exceed the end-to-end time.
        let single = traced_mine(&tr, 1, &text, &crate::data::MINE_BATCH_CFG.graphsig(1)).unwrap();
        assert_eq!(single.bytes, expected);
        assert_eq!(single.counts.ledger(), traced.counts.ledger());
        let ratio = LayerReport::self_sum_ratio(&tr, &single);
        assert!(ratio > 0.5 && ratio <= 1.0 + 1e-9, "{ratio}");
    }
}
