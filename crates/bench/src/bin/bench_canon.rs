//! Canonicalization benchmark on the Fig. 9 operating points
//! (frequency-threshold sweep over the AIDS-like generator):
//!
//! * **FSG** — dedup and downward closure through 1-WL certificates,
//!   `min_dfs_code` only on emitted patterns — and **gSpan** — the plain
//!   `is_min` gate at every search node: wall time, canonicalization
//!   calls and certificate hits, with an assert that both miners return
//!   the same pattern set.
//! * **Per-call `min_dfs_code` latency** over the mined pattern graphs,
//!   with automorphism-orbit pruning of starting embeddings on vs. off
//!   (codes asserted equal), plus uniform cycles, pruning's best case.
//!
//! Full mode writes `BENCH_canon.json`. `--smoke` is the CI regression
//! gate: at the Fig. 9 freq=0.07 point it asserts that FSG spends at most
//! 32.0k canonicalization calls and mines the same pattern set as gSpan,
//! so a change that silently reintroduces per-candidate canonicalization
//! fails CI, not just a benchmark trend line.
//!
//! Usage: `bench_canon [--scale f] [--seed u] [--smoke]`

use std::time::{Duration, Instant};

use graphsig_bench::{secs, set_fingerprint, timed, Cli};
use graphsig_datagen::aids_like;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{Budget, Graph, GraphDb, LabelPairIndex};
use graphsig_gspan::{min_dfs_code, min_dfs_code_unpruned, GSpan, MinerConfig, Pattern};

/// Same caps as `bench_baselines`, so the counts are comparable.
const MAX_PATTERNS: usize = 20_000;
const MAX_EDGES: usize = 8;

/// CI gate: canonicalization calls FSG may spend at Fig. 9 freq=0.07
/// (scale 1.0, seed 42). A pipeline that canonicalizes every generated
/// candidate paid ~32k calls here (53k counting the downward-closure
/// subpatterns too); the certificate pipeline canonicalizes only emitted
/// patterns (~0.7k).
const CANON_CALLS_CEILING: u64 = 32_000;

struct Run {
    pats: Vec<Pattern>,
    time: Duration,
    canon_calls: u64,
    cert_hits: u64,
}

/// One mine with an unlimited budget attached, so the counters flow.
fn counted(mine: impl FnOnce(Budget) -> Vec<Pattern>) -> Run {
    let budget = Budget::unlimited();
    let (pats, time) = timed(|| mine(budget.clone()));
    Run {
        pats,
        time,
        canon_calls: budget.canon_calls(),
        cert_hits: budget.cert_hits(),
    }
}

/// Both miners at one threshold; asserts they mine the same pattern set
/// unless the pattern cap cut either short.
fn run_both(freq: f64, db: &GraphDb, support: usize) -> (Run, Run) {
    let index = LabelPairIndex::build(db);
    let fsg = counted(|budget| {
        let cfg = FsgConfig::new(support)
            .with_max_edges(MAX_EDGES)
            .with_max_patterns(MAX_PATTERNS)
            .with_budget(budget);
        Fsg::new(cfg).mine_indexed(db, &index)
    });
    let gsp = counted(|budget| {
        let cfg = MinerConfig::new(support)
            .with_max_edges(MAX_EDGES)
            .with_max_patterns(MAX_PATTERNS)
            .with_budget(budget);
        GSpan::new(cfg).mine_indexed(db, &index)
    });
    if fsg.pats.len() < MAX_PATTERNS && gsp.pats.len() < MAX_PATTERNS {
        assert_eq!(
            set_fingerprint(&fsg.pats),
            set_fingerprint(&gsp.pats),
            "freq={freq}: FSG and gSpan mined different pattern sets"
        );
    }
    (fsg, gsp)
}

/// Mean per-call `min_dfs_code` latency (ns) over `graphs`, pruned vs.
/// unpruned starting embeddings; asserts both agree on every graph.
fn min_code_latency(graphs: &[&Graph]) -> (f64, f64) {
    let reps = (50_000 / graphs.len().max(1)).clamp(30, 1_000);
    // Warmup: agreement check doubles as cache priming.
    for g in graphs {
        assert_eq!(
            min_dfs_code(g),
            min_dfs_code_unpruned(g),
            "pruned min_dfs_code disagrees with reference"
        );
    }
    let mut pruned_ns = 0.0;
    let mut unpruned_ns = 0.0;
    for g in graphs {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(min_dfs_code(g));
        }
        pruned_ns += t.elapsed().as_nanos() as f64 / reps as f64;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(min_dfs_code_unpruned(g));
        }
        unpruned_ns += t.elapsed().as_nanos() as f64 / reps as f64;
    }
    let n = graphs.len().max(1) as f64;
    (pruned_ns / n, unpruned_ns / n)
}

/// Orbit pruning's home turf: uniform label-free cycles, where every
/// starting embedding is automorphic to every other and the unpruned
/// self-projection re-derives the same code 2n times. Returns JSON rows.
fn symmetric_stress() -> Vec<String> {
    use graphsig_graph::GraphBuilder;
    let mut rows = Vec::new();
    for n in [6usize, 8, 10, 12] {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(0)).collect();
        for i in 0..n {
            b.add_edge(nodes[i], nodes[(i + 1) % n], 1);
        }
        let g = b.build();
        let (pruned_ns, unpruned_ns) = min_code_latency(&[&g]);
        println!(
            "uniform {n}-cycle: min_dfs_code {pruned_ns:.0}ns pruned vs {unpruned_ns:.0}ns unpruned ({:.2}x)",
            unpruned_ns / pruned_ns.max(1.0)
        );
        rows.push(format!(
            "    {{ \"graph\": \"uniform_cycle_{n}\", \"min_code_pruned_ns\": {pruned_ns:.0}, \"min_code_unpruned_ns\": {unpruned_ns:.0} }}"
        ));
    }
    rows
}

/// One Fig. 9 point: both miners plus min-code latency. Returns the JSON
/// fragment.
fn run_point(freq: f64, db: &GraphDb, support: usize) -> String {
    let (fsg, gsp) = run_both(freq, db, support);
    let graphs: Vec<&Graph> = fsg.pats.iter().map(|p| &p.graph).collect();
    let (pruned_ns, unpruned_ns) = min_code_latency(&graphs);

    println!(
        "freq={freq:<5} fsg {}s ({} canon, {} cert hits) | gspan {}s ({} canon) | \
         min_dfs_code {:.0}ns pruned vs {:.0}ns unpruned over {} patterns",
        secs(fsg.time),
        fsg.canon_calls,
        fsg.cert_hits,
        secs(gsp.time),
        gsp.canon_calls,
        pruned_ns,
        unpruned_ns,
        graphs.len()
    );

    format!(
        "    {{ \"frequency\": {freq}, \"min_support\": {support}, \"patterns\": {}, \
\"fsg_s\": {}, \"fsg_canon_calls\": {}, \"fsg_cert_hits\": {}, \
\"gspan_s\": {}, \"gspan_canon_calls\": {}, \
\"min_code_pruned_ns\": {:.0}, \"min_code_unpruned_ns\": {:.0}, \
\"same_pattern_set\": true }}",
        fsg.pats.len(),
        secs(fsg.time),
        fsg.canon_calls,
        fsg.cert_hits,
        secs(gsp.time),
        gsp.canon_calls,
        pruned_ns,
        unpruned_ns
    )
}

fn main() {
    let cli = Cli::parse(1.0);
    let n = (800.0 * cli.scale).round() as usize;
    let data = aids_like(n, cli.seed);

    if cli.smoke {
        // CI regression gate at the recorded operating point.
        let freq = 0.07;
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        let (fsg, gsp) = run_both(freq, &data.db, support);
        assert!(
            fsg.canon_calls <= CANON_CALLS_CEILING,
            "smoke: FSG canonicalization count regressed \
             ({} > {CANON_CALLS_CEILING})",
            fsg.canon_calls
        );
        println!(
            "smoke: freq={freq} OK — {} patterns, same set as gSpan, FSG canon calls {} \
             (ceiling {CANON_CALLS_CEILING}), gSpan canon calls {}",
            fsg.pats.len(),
            fsg.canon_calls,
            gsp.canon_calls
        );
        return;
    }

    println!(
        "# bench_canon — {} molecules, Fig. 9 frequency sweep",
        data.len()
    );
    let mut runs = Vec::new();
    for freq in [0.10, 0.07, 0.05] {
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        runs.push(run_point(freq, &data.db, support));
    }

    let symmetric = symmetric_stress();

    let json = format!(
        "{{\n  \"bench\": \"canon\",\n  \"molecules\": {},\n  \"seed\": {},\n  \"cores\": {},\n  \"max_patterns_cap\": {},\n  \"runs\": [\n{}\n  ],\n  \"symmetric_stress\": [\n{}\n  ]\n}}\n",
        data.len(),
        cli.seed,
        graphsig_graph::resolve_threads(0),
        MAX_PATTERNS,
        runs.join(",\n"),
        symmetric.join(",\n")
    );
    std::fs::write("BENCH_canon.json", &json).expect("write BENCH_canon.json");
    println!("wrote BENCH_canon.json");
}
