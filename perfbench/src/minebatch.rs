//! mine-batch: one-shot `graphsig mine` runs over a batch of seeded
//! 1000-molecule databases, each at `nproc` threads and at 1 thread.
//!
//! Every mine runs in a fresh child process of this binary, as each
//! `graphsig mine` invocation does: read and parse the transaction file,
//! `GraphSig::mine_outcome`, `render_subgraphs`. No server, cache,
//! coalescing or store is involved, so every layer of Algorithm 2 runs
//! cold.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use graphsig_core::{render_subgraphs, GraphSig};
use graphsig_graph::parse_transactions;

use crate::data::{self, MINE_BATCH_CFG, MINE_BATCH_MOLECULES, MINE_BATCH_NOMINAL_DB_S};
use crate::trace::{self, LayerReport, Tracer};
use crate::util::{self, median, percentile, secs, Metric, RunResult, WorkDir};

/// What one child mine reported.
struct ChildMine {
    /// Spawn to the input parsed (s).
    ready_s: f64,
    /// Spawn to exit (s): the latency a user of the CLI sees.
    latency_s: f64,
    /// Read + parse inside the child (s).
    parse_s: f64,
    /// Read → parse → mine → render inside the child (s).
    mine_s: f64,
    rss_mib: f64,
    complete: bool,
    bytes: Vec<u8>,
}

/// Child side: `--child mine <input> <threads> <output>`.
pub fn child(args: &[String]) -> Result<(), String> {
    let t0 = Instant::now();
    let [input, threads, output] = args else {
        return Err("usage: --child mine <input> <threads> <output>".into());
    };
    let threads: usize = threads
        .parse()
        .map_err(|_| format!("bad threads {threads}"))?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let db = parse_transactions(&text).map_err(|e| format!("{input}: {e}"))?;
    let parse_s = util::secs(t0);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    let outcome = GraphSig::new(MINE_BATCH_CFG.graphsig(threads)).mine_outcome(&db);
    let rendered = render_subgraphs(&db, &outcome.result, usize::MAX);
    let mine_s = util::secs(t0);
    std::fs::write(output, rendered).map_err(|e| format!("cannot write {output}: {e}"))?;
    let rss = util::vm_hwm_mib(std::process::id())?;
    writeln!(
        stdout,
        "done {parse_s} {mine_s} {rss} {}",
        outcome.completion.is_complete()
    )
    .and_then(|()| stdout.flush())
    .map_err(|e| e.to_string())
}

/// Run one child mine of `input` at `threads`.
fn run_child(work: &WorkDir, input: &str, threads: usize, tag: &str) -> Result<ChildMine, String> {
    let output = work.join(&format!("out-{tag}.txt"));
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let t0 = Instant::now();
    let mut proc = Command::new(exe)
        .args(["--child", "mine", input, &threads.to_string()])
        .arg(&output)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn a mine child: {e}"))?;
    let mut lines = BufReader::new(proc.stdout.take().expect("stdout is piped")).lines();
    let ready = lines.next();
    let ready_s = secs(t0);
    let done = lines.next();
    let status = proc.wait().map_err(|e| format!("mine child: {e}"))?;
    let latency_s = secs(t0);
    if !status.success() || !matches!(ready, Some(Ok(ref l)) if l == "ready") {
        return Err(format!("mine child {tag} failed: {status}"));
    }
    let done = done
        .and_then(Result::ok)
        .ok_or_else(|| format!("mine child {tag} reported nothing"))?;
    let f: Vec<&str> = done.split_whitespace().collect();
    let num = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("mine child {tag}: bad report '{done}'"))
    };
    let bytes =
        std::fs::read(&output).map_err(|e| format!("cannot read {}: {e}", output.display()))?;
    Ok(ChildMine {
        ready_s,
        latency_s,
        parse_s: num(1)?,
        mine_s: num(2)?,
        rss_mib: num(3)?,
        complete: f.get(4) == Some(&"true"),
        bytes,
    })
}

/// Number of databases a run of `seconds` mines: fixed work, so both
/// sides of a comparison mine the same inputs.
fn databases(seconds: u64) -> usize {
    ((seconds as f64 / MINE_BATCH_NOMINAL_DB_S).round() as usize).max(2)
}

fn database_text(seed: u64, i: usize) -> String {
    let db_seed = util::sub_seed(seed, data::STREAM_MINE_DB * 1000 + i as u64);
    data::molecules_text(MINE_BATCH_MOLECULES, db_seed)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64) -> Result<RunResult, String> {
    let nproc = util::nproc();
    let work = WorkDir::create("mine-batch")?;
    let mut report = Vec::new();
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, 0u64);
    let mut multi: Vec<ChildMine> = Vec::new();
    let mut single: Vec<ChildMine> = Vec::new();
    let mut first_bytes: Vec<u8> = Vec::new();
    let mut input_bytes = 0usize;
    let k = databases(seconds);
    for i in 0..k {
        let text = database_text(seed, i);
        input_bytes += text.len();
        let path = work.join(&format!("db{i}.txt"));
        std::fs::write(&path, &text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let path = path.to_string_lossy().into_owned();
        let a = run_child(&work, &path, nproc, &format!("{i}-n"))?;
        let b = run_child(&work, &path, 1, &format!("{i}-1"))?;
        attempted += 2;
        for m in [&a, &b] {
            if !m.complete {
                failed += 1;
                report.push(format!("db {i}: mine truncated (pattern cap)"));
            }
        }
        if a.bytes != b.bytes {
            mismatches += 1;
            failed += 1;
            report.push(format!(
                "db {i}: output at {nproc} threads differs from 1 thread"
            ));
        }
        report.push(format!(
            "db {i}: {} input bytes, mine {:.3} s at {nproc} threads, {:.3} s at 1 thread, {} output bytes",
            text.len(),
            a.mine_s,
            b.mine_s,
            a.bytes.len()
        ));
        if i == 0 {
            first_bytes = a.bytes.clone();
        }
        multi.push(a);
        single.push(b);
    }
    // One more iteration of the first database: the output must repeat.
    let again = run_child(
        &work,
        &work.join("db0.txt").to_string_lossy(),
        nproc,
        "0-again",
    )?;
    attempted += 1;
    if again.bytes != first_bytes {
        mismatches += 1;
        failed += 1;
        report.push("db 0: output differs between two iterations".into());
    }
    if !again.complete {
        failed += 1;
    }
    multi.push(again);

    let all: Vec<&ChildMine> = multi.iter().chain(&single).collect();
    let lat_ms: Vec<f64> = multi.iter().map(|m| m.latency_s * 1e3).collect();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&all.iter().map(|m| m.ready_s).collect::<Vec<_>>()),
            unit: "s",
        },
        Metric {
            name: "mine_s",
            value: median(&multi.iter().map(|m| m.mine_s).collect::<Vec<_>>()),
            unit: "s",
        },
        Metric {
            name: "mine_1t_s",
            value: median(&single.iter().map(|m| m.mine_s).collect::<Vec<_>>()),
            unit: "s",
        },
        Metric {
            name: "p50_ms",
            value: percentile(&lat_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "p90_ms",
            value: percentile(&lat_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "sat_rps",
            value: multi.len() as f64 / multi.iter().map(|m| m.latency_s).sum::<f64>(),
            unit: "req/s",
        },
        Metric {
            name: "ingest_ms",
            value: median(&all.iter().map(|m| m.parse_s * 1e3).collect::<Vec<_>>()),
            unit: "ms",
        },
        Metric {
            name: "rss_mb",
            value: all.iter().map(|m| m.rss_mib).fold(0.0, f64::max),
            unit: "MiB",
        },
    ];
    report.push(format!(
        "traffic: {k} databases x {MINE_BATCH_MOLECULES} molecules, {input_bytes} input bytes, \
         {} mines at {nproc} threads, {} at 1 thread; p50/p90 over {} invocations",
        multi.len(),
        single.len(),
        lat_ms.len()
    ));
    report.push(format!(
        "fail_frac = {} ratio",
        util::ratio(failed as f64, attempted as f64)
    ));
    report.push("gen.late_ms: p99 0 max 0 (no request generator in this workload)".into());
    Ok(RunResult {
        correct: mismatches == 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The traced run: per-layer metrics from the traced assembly on the first
/// database, at `nproc` threads and at 1 thread.
pub fn run_traced(seed: u64) -> Result<RunResult, String> {
    let nproc = util::nproc();
    let text = database_text(seed, 0);
    let mut report = Vec::new();
    // The first in-process mine also pays for growing the heap; the second
    // is the untraced reference the traced one is compared with.
    crate::oracle::mine_oneshot(&text, &MINE_BATCH_CFG.graphsig(nproc), false)?;
    let reference = crate::oracle::mine_oneshot(&text, &MINE_BATCH_CFG.graphsig(nproc), false)?;
    let tr = Tracer::new();
    let multi = trace::traced_mine(&tr, 1, &text, &MINE_BATCH_CFG.graphsig(nproc))?;
    let single = trace::traced_mine(&tr, 2, &text, &MINE_BATCH_CFG.graphsig(1))?;
    let mut mismatches = 0;
    for (t, threads) in [(&multi, nproc), (&single, 1)] {
        if t.bytes != reference.bytes {
            mismatches += 1;
            report.push(format!(
                "traced assembly at {threads} threads differs from GraphSig::mine_outcome + render_subgraphs"
            ));
        }
    }
    let mut diffs = trace::ledger_diff(&multi.counts.ledger(), &single.counts.ledger());
    diffs.extend(trace::ledger_check(
        "mine-batch",
        seed,
        &multi.counts.ledger(),
    )?);
    let self_sum = LayerReport::self_sum_ratio(&tr, &single);
    let spans = tr.spans();
    let traced_s = (spans[multi.root].end - spans[multi.root].start) as f64 / 1e9;
    let overhead = traced_s / reference.seconds - 1.0;
    report.push(format!(
        "trace: untraced {:.3} s, traced {traced_s:.3} s at {nproc} threads (overhead {:+.1}%); \
         layer self times at 1 thread sum to {:.1}% of end to end",
        reference.seconds,
        overhead * 100.0,
        self_sum * 100.0
    ));
    let self_ok = (self_sum - 1.0).abs() <= 0.05;
    if !self_ok {
        report.push("trace: layer self times miss the end-to-end time by more than 5%".into());
    }
    for (k, v) in multi.counts.ledger() {
        report.push(format!("ledger {k} = {v}"));
    }
    for d in &diffs {
        report.push(format!("ledger differs: {d}"));
    }
    trace::write_spans(
        &tr,
        &std::path::Path::new(".perfbench-work")
            .join("traces")
            .join(format!("mine-batch-seed{seed}.txt")),
    )?;
    let layers = LayerReport::new(&tr, &[(&multi, 1.0)]);
    let mut metrics = layers.metrics(overhead, self_sum);
    metrics.extend(crate::serve::idle_server_metrics());
    let failed = [&multi, &single]
        .iter()
        .filter(|t| !t.completion.is_complete())
        .count() as u64;
    Ok(RunResult {
        correct: mismatches == 0 && self_ok,
        attempted: 3,
        failed,
        metrics,
        report,
    })
}
