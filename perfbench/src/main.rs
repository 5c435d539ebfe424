//! GraphSig repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine-batch|serve-query|serve-ingest> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input derives from `--seed`. The
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a separate
//! traced run. Earlier lines are a human-readable report (traffic, failure
//! share, generator lateness, the exact-count ledger). The process exits
//! nonzero when an output differs from its oracle.
//!
//! Scratch files go to `.perfbench-work/` under the current directory;
//! traces and ledgers stay there after the run.

mod data;
mod minebatch;
mod oracle;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["mine-batch", "serve-query", "serve-ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value for {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// Refuse to run when the plan would need more threads or connections
/// than the machine has cores. Mines run with at most `nproc` workers; the
/// serve client uses [`serve::CLIENT_THREADS`] threads and
/// [`serve::CLIENT_CONNECTIONS`] connections.
fn check_parallelism() -> Result<(), String> {
    let nproc = util::nproc();
    if serve::CLIENT_THREADS > nproc || serve::CLIENT_CONNECTIONS > nproc {
        return Err(format!(
            "the client needs {} threads and {} connections, more than the {nproc} cores",
            serve::CLIENT_THREADS,
            serve::CLIENT_CONNECTIONS
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<util::RunResult, String> {
    check_parallelism()?;
    match (args.workload.as_str(), args.trace) {
        ("mine-batch", false) => minebatch::run(args.seed, args.seconds),
        ("mine-batch", true) => minebatch::run_traced(args.seed),
        ("serve-query", trace) => serve::run(args.seed, args.seconds, false, trace),
        ("serve-ingest", trace) => serve::run(args.seed, args.seconds, true, trace),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        let result = match argv.get(1).map(String::as_str) {
            Some("mine") => minebatch::child(&argv[2..]),
            Some("serve") => serve::child(),
            _ => Err("unknown child mode".into()),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&argv).and_then(|args| {
        let nproc = util::nproc();
        println!(
            "# perfbench {} seed {} seconds {} trace {} nproc {nproc}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        run(&args)
    });
    match result {
        Ok(r) => {
            for line in &r.report {
                println!("# {line}");
            }
            if let Some(m) = r.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not a finite number", m.name);
                return ExitCode::FAILURE;
            }
            for m in &r.metrics {
                println!("# {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", r.json_line());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: an output differs from its oracle");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
