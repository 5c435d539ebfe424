//! Shared helpers for the GraphSig experiment binaries.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; each
//! prints the corresponding rows/series to stdout. Criterion micro-benches
//! live in `benches/`. Absolute numbers differ from the paper (different
//! hardware, Rust instead of Java, synthetic data); the *shapes* — who
//! wins, exponential vs linear growth, where curves cross — are the
//! reproduction targets recorded in `EXPERIMENTS.md`.
//!
//! Every binary accepts:
//!
//! * `--scale <f64>`     — dataset size multiplier (experiment-specific default)
//! * `--seed <u64>`      — RNG seed (default 42)
//! * `--threads <usize>` — worker threads for GraphSig runs (default 0 = auto)

use std::time::{Duration, Instant};

/// Parsed common CLI options.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Dataset scale multiplier.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for GraphSig runs (`0` = auto, one per core).
    pub threads: usize,
}

impl Cli {
    /// Parse `--scale` / `--seed` / `--threads` from `std::env::args`,
    /// with the given default scale.
    pub fn parse(default_scale: f64) -> Self {
        let mut cli = Self {
            scale: default_scale,
            seed: 42,
            threads: 0,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    cli.scale = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--scale needs a float"));
                    i += 2;
                }
                "--seed" => {
                    cli.seed = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs an integer"));
                    i += 2;
                }
                "--threads" => {
                    cli.threads = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--threads needs an integer (0 = auto)"));
                    i += 2;
                }
                other => panic!("unknown argument {other}"),
            }
        }
        cli
    }
}

/// Time a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Seconds with millisecond resolution, for table printing.
pub fn secs(d: Duration) -> f64 {
    (d.as_secs_f64() * 1000.0).round() / 1000.0
}

/// Print a Markdown-ish table header.
pub fn header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Print one row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_returns_result() {
        let (v, d) = timed(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d.as_secs() < 1);
    }

    #[test]
    fn secs_rounds_to_millis() {
        assert_eq!(secs(Duration::from_micros(1_234_567)), 1.235);
    }
}

/// Render a small graph with label names (delegates to
/// [`graphsig_graph::display_with`]).
pub fn format_graph(g: &graphsig_graph::Graph, labels: &graphsig_graph::LabelTable) -> String {
    graphsig_graph::display_with(g, labels).to_string()
}

pub mod screens;
