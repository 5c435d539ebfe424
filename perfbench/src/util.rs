//! Small helpers shared by the workloads: order statistics, process
//! memory and CPU readings, seed derivation and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `values` (NaN-free), 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `q` in `[0, 1]` of `values`, interpolated linearly between
/// the two nearest ranks.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Derive an independent sub-seed (splitmix64 finaliser), so every input
/// of a run follows from the one `--seed` argument.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn vm_hwm_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, counting
/// threads that already exited. Linux reports them in clock ticks of
/// `USER_HZ`, which is 100 on every architecture Linux supports.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Threads and connections the machine allows the benchmark to use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch directory for one run, inside the checkout the benchmark runs
/// from (never outside it). Removed again by [`WorkDir::drop`].
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `.perfbench-work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> Result<Self, String> {
        let path = Path::new(".perfbench-work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports: the checked outcome plus metrics.
pub struct RunResult {
    /// Every checked output matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines printed before the result line.
    pub report: Vec<String>,
}

impl RunResult {
    /// The JSON result line (the benchmark's last line of standard output).
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn json_line_is_flat() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "p50_ms",
                value: 1.5,
                unit: "ms",
            }],
            report: Vec::new(),
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
