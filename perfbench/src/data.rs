//! Seeded inputs and the fixed workload parameters.
//!
//! The program under test only ever sees what this module generates:
//! transaction text, packed store directories and protocol lines. Every
//! value derives from the run's `--seed`.

use graphsig_core::GraphSigConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::util::sub_seed;

/// Seed streams, one per independent input of a run.
pub const STREAM_MINE_DB: u64 = 1;
pub const STREAM_BASE_DB: u64 = 2;
pub const STREAM_TRAFFIC: u64 = 3;
pub const STREAM_BATCH: u64 = 4;

/// One mine configuration: the thresholds a `mine` request carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineCfg {
    pub min_freq: f64,
    pub max_pvalue: f64,
    pub radius: usize,
}

impl MineCfg {
    /// The library configuration for this mine at `threads`, every other
    /// setting at its default (as `graphsig mine` and the server use).
    pub fn graphsig(&self, threads: usize) -> GraphSigConfig {
        GraphSigConfig {
            min_freq: self.min_freq,
            max_pvalue: self.max_pvalue,
            radius: self.radius,
            threads,
            ..GraphSigConfig::default()
        }
    }
}

/// mine-batch: molecules per database.
pub const MINE_BATCH_MOLECULES: usize = 1000;

/// mine-batch thresholds. `min_freq 0.05` / `max_pvalue 0.1` as planned;
/// the radius is 3 rather than the default 8 because at radius 4 and more,
/// about one database in six holds a rare-atom label group whose two
/// supporting nodes sit in the same molecule: their regions share nearly
/// every edge, the FSM lattice of that one set runs into the 20 000-pattern
/// cap, and the mine takes 20-60 s and returns a truncated answer. At
/// radius 3 the worst such set seen over 41 seeds took 0.34 s.
pub const MINE_BATCH_CFG: MineCfg = MineCfg {
    min_freq: 0.05,
    max_pvalue: 0.1,
    radius: 3,
};

/// Nominal seconds one mine-batch database costs (one mine at `nproc`
/// threads plus one at 1 thread on two cores), used to turn `--seconds`
/// into a fixed number of databases so both sides of a comparison do the
/// same work.
pub const MINE_BATCH_NOMINAL_DB_S: f64 = 3.5;

/// Serve workloads: resident datasets, and molecules in each base. Mining
/// cost varies by about ±10% between seeded 200-molecule databases; spread
/// over six datasets it varies well under half as much, at the same cost
/// per request.
pub const SERVE_DATASETS: usize = 6;
pub const SERVE_BASE_MOLECULES: usize = 200;

/// serve-ingest: molecules per appended batch, and batches per run,
/// appended to the datasets in turn.
pub const INGEST_BATCH_MOLECULES: usize = 20;
pub const INGEST_BATCHES: usize = 16;

/// The `mine` request grid, most popular first (Zipf rank order). Radii
/// stay at or below 3 for the reason given at [`MINE_BATCH_CFG`]. The
/// settings are picked to cost about the same (within about 0.95-1.25 of
/// the first, in process on 200-molecule databases), as are the `freq`
/// supports (0.6-1.1): with settings that cost 0.5-2.3 times the first,
/// the open-loop latencies fell into clusters, and `p50_ms` and `p90_ms`
/// jumped between neighbouring clusters from run to run.
pub const MINE_GRID: [MineCfg; 8] = {
    const fn c(min_freq: f64, max_pvalue: f64, radius: usize) -> MineCfg {
        MineCfg {
            min_freq,
            max_pvalue,
            radius,
        }
    }
    [
        c(0.1, 0.05, 3),
        c(0.12, 0.1, 3),
        c(0.06, 0.05, 2),
        c(0.08, 0.05, 3),
        c(0.15, 0.2, 3),
        c(0.08, 0.1, 2),
        c(0.05, 0.05, 2),
        c(0.1, 0.1, 3),
    ]
};

/// Zipf exponent of mine-config popularity.
const ZIPF_S: f64 = 1.0;

/// Share of `freq` requests in the query mix (the rest are `mine`).
const FREQ_SHARE: f64 = 0.3;

/// Absolute `freq` supports (of a 200-molecule base).
pub const FREQ_SUPPORTS: [usize; 3] = [25, 30, 35];

/// Name of resident dataset `ds`.
pub fn dataset_name(ds: usize) -> String {
    format!("d{ds}")
}

/// One query of the serve mix against dataset `ds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// `cfg` indexes [`MINE_GRID`].
    Mine { ds: usize, cfg: usize },
    /// `support` indexes [`FREQ_SUPPORTS`].
    Freq { ds: usize, support: usize },
}

impl Query {
    /// The request line (without `id=`). Mines ask for one thread: the
    /// server's `nproc` workers already keep every core busy, and a pool
    /// per request on top would make each latency depend on what else runs.
    pub fn line(&self) -> String {
        match *self {
            Query::Mine { ds, cfg } => {
                let c = MINE_GRID[cfg];
                format!(
                    "mine dataset={} min_freq={} max_pvalue={} radius={} threads=1",
                    dataset_name(ds),
                    c.min_freq,
                    c.max_pvalue,
                    c.radius
                )
            }
            Query::Freq { ds, support } => format!(
                "freq dataset={} min_support={}",
                dataset_name(ds),
                FREQ_SUPPORTS[support]
            ),
        }
    }

    pub fn dataset(&self) -> usize {
        match *self {
            Query::Mine { ds, .. } | Query::Freq { ds, .. } => ds,
        }
    }
}

/// Seeded traffic: query mixes and Poisson arrival instants.
pub struct Traffic {
    rng: SmallRng,
}

impl Traffic {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(sub_seed(seed, STREAM_TRAFFIC)),
        }
    }

    /// `n` queries in the mix's exact proportions (freq share, Zipf over
    /// the grid; largest-remainder rounding), each kind spread evenly over
    /// the datasets, in seeded random order. Fixing the counts keeps the
    /// mix itself from varying between seeds; the seed still decides the
    /// order, and with it what coalesces, and which datasets get the
    /// remainders.
    pub fn mix(&mut self, n: usize) -> Vec<Query> {
        let harmonic: f64 = (1..=MINE_GRID.len())
            .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
            .sum();
        let freq = (0..FREQ_SUPPORTS.len()).map(|support| {
            let share = FREQ_SHARE / FREQ_SUPPORTS.len() as f64;
            (Query::Freq { ds: 0, support }, share)
        });
        let mine = (0..MINE_GRID.len()).map(|cfg| {
            let share = (1.0 - FREQ_SHARE) / ((cfg + 1) as f64).powf(ZIPF_S) / harmonic;
            (Query::Mine { ds: 0, cfg }, share)
        });
        let exact: Vec<(Query, f64)> = freq.chain(mine).map(|(q, w)| (q, w * n as f64)).collect();
        let mut counts: Vec<usize> = exact.iter().map(|(_, x)| x.floor() as usize).collect();
        let mut order: Vec<usize> = (0..exact.len()).collect();
        let frac = |i: usize| exact[i].1 - exact[i].1.floor();
        order.sort_by(|&a, &b| frac(b).total_cmp(&frac(a)).then(a.cmp(&b)));
        let short = n - counts.iter().sum::<usize>();
        for &i in order.iter().take(short) {
            counts[i] += 1;
        }
        // Deal the datasets round-robin (in a seeded order) over the
        // queries grouped by kind, so every kind, and the total, is spread
        // evenly over them.
        let mut deal: Vec<usize> = (0..SERVE_DATASETS).collect();
        deal.shuffle(&mut self.rng);
        let mut queries: Vec<Query> = exact
            .iter()
            .zip(&counts)
            .flat_map(|((q, _), &c)| std::iter::repeat_n(*q, c))
            .enumerate()
            .map(|(i, q)| {
                let d = deal[i % SERVE_DATASETS];
                match q {
                    Query::Mine { cfg, .. } => Query::Mine { ds: d, cfg },
                    Query::Freq { support, .. } => Query::Freq { ds: d, support },
                }
            })
            .collect();
        queries.shuffle(&mut self.rng);
        queries
    }

    /// Offsets (seconds) of `n` arrivals of a Poisson process on `[0, dur)`
    /// conditioned on `n` arrivals: sorted uniform draws. Fixing `n` fixes
    /// the work and the sample count of a run.
    pub fn arrivals(&mut self, n: usize, dur: f64) -> Vec<f64> {
        let mut at: Vec<f64> = (0..n).map(|_| self.rng.gen::<f64>() * dur).collect();
        at.sort_by(f64::total_cmp);
        at
    }
}

/// Transaction text of `n` AIDS-like molecules drawn from `seed`.
pub fn molecules_text(n: usize, seed: u64) -> String {
    graphsig_graph::write_transactions(&graphsig_datagen::aids_like(n, seed).db)
}

/// `count` batches of `n` molecules each, cut in order from one seeded
/// draw of `n * count`. Drawing each small batch on its own would enrich
/// them: the generator forces one active molecule into any dataset that
/// drew none, and a 20-molecule draw has none a third of the time.
pub fn batch_texts(n: usize, count: usize, seed: u64) -> Vec<String> {
    let pool = graphsig_datagen::aids_like(n * count, seed).db;
    (0..count)
        .map(|i| {
            let ids: Vec<usize> = (i * n..(i + 1) * n).collect();
            graphsig_graph::write_transactions(&pool.subset(&ids))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_repeats_for_a_seed() {
        let draw = |seed| Traffic::new(seed).mix(50);
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn mix_has_exact_proportions() {
        // Per-setting counts, ignoring the dataset each query went to.
        let counts = |seed| {
            let mut c = [0usize; FREQ_SUPPORTS.len() + MINE_GRID.len()];
            for q in Traffic::new(seed).mix(100) {
                match q {
                    Query::Freq { support, .. } => c[support] += 1,
                    Query::Mine { cfg, .. } => c[FREQ_SUPPORTS.len() + cfg] += 1,
                }
            }
            c
        };
        let c = counts(1);
        assert_eq!(c[..FREQ_SUPPORTS.len()].iter().sum::<usize>(), 30);
        assert!(c[FREQ_SUPPORTS.len()] > 5 * c[c.len() - 1], "{c:?}");
        assert_eq!(c, counts(2), "the same counts for every seed");
        let mix = Traffic::new(1).mix(100);
        let even = 100 / SERVE_DATASETS;
        for ds in 0..SERVE_DATASETS {
            let n = mix.iter().filter(|q| q.dataset() == ds).count();
            assert!(n == even || n == even + 1, "dataset {ds}: {n}");
        }
    }

    #[test]
    fn grid_configs_are_distinct() {
        for (i, a) in MINE_GRID.iter().enumerate() {
            for b in &MINE_GRID[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
