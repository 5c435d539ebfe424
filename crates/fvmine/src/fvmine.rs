//! FVMine (Algorithm 1 of the paper): closed significant sub-feature
//! vector mining.
//!
//! The search walks the closed-vector lattice bottom-up and depth-first.
//! A state is a pair `(x, S)` where `S` is the exact support set of the
//! closed vector `x` (every vector in the database that contains `x`); its
//! children raise one feature `i >= b` and re-close:
//!
//! * **support pruning** (lines 5–6): a child with `|S'| < minSup` cannot
//!   contain a frequent descendant;
//! * **duplicate-state pruning** (lines 8–9): if closing the child raised a
//!   feature `j < i`, the same state is reachable from the branch at `j`
//!   and has already been (or will be) visited there;
//! * **optimistic significance pruning** (lines 10–11): the most
//!   significant descendant of a state is bounded by
//!   `p_value(ceiling(S'), |S'|)` — the most specific vector at the largest
//!   possible support. If even that bound is not significant, the subtree
//!   is dead. (The paper's pseudocode prunes at `>= maxPvalue`; we prune at
//!   `> maxPvalue` so a subtree whose best descendant sits exactly on the
//!   threshold — accepted by line 1's `<=` — is still explored. The two
//!   only differ on the measure-zero boundary and the strict form is the
//!   one consistent with the paper's running example at threshold 1.)
//!
//! The invariant that `S` is the *exact* support set of `x` holds
//! inductively: the root is `(floor(D), D)`, and for a child,
//! `S' = {y in S : y_i > x_i}` together with re-closing `x' = floor(S')`
//! keeps every super-vector of `x'` inside `S'`.
//!
//! **Layout.** Each call transposes the group once into per-feature level
//! bitsets `L[i][v] = {y : y_i >= v}`, for `v` from 1 to the largest value
//! of feature `i`, so `S' = S ∩ L[i][x_i + 1]` (empty, and a support prune,
//! when `x_i` is already that largest value). A state holds `S` as sorted
//! ids, and while `S` holds at least 1/64 of the group also as a bitset
//! trimmed to its non-zero words: a child's `|S'|` is then an AND and a
//! popcount over those words. Below that, `|S'|` is one bit probe of
//! `L[i][x_i + 1]` per id. Ids are extracted only for children that pass
//! the support rule, and floor and ceiling read those children's rows.

use crate::pvalue::SignificanceModel;
use crate::vector::{ceiling_of, floor_of};
use graphsig_graph::control::Meter;

/// Thresholds for [`FvMiner`]. The paper's Table IV defaults are
/// `maxPvalue = 0.1` and a relative support of 0.1% of the group.
#[derive(Debug, Clone, Copy)]
pub struct FvMineConfig {
    /// Minimum support (number of supporting vectors), `>= 1`.
    pub min_support: usize,
    /// Significance threshold: report vectors with `p_value <= max_pvalue`.
    pub max_pvalue: f64,
    /// Apply the optimistic significance pruning of Algorithm 1 lines
    /// 10-11. Disabling it never changes the output (the bound is safe) —
    /// it exists for the ablation experiment measuring how much work the
    /// pruning saves.
    pub optimistic_pruning: bool,
}

impl FvMineConfig {
    /// Thresholds with the optimistic pruning enabled (the default).
    pub fn new(min_support: usize, max_pvalue: f64) -> Self {
        Self {
            min_support,
            max_pvalue,
            optimistic_pruning: true,
        }
    }
}

/// A closed sub-feature vector found significant by FVMine.
#[derive(Debug, Clone, PartialEq)]
pub struct SignificantVector {
    /// The closed vector.
    pub vector: Vec<u8>,
    /// Indices (into the mined database) of the vectors containing it —
    /// its exact support set, ascending.
    pub support_ids: Vec<u32>,
    /// Binomial upper-tail p-value at the observed support.
    pub p_value: f64,
}

impl SignificantVector {
    /// Observed support `mu_0`.
    pub fn support(&self) -> usize {
        self.support_ids.len()
    }
}

/// Search counters for one FVMine run — used by the pruning ablation to
/// quantify how much of the lattice each rule kills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FvMineStats {
    /// States whose p-value was evaluated (line 1 of Algorithm 1).
    pub states_visited: usize,
    /// Branches cut by the support threshold (lines 5-6).
    pub pruned_support: usize,
    /// Branches cut as duplicate states (lines 8-9).
    pub pruned_duplicate: usize,
    /// Branches cut by the optimistic significance bound (lines 10-11).
    pub pruned_optimistic: usize,
}

/// The FVMine search (Algorithm 1).
pub struct FvMiner {
    cfg: FvMineConfig,
}

impl FvMiner {
    /// Create a miner with the given thresholds.
    pub fn new(cfg: FvMineConfig) -> Self {
        assert!(cfg.min_support >= 1, "min_support must be at least 1");
        assert!(
            cfg.max_pvalue >= 0.0 && cfg.max_pvalue <= 1.0,
            "max_pvalue must be in [0,1]"
        );
        Self { cfg }
    }

    /// Mine `db`, estimating the significance model (priors, trial count)
    /// from `db` itself — the configuration GraphSig uses per label group.
    pub fn mine(&self, db: &[Vec<u8>]) -> Vec<SignificantVector> {
        self.mine_with_stats(db).0
    }

    /// Like [`mine`](Self::mine), also returning search counters.
    pub fn mine_with_stats(&self, db: &[Vec<u8>]) -> (Vec<SignificantVector>, FvMineStats) {
        self.mine_with_stats_metered(db, &mut Meter::unbudgeted())
    }

    /// Budget-governed [`mine`](Self::mine): one [`Meter`] step per lattice
    /// state visited and per branch expansion. When the meter runs dry the
    /// search unwinds — already-found vectors are kept (each is exact on
    /// its own), the rest of the lattice is skipped, and the caller reads
    /// the truncation reason off the meter. Truncation is deterministic
    /// for step budgets (the search is sequential within one meter).
    pub fn mine_metered(&self, db: &[Vec<u8>], meter: &mut Meter<'_>) -> Vec<SignificantVector> {
        self.mine_with_stats_metered(db, meter).0
    }

    /// [`mine_with_stats`](Self::mine_with_stats) under a [`Meter`]; see
    /// [`mine_metered`](Self::mine_metered).
    pub fn mine_with_stats_metered(
        &self,
        db: &[Vec<u8>],
        meter: &mut Meter<'_>,
    ) -> (Vec<SignificantVector>, FvMineStats) {
        let mut stats = FvMineStats::default();
        if db.is_empty() {
            return (Vec::new(), stats);
        }
        let model = SignificanceModel::from_vectors(db, 10);
        if db.len() < self.cfg.min_support {
            return (Vec::new(), stats);
        }
        let group = Group {
            db,
            model,
            levels: Levels::new(db),
            sparse_below: db.len() / SPARSE_FRACTION,
        };
        let root = Support::root(db.len());
        let x = floor_of(root.rows(db));
        let mut out = Vec::new();
        self.recurse(&group, &x, &root, 0, meter, &mut out, &mut stats);
        (out, stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        g: &Group<'_>,
        x: &[u8],
        support: &Support,
        b: usize,
        meter: &mut Meter<'_>,
        out: &mut Vec<SignificantVector>,
        stats: &mut FvMineStats,
    ) {
        // One step per lattice state. Sticky: an exhausted meter unwinds
        // the whole subtree (already-emitted vectors remain valid).
        if !meter.tick() {
            return;
        }
        stats.states_visited += 1;
        let p = g.model.p_value(x, support.ids.len() as u64);
        if p <= self.cfg.max_pvalue {
            out.push(SignificantVector {
                vector: x.to_vec(),
                support_ids: support.ids.clone(),
                p_value: p,
            });
        }
        for i in b..x.len() {
            // One step per branch expansion.
            if !meter.tick() {
                return;
            }
            // S' = {y in S : y_i > x_i} = S ∩ L[i][x_i + 1], empty once x_i
            // is the largest value of feature i.
            let Some(level) = g.levels.above(i, x[i]) else {
                stats.pruned_support += 1;
                continue;
            };
            let count = support.count_in(level);
            if count < self.cfg.min_support {
                stats.pruned_support += 1;
                continue;
            }
            let sub = support.restrict(level, count, g.sparse_below);
            let x2 = floor_of(sub.rows(g.db));
            // Duplicate state: closing raised an earlier feature.
            if (0..i).any(|j| x2[j] > x[j]) {
                stats.pruned_duplicate += 1;
                continue;
            }
            // Optimistic bound on the whole subtree.
            if self.cfg.optimistic_pruning {
                let ceiling = ceiling_of(sub.rows(g.db));
                if g.model.p_value(&ceiling, count as u64) > self.cfg.max_pvalue {
                    stats.pruned_optimistic += 1;
                    continue;
                }
            }
            self.recurse(g, &x2, &sub, i, meter, out, stats);
        }
    }
}

/// A support set switches from a bitset to an id list once it holds fewer
/// than `n / SPARSE_FRACTION` of its group's `n` ids: about one id per
/// bitset word, where probing one bit per id starts to beat an AND over
/// the words. Over every label group of two 1 000-molecule databases at
/// `min_freq` 0.05, 0.01 and 0.001, fractions 32, 64 and 128 tied within
/// 4%; at 0.001, 16 was 8% slower, 256 17% slower and a bitset at every
/// size 1.9× slower. The fraction changes no answer and no counter.
const SPARSE_FRACTION: usize = 64;

/// One label group, mined: its rows, significance model and level bitsets.
struct Group<'a> {
    db: &'a [Vec<u8>],
    model: SignificanceModel,
    levels: Levels,
    sparse_below: usize,
}

/// The group transposed into per-feature level bitsets:
/// `L[i][v] = {y : y_i >= v}` for `v` in `1..=top[i]`, the largest value of
/// feature `i`. Bit `y` of a bitset is bit `y % 64` of word `y / 64`.
/// RWR bins stop at 10, so this is at most 10 bits per vector and feature,
/// 1.25× the rows' bytes; a group with values up to 255 would take 32×.
struct Levels {
    /// `ceil(n / 64)`: words per bitset.
    words: usize,
    /// Index into `bits` of feature `i`'s level-1 bitset.
    start: Vec<usize>,
    top: Vec<u8>,
    bits: Vec<u64>,
}

impl Levels {
    fn new(db: &[Vec<u8>]) -> Self {
        let words = db.len().div_ceil(64);
        let mut top = db[0].clone();
        for row in db {
            for (t, &v) in top.iter_mut().zip(row) {
                *t = (*t).max(v);
            }
        }
        let mut start = Vec::with_capacity(top.len());
        let mut total = 0;
        for &t in &top {
            start.push(total);
            total += t as usize * words;
        }
        // Row y sets its bit in L[i][y_i] only; OR-ing each level into the
        // one below, top down, then makes every level an exceedance set.
        let mut bits = vec![0u64; total];
        for (y, row) in db.iter().enumerate() {
            for (i, &v) in row.iter().enumerate().filter(|&(_, &v)| v > 0) {
                bits[start[i] + (v as usize - 1) * words + y / 64] |= 1 << (y % 64);
            }
        }
        for (&s, &t) in start.iter().zip(&top) {
            for v in (1..t as usize).rev() {
                let (below, above) = bits[s..].split_at_mut(v * words);
                for (w, &a) in below[(v - 1) * words..].iter_mut().zip(&above[..words]) {
                    *w |= a;
                }
            }
        }
        Self {
            words,
            start,
            top,
            bits,
        }
    }

    /// `L[i][v + 1]`, or `None` when no vector's feature `i` exceeds `v`.
    fn above(&self, i: usize, v: u8) -> Option<&[u64]> {
        if v >= self.top[i] {
            return None;
        }
        let s = self.start[i] + v as usize * self.words;
        Some(&self.bits[s..s + self.words])
    }
}

/// A state's support set `S`: its ids, ascending, and while `S` is dense
/// also its bitset.
struct Support {
    ids: Vec<u32>,
    /// `(lo, words)`: word `k` holds ids `64 * (lo + k)..64 * (lo + k + 1)`;
    /// every word outside `lo..lo + words.len()` is zero.
    dense: Option<(usize, Vec<u64>)>,
}

impl Support {
    /// The whole group `{0, .., n - 1}`, as a bitset.
    fn root(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            words[n / 64] = (1 << (n % 64)) - 1;
        }
        Self::from_bits(0, words, n)
    }

    /// The support whose set bits lie in words `lo..lo + words.len()`.
    fn from_bits(lo: usize, words: Vec<u64>, count: usize) -> Self {
        Self {
            ids: ids_of(lo, words.iter().copied(), count),
            dense: Some((lo, words)),
        }
    }

    /// The member rows, in id order.
    fn rows<'a>(&'a self, db: &'a [Vec<u8>]) -> impl Iterator<Item = &'a [u8]> {
        self.ids.iter().map(|&y| db[y as usize].as_slice())
    }

    /// `|S ∩ level|`.
    fn count_in(&self, level: &[u64]) -> usize {
        match &self.dense {
            Some((lo, words)) => words
                .iter()
                .zip(&level[*lo..])
                .map(|(a, b)| (a & b).count_ones() as usize)
                .sum(),
            None => self.ids.iter().filter(|&&y| has(level, y)).count(),
        }
    }

    /// `S ∩ level`, of size `count`: a bitset trimmed to its non-zero
    /// words while it holds at least `sparse_below` ids, an id list below.
    fn restrict(&self, level: &[u64], count: usize, sparse_below: usize) -> Self {
        let Some((lo, words)) = &self.dense else {
            let mut ids = Vec::with_capacity(count);
            ids.extend(self.ids.iter().copied().filter(|&y| has(level, y)));
            return Self { ids, dense: None };
        };
        let and = words.iter().zip(&level[*lo..]).map(|(a, b)| a & b);
        if count < sparse_below {
            return Self {
                ids: ids_of(*lo, and, count),
                dense: None,
            };
        }
        let mut and: Vec<u64> = and.collect();
        let first = and.iter().position(|&w| w != 0).expect("count >= 1");
        let last = and.iter().rposition(|&w| w != 0).expect("count >= 1");
        and.truncate(last + 1);
        and.drain(..first);
        Self::from_bits(lo + first, and, count)
    }
}

/// Whether bit `y` of `bits` is set.
fn has(bits: &[u64], y: u32) -> bool {
    bits[y as usize / 64] >> (y % 64) & 1 != 0
}

/// The set bits of `words`, starting at word `lo`, as ascending ids.
fn ids_of(lo: usize, words: impl Iterator<Item = u64>, count: usize) -> Vec<u32> {
    let mut ids = Vec::with_capacity(count);
    for (k, mut w) in words.enumerate() {
        let base = ((lo + k) * 64) as u32;
        while w != 0 {
            ids.push(base + w.trailing_zeros());
            w &= w - 1;
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::is_sub_vector;
    use std::collections::HashSet;

    /// Table I of the paper.
    fn table1() -> Vec<Vec<u8>> {
        vec![
            vec![1, 0, 0, 2],
            vec![1, 1, 0, 2],
            vec![2, 0, 1, 2],
            vec![1, 0, 1, 0],
        ]
    }

    /// Brute-force reference: all closed vectors with support >= min_sup
    /// and p-value <= max_p. A vector is closed iff it equals the floor of
    /// its full support set.
    fn brute_force(db: &[Vec<u8>], min_sup: usize, max_p: f64) -> Vec<(Vec<u8>, Vec<u32>, f64)> {
        let model = SignificanceModel::from_vectors(db, 10);
        let n = db.len();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut out = Vec::new();
        for mask in 1u32..(1 << n) {
            let members: Vec<&[u8]> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| db[i].as_slice())
                .collect();
            let f = floor_of(members.iter().copied());
            if seen.contains(&f) {
                continue;
            }
            seen.insert(f.clone());
            let support: Vec<u32> = (0..n as u32)
                .filter(|&i| is_sub_vector(&f, &db[i as usize]))
                .collect();
            // Closed: floor of the full support set equals f.
            let refloor = floor_of(support.iter().map(|&i| db[i as usize].as_slice()));
            if refloor != f {
                continue;
            }
            if support.len() < min_sup {
                continue;
            }
            let p = model.p_value(&f, support.len() as u64);
            if p <= max_p {
                out.push((f, support, p));
            }
        }
        out
    }

    fn run(db: &[Vec<u8>], min_sup: usize, max_p: f64) -> Vec<SignificantVector> {
        FvMiner::new(FvMineConfig::new(min_sup, max_p)).mine(db)
    }

    fn assert_matches_brute_force(db: &[Vec<u8>], min_sup: usize, max_p: f64) {
        let got = run(db, min_sup, max_p);
        let want = brute_force(db, min_sup, max_p);
        let got_set: HashSet<Vec<u8>> = got.iter().map(|s| s.vector.clone()).collect();
        let want_set: HashSet<Vec<u8>> = want.iter().map(|(v, _, _)| v.clone()).collect();
        assert_eq!(got_set, want_set, "min_sup={min_sup} max_p={max_p}");
        assert_eq!(got.len(), got_set.len(), "duplicates in output");
        // Supports and p-values agree too.
        for sv in &got {
            let (_, ws, wp) = want.iter().find(|(v, _, _)| *v == sv.vector).unwrap();
            assert_eq!(&sv.support_ids, ws);
            assert!((sv.p_value - wp).abs() < 1e-12);
        }
    }

    #[test]
    fn table1_full_enumeration_threshold_one() {
        // The paper's Fig. 8 setting: support and p-value thresholds of 1.
        assert_matches_brute_force(&table1(), 1, 1.0);
    }

    #[test]
    fn bins_up_to_255_mine_without_overflow() {
        // Any `u8` is a valid bin. A feature whose largest value is 255 has
        // no level above it, so raising it from 255 is an empty child.
        let db = vec![vec![255, 0], vec![255, 1], vec![3, 1]];
        assert_matches_brute_force(&db, 1, 1.0);
        assert_matches_brute_force(&db, 2, 1.0);
        let tops = vec![vec![255, 255, 0], vec![255, 254, 7], vec![255, 255, 255]];
        assert_matches_brute_force(&tops, 1, 1.0);
    }

    #[test]
    fn table1_support_two() {
        assert_matches_brute_force(&table1(), 2, 1.0);
    }

    #[test]
    fn table1_tight_pvalue() {
        for p in [0.5, 0.3, 0.1] {
            assert_matches_brute_force(&table1(), 1, p);
        }
    }

    #[test]
    fn outputs_are_closed_with_exact_support() {
        let db = table1();
        for sv in run(&db, 1, 1.0) {
            // Support set is exactly the super-vectors.
            let expect: Vec<u32> = (0..db.len() as u32)
                .filter(|&i| is_sub_vector(&sv.vector, &db[i as usize]))
                .collect();
            assert_eq!(sv.support_ids, expect);
            // Closed: floor of supporters equals the vector.
            let f = floor_of(sv.support_ids.iter().map(|&i| db[i as usize].as_slice()));
            assert_eq!(f, sv.vector);
        }
    }

    #[test]
    fn larger_random_style_db_matches_brute_force() {
        // Deterministic pseudo-random small db, dims 5, values 0..4.
        let mut db = Vec::new();
        let mut state = 0x9E3779B9u64;
        for _ in 0..10 {
            let mut v = Vec::new();
            for _ in 0..5 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push(((state >> 33) % 4) as u8);
            }
            db.push(v);
        }
        assert_matches_brute_force(&db, 1, 1.0);
        assert_matches_brute_force(&db, 2, 0.8);
        assert_matches_brute_force(&db, 3, 0.4);
    }

    #[test]
    fn empty_db_mines_nothing() {
        assert!(run(&[], 1, 1.0).is_empty());
    }

    #[test]
    fn min_support_above_db_size_mines_nothing() {
        assert!(run(&table1(), 5, 1.0).is_empty());
    }

    #[test]
    fn zero_pvalue_threshold_rejects_everything_probable() {
        // With max_pvalue = 0 only vectors with P(x)=0 could qualify, and
        // those have support 0 — so nothing is reported.
        assert!(run(&table1(), 1, 0.0).is_empty());
    }

    #[test]
    fn exhausted_meter_truncates_but_keeps_found_vectors() {
        use graphsig_graph::control::{Budget, StopReason};
        let db = table1();
        let full = run(&db, 1, 1.0);
        // Zero allowance: nothing mined, truncation recorded.
        let budget = Budget::unlimited().with_max_steps(0);
        let mut meter = budget.meter();
        let got = FvMiner::new(FvMineConfig::new(1, 1.0)).mine_metered(&db, &mut meter);
        assert!(got.is_empty());
        assert_eq!(meter.stop_reason(), Some(StopReason::StepBudget));
        // Partial allowances yield prefixes of the full enumeration and are
        // deterministic; a generous allowance completes.
        for steps in [1u64, 3, 7, 1000] {
            let budget = Budget::unlimited().with_max_steps(steps);
            let mut meter = budget.meter();
            let got = FvMiner::new(FvMineConfig::new(1, 1.0)).mine_metered(&db, &mut meter);
            assert!(got.len() <= full.len());
            for (a, b) in got.iter().zip(&full) {
                assert_eq!(a.vector, b.vector, "steps={steps}");
            }
            let budget2 = Budget::unlimited().with_max_steps(steps);
            let mut meter2 = budget2.meter();
            let again = FvMiner::new(FvMineConfig::new(1, 1.0)).mine_metered(&db, &mut meter2);
            assert_eq!(got, again, "steps={steps}");
        }
        let budget = Budget::unlimited().with_max_steps(1_000_000);
        let mut meter = budget.meter();
        let got = FvMiner::new(FvMineConfig::new(1, 1.0)).mine_metered(&db, &mut meter);
        assert_eq!(got, full);
        assert_eq!(meter.stop_reason(), None);
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn zero_support_rejected() {
        FvMiner::new(FvMineConfig::new(0, 0.5));
    }

    #[test]
    #[should_panic(expected = "max_pvalue")]
    fn bad_pvalue_rejected() {
        FvMiner::new(FvMineConfig::new(1, 1.5));
    }
}
