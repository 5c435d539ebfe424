//! Binomial distribution and its upper tail — the GraphSig p-value kernel.
//!
//! Section III-B of the paper: the support of a sub-feature vector `x` in a
//! random database of `m` vectors is `Bin(m, P(x))`; the p-value of an
//! observed support `mu0` is `P(support >= mu0)` (Eqn. 6). This module owns
//! that computation and its numerical strategy.

use crate::beta::betainc_regularized;
use crate::gamma::ln_choose;

/// Upper tail `P(X >= k)` for `X ~ Bin(n, p)`.
///
/// This is GraphSig's Eqn. 6. Returns 1 for `k == 0` and 0 for `k > n`.
/// Every other tail is the paper's beta reduction,
/// `P(X >= k) = I_p(k, n - k + 1)`, which keeps its relative accuracy
/// however small the tail: output is sorted by p-value, so a route that
/// is only close in absolute terms (a complement `1 - P(X < k)`, or the
/// normal approximation) would reorder the smallest ones.
///
/// # Examples
///
/// ```
/// use graphsig_stats::binomial_tail_upper;
/// // Fair coin, 2 flips: P(X >= 1) = 3/4.
/// assert!((binomial_tail_upper(2, 0.5, 1) - 0.75).abs() < 1e-12);
/// ```
pub fn binomial_tail_upper(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if k == 0 {
        return 1.0;
    }
    if k > n || p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    betainc_regularized(p, k as f64, (n - k) as f64 + 1.0)
}

/// Binomial pmf `P(X = k)` computed in log space.
pub fn pmf(n: u64, p: f64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

/// A binomial distribution `Bin(n, p)` with convenience accessors.
///
/// This is the object the fvmine crate holds per candidate vector: `n` is the
/// feature-vector database size and `p` the probability of the vector
/// occurring in a random vector (Eqn. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Create `Bin(n, p)`. Panics if `p` is outside `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        Self { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Expected support `n * p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n p (1 - p)`.
    pub fn variance(&self) -> f64 {
        self.mean() * (1.0 - self.p)
    }

    /// `P(X = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        pmf(self.n, self.p, k)
    }

    /// `P(X <= k)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        1.0 - binomial_tail_upper(self.n, self.p, k + 1)
    }

    /// `P(X >= k)` — the GraphSig p-value of observed support `k`.
    pub fn tail_upper(&self, k: u64) -> f64 {
        binomial_tail_upper(self.n, self.p, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    /// Reference: brute-force summation with 128-bit-safe log pmf.
    fn brute_tail(n: u64, p: f64, k: u64) -> f64 {
        (k..=n).map(|i| pmf(n, p, i)).sum()
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(binomial_tail_upper(10, 0.3, 0), 1.0);
        assert_eq!(binomial_tail_upper(10, 0.3, 11), 0.0);
        assert_eq!(binomial_tail_upper(10, 0.0, 1), 0.0);
        assert_eq!(binomial_tail_upper(10, 1.0, 10), 1.0);
    }

    #[test]
    fn exact_small_cases() {
        close(binomial_tail_upper(2, 0.5, 1), 0.75, 1e-12);
        close(binomial_tail_upper(2, 0.5, 2), 0.25, 1e-12);
        // From the paper's sample computation style: Bin(4, 3/16).
        close(
            binomial_tail_upper(4, 3.0 / 16.0, 1),
            1.0 - (13.0f64 / 16.0).powi(4),
            1e-12,
        );
    }

    #[test]
    fn beta_reduction_matches_brute_force() {
        for &n in &[100u64, 345, 1000] {
            for &p in &[0.001, 0.05, 0.3, 0.9] {
                for &frac in &[0.0, 0.01, 0.2, 0.5, 0.99] {
                    let k = ((n as f64) * frac).round() as u64;
                    let got = binomial_tail_upper(n, p, k.max(1));
                    let want = brute_tail(n, p, k.max(1));
                    close(got, want, 1e-6);
                }
            }
        }
    }

    /// `P(X >= k)` summed in log space, sharing no code with the beta
    /// reduction: `ln C(n, k)` is a compensated sum of `ln((n - m + j) / j)`
    /// (no gamma function), and each later term is the previous one times
    /// `(n - i) / (i + 1) * p / (1 - p)`. The walk stops once a term has
    /// fallen 50 nats below the largest: the pmf is unimodal, so every term
    /// after it is smaller still, and at most `n` of them add under 1e-15
    /// relative for `n <= 10^6`. Accurate to about 1e-12 wherever the walk
    /// is short or its terms are near the largest: every `n <= 64`, and
    /// `k` from the mean up for larger `n`.
    fn log_space_tail(n: u64, p: f64, k: u64) -> f64 {
        let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
        let m = k.min(n - k);
        let (mut ln_c, mut carry) = (0.0f64, 0.0f64);
        for j in 1..=m {
            let x = ((n - m + j) as f64 / j as f64).ln();
            let t = ln_c + x;
            carry += if ln_c.abs() >= x.abs() {
                (ln_c - t) + x
            } else {
                (x - t) + ln_c
            };
            ln_c = t;
        }
        let mut ln_term = ln_c + carry + k as f64 * ln_p + (n - k) as f64 * ln_q;
        let (mut ln_max, mut sum) = (ln_term, 1.0f64);
        for i in k..n {
            ln_term += ((n - i) as f64 / (i + 1) as f64).ln() + ln_p - ln_q;
            if ln_term > ln_max {
                sum = sum * (ln_max - ln_term).exp() + 1.0;
                ln_max = ln_term;
            } else {
                sum += (ln_term - ln_max).exp();
            }
            if ln_term < ln_max - 50.0 {
                break;
            }
        }
        (ln_max + sum.ln()).exp()
    }

    fn assert_relative(n: u64, p: f64, k: u64, tol: f64) -> f64 {
        let got = binomial_tail_upper(n, p, k);
        let want = log_space_tail(n, p, k);
        let err = (got - want).abs() / want;
        assert!(
            err <= tol,
            "n={n} p={p} k={k}: {got:e} vs {want:e} (relative error {err:e})"
        );
        want
    }

    const GRID_P: [f64; 11] = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9];

    #[test]
    fn tail_has_small_relative_error_down_to_1e300() {
        // A tail that the complement `1 - P(X < k)` cancels to rounding
        // noise, and one that the normal approximation puts 5x too low.
        let tiny = assert_relative(64, 0.001, 32, 1e-8);
        close(tiny / 1.776_604_518_150e-78, 1.0, 1e-10);
        let normal = assert_relative(200_000, 0.01, 2_352, 1e-8);
        close(normal / 7.401_016_58e-15, 1.0, 1e-8);
        // Every k of every n up to 64.
        for n in 2..=64u64 {
            for p in GRID_P {
                for k in 1..=n {
                    assert_relative(n, p, k, 1e-8);
                }
            }
        }
        // Large n, from the mean out to tails near f64's smallest normal
        // value (n = 16 198 is the largest label group of a 1000-molecule
        // mine).
        let mut smallest = 1.0f64;
        for n in [1_000u64, 16_198, 200_000, 1_000_000] {
            for p in GRID_P {
                let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
                for z in [
                    0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 40.0, 45.0, 50.0,
                ] {
                    let k = (mean + z * sd).ceil().max(1.0) as u64;
                    if k > n || log_space_tail(n, p, k) < 1e-300 {
                        continue;
                    }
                    smallest = smallest.min(assert_relative(n, p, k, 1e-8));
                }
            }
        }
        assert!(smallest < 1e-290, "grid never reached 1e-300: {smallest:e}");
    }

    #[test]
    fn tail_monotone_in_k() {
        let mut prev = 2.0;
        for k in 0..=200 {
            let v = binomial_tail_upper(200, 0.37, k);
            assert!(v <= prev + 1e-12, "k={k}");
            prev = v;
        }
    }

    #[test]
    fn tail_monotone_in_p() {
        let mut prev = -1.0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let v = binomial_tail_upper(500, p, 100);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn distribution_object() {
        let b = Binomial::new(100, 0.2);
        close(b.mean(), 20.0, 1e-12);
        close(b.variance(), 16.0, 1e-12);
        close(b.cdf(100), 1.0, 1e-12);
        close(b.cdf(19) + b.tail_upper(20), 1.0, 1e-9);
        let total: f64 = (0..=100).map(|k| b.pmf(k)).sum();
        close(total, 1.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn rejects_bad_p() {
        binomial_tail_upper(10, 1.5, 1);
    }
}
