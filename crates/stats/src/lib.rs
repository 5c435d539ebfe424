//! Numerical statistics substrate for GraphSig.
//!
//! GraphSig (Ranu & Singh, ICDE 2009) measures the statistical significance
//! of a sub-feature vector by modelling its support in a random database of
//! `m` feature vectors as a binomial random variable (Eqn. 5 of the paper)
//! and computing the upper tail beyond the observed support (Eqn. 6):
//!
//! ```text
//! p-value(x, mu0) = sum_{i=mu0}^{m} C(m, i) P(x)^i (1 - P(x))^(m-i)
//! ```
//!
//! The paper notes that this sum reduces to the regularized incomplete beta
//! function `I(P(x); mu0, m - mu0 + 1)`, and that is the one route this
//! crate takes for every tail. (The paper also offers a normal
//! approximation for large `m P(x)`; its error is small in absolute terms
//! but not relative to the tail, and GraphSig sorts its output by
//! p-value.) The primitives, implemented from scratch:
//!
//! * [`ln_gamma`] — Lanczos approximation of `ln Γ(x)`.
//! * [`ln_choose`] — log binomial coefficients.
//! * [`betainc_regularized`] — the regularized incomplete beta function
//!   `I_x(a, b)` via the Lentz continued-fraction expansion.
//! * [`binomial_tail_upper`] — `P(X ≥ k)` for `X ~ Bin(n, p)` by the beta
//!   reduction.
//! * [`Binomial`] — a small distribution type bundling pmf/cdf/tails.
//!
//! All functions are deterministic, allocation-free, and tested against
//! published reference values and, for the tail, a log-space exact sum in
//! relative terms.

pub mod beta;
pub mod binomial;
pub mod descriptive;
pub mod gamma;

pub use beta::betainc_regularized;
pub use binomial::{binomial_tail_upper, Binomial};
pub use descriptive::{median, percentile, Accumulator};
pub use gamma::{ln_choose, ln_gamma};

/// Clamp a probability-like value into `[0, 1]`, guarding against tiny
/// negative round-off or overshoot from series evaluation.
#[inline]
pub fn clamp_prob(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_prob_bounds() {
        assert_eq!(clamp_prob(-1e-17), 0.0);
        assert_eq!(clamp_prob(1.0 + 1e-15), 1.0);
        assert_eq!(clamp_prob(0.25), 0.25);
    }
}
