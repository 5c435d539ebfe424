//! The binomial significance model (Section III-B of the paper).
//!
//! A random vector is a Bernoulli trial for `x` ("x occurs in it" =
//! success, probability `P(x)` from the priors); a database of `m` vectors
//! gives `Bin(m, P(x))` as the null distribution of `x`'s support (Eqn. 5).
//! The p-value of observed support `mu_0` is the upper tail (Eqn. 6),
//! evaluated by `graphsig-stats` through the regularized incomplete beta
//! reduction for every `m`. The paper's normal approximation "when both
//! mP(x) and m(1-P(x)) are large" is not used: it is close in absolute
//! terms only, and output is sorted by p-value.

use crate::priors::Priors;
use graphsig_stats::binomial_tail_upper;

/// Significance model bound to one vector database.
#[derive(Debug, Clone)]
pub struct SignificanceModel {
    priors: Priors,
    /// Number of trials `m` (the database size).
    m: u64,
}

impl SignificanceModel {
    /// Build the model from the vector database itself: priors estimated
    /// empirically, trials = database size. This is exactly how GraphSig
    /// evaluates each label group `D_a`.
    pub fn from_vectors(db: &[Vec<u8>], max_bin: u8) -> Self {
        Self {
            priors: Priors::from_vectors(db, max_bin),
            m: db.len() as u64,
        }
    }

    /// Build from pre-computed priors and an explicit trial count.
    pub fn new(priors: Priors, m: u64) -> Self {
        Self { priors, m }
    }

    /// The estimated priors.
    pub fn priors(&self) -> &Priors {
        &self.priors
    }

    /// Number of trials `m`.
    pub fn trials(&self) -> u64 {
        self.m
    }

    /// `P(x)`: probability of `x` occurring in a random vector (Eqn. 4).
    pub fn prob_of_vector(&self, x: &[u8]) -> f64 {
        self.priors.prob_of_vector(x)
    }

    /// Expected support `m * P(x)` of `x` in a random database.
    pub fn expected_support(&self, x: &[u8]) -> f64 {
        self.m as f64 * self.prob_of_vector(x)
    }

    /// The p-value of `x` at observed support `mu_0` (Eqn. 6):
    /// `P(support >= mu_0)` under `Bin(m, P(x))`.
    pub fn p_value(&self, x: &[u8], observed_support: u64) -> f64 {
        binomial_tail_upper(self.m, self.prob_of_vector(x), observed_support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::is_sub_vector;

    /// Table I of the paper.
    fn table1() -> Vec<Vec<u8>> {
        vec![
            vec![1, 0, 0, 2],
            vec![1, 1, 0, 2],
            vec![2, 0, 1, 2],
            vec![1, 0, 1, 0],
        ]
    }

    fn model() -> SignificanceModel {
        SignificanceModel::from_vectors(&table1(), 10)
    }

    #[test]
    fn v2_pvalue_closed_form() {
        // P(v2) = 3/16; support of v2 in Table I is 1 (only v2 itself).
        // p = P(Bin(4, 3/16) >= 1) = 1 - (13/16)^4.
        let m = model();
        let v2 = vec![1u8, 1, 0, 2];
        let expect = 1.0 - (13.0f64 / 16.0).powi(4);
        assert!((m.p_value(&v2, 1) - expect).abs() < 1e-12);
    }

    #[test]
    fn expected_support_matches_probability() {
        let m = model();
        let v2 = vec![1u8, 1, 0, 2];
        assert!((m.expected_support(&v2) - 4.0 * 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn monotonicity_in_subvector_order() {
        // Paper property 1: x ⊆ y  ⇒  p-value(x, mu) >= p-value(y, mu).
        let m = model();
        let x = vec![1u8, 0, 0, 0];
        let y = vec![1u8, 1, 0, 2];
        assert!(is_sub_vector(&x, &y));
        for mu in 0..=4u64 {
            assert!(m.p_value(&x, mu) >= m.p_value(&y, mu) - 1e-12, "mu={mu}");
        }
    }

    #[test]
    fn monotonicity_in_support() {
        // Paper property 2: mu1 >= mu2  ⇒  p-value(x, mu1) <= p-value(x, mu2).
        let m = model();
        let x = vec![1u8, 1, 0, 2];
        let mut prev = f64::INFINITY;
        for mu in 0..=4u64 {
            let p = m.p_value(&x, mu);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn support_zero_gives_pvalue_one() {
        let m = model();
        assert_eq!(m.p_value(&[1, 1, 0, 2], 0), 1.0);
    }

    #[test]
    fn impossible_vector_has_pvalue_zero_for_positive_support() {
        // A bin value never reached in the database: P(x)=0.
        let m = model();
        let x = vec![9u8, 0, 0, 0];
        assert_eq!(m.prob_of_vector(&x), 0.0);
        assert_eq!(m.p_value(&x, 1), 0.0);
        assert_eq!(m.p_value(&x, 0), 1.0);
    }

    #[test]
    fn zero_vector_is_never_significant() {
        // P(zero vector) = 1 → any support has p-value 1.
        let m = model();
        for mu in 0..=4u64 {
            assert!((m.p_value(&[0, 0, 0, 0], mu) - 1.0).abs() < 1e-12);
        }
    }
}
