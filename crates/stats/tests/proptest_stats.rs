//! Property-based tests for the numerical substrate.

use proptest::prelude::*;

use graphsig_stats::{betainc_regularized, binomial_tail_upper, ln_choose, ln_gamma};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gamma_recurrence(x in 0.1f64..1e5) {
        // ln Γ(x+1) = ln Γ(x) + ln x.
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn choose_symmetry(n in 0u64..1000, k in 0u64..1000) {
        prop_assume!(k <= n);
        let a = ln_choose(n, k);
        let b = ln_choose(n, n - k);
        prop_assert!((a - b).abs() < 1e-8 * a.abs().max(1.0));
    }

    #[test]
    fn choose_pascal_rule(n in 1u64..300, k in 1u64..300) {
        prop_assume!(k <= n);
        // C(n+1, k) = C(n, k) + C(n, k-1), verified in linear space via
        // log-sum-exp.
        let lhs = ln_choose(n + 1, k);
        let a = ln_choose(n, k);
        let b = ln_choose(n, k - 1);
        let m = a.max(b);
        let rhs = m + ((a - m).exp() + (b - m).exp()).ln();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn betainc_bounds_and_symmetry(x in 0.0f64..=1.0, a in 0.1f64..50.0, b in 0.1f64..50.0) {
        let v = betainc_regularized(x, a, b);
        prop_assert!((0.0..=1.0).contains(&v));
        let w = betainc_regularized(1.0 - x, b, a);
        prop_assert!((v + w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn betainc_monotone_in_x(a in 0.2f64..20.0, b in 0.2f64..20.0, x in 0.0f64..0.99) {
        let dx = 0.01;
        prop_assert!(
            betainc_regularized(x, a, b) <= betainc_regularized(x + dx, a, b) + 1e-12
        );
    }

    #[test]
    fn binomial_tail_complements_cdf(n in 1u64..200, p in 0.0f64..1.0, k in 1u64..200) {
        prop_assume!(k <= n);
        // P(X >= k) + P(X <= k-1) = 1; compute the lower side by summation.
        let upper = binomial_tail_upper(n, p, k);
        let lower: f64 = (0..k).map(|i| graphsig_stats::binomial::pmf(n, p, i)).sum();
        prop_assert!((upper + lower - 1.0).abs() < 1e-6);
    }

    #[test]
    fn binomial_tail_antimonotone_in_k(n in 1u64..500, p in 0.0f64..1.0, k in 0u64..499) {
        prop_assert!(
            binomial_tail_upper(n, p, k + 1) <= binomial_tail_upper(n, p, k) + 1e-12
        );
    }

    #[test]
    fn binomial_tail_monotone_in_p(n in 1u64..500, k in 1u64..500, p in 0.0f64..0.99) {
        prop_assume!(k <= n);
        prop_assert!(
            binomial_tail_upper(n, p, k) <= binomial_tail_upper(n, p + 0.01, k) + 1e-9
        );
    }
}
