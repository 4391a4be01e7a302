//! Exact Zipf distribution over ranked keys (Eq. 3 and 5).
//!
//! `prob(rank) = rank^{-α} / Σ_{x=1}^{keys} x^{-α}`, ranks are **1-based** as
//! in the paper. The distribution pre-computes the CDF once (O(n)) and then
//! supports O(log n) sampling and O(1) pmf/head-mass queries.

use crate::kahan::KahanSum;
use rand::Rng;

/// A Zipf distribution over `{1, …, n}` with exponent `alpha`.
#[derive(Clone, Debug)]
pub struct ZipfDistribution {
    n: usize,
    alpha: f64,
    /// `cdf[r-1]` = P(rank ≤ r); `cdf[n-1] == 1.0` exactly (renormalized).
    cdf: Vec<f64>,
    /// Normalization constant `Σ x^-α` (generalized harmonic number).
    harmonic: f64,
}

impl ZipfDistribution {
    /// Builds the distribution.
    ///
    /// # Errors
    /// Returns an error if `n == 0` or `alpha` is not finite/non-negative.
    /// (`alpha == 0` degenerates to the uniform distribution, which is
    /// legal and useful in tests.)
    pub fn new(n: usize, alpha: f64) -> pdht_types::Result<Self> {
        if n == 0 {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "keys",
                reason: "Zipf distribution needs at least one key".into(),
            });
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "alpha",
                reason: format!("alpha must be finite and >= 0, got {alpha}"),
            });
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = KahanSum::new();
        for rank in 1..=n {
            acc.add((rank as f64).powf(-alpha));
            cdf.push(acc.total());
        }
        let harmonic = acc.total();
        // Renormalize so the last entry is exactly 1.0; sampling then never
        // falls off the end.
        let inv = 1.0 / harmonic;
        for c in &mut cdf {
            *c *= inv;
        }
        *cdf.last_mut().expect("n >= 1") = 1.0;
        Ok(ZipfDistribution { n, alpha, cdf, harmonic })
    }

    /// Number of ranks.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The exponent α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The normalization constant `Σ_{x=1}^{n} x^{-α}`.
    #[inline]
    pub fn harmonic(&self) -> f64 {
        self.harmonic
    }

    /// Eq. 3: probability of a query hitting the key at `rank` (1-based).
    ///
    /// # Panics
    /// Panics if `rank` is 0 or exceeds `n`.
    #[inline]
    pub fn prob(&self, rank: usize) -> f64 {
        assert!((1..=self.n).contains(&rank), "rank {rank} out of 1..={}", self.n);
        (rank as f64).powf(-self.alpha) / self.harmonic
    }

    /// P(rank ≤ r): cumulative probability of the top `r` ranks.
    /// `head_mass(0) == 0`, `head_mass(n) == 1`.
    ///
    /// This is Eq. 5's `pIndxd` when `r = maxRank`.
    #[inline]
    pub fn head_mass(&self, r: usize) -> f64 {
        assert!(r <= self.n, "r {r} out of 0..={}", self.n);
        if r == 0 {
            0.0
        } else {
            self.cdf[r - 1]
        }
    }

    /// Draws a rank (1-based) by CDF inversion; O(log n).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // partition_point returns the count of entries < u, i.e. the
        // 0-based index of the first cdf entry >= u; +1 makes it a rank.
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dist(n: usize, alpha: f64) -> ZipfDistribution {
        ZipfDistribution::new(n, alpha).expect("valid params")
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, a) in &[(1usize, 1.2), (10, 0.0), (1000, 0.8), (40_000, 1.2)] {
            let d = dist(n, a);
            let total: f64 = (1..=n).map(|r| d.prob(r)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} a={a} total={total}");
        }
    }

    #[test]
    fn pmf_is_monotone_nonincreasing() {
        let d = dist(500, 1.2);
        for r in 1..500 {
            assert!(d.prob(r) >= d.prob(r + 1));
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let d = dist(8, 0.0);
        for r in 1..=8 {
            assert!((d.prob(r) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn head_mass_endpoints_and_monotonicity() {
        let d = dist(100, 1.2);
        assert_eq!(d.head_mass(0), 0.0);
        assert!((d.head_mass(100) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for r in 1..=100 {
            let h = d.head_mass(r);
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn head_mass_matches_pmf_partial_sums() {
        let d = dist(64, 1.2);
        let mut acc = 0.0;
        for r in 1..=64 {
            acc += d.prob(r);
            assert!((d.head_mass(r) - acc).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_scenario_head_is_heavy() {
        // With α = 1.2 over 40 000 keys, a small head carries most queries
        // (the effect behind Fig. 3: "even a small index can answer a high
        // percentage of queries").
        let d = dist(40_000, 1.2);
        let one_percent = d.head_mass(400);
        assert!(one_percent > 0.55, "top 1% should cover >55% of queries, got {one_percent}");
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = dist(50, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let n_draws = 200_000usize;
        let mut counts = vec![0u32; 51];
        for _ in 0..n_draws {
            let r = d.sample(&mut rng);
            assert!((1..=50).contains(&r));
            counts[r] += 1;
        }
        // Chi-square-ish sanity: empirical frequency within 5 standard
        // deviations of expectation for the head ranks.
        for (r, &count) in counts.iter().enumerate().take(11).skip(1) {
            let p = d.prob(r);
            let expect = p * n_draws as f64;
            let sd = (n_draws as f64 * p * (1.0 - p)).sqrt();
            let got = f64::from(count);
            assert!(
                (got - expect).abs() < 5.0 * sd,
                "rank {r}: got {got}, expected {expect} ± {sd}"
            );
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(ZipfDistribution::new(0, 1.2).is_err());
        assert!(ZipfDistribution::new(10, f64::NAN).is_err());
        assert!(ZipfDistribution::new(10, -0.5).is_err());
    }

    #[test]
    fn single_key_degenerate_case() {
        let d = dist(1, 1.2);
        assert_eq!(d.prob(1), 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 1);
    }
}
