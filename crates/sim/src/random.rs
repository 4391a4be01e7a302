//! Distribution sampling on top of plain `rand`.
//!
//! The offline crate set has no `rand_distr`, so the distributions the
//! simulators need are implemented here: exponential (churn session lengths,
//! Poisson inter-arrivals), Poisson counts (queries per round), and the
//! standard normal behind both the Poisson approximation and log-normal
//! latencies.

use rand::Rng;

/// Samples `Exp(rate)`: mean `1/rate`.
///
/// # Panics
/// Panics if `rate` is not strictly positive and finite.
#[inline]
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate.is_finite() && rate > 0.0, "exp rate must be positive, got {rate}");
    // Inverse CDF; `random` yields [0,1), so `1-u` is (0,1] and ln is finite.
    let u: f64 = rng.random();
    -f64::ln_1p(-u) / rate
}

/// Samples a Poisson count with mean `lambda`.
///
/// Knuth's product method for small `lambda`; for `lambda > 30` a normal
/// approximation with continuity correction (exact enough for workload
/// generation, and O(1)).
///
/// # Panics
/// Panics if `lambda` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0, got {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation N(lambda, lambda).
        let z = standard_normal(rng);
        let x = lambda + lambda.sqrt() * z + 0.5;
        if x < 0.0 {
            0
        } else {
            x.floor() as u64
        }
    }
}

/// Standard normal via Box–Muller (one value; the pair's twin is discarded
/// for simplicity — sampling is not a hot path).
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.random();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng();
        let rate = 0.25;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, rate)).sum::<f64>() / f64::from(n);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean} should be ~4");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(exponential(&mut r, 3.0) >= 0.0);
        }
    }

    #[test]
    fn poisson_small_lambda_mean_and_variance() {
        let mut r = rng();
        let lambda = 3.7;
        let n = 100_000usize;
        let samples: Vec<u64> = (0..n).map(|_| poisson(&mut r, lambda)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert!((var - lambda).abs() < 0.15, "variance {var}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_path() {
        let mut r = rng();
        let lambda = 500.0;
        let n = 20_000usize;
        let mean = (0..n).map(|_| poisson(&mut r, lambda)).sum::<u64>() as f64 / n as f64;
        assert!((mean - lambda).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 200_000usize;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "exp rate must be positive")]
    fn exponential_rejects_zero_rate() {
        exponential(&mut rng(), 0.0);
    }
}
