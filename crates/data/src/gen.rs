//! Random-variate helpers for the synthetic generators.

use rand::Rng;
use rand::RngExt as _;

/// Standard normal variate (Box–Muller; one value per call, simple and
/// adequate for data generation).
pub fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Take the draws of one [`randn`] call without computing the variate:
/// the stream moves exactly as it would, and no `ln`, `sqrt` or `cos`
/// is paid.
pub(crate) fn skip_randn<R: Rng + ?Sized>(rng: &mut R) {
    box_muller_uniforms(rng);
}

/// The uniform pair a Box–Muller variate is made of, drawn in pairs until
/// `u1 > f64::MIN_POSITIVE`.
fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, u2);
        }
    }
}

/// Normal variate with the given mean and standard deviation.
pub fn randn_with<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * randn(rng)
}

/// Log-normal-ish heavy-tailed positive variate.
pub fn heavy_tail<R: Rng + ?Sized>(rng: &mut R, scale: f64, sigma: f64) -> f64 {
    scale * (sigma * randn(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = randn(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / f64::from(n);
        let var = sum2 / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn randn_with_scales() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += randn_with(&mut rng, 10.0, 2.0);
        }
        assert!((sum / f64::from(n) - 10.0).abs() < 0.1);
    }

    #[test]
    fn heavy_tail_is_positive_and_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..10_000)
            .map(|_| heavy_tail(&mut rng, 1.0, 1.0))
            .collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "heavy tail: mean {mean} > median {median}");
    }
}
