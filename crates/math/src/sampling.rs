//! Random sampling for TFHE: uniform torus elements, binary secrets, and
//! Gaussian noise on the torus.
//!
//! Gaussian sampling uses the Box–Muller transform so that the crate needs
//! no distribution library beyond `rand`'s uniform source. TFHE noise
//! standard deviations are tiny (`≈ 2^-25`), far below the `2^-32` torus
//! quantum times a few thousand samples — double precision is ample.

use crate::poly::TorusPolynomial;
use crate::torus::Torus32;
use rand::Rng;

/// A sampler bundling the random distributions used by the scheme.
///
/// The sampler is generic over any [`rand::Rng`], so deterministic tests can
/// seed a `StdRng` while production uses an OS-backed generator.
///
/// # Examples
///
/// ```
/// use matcha_math::TorusSampler;
/// use rand::SeedableRng;
///
/// let mut sampler = TorusSampler::new(rand::rngs::StdRng::seed_from_u64(7));
/// let key: Vec<bool> = sampler.binary_vector(16);
/// assert_eq!(key.len(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct TorusSampler<R: Rng> {
    rng: R,
}

impl<R: Rng> TorusSampler<R> {
    /// Wraps a random generator.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }

    /// A uniformly random torus element.
    #[inline]
    pub fn uniform(&mut self) -> Torus32 {
        Torus32::from_raw(self.rng.gen::<u32>())
    }

    /// A uniformly random torus polynomial of degree bound `n`.
    pub fn uniform_poly(&mut self, n: usize) -> TorusPolynomial {
        TorusPolynomial::from_coeffs((0..n).map(|_| self.uniform()).collect())
    }

    /// A uniformly random bit.
    #[inline]
    pub fn binary(&mut self) -> bool {
        self.rng.gen::<bool>()
    }

    /// A uniformly random binary vector (LWE secret key).
    pub fn binary_vector(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.binary()).collect()
    }

    /// A centered Gaussian real sample with standard deviation `stdev`,
    /// via Box–Muller.
    ///
    /// Box–Muller needs `u1 ∈ (0, 1]`: `u1 = 0` would make
    /// `(-2·ln u1).sqrt()` infinite, and `Torus32::from_f64` would then
    /// silently saturate the NaN/∞ noise sample. A `[0, 1)` draw is
    /// reflected to `(0, 1]`, and a redraw guard keeps the invariant even
    /// for generators whose `f64` distribution can return exactly `1.0`.
    fn gaussian_f64(&mut self, stdev: f64) -> f64 {
        let u1: f64 = loop {
            let u = 1.0 - self.rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        let u2: f64 = self.rng.gen::<f64>();
        stdev * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A torus element sampled from the centered Gaussian of standard
    /// deviation `stdev` (reduced mod 1).
    #[inline]
    fn gaussian(&mut self, stdev: f64) -> Torus32 {
        Torus32::from_f64(self.gaussian_f64(stdev))
    }

    /// `mu + e` with `e ← N(0, stdev²)`: the noisy embedding used by every
    /// encryption in the scheme.
    #[inline]
    pub fn gaussian_around(&mut self, mu: Torus32, stdev: f64) -> Torus32 {
        mu + self.gaussian(stdev)
    }

    /// A torus polynomial with i.i.d. Gaussian coefficients.
    pub fn gaussian_poly(&mut self, n: usize, stdev: f64) -> TorusPolynomial {
        TorusPolynomial::from_coeffs((0..n).map(|_| self.gaussian(stdev)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(seed: u64) -> TorusSampler<StdRng> {
        TorusSampler::new(StdRng::seed_from_u64(seed))
    }

    #[test]
    fn gaussian_moments() {
        let mut s = sampler(42);
        let stdev = 1e-3;
        let xs: Vec<f64> = (0..20_000).map(|_| s.gaussian_f64(stdev)).collect();
        let mean = stats::mean(&xs);
        let sd = stats::stdev(&xs);
        assert!(mean.abs() < 5e-5, "mean {mean} too far from 0");
        assert!(
            (sd - stdev).abs() / stdev < 0.05,
            "stdev {sd} vs expected {stdev}"
        );
    }

    /// Adversarial generator driving the uniform source to its extremes:
    /// alternating all-ones / all-zero words, so `gen::<f64>()` hits both
    /// its largest representable value and exactly `0.0`.
    struct ExtremeRng {
        flip: bool,
    }

    impl rand::RngCore for ExtremeRng {
        fn next_u64(&mut self) -> u64 {
            self.flip = !self.flip;
            if self.flip {
                u64::MAX
            } else {
                0
            }
        }
    }

    /// Regression: the Box–Muller draw must stay finite at the extreme ends
    /// of the uniform source — `u1` must never reach 0 (infinite radius) —
    /// and the resulting torus sample must not silently saturate.
    #[test]
    fn gaussian_is_finite_at_uniform_extremes() {
        let mut s = TorusSampler::new(ExtremeRng { flip: false });
        for i in 0..64 {
            let x = s.gaussian_f64(1e-5);
            assert!(x.is_finite(), "draw {i} produced non-finite sample {x}");
            assert!(x.abs() < 1.0, "draw {i}: |{x}| not a plausible noise");
        }
        // A long run through the real generator never produces a
        // non-finite sample either.
        let mut s = sampler(77);
        for _ in 0..100_000 {
            assert!(s.gaussian_f64(1e-7).is_finite());
        }
    }

    #[test]
    fn uniform_covers_both_halves() {
        let mut s = sampler(1);
        let (mut pos, mut neg) = (0, 0);
        for _ in 0..1000 {
            if s.uniform().to_f64() >= 0.0 {
                pos += 1;
            } else {
                neg += 1;
            }
        }
        assert!(pos > 350 && neg > 350, "uniform looks biased: {pos}/{neg}");
    }

    #[test]
    fn binary_vector_is_balanced() {
        let mut s = sampler(2);
        let v = s.binary_vector(2000);
        let ones = v.iter().filter(|&&b| b).count();
        assert!(ones > 800 && ones < 1200, "binary key biased: {ones}/2000");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = sampler(9);
        let mut b = sampler(9);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn gaussian_around_centers_on_mu() {
        let mut s = sampler(3);
        let mu = Torus32::from_f64(0.25);
        let diffs: Vec<f64> = (0..5000)
            .map(|_| s.gaussian_around(mu, 1e-5).signed_diff(mu))
            .collect();
        assert!(stats::mean(&diffs).abs() < 1e-6);
    }
}
