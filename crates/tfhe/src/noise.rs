//! Empirical noise measurement (paper Table 3).
//!
//! Table 3 compares the noise budget of classic BKU (`m = 2`) against
//! MATCHA's aggressive unrolling: external-product and rounding noise fall
//! like `1/m` (fewer sequential steps), while bootstrapping-key noise grows
//! like `2^m − 1` (more keys summed per bundle) and the approximate FFT adds
//! a floor around −141 dB. This module measures those quantities directly
//! on ciphertexts instead of trusting the analytic formulas.

use crate::bootstrap::BootstrapKit;
use crate::lwe::LweCiphertext;
use crate::secret::ClientKey;
use matcha_fft::FftEngine;
use matcha_math::{stats, Torus32};
use rand::Rng;

/// Summary statistics of measured phase noise (torus units).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseStats {
    /// Mean signed error.
    pub mean: f64,
    /// Standard deviation of the error.
    pub stdev: f64,
    /// Largest absolute error observed.
    pub max_abs: f64,
    /// Number of samples measured.
    pub samples: usize,
}

impl NoiseStats {
    /// Builds the summary from raw signed errors.
    fn from_errors(errors: &[f64]) -> Self {
        Self {
            mean: stats::mean(errors),
            stdev: stats::stdev(errors),
            max_abs: stats::max_abs(errors),
            samples: errors.len(),
        }
    }
}

/// Measures fresh-encryption noise: the baseline every other measurement
/// is compared against.
pub fn fresh_noise<R: Rng>(client: &ClientKey, trials: usize, rng: &mut R) -> NoiseStats {
    let errors: Vec<f64> = (0..trials)
        .map(|i| {
            let msg = i % 2 == 0;
            let c = client.encrypt_with(msg, rng);
            client.noise_of(&c, msg)
        })
        .collect();
    NoiseStats::from_errors(&errors)
}

/// Measures post-bootstrap noise: encrypt, bootstrap to `±1/8`, compare to
/// the exact plaintext under the extracted key. The bootstrap switches its
/// input first, so what its output carries is the blind rotation's EP,
/// rounding, key and (for approximate engines) FFT noise — the rows of
/// Table 3 — and no key switch; the switch's noise is paid inside the next
/// decision instead. The harness accepts samples below `1/16`.
pub fn bootstrap_noise<E: FftEngine, R: Rng>(
    client: &ClientKey,
    kit: &BootstrapKit<E>,
    engine: &E,
    trials: usize,
    rng: &mut R,
) -> NoiseStats {
    let mu = Torus32::from_dyadic(1, 3);
    let mut scratch = kit.make_scratch(engine);
    let mut out = LweCiphertext::default();
    let errors: Vec<f64> = (0..trials)
        .map(|i| {
            let msg = i % 2 == 0;
            let c = client.encrypt_with(msg, rng);
            kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);
            client.noise_of(&out, msg)
        })
        .collect();
    NoiseStats::from_errors(&errors)
}

/// Decryption failure probe: runs `trials` NAND-style bootstraps and counts
/// wrong decryptions (the paper's "no decryption failure in 10⁸ gates"
/// experiment, scaled down).
pub fn failure_count<E: FftEngine, R: Rng>(
    client: &ClientKey,
    kit: &BootstrapKit<E>,
    engine: &E,
    trials: usize,
    rng: &mut R,
) -> usize {
    let mu = Torus32::from_dyadic(1, 3);
    let eighth = LweCiphertext::trivial(mu, client.params().ring_degree);
    let mut scratch = kit.make_scratch(engine);
    let mut out = LweCiphertext::default();
    (0..trials)
        .filter(|&i| {
            let a = i % 2 == 0;
            let b = (i / 2) % 2 == 0;
            let ca = client.encrypt_with(a, rng);
            let cb = client.encrypt_with(b, rng);
            let lin = eighth.clone() - &ca - &cb;
            kit.bootstrap_into(engine, &lin, mu, &mut out, &mut scratch);
            client.decrypt(&out) == (a && b)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterSet;
    use matcha_fft::F64Fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ClientKey, BootstrapKit<F64Fft>, F64Fft, StdRng) {
        let mut rng = StdRng::seed_from_u64(61);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
        (client, kit, engine, rng)
    }

    #[test]
    fn fresh_noise_matches_parameter() {
        let mut rng = StdRng::seed_from_u64(62);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let stats = fresh_noise(&client, 400, &mut rng);
        let sigma = client.params().ring_noise_stdev;
        assert!(stats.mean.abs() < 3.0 * sigma, "mean {}", stats.mean);
        assert!(
            stats.stdev > sigma / 3.0 && stats.stdev < sigma * 3.0,
            "stdev {} vs parameter {sigma}",
            stats.stdev
        );
    }

    #[test]
    fn bootstrap_noise_below_margin() {
        let (client, kit, engine, mut rng) = setup();
        let stats = bootstrap_noise(&client, &kit, &engine, 8, &mut rng);
        assert_eq!(stats.samples, 8);
        assert!(stats.max_abs < 1.0 / 16.0, "max noise {}", stats.max_abs);
        assert!(stats.stdev > 0.0);
    }

    #[test]
    fn no_failures_at_test_parameters() {
        let (client, kit, engine, mut rng) = setup();
        assert_eq!(failure_count(&client, &kit, &engine, 16, &mut rng), 0);
    }
}
