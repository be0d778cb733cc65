//! TFHE parameter sets.
//!
//! The paper evaluates with the 110-bit-security parameters of the TFHE
//! reference library: ring degree `N = 1024`, TLWE dimension `k = 1`,
//! decomposition base `Bg = 1024` with length `ℓ = 3` (§5). The remaining
//! values (LWE dimension, noise rates, key-switch base/length) come from the
//! library's default gate-bootstrapping set. Small `TEST_*` sets keep the
//! unit-test suite fast; they offer no security.

/// A complete TFHE gate-bootstrapping parameter set.
///
/// # Examples
///
/// ```
/// use matcha_tfhe::params::ParameterSet;
///
/// let p = ParameterSet::MATCHA;
/// assert_eq!(p.ring_degree, 1024);
/// assert_eq!(p.decomp_levels, 3);
/// p.validate().expect("paper parameters are consistent");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParameterSet {
    /// LWE dimension `n` (size of the gate-level ciphertext mask).
    pub lwe_dimension: usize,
    /// Ring degree `N` of `T_N[X]` (power of two).
    pub ring_degree: usize,
    /// Gaussian noise stdev of fresh gate-level LWE samples (and of the
    /// key-switching key).
    pub lwe_noise_stdev: f64,
    /// Gaussian noise stdev of the ring (bootstrapping-key) samples.
    pub ring_noise_stdev: f64,
    /// `log2(Bg)`: TGSW gadget decomposition base.
    pub decomp_base_log: u32,
    /// `ℓ`: TGSW gadget decomposition length.
    pub decomp_levels: usize,
    /// `log2` of the key-switching decomposition base.
    pub ks_base_log: u32,
    /// Key-switching decomposition length `t`.
    pub ks_levels: usize,
}

impl ParameterSet {
    /// The paper's evaluation parameters (§5): 110-bit security,
    /// `N = 1024`, `k = 1`, `Bg = 1024`, `ℓ = 3`; LWE side from the TFHE
    /// library defaults.
    pub const MATCHA: Self = Self {
        lwe_dimension: 500,
        ring_degree: 1024,
        lwe_noise_stdev: 2.44e-5,
        ring_noise_stdev: 7.18e-9,
        decomp_base_log: 10,
        decomp_levels: 3,
        ks_base_log: 2,
        ks_levels: 8,
    };

    /// Fast, insecure parameters for unit tests: small dimensions, tiny
    /// noise, comfortable correctness margins.
    pub const TEST_FAST: Self = Self {
        lwe_dimension: 16,
        ring_degree: 256,
        lwe_noise_stdev: 1e-7,
        ring_noise_stdev: 1e-9,
        decomp_base_log: 8,
        decomp_levels: 3,
        ks_base_log: 2,
        ks_levels: 8,
    };

    /// Medium-size insecure parameters: large enough to exercise realistic
    /// noise growth, small enough for integration tests.
    pub const TEST_MEDIUM: Self = Self {
        lwe_dimension: 64,
        ring_degree: 512,
        lwe_noise_stdev: 1e-6,
        ring_noise_stdev: 1e-9,
        decomp_base_log: 9,
        decomp_levels: 3,
        ks_base_log: 2,
        ks_levels: 8,
    };

    /// `2N`: the order of `X` in the negacyclic ring, and the modulus the
    /// bootstrap rounding step switches to.
    #[inline]
    pub const fn two_n(&self) -> u32 {
        2 * self.ring_degree as u32
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// non-power-of-two ring degree, zero dimensions, decompositions that
    /// exceed the 32-bit torus (a base `2^γ` must itself fit a `u32`, so
    /// `γ ≥ 32` fails even with one level), or non-positive noise rates.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ring_degree.is_power_of_two() || self.ring_degree < 4 {
            return Err(format!(
                "ring degree {} must be a power of two ≥ 4",
                self.ring_degree
            ));
        }
        if self.lwe_dimension == 0 {
            return Err("lwe dimension must be nonzero".into());
        }
        if self.decomp_levels == 0 || self.decomp_base_log == 0 {
            return Err("TGSW decomposition must be nonzero".into());
        }
        if self.decomp_base_log >= 32 || self.decomp_base_log as usize * self.decomp_levels > 32 {
            return Err(format!(
                "TGSW decomposition {}×{} exceeds the 32-bit torus",
                self.decomp_base_log, self.decomp_levels
            ));
        }
        if self.ks_levels == 0 || self.ks_base_log == 0 {
            return Err("key-switch decomposition must be nonzero".into());
        }
        if self.ks_base_log >= 32 || self.ks_base_log as usize * self.ks_levels > 32 {
            return Err(format!(
                "key-switch decomposition {}×{} exceeds the 32-bit torus",
                self.ks_base_log, self.ks_levels
            ));
        }
        if self.lwe_noise_stdev <= 0.0 || self.ring_noise_stdev <= 0.0 {
            return Err("noise rates must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for p in [
            ParameterSet::MATCHA,
            ParameterSet::TEST_FAST,
            ParameterSet::TEST_MEDIUM,
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn matcha_matches_paper_section_5() {
        let p = ParameterSet::MATCHA;
        assert_eq!(p.ring_degree, 1024);
        assert_eq!(1u32 << p.decomp_base_log, 1024); // Bg = 1024
        assert_eq!(p.decomp_levels, 3); // ℓ = 3
        assert_eq!(p.two_n(), 2048);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut p = ParameterSet::MATCHA;
        p.ring_degree = 1000;
        assert!(p.validate().is_err());

        let mut p = ParameterSet::MATCHA;
        p.decomp_base_log = 16;
        p.decomp_levels = 3;
        assert!(p.validate().is_err());

        let mut p = ParameterSet::MATCHA;
        p.lwe_noise_stdev = 0.0;
        assert!(p.validate().is_err());
    }
}
