//! Secret key material: the LWE key, the ring (bootstrapping) key, and the
//! client-side bundle of both with the key extracted from the ring key.

use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use matcha_math::{IntPolynomial, Torus32, TorusSampler};
use rand::Rng;

/// A binary LWE secret key `s ∈ B^n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LweSecretKey {
    bits: Vec<bool>,
}

impl LweSecretKey {
    /// Samples a uniform binary key of dimension `n`.
    pub fn generate<R: Rng>(n: usize, sampler: &mut TorusSampler<R>) -> Self {
        Self {
            bits: sampler.binary_vector(n),
        }
    }

    /// Builds a key from explicit bits (used by `KeyExtract`).
    fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Key dimension `n`.
    pub(crate) fn dimension(&self) -> usize {
        self.bits.len()
    }

    /// The key bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The inner product `⟨a, s⟩` over the torus: a wrapping sum of the
    /// entries masked by their key bits, with no branch on a bit.
    pub(crate) fn dot(&self, a: &[Torus32]) -> Torus32 {
        debug_assert_eq!(a.len(), self.bits.len());
        let sum = a.iter().zip(&self.bits).fold(0u32, |acc, (&ai, &s)| {
            acc.wrapping_add(ai.raw() & u32::from(s).wrapping_neg())
        });
        Torus32::from_raw(sum)
    }
}

/// A binary ring secret key `s″ ∈ B_N[X]` (TLWE key with `k = 1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingSecretKey {
    poly: IntPolynomial,
}

impl RingSecretKey {
    /// Samples a uniform binary polynomial key of degree bound `n`.
    pub fn generate<R: Rng>(n: usize, sampler: &mut TorusSampler<R>) -> Self {
        let coeffs = (0..n).map(|_| i32::from(sampler.binary())).collect();
        Self {
            poly: IntPolynomial::from_coeffs(coeffs),
        }
    }

    /// Ring degree `N`.
    pub(crate) fn ring_degree(&self) -> usize {
        self.poly.len()
    }

    /// The key as an integer polynomial (for `s·a` products).
    pub fn as_poly(&self) -> &IntPolynomial {
        &self.poly
    }

    /// `KeyExtract`: reinterprets the `N` polynomial coefficients as an
    /// LWE key of dimension `N` (Algorithm 1's `s′ = KeyExtract(s″)`).
    pub(crate) fn extract_lwe_key(&self) -> LweSecretKey {
        LweSecretKey::from_bits(self.poly.coeffs().iter().map(|&c| c != 0).collect())
    }
}

/// The client's secret material: the ring key that underlies the
/// bootstrapping and key-switching keys, the LWE key `s` the key switch
/// lands on, and the extracted key `s′ = KeyExtract(s″)` every value the
/// client sees is under.
///
/// A bootstrap runs key switch → blind rotation → sample extraction, so a
/// gate's output is a sample under `s′` of dimension `N`, and so is
/// everything that feeds a gate: a fresh encryption, an unpacked packed bit
/// and a trivial constant. Only the blind rotation's own input, inside a
/// bootstrap, is under `s`.
#[derive(Clone, Debug)]
pub struct ClientKey {
    params: ParameterSet,
    lwe_key: LweSecretKey,
    ring_key: RingSecretKey,
    extracted_key: LweSecretKey,
}

impl ClientKey {
    /// Generates fresh client keys for `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`ParameterSet::validate`].
    ///
    /// # Examples
    ///
    /// ```
    /// use matcha_tfhe::{ClientKey, params::ParameterSet};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let key = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    /// let c = key.encrypt(true);
    /// assert!(key.decrypt(&c));
    /// ```
    pub fn generate<R: Rng>(params: ParameterSet, rng: &mut R) -> Self {
        params.validate().expect("invalid parameter set");
        let mut sampler = TorusSampler::new(rng);
        let lwe_key = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let ring_key = RingSecretKey::generate(params.ring_degree, &mut sampler);
        let extracted_key = ring_key.extract_lwe_key();
        Self {
            params,
            lwe_key,
            ring_key,
            extracted_key,
        }
    }

    /// The parameter set the keys were generated for.
    pub fn params(&self) -> &ParameterSet {
        &self.params
    }

    /// The LWE key `s` of dimension `n`: what a bootstrap's key switch
    /// lands on and its blind rotation decrypts with.
    pub fn lwe_key(&self) -> &LweSecretKey {
        &self.lwe_key
    }

    /// The ring key.
    pub fn ring_key(&self) -> &RingSecretKey {
        &self.ring_key
    }

    /// The extracted key `s′` of dimension `N`: the key of every value
    /// between gates.
    pub(crate) fn extracted_key(&self) -> &LweSecretKey {
        &self.extracted_key
    }

    /// Encrypts one Boolean under the extracted key
    /// (plaintext `±1/8`, fresh noise `ring_noise_stdev`).
    pub fn encrypt(&self, message: bool) -> LweCiphertext {
        // Deterministic key, fresh randomness from the thread RNG.
        self.encrypt_with(message, &mut rand::thread_rng())
    }

    /// Encrypts with caller-provided randomness (for reproducible tests).
    pub fn encrypt_with<R: Rng>(&self, message: bool, rng: &mut R) -> LweCiphertext {
        self.encrypt_phase(Torus32::from_bool(message), rng)
    }

    /// Encrypts an arbitrary torus plaintext under the extracted key, at
    /// the noise of a fresh sample: the input of a programmable bootstrap.
    pub(crate) fn encrypt_phase<R: Rng>(&self, mu: Torus32, rng: &mut R) -> LweCiphertext {
        let mut sampler = TorusSampler::new(rng);
        LweCiphertext::encrypt(
            mu,
            &self.extracted_key,
            self.params.ring_noise_stdev,
            &mut sampler,
        )
    }

    /// The phase `μ + e` of a sample under the extracted key.
    pub fn phase(&self, c: &LweCiphertext) -> Torus32 {
        c.phase(&self.extracted_key)
    }

    /// Decrypts a sample to its Boolean message.
    pub fn decrypt(&self, c: &LweCiphertext) -> bool {
        self.phase(c).to_bool()
    }

    /// The signed phase error of a ciphertext relative to the exact
    /// plaintext `±1/8` — the noise quantity Table 3 of the paper tracks.
    pub fn noise_of(&self, c: &LweCiphertext, message: bool) -> f64 {
        self.phase(c).signed_diff(Torus32::from_bool(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_extract_preserves_bits() {
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(3));
        let ring = RingSecretKey::generate(64, &mut sampler);
        let lwe = ring.extract_lwe_key();
        assert_eq!(lwe.dimension(), 64);
        for i in 0..64 {
            assert_eq!(lwe.bits()[i], ring.as_poly().coeffs()[i] != 0);
        }
    }

    #[test]
    fn dot_product_counts_selected_entries() {
        let key = LweSecretKey::from_bits(vec![true, false, true]);
        let a = vec![
            Torus32::from_f64(0.125),
            Torus32::from_f64(0.4),
            Torus32::from_f64(0.25),
        ];
        assert_eq!(key.dot(&a), Torus32::from_f64(0.375));
    }

    #[test]
    fn client_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        for msg in [true, false] {
            let c = key.encrypt_with(msg, &mut rng);
            assert_eq!(key.decrypt(&c), msg);
            assert!(key.noise_of(&c, msg).abs() < 1e-4);
        }
    }
}
