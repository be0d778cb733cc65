//! TRLWE (ring) ciphertexts: `(a, b) ∈ T_N[X] × T_N[X]` with
//! `b = s″·a + μ + e` and the TLWE dimension fixed to `k = 1` as in the
//! paper (§2, "the TLWE sample is simply the Ring-LWE sample").

use crate::lwe::LweCiphertext;
use crate::secret::RingSecretKey;
use matcha_fft::FftEngine;
use matcha_math::{TorusPolynomial, TorusSampler};
use rand::Rng;

/// A TRLWE ciphertext over `T_N[X]` with `k = 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrlweCiphertext {
    a: TorusPolynomial,
    b: TorusPolynomial,
}

impl TrlweCiphertext {
    /// Encrypts a polynomial message under `key` with noise stdev `noise`.
    ///
    /// The `s″·a` product runs through `engine`, so key generation uses the
    /// same FFT kernel as the online phase.
    pub fn encrypt<E: FftEngine, R: Rng>(
        mu: &TorusPolynomial,
        key: &RingSecretKey,
        noise: f64,
        engine: &E,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let n = key.ring_degree();
        debug_assert_eq!(mu.len(), n);
        let a = sampler.uniform_poly(n);
        let mut b = engine.poly_mul(&a, key.as_poly());
        b += mu;
        b += &sampler.gaussian_poly(n, noise);
        Self { a, b }
    }

    /// The noiseless, keyless encryption `(0, μ)`.
    pub fn trivial(mu: TorusPolynomial) -> Self {
        let n = mu.len();
        Self {
            a: TorusPolynomial::zero(n),
            b: mu,
        }
    }

    /// Builds a ciphertext from raw parts.
    pub fn from_parts(a: TorusPolynomial, b: TorusPolynomial) -> Self {
        debug_assert_eq!(a.len(), b.len());
        Self { a, b }
    }

    /// The zero ciphertext `(0, 0)` — a scratch-buffer seed.
    pub fn zero(n: usize) -> Self {
        Self {
            a: TorusPolynomial::zero(n),
            b: TorusPolynomial::zero(n),
        }
    }

    /// Ring degree `N`.
    pub(crate) fn ring_degree(&self) -> usize {
        self.a.len()
    }

    /// The mask polynomial `a`.
    pub fn mask(&self) -> &TorusPolynomial {
        &self.a
    }

    /// The body polynomial `b`.
    pub fn body(&self) -> &TorusPolynomial {
        &self.b
    }

    /// Mutable access to the mask polynomial (in-place pipelines).
    pub(crate) fn mask_mut(&mut self) -> &mut TorusPolynomial {
        &mut self.a
    }

    /// Mutable access to the body polynomial (in-place pipelines).
    pub(crate) fn body_mut(&mut self) -> &mut TorusPolynomial {
        &mut self.b
    }

    /// Both polynomials mutably (for split borrows in the hot path).
    pub(crate) fn parts_mut(&mut self) -> (&mut TorusPolynomial, &mut TorusPolynomial) {
        (&mut self.a, &mut self.b)
    }

    /// The phase `b − s″·a = μ + e`.
    pub fn phase<E: FftEngine>(&self, key: &RingSecretKey, engine: &E) -> TorusPolynomial {
        let sa = engine.poly_mul(&self.a, key.as_poly());
        self.b.clone() - &sa
    }

    /// In-place homomorphic addition.
    #[cfg(test)]
    pub(crate) fn add_assign(&mut self, other: &Self) {
        self.a += &other.a;
        self.b += &other.b;
    }

    /// `SampleExtract` at an arbitrary coefficient index: the LWE
    /// encryption (under the extracted key) of coefficient `index` of the
    /// message polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N`.
    pub fn sample_extract_at(&self, index: usize) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(self.b.coeffs()[index], self.ring_degree());
        self.sample_extract_at_into(index, &mut out);
        out
    }

    /// [`Self::sample_extract_at`] into a caller-owned ciphertext — no
    /// allocation once `out` has dimension `N`.
    pub(crate) fn sample_extract_at_into(&self, index: usize, out: &mut LweCiphertext) {
        let n = self.ring_degree();
        assert!(index < n, "coefficient index {index} out of range");
        let ac = self.a.coeffs();
        let (mask, body) = out.parts_mut();
        mask.clear();
        mask.reserve(n);
        // (a·s)_index = Σ_{j≤index} a_{index−j}·s_j − Σ_{j>index} a_{N+index−j}·s_j.
        for j in 0..n {
            if j <= index {
                mask.push(ac[index - j]);
            } else {
                mask.push(-ac[n + index - j]);
            }
        }
        *body = self.b.coeffs()[index];
    }

    /// `SampleExtract` at index 0 into a caller-owned ciphertext: the LWE
    /// encryption (under the extracted key `s′ = KeyExtract(s″)`) of the
    /// constant coefficient of the message polynomial.
    pub fn sample_extract_into(&self, out: &mut LweCiphertext) {
        self.sample_extract_at_into(0, out);
    }

    /// The spectral (Lagrange-domain) form of this ciphertext.
    pub(crate) fn to_spectrum<E: FftEngine>(&self, engine: &E) -> TrlweSpectrum<E> {
        TrlweSpectrum {
            a: engine.forward_torus(&self.a),
            b: engine.forward_torus(&self.b),
        }
    }
}

/// A TRLWE ciphertext in the Lagrange half-complex domain.
#[derive(Debug)]
pub struct TrlweSpectrum<E: FftEngine> {
    /// Spectrum of the mask polynomial.
    pub a: E::Spectrum,
    /// Spectrum of the body polynomial.
    pub b: E::Spectrum,
}

// Manual impl: spectra are always `Clone`, the engine need not be (the
// derive would demand `E: Clone`, excluding counter-carrying engines).
impl<E: FftEngine> Clone for TrlweSpectrum<E> {
    fn clone(&self) -> Self {
        Self {
            a: self.a.clone(),
            b: self.b.clone(),
        }
    }
}

impl<E: FftEngine> TrlweSpectrum<E> {
    /// Transforms back to the coefficient domain.
    #[cfg(test)]
    pub(crate) fn to_ciphertext(&self, engine: &E) -> TrlweCiphertext {
        TrlweCiphertext {
            a: engine.backward_torus(&self.a),
            b: engine.backward_torus(&self.b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_fft::F64Fft;
    use matcha_math::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 64;

    fn setup() -> (RingSecretKey, F64Fft, TorusSampler<StdRng>) {
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(5));
        let key = RingSecretKey::generate(N, &mut sampler);
        (key, F64Fft::new(N), sampler)
    }

    fn message(seed: u32) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(
            (0..N as u32)
                .map(|i| Torus32::from_dyadic(((i ^ seed) % 8) as i64, 3))
                .collect(),
        )
    }

    #[test]
    fn encrypt_phase_recovers_message() {
        let (key, engine, mut sampler) = setup();
        let mu = message(3);
        let c = TrlweCiphertext::encrypt(&mu, &key, 1e-9, &engine, &mut sampler);
        let phase = c.phase(&key, &engine);
        assert!(phase.max_distance(&mu) < 1e-4);
    }

    #[test]
    fn trivial_phase_is_exact_message() {
        let (key, engine, _) = setup();
        let mu = message(1);
        let c = TrlweCiphertext::trivial(mu.clone());
        assert!(c.phase(&key, &engine).max_distance(&mu) < 1e-7);
    }

    #[test]
    fn rotation_rotates_message() {
        let (key, engine, mut sampler) = setup();
        let mu = message(7);
        let c = TrlweCiphertext::encrypt(&mu, &key, 1e-9, &engine, &mut sampler);
        // The way blind rotation stages an accumulator: each polynomial
        // rotated into a caller-owned buffer.
        let mut rotated = TrlweCiphertext::zero(N);
        rotated.mask_mut().rotate_from(c.mask(), 5);
        rotated.body_mut().rotate_from(c.body(), 5);
        let expected = mu.mul_by_monomial(5);
        assert!(rotated.phase(&key, &engine).max_distance(&expected) < 1e-4);
    }

    #[test]
    fn addition_adds_messages() {
        let (key, engine, mut sampler) = setup();
        let (m1, m2) = (message(2), message(9));
        let mut c1 = TrlweCiphertext::encrypt(&m1, &key, 1e-9, &engine, &mut sampler);
        let c2 = TrlweCiphertext::encrypt(&m2, &key, 1e-9, &engine, &mut sampler);
        c1.add_assign(&c2);
        let expected = m1 + &m2;
        assert!(c1.phase(&key, &engine).max_distance(&expected) < 1e-4);
    }

    #[test]
    fn sample_extract_gets_constant_coefficient() {
        let (key, engine, mut sampler) = setup();
        let mu = message(4);
        let c = TrlweCiphertext::encrypt(&mu, &key, 1e-9, &engine, &mut sampler);
        let mut lwe = LweCiphertext::default();
        c.sample_extract_into(&mut lwe);
        let extracted_key = key.extract_lwe_key();
        let phase = lwe.phase(&extracted_key);
        assert!(phase.signed_diff(mu.coeffs()[0]).abs() < 1e-4);
    }

    #[test]
    fn spectrum_roundtrip() {
        let (key, engine, mut sampler) = setup();
        let mu = message(8);
        let c = TrlweCiphertext::encrypt(&mu, &key, 1e-9, &engine, &mut sampler);
        let back = c.to_spectrum(&engine).to_ciphertext(&engine);
        assert!(back.mask().max_distance(c.mask()) < 1e-6);
        assert!(back.body().max_distance(c.body()) < 1e-6);
    }
}
