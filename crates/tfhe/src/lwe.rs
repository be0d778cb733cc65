//! Gate-level LWE (TLWE scalar) ciphertexts.
//!
//! An LWE sample is `(a, b) ∈ T^n × T` with `b = ⟨a, s⟩ + μ + e` (paper §2);
//! gates read and write samples under the extracted key (`n = N`), and a
//! bootstrap switches its input to the LWE key (`n = 500` at the paper's
//! parameters) for the blind rotation.
//! Boolean gates operate on these samples with cheap linear algebra; the
//! expensive part — bootstrapping — lives in [`crate::bootstrap`].

use crate::secret::LweSecretKey;
use matcha_math::{Torus32, TorusSampler};
use rand::Rng;
use std::ops::{Add, Neg, Sub};

/// An LWE ciphertext `(a, b)`.
///
/// Linear operations (`+`, `-`, negation, integer scaling) act on the
/// underlying torus elements and correspondingly on the plaintexts; they add
/// their operands' noise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LweCiphertext {
    a: Vec<Torus32>,
    b: Torus32,
}

impl LweCiphertext {
    /// Encrypts `mu` under `key` with Gaussian noise of stdev `noise`.
    pub fn encrypt<R: Rng>(
        mu: Torus32,
        key: &LweSecretKey,
        noise: f64,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let a: Vec<Torus32> = (0..key.dimension()).map(|_| sampler.uniform()).collect();
        let b = key.dot(&a) + sampler.gaussian_around(mu, noise);
        Self { a, b }
    }

    /// The noiseless, keyless encryption of `mu`: `(0, μ)`.
    ///
    /// Trivial samples encode the public constants of gate linear parts
    /// (e.g. the `(0, 1/8)` of a NAND gate).
    pub fn trivial(mu: Torus32, dimension: usize) -> Self {
        Self {
            a: vec![Torus32::ZERO; dimension],
            b: mu,
        }
    }

    /// Builds a ciphertext from raw parts (used by sample extraction and
    /// key switching).
    pub fn from_parts(a: Vec<Torus32>, b: Torus32) -> Self {
        Self { a, b }
    }

    /// Mask dimension `n`.
    pub fn dimension(&self) -> usize {
        self.a.len()
    }

    /// The mask `a`.
    pub fn mask(&self) -> &[Torus32] {
        &self.a
    }

    /// The body `b`.
    pub fn body(&self) -> Torus32 {
        self.b
    }

    /// Mask vector and body mutably (for the in-place pipelines; the mask's
    /// length may be changed by the caller).
    pub fn parts_mut(&mut self) -> (&mut Vec<Torus32>, &mut Torus32) {
        (&mut self.a, &mut self.b)
    }

    /// Resets `self` to the trivial sample `(0, μ)` of dimension
    /// `dimension`, reusing the mask allocation when possible.
    pub(crate) fn assign_trivial(&mut self, mu: Torus32, dimension: usize) {
        self.a.clear();
        self.a.resize(dimension, Torus32::ZERO);
        self.b = mu;
    }

    /// Copies `other` into `self` without allocating once capacity exists.
    pub fn copy_from(&mut self, other: &Self) {
        self.a.clear();
        self.a.extend_from_slice(&other.a);
        self.b = other.b;
    }

    /// Adds `delta` to the body (plaintext offset of gate linear parts).
    pub(crate) fn add_body(&mut self, delta: Torus32) {
        self.b += delta;
    }

    /// The phase `b − ⟨a, s⟩ = μ + e`.
    pub fn phase(&self, key: &LweSecretKey) -> Torus32 {
        self.b - key.dot(&self.a)
    }

    /// Decrypts to the closest gate plaintext (`±1/8 → bool`).
    pub fn decrypt_bool(&self, key: &LweSecretKey) -> bool {
        self.phase(key).to_bool()
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions differ.
    pub fn add_assign(&mut self, other: &Self) {
        self.add_scaled_assign(other, 1);
    }

    /// In-place `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions differ (see
    /// [`LweCiphertext::add_scaled_assign`]).
    pub(crate) fn sub_assign(&mut self, other: &Self) {
        self.add_scaled_assign(other, -1);
    }

    /// In-place `self += k·other` (a term of a gate's linear part).
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions differ. (A real assert, not a debug
    /// one: a mismatched operand in release builds would otherwise
    /// silently truncate the zip and corrupt the sample — and the batch
    /// pool's panic-isolation contract relies on misuse panicking
    /// identically in every build mode.)
    pub(crate) fn add_scaled_assign(&mut self, other: &Self, k: i32) {
        assert_eq!(self.a.len(), other.a.len(), "LWE dimension mismatch");
        for (x, &y) in self.a.iter_mut().zip(other.a.iter()) {
            *x += y * k;
        }
        self.b += other.b * k;
    }

    /// In-place negation (the free homomorphic NOT).
    pub(crate) fn neg_assign(&mut self) {
        for x in &mut self.a {
            *x = -*x;
        }
        self.b = -self.b;
    }

    /// Scales the ciphertext (and its plaintext) by a small integer.
    #[cfg(test)]
    pub(crate) fn scale(&self, k: i32) -> Self {
        Self {
            a: self.a.iter().map(|&x| x * k).collect(),
            b: self.b * k,
        }
    }
}

impl Default for LweCiphertext {
    /// The degenerate dimension-0 sample; a placeholder for buffer swaps.
    fn default() -> Self {
        Self {
            a: Vec::new(),
            b: Torus32::ZERO,
        }
    }
}

impl Add<&LweCiphertext> for LweCiphertext {
    type Output = LweCiphertext;
    fn add(mut self, rhs: &LweCiphertext) -> LweCiphertext {
        self.add_assign(rhs);
        self
    }
}

impl Sub<&LweCiphertext> for LweCiphertext {
    type Output = LweCiphertext;
    fn sub(mut self, rhs: &LweCiphertext) -> LweCiphertext {
        self.sub_assign(rhs);
        self
    }
}

impl Neg for LweCiphertext {
    type Output = LweCiphertext;
    fn neg(mut self) -> LweCiphertext {
        self.neg_assign();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (LweSecretKey, TorusSampler<StdRng>) {
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(11));
        let key = LweSecretKey::generate(32, &mut sampler);
        (key, sampler)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (key, mut sampler) = setup();
        for &m in &[0.125f64, -0.125, 0.25, 0.0] {
            let mu = Torus32::from_f64(m);
            let c = LweCiphertext::encrypt(mu, &key, 1e-8, &mut sampler);
            assert!(c.phase(&key).signed_diff(mu).abs() < 1e-5);
        }
    }

    #[test]
    fn homomorphic_addition() {
        let (key, mut sampler) = setup();
        let c1 = LweCiphertext::encrypt(Torus32::from_f64(0.125), &key, 1e-8, &mut sampler);
        let c2 = LweCiphertext::encrypt(Torus32::from_f64(0.25), &key, 1e-8, &mut sampler);
        let sum = c1 + &c2;
        assert!(sum.phase(&key).signed_diff(Torus32::from_f64(0.375)).abs() < 1e-5);
    }

    #[test]
    fn homomorphic_subtraction_and_negation() {
        let (key, mut sampler) = setup();
        let c1 = LweCiphertext::encrypt(Torus32::from_f64(0.125), &key, 1e-8, &mut sampler);
        let c2 = LweCiphertext::encrypt(Torus32::from_f64(0.25), &key, 1e-8, &mut sampler);
        let diff = c1.clone() - &c2;
        assert!(
            diff.phase(&key)
                .signed_diff(Torus32::from_f64(-0.125))
                .abs()
                < 1e-5
        );
        let neg = -c1;
        assert!(neg.phase(&key).signed_diff(Torus32::from_f64(-0.125)).abs() < 1e-5);
    }

    #[test]
    fn trivial_sample_has_exact_phase() {
        let (key, _) = setup();
        let t = LweCiphertext::trivial(Torus32::from_f64(0.125), 32);
        assert_eq!(t.phase(&key), Torus32::from_f64(0.125));
    }

    #[test]
    fn scaling_scales_plaintext() {
        let (key, mut sampler) = setup();
        let c = LweCiphertext::encrypt(Torus32::from_f64(0.125), &key, 1e-9, &mut sampler);
        let scaled = c.scale(2);
        assert!(
            scaled
                .phase(&key)
                .signed_diff(Torus32::from_f64(0.25))
                .abs()
                < 1e-5
        );
    }

    #[test]
    #[should_panic(expected = "LWE dimension mismatch")]
    fn add_assign_rejects_mismatched_dimensions() {
        let mut c = LweCiphertext::trivial(Torus32::ZERO, 8);
        let other = LweCiphertext::trivial(Torus32::ZERO, 4);
        c.add_assign(&other);
    }

    #[test]
    #[should_panic(expected = "LWE dimension mismatch")]
    fn sub_assign_rejects_mismatched_dimensions() {
        let mut c = LweCiphertext::trivial(Torus32::ZERO, 8);
        let other = LweCiphertext::trivial(Torus32::ZERO, 4);
        c.sub_assign(&other);
    }

    #[test]
    fn neg_assign_matches_neg() {
        let (key, mut sampler) = setup();
        let c = LweCiphertext::encrypt(Torus32::from_f64(0.125), &key, 1e-8, &mut sampler);
        let mut inplace = c.clone();
        inplace.neg_assign();
        assert_eq!(inplace, -c);
    }

    #[test]
    fn fresh_sample_mask_is_random() {
        let (key, mut sampler) = setup();
        let c1 = LweCiphertext::encrypt(Torus32::ZERO, &key, 1e-8, &mut sampler);
        let c2 = LweCiphertext::encrypt(Torus32::ZERO, &key, 1e-8, &mut sampler);
        assert_ne!(c1.mask(), c2.mask());
    }
}
