//! Programmable (functional) bootstrapping.
//!
//! The gate bootstrap of Algorithm 1 is a special case of a more general
//! capability: since blind rotation lands the accumulator on
//! `X^{δ̄}·testv`, choosing the test-vector coefficients programs an
//! arbitrary *negacyclic* function of the input phase into the same
//! pipeline — at zero extra cost. This is the standard TFHE extension
//! (used by e.g. encrypted neural-network activation functions, one of the
//! workloads the paper's introduction motivates), and it exercises exactly
//! the FFT/BKU path MATCHA accelerates.

use crate::bootstrap::BootstrapKit;
use crate::lwe::LweCiphertext;
use crate::profile::{self, Phase};
use matcha_fft::FftEngine;
use matcha_math::{Torus32, TorusPolynomial};

/// A negacyclic look-up table over the input phase space.
///
/// The phase of the input sample is rounded to `δ̄ ∈ [0, 2N)`; the LUT
/// defines the output for `δ̄ ∈ [0, N)` and the negacyclic structure of the
/// ring forces `f(δ̄ + N) = −f(δ̄)` on the other half.
///
/// # Examples
///
/// ```
/// use matcha_tfhe::pbs::Lut;
/// use matcha_math::Torus32;
///
/// // The gate bootstrap's LUT: +1/8 on the positive half circle, which
/// // `BootstrapKit::bootstrap_with_lut` applies to an input's phase.
/// let sign = Lut::from_fn(256, |_| Torus32::from_dyadic(1, 3));
/// assert_ne!(sign, Lut::from_fn(256, |_| Torus32::ZERO));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lut {
    testv: TorusPolynomial,
}

impl Lut {
    /// Builds a LUT from `f(k)`, the desired output when the input phase
    /// rounds to `k/2N` for `k ∈ [0, N)`. Phases on the negative half
    /// circle (`k ∈ [N, 2N)`) produce `−f(k − N)` by ring structure.
    pub fn from_fn(ring_degree: usize, f: impl Fn(u32) -> Torus32) -> Self {
        let n = ring_degree;
        let mut coeffs = vec![Torus32::ZERO; n];
        // coeff0(X^δ · v) = v_0 at δ=0 and −v_{N−δ} for δ ∈ [1, N).
        coeffs[0] = f(0);
        for (j, c) in coeffs.iter_mut().enumerate().skip(1) {
            *c = -f((n - j) as u32);
        }
        Self {
            testv: TorusPolynomial::from_coeffs(coeffs),
        }
    }

    /// A LUT mapping a `2^bits`-bucket plaintext space through `g`.
    ///
    /// Messages are assumed encoded at phases `(2k+1)/2^(bits+1)` over the
    /// *half* circle (the standard "carry-free" PBS encoding), so bucket
    /// `k ∈ [0, 2^bits)` covers phase interval `[k, k+1)/2^bits · 1/2`.
    /// `g(k)` is the output torus value for bucket `k`.
    ///
    /// # Panics
    ///
    /// Panics if `2^bits` exceeds the ring degree.
    pub(crate) fn from_bucket_fn(
        ring_degree: usize,
        bits: u32,
        g: impl Fn(u32) -> Torus32,
    ) -> Self {
        let buckets = 1u32 << bits;
        assert!(
            (buckets as usize) <= ring_degree,
            "2^{bits} buckets exceed ring degree {ring_degree}"
        );
        let per_bucket = ring_degree as u32 / buckets;
        Self::from_fn(ring_degree, |k| g(k / per_bucket))
    }

    /// Ring degree `N` of the underlying test vector.
    pub(crate) fn ring_degree(&self) -> usize {
        self.testv.len()
    }
}

impl<E: FftEngine> BootstrapKit<E> {
    /// Programmable bootstrap: applies `lut` to the input phase and
    /// returns a fresh sample of the result, under the extracted key like
    /// its input.
    /// [`Self::bootstrap_with_lut_into`] through a scratch built for the
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if the LUT's ring degree differs from the parameter set's.
    pub fn bootstrap_with_lut(
        &self,
        engine: &E,
        input: &LweCiphertext,
        lut: &Lut,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::default();
        self.bootstrap_with_lut_into(engine, input, lut, &mut out, &mut self.make_scratch(engine));
        out
    }

    /// [`Self::bootstrap_with_lut`] into a caller-owned output through the
    /// scratch — zero allocations once warmed.
    ///
    /// # Panics
    ///
    /// Panics if the LUT's ring degree differs from the parameter set's.
    pub fn bootstrap_with_lut_into(
        &self,
        engine: &E,
        input: &LweCiphertext,
        lut: &Lut,
        out: &mut LweCiphertext,
        scratch: &mut crate::scratch::BootstrapScratch<E>,
    ) {
        assert_eq!(
            lut.ring_degree(),
            self.params().ring_degree,
            "LUT ring degree mismatch"
        );
        scratch.test_vector_mut().copy_from(&lut.testv);
        self.blind_rotate_assign(engine, input, scratch);
        profile::timed(Phase::Other, || {
            scratch.lanes[0].acc.sample_extract_into(out)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterSet;
    use crate::secret::ClientKey;
    use matcha_fft::F64Fft;
    use matcha_math::TorusSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 256;

    fn setup() -> (ClientKey, BootstrapKit<F64Fft>, F64Fft, StdRng) {
        let mut rng = StdRng::seed_from_u64(71);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(N);
        let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
        (client, kit, engine, rng)
    }

    fn encrypt_phase(client: &ClientKey, phase: f64, rng: &mut StdRng) -> LweCiphertext {
        client.encrypt_phase(Torus32::from_f64(phase), rng)
    }

    #[test]
    fn constant_lut_reproduces_gate_bootstrap() {
        let (client, kit, engine, mut rng) = setup();
        let mu = Torus32::from_dyadic(1, 3);
        let lut = Lut::from_fn(N, |_| mu);
        for message in [true, false] {
            let c = client.encrypt_with(message, &mut rng);
            let via_lut = kit.bootstrap_with_lut(&engine, &c, &lut);
            let via_gate = kit.bootstrap(&engine, &c, mu);
            assert_eq!(client.decrypt(&via_lut), client.decrypt(&via_gate));
            assert_eq!(client.decrypt(&via_lut), message);
        }
    }

    #[test]
    fn threshold_lut_detects_quadrant() {
        // f(phase) = +1/8 iff phase ∈ (0, 1/4), else −1/8 — distinguishes
        // "small positive" from "large positive" inputs.
        let (client, kit, engine, mut rng) = setup();
        let eighth = Torus32::from_dyadic(1, 3);
        let lut = Lut::from_fn(N, |k| if k < N as u32 / 2 { eighth } else { -eighth });
        // phase 1/8 → first quadrant → true; phase 3/8 → second → false.
        let small = encrypt_phase(&client, 0.125, &mut rng);
        let large = encrypt_phase(&client, 0.375, &mut rng);
        assert!(client.decrypt(&kit.bootstrap_with_lut(&engine, &small, &lut)));
        assert!(!client.decrypt(&kit.bootstrap_with_lut(&engine, &large, &lut)));
    }

    #[test]
    fn bucket_lut_computes_2bit_function() {
        // 2-bit message space on the half circle; apply g(k) = parity(k)
        // mapped to ±1/8.
        let (client, kit, engine, mut rng) = setup();
        let eighth = Torus32::from_dyadic(1, 3);
        let lut = Lut::from_bucket_fn(N, 2, |k| if k % 2 == 1 { eighth } else { -eighth });
        for bucket in 0u32..4 {
            // Encode bucket k at the center of its phase interval:
            // (2k+1)/16 of a full turn over the half circle.
            let phase = (2 * bucket + 1) as f64 / 16.0;
            let c = encrypt_phase(&client, phase, &mut rng);
            let out = kit.bootstrap_with_lut(&engine, &c, &lut);
            assert_eq!(client.decrypt(&out), bucket % 2 == 1, "bucket {bucket}");
        }
    }

    #[test]
    fn negacyclic_extension_negates() {
        // Inputs on the negative half circle produce the negated output.
        let (client, kit, engine, mut rng) = setup();
        let eighth = Torus32::from_dyadic(1, 3);
        let lut = Lut::from_fn(N, |_| eighth);
        let pos = encrypt_phase(&client, 0.2, &mut rng);
        let neg = encrypt_phase(&client, -0.2, &mut rng);
        assert!(client.decrypt(&kit.bootstrap_with_lut(&engine, &pos, &lut)));
        assert!(!client.decrypt(&kit.bootstrap_with_lut(&engine, &neg, &lut)));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_ring_degree_rejected() {
        let (_, kit, engine, mut rng) = setup();
        let mut sampler = TorusSampler::new(&mut rng);
        let c = LweCiphertext::encrypt(
            Torus32::ZERO,
            &crate::secret::LweSecretKey::generate(16, &mut sampler),
            1e-9,
            &mut sampler,
        );
        let lut = Lut::from_fn(128, |_| Torus32::ZERO);
        let _ = kit.bootstrap_with_lut(&engine, &c, &lut);
    }

    #[test]
    #[should_panic(expected = "exceed ring degree")]
    fn oversized_bucket_space_rejected() {
        let _ = Lut::from_bucket_fn(64, 8, |_| Torus32::ZERO);
    }
}
