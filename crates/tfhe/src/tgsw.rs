//! TGSW ciphertexts and the external product `⊡ : TGSW × TRLWE → TRLWE`.
//!
//! A TGSW sample is the matrix extension of TLWE (paper §2): `2ℓ` TRLWE
//! rows, where row `j < ℓ` adds the gadget `μ·h_j` to the mask and row
//! `ℓ+j` adds it to the body. The external product gadget-decomposes the
//! TRLWE operand and takes the inner product with the rows — `2ℓ`
//! coefficient→Lagrange transforms, `2·2ℓ` pointwise multiply-accumulates
//! and `2` Lagrange→coefficient transforms per product, which is exactly
//! the kernel mix MATCHA's EP cores implement (1 FFT core : 4 IFFT cores).

use crate::params::ParameterSet;
use crate::scratch::EpScratch;
use crate::secret::RingSecretKey;
use crate::tlwe::{TrlweCiphertext, TrlweSpectrum};
use matcha_fft::FftEngine;
use matcha_math::{GadgetDecomposer, IntPolynomial, TorusPolynomial, TorusSampler};
use rand::Rng;

/// A TGSW ciphertext in the coefficient domain.
#[derive(Clone, Debug)]
pub struct TgswCiphertext {
    rows: Vec<TrlweCiphertext>,
    levels: usize,
}

impl TgswCiphertext {
    /// Encrypts an integer polynomial message.
    ///
    /// Blind rotation only ever encrypts `{0, 1}` messages (secret key bits
    /// and their products), but the type supports any small integers.
    ///
    /// Row `j` is a [`TrlweCiphertext::encrypt`] of zero — the same draws,
    /// the same `a·s″` through the engine, bit for bit — plus the gadget
    /// term. The ring key is transformed once for the sample, and every row
    /// runs through one scratch.
    pub(crate) fn encrypt<E: FftEngine, R: Rng>(
        message: &IntPolynomial,
        key: &RingSecretKey,
        params: &ParameterSet,
        engine: &E,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let n = key.ring_degree();
        debug_assert_eq!(message.len(), n);
        let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
        let levels = params.decomp_levels;
        let key_spectrum = engine.forward_int(key.as_poly());
        let mut scratch = engine.make_scratch();
        let (mut mask_spectrum, mut product) = (engine.zero_spectrum(), engine.zero_spectrum());
        let mut rows = Vec::with_capacity(2 * levels);
        for j in 0..2 * levels {
            let mut a = sampler.uniform_poly(n);
            engine.forward_torus_into(&a, &mut mask_spectrum, &mut scratch);
            engine.clear_spectrum(&mut product);
            engine.mul_accumulate([&mut product], &mask_spectrum, [&key_spectrum]);
            let mut b = TorusPolynomial::zero(n);
            engine.backward_torus_into(&product, &mut b, &mut scratch);
            b += &sampler.gaussian_poly(n, params.ring_noise_stdev);
            let h = decomp.gadget(j % levels);
            let gadget_poly =
                TorusPolynomial::from_coeffs(message.coeffs().iter().map(|&c| h * c).collect());
            if j < levels {
                a += &gadget_poly;
            } else {
                b += &gadget_poly;
            }
            rows.push(TrlweCiphertext::from_parts(a, b));
        }
        Self { rows, levels }
    }

    /// Encrypts a constant integer (`0` or `1` for bootstrapping keys).
    pub fn encrypt_constant<E: FftEngine, R: Rng>(
        message: i32,
        key: &RingSecretKey,
        params: &ParameterSet,
        engine: &E,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let mut m = IntPolynomial::zero(key.ring_degree());
        m.coeffs_mut()[0] = message;
        Self::encrypt(&m, key, params, engine, sampler)
    }

    /// The noiseless TGSW of the constant `1`: the gadget matrix `H` itself
    /// (`h` in Algorithm 1 line 6).
    pub fn trivial_one(params: &ParameterSet) -> Self {
        let n = params.ring_degree;
        let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
        let levels = params.decomp_levels;
        let mut rows = Vec::with_capacity(2 * levels);
        for j in 0..2 * levels {
            let mut gadget_poly = TorusPolynomial::zero(n);
            gadget_poly.coeffs_mut()[0] = decomp.gadget(j % levels);
            let row = if j < levels {
                TrlweCiphertext::from_parts(gadget_poly, TorusPolynomial::zero(n))
            } else {
                TrlweCiphertext::from_parts(TorusPolynomial::zero(n), gadget_poly)
            };
            rows.push(row);
        }
        Self { rows, levels }
    }

    /// The TRLWE rows (mask rows first, then body rows).
    pub(crate) fn rows(&self) -> &[TrlweCiphertext] {
        &self.rows
    }

    /// Transforms every row to the Lagrange domain.
    pub fn to_spectrum<E: FftEngine>(&self, engine: &E) -> TgswSpectrum<E> {
        TgswSpectrum {
            rows: self.rows.iter().map(|r| r.to_spectrum(engine)).collect(),
            levels: self.levels,
        }
    }
}

/// A TGSW ciphertext with all rows pre-transformed to the Lagrange domain —
/// the form bootstrapping keys are stored in.
#[derive(Debug)]
pub struct TgswSpectrum<E: FftEngine> {
    rows: Vec<TrlweSpectrum<E>>,
    levels: usize,
}

// Manual impl: rows are always `Clone`, the engine need not be.
impl<E: FftEngine> Clone for TgswSpectrum<E> {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            levels: self.levels,
        }
    }
}

impl<E: FftEngine> TgswSpectrum<E> {
    /// Builds from pre-transformed rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != 2 * levels`.
    pub fn from_rows(rows: Vec<TrlweSpectrum<E>>, levels: usize) -> Self {
        assert_eq!(rows.len(), 2 * levels, "a TGSW sample has 2ℓ rows");
        Self { rows, levels }
    }

    /// The pre-transformed rows.
    pub fn rows(&self) -> &[TrlweSpectrum<E>] {
        &self.rows
    }

    /// Mutable access to the rows (bundle construction into scratch).
    pub(crate) fn rows_mut(&mut self) -> &mut [TrlweSpectrum<E>] {
        &mut self.rows
    }

    /// The external product `self ⊡ c` (paper §2), as a fresh ciphertext:
    /// [`TgswSpectrum::external_product_assign`] on a copy of `c` through
    /// a scratch built for the call.
    ///
    /// If `self` encrypts `μ` and `c` encrypts `m`, the result encrypts
    /// `μ·m` with additive noise `O(ℓ·N·(Bg/2)·σ_TGSW) + ‖μ‖·ε_decomp`.
    ///
    /// # Panics
    ///
    /// Panics if `decomp.levels()` differs from this sample's `ℓ`.
    #[cfg(test)]
    pub(crate) fn external_product(
        &self,
        engine: &E,
        c: &TrlweCiphertext,
        decomp: &GadgetDecomposer,
    ) -> TrlweCiphertext {
        let mut out = c.clone();
        let mut scratch = EpScratch::with_levels(engine, self.levels);
        self.external_product_assign(engine, &mut out, decomp, &mut scratch);
        out
    }

    /// The external product `c ← self ⊡ c`, evaluated entirely through the
    /// caller's scratch with the fused decompose→twist forward transforms:
    /// each digit level is extracted coefficient-by-coefficient inside
    /// [`FftEngine::forward_decomposed_into`]'s twist fold, so digit
    /// polynomials are never written to memory, and spectra and FFT buffers
    /// are reused, so a warmed call performs zero heap allocations.
    ///
    /// Being generic over [`FftEngine`], this loop picks up the engines'
    /// split-complex AVX2+FMA kernels with no code here changing. The
    /// eight transforms are most of this kernel's cost (a backward
    /// transform, fused untwist-and-reduce tail included, costs what a
    /// forward one does) and the six multiply-accumulates most of the rest:
    /// one [`FftEngine::mul_accumulate`] per digit with two rows, the mask
    /// and body rows the digit multiplies. The benchmark ledger's
    /// `tgsw.nonfft_share.*` rows measure the split.
    ///
    /// Blind rotation does not call this: its steps stream each bundle
    /// into the product without storing it
    /// ([`UnrolledBootstrappingKey::bundle_product_assign`](crate::UnrolledBootstrappingKey::bundle_product_assign)),
    /// and are held bit for bit to this product of a stored bundle.
    ///
    /// # Panics
    ///
    /// Panics if `decomp.levels()` differs from this sample's `ℓ` (the
    /// fused transforms would otherwise extract garbage digit levels, or
    /// multiply the wrong key rows, silently).
    pub fn external_product_assign(
        &self,
        engine: &E,
        c: &mut TrlweCiphertext,
        decomp: &GadgetDecomposer,
        scratch: &mut EpScratch<E>,
    ) {
        assert_eq!(
            decomp.levels(),
            self.levels,
            "decomposer levels must match the TGSW sample's ℓ"
        );
        let levels = self.levels;
        let EpScratch {
            engine: es,
            digits,
            acc_a,
            acc_b,
            ..
        } = scratch;
        let fd = &mut digits[0];
        engine.clear_spectrum(acc_a);
        engine.clear_spectrum(acc_b);
        // Mask rows first, then body rows: the accumulation order is part
        // of the result (floating-point engines round at every add).
        for (half, poly) in [c.mask(), c.body()].into_iter().enumerate() {
            for level in 0..levels {
                engine.forward_decomposed_into(poly, decomp, level, fd, es);
                let row = &self.rows[half * levels + level];
                engine.mul_accumulate([&mut *acc_a, &mut *acc_b], fd, [&row.a, &row.b]);
            }
        }
        let (mask, body) = c.parts_mut();
        engine.backward_torus_into(acc_a, mask, es);
        engine.backward_torus_into(acc_b, body, es);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use matcha_math::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> ParameterSet {
        ParameterSet {
            ring_degree: 64,
            ..ParameterSet::TEST_FAST
        }
    }

    fn setup() -> (RingSecretKey, F64Fft, TorusSampler<StdRng>, ParameterSet) {
        let p = params();
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(17));
        let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
        (key, F64Fft::new(p.ring_degree), sampler, p)
    }

    fn message_poly(n: usize) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(
            (0..n)
                .map(|i| Torus32::from_dyadic((i % 4) as i64, 3))
                .collect(),
        )
    }

    /// The rows as [`TgswCiphertext::encrypt`] built them before it hoisted
    /// the key transform: one [`TrlweCiphertext::encrypt`] of zero per row
    /// (`engine.poly_mul`, the key transformed again each time), then the
    /// gadget term.
    fn encrypt_per_row<E: FftEngine>(
        message: &IntPolynomial,
        key: &RingSecretKey,
        p: &ParameterSet,
        engine: &E,
        sampler: &mut TorusSampler<StdRng>,
    ) -> Vec<TrlweCiphertext> {
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let zero = TorusPolynomial::zero(p.ring_degree);
        (0..2 * p.decomp_levels)
            .map(|j| {
                let row = TrlweCiphertext::encrypt(&zero, key, p.ring_noise_stdev, engine, sampler);
                let h = decomp.gadget(j % p.decomp_levels);
                let gadget =
                    TorusPolynomial::from_coeffs(message.coeffs().iter().map(|&c| h * c).collect());
                let (mut a, mut b) = (row.mask().clone(), row.body().clone());
                if j < p.decomp_levels {
                    a += &gadget;
                } else {
                    b += &gadget;
                }
                TrlweCiphertext::from_parts(a, b)
            })
            .collect()
    }

    /// One key transform per sample gives the rows one transform per row
    /// gave, bit for bit, on both engines at the paper's ring degree.
    #[test]
    fn hoisted_key_transform_is_bit_identical() {
        fn check<E: FftEngine>(engine: &E, p: &ParameterSet) {
            let mut sampler = TorusSampler::new(StdRng::seed_from_u64(29));
            let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
            let mut message = IntPolynomial::zero(p.ring_degree);
            message.coeffs_mut()[0] = 1;
            message.coeffs_mut()[7] = -1;
            let mut reference = sampler.clone();
            let sample = TgswCiphertext::encrypt(&message, &key, p, engine, &mut sampler);
            let want = encrypt_per_row(&message, &key, p, engine, &mut reference);
            assert_eq!(sample.rows(), &want[..]);
            // Both consumed the same draws, spare included.
            assert_eq!(sampler.uniform_poly(8), reference.uniform_poly(8));
            assert_eq!(
                sampler.gaussian_poly(8, 1e-6),
                reference.gaussian_poly(8, 1e-6)
            );
        }
        let p = ParameterSet::MATCHA;
        check(&F64Fft::new(p.ring_degree), &p);
        check(&ApproxIntFft::new(p.ring_degree, 38), &p);
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let (key, engine, mut sampler, p) = setup();
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let tgsw = TgswCiphertext::encrypt_constant(1, &key, &p, &engine, &mut sampler)
            .to_spectrum(&engine);
        let mu = message_poly(p.ring_degree);
        let c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let out = tgsw.external_product(&engine, &c, &decomp);
        assert!(out.phase(&key, &engine).max_distance(&mu) < 1e-3);
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let (key, engine, mut sampler, p) = setup();
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let tgsw = TgswCiphertext::encrypt_constant(0, &key, &p, &engine, &mut sampler)
            .to_spectrum(&engine);
        let mu = message_poly(p.ring_degree);
        let c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let out = tgsw.external_product(&engine, &c, &decomp);
        let zero = TorusPolynomial::zero(p.ring_degree);
        assert!(out.phase(&key, &engine).max_distance(&zero) < 1e-3);
    }

    #[test]
    fn trivial_one_acts_as_identity() {
        let (key, engine, mut sampler, p) = setup();
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let h = TgswCiphertext::trivial_one(&p).to_spectrum(&engine);
        let mu = message_poly(p.ring_degree);
        let c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let out = h.external_product(&engine, &c, &decomp);
        assert!(out.phase(&key, &engine).max_distance(&mu) < 1e-3);
    }

    #[test]
    fn external_product_by_monomial_message_rotates() {
        let (key, engine, mut sampler, p) = setup();
        let n = p.ring_degree;
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let mut monomial = IntPolynomial::zero(n);
        monomial.coeffs_mut()[3] = 1; // message X^3
        let tgsw = TgswCiphertext::encrypt(&monomial, &key, &p, &engine, &mut sampler)
            .to_spectrum(&engine);
        let mu = message_poly(n);
        let c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let out = tgsw.external_product(&engine, &c, &decomp);
        let expected = mu.mul_by_monomial(3);
        assert!(out.phase(&key, &engine).max_distance(&expected) < 1e-3);
    }

    #[test]
    fn works_with_integer_engine() {
        let p = params();
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(23));
        let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
        let engine = ApproxIntFft::new(p.ring_degree, 45);
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let tgsw = TgswCiphertext::encrypt_constant(1, &key, &p, &engine, &mut sampler)
            .to_spectrum(&engine);
        let mu = message_poly(p.ring_degree);
        let c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let out = tgsw.external_product(&engine, &c, &decomp);
        assert!(out.phase(&key, &engine).max_distance(&mu) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "must match the TGSW sample")]
    fn mismatched_decomposer_levels_rejected() {
        let (key, engine, mut sampler, p) = setup();
        let tgsw = TgswCiphertext::encrypt_constant(1, &key, &p, &engine, &mut sampler)
            .to_spectrum(&engine);
        let mu = message_poly(p.ring_degree);
        let mut c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let mut scratch = EpScratch::new(&engine, &p);
        // One level fewer than the sample's ℓ: must panic, not extract
        // garbage digit levels — in the allocating form too, whose refusal
        // is caught here so that the in-place form still gets its turn.
        let wrong = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels - 1);
        let refusal = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tgsw.external_product(&engine, &c, &wrong)
        }))
        .expect_err("the allocating form accepted a shorter decomposer");
        let message = refusal.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("must match the TGSW sample"), "{message}");
        tgsw.external_product_assign(&engine, &mut c, &wrong, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "2ℓ rows")]
    fn bad_row_count_rejected() {
        let engine = F64Fft::new(64);
        let rows = vec![TrlweCiphertext::trivial(TorusPolynomial::zero(64)).to_spectrum(&engine)];
        let _ = TgswSpectrum::<F64Fft>::from_rows(rows, 3);
    }
}
