//! Radix-4 depth-first FFT.
//!
//! The conjugate-pair algorithm the paper adopts (§4.1, citing Becoulet &
//! Verguet) is a radix-4 flow whose butterflies need a *single* complex
//! root-of-unity read each: the higher twiddle powers `W^{2k}` and `W^{3k}`
//! are derived from the one loaded `W^k` with two extra complex
//! multiplications, trading multiplier work (cheap in a butterfly array)
//! for twiddle-buffer bandwidth (the scarce resource MATCHA's address
//! generation unit feeds, Figure 7d). This engine realizes that trade and
//! counts twiddle reads so it can be compared against the radix-2 flows.
//! The combine itself runs through [`crate::simd::radix4_combine`] — four
//! radix-4 butterflies per AVX2+FMA iteration on split-complex data.

use crate::engine::{FftEngine, KeyBlock};
use crate::ref_fft::{self, CplxScratch, CplxSpectrum, SplitFactors};
use crate::simd;
use crate::tables::{StageTwiddles, TwiddleTables};
use crate::twist::{self, Order};
use matcha_math::{IntPolynomial, TorusPolynomial};
use std::sync::atomic::{AtomicU64, Ordering};

/// Depth-first radix-4 double-precision engine with one twiddle read per
/// radix-4 butterfly.
///
/// # Examples
///
/// ```
/// use matcha_fft::{F64Fft, FftEngine, Radix4Fft};
/// use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
///
/// let r4 = Radix4Fft::new(32);
/// let r2 = F64Fft::new(32);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.25), 32);
/// let mut q = IntPolynomial::zero(32);
/// q.coeffs_mut()[3] = 2;
/// assert!(r4.poly_mul(&p, &q).max_distance(&r2.poly_mul(&p, &q)) < 1e-9);
/// ```
#[derive(Debug)]
pub struct Radix4Fft {
    n: usize,
    tables: TwiddleTables,
    twiddle_reads: AtomicU64,
}

impl Radix4Fft {
    /// Creates an engine for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 8 && n.is_power_of_two(),
            "ring degree {n} must be a power of two ≥ 8"
        );
        Self {
            n,
            tables: TwiddleTables::new(n),
            twiddle_reads: AtomicU64::new(0),
        }
    }

    /// Twiddle-buffer reads since construction (or the last reset).
    pub fn twiddle_reads(&self) -> u64 {
        self.twiddle_reads.load(Ordering::Relaxed)
    }

    /// Resets the twiddle-read counter.
    pub fn reset_twiddle_reads(&self) {
        self.twiddle_reads.store(0, Ordering::Relaxed);
    }

    /// Depth-first radix-4 transform using the caller's recursion workspace
    /// (`2·M` entries per component, sized on first use). The inverse is
    /// unnormalized: its `1/M` is applied by [`twist::unfold_torus_into`].
    fn transform_with(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        stack_re: &mut Vec<f64>,
        stack_im: &mut Vec<f64>,
        inverse: bool,
    ) {
        let m = re.len();
        stack_re.clear();
        stack_re.resize(2 * m, 0.0);
        stack_im.clear();
        stack_im.resize(2 * m, 0.0);
        // Direction is decided once: the per-stage conjugated tables and
        // the rotation sign of `±i` are selected here, keeping the
        // butterfly loop branch-free.
        let stages = if inverse {
            self.tables.inverse_stages()
        } else {
            self.tables.forward_stages()
        };
        self.recurse(re, im, stack_re, stack_im, stages, !inverse);
    }

    fn recurse(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        scratch_re: &mut [f64],
        scratch_im: &mut [f64],
        stages: &StageTwiddles,
        forward: bool,
    ) {
        let len = re.len();
        match len {
            1 => {}
            2 => {
                let (ar, br) = (re[0], re[1]);
                re[0] = ar + br;
                re[1] = ar - br;
                let (ai, bi) = (im[0], im[1]);
                im[0] = ai + bi;
                im[1] = ai - bi;
            }
            _ => self.radix4_step(re, im, scratch_re, scratch_im, stages, forward),
        }
    }

    fn radix4_step(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        scratch_re: &mut [f64],
        scratch_im: &mut [f64],
        stages: &StageTwiddles,
        forward: bool,
    ) {
        let len = re.len();
        let quarter = len / 4;
        // Gather the four decimated subsequences into the scratch window and
        // complete each sub-transform before combining (depth-first).
        let (work_re, rest_re) = scratch_re.split_at_mut(len);
        let (work_im, rest_im) = scratch_im.split_at_mut(len);
        for i in 0..quarter {
            for r in 0..4 {
                work_re[r * quarter + i] = re[4 * i + r];
                work_im[r * quarter + i] = im[4 * i + r];
            }
        }
        for r in 0..4 {
            let sub_re = &mut work_re[r * quarter..(r + 1) * quarter];
            let sub_im = &mut work_im[r * quarter..(r + 1) * quarter];
            self.recurse(sub_re, sub_im, rest_re, rest_im, stages, forward);
        }

        // This level's radix-2 stage slice: the radix-4 butterflies consume
        // its first `len/4` entries with unit stride, a single
        // twiddle-buffer read each (W^{2k}, W^{3k} derived in registers).
        let (wre, wim) = stages.stage_split(len);
        self.twiddle_reads
            .fetch_add(quarter as u64, Ordering::Relaxed);
        simd::radix4_combine(re, im, work_re, work_im, wre, wim, forward);
    }
}

impl FftEngine for Radix4Fft {
    type Spectrum = CplxSpectrum;
    type MonomialFactors = SplitFactors;
    type Scratch = CplxScratch;

    fn ring_degree(&self) -> usize {
        self.n
    }

    fn zero_spectrum(&self) -> CplxSpectrum {
        CplxSpectrum {
            re: vec![0.0; self.n / 2],
            im: vec![0.0; self.n / 2],
        }
    }

    fn clear_spectrum(&self, s: &mut CplxSpectrum) {
        ref_fft::clear_cplx_spectrum(s, self.n / 2);
    }

    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut CplxSpectrum,
        scratch: &mut CplxScratch,
    ) {
        twist::fold_int(p, &self.tables, Order::Natural, &mut out.re, &mut out.im);
        self.transform_with(
            &mut out.re,
            &mut out.im,
            &mut scratch.stack_re,
            &mut scratch.stack_im,
            false,
        );
    }

    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut CplxSpectrum,
        scratch: &mut CplxScratch,
    ) {
        twist::fold_torus(p, &self.tables, Order::Natural, &mut out.re, &mut out.im);
        self.transform_with(
            &mut out.re,
            &mut out.im,
            &mut scratch.stack_re,
            &mut scratch.stack_im,
            false,
        );
    }

    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &matcha_math::GadgetDecomposer,
        level: usize,
        out: &mut CplxSpectrum,
        scratch: &mut CplxScratch,
    ) {
        twist::fold_torus_digit(
            p,
            decomp,
            level,
            &self.tables,
            Order::Natural,
            &mut out.re,
            &mut out.im,
        );
        self.transform_with(
            &mut out.re,
            &mut out.im,
            &mut scratch.stack_re,
            &mut scratch.stack_im,
            false,
        );
    }

    fn backward_torus_into(
        &self,
        s: &CplxSpectrum,
        out: &mut TorusPolynomial,
        scratch: &mut CplxScratch,
    ) {
        scratch.buf_re.clone_from(&s.re);
        scratch.buf_im.clone_from(&s.im);
        let CplxScratch {
            buf_re,
            buf_im,
            stack_re,
            stack_im,
        } = scratch;
        self.transform_with(buf_re, buf_im, stack_re, stack_im, true);
        let inv_len = 1.0 / buf_re.len() as f64;
        twist::unfold_torus_into(buf_re, buf_im, inv_len, &self.tables, out);
    }

    fn mul_accumulate(&self, acc: &mut CplxSpectrum, a: &CplxSpectrum, b: &CplxSpectrum) {
        ref_fft::mul_accumulate_cplx(acc, a, b);
    }

    fn mul_accumulate_pair(
        &self,
        acc_a: &mut CplxSpectrum,
        acc_b: &mut CplxSpectrum,
        x: &CplxSpectrum,
        a: &CplxSpectrum,
        b: &CplxSpectrum,
    ) {
        ref_fft::mul_accumulate_pair_cplx(acc_a, acc_b, x, a, b);
    }

    fn add_assign(&self, acc: &mut CplxSpectrum, a: &CplxSpectrum) {
        ref_fft::add_assign_cplx(acc, a);
    }

    fn monomial_factors_into(
        &self,
        exponents: impl Iterator<Item = i64>,
        key_exp: u32,
        out: &mut SplitFactors,
    ) {
        ref_fft::monomial_factors_cplx_into(&self.tables, exponents, key_exp, out);
    }

    fn store_key_row(
        &self,
        a: &CplxSpectrum,
        b: &CplxSpectrum,
        key: &CplxSpectrum,
        exp: u32,
        slot: usize,
        row: &mut [i32],
    ) {
        ref_fft::store_key_row_cplx(a, b, key, exp, slot, row);
    }

    fn bundle_row_into(
        &self,
        h: &CplxSpectrum,
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &SplitFactors,
        out: &mut CplxSpectrum,
    ) {
        ref_fft::bundle_row_cplx(h, key, slots, factors, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fft::F64Fft;
    use matcha_math::Torus32;

    fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9)))
                .collect(),
        )
    }

    fn random_digit_poly(n: usize, seed: u32) -> IntPolynomial {
        IntPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| ((i ^ seed).wrapping_mul(0x85eb_ca6b) % 512) as i32 - 256)
                .collect(),
        )
    }

    #[test]
    fn matches_radix2_engine_all_sizes() {
        // Cover both parities of log2(M): pure radix-4 and mixed tails.
        for n in [8usize, 16, 32, 64, 128, 1024] {
            let r4 = Radix4Fft::new(n);
            let r2 = F64Fft::new(n);
            let p = random_torus_poly(n, 3);
            let q = random_digit_poly(n, 5);
            let a = r4.poly_mul(&p, &q);
            let b = r2.poly_mul(&p, &q);
            assert!(a.max_distance(&b) < 1e-6, "n={n}: {}", a.max_distance(&b));
        }
    }

    #[test]
    fn roundtrip_identity() {
        let r4 = Radix4Fft::new(256);
        let p = random_torus_poly(256, 7);
        let back = r4.backward_torus(&r4.forward_torus(&p));
        assert!(back.max_distance(&p) < 1e-7);
    }

    #[test]
    fn fewer_twiddle_reads_than_radix2() {
        // Radix-2 breadth-first: (M/2)·log2(M) reads. Radix-4 depth-first:
        // one read per radix-4 butterfly ≈ (M/4)·log4(M) — ~4× fewer.
        let n = 1024;
        let m = (n / 2) as u64;
        let r4 = Radix4Fft::new(n);
        r4.reset_twiddle_reads();
        let _ = r4.forward_torus(&random_torus_poly(n, 1));
        let reads = r4.twiddle_reads();
        let radix2_reads = (m / 2) * m.trailing_zeros() as u64;
        assert!(
            reads * 2 < radix2_reads,
            "radix-4 should at least halve reads: {reads} vs {radix2_reads}"
        );
    }

    #[test]
    fn external_product_path_works() {
        // bundle/scale path shared with the other f64 engines.
        let n = 32;
        let engine = Radix4Fft::new(n);
        let base = random_torus_poly(n, 11);
        let src = random_torus_poly(n, 12);
        let exp = crate::key_exponent(n);
        let mut factors = SplitFactors::default();
        engine.monomial_factors_into([9].into_iter(), exp, &mut factors);
        let mut acc = engine.zero_spectrum();
        let block = crate::engine::stored_block(&engine, &[engine.forward_torus(&src)], exp);
        let key = KeyBlock {
            stream: &block,
            patterns: 1,
            exp,
        };
        engine.bundle_row_into(&engine.forward_torus(&base), key, &[0], &factors, &mut acc);
        let got = engine.backward_torus(&acc);
        let mut expected = base.clone();
        expected.add_rotate_minus_one(&src, 9);
        assert!(got.max_distance(&expected) < 1e-6);
    }
}
