//! Depth-first conjugate-pair FFT (paper §4.1, Figure 2).
//!
//! Breadth-first Cooley–Tukey sweeps the whole array once per stage; the
//! conjugate-pair flow instead completes each sub-transform before moving to
//! the next (depth-first recursion), which captures spatial locality, and it
//! pairs the butterflies for twiddles `w^k` and `w^{len/2-k} = -conj(w^k)`
//! so one twiddle-buffer read serves two butterflies — the property MATCHA's
//! FFT cores exploit to halve twiddle-factor reads.
//!
//! The numerics are identical to [`crate::F64Fft`] up to kernel-leg
//! rounding; what differs is the traversal order and the number of
//! twiddle loads, which this engine counts so the claim is measurable.
//! The counter models the conjugate-pair hardware flow (one read serves
//! two butterflies) regardless of which kernel leg executes: on a CPU the
//! AVX2 leg prefers unit-stride twiddle loads over shared ones, but the
//! *accounting* tracks the paper's buffer-read argument.

use crate::engine::{FftEngine, KeyBlock};
use crate::ref_fft::{self, CplxScratch, CplxSpectrum, SplitFactors};
use crate::simd;
use crate::tables::{StageTwiddles, TwiddleTables};
use crate::twist::{self, Order};
use matcha_math::{IntPolynomial, TorusPolynomial};
use std::sync::atomic::{AtomicU64, Ordering};

/// Depth-first conjugate-pair double-precision engine with twiddle-read
/// accounting.
///
/// # Examples
///
/// ```
/// use matcha_fft::{DepthFirstFft, F64Fft, FftEngine};
/// use matcha_math::{TorusPolynomial, IntPolynomial, Torus32};
///
/// let df = DepthFirstFft::new(16);
/// let bf = F64Fft::new(16);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.25), 16);
/// let mut q = IntPolynomial::zero(16);
/// q.coeffs_mut()[2] = 1;
/// assert!(df.poly_mul(&p, &q).max_distance(&bf.poly_mul(&p, &q)) < 1e-9);
/// assert!(df.twiddle_reads() > 0);
/// ```
#[derive(Debug)]
pub struct DepthFirstFft {
    n: usize,
    tables: TwiddleTables,
    twiddle_reads: AtomicU64,
}

impl DepthFirstFft {
    /// Creates an engine for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            tables: TwiddleTables::new(n),
            twiddle_reads: AtomicU64::new(0),
        }
    }

    /// Total twiddle-buffer reads since construction (or the last reset).
    pub fn twiddle_reads(&self) -> u64 {
        self.twiddle_reads.load(Ordering::Relaxed)
    }

    /// Resets the twiddle-read counter.
    pub fn reset_twiddle_reads(&self) {
        self.twiddle_reads.store(0, Ordering::Relaxed);
    }

    /// Twiddle reads a breadth-first radix-2 flow would need for one
    /// transform of the same size (one read per butterfly).
    pub fn breadth_first_reads_per_transform(&self) -> u64 {
        let m = self.n as u64 / 2;
        (m / 2) * m.trailing_zeros() as u64
    }

    /// Depth-first transform with conjugate-pair twiddle sharing, using the
    /// caller's recursion workspace (`2·M` entries per component, sized on
    /// first use). The inverse is unnormalized: its `1/M` is applied by
    /// [`twist::unfold_torus_into`].
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
        // Select the per-stage twiddle tables once; the recursion never
        // branches on direction inside its butterfly loop.
        let stages = if inverse {
            self.tables.inverse_stages()
        } else {
            self.tables.forward_stages()
        };
        self.recurse(re, im, stack_re, stack_im, stages);
    }

    /// Recursive decimation-in-time: `(re, im)` hold the sub-sequence
    /// gathered contiguously; the scratch slices provide `2·len` entries of
    /// workspace per component.
    fn recurse(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        scratch_re: &mut [f64],
        scratch_im: &mut [f64],
        stages: &StageTwiddles,
    ) {
        let len = re.len();
        if len == 1 {
            return;
        }
        let half = len / 2;
        // Gather even/odd sub-sequences into the scratch window, recurse on
        // each *completely* before combining: this is the depth-first
        // traversal of Figure 2(b).
        let (work_re, rest_re) = scratch_re.split_at_mut(len);
        let (work_im, rest_im) = scratch_im.split_at_mut(len);
        for i in 0..half {
            work_re[i] = re[2 * i];
            work_re[half + i] = re[2 * i + 1];
            work_im[i] = im[2 * i];
            work_im[half + i] = im[2 * i + 1];
        }
        let (even_re, odd_re) = work_re.split_at_mut(half);
        let (even_im, odd_im) = work_im.split_at_mut(half);
        self.recurse(even_re, even_im, rest_re, rest_im, stages);
        self.recurse(odd_re, odd_im, rest_re, rest_im, stages);

        // This combine level's twiddles, contiguous (unit-stride reads).
        let (wre, wim) = stages.stage_split(len);
        // Conjugate-pair accounting: butterflies k and half-k share one
        // twiddle load because w^{half-k} = -conj(w^k), so a combine of
        // `half` butterflies costs `half/2 + 1` buffer reads.
        self.twiddle_reads
            .fetch_add(half as u64 / 2 + 1, Ordering::Relaxed);
        simd::radix2_combine(re, im, even_re, even_im, odd_re, odd_im, wre, wim);
    }
}

impl FftEngine for DepthFirstFft {
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
        // Split the scratch borrows: buf_* carry the data, stack_* the
        // recursion workspace.
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

    #[test]
    fn matches_breadth_first_engine() {
        for n in [8usize, 32, 256] {
            let df = DepthFirstFft::new(n);
            let bf = F64Fft::new(n);
            let p = random_torus_poly(n, 9);
            let mut q = IntPolynomial::zero(n);
            q.coeffs_mut()[1] = 5;
            q.coeffs_mut()[n - 1] = -3;
            let a = df.poly_mul(&p, &q);
            let b = bf.poly_mul(&p, &q);
            assert!(a.max_distance(&b) < 1e-7, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        let df = DepthFirstFft::new(64);
        let p = random_torus_poly(64, 4);
        let back = df.backward_torus(&df.forward_torus(&p));
        assert!(back.max_distance(&p) < 1e-7);
    }

    #[test]
    fn conjugate_pair_halves_twiddle_reads() {
        let df = DepthFirstFft::new(256);
        df.reset_twiddle_reads();
        let p = random_torus_poly(256, 1);
        let _ = df.forward_torus(&p);
        let reads = df.twiddle_reads();
        let breadth_first = df.breadth_first_reads_per_transform();
        assert!(
            reads < breadth_first * 3 / 4,
            "conjugate-pair sharing should cut reads: {reads} vs {breadth_first}"
        );
        assert!(reads > 0);
    }

    #[test]
    fn counter_resets() {
        let df = DepthFirstFft::new(16);
        let _ = df.forward_torus(&random_torus_poly(16, 2));
        assert!(df.twiddle_reads() > 0);
        df.reset_twiddle_reads();
        assert_eq!(df.twiddle_reads(), 0);
    }
}
