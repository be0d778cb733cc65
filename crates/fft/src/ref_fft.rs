//! The double-precision reference engine: breadth-first iterative
//! Cooley–Tukey, matching what the TFHE reference library uses and what the
//! paper's Figure 8 labels "double".
//!
//! Spectra are stored *split-complex* (separate `re[]`/`im[]` vectors) and
//! every stage loop and pointwise accumulate runs through the
//! [`crate::simd`] kernels, on the engine's leg: AVX2+FMA, or the scalar
//! leg, every product rounded on its own.
//!
//! # The flow of one transform
//!
//! Forward: the fold ([`crate::twist`]) converts, twists and stores each
//! point at its bit-reversed slot in one pass — running the two narrow
//! stages (`len = 2`, `4`) on the way, between the rows of the 4×4 blocks
//! it stores — then the wide stages run two to a pass from
//! `simd::FIRST_WIDE_STAGE` on ([`simd::radix2_stage_pair`]).
//! Backward: the working copy of the caller's spectrum is made in
//! bit-reversed order through the plan's table, with the same two narrow
//! stages on the way ([`simd::bit_reverse_copy_pair`]), the same wide
//! stages run with the conjugated twiddles, and one fused pass untwists,
//! normalizes and reduces. No pass only permutes and nothing recomputes a
//! reversed index: at `N = 1024` a transform is five passes over its 8 KB
//! buffer (in, three stage pairs, the last stage — which the backward
//! transform follows with its pass out).

use crate::engine::{split_key_row, FftEngine, KeyBlock, Spectrum};
use crate::simd::{self, FoldDigit, Leg};
use crate::tables::TwiddleTables;
use crate::twist;
use matcha_math::{IntPolynomial, TorusPolynomial};

/// Lagrange half-complex spectrum in double precision, split-complex:
/// evaluation point `k` is `re[k] + i·im[k]`.
///
/// The split layout (rather than an array of complex structs) is what the
/// SIMD butterfly and multiply-accumulate kernels consume directly — four
/// lanes per component load with unit stride and no shuffles. It mirrors
/// [`crate::approx::FixedSpectrum`], the integer engine's spectrum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CplxSpectrum {
    /// Real parts of the `M = N/2` evaluation points.
    pub re: Vec<f64>,
    /// Imaginary parts.
    pub im: Vec<f64>,
}

impl Spectrum for CplxSpectrum {
    fn len(&self) -> usize {
        self.re.len()
    }
}

/// Pointwise factor tables `(ε_k^e − 1)·2^exp` for [`F64Fft`], stored split like the spectra they multiply: one length-`M`
/// table per exponent, back to back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SplitFactors {
    /// Real parts.
    pub re: Vec<f64>,
    /// Imaginary parts.
    pub im: Vec<f64>,
    /// The stored-key unit folded into the tables: they multiply words of
    /// `2^exp` torus units.
    pub exp: u32,
}

/// Reusable workspace of [`F64Fft`]: the backward transform's working
/// copy of the caller's spectrum, sized on first use and reused afterwards,
/// so warmed transforms allocate nothing.
#[derive(Debug, Default)]
pub struct CplxScratch {
    /// Backward-transform working buffer, real parts (`M` entries warmed).
    pub(crate) buf_re: Vec<f64>,
    /// Backward-transform working buffer, imaginary parts.
    pub(crate) buf_im: Vec<f64>,
}

/// Transform direction / kernel sign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Kernel `e^{+2πijk/M}` (coefficients → evaluations).
    Forward,
    /// Kernel `e^{-2πijk/M}`, *unnormalized*: the `1/M` belongs to the
    /// caller, which folds it into the multiply its next pass makes anyway
    /// (`twist::unfold_torus_into`).
    Inverse,
}

/// Iterative radix-2 transform with the requested kernel sign, on
/// split-complex data, in place, natural order in and out, on kernel leg
/// `leg`.
///
/// The engine itself never calls this: its folds and its working copy
/// deliver bit-reversed data to the butterfly stages directly. Exposed as
/// the plain DFT the tests compare flows against; library users should go
/// through [`FftEngine`].
///
/// # Panics
///
/// Panics if either component's length is not `tables.size()`.
pub fn dft_in_place(
    re: &mut [f64],
    im: &mut [f64],
    tables: &TwiddleTables,
    dir: Direction,
    leg: Leg,
) {
    tables.bit_reversal().permute_pair(re, im);
    butterfly_stages(re, im, tables, dir, 2, leg);
}

/// The `log2 M` butterfly stages over bit-reversed data.
///
/// The direction decides the twiddle tables (forward or pre-conjugated)
/// once, before the butterfly loops. Stages run two to a pass through
/// [`simd::radix2_stage_pair`] — each walks its contiguous twiddle slice
/// with unit stride, four butterflies per AVX2 iteration when available —
/// and an odd `log2 M` leaves the last stage to [`simd::radix2_stage`].
///
/// # Panics
///
/// Panics if either component's length is not `tables.size()`.
fn butterfly_stages(
    re: &mut [f64],
    im: &mut [f64],
    tables: &TwiddleTables,
    dir: Direction,
    first: usize,
    leg: Leg,
) {
    let m = tables.size();
    assert_eq!(re.len(), m, "buffer length is not the tables'");
    assert_eq!(im.len(), m, "buffer length is not the tables'");
    let stages = match dir {
        Direction::Forward => tables.forward_stages(),
        Direction::Inverse => tables.inverse_stages(),
    };
    let mut len = first;
    while 2 * len <= m {
        let (w1re, w1im) = stages.stage_split(len);
        let (w2re, w2im) = stages.stage_split(2 * len);
        simd::radix2_stage_pair(re, im, w1re, w1im, w2re, w2im, len, leg);
        len *= 4;
    }
    if len <= m {
        let (wre, wim) = stages.stage_split(len);
        simd::radix2_stage(re, im, wre, wim, len, leg);
    }
}

/// Breadth-first double-precision negacyclic FFT engine.
///
/// # Examples
///
/// ```
/// use matcha_fft::{F64Fft, FftEngine};
/// use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
///
/// let engine = F64Fft::new(16);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.125), 16);
/// let mut one = IntPolynomial::zero(16);
/// one.coeffs_mut()[0] = 1;
/// let r = engine.poly_mul(&p, &one);
/// assert!(r.max_distance(&p) < 1e-7);
/// ```
#[derive(Clone, Debug)]
pub struct F64Fft {
    n: usize,
    tables: TwiddleTables,
    leg: Leg,
}

impl F64Fft {
    /// Creates an engine for ring degree `n` on the host's kernel leg
    /// ([`Leg::host`]); panics where [`F64Fft::with_leg`] does.
    pub fn new(n: usize) -> Self {
        Self::with_leg(n, Leg::host())
    }

    /// Creates an engine for ring degree `n` on kernel leg `leg`, narrowed
    /// to the widest leg this CPU runs ([`Leg::narrowed`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn with_leg(n: usize, leg: Leg) -> Self {
        Self {
            n,
            tables: TwiddleTables::new(n),
            leg: leg.narrowed(),
        }
    }

    /// The twiddle tables.
    pub fn tables(&self) -> &TwiddleTables {
        &self.tables
    }

    /// One forward transform: the fold of `words` ([`twist::fold`]), then
    /// the stages it has not run.
    fn forward(&self, words: &[u32], digit: FoldDigit, out: &mut CplxSpectrum) {
        let (re, im) = (&mut out.re, &mut out.im);
        twist::fold(words, digit, &self.tables, re, im, self.leg);
        let first = simd::FIRST_WIDE_STAGE;
        butterfly_stages(re, im, &self.tables, Direction::Forward, first, self.leg);
    }
}

impl FftEngine for F64Fft {
    type Spectrum = CplxSpectrum;
    type MonomialFactors = SplitFactors;
    type Scratch = CplxScratch;

    fn ring_degree(&self) -> usize {
        self.n
    }

    fn leg(&self) -> Leg {
        self.leg
    }

    fn zero_spectrum(&self) -> CplxSpectrum {
        CplxSpectrum {
            re: vec![0.0; self.n / 2],
            im: vec![0.0; self.n / 2],
        }
    }

    fn clear_spectrum(&self, s: &mut CplxSpectrum) {
        let m = self.n / 2;
        s.re.clear();
        s.re.resize(m, 0.0);
        s.im.clear();
        s.im.resize(m, 0.0);
    }

    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut CplxSpectrum,
        _scratch: &mut CplxScratch,
    ) {
        self.forward(simd::int_words(p.coeffs()), FoldDigit::WHOLE, out);
    }

    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut CplxSpectrum,
        _scratch: &mut CplxScratch,
    ) {
        self.forward(simd::torus_words(p.coeffs()), FoldDigit::WHOLE, out);
    }

    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &matcha_math::GadgetDecomposer,
        level: usize,
        out: &mut CplxSpectrum,
        _scratch: &mut CplxScratch,
    ) {
        let digit = FoldDigit::level(decomp, level);
        self.forward(simd::torus_words(p.coeffs()), digit, out);
    }

    fn backward_torus_into(
        &self,
        s: &CplxSpectrum,
        out: &mut TorusPolynomial,
        scratch: &mut CplxScratch,
    ) {
        let m = self.n / 2;
        assert_eq!(s.len(), m, "spectrum size mismatch");
        let CplxScratch { buf_re, buf_im } = scratch;
        buf_re.resize(m, 0.0);
        buf_im.resize(m, 0.0);
        // The input is read once: the bit reversal doubles as the copy out
        // of the caller's spectrum.
        let reversed = simd::Reversed {
            order: self.tables.bit_reversal(),
            stages: self.tables.inverse_stages(),
        };
        simd::bit_reverse_copy_pair(&s.re, &s.im, reversed, buf_re, buf_im, self.leg);
        let (first, leg) = (simd::FIRST_WIDE_STAGE, self.leg);
        butterfly_stages(buf_re, buf_im, &self.tables, Direction::Inverse, first, leg);
        twist::unfold_torus_into(buf_re, buf_im, 1.0 / m as f64, &self.tables, out, leg);
    }

    /// `simd::mul_acc` over the spectra's components.
    fn mul_accumulate<const R: usize>(
        &self,
        accs: [&mut CplxSpectrum; R],
        x: &CplxSpectrum,
        rows: [&CplxSpectrum; R],
    ) {
        simd::mul_acc(
            accs.map(|acc| (&mut acc.re[..], &mut acc.im[..])),
            (&x.re, &x.im),
            rows.map(|row| (&row.re[..], &row.im[..])),
            self.leg,
        );
    }

    /// Gathers the factors from the `2N`-th roots of unity:
    /// `ε_k = e^{iπ(4k+1)/N}`, so `ε_k^e` is root number `(4k+1)·e mod 2N`
    /// and consecutive points step the index by `4e`. Every factor is a
    /// table entry (as accurate as `sin_cos` makes it, independent of `k`)
    /// times an exact power of two, and the loads are independent of one
    /// another.
    fn monomial_factors_into(
        &self,
        exponents: impl Iterator<Item = i64>,
        key_exp: u32,
        out: &mut SplitFactors,
    ) {
        let m = self.tables.size();
        let (unit_re, unit_im) = self.tables.unit_roots_split();
        // 2N is a power of two: `& mask` is `mod 2N`, also for negative `e`.
        let mask = unit_re.len() - 1;
        let unit = f64::from(key_exp).exp2();
        out.re.clear();
        out.im.clear();
        out.exp = key_exp;
        for e in exponents {
            let e = e as usize & mask;
            let root = |k: usize| (4 * k + 1).wrapping_mul(e) & mask;
            out.re
                .extend((0..m).map(|k| (unit_re[root(k)] - 1.0) * unit));
            out.im.extend((0..m).map(|k| unit_im[root(k)] * unit));
        }
    }

    /// The mask rounded to words of `2^exp`, its rounding error times `key`
    /// added to the body in `f64` arithmetic, the body rounded.
    fn store_key_row(
        &self,
        a: &CplxSpectrum,
        b: &CplxSpectrum,
        key: &CplxSpectrum,
        exp: u32,
        slot: usize,
        row: &mut [i32],
    ) {
        let m = a.len();
        assert_eq!(b.len(), m, "spectrum size mismatch");
        let (mask, body, patterns) = split_key_row(row, m, slot);
        let unit = f64::from(exp).exp2();
        let per_unit = unit.recip();
        // `round(v / 2^exp)` as a word (a power of two's reciprocal is
        // exact), and what the word is off by: `2^exp·round(v / 2^exp) − v`.
        let narrow = |v: f64| {
            let word = simd::round_half_away(v * per_unit);
            assert!(
                i32::try_from(word).is_ok(),
                "key spectrum value {v:e} does not fit 32-bit words of 2^{exp}"
            );
            (word as i32, word as f64 * unit - v)
        };
        let at = |k: usize| KeyBlock::word_index(m, patterns, slot, k);
        let im = KeyBlock::chunk(m);
        let mut delta = a.clone();
        for k in 0..m {
            (mask[at(k)], delta.re[k]) = narrow(a.re[k]);
            (mask[at(k) + im], delta.im[k]) = narrow(a.im[k]);
        }
        let mut body_for_stored_mask = b.clone();
        self.mul_accumulate([&mut body_for_stored_mask], &delta, [key]);
        for k in 0..m {
            body[at(k)] = narrow(body_for_stored_mask.re[k]).0;
            body[at(k) + im] = narrow(body_for_stored_mask.im[k]).0;
        }
    }

    /// One pass through `simd::bundle_row`, the stored words' `2^exp`
    /// being in the tables already.
    fn bundle_row_into(
        &self,
        h: &CplxSpectrum,
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &SplitFactors,
        out: &mut CplxSpectrum,
    ) {
        let m = h.len();
        assert_eq!(
            factors.exp, key.exp,
            "factor tables made for a key of another unit"
        );
        out.re.resize(m, 0.0);
        out.im.resize(m, 0.0);
        simd::bundle_row(
            &mut out.re,
            &mut out.im,
            (&h.re, &h.im),
            key,
            slots,
            (&factors.re, &factors.im),
            self.leg,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx::Cplx;
    use crate::engine::tests::stored_block;
    use matcha_math::Torus32;

    fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9).wrapping_add(seed)))
                .collect(),
        )
    }

    fn random_int_poly(n: usize, seed: u32, bound: i32) -> IntPolynomial {
        IntPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| {
                    let r =
                        (i ^ seed).wrapping_mul(0x85eb_ca6b).wrapping_add(7) % (2 * bound as u32);
                    r as i32 - bound
                })
                .collect(),
        )
    }

    #[test]
    fn dft_roundtrip() {
        let tables = TwiddleTables::new(32);
        let mut re: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut im: Vec<f64> = (0..16).map(|i| (i * i % 7) as f64).collect();
        let (orig_re, orig_im) = (re.clone(), im.clone());
        dft_in_place(&mut re, &mut im, &tables, Direction::Forward, Leg::host());
        dft_in_place(&mut re, &mut im, &tables, Direction::Inverse, Leg::host());
        for k in 0..16 {
            // The inverse kernel is unnormalized: divide by M here.
            let d = Cplx::new(re[k] / 16.0 - orig_re[k], im[k] / 16.0 - orig_im[k]);
            assert!(d.abs() < 1e-9);
        }
    }

    #[test]
    fn dft_of_delta_is_flat() {
        let tables = TwiddleTables::new(16);
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        dft_in_place(&mut re, &mut im, &tables, Direction::Forward, Leg::host());
        for k in 0..8 {
            assert!((Cplx::new(re[k], im[k]) - Cplx::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let tables = TwiddleTables::new(64);
        let mut re: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let mut im: Vec<f64> = (0..32).map(|i| (i as f64).cos()).collect();
        let e_time: f64 = re.iter().zip(im.iter()).map(|(&r, &i)| r * r + i * i).sum();
        dft_in_place(&mut re, &mut im, &tables, Direction::Forward, Leg::host());
        let e_freq: f64 = re.iter().zip(im.iter()).map(|(&r, &i)| r * r + i * i).sum();
        assert!((e_freq - 32.0 * e_time).abs() / (32.0 * e_time) < 1e-12);
    }

    #[test]
    fn poly_mul_matches_naive() {
        for n in [8usize, 32, 128] {
            let engine = F64Fft::new(n);
            let p = random_torus_poly(n, 3);
            let q = random_int_poly(n, 5, 512);
            let fast = engine.poly_mul(&p, &q);
            let naive = p.naive_mul_int(&q);
            assert!(
                fast.max_distance(&naive) < 1e-6,
                "n={n}: max distance {}",
                fast.max_distance(&naive)
            );
        }
    }

    #[test]
    fn mul_by_monomial_matches_rotation() {
        let n = 64;
        let engine = F64Fft::new(n);
        let p = random_torus_poly(n, 11);
        let mut x3 = IntPolynomial::zero(n);
        x3.coeffs_mut()[3] = 1;
        let fast = engine.poly_mul(&p, &x3);
        assert!(fast.max_distance(&p.mul_by_monomial(3)) < 1e-7);
    }

    #[test]
    fn accumulate_is_linear() {
        let n = 32;
        let engine = F64Fft::new(n);
        let p1 = random_torus_poly(n, 1);
        let p2 = random_torus_poly(n, 2);
        let q = random_int_poly(n, 3, 100);
        let fq = engine.forward_int(&q);
        let mut acc = engine.zero_spectrum();
        engine.mul_accumulate([&mut acc], &engine.forward_torus(&p1), [&fq]);
        engine.mul_accumulate([&mut acc], &engine.forward_torus(&p2), [&fq]);
        let sum_first = engine.poly_mul(&(p1.clone() + &p2), &q);
        let acc_result = engine.backward_torus(&acc);
        assert!(acc_result.max_distance(&sum_first) < 1e-6);
    }

    #[test]
    fn monomial_scale_matches_coefficient_domain() {
        let n = 32;
        let engine = F64Fft::new(n);
        let base = random_torus_poly(n, 31);
        let src = random_torus_poly(n, 32);
        let exp = crate::key_exponent(n);
        for e in [0i64, 1, 7, 31, 32, 63, -5] {
            let mut factors = SplitFactors::default();
            engine.monomial_factors_into([e].into_iter(), exp, &mut factors);
            let mut acc = engine.zero_spectrum();
            let block = stored_block(&engine, &[engine.forward_torus(&src)], exp);
            let key = KeyBlock {
                stream: &block,
                patterns: 1,
                exp,
            };
            engine.bundle_row_into(&engine.forward_torus(&base), key, &[0], &factors, &mut acc);
            let got = engine.backward_torus(&acc);
            let mut expected = base.clone();
            expected.add_rotate_minus_one(&src, e);
            assert!(
                got.max_distance(&expected) < 1e-6,
                "e={e}: distance {}",
                got.max_distance(&expected)
            );
        }
    }

    #[test]
    fn backward_of_zero_is_zero() {
        let engine = F64Fft::new(16);
        let z = engine.backward_torus(&engine.zero_spectrum());
        assert_eq!(z, TorusPolynomial::zero(16));
    }
}
