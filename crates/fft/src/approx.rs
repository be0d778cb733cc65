//! MATCHA's approximate multiplication-less integer FFT engine (§4.1).
//!
//! All data stays in 64-bit integers. Every twiddle rotation — including the
//! negacyclic twist — is performed by a three-step lifting structure whose
//! dyadic-value-quantized coefficients (`α/2^β`, `β` the `twiddle_bits` of
//! [`ApproxIntFft::new`]) need only adders and shifters. The approximation
//! error this introduces is far below TFHE's noise threshold and is rounded
//! off together with the ordinary ciphertext noise at decryption (paper's
//! key observation), so ciphertexts processed with this engine still
//! decrypt correctly.
//!
//! Scaling scheme (`M = N/2` evaluation points, radix-2, `log2 M` stages):
//!
//! * inputs are pre-scaled with as many fractional bits as the 64-bit lanes
//!   allow (41 for gadget digits and 20 for torus values at `N = 1024`), so
//!   per-lifting-step rounding noise (±½ ulp) lands ≈ 2⁻⁴⁰ torus units below
//!   the signal — twiddle quantization, not rounding, dominates the error;
//! * forward transforms grow values by at most `×M·√2`;
//! * pointwise products are exact 64×64-bit products that drop both
//!   pre-scales (`simd::i64_mul_acc`);
//! * the inverse transform halves after every stage, realizing the `1/M`
//!   normalization with one rounding shift per stage;
//! * the final reduction mod `2^32` is an exact two's-complement truncation.

use crate::cplx::Cplx;
use crate::engine::{split_key_row, FftEngine, KeyBlock, Spectrum};
use crate::lifting::{LiftingRotation, LiftingTable, Lifts};
use crate::simd::{self, FoldDigit, Leg};
use crate::tables::BitReversal;
use matcha_math::{IntPolynomial, Torus32, TorusPolynomial};

/// Largest digit magnitude [`ApproxIntFft::forward_int`] accepts.
pub const MAX_DIGIT: i64 = 1 << 10;

/// Fractional bits of the quantized `ε_k^e − 1` factors used by the
/// TGSW-scale path. `|ε^e − 1| ≤ 2`, so 30 fractional bits keep every
/// factor within an `i32` — matching the 32-bit integer multipliers of
/// MATCHA's TGSW clusters — while contributing less bundle noise than the
/// external product itself.
pub const MONO_FRAC_BITS: u32 = 30;

/// Fractional bits dropped from `H` when a bundle row starts, creating
/// headroom for summing up to `2^m − 1` scaled key terms.
pub const BUNDLE_DROP_BITS: u32 = 4;

/// Integer Lagrange half-complex spectrum with a fixed-point scale.
#[derive(Clone, Debug)]
pub struct FixedSpectrum {
    /// Real parts.
    pub re: Vec<i64>,
    /// Imaginary parts.
    pub im: Vec<i64>,
    /// Fixed-point fractional bits carried by the values.
    pub frac_bits: u32,
}

impl Spectrum for FixedSpectrum {
    fn len(&self) -> usize {
        self.re.len()
    }
}

/// Reusable workspace for the integer engine's backward transform: a
/// mutable copy of the spectrum being inverse-transformed. Sized on first
/// use, reused afterwards.
#[derive(Debug, Default)]
pub struct FixedScratch {
    re: Vec<i64>,
    im: Vec<i64>,
}

/// One direction's rotations in struct-of-arrays layout, in the order the
/// transform meets them with unit stride: the butterfly stages back to back
/// (stage `len = 2, 4, …, M` holds the `len/2` rotations by `±2πk/len`, so
/// it starts at entry `len/2 − 1`), then the `M` rotations of the
/// negacyclic twist (`+πj/N`, forward) or untwist (`−πj/N`, inverse).
#[derive(Clone, Debug)]
struct DirectionTable {
    table: LiftingTable,
    /// Transform size `M`.
    m: usize,
}

impl DirectionTable {
    /// `sign = +1.0` builds the forward direction, `−1.0` the inverse.
    /// Every entry is [`LiftingRotation::from_angle`] of the angle the
    /// full-size table would hold at that position (`2π·(k·M/len)/M`, not
    /// the algebraically equal `2πk/len`), so the coefficients do not
    /// depend on the layout.
    fn new(sign: f64, n: usize, twiddle_bits: u32) -> Self {
        let m = n / 2;
        let tau = sign * std::f64::consts::TAU;
        let pi = sign * std::f64::consts::PI;
        let stages = std::iter::successors(Some(2usize), |len| Some(len * 2))
            .take_while(|&len| len <= m)
            .flat_map(|len| (0..len / 2).map(move |k| tau * (k * (m / len)) as f64 / m as f64));
        let twist = (0..m).map(|j| pi * j as f64 / n as f64);
        let rotations = stages
            .chain(twist)
            .map(|theta| LiftingRotation::from_angle(theta, twiddle_bits));
        Self {
            table: LiftingTable::new(rotations, twiddle_bits),
            m,
        }
    }

    /// The rotations for butterflies of length `len`.
    #[inline]
    fn stage(&self, len: usize) -> Lifts<'_> {
        debug_assert!(len.is_power_of_two() && len >= 2 && len <= self.m);
        self.table.slice(len / 2 - 1..len - 1)
    }

    /// The twist (or untwist) rotations, one per evaluation point.
    #[inline]
    fn twist(&self) -> Lifts<'_> {
        self.table.slice(self.m - 1..2 * self.m - 1)
    }
}

/// The approximate multiplication-less integer FFT engine.
///
/// `twiddle_bits` is the dyadic quantization width `β` of Figure 8: the
/// paper finds 38 bits already avoid decryption failures for `m = 2` and
/// adopts 64 bits to survive aggressive key unrolling; we support 4..=62.
///
/// # Examples
///
/// ```
/// use matcha_fft::{ApproxIntFft, FftEngine};
/// use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
///
/// let engine = ApproxIntFft::new(16, 40);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.125), 16);
/// let mut q = IntPolynomial::zero(16);
/// q.coeffs_mut()[0] = 4;
/// let r = engine.poly_mul(&p, &q);
/// assert!(r.coeffs()[0].signed_diff(Torus32::from_f64(0.5)).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct ApproxIntFft {
    n: usize,
    /// Fractional pre-scale for integer (digit) polynomials.
    int_frac_bits: u32,
    /// Fractional pre-scale for torus polynomials.
    torus_frac_bits: u32,
    /// Stage rotations by `+2πk/len` and the twist `+πj/N`.
    fwd: DirectionTable,
    /// Stage rotations by `−2πk/len` and the untwist `−πj/N`.
    inv: DirectionTable,
    /// `rev[i]` for `i < M`: where the forward fold stores point `i`, and
    /// where the backward transform's working copy reads slot `i` from.
    rev: BitReversal,
    /// The quantized `2N`-th roots, `[q(cos θ_r − 1), q(sin θ_r)]` for
    /// `θ_r = (π/N)·r`, `r < 2N`: every bundle factor is one entry.
    roots: Vec<[i32; 2]>,
    /// The kernel leg, narrowed to what the CPU runs.
    leg: Leg,
}

impl ApproxIntFft {
    /// Creates an engine for ring degree `n` with `twiddle_bits`-bit
    /// dyadic-value-quantized twiddle factors, on the host's kernel leg
    /// ([`Leg::host`]); panics where [`ApproxIntFft::with_leg`] does.
    pub fn new(n: usize, twiddle_bits: u32) -> Self {
        Self::with_leg(n, twiddle_bits, Leg::host())
    }

    /// [`ApproxIntFft::new`] on kernel leg `leg`, narrowed to the widest
    /// leg this CPU runs ([`Leg::narrowed`]).
    ///
    /// It also builds the table the bundle factors are gathered from (8·2N
    /// bytes, 16 KB at `N = 1024`): entry `r < 2N` is
    /// `[q(cos θ_r − 1), q(sin θ_r)]` with `θ_r = (π/N)·r` in doubles and
    /// `q(v) = round_half_away(v·2^MONO_FRAC_BITS)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`, `n` is not a power of two, or
    /// `twiddle_bits ∉ [4, 62]`.
    pub fn with_leg(n: usize, twiddle_bits: u32, leg: Leg) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "ring degree {n} must be a power of two ≥ 4"
        );
        assert!(
            (4..=62).contains(&twiddle_bits),
            "twiddle_bits {twiddle_bits} outside supported range 4..=62"
        );
        let m = n / 2;
        // Leave headroom so forward buffers stay below 2^61·√2: a signed
        // value of `b` bits grows to at most `b + frac + log2(M)` bits.
        // The vector legs of the kernels need that bound, not just `i64`
        // range (`simd::I64_LANE_BOUND`; each component below 2^60.5 for
        // the pointwise products, `simd::MAC_LANE_BOUND`); how they take a
        // `twiddle_bits`-bit lift apart is fixed here too, inside the
        // tables (`simd::LiftSplit`).
        let log2m = m.trailing_zeros();
        let int_frac_bits = (61 - 11 - log2m).min(42);
        let torus_frac_bits = (61 - 32 - log2m).min(26);
        let base = std::f64::consts::PI / n as f64;
        let quant = (1i64 << MONO_FRAC_BITS) as f64;
        // `e^{iπ} − 1 = −2` lands on `i32::MIN` exactly; nothing is larger.
        let quantize = |v: f64| simd::round_half_away(v * quant) as i32;
        let roots = (0..2 * n)
            .map(|r| {
                let w = Cplx::from_angle(base * r as f64);
                [quantize(w.re - 1.0), quantize(w.im)]
            })
            .collect();
        Self {
            n,
            int_frac_bits,
            torus_frac_bits,
            fwd: DirectionTable::new(1.0, n, twiddle_bits),
            inv: DirectionTable::new(-1.0, n, twiddle_bits),
            rev: BitReversal::new(m),
            roots,
            leg: leg.narrowed(),
        }
    }

    /// The `log2 M` butterfly stages of one direction over a buffer already
    /// in bit-reversed order, through the shared [`crate::simd`] kernels:
    /// the same split-component, unit-stride shape as the f64 engine. The
    /// vector legs build each lift from 32-bit partial products and agree
    /// with the scalar `i128` leg bit for bit (see the kernel module docs).
    /// `HALVE` halves every stage output — `log2(M)` halvings realize the
    /// inverse's `1/M` without a multiplier.
    ///
    /// One stage a pass, unlike the f64 engine's two: an integer stage is
    /// bound by its lifts (~70 vector operations per four butterflies), not
    /// by its loads and stores, and a two-stage kernel measured slower
    /// (README, "Measured and rejected").
    fn stages<const HALVE: bool>(table: &DirectionTable, re: &mut [i64], im: &mut [i64], leg: Leg) {
        let mut len = 2;
        while len <= table.m {
            simd::i64_radix2_stage::<HALVE>(re, im, table.stage(len), len, leg);
            len *= 2;
        }
    }

    /// One forward transform: the fold pre-scales, twists and stores every
    /// point at its bit-reversed slot in one pass
    /// ([`simd::i64_fold_rotate`]), and the stages follow — no permutation
    /// pass in between.
    fn forward(&self, c: &[u32], digit: FoldDigit, frac_bits: u32, out: &mut FixedSpectrum) {
        let m = self.n / 2;
        assert_eq!(c.len(), self.n, "polynomial length mismatch");
        // Every slot is written: the resize only ever fills a buffer's
        // first use.
        out.re.resize(m, 0);
        out.im.resize(m, 0);
        out.frac_bits = frac_bits;
        let (lo, hi) = c.split_at(m);
        let (re, im) = (&mut out.re[..], &mut out.im[..]);
        simd::i64_fold_rotate(
            lo,
            hi,
            digit,
            frac_bits,
            self.fwd.twist(),
            &self.rev,
            re,
            im,
            self.leg,
        );
        Self::stages::<false>(&self.fwd, re, im, self.leg);
    }
}

impl FftEngine for ApproxIntFft {
    type Spectrum = FixedSpectrum;
    type MonomialFactors = Vec<[i32; 2]>;
    type Scratch = FixedScratch;

    fn ring_degree(&self) -> usize {
        self.n
    }

    fn leg(&self) -> Leg {
        self.leg
    }

    fn zero_spectrum(&self) -> FixedSpectrum {
        let m = self.n / 2;
        FixedSpectrum {
            re: vec![0; m],
            im: vec![0; m],
            frac_bits: 0,
        }
    }

    fn clear_spectrum(&self, s: &mut FixedSpectrum) {
        let m = self.n / 2;
        s.re.clear();
        s.re.resize(m, 0);
        s.im.clear();
        s.im.resize(m, 0);
        s.frac_bits = 0;
    }

    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut FixedSpectrum,
        _scratch: &mut FixedScratch,
    ) {
        debug_assert!(
            p.norm_inf() <= MAX_DIGIT,
            "digit magnitude {} exceeds supported bound {MAX_DIGIT}",
            p.norm_inf()
        );
        let words = simd::int_words(p.coeffs());
        self.forward(words, FoldDigit::WHOLE, self.int_frac_bits, out);
    }

    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut FixedSpectrum,
        _scratch: &mut FixedScratch,
    ) {
        let words = simd::torus_words(p.coeffs());
        self.forward(words, FoldDigit::WHOLE, self.torus_frac_bits, out);
    }

    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &matcha_math::GadgetDecomposer,
        level: usize,
        out: &mut FixedSpectrum,
        _scratch: &mut FixedScratch,
    ) {
        debug_assert!(
            i64::from(decomp.base() / 2) <= MAX_DIGIT,
            "digit magnitude bound {} exceeds supported bound {MAX_DIGIT}",
            decomp.base() / 2
        );
        let words = simd::torus_words(p.coeffs());
        let digit = FoldDigit::level(decomp, level);
        self.forward(words, digit, self.int_frac_bits, out);
    }

    fn backward_torus_into(
        &self,
        s: &FixedSpectrum,
        out: &mut TorusPolynomial,
        scratch: &mut FixedScratch,
    ) {
        let m = self.n / 2;
        assert_eq!(s.re.len(), m, "spectrum size mismatch");
        assert_eq!(out.len(), self.n, "output polynomial length mismatch");
        assert_eq!(s.im.len(), m, "spectrum size mismatch");
        // The working copy is made in bit-reversed order, through the
        // plan's table: one pass over the input instead of a copy and an
        // in-place permutation.
        scratch.re.resize(m, 0);
        scratch.im.resize(m, 0);
        let leg = self.leg;
        simd::bit_reverse_copy(&s.re, &mut scratch.re, &self.rev, leg);
        simd::bit_reverse_copy(&s.im, &mut scratch.im, &self.rev, leg);
        Self::stages::<true>(&self.inv, &mut scratch.re, &mut scratch.im, leg);
        simd::i64_rotate(&mut scratch.re, &mut scratch.im, self.inv.twist(), leg);
        let frac = s.frac_bits;
        let descale = |v: i64| -> i64 {
            if frac == 0 {
                v
            } else {
                (v + (1 << (frac - 1))) >> frac
            }
        };
        let (lo, hi) = out.coeffs_mut().split_at_mut(m);
        for j in 0..m {
            // Two's-complement truncation is the exact reduction mod 2^32.
            lo[j] = Torus32::from_raw(descale(scratch.re[j]) as u32);
            hi[j] = Torus32::from_raw(descale(scratch.im[j]) as u32);
        }
    }

    /// `simd::i64_mul_acc`, shifting by the operands' fractional bits.
    fn mul_accumulate<const R: usize>(
        &self,
        accs: [&mut FixedSpectrum; R],
        x: &FixedSpectrum,
        rows: [&FixedSpectrum; R],
    ) {
        let row_bits = rows.first().map_or(0, |row| row.frac_bits);
        assert!(
            accs.iter().all(|acc| acc.frac_bits == 0),
            "accumulator must be unscaled"
        );
        assert!(
            rows.iter().all(|row| row.frac_bits == row_bits),
            "row spectra must share a scale"
        );
        simd::i64_mul_acc(
            accs.map(|acc| (&mut acc.re[..], &mut acc.im[..])),
            (&x.re, &x.im),
            rows.map(|row| (&row.re[..], &row.im[..])),
            x.frac_bits + row_bits,
            self.leg,
        );
    }

    /// TGSW-scale factor tables: `ε_k^e − 1` quantized to 30 fractional bits
    /// so its components fit the 32-bit integer multipliers of MATCHA's
    /// TGSW clusters (§4.3) — the FFT butterflies stay multiplication-less,
    /// but TGSW scaling legitimately uses the cluster's multipliers.
    ///
    /// Gathered from the quantized `2N`-th roots [`ApproxIntFft::new`]
    /// builds: `ε_k = e^{iπ(4k+1)/N}`, so the factor of `X^e` at point `k`
    /// is entry `(4k+1)·e mod 2N`, `[q(cos θ − 1), q(sin θ)]` at
    /// `θ = (π/N)·((4k+1)·e mod 2N)` — whatever `k`, no accumulated error.
    ///
    /// `key_exp` changes nothing here: the quantized factors have no bits to
    /// spare for it, and the bundle row's rounding shift takes it for free.
    fn monomial_factors_into(
        &self,
        exponents: impl Iterator<Item = i64>,
        _key_exp: u32,
        out: &mut Vec<[i32; 2]>,
    ) {
        let m = self.n / 2;
        // 2N is a power of two: `& mask` is `mod 2N`, also for negative `e`.
        let mask = self.roots.len() - 1;
        out.clear();
        for e in exponents {
            let e = e as usize & mask;
            out.extend((0..m).map(|k| self.roots[(4 * k + 1).wrapping_mul(e) & mask]));
        }
    }

    /// Mantissas of the engine's `frac_bits`-scaled words: a value `v` is
    /// stored as `⌊v / 2^{exp + frac_bits} + ½⌋`. The mask's rounding error
    /// meets `key` in one [`FftEngine::mul_accumulate`], whose unscaled
    /// result (torus units — the product's fractional bits are rounded off,
    /// half a unit against a body step of `2^exp`) is brought back to the
    /// row's scale and added to the body.
    fn store_key_row(
        &self,
        a: &FixedSpectrum,
        b: &FixedSpectrum,
        key: &FixedSpectrum,
        exp: u32,
        slot: usize,
        row: &mut [i32],
    ) {
        let m = self.n / 2;
        assert_eq!(a.re.len(), m, "spectrum size mismatch");
        assert_eq!(b.re.len(), m, "spectrum size mismatch");
        assert_eq!(a.frac_bits, b.frac_bits, "row spectra must share a scale");
        let (mask, body, patterns) = split_key_row(row, m, slot);
        let frac = a.frac_bits;
        let shift = exp + frac;
        let narrow = |v: i64| {
            let word = (v + (1 << (shift - 1))) >> shift;
            assert!(
                i32::try_from(word).is_ok(),
                "key spectrum value {v} does not fit 32-bit words of 2^{exp} at {frac} fractional bits"
            );
            word as i32
        };
        let at = |k: usize| KeyBlock::word_index(m, patterns, slot, k);
        let im = KeyBlock::chunk(m);
        let mut delta = a.clone();
        for k in 0..m {
            mask[at(k)] = narrow(a.re[k]);
            mask[at(k) + im] = narrow(a.im[k]);
            delta.re[k] = (i64::from(mask[at(k)]) << shift) - a.re[k];
            delta.im[k] = (i64::from(mask[at(k) + im]) << shift) - a.im[k];
        }
        let mut carry = self.zero_spectrum();
        self.mul_accumulate([&mut carry], &delta, [key]);
        for k in 0..m {
            body[at(k)] = narrow(b.re[k] + (carry.re[k] << frac));
            body[at(k) + im] = narrow(b.im[k] + (carry.im[k] << frac));
        }
    }

    /// The bundle row over a stored key (`crate::simd::i64_bundle_row`).
    /// `h` first drops [`BUNDLE_DROP_BITS`] fractional bits (round half up)
    /// to make headroom for the sum, then every term adds its product of
    /// 32-bit mantissa and factor rounded back by
    /// `MONO_FRAC_BITS + BUNDLE_DROP_BITS − (exp + frac_bits)` — the same
    /// shifts, in the same order, whatever the number of terms.
    fn bundle_row_into(
        &self,
        h: &FixedSpectrum,
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &Vec<[i32; 2]>,
        out: &mut FixedSpectrum,
    ) {
        let m = self.n / 2;
        assert_eq!(h.re.len(), m, "spectrum size mismatch");
        assert!(
            h.frac_bits >= BUNDLE_DROP_BITS,
            "source spectrum lacks fractional headroom"
        );
        out.re.resize(m, 0);
        out.im.resize(m, 0);
        out.frac_bits = h.frac_bits - BUNDLE_DROP_BITS;
        // The kernel counts the mantissas' exponent in `h`'s words.
        let key = KeyBlock {
            exp: key.exp + h.frac_bits,
            ..key
        };
        simd::i64_bundle_row(
            &mut out.re,
            &mut out.im,
            (&h.re, &h.im),
            key,
            slots,
            factors,
            self.leg,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::stored_block;

    fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9).wrapping_add(1)))
                .collect(),
        )
    }

    fn random_digit_poly(n: usize, seed: u32) -> IntPolynomial {
        IntPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| ((i ^ seed).wrapping_mul(0x85eb_ca6b) % 1024) as i32 - 512)
                .collect(),
        )
    }

    /// Exact negacyclic product reference in i64, reduced mod 2^32.
    fn exact_mul(p: &TorusPolynomial, q: &IntPolynomial) -> TorusPolynomial {
        p.naive_mul_int(q)
    }

    #[test]
    fn poly_mul_close_to_exact() {
        for n in [8usize, 64, 256] {
            let engine = ApproxIntFft::new(n, 50);
            let p = random_torus_poly(n, 3);
            let q = random_digit_poly(n, 7);
            let approx = engine.poly_mul(&p, &q);
            let exact = exact_mul(&p, &q);
            let dist = approx.max_distance(&exact);
            assert!(dist < 1e-6, "n={n}: distance {dist}");
        }
    }

    #[test]
    fn roundtrip_torus_identity() {
        let n = 128;
        let engine = ApproxIntFft::new(n, 50);
        let p = random_torus_poly(n, 9);
        let back = engine.backward_torus(&engine.forward_torus(&p));
        // Forward/backward only pass through rotations: error is tiny.
        assert!(back.max_distance(&p) < 1e-6);
    }

    #[test]
    fn error_decreases_with_twiddle_bits() {
        let n = 256;
        let p = random_torus_poly(n, 21);
        let q = random_digit_poly(n, 22);
        let exact = exact_mul(&p, &q);
        let mut last = f64::INFINITY;
        for bits in [8u32, 16, 28, 44] {
            let engine = ApproxIntFft::new(n, bits);
            let dist = engine.poly_mul(&p, &q).max_distance(&exact);
            assert!(
                dist < last * 1.5,
                "error should not grow with bits: {bits} bits → {dist} (prev {last})"
            );
            last = dist;
        }
        assert!(
            last < 1e-6,
            "44-bit twiddles should be very accurate, got {last}"
        );
    }

    #[test]
    fn monomial_multiplication() {
        let n = 64;
        let engine = ApproxIntFft::new(n, 45);
        let p = random_torus_poly(n, 5);
        for power in [0usize, 1, 17, 63] {
            let mut q = IntPolynomial::zero(n);
            q.coeffs_mut()[power] = 1;
            let approx = engine.poly_mul(&p, &q);
            let exact = p.mul_by_monomial(power as i64);
            assert!(approx.max_distance(&exact) < 1e-6, "power={power}");
        }
    }

    #[test]
    fn accumulation_linearity() {
        let n = 32;
        let engine = ApproxIntFft::new(n, 48);
        let p1 = random_torus_poly(n, 1);
        let p2 = random_torus_poly(n, 2);
        let q = random_digit_poly(n, 3);
        let fq = engine.forward_int(&q);
        let mut acc = engine.zero_spectrum();
        engine.mul_accumulate([&mut acc], &engine.forward_torus(&p1), [&fq]);
        engine.mul_accumulate([&mut acc], &engine.forward_torus(&p2), [&fq]);
        let combined = engine.backward_torus(&acc);
        let expected = exact_mul(&(p1 + &p2), &q);
        assert!(combined.max_distance(&expected) < 1e-6);
    }

    #[test]
    fn backward_descales_int_spectrum() {
        // backward(forward_int(q)) reads q's digits as raw torus values.
        let engine = ApproxIntFft::new(16, 50);
        let mut q = IntPolynomial::zero(16);
        q.coeffs_mut()[0] = 7;
        q.coeffs_mut()[3] = -2;
        let back = engine.backward_torus(&engine.forward_int(&q));
        assert_eq!(back.coeffs()[0], Torus32::from_raw(7));
        assert_eq!(back.coeffs()[3], Torus32::from_raw(2u32.wrapping_neg()));
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn rejects_bad_twiddle_bits() {
        let _ = ApproxIntFft::new(16, 63);
    }

    #[test]
    fn monomial_scale_matches_coefficient_domain() {
        let n = 64;
        let engine = ApproxIntFft::new(n, 50);
        let base = random_torus_poly(n, 31);
        let src = random_torus_poly(n, 32);
        let exp = crate::key_exponent(n);
        for e in [0i64, 1, 5, 63, 64, 127, -3] {
            let mut factors = Vec::new();
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
                got.max_distance(&expected) < 1e-5,
                "e={e}: distance {}",
                got.max_distance(&expected)
            );
        }
    }

    #[test]
    fn factor_quantizer_matches_round_for_every_exponent() {
        // The factor chain as it was written with libm's `round`, one
        // exponent at a time: the gathered tables must equal it for every
        // exponent mod 2N — `e = N` included, where `ε^N − 1 = −2`
        // quantizes to exactly `i32::MIN` — at every ring degree up to the
        // paper's (above it the chain drifts; see the next test).
        for n in (2..=10).map(|b| 1usize << b) {
            let m = n / 2;
            let engine = ApproxIntFft::new(n, 38);
            let base = std::f64::consts::PI / n as f64;
            let quant = (1i64 << MONO_FRAC_BITS) as f64;
            let exponents = -3..2 * n as i64 + 3;
            let mut factors = Vec::new();
            engine.monomial_factors_into(exponents.clone(), 0, &mut factors);
            assert_eq!(factors.len(), exponents.clone().count() * m);
            for (p, e) in exponents.enumerate() {
                let e = e.rem_euclid(2 * n as i64) as f64;
                let step = Cplx::from_angle(4.0 * base * e);
                let mut cur = Cplx::from_angle(base * e);
                for k in 0..m {
                    let expected = [
                        ((cur.re - 1.0) * quant).round() as i32,
                        (cur.im * quant).round() as i32,
                    ];
                    assert_eq!(factors[p * m + k], expected, "n={n} e={e} k={k}");
                    cur *= step;
                }
            }
            assert_eq!(factors[(n + 3) * m], [i32::MIN, 0], "n={n}");
        }
    }

    #[test]
    fn factors_are_the_quantized_roots_above_the_paper_degree() {
        // At N = 2048 a chain `ε_{k+1}^e = ε_k^e · ε^{4e}` in doubles drifts
        // one 2⁻³⁰ step off the quantized root for 257 of the 8.4 M values;
        // a gathered factor is the root itself, wherever it sits.
        let n = 2048usize;
        let m = n / 2;
        let engine = ApproxIntFft::new(n, 38);
        let quant = (1i64 << MONO_FRAC_BITS) as f64;
        let roots: Vec<[i32; 2]> = (0..2 * n)
            .map(|r| {
                let w = Cplx::from_angle(std::f64::consts::PI / n as f64 * r as f64);
                [
                    ((w.re - 1.0) * quant).round() as i32,
                    (w.im * quant).round() as i32,
                ]
            })
            .collect();
        let mut factors = Vec::new();
        engine.monomial_factors_into(0..2 * n as i64, 0, &mut factors);
        for e in 0..2 * n {
            for k in 0..m {
                let r = (4 * k + 1) * e % (2 * n);
                assert_eq!(factors[e * m + k], roots[r], "e={e} k={k}");
            }
        }
    }

    #[test]
    fn zero_times_anything_is_zero() {
        let n = 16;
        let engine = ApproxIntFft::new(n, 40);
        let z = TorusPolynomial::zero(n);
        let q = random_digit_poly(n, 4);
        let r = engine.poly_mul(&z, &q);
        assert!(r.max_distance(&TorusPolynomial::zero(n)) < 1e-7);
    }
}
