//! The double-precision engine's kernels: butterflies, pointwise
//! accumulates, the fold, the backward tail and the bundle row.

use super::dispatch::Leg;
use super::movers::{bit_reverse_copy, FoldDigit};
#[cfg(target_arch = "x86_64")]
use super::movers::{key_lines_of_chunk, store_columns_avx, MIN_BLOCKED, REV2};
use crate::engine::{KeyBlock, KEY_CHUNK};
use crate::ref_fft::CplxSpectrum;
use crate::tables::{BitReversal, StageTwiddles};
use matcha_math::Torus32;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256d;

// ---------------------------------------------------------------------------
// f64 radix-2 kernels
// ---------------------------------------------------------------------------

/// One breadth-first radix-2 butterfly stage over the whole buffer:
/// butterflies of length `len` on every aligned block, reading the stage's
/// `len/2` twiddles from `(wre, wim)` with unit stride.
///
/// # Panics
///
/// Panics on mismatched slice lengths (the vector leg runs raw-pointer
/// loops, so every public kernel checks its invariants with real asserts —
/// a handful of integer compares against `O(m)` work).
#[inline]
pub fn radix2_stage(
    re: &mut [f64],
    im: &mut [f64],
    wre: &[f64],
    wim: &[f64],
    len: usize,
    leg: Leg,
) {
    let half = len / 2;
    assert_eq!(re.len(), im.len(), "component length mismatch");
    assert_eq!(
        re.len() % len,
        0,
        "buffer not a multiple of the stage length"
    );
    assert_eq!(wre.len(), half, "twiddle table length mismatch");
    assert_eq!(wim.len(), half, "twiddle table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if leg.narrowed() != Leg::Scalar {
        // SAFETY (all three calls): a narrowed vector leg implies AVX2+FMA.
        if half >= 4 {
            unsafe { radix2_stage_avx(re, im, wre, wim, len) };
            return;
        }
        // The two narrow stages (len 2 and 4) have in-register butterflies:
        // vectorized with shuffles instead of falling back to scalar, they
        // carry 2/log2(M) of the butterfly work.
        if len == 2 && re.len() >= 4 {
            unsafe { radix2_stage2_avx(re, im) };
            return;
        }
        if len == 4 && re.len() >= 8 {
            unsafe { radix2_stage4_avx(re, im, wre, wim) };
            return;
        }
    }
    radix2_stage_scalar(re, im, wre, wim, len);
}

/// Scalar leg: `v = x·w` with separately rounded products, then `u ± v`.
#[allow(clippy::needless_range_loop)]
pub(super) fn radix2_stage_scalar(
    re: &mut [f64],
    im: &mut [f64],
    wre: &[f64],
    wim: &[f64],
    len: usize,
) {
    let m = re.len();
    let half = len / 2;
    for start in (0..m).step_by(len) {
        for k in 0..half {
            let (wr, wi) = (wre[k], wim[k]);
            let (xr, xi) = (re[start + half + k], im[start + half + k]);
            let vr = xr * wr - xi * wi;
            let vi = xr * wi + xi * wr;
            let (ur, ui) = (re[start + k], im[start + k]);
            re[start + k] = ur + vr;
            im[start + k] = ui + vi;
            re[start + half + k] = ur - vr;
            im[start + half + k] = ui - vi;
        }
    }
}

/// Four complex doubles, split: `(re, im)`.
#[cfg(target_arch = "x86_64")]
pub(super) type CplxLanes = (__m256d, __m256d);

/// `v = x·w` contracted to `fmsub`/`fmadd` (one rounding fewer than the
/// scalar leg per component), then `(u + v, u − v)`, on four lanes: the
/// butterfly of every wide stage, single or paired.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn butterfly_avx((ur, ui): CplxLanes, (xr, xi): CplxLanes, (wr, wi): CplxLanes) -> [CplxLanes; 2] {
    use std::arch::x86_64::*;
    let vr = _mm256_fmsub_pd(xr, wr, _mm256_mul_pd(xi, wi));
    let vi = _mm256_fmadd_pd(xr, wi, _mm256_mul_pd(xi, wr));
    [
        (_mm256_add_pd(ur, vr), _mm256_add_pd(ui, vi)),
        (_mm256_sub_pd(ur, vr), _mm256_sub_pd(ui, vi)),
    ]
}

/// AVX2+FMA leg: four butterflies per iteration.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage_avx(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64], len: usize) {
    use std::arch::x86_64::*;
    let m = re.len();
    let half = len / 2;
    let mut start = 0;
    while start < m {
        let rp = unsafe { re.as_mut_ptr().add(start) };
        let ip = unsafe { im.as_mut_ptr().add(start) };
        let mut k = 0;
        while k + 4 <= half {
            unsafe {
                let at = |q: usize| (_mm256_loadu_pd(rp.add(q)), _mm256_loadu_pd(ip.add(q)));
                let w = (
                    _mm256_loadu_pd(wre.as_ptr().add(k)),
                    _mm256_loadu_pd(wim.as_ptr().add(k)),
                );
                let [(sr, si), (dr, di)] = butterfly_avx(at(k), at(half + k), w);
                _mm256_storeu_pd(rp.add(k), sr);
                _mm256_storeu_pd(ip.add(k), si);
                _mm256_storeu_pd(rp.add(half + k), dr);
                _mm256_storeu_pd(ip.add(half + k), di);
            }
            k += 4;
        }
        // `half` is a power of two, so either the whole stage vectorized
        // (half ≥ 4) or the dispatcher already chose the scalar leg.
        debug_assert_eq!(k, half);
        start += len;
    }
}

/// Length-2 stage (`w = 1` exactly): adjacent-pair butterflies
/// `(u, v) → (u+v, u−v)`, two per vector via a sign-flip and horizontal
/// add. Exact — no multiplies, so it matches the generic butterfly
/// bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage2_avx(re: &mut [f64], im: &mut [f64]) {
    use std::arch::x86_64::*;
    let m = re.len();
    // Negates lanes 1 and 3 (set_pd takes high→low).
    let flip = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    for comp in [re, im] {
        let p = comp.as_mut_ptr();
        let mut k = 0;
        while k + 4 <= m {
            unsafe {
                let y = _mm256_loadu_pd(p.add(k)); // [u0, v0, u1, v1]
                let d = _mm256_xor_pd(y, flip); // [u0, -v0, u1, -v1]
                                                // hadd(y, d) = [u0+v0, u0-v0, u1+v1, u1-v1]
                _mm256_storeu_pd(p.add(k), _mm256_hadd_pd(y, d));
            }
            k += 4;
        }
        debug_assert_eq!(k, m);
    }
}

/// Length-4 stage (`half = 2`): two blocks per iteration, lane-split with
/// 128-bit permutes so the two butterflies of each block multiply by the
/// broadcast `[w0, w1]` twiddle pair with the same FMA contraction as the
/// wide stages.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage4_avx(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64]) {
    use std::arch::x86_64::*;
    let m = re.len();
    unsafe {
        // Unaligned 128-bit loads: the twiddle slices are only f64-aligned.
        let w128r = _mm_loadu_pd(wre.as_ptr());
        let w128i = _mm_loadu_pd(wim.as_ptr());
        let wr = _mm256_set_m128d(w128r, w128r); // [w0r, w1r]×2
        let wi = _mm256_set_m128d(w128i, w128i);
        let rp = re.as_mut_ptr();
        let ip = im.as_mut_ptr();
        let mut k = 0;
        while k + 8 <= m {
            let ar = _mm256_loadu_pd(rp.add(k)); // block A [u0, u1, x0, x1]
            let br = _mm256_loadu_pd(rp.add(k + 4)); // block B
            let ai = _mm256_loadu_pd(ip.add(k));
            let bi = _mm256_loadu_pd(ip.add(k + 4));
            let ur = _mm256_permute2f128_pd(ar, br, 0x20); // [uA0, uA1, uB0, uB1]
            let xr = _mm256_permute2f128_pd(ar, br, 0x31); // [xA0, xA1, xB0, xB1]
            let ui = _mm256_permute2f128_pd(ai, bi, 0x20);
            let xi = _mm256_permute2f128_pd(ai, bi, 0x31);
            let [(sr, si), (dr, di)] = butterfly_avx((ur, ui), (xr, xi), (wr, wi));
            _mm256_storeu_pd(rp.add(k), _mm256_permute2f128_pd(sr, dr, 0x20));
            _mm256_storeu_pd(rp.add(k + 4), _mm256_permute2f128_pd(sr, dr, 0x31));
            _mm256_storeu_pd(ip.add(k), _mm256_permute2f128_pd(si, di, 0x20));
            _mm256_storeu_pd(ip.add(k + 4), _mm256_permute2f128_pd(si, di, 0x31));
            k += 8;
        }
        debug_assert_eq!(k, m);
    }
}

/// Two consecutive breadth-first stages, `len` and `2·len`, in one pass over
/// the buffer: `(w1re, w1im)` are stage `len`'s `len/2` twiddles,
/// `(w2re, w2im)` stage `2·len`'s `len`. Bit-identical, on either leg, to
/// [`radix2_stage`] at `len` followed by [`radix2_stage`] at `2·len`: every
/// element meets the same two butterflies in the same order, only the store
/// and reload between them is gone. The vector leg holds a block's four
/// quarter-vectors `a, b, c, d` in registers — two `w_len[k]` butterflies
/// (`a·b`, `c·d`), then `a·c` with `w_{2len}[k]` and `b·d` with
/// `w_{2len}[k + len/2]`; stages too narrow for that (`len < 8`) and the
/// scalar leg run the two single stages.
///
/// # Panics
///
/// Panics on mismatched slice lengths.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn radix2_stage_pair(
    re: &mut [f64],
    im: &mut [f64],
    w1re: &[f64],
    w1im: &[f64],
    w2re: &[f64],
    w2im: &[f64],
    len: usize,
    leg: Leg,
) {
    assert_eq!(re.len(), im.len(), "component length mismatch");
    assert_eq!(
        re.len() % (2 * len),
        0,
        "buffer not a multiple of the stage length"
    );
    assert_eq!(w1re.len(), len / 2, "twiddle table length mismatch");
    assert_eq!(w1im.len(), len / 2, "twiddle table length mismatch");
    assert_eq!(w2re.len(), len, "twiddle table length mismatch");
    assert_eq!(w2im.len(), len, "twiddle table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if len >= 8 && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2+FMA; the lengths were
        // checked.
        unsafe { radix2_stage_pair_avx(re, im, w1re, w1im, w2re, w2im, len) };
        return;
    }
    radix2_stage(re, im, w1re, w1im, len, leg);
    radix2_stage(re, im, w2re, w2im, 2 * len, leg);
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage_pair_avx(
    re: &mut [f64],
    im: &mut [f64],
    w1re: &[f64],
    w1im: &[f64],
    w2re: &[f64],
    w2im: &[f64],
    len: usize,
) {
    use std::arch::x86_64::*;
    let m = re.len();
    let half = len / 2;
    let mut start = 0;
    while start < m {
        let mut k = 0;
        while k + 4 <= half {
            unsafe {
                let rp = re.as_mut_ptr().add(start + k);
                let ip = im.as_mut_ptr().add(start + k);
                let at = |q: usize| (_mm256_loadu_pd(rp.add(q)), _mm256_loadu_pd(ip.add(q)));
                let twiddle = |wre: &[f64], wim: &[f64], k: usize| {
                    (
                        _mm256_loadu_pd(wre.as_ptr().add(k)),
                        _mm256_loadu_pd(wim.as_ptr().add(k)),
                    )
                };
                let w = twiddle(w1re, w1im, k);
                let [a, b] = butterfly_avx(at(0), at(half), w);
                let [c, d] = butterfly_avx(at(len), at(len + half), w);
                let [a, c] = butterfly_avx(a, c, twiddle(w2re, w2im, k));
                let [b, d] = butterfly_avx(b, d, twiddle(w2re, w2im, k + half));
                for (q, (xr, xi)) in [(0, a), (half, b), (len, c), (len + half, d)] {
                    _mm256_storeu_pd(rp.add(q), xr);
                    _mm256_storeu_pd(ip.add(q), xi);
                }
            }
            k += 4;
        }
        // `half` is a power of two ≥ 4 (the dispatcher's condition).
        debug_assert_eq!(k, half);
        start += 2 * len;
    }
}

// ---------------------------------------------------------------------------
// f64 pointwise kernels
// ---------------------------------------------------------------------------

/// The double-precision engine's pointwise multiply-accumulate, `ROWS` rows
/// in one pass over `x`: `acc_r += x ⊙ row_r` over split-complex slices. One
/// row is key generation's and `poly_mul`'s product, two the external
/// product's (each transformed digit times a mask row and a body row).
///
/// Each row meets the same element operations in the same order whatever
/// `ROWS` is, so what a row gets does not depend on `ROWS`: on either leg a
/// two-row call is bit-identical to two one-row calls. The scalar leg rounds
/// each product before it adds it (`acc += x·a − x′·a′`); the vector leg
/// contracts with two FMAs per component (`fmadd`, then `fnmadd` or
/// `fmadd`), its tail with the same `mul_add`s.
///
/// # Panics
///
/// Panics on mismatched lengths.
#[inline]
pub(crate) fn mul_acc<const ROWS: usize>(
    mut accs: [(&mut [f64], &mut [f64]); ROWS],
    (x_re, x_im): (&[f64], &[f64]),
    rows: [(&[f64], &[f64]); ROWS],
    leg: Leg,
) {
    let m = x_re.len();
    assert_eq!(x_im.len(), m, "component length mismatch");
    for ((acc_re, acc_im), (a_re, a_im)) in accs.iter().zip(rows) {
        for len in [acc_re.len(), acc_im.len(), a_re.len(), a_im.len()] {
            assert_eq!(len, m, "component length mismatch");
        }
    }
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2+FMA; the lengths were
        // checked.
        unsafe { mul_acc_avx(accs, (x_re, x_im), rows) };
        return;
    }
    for k in 0..m {
        let (xr, xi) = (x_re[k], x_im[k]);
        for ((acc_re, acc_im), (a_re, a_im)) in accs.iter_mut().zip(rows) {
            acc_re[k] += xr * a_re[k] - xi * a_im[k];
            acc_im[k] += xr * a_im[k] + xi * a_re[k];
        }
    }
}

/// [`mul_acc`]'s AVX2+FMA leg.
///
/// # Safety
///
/// AVX2 and FMA must be present; every slice must hold `x.0.len()`
/// elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mul_acc_avx<const ROWS: usize>(
    mut accs: [(&mut [f64], &mut [f64]); ROWS],
    (x_re, x_im): (&[f64], &[f64]),
    rows: [(&[f64], &[f64]); ROWS],
) {
    use std::arch::x86_64::*;
    let m = x_re.len();
    let mut k = 0;
    while k + 4 <= m {
        // SAFETY: `k + 4 <= m`, every slice's length.
        unsafe {
            let xr = _mm256_loadu_pd(x_re.as_ptr().add(k));
            let xi = _mm256_loadu_pd(x_im.as_ptr().add(k));
            for ((acc_re, acc_im), (a_re, a_im)) in accs.iter_mut().zip(rows) {
                let ar = _mm256_loadu_pd(a_re.as_ptr().add(k));
                let ai = _mm256_loadu_pd(a_im.as_ptr().add(k));
                let mut cr = _mm256_loadu_pd(acc_re.as_ptr().add(k));
                let mut ci = _mm256_loadu_pd(acc_im.as_ptr().add(k));
                cr = _mm256_fmadd_pd(xr, ar, cr);
                cr = _mm256_fnmadd_pd(xi, ai, cr);
                ci = _mm256_fmadd_pd(xr, ai, ci);
                ci = _mm256_fmadd_pd(xi, ar, ci);
                _mm256_storeu_pd(acc_re.as_mut_ptr().add(k), cr);
                _mm256_storeu_pd(acc_im.as_mut_ptr().add(k), ci);
            }
        }
        k += 4;
    }
    while k < m {
        // Scalar tail uses the same FMA contraction as the vector body so
        // the SIMD leg is uniform regardless of lane alignment.
        let (xr, xi) = (x_re[k], x_im[k]);
        for ((acc_re, acc_im), (a_re, a_im)) in accs.iter_mut().zip(rows) {
            acc_re[k] = (-xi).mul_add(a_im[k], xr.mul_add(a_re[k], acc_re[k]));
            acc_im[k] = xi.mul_add(a_re[k], xr.mul_add(a_im[k], acc_im[k]));
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// f64 twist kernels
// ---------------------------------------------------------------------------

/// Butterfly length of the first stage the breadth-first stage loops run:
/// the two narrow stages before it (`len = 2` and `4`, four neighbouring
/// slots of bit-reversed data — one point from each quarter of the natural
/// order) belong to the pass that produces the bit-reversed buffer.
pub(crate) const FIRST_WIDE_STAGE: usize = 8;

/// What the pass that feeds the breadth-first butterflies — a forward
/// fold, or a backward transform's working copy — needs besides its data:
/// the plan's bit-reversal table and the direction's stage twiddles, whose
/// two narrow stages it runs on the way.
#[derive(Clone, Copy, Debug)]
pub struct Reversed<'a> {
    /// Where point `k` goes.
    pub order: &'a BitReversal,
    /// The direction's twiddles; stages `2` and `4` are read.
    pub stages: &'a StageTwiddles,
}

impl Reversed<'_> {
    /// The two narrow stages over a buffer already in bit-reversed order:
    /// what the blocked vector legs do in registers, for the legs that do
    /// not block.
    fn narrow_stages(&self, re: &mut [f64], im: &mut [f64], leg: Leg) {
        let mut len = 2;
        while len < FIRST_WIDE_STAGE && len <= re.len() {
            let (wre, wim) = self.stages.stage_split(len);
            radix2_stage(re, im, wre, wim, len, leg);
            len *= 2;
        }
    }
}

/// Stages `len = 2` and `len = 4` of one 4×4 block still in row form: row
/// `j` holds lane `j` of four destination vectors, so both stages are
/// whole-vector butterflies between rows — `(0, 1)`, `(2, 3)` without a
/// multiply (`w = 1`, as [`radix2_stage2_avx`] has it), then `(0, 2)` by
/// `w4[0]` and `(1, 3)` by `w4[1]` with [`radix2_stage4_avx`]'s
/// operations — and cost no shuffle.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn narrow_stages_avx(rows: [CplxLanes; 4], w4re: &[f64], w4im: &[f64]) -> [CplxLanes; 4] {
    use std::arch::x86_64::*;
    let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
    let a0 = (_mm256_add_pd(r0, r1), _mm256_add_pd(i0, i1));
    let a1 = (_mm256_sub_pd(r0, r1), _mm256_sub_pd(i0, i1));
    let a2 = (_mm256_add_pd(r2, r3), _mm256_add_pd(i2, i3));
    let a3 = (_mm256_sub_pd(r2, r3), _mm256_sub_pd(i2, i3));
    let w = |k: usize| (_mm256_set1_pd(w4re[k]), _mm256_set1_pd(w4im[k]));
    let [b0, b2] = butterfly_avx(a0, a2, w(0));
    let [b1, b3] = butterfly_avx(a1, a3, w(1));
    [b0, b1, b2, b3]
}

/// The whole negacyclic fold of the double-precision engine, one pass:
/// point `k` is `(digit.of(lo[k]) + i·digit.of(hi[k])) · (twre[k] +
/// i·twim[k])`.
///
/// `reversed = None` stores it at slot `k`: the natural-order reference the
/// equivalence suites hold the reversed fold to, and what the vector leg
/// folds to before it permutes a transform too small for a 4×4 block.
/// `Some(..)` produces what the breadth-first stage loop consumes
/// from `FIRST_WIDE_STAGE` on: every point at its bit-reversed slot and
/// the two narrow stages done — no permutation pass follows, and the
/// vector leg, which twists four coefficients at a time, runs those two
/// stages between the rows of a 4×4 block before it transposes the block
/// so that its stores stay vector stores. Either way every point sees the
/// multiply, and then the butterflies, it would see pass by pass.
///
/// # Panics
///
/// Panics on mismatched slice lengths, or tables built for another size.
#[allow(clippy::too_many_arguments)]
pub fn fold_twist(
    lo: &[u32],
    hi: &[u32],
    digit: FoldDigit,
    twre: &[f64],
    twim: &[f64],
    reversed: Option<Reversed<'_>>,
    re: &mut [f64],
    im: &mut [f64],
    leg: Leg,
) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(lo.len(), m, "coefficient half length mismatch");
    assert_eq!(hi.len(), m, "coefficient half length mismatch");
    assert_eq!(twre.len(), m, "twist table length mismatch");
    assert_eq!(twim.len(), m, "twist table length mismatch");
    if let Some(reversed) = reversed {
        assert_eq!(reversed.order.len(), m, "tables built for another size");
        assert_eq!(reversed.stages.size(), m, "tables built for another size");
    }
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && leg.narrowed() != Leg::Scalar {
        // A transform too small for a 4×4 block folds in natural order and
        // is permuted through the table.
        let blocked = reversed.filter(|_| m >= MIN_BLOCKED);
        // SAFETY: a narrowed vector leg implies AVX2+FMA; the lengths were
        // checked, and a `BitReversal` of length `m` holds the reversal of
        // `0..m`.
        unsafe { fold_twist_avx(lo, hi, digit, twre, twim, blocked, re, im) };
        if let (Some(reversed), None) = (reversed, blocked) {
            reversed.order.permute_pair(re, im);
            reversed.narrow_stages(re, im, leg);
        }
        return;
    }
    for k in 0..m {
        let (r, i) = (digit.of(lo[k]) as f64, digit.of(hi[k]) as f64);
        let slot = reversed.map_or(k, |reversed| reversed.order.index()[k] as usize);
        re[slot] = r * twre[k] - i * twim[k];
        im[slot] = r * twim[k] + i * twre[k];
    }
    if let Some(reversed) = reversed {
        reversed.narrow_stages(re, im, leg);
    }
}

/// Natural order: four points a step. Reversed (`M ≥ 16`): a 4×4 block a
/// step — rows `k + {0, 2, 1, 3}·M/4` of four points each, the narrow
/// stages between them, stored as columns at `rev[k] + {0, 2, 1, 3}·M/4`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn fold_twist_avx(
    lo: &[u32],
    hi: &[u32],
    digit: FoldDigit,
    twre: &[f64],
    twim: &[f64],
    reversed: Option<Reversed<'_>>,
    re: &mut [f64],
    im: &mut [f64],
) {
    use std::arch::x86_64::*;
    let m = re.len();
    // SAFETY (the loads): `k + 4 <= m`, every slice's length.
    let twisted = |k: usize| unsafe {
        let r = _mm256_cvtepi32_pd(digit.of_lanes(_mm_loadu_si128(lo.as_ptr().add(k).cast())));
        let i = _mm256_cvtepi32_pd(digit.of_lanes(_mm_loadu_si128(hi.as_ptr().add(k).cast())));
        let tr = _mm256_loadu_pd(twre.as_ptr().add(k));
        let ti = _mm256_loadu_pd(twim.as_ptr().add(k));
        (
            _mm256_fmsub_pd(r, tr, _mm256_mul_pd(i, ti)),
            _mm256_fmadd_pd(r, ti, _mm256_mul_pd(i, tr)),
        )
    };
    if let Some(reversed) = reversed {
        let quarter = m / 4;
        let rev = reversed.order.index();
        let (w4re, w4im) = reversed.stages.stage_split(4);
        for k in (0..quarter).step_by(4) {
            let rows = narrow_stages_avx(REV2.map(|h| twisted(k + h * quarter)), w4re, w4im);
            // SAFETY: `rev[k] ≤ M/4 − 4` for a 4-aligned `k < M/4`.
            unsafe {
                store_columns_avx(
                    rows,
                    re.as_mut_ptr(),
                    im.as_mut_ptr(),
                    rev[k] as usize,
                    quarter,
                )
            };
        }
    } else {
        // Transform sizes are powers of two, and the dispatcher only takes
        // this leg for m ≥ 4, so the whole buffer vectorizes.
        for k in (0..m).step_by(4) {
            let (r, i) = twisted(k);
            unsafe {
                _mm256_storeu_pd(re.as_mut_ptr().add(k), r);
                _mm256_storeu_pd(im.as_mut_ptr().add(k), i);
            }
        }
    }
}

/// The reversed working copy of a double-precision backward transform,
/// which reads the caller's spectrum exactly once: `dst[i] = src[rev[i]]`
/// for both components, then the two narrow stages — on the vector leg
/// between the rows of each 4×4 block, before it is stored. What the
/// backward stage loop consumes from `FIRST_WIDE_STAGE` on.
///
/// # Panics
///
/// Panics if a slice's length is not the tables'.
pub fn bit_reverse_copy_pair(
    src_re: &[f64],
    src_im: &[f64],
    reversed: Reversed<'_>,
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    leg: Leg,
) {
    let m = reversed.order.len();
    assert_eq!(reversed.stages.size(), m, "tables built for another size");
    assert_eq!(src_re.len(), m, "buffer length is not the table's");
    assert_eq!(src_im.len(), m, "buffer length is not the table's");
    assert_eq!(dst_re.len(), m, "buffer length is not the table's");
    assert_eq!(dst_im.len(), m, "buffer length is not the table's");
    #[cfg(target_arch = "x86_64")]
    if m >= MIN_BLOCKED && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2+FMA; all four buffers
        // hold `m` elements and `order` holds the reversal of `0..m`.
        unsafe { bit_reverse_copy_pair_avx(src_re, src_im, reversed, dst_re, dst_im) };
        return;
    }
    bit_reverse_copy(src_re, dst_re, reversed.order, leg);
    bit_reverse_copy(src_im, dst_im, reversed.order, leg);
    reversed.narrow_stages(dst_re, dst_im, leg);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn bit_reverse_copy_pair_avx(
    src_re: &[f64],
    src_im: &[f64],
    reversed: Reversed<'_>,
    dst_re: &mut [f64],
    dst_im: &mut [f64],
) {
    use std::arch::x86_64::*;
    let quarter = src_re.len() / 4;
    let rev = reversed.order.index();
    let (w4re, w4im) = reversed.stages.stage_split(4);
    for k in (0..quarter).step_by(4) {
        // SAFETY: rows `k + h·M/4 + 0..4` and columns `rev[k] + h·M/4 +
        // 0..4` lie inside the `M`-element buffers (`rev[k] ≤ M/4 − 4`).
        unsafe {
            let rows = REV2.map(|h| {
                (
                    _mm256_loadu_pd(src_re.as_ptr().add(k + h * quarter)),
                    _mm256_loadu_pd(src_im.as_ptr().add(k + h * quarter)),
                )
            });
            let rows = narrow_stages_avx(rows, w4re, w4im);
            store_columns_avx(
                rows,
                dst_re.as_mut_ptr(),
                dst_im.as_mut_ptr(),
                rev[k] as usize,
                quarter,
            );
        }
    }
}

pub(super) const TWO_32: f64 = 4294967296.0;
/// The largest double below one half. `trunc(y + copysign(HALF_BELOW, y))`
/// rounds `y` to the nearest integer, ties away from zero, with no libm
/// call; a plain `0.5` would round `0.49999999999999994` up to one.
const HALF_BELOW: f64 = 0.499_999_999_999_999_94;

/// `y.round()` for `|y| < 2^52` without the libm call: an add and a
/// truncating cast. The rounding of [`reduce_turns`] and of the integer
/// engine's factor quantizer.
#[inline]
pub(crate) fn round_half_away(y: f64) -> i64 {
    (y + HALF_BELOW.copysign(y)) as i64
}

/// Reduces a value given in *turns* (`t = x / 2^32`) onto the torus:
/// `round(2^32 · (t − round(t)))` with the outer rounding half away from
/// zero — i.e. the centred residue of `x` modulo `2^32`, rounded to an
/// integer, ties of *the residue* going away from zero (not ties of `x`:
/// `round(x) mod 2^32` differs on residues of the form `−(k+½)` reached
/// from a positive `x`).
///
/// Exact for `|t| < 2^30` (`|x| < 2^62`): `t − round(t)` and its product
/// with `2^32` are exact there, so the only rounding is the final one. The
/// inner rounding's tie rule does not matter — a residue of `±2^31` is
/// `0x8000_0000` either way — which is what lets the vector leg use
/// `roundpd` (ties to even) for it. No libm on either leg: the scalar
/// roundings are an add and a truncating cast.
#[inline]
pub(crate) fn reduce_turns(t: f64) -> u32 {
    let y = (t - round_half_away(t) as f64) * TWO_32;
    round_half_away(y) as u32
}

/// The fused tail of every backward transform, one pass over the inverse
/// DFT's output: multiply by the *conjugated* twist table, apply the
/// `1/M` normalization, reduce modulo `2^32` and store torus coefficients
/// — real parts to `lo`, imaginary parts to `hi`.
///
/// `inv_len` must be a power of two: it is folded into the `2⁻³²` multiply
/// that `reduce_turns` needs anyway, which is exact, so the result equals
/// normalizing first, then untwisting, then reducing.
///
/// # Panics
///
/// Panics on mismatched slice lengths or an `inv_len` that is not a power
/// of two.
#[allow(clippy::too_many_arguments)]
pub fn untwist_to_torus(
    re: &[f64],
    im: &[f64],
    twre: &[f64],
    twim: &[f64],
    inv_len: f64,
    lo: &mut [Torus32],
    hi: &mut [Torus32],
    leg: Leg,
) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(twre.len(), m, "twist table length mismatch");
    assert_eq!(twim.len(), m, "twist table length mismatch");
    assert_eq!(lo.len(), m, "output length mismatch");
    assert_eq!(hi.len(), m, "output length mismatch");
    assert!(
        inv_len.is_normal() && inv_len > 0.0 && inv_len.to_bits() << 12 == 0,
        "normalization {inv_len} is not a power of two"
    );
    let to_turns = inv_len / TWO_32;
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2+FMA.
        unsafe { untwist_to_torus_avx(re, im, twre, twim, to_turns, lo, hi) };
        return;
    }
    for k in 0..m {
        let (r, i) = (re[k], im[k]);
        lo[k] = Torus32::from_raw(reduce_turns((r * twre[k] + i * twim[k]) * to_turns));
        hi[k] = Torus32::from_raw(reduce_turns((i * twre[k] - r * twim[k]) * to_turns));
    }
}

/// [`reduce_turns`] of `x · to_turns` on four lanes. `cvttpd` answers
/// `0x8000_0000` for anything outside `i32`, which is the right residue
/// for the one value that can land there (`+2^31`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn reduce_turns_avx(x: __m256d, to_turns: __m256d) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let t = _mm256_mul_pd(x, to_turns);
    let whole = _mm256_round_pd::<NEAREST>(t);
    let y = _mm256_mul_pd(_mm256_sub_pd(t, whole), _mm256_set1_pd(TWO_32));
    let bump = _mm256_or_pd(
        _mm256_and_pd(y, _mm256_set1_pd(-0.0)),
        _mm256_set1_pd(HALF_BELOW),
    );
    _mm256_cvttpd_epi32(_mm256_add_pd(y, bump))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn untwist_to_torus_avx(
    re: &[f64],
    im: &[f64],
    twre: &[f64],
    twim: &[f64],
    to_turns: f64,
    lo: &mut [Torus32],
    hi: &mut [Torus32],
) {
    use std::arch::x86_64::*;
    let m = re.len();
    let scale = _mm256_set1_pd(to_turns);
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let r = _mm256_loadu_pd(re.as_ptr().add(k));
            let i = _mm256_loadu_pd(im.as_ptr().add(k));
            let tr = _mm256_loadu_pd(twre.as_ptr().add(k));
            let ti = _mm256_loadu_pd(twim.as_ptr().add(k));
            let nr = _mm256_fmadd_pd(r, tr, _mm256_mul_pd(i, ti));
            let ni = _mm256_fmsub_pd(i, tr, _mm256_mul_pd(r, ti));
            // `Torus32` is `repr(transparent)` over `u32`: four of them are
            // one unaligned 128-bit store.
            _mm_storeu_si128(lo.as_mut_ptr().add(k).cast(), reduce_turns_avx(nr, scale));
            _mm_storeu_si128(hi.as_mut_ptr().add(k).cast(), reduce_turns_avx(ni, scale));
        }
        k += 4;
    }
    debug_assert_eq!(k, m);
}

// ---------------------------------------------------------------------------
// f64 bundle-row kernel
// ---------------------------------------------------------------------------

/// One bundle row in a single pass: `out = h + Σ_p f_p ⊙ K_{slots[p]}`,
/// where `f_p` is the `p`-th length-`m` table of the concatenated factor
/// slices `(f_re, f_im)` and `K_s` the words stored in pattern slot `s` of
/// `key`, widened as they stand — the `2^exp` they count in is the
/// tables' business ([`crate::FftEngine::monomial_factors_into`] folds
/// it in), so `key.exp` is not read here. Each output element starts from
/// `h`'s and takes the terms in order, real part `x ← fr·sr + x` then
/// `x ← −fi·si + x`, imaginary part `y ← fr·si + y` then `y ← fi·sr + y`,
/// every step one fused multiply-add — [`mul_acc`]'s vector-leg element
/// operations. The scalar leg is that definition written with
/// [`f64::mul_add`]; the AVX2 leg widens four words at a time with
/// `vcvtdq2pd` and makes the same FMAs in the same order, so the two
/// agree bit for bit, and it prefetches down the key
/// (`BUNDLE_PREFETCH_AHEAD`): a row walks its one block and waits for it.
/// Blind rotation streams its bundles through [`bundle_product`] instead,
/// which walks a group's blocks side by side; this row is what that
/// product is held to.
///
/// # Panics
///
/// Panics on mismatched slice lengths, on a key stream shorter than the
/// block, and on a slot outside the block's patterns.
pub(crate) fn bundle_row(
    out_re: &mut [f64],
    out_im: &mut [f64],
    (h_re, h_im): (&[f64], &[f64]),
    key: KeyBlock<'_>,
    slots: &[u8],
    (f_re, f_im): (&[f64], &[f64]),
    leg: Leg,
) {
    let m = out_re.len();
    assert_eq!(out_im.len(), m, "component length mismatch");
    assert_eq!(h_re.len(), m, "component length mismatch");
    assert_eq!(h_im.len(), m, "component length mismatch");
    assert_eq!(f_re.len(), slots.len() * m, "one factor table per slot");
    assert_eq!(f_im.len(), slots.len() * m, "one factor table per slot");
    key.assert_holds(m, slots);
    #[cfg(target_arch = "x86_64")]
    if m.is_multiple_of(KEY_CHUNK) && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2+FMA; the lengths, the
        // block and the slots were checked above.
        unsafe { bundle_row_avx(out_re, out_im, h_re, h_im, key, slots, f_re, f_im) };
        return;
    }
    for k in 0..m {
        let (mut x, mut y) = (h_re[k], h_im[k]);
        for (p, &slot) in slots.iter().enumerate() {
            let at = KeyBlock::word_index(m, key.patterns, slot as usize, k);
            let sr = f64::from(key.stream[at]);
            let si = f64::from(key.stream[at + KeyBlock::chunk(m)]);
            let (fr, fi) = (f_re[p * m + k], f_im[p * m + k]);
            x = (-fi).mul_add(si, fr.mul_add(sr, x));
            y = fi.mul_add(sr, fr.mul_add(si, y));
        }
        out_re[k] = x;
        out_im[k] = y;
    }
}

/// # Safety
///
/// AVX2 and FMA must be present; every slice but `key.stream` and `slots`
/// must hold `m = out_re.len()` elements per factor table or spectrum, `m`
/// a multiple of [`KEY_CHUNK`]; `key.stream` must hold the block and
/// every slot be one of `key.patterns` ([`KeyBlock::assert_holds`]).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn bundle_row_avx(
    out_re: &mut [f64],
    out_im: &mut [f64],
    h_re: &[f64],
    h_im: &[f64],
    key: KeyBlock<'_>,
    slots: &[u8],
    f_re: &[f64],
    f_im: &[f64],
) {
    use std::arch::x86_64::*;
    let m = out_re.len();
    for k in (0..m).step_by(KEY_CHUNK) {
        unsafe {
            let mut x = [
                _mm256_loadu_pd(h_re.as_ptr().add(k)),
                _mm256_loadu_pd(h_re.as_ptr().add(k + 4)),
            ];
            let mut y = [
                _mm256_loadu_pd(h_im.as_ptr().add(k)),
                _mm256_loadu_pd(h_im.as_ptr().add(k + 4)),
            ];
            key_lines_of_chunk(key, k / KEY_CHUNK, slots, |p, line| {
                for half in 0..2 {
                    let words = |at: usize| {
                        _mm256_cvtepi32_pd(_mm_loadu_si128(line.add(at + 4 * half).cast()))
                    };
                    let (sr, si) = (words(0), words(KEY_CHUNK));
                    let fr = _mm256_loadu_pd(f_re.as_ptr().add(p * m + k + 4 * half));
                    let fi = _mm256_loadu_pd(f_im.as_ptr().add(p * m + k + 4 * half));
                    x[half] = _mm256_fnmadd_pd(fi, si, _mm256_fmadd_pd(fr, sr, x[half]));
                    y[half] = _mm256_fmadd_pd(fi, sr, _mm256_fmadd_pd(fr, si, y[half]));
                }
            });
            for half in 0..2 {
                _mm256_storeu_pd(out_re.as_mut_ptr().add(k + 4 * half), x[half]);
                _mm256_storeu_pd(out_im.as_mut_ptr().add(k + 4 * half), y[half]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f64 fused bundle product
// ---------------------------------------------------------------------------

/// A bundle streamed straight into the external product, one pass over
/// the group's key: `acc_a = Σ_r d_r ⊙ B_{2r}` and `acc_b = Σ_r d_r ⊙
/// B_{2r+1}`, where `B_j` is [`bundle_row`] of `h[j]` over the `j`-th block
/// of `key` and `d_r = digits[r]`. The accumulators are overwritten.
///
/// Each element meets exactly the operations of [`bundle_row`] followed by
/// [`mul_acc`] with two rows, digit by digit from cleared accumulators: a
/// bundle entry is built in term order with fused multiply-adds, and goes
/// into the product with `mul_acc`'s element operations on the same leg
/// (rounded products on the scalar leg, its two fused multiply-adds per
/// component on a vector leg). So the result is bit-identical to storing
/// the bundle and multiplying it, on every leg.
///
/// The AVX2 leg makes one pass per 8-point chunk over all `h.len()` blocks
/// — the group's row blocks read as concurrent streams, each with
/// [`bundle_row`]'s lookahead, the chunk's factor entries reused from L1 by
/// every block — and keeps the bundle entries and the accumulators in
/// vector registers: the bundle is never written. Any number of slots runs
/// this way.
///
/// # Panics
///
/// Panics if there is no digit or `h` does not hold two spectra per digit,
/// on mismatched lengths, on a key stream shorter than `h.len()` blocks,
/// and on a slot outside the blocks' patterns.
pub(crate) fn bundle_product(
    [(a_re, a_im), (b_re, b_im)]: [(&mut [f64], &mut [f64]); 2],
    h: &[CplxSpectrum],
    key: KeyBlock<'_>,
    slots: &[u8],
    (f_re, f_im): (&[f64], &[f64]),
    digits: &[CplxSpectrum],
    leg: Leg,
) {
    assert!(!digits.is_empty(), "a product needs at least one digit");
    assert_eq!(h.len(), 2 * digits.len(), "two gadget spectra per digit");
    let m = digits[0].re.len();
    let spectra = h.iter().chain(digits);
    for len in spectra.flat_map(|s| [s.re.len(), s.im.len()]) {
        assert_eq!(len, m, "component length mismatch");
    }
    for len in [a_re.len(), a_im.len(), b_re.len(), b_im.len()] {
        assert_eq!(len, m, "component length mismatch");
    }
    assert_eq!(f_re.len(), slots.len() * m, "one factor table per slot");
    assert_eq!(f_im.len(), slots.len() * m, "one factor table per slot");
    key.assert_holds_blocks(m, h.len(), slots);
    let accs = [(a_re, a_im), (b_re, b_im)];
    #[cfg(target_arch = "x86_64")]
    if m.is_multiple_of(KEY_CHUNK) && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2+FMA; the lengths, the
        // blocks and the slots were checked above.
        unsafe { bundle_product_avx(accs, h, key, slots, (f_re, f_im), digits) };
        return;
    }
    // `mul_acc`'s element operations on this leg: contracted wherever its
    // vector leg runs.
    let contract = m >= 4 && leg.narrowed() != Leg::Scalar;
    let block = KeyBlock::words(m, key.patterns);
    let [(a_re, a_im), (b_re, b_im)] = accs;
    for k in 0..m {
        let mut acc = [[0.0f64; 2]; 2];
        for (r, d) in digits.iter().enumerate() {
            let (xr, xi) = (d.re[k], d.im[k]);
            for (side, [cr, ci]) in acc.iter_mut().enumerate() {
                let j = 2 * r + side;
                let (mut sr, mut si) = (h[j].re[k], h[j].im[k]);
                let stream = &key.stream[j * block..];
                for (p, &slot) in slots.iter().enumerate() {
                    let at = KeyBlock::word_index(m, key.patterns, slot as usize, k);
                    let (wr, wi) = (
                        f64::from(stream[at]),
                        f64::from(stream[at + KeyBlock::chunk(m)]),
                    );
                    let (fr, fi) = (f_re[p * m + k], f_im[p * m + k]);
                    sr = (-fi).mul_add(wi, fr.mul_add(wr, sr));
                    si = fi.mul_add(wr, fr.mul_add(wi, si));
                }
                if contract {
                    *cr = (-xi).mul_add(si, xr.mul_add(sr, *cr));
                    *ci = xi.mul_add(sr, xr.mul_add(si, *ci));
                } else {
                    *cr += xr * sr - xi * si;
                    *ci += xr * si + xi * sr;
                }
            }
        }
        [a_re[k], a_im[k]] = acc[0];
        [b_re[k], b_im[k]] = acc[1];
    }
}

/// # Safety
///
/// AVX2 and FMA must be present; every spectrum and accumulator must hold
/// `m = digits[0].re.len()` points per component, `m` a multiple of
/// [`KEY_CHUNK`], the factor tables `m` per slot, `h` two spectra per
/// digit; `key.stream` must hold `h.len()` blocks and every slot be one of
/// `key.patterns` ([`KeyBlock::assert_holds_blocks`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn bundle_product_avx(
    mut accs: [(&mut [f64], &mut [f64]); 2],
    h: &[CplxSpectrum],
    key: KeyBlock<'_>,
    slots: &[u8],
    (f_re, f_im): (&[f64], &[f64]),
    digits: &[CplxSpectrum],
) {
    use std::arch::x86_64::*;
    let m = digits[0].re.len();
    let block = KeyBlock::words(m, key.patterns);
    // SAFETY: every call below reads four points from `at`, a multiple of
    // four with `at + 4 ≤ m` in an `m`-point spectrum component, or in
    // table `p < slots.len()` of the `slots.len()·m`-point factor tables
    // (`k + 8 ≤ m`; the caller checked every length).
    let load = |v: &[f64], at: usize| unsafe { _mm256_loadu_pd(v.as_ptr().add(at)) };
    for k in (0..m).step_by(KEY_CHUNK) {
        // `acc[side][half]`: the real and imaginary lanes of points
        // `k + 4·half ..` of the mask (`side = 0`) or body accumulator.
        let mut acc = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 2]; 2];
        for (r, d) in digits.iter().enumerate() {
            for (side, acc) in acc.iter_mut().enumerate() {
                let j = 2 * r + side;
                let mut x = [load(&h[j].re, k), load(&h[j].re, k + 4)];
                let mut y = [load(&h[j].im, k), load(&h[j].im, k + 4)];
                let row = KeyBlock {
                    // SAFETY: block `j < h.len()` lies inside the stream.
                    stream: unsafe { key.stream.get_unchecked(j * block..) },
                    ..key
                };
                // SAFETY: block `j` holds chunk `k / 8` and every slot is one
                // of its patterns (`assert_holds_blocks`); a line holds the
                // chunk's 8 `re` words, then its 8 `im` words.
                unsafe {
                    key_lines_of_chunk(row, k / KEY_CHUNK, slots, |p, line| {
                        for half in 0..2 {
                            let words = |at: usize| {
                                _mm256_cvtepi32_pd(_mm_loadu_si128(line.add(at + 4 * half).cast()))
                            };
                            let (sr, si) = (words(0), words(KEY_CHUNK));
                            let fr = load(f_re, p * m + k + 4 * half);
                            let fi = load(f_im, p * m + k + 4 * half);
                            x[half] = _mm256_fnmadd_pd(fi, si, _mm256_fmadd_pd(fr, sr, x[half]));
                            y[half] = _mm256_fmadd_pd(fi, sr, _mm256_fmadd_pd(fr, si, y[half]));
                        }
                    })
                };
                for (half, (cr, ci)) in acc.iter_mut().enumerate() {
                    let (xr, xi) = (load(&d.re, k + 4 * half), load(&d.im, k + 4 * half));
                    let (ar, ai) = (x[half], y[half]);
                    *cr = _mm256_fnmadd_pd(xi, ai, _mm256_fmadd_pd(xr, ar, *cr));
                    *ci = _mm256_fmadd_pd(xi, ar, _mm256_fmadd_pd(xr, ai, *ci));
                }
            }
        }
        for ((re, im), acc) in accs.iter_mut().zip(acc) {
            for (half, (cr, ci)) in acc.into_iter().enumerate() {
                // SAFETY: `k + 8 ≤ m`, the accumulators' length.
                unsafe {
                    _mm256_storeu_pd(re.as_mut_ptr().add(k + 4 * half), cr);
                    _mm256_storeu_pd(im.as_mut_ptr().add(k + 4 * half), ci);
                }
            }
        }
    }
}
