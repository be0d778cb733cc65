//! Split-complex butterfly and pointwise kernels with runtime-detected
//! AVX2+FMA vectorization.
//!
//! # Layout
//!
//! Every kernel works on *split-complex* data: separate `re[]`/`im[]`
//! slices instead of an interleaved array of complex structs. Split storage
//! is what makes the butterflies vectorizable without any lane shuffles —
//! four butterflies load as four contiguous doubles per component, and the
//! per-stage contiguous [`crate::tables::StageTwiddles`] slices stream the
//! twiddle factors the same way. Both engines, [`crate::F64Fft`] and
//! [`crate::ApproxIntFft`], store their spectra split.
//!
//! # The passes of a breadth-first transform
//!
//! A transform is one pass in, its butterflies, and one pass out — no pass
//! only permutes, and no kernel computes an index (the plan's
//! [`crate::tables::BitReversal`] is handed to the ones that need it):
//!
//! * **In.** Forward, the fold ([`fold_twist`]; [`i64_fold_rotate`] for the
//!   integer engine) loads coefficients, converts them or extracts a
//!   gadget digit ([`FoldDigit`]), twists, and stores every point at its
//!   bit-reversed slot. Backward, the working copy of the caller's
//!   read-only spectrum is made in bit-reversed order
//!   ([`bit_reverse_copy_pair`], [`bit_reverse_copy`]). The vector legs
//!   move 4×4 blocks — four vector loads, a transpose, four vector stores
//!   — and the f64 ones run the two narrow stages (`len = 2` and `4`)
//!   between a block's rows before transposing it, where they are
//!   whole-vector butterflies and cost no shuffle ([`Reversed`]).
//! * **Butterflies.** The f64 stage loop starts at [`FIRST_WIDE_STAGE`]
//!   and runs two stages to a pass ([`radix2_stage_pair`]: a block's four
//!   quarter-vectors stay in registers between stage `len` and `2·len`);
//!   an odd stage count leaves the last to [`radix2_stage`]. The integer
//!   loop runs [`i64_radix2_stage`] from `len = 2`, one stage a pass: its
//!   stages are bound by the lifts, not by loads and stores, and pairing
//!   them measured slower.
//! * **Out.** Forward, nothing: the last stage leaves the spectrum.
//!   Backward, one fused pass untwists, normalizes, reduces and stores
//!   torus coefficients ([`untwist_to_torus`]; [`i64_rotate`] and a descale
//!   for the integer engine).
//!
//! Every element meets the same operations in the same order as in the
//! pass-by-pass flow (natural-order fold, permutation, one stage a pass),
//! so on either leg the results are bit-identical to it.
//!
//! # Dispatch
//!
//! Each public kernel picks one of two legs per call:
//!
//! * an explicitly vectorized AVX2+FMA leg (`core::arch::x86_64`
//!   intrinsics behind `#[target_feature]`), taken when
//!   [`simd_active`] reports `true`;
//! * a scalar leg that rounds every product before it adds it (no
//!   contraction), taken everywhere else (non-x86_64 targets, CPUs
//!   without AVX2/FMA, `MATCHA_SIMD=0`, or a [`force_simd`] override).
//!
//! # What the two legs agree on
//!
//! * **Bounded ulp, not bitwise:** the butterflies ([`radix2_stage`],
//!   [`radix2_stage_pair`]), the twist (inside [`fold_twist`]; the untwist
//!   inside [`untwist_to_torus`]) and the pointwise accumulates
//!   ([`mul_acc`], [`mul_acc_pair`]) — the vector leg contracts
//!   `a·b ± c·d` into fused multiply-adds (one rounding instead of two).
//! * **Bitwise:** the reduction mod `2^32` at the end of
//!   [`untwist_to_torus`] — on identical untwisted values both legs store
//!   the same `Torus32` ([`reduce_turns`] states the rule) — the narrow
//!   `len = 2` butterfly stage, which has no multiplies, and the bundle row
//!   over a stored key ([`bundle_row`]), whose scalar leg is written with
//!   the fused multiply-adds the vector leg makes.
//! * **Within either leg** the fused pair kernel [`mul_acc_pair`] is
//!   bit-identical to two [`mul_acc`] calls (the external product swaps
//!   freely between them).
//!
//! # Integer (i64) kernels
//!
//! The integer engine's rotations ([`i64_radix2_stage`],
//! [`i64_radix2_stage_halving`], [`i64_rotate`], [`i64_fold_rotate`]) and
//! its bundle row
//! ([`i64_bundle_row`]) have both legs too, and here the legs agree
//! **bitwise**, not within ulps: integer arithmetic has one right answer.
//! The scalar leg is the definition — each lift
//! `⌊(x·α + 2^{β−1}) / 2^β⌋` and each bundle product through one `i128`
//! multiply. AVX2 has no 64×64-bit multiply and no 64-bit arithmetic
//! shift, so the vector leg splits every 64-bit operand at bit 31, forms
//! the signed 32×32→64-bit partial products `vpmuldq` does offer, and
//! recombines them with nested floors; arithmetic shifts are logical
//! shifts of a value biased by `2⁶³`. [`LiftSplit`] derives the
//! recombination and the bounds that keep every partial sum exact; the one
//! precondition it adds to the scalar leg's is [`I64_LANE_BOUND`]
//! (`|v| < 2⁶²`), which the engine's scaling already guaranteed. Twiddle
//! widths the split does not reach (`β = 62`) run the scalar loop on both
//! legs. The bundle row needs no split: a stored key's mantissas and the
//! factors are 32 bits each, one `vpmuldq` a product ([`i64_bundle_row`]).
//! The engine's 64×64-bit pointwise products (`mul_accumulate`,
//! `mul_accumulate_pair`) stay scalar `i128` on purpose: the native `mul`
//! is the right tool for a full-width product. The bundle rows' vector
//! legs (this one and [`bundle_row`]'s) are the kernels here that
//! prefetch: with the products in vector lanes a row is done before its
//! key arrives, and the time the key takes is the part of a gate that a
//! busy neighbour sets (`BUNDLE_PREFETCH_AHEAD`).

use crate::approx::{BUNDLE_DROP_BITS, MONO_FRAC_BITS};
use crate::engine::{KeyBlock, KEY_CHUNK};
use crate::lifting::Lifts;
use crate::tables::{BitReversal, StageTwiddles};
use matcha_math::{GadgetDecomposer, Torus32};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128i, __m256d, __m256i};
use std::sync::atomic::{AtomicU8, Ordering};

/// Explicit override state: 0 = auto, 1 = forced scalar, 2 = forced SIMD
/// (still requires CPU support).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Cached auto decision (detection ∧ environment): 0 = unknown, 1 = off,
/// 2 = on.
static AUTO: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU supports the AVX2+FMA kernels.
///
/// Always `false` off x86_64. Detection is cached by the standard library,
/// so this is a handful of atomic loads.
#[inline]
pub fn simd_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `MATCHA_SIMD=0` (or `off`) disables the vector leg for the whole
/// process; anything else — including unset — leaves it on when detected.
fn env_allows_simd() -> bool {
    !matches!(
        std::env::var("MATCHA_SIMD").as_deref(),
        Ok("0") | Ok("off") | Ok("OFF")
    )
}

fn auto_active() -> bool {
    match AUTO.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = simd_detected() && env_allows_simd();
            AUTO.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Whether the kernels will take the AVX2+FMA leg right now.
///
/// `true` iff the CPU supports it, `MATCHA_SIMD` does not say `0`, and no
/// [`force_simd`] override says otherwise. The first call caches the
/// environment lookup; warmed calls are two relaxed atomic loads and never
/// allocate.
#[inline]
pub fn simd_active() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => simd_detected(),
        _ => auto_active(),
    }
}

/// Process-global override used by the equivalence tests and the
/// `simd_vs_scalar` benchmarks to pin one leg: `Some(false)` forces the
/// scalar leg, `Some(true)` forces the vector leg where detected (CPUs
/// without AVX2+FMA stay scalar — the kernels never execute unsupported
/// instructions), `None` restores auto selection.
///
/// Affects every engine in the process; callers that toggle it from tests
/// must serialize themselves around it.
pub fn force_simd(mode: Option<bool>) {
    let v = match mode {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

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
pub fn radix2_stage(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64], len: usize) {
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
    if simd_active() {
        // SAFETY (all three calls): simd_active() implies AVX2+FMA.
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
fn radix2_stage_scalar(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64], len: usize) {
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
type CplxLanes = (__m256d, __m256d);

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
    if len >= 8 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA; the lengths were checked.
        unsafe { radix2_stage_pair_avx(re, im, w1re, w1im, w2re, w2im, len) };
        return;
    }
    radix2_stage(re, im, w1re, w1im, len);
    radix2_stage(re, im, w2re, w2im, 2 * len);
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

/// `acc += a ⊙ b` over split-complex slices — the pointwise
/// multiply-accumulate of the external product (and, with a factor table as
/// `a`, the TGSW scale). The vector leg uses two FMAs per component; the
/// scalar leg rounds each product before it adds it.
#[inline]
pub fn mul_acc(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    let m = acc_re.len();
    assert_eq!(acc_im.len(), m, "component length mismatch");
    assert_eq!(a_re.len(), m, "component length mismatch");
    assert_eq!(a_im.len(), m, "component length mismatch");
    assert_eq!(b_re.len(), m, "component length mismatch");
    assert_eq!(b_im.len(), m, "component length mismatch");
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe { mul_acc_avx(acc_re, acc_im, a_re, a_im, b_re, b_im) };
        return;
    }
    for k in 0..m {
        acc_re[k] += a_re[k] * b_re[k] - a_im[k] * b_im[k];
        acc_im[k] += a_re[k] * b_im[k] + a_im[k] * b_re[k];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mul_acc_avx(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    use std::arch::x86_64::*;
    let m = acc_re.len();
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let ar = _mm256_loadu_pd(a_re.as_ptr().add(k));
            let ai = _mm256_loadu_pd(a_im.as_ptr().add(k));
            let br = _mm256_loadu_pd(b_re.as_ptr().add(k));
            let bi = _mm256_loadu_pd(b_im.as_ptr().add(k));
            let mut cr = _mm256_loadu_pd(acc_re.as_ptr().add(k));
            let mut ci = _mm256_loadu_pd(acc_im.as_ptr().add(k));
            cr = _mm256_fmadd_pd(ar, br, cr);
            cr = _mm256_fnmadd_pd(ai, bi, cr);
            ci = _mm256_fmadd_pd(ar, bi, ci);
            ci = _mm256_fmadd_pd(ai, br, ci);
            _mm256_storeu_pd(acc_re.as_mut_ptr().add(k), cr);
            _mm256_storeu_pd(acc_im.as_mut_ptr().add(k), ci);
        }
        k += 4;
    }
    while k < m {
        // Scalar tail uses the same FMA contraction as the vector body so
        // the SIMD leg is uniform regardless of lane alignment.
        acc_re[k] = (-a_im[k]).mul_add(b_im[k], a_re[k].mul_add(b_re[k], acc_re[k]));
        acc_im[k] = a_im[k].mul_add(b_re[k], a_re[k].mul_add(b_im[k], acc_im[k]));
        k += 1;
    }
}

/// `acc1 += c ⊙ u` and `acc2 += c ⊙ v` in one pass over `c` — the fused
/// external-product / bundle-update inner loop. Per accumulator the
/// element operations match [`mul_acc`] exactly (in both legs), so one
/// fused call is bit-identical to two single calls on either path.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mul_acc_pair(
    acc1_re: &mut [f64],
    acc1_im: &mut [f64],
    acc2_re: &mut [f64],
    acc2_im: &mut [f64],
    c_re: &[f64],
    c_im: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    v_re: &[f64],
    v_im: &[f64],
) {
    let m = acc1_re.len();
    assert_eq!(acc1_im.len(), m, "component length mismatch");
    assert_eq!(acc2_re.len(), m, "component length mismatch");
    assert_eq!(acc2_im.len(), m, "component length mismatch");
    assert_eq!(c_re.len(), m, "component length mismatch");
    assert_eq!(c_im.len(), m, "component length mismatch");
    assert_eq!(u_re.len(), m, "component length mismatch");
    assert_eq!(u_im.len(), m, "component length mismatch");
    assert_eq!(v_re.len(), m, "component length mismatch");
    assert_eq!(v_im.len(), m, "component length mismatch");
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe {
            mul_acc_pair_avx(
                acc1_re, acc1_im, acc2_re, acc2_im, c_re, c_im, u_re, u_im, v_re, v_im,
            )
        };
        return;
    }
    for k in 0..m {
        let (cr, ci) = (c_re[k], c_im[k]);
        acc1_re[k] += cr * u_re[k] - ci * u_im[k];
        acc1_im[k] += cr * u_im[k] + ci * u_re[k];
        acc2_re[k] += cr * v_re[k] - ci * v_im[k];
        acc2_im[k] += cr * v_im[k] + ci * v_re[k];
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn mul_acc_pair_avx(
    acc1_re: &mut [f64],
    acc1_im: &mut [f64],
    acc2_re: &mut [f64],
    acc2_im: &mut [f64],
    c_re: &[f64],
    c_im: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    v_re: &[f64],
    v_im: &[f64],
) {
    use std::arch::x86_64::*;
    let m = acc1_re.len();
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let cr = _mm256_loadu_pd(c_re.as_ptr().add(k));
            let ci = _mm256_loadu_pd(c_im.as_ptr().add(k));
            let ur = _mm256_loadu_pd(u_re.as_ptr().add(k));
            let ui = _mm256_loadu_pd(u_im.as_ptr().add(k));
            let mut x = _mm256_loadu_pd(acc1_re.as_ptr().add(k));
            let mut y = _mm256_loadu_pd(acc1_im.as_ptr().add(k));
            x = _mm256_fmadd_pd(cr, ur, x);
            x = _mm256_fnmadd_pd(ci, ui, x);
            y = _mm256_fmadd_pd(cr, ui, y);
            y = _mm256_fmadd_pd(ci, ur, y);
            _mm256_storeu_pd(acc1_re.as_mut_ptr().add(k), x);
            _mm256_storeu_pd(acc1_im.as_mut_ptr().add(k), y);
            let vr = _mm256_loadu_pd(v_re.as_ptr().add(k));
            let vi = _mm256_loadu_pd(v_im.as_ptr().add(k));
            let mut x = _mm256_loadu_pd(acc2_re.as_ptr().add(k));
            let mut y = _mm256_loadu_pd(acc2_im.as_ptr().add(k));
            x = _mm256_fmadd_pd(cr, vr, x);
            x = _mm256_fnmadd_pd(ci, vi, x);
            y = _mm256_fmadd_pd(cr, vi, y);
            y = _mm256_fmadd_pd(ci, vr, y);
            _mm256_storeu_pd(acc2_re.as_mut_ptr().add(k), x);
            _mm256_storeu_pd(acc2_im.as_mut_ptr().add(k), y);
        }
        k += 4;
    }
    while k < m {
        let (cr, ci) = (c_re[k], c_im[k]);
        acc1_re[k] = (-ci).mul_add(u_im[k], cr.mul_add(u_re[k], acc1_re[k]));
        acc1_im[k] = ci.mul_add(u_re[k], cr.mul_add(u_im[k], acc1_im[k]));
        acc2_re[k] = (-ci).mul_add(v_im[k], cr.mul_add(v_re[k], acc2_re[k]));
        acc2_im[k] = ci.mul_add(v_re[k], cr.mul_add(v_im[k], acc2_im[k]));
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// f64 twist kernels
// ---------------------------------------------------------------------------

/// What a fold makes of a stored 32-bit coefficient before twisting it:
/// `((x + offset) ≫ shift & mask) − half`, as a signed integer. One gadget
/// digit of a torus coefficient is that expression
/// ([`FoldDigit::level`]); so is the coefficient itself
/// ([`FoldDigit::WHOLE`]), which lets each engine's folds be one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldDigit {
    offset: u32,
    shift: u32,
    mask: u32,
    half: i32,
}

impl FoldDigit {
    /// The coefficient as it stands: an `i32`, or a torus element's centred
    /// representative.
    pub const WHOLE: Self = Self {
        offset: 0,
        shift: 0,
        mask: u32::MAX,
        half: 0,
    };

    /// Digit `level` of `decomp` (`0` = most significant): bit-identical to
    /// `decomp.digit(decomp.shift(x), level)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not one of `decomp`'s.
    pub fn level(decomp: &GadgetDecomposer, level: usize) -> Self {
        assert!(level < decomp.levels(), "digit level out of range");
        Self {
            offset: decomp.shift(Torus32::ZERO),
            shift: 32 - (level as u32 + 1) * decomp.bg_bits(),
            mask: decomp.base() - 1,
            half: (decomp.base() / 2) as i32,
        }
    }

    /// The integer the fold twists for stored word `x`.
    #[inline]
    pub fn of(self, x: u32) -> i32 {
        ((x.wrapping_add(self.offset) >> self.shift) & self.mask) as i32 - self.half
    }

    /// [`FoldDigit::of`] on four 32-bit lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    fn of_lanes(self, x: __m128i) -> __m128i {
        use std::arch::x86_64::*;
        let shifted = _mm_srl_epi32(
            _mm_add_epi32(x, _mm_set1_epi32(self.offset as i32)),
            _mm_cvtsi32_si128(self.shift as i32),
        );
        _mm_sub_epi32(
            _mm_and_si128(shifted, _mm_set1_epi32(self.mask as i32)),
            _mm_set1_epi32(self.half),
        )
    }
}

/// An integer polynomial's coefficients as the raw words the folds read.
#[inline]
pub fn int_words(c: &[i32]) -> &[u32] {
    // SAFETY: `i32` and `u32` have the same size, alignment and validity.
    unsafe { std::slice::from_raw_parts(c.as_ptr().cast(), c.len()) }
}

/// A torus polynomial's coefficients as the raw words the folds read.
#[inline]
pub fn torus_words(c: &[Torus32]) -> &[u32] {
    // SAFETY: `Torus32` is `repr(transparent)` over `u32`.
    unsafe { std::slice::from_raw_parts(c.as_ptr().cast(), c.len()) }
}

/// The 4×4 transpose between the vector loads and the vector stores of a
/// bit-reversed block ([`BitReversal`]): rows in, columns out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose_avx(rows: [__m256d; 4]) -> [__m256d; 4] {
    use std::arch::x86_64::*;
    let lo01 = _mm256_unpacklo_pd(rows[0], rows[1]); // [r0[0], r1[0], r0[2], r1[2]]
    let hi01 = _mm256_unpackhi_pd(rows[0], rows[1]); // [r0[1], r1[1], r0[3], r1[3]]
    let lo23 = _mm256_unpacklo_pd(rows[2], rows[3]);
    let hi23 = _mm256_unpackhi_pd(rows[2], rows[3]);
    [
        _mm256_permute2f128_pd(lo01, lo23, 0x20),
        _mm256_permute2f128_pd(hi01, hi23, 0x20),
        _mm256_permute2f128_pd(lo01, lo23, 0x31),
        _mm256_permute2f128_pd(hi01, hi23, 0x31),
    ]
}

/// Offsets, in quarters of the buffer, of the four rows a bit-reversed
/// block loads and of the four columns it stores: lane `j` of a column is
/// row `j` of the block, and `rev2` of `0, 1, 2, 3` is `0, 2, 1, 3`.
#[cfg(target_arch = "x86_64")]
const REV2: [usize; 4] = [0, 2, 1, 3];

/// Smallest transform the 4×4 block form fits: two high and two low index
/// bits around at least nothing.
#[cfg(target_arch = "x86_64")]
const MIN_BLOCKED: usize = 16;

/// Butterfly length of the first stage the breadth-first stage loops run:
/// the two narrow stages before it (`len = 2` and `4`, four neighbouring
/// slots of bit-reversed data — one point from each quarter of the natural
/// order) belong to the pass that produces the bit-reversed buffer.
pub const FIRST_WIDE_STAGE: usize = 8;

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
    fn narrow_stages(&self, re: &mut [f64], im: &mut [f64]) {
        let mut len = 2;
        while len < FIRST_WIDE_STAGE && len <= re.len() {
            let (wre, wim) = self.stages.stage_split(len);
            radix2_stage(re, im, wre, wim, len);
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

/// Stores a block's four rows as the four columns they are in bit-reversed
/// order: column `l` at `slot + rev2(l)·M/4`.
///
/// # Safety
///
/// `slot + 3·quarter + 4` is within both buffers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_columns_avx(
    rows: [CplxLanes; 4],
    re: *mut f64,
    im: *mut f64,
    slot: usize,
    quarter: usize,
) {
    use std::arch::x86_64::*;
    let cols_re = transpose_avx(rows.map(|(r, _)| r));
    let cols_im = transpose_avx(rows.map(|(_, i)| i));
    for (l, (c_re, c_im)) in cols_re.into_iter().zip(cols_im).enumerate() {
        unsafe {
            _mm256_storeu_pd(re.add(slot + REV2[l] * quarter), c_re);
            _mm256_storeu_pd(im.add(slot + REV2[l] * quarter), c_im);
        }
    }
}

/// The whole negacyclic fold of the double-precision engine, one pass:
/// point `k` is `(digit.of(lo[k]) + i·digit.of(hi[k])) · (twre[k] +
/// i·twim[k])`.
///
/// `reversed = None` stores it at slot `k`: the natural-order reference the
/// equivalence suites hold the reversed fold to, and what the vector leg
/// folds to before it permutes a transform too small for a 4×4 block.
/// `Some(..)` produces what the breadth-first stage loop consumes
/// from [`FIRST_WIDE_STAGE`] on: every point at its bit-reversed slot and
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
    if m >= 4 && simd_active() {
        // A transform too small for a 4×4 block folds in natural order and
        // is permuted through the table.
        let blocked = reversed.filter(|_| m >= MIN_BLOCKED);
        // SAFETY: simd_active() implies AVX2+FMA; the lengths were checked,
        // and a `BitReversal` of length `m` holds the reversal of `0..m`.
        unsafe { fold_twist_avx(lo, hi, digit, twre, twim, blocked, re, im) };
        if let (Some(reversed), None) = (reversed, blocked) {
            reversed.order.permute_pair(re, im);
            reversed.narrow_stages(re, im);
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
        reversed.narrow_stages(re, im);
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
/// backward stage loop consumes from [`FIRST_WIDE_STAGE`] on.
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
) {
    let m = reversed.order.len();
    assert_eq!(reversed.stages.size(), m, "tables built for another size");
    assert_eq!(src_re.len(), m, "buffer length is not the table's");
    assert_eq!(src_im.len(), m, "buffer length is not the table's");
    assert_eq!(dst_re.len(), m, "buffer length is not the table's");
    assert_eq!(dst_im.len(), m, "buffer length is not the table's");
    #[cfg(target_arch = "x86_64")]
    if m >= MIN_BLOCKED && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA; all four buffers hold `m`
        // elements and `order` holds the reversal of `0..m`.
        unsafe { bit_reverse_copy_pair_avx(src_re, src_im, reversed, dst_re, dst_im) };
        return;
    }
    bit_reverse_copy(src_re, dst_re, reversed.order);
    bit_reverse_copy(src_im, dst_im, reversed.order);
    reversed.narrow_stages(dst_re, dst_im);
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

/// `dst[i] = src[rev[i]]` for one component: the reversed working copy of
/// a backward transform, which reads the caller's spectrum exactly once.
/// Elements are moved, never computed on, so the vector leg (4×4 blocks of
/// 64-bit elements — both engines' spectra) serves `f64` and `i64` alike.
///
/// # Panics
///
/// Panics if either slice's length is not the table's.
pub fn bit_reverse_copy<T: Copy>(src: &[T], dst: &mut [T], order: &BitReversal) {
    let m = order.len();
    assert_eq!(src.len(), m, "buffer length is not the table's");
    assert_eq!(dst.len(), m, "buffer length is not the table's");
    #[cfg(target_arch = "x86_64")]
    if std::mem::size_of::<T>() == 8 && m >= MIN_BLOCKED && simd_active() {
        // SAFETY: simd_active() implies AVX2; both buffers hold `m` 64-bit
        // elements, moved as bit patterns by unaligned loads, shuffles and
        // stores; `order` holds the reversal of `0..m`.
        unsafe {
            bit_reverse_copy_avx(src.as_ptr().cast(), dst.as_mut_ptr().cast(), order.index())
        };
        return;
    }
    for (d, &j) in dst.iter_mut().zip(order.index()) {
        *d = src[j as usize];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bit_reverse_copy_avx(src: *const f64, dst: *mut f64, rev: &[u32]) {
    use std::arch::x86_64::*;
    let quarter = rev.len() / 4;
    for k in (0..quarter).step_by(4) {
        // SAFETY: rows `k + h·M/4 + 0..4` and columns `rev[k] + h·M/4 +
        // 0..4` lie inside the `M`-element buffers (`rev[k] ≤ M/4 − 4`).
        unsafe {
            let cols = transpose_avx(REV2.map(|h| _mm256_loadu_pd(src.add(k + h * quarter))));
            let slot = rev[k] as usize;
            for (l, col) in cols.into_iter().enumerate() {
                _mm256_storeu_pd(dst.add(slot + REV2[l] * quarter), col);
            }
        }
    }
}

const TWO_32: f64 = 4294967296.0;
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
pub fn reduce_turns(t: f64) -> u32 {
    let y = (t - round_half_away(t) as f64) * TWO_32;
    round_half_away(y) as u32
}

/// The fused tail of every backward transform, one pass over the inverse
/// DFT's output: multiply by the *conjugated* twist table, apply the
/// `1/M` normalization, reduce modulo `2^32` and store torus coefficients
/// — real parts to `lo`, imaginary parts to `hi`.
///
/// `inv_len` must be a power of two: it is folded into the `2⁻³²` multiply
/// that [`reduce_turns`] needs anyway, which is exact, so the result equals
/// normalizing first, then untwisting, then reducing.
///
/// # Panics
///
/// Panics on mismatched slice lengths or an `inv_len` that is not a power
/// of two.
pub fn untwist_to_torus(
    re: &[f64],
    im: &[f64],
    twre: &[f64],
    twim: &[f64],
    inv_len: f64,
    lo: &mut [Torus32],
    hi: &mut [Torus32],
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
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
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
unsafe fn untwist_to_torus_avx(
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

/// Bytes the AVX2 bundle rows (both engines') prefetch ahead of their
/// loads: one `prefetcht0` per 64-byte line consumed, of the line this far
/// down the key. A bootstrapping key is one slab in the order blind
/// rotation reads it ([`KeyBlock`]), 35 MB at `m = 2` and 55 MB at `m = 3`,
/// so the line 4 KB ahead is the line the row — or the next row, or the
/// next group's first row: the lookahead runs off a block's end into
/// whatever the key holds next, which is what hides the wait at the head
/// of a group — reads 64 lines from now, and the hint stops only at the
/// key's last word. What it buys depends on how busy memory is. Measured
/// on a quiet host (gate time in one process, minimum / median of 150):
/// the integer engine at `m = 3`, whose rows have arithmetic to hide a
/// fetch behind, 22.6–24.3 / 26 ms with no hint, 20.9–22.7 / 23.5–25 at
/// 1 KB, 19.4–21.1 / 20.2–22.7 at 2, 4 and 8 KB alike; the f64 engine at
/// `m = 2` 7.3–7.8 / 7.6–8.3 ms at every distance and with none — one
/// forward stream is what the hardware prefetcher is good at, and on that
/// host it kept up by itself. The issue that introduced the slab measured
/// a busier one (4 KB against none: −26 % on the f64 gate's median).
#[cfg(target_arch = "x86_64")]
const BUNDLE_PREFETCH_AHEAD: usize = 4096;
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
/// (`BUNDLE_PREFETCH_AHEAD`): a row is a wait for the key.
///
/// # Panics
///
/// Panics on mismatched slice lengths, on a key stream shorter than the
/// block, and on a slot outside the block's patterns.
pub fn bundle_row(
    out_re: &mut [f64],
    out_im: &mut [f64],
    (h_re, h_im): (&[f64], &[f64]),
    key: KeyBlock<'_>,
    slots: &[u8],
    (f_re, f_im): (&[f64], &[f64]),
) {
    let m = out_re.len();
    assert_eq!(out_im.len(), m, "component length mismatch");
    assert_eq!(h_re.len(), m, "component length mismatch");
    assert_eq!(h_im.len(), m, "component length mismatch");
    assert_eq!(f_re.len(), slots.len() * m, "one factor table per slot");
    assert_eq!(f_im.len(), slots.len() * m, "one factor table per slot");
    key.assert_holds(m, slots);
    #[cfg(target_arch = "x86_64")]
    if m.is_multiple_of(KEY_CHUNK) && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present; the lengths,
        // the block and the slots were checked above.
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

/// The 64-byte lines of a key block as a bundle row's vector leg meets
/// them — chunk by chunk, and within a chunk the active slots in order —
/// each handed to `line(p, words)` with a prefetch of its counterpart
/// [`BUNDLE_PREFETCH_AHEAD`] bytes down the key already issued.
///
/// # Safety
///
/// `key.stream` must hold the block of `chunks` chunks and every slot be
/// one of `key.patterns` ([`KeyBlock::assert_holds`] with `m = 8·chunks`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn key_lines_of_chunk(
    key: KeyBlock<'_>,
    chunk: usize,
    slots: &[u8],
    mut line: impl FnMut(usize, *const i32),
) {
    let words = key.stream.as_ptr_range();
    // SAFETY: chunk `chunk` of the block starts inside the stream.
    let first = unsafe { words.start.add(chunk * 2 * KEY_CHUNK * key.patterns) };
    for (p, &slot) in slots.iter().enumerate() {
        // SAFETY: the slot's line lies inside the block.
        let at = unsafe { first.add(slot as usize * 2 * KEY_CHUNK) };
        if words.end as usize - at as usize > BUNDLE_PREFETCH_AHEAD {
            // SAFETY: a hint, not an access — and the check above puts
            // the address inside the stream.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    at.byte_add(BUNDLE_PREFETCH_AHEAD).cast(),
                );
            }
        }
        line(p, at);
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
// i64 kernels (integer engine)
// ---------------------------------------------------------------------------

/// Exclusive magnitude bound on everything the integer lifts' vector legs
/// read: the values a butterfly stage, the twist or the untwist rotates,
/// *and* the intermediate `x`/`y` between the three lifts. The legs take a
/// value apart as `v = v_h·2³¹ + v_l` and multiply the halves with the
/// signed 32-bit `vpmuldq`; `v_h` fits 32 bits exactly when `|v| < 2⁶²`.
///
/// The engine's own scaling keeps forward buffers within `2⁶¹·√2` in
/// complex magnitude ([`crate::ApproxIntFft`] picks its pre-scales for
/// that), a lift's intermediate is at most `√2` times its input's
/// magnitude (`|t| ≤ 1`), and the halving inverse stages never grow a
/// value — so transforms of valid inputs stay inside on every stage. The
/// scalar legs accept the full `i64` range; outside this bound the two
/// legs may disagree (no memory unsafety, only different integers).
pub const I64_LANE_BOUND: u64 = 1 << 62;

/// `debug_assert`s the [`I64_LANE_BOUND`] precondition on kernel inputs.
#[inline]
fn debug_assert_lane_bound(vs: &[i64]) {
    debug_assert!(
        vs.iter().all(|v| v.unsigned_abs() < I64_LANE_BOUND),
        "integer kernel input outside ±2^62"
    );
}

/// How the vector leg evaluates one lift `⌊(x·α + 2^{β−1}) / 2^β⌋` without a
/// 64×64-bit multiply: with `x = x_h·2³¹ + x_l` (`0 ≤ x_l < 2³¹`) and
/// `α = α_h·2^c + α_l` (`0 ≤ α_l < 2^c`),
///
/// ```text
/// x·α + 2^{β−1} = x_h·α_h·2^{31+c} + (x_h·α_l·2³¹ + x_l·α_h·2^c + x_l·α_l + 2^{β−1})
/// ```
///
/// and, dividing by `2^β` with nested floors (`x_l·α_l ≥ 0`),
///
/// ```text
/// lift = (x_h·α_h ≪ hh) + ((x_h·α_l ≪ hl) + x_l·α_h + (x_l·α_l ≫ c) + 2^{β−1−c}) ≫ₐ out
/// hh = 31 + c − β,   hl = 31 − c,   out = β − c.
/// ```
///
/// `c = min(31, β − 1)` satisfies every bound this needs for `β ≤ 61`:
///
/// * four signed 32-bit operands: `|x_h| ≤ 2³¹` from `|x| < 2⁶²`
///   ([`I64_LANE_BOUND`]); `x_l < 2³¹`; `α_l < 2^c ≤ 2³¹`;
///   `|α_h| ≤ 2^{β−c} ≤ 2³⁰` from `|α| ≤ 2^β` (lifting coefficients lie
///   in `[−1, 1]`) and `β − c ≤ 30`;
/// * all three shift counts non-negative: `c ≥ β − 31`, `c ≤ 31`,
///   `c ≤ β − 1`;
/// * the inner sum is exact, so its arithmetic shift is too:
///   `|x_h·α_l ≪ hl| < 2³¹·2^c·2^{31−c} = 2⁶²`, `|x_l·α_h| < 2³¹·2³⁰`,
///   `x_l·α_l ≫ c < 2³¹`, rounding term `≤ 2²⁹` — below `2⁶³` together;
/// * the outer sum may wrap on the way: it is taken modulo `2⁶⁴` and its
///   true value, the lift, fits.
///
/// `β = 62` would need `|α_h| ≤ 2³¹`, one bit too many: that width keeps
/// the scalar leg. The arithmetic shift `v ≫ₐ k` is
/// `((v + 2⁶³) ≫ k) − 2^{63−k}` with a logical shift; the `2⁶³` rides in
/// the rounding constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiftSplit {
    /// Width `c` of `α_l`.
    c: u32,
    /// `31 + c − β`.
    hh: u32,
    /// `31 − c`.
    hl: u32,
    /// `β − c`.
    out: u32,
    /// `2^{β−1−c} + 2⁶³` (wrapped).
    round: i64,
    /// `2^{63−out}`.
    bias: i64,
}

impl LiftSplit {
    /// The split for `beta`-bit coefficients, or `None` where the vector
    /// leg does not reach (`beta = 62`; anything outside `1..=62` is not a
    /// coefficient width at all).
    pub fn new(beta: u32) -> Option<Self> {
        if !(1..=61).contains(&beta) {
            return None;
        }
        let c = (beta - 1).min(31);
        let out = beta - c;
        debug_assert!((1..=30).contains(&out) && 31 + c >= beta);
        Some(Self {
            c,
            hh: 31 + c - beta,
            hl: 31 - c,
            out,
            round: (1i64 << (beta - 1 - c)).wrapping_add(i64::MIN),
            bias: 1 << (63 - out),
        })
    }
}

/// In-place rotation of every point `(re[k], im[k])` by rotation `k` of
/// `rots` — the negacyclic twist after the fold and the untwist before the
/// store, with the same lift as the butterflies.
///
/// # Panics
///
/// Panics on mismatched lengths.
pub fn i64_rotate(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(rots.len(), m, "rotation table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let (Some(split), true) = (rots.split, m.is_multiple_of(4) && simd_active()) {
        debug_assert_lane_bound(re);
        debug_assert_lane_bound(im);
        // SAFETY: simd_active() implies AVX2; the lengths were checked.
        unsafe { i64_rotate_avx(re, im, rots, split) };
        return;
    }
    for k in 0..m {
        (re[k], im[k]) = rots.rotate(k, re[k], im[k]);
    }
}

/// The whole negacyclic fold of the integer engine, one pass: point `k` is
/// `(digit.of(lo[k]) ≪ frac_bits, digit.of(hi[k]) ≪ frac_bits)` rotated by
/// rotation `k` of `rots` (the twist, the same lift as the butterflies) and
/// stored straight at its bit-reversed slot `order.index()[k]`, where the
/// forward stages want it. Both legs produce the same integers as
/// pre-scaling into natural order, [`i64_rotate`] and a permutation.
///
/// # Panics
///
/// Panics on mismatched lengths, or an `order` built for another size.
#[allow(clippy::too_many_arguments)]
pub fn i64_fold_rotate(
    lo: &[u32],
    hi: &[u32],
    digit: FoldDigit,
    frac_bits: u32,
    rots: Lifts<'_>,
    order: &BitReversal,
    re: &mut [i64],
    im: &mut [i64],
) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(lo.len(), m, "coefficient half length mismatch");
    assert_eq!(hi.len(), m, "coefficient half length mismatch");
    assert_eq!(rots.len(), m, "rotation table length mismatch");
    assert_eq!(order.len(), m, "bit-reversal table built for another size");
    assert!(frac_bits < 64, "pre-scale wider than a lane");
    #[cfg(target_arch = "x86_64")]
    if let (Some(split), true) = (rots.split, m >= MIN_BLOCKED && simd_active()) {
        // SAFETY: simd_active() implies AVX2; the lengths were checked, and
        // a `BitReversal` of length `m` holds the reversal of `0..m`.
        unsafe {
            i64_fold_rotate_avx(lo, hi, digit, frac_bits, rots, split, order.index(), re, im)
        };
        return;
    }
    for (k, &slot) in order.index().iter().enumerate() {
        let x = (digit.of(lo[k]) as i64) << frac_bits;
        let y = (digit.of(hi[k]) as i64) << frac_bits;
        (re[slot as usize], im[slot as usize]) = rots.rotate(k, x, y);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn i64_fold_rotate_avx(
    lo: &[u32],
    hi: &[u32],
    digit: FoldDigit,
    frac_bits: u32,
    rots: Lifts<'_>,
    split: LiftSplit,
    rev: &[u32],
    re: &mut [i64],
    im: &mut [i64],
) {
    use std::arch::x86_64::*;
    let quarter = re.len() / 4;
    let lanes = LiftLanes::new(split);
    let frac = _mm_cvtsi32_si128(frac_bits as i32);
    // SAFETY (the loads): `k + 4 <= m`, every slice's length.
    let rotated = |k: usize| unsafe {
        let scaled = |c: &[u32]| {
            let words = _mm_loadu_si128(c.as_ptr().add(k).cast());
            _mm256_sll_epi64(_mm256_cvtepi32_epi64(digit.of_lanes(words)), frac)
        };
        let (t, s, neg) = lanes.load(rots, k);
        lanes.rotate(scaled(lo), scaled(hi), t, s, neg)
    };
    for k in (0..quarter).step_by(4) {
        // The transpose moves bit patterns: the f64 shuffles serve.
        let rows = REV2.map(|h| {
            let (x, y) = rotated(k + h * quarter);
            (_mm256_castsi256_pd(x), _mm256_castsi256_pd(y))
        });
        // SAFETY: `rev[k] ≤ M/4 − 4` for a 4-aligned `k < M/4`.
        unsafe {
            store_columns_avx(
                rows,
                re.as_mut_ptr().cast(),
                im.as_mut_ptr().cast(),
                rev[k] as usize,
                quarter,
            )
        };
    }
}

/// One radix-2 butterfly stage of the integer engine: the stage's lifting
/// rotations applied with unit stride, then `u ± v`.
///
/// Both legs read the same [`Lifts`] and produce the same integers: the
/// scalar leg multiplies in `i128` ([`crate::lifting`]'s definition), the
/// AVX2 leg recombines four 32-bit partial products per lift
/// ([`LiftSplit`]) for inputs below [`I64_LANE_BOUND`].
///
/// # Panics
///
/// Panics on mismatched lengths.
pub fn i64_radix2_stage(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>, len: usize) {
    i64_stage::<false>(re, im, rots, len);
}

/// [`i64_radix2_stage`] with a round-half-up halving of every output —
/// `log2(M)` of these realize the `1/M` inverse normalization without a
/// multiplier.
pub fn i64_radix2_stage_halving(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>, len: usize) {
    i64_stage::<true>(re, im, rots, len);
}

fn i64_stage<const HALVE: bool>(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>, len: usize) {
    let m = re.len();
    let half = len / 2;
    assert_eq!(im.len(), m, "component length mismatch");
    assert!(
        len >= 2 && m.is_multiple_of(len),
        "buffer not a multiple of the stage length"
    );
    assert_eq!(rots.len(), half, "rotation table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let (Some(split), true) = (rots.split, m >= 8 && simd_active()) {
        debug_assert_lane_bound(re);
        debug_assert_lane_bound(im);
        // SAFETY (all three): simd_active() implies AVX2; the lengths were
        // checked, and `m` is a multiple of 8 (a multiple of `len`, a
        // power of two, and at least 8).
        if half >= 4 {
            unsafe { i64_stage_avx::<HALVE>(re, im, rots, split, len) };
            return;
        }
        // The two narrow stages have in-register butterflies, like their
        // f64 counterparts. `len = 2` rotates by angle 0 only, so its
        // vector form is the bare butterfly; a table that says otherwise
        // takes the scalar loop.
        if len == 2 && rots.is_identity(0) {
            unsafe { i64_stage2_avx::<HALVE>(re, im) };
            return;
        }
        if len == 4 {
            unsafe { i64_stage4_avx::<HALVE>(re, im, rots, split) };
            return;
        }
    }
    let scale = |v: i64| if HALVE { half_round(v) } else { v };
    // Rotation outside, blocks inside: the coefficients (and whether they
    // are a zero lift) are fixed along the inner loop.
    for k in 0..half {
        for start in (0..m).step_by(len) {
            let (vr, vi) = rots.rotate(k, re[start + half + k], im[start + half + k]);
            let (ur, ui) = (re[start + k], im[start + k]);
            re[start + k] = scale(ur + vr);
            im[start + k] = scale(ui + vi);
            re[start + half + k] = scale(ur - vr);
            im[start + half + k] = scale(ui - vi);
        }
    }
}

/// Round-half-up division by two.
#[inline]
pub(crate) fn half_round(v: i64) -> i64 {
    (v + 1) >> 1
}

/// A coefficient vector taken apart for `vpmuldq`: `(α_h, α_l)`.
#[cfg(target_arch = "x86_64")]
type SplitLanes = (__m256i, __m256i);

/// The lift and the rotation on four 64-bit lanes: [`LiftSplit`]'s
/// constants broadcast once per kernel call.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct LiftLanes {
    low31: __m256i,
    low_c: __m256i,
    round: __m256i,
    bias: __m256i,
    c: __m128i,
    hh: __m128i,
    hl: __m128i,
    out: __m128i,
}

#[cfg(target_arch = "x86_64")]
impl LiftLanes {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new(split: LiftSplit) -> Self {
        use std::arch::x86_64::*;
        let count = |n: u32| _mm_cvtsi32_si128(n as i32);
        Self {
            low31: _mm256_set1_epi64x((1 << 31) - 1),
            low_c: _mm256_set1_epi64x((1 << split.c) - 1),
            round: _mm256_set1_epi64x(split.round),
            bias: _mm256_set1_epi64x(split.bias),
            c: count(split.c),
            hh: count(split.hh),
            hl: count(split.hl),
            out: count(split.out),
        }
    }

    /// `(α_h, α_l)` in the low halves of the lanes, where `vpmuldq` reads
    /// its operands: bits `c..c+32` of `α` are `α ≫ₐ c` as an `i32`
    /// because that quotient fits one.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn split(&self, alpha: __m256i) -> SplitLanes {
        use std::arch::x86_64::*;
        (
            _mm256_srl_epi64(alpha, self.c),
            _mm256_and_si256(alpha, self.low_c),
        )
    }

    /// Rotations `k..k + 4` of `rots`: `t` and `s` split, and the negation
    /// masks.
    ///
    /// # Safety
    ///
    /// `k + 4 <= rots.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(&self, rots: Lifts<'_>, k: usize) -> (SplitLanes, SplitLanes, __m256i) {
        use std::arch::x86_64::*;
        // SAFETY: the caller keeps the four entries in bounds of all three
        // (equally long) slices.
        unsafe {
            (
                self.split(_mm256_loadu_si256(rots.t.as_ptr().add(k).cast())),
                self.split(_mm256_loadu_si256(rots.s.as_ptr().add(k).cast())),
                _mm256_loadu_si256(rots.neg.as_ptr().add(k).cast()),
            )
        }
    }

    /// `⌊(x·α + 2^{β−1}) / 2^β⌋` per lane, for `|x| < 2⁶²`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lift(&self, x: __m256i, (a_h, a_l): SplitLanes) -> __m256i {
        use std::arch::x86_64::*;
        // Bits 31..63 of x: x_h as an i32 in the low half of the lane.
        let x_h = _mm256_srli_epi64::<31>(x);
        let x_l = _mm256_and_si256(x, self.low31);
        let hh = _mm256_mul_epi32(x_h, a_h);
        let hl = _mm256_mul_epi32(x_h, a_l);
        let lh = _mm256_mul_epi32(x_l, a_h);
        let ll = _mm256_mul_epi32(x_l, a_l);
        let inner = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_sll_epi64(hl, self.hl), lh),
            _mm256_add_epi64(_mm256_srl_epi64(ll, self.c), self.round),
        );
        _mm256_add_epi64(
            _mm256_sll_epi64(hh, self.hh),
            _mm256_sub_epi64(_mm256_srl_epi64(inner, self.out), self.bias),
        )
    }

    /// The three lifts and the masked negation of [`Lifts::rotate`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotate(
        &self,
        mut x: __m256i,
        mut y: __m256i,
        t: SplitLanes,
        s: SplitLanes,
        neg: __m256i,
    ) -> (__m256i, __m256i) {
        use std::arch::x86_64::*;
        x = _mm256_add_epi64(x, self.lift(y, t));
        y = _mm256_add_epi64(y, self.lift(x, s));
        x = _mm256_add_epi64(x, self.lift(y, t));
        (
            _mm256_sub_epi64(_mm256_xor_si256(x, neg), neg),
            _mm256_sub_epi64(_mm256_xor_si256(y, neg), neg),
        )
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i64_rotate_avx(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>, split: LiftSplit) {
    use std::arch::x86_64::*;
    let m = re.len();
    let lanes = LiftLanes::new(split);
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let (t, s, neg) = lanes.load(rots, k);
            let x = _mm256_loadu_si256(re.as_ptr().add(k).cast());
            let y = _mm256_loadu_si256(im.as_ptr().add(k).cast());
            let (x, y) = lanes.rotate(x, y, t, s, neg);
            _mm256_storeu_si256(re.as_mut_ptr().add(k).cast(), x);
            _mm256_storeu_si256(im.as_mut_ptr().add(k).cast(), y);
        }
        k += 4;
    }
    debug_assert_eq!(k, m);
}

/// `(v + 1) ≫ₐ 1` on four lanes when `HALVE`, the identity otherwise:
/// `((v + 1 + 2⁶³) ≫ 1) − 2⁶²` with a logical shift.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn half_round_avx<const HALVE: bool>(v: __m256i) -> __m256i {
    use std::arch::x86_64::*;
    if HALVE {
        let sum = _mm256_add_epi64(v, _mm256_set1_epi64x(i64::MIN + 1));
        _mm256_sub_epi64(_mm256_srli_epi64::<1>(sum), _mm256_set1_epi64x(1 << 62))
    } else {
        v
    }
}

/// `v = rot(x)`, then `(u + v, u − v)` (halved when `HALVE`), on four lanes:
/// the butterfly of the vector stages.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn i64_butterfly_avx<const HALVE: bool>(
    lanes: &LiftLanes,
    (ur, ui): (__m256i, __m256i),
    (xr, xi): (__m256i, __m256i),
    (t, s, neg): (SplitLanes, SplitLanes, __m256i),
) -> [(__m256i, __m256i); 2] {
    use std::arch::x86_64::*;
    let (vr, vi) = lanes.rotate(xr, xi, t, s, neg);
    [
        (
            half_round_avx::<HALVE>(_mm256_add_epi64(ur, vr)),
            half_round_avx::<HALVE>(_mm256_add_epi64(ui, vi)),
        ),
        (
            half_round_avx::<HALVE>(_mm256_sub_epi64(ur, vr)),
            half_round_avx::<HALVE>(_mm256_sub_epi64(ui, vi)),
        ),
    ]
}

/// Wide stages (`half ≥ 4`), four butterflies per iteration. The `k` loop
/// is the outer one so a group of four coefficients is split once and
/// serves every block of the stage; the buffer is L1-resident either way.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i64_stage_avx<const HALVE: bool>(
    re: &mut [i64],
    im: &mut [i64],
    rots: Lifts<'_>,
    split: LiftSplit,
    len: usize,
) {
    use std::arch::x86_64::*;
    let m = re.len();
    let half = len / 2;
    let lanes = LiftLanes::new(split);
    let mut k = 0;
    while k + 4 <= half {
        unsafe {
            let w = lanes.load(rots, k);
            let mut start = k;
            while start < m {
                let (rp, ip) = (re.as_mut_ptr().add(start), im.as_mut_ptr().add(start));
                let at = |q: usize| {
                    (
                        _mm256_loadu_si256(rp.add(q).cast()),
                        _mm256_loadu_si256(ip.add(q).cast()),
                    )
                };
                let [sum, dif] = i64_butterfly_avx::<HALVE>(&lanes, at(0), at(half), w);
                for (q, (xr, xi)) in [(0, sum), (half, dif)] {
                    _mm256_storeu_si256(rp.add(q).cast(), xr);
                    _mm256_storeu_si256(ip.add(q).cast(), xi);
                }
                start += len;
            }
        }
        k += 4;
    }
    // `half` is a power of two ≥ 4 here (the dispatcher's condition).
    debug_assert_eq!(k, half);
}

/// Length-2 stage without its (identity) rotation: adjacent-pair
/// butterflies `(u, v) → (u+v, u−v)`, four per iteration via 64-bit
/// unpacks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i64_stage2_avx<const HALVE: bool>(re: &mut [i64], im: &mut [i64]) {
    use std::arch::x86_64::*;
    let m = re.len();
    for comp in [re, im] {
        let p = comp.as_mut_ptr();
        let mut k = 0;
        while k + 8 <= m {
            unsafe {
                let a = _mm256_loadu_si256(p.add(k).cast()); // [u0, v0, u1, v1]
                let b = _mm256_loadu_si256(p.add(k + 4).cast()); // [u2, v2, u3, v3]
                let u = _mm256_unpacklo_epi64(a, b); // [u0, u2, u1, u3]
                let v = _mm256_unpackhi_epi64(a, b); // [v0, v2, v1, v3]
                let sum = half_round_avx::<HALVE>(_mm256_add_epi64(u, v));
                let dif = half_round_avx::<HALVE>(_mm256_sub_epi64(u, v));
                _mm256_storeu_si256(p.add(k).cast(), _mm256_unpacklo_epi64(sum, dif));
                _mm256_storeu_si256(p.add(k + 4).cast(), _mm256_unpackhi_epi64(sum, dif));
            }
            k += 8;
        }
        debug_assert_eq!(k, m);
    }
}

/// Length-4 stage (`half = 2`): two blocks per iteration, lane-split with
/// 128-bit permutes so each block's two butterflies meet the broadcast
/// pair of rotations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i64_stage4_avx<const HALVE: bool>(
    re: &mut [i64],
    im: &mut [i64],
    rots: Lifts<'_>,
    split: LiftSplit,
) {
    use std::arch::x86_64::*;
    let m = re.len();
    let lanes = LiftLanes::new(split);
    unsafe {
        let pair = |p: *const i64| _mm256_broadcastsi128_si256(_mm_loadu_si128(p.cast()));
        let w = (
            lanes.split(pair(rots.t.as_ptr())),
            lanes.split(pair(rots.s.as_ptr())),
            pair(rots.neg.as_ptr()),
        );
        let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
        let mut k = 0;
        while k + 8 <= m {
            let ar = _mm256_loadu_si256(rp.add(k).cast()); // block A [u0, u1, x0, x1]
            let br = _mm256_loadu_si256(rp.add(k + 4).cast()); // block B
            let ai = _mm256_loadu_si256(ip.add(k).cast());
            let bi = _mm256_loadu_si256(ip.add(k + 4).cast());
            let u = (
                _mm256_permute2x128_si256::<0x20>(ar, br), // [uA0, uA1, uB0, uB1]
                _mm256_permute2x128_si256::<0x20>(ai, bi),
            );
            let x = (
                _mm256_permute2x128_si256::<0x31>(ar, br), // [xA0, xA1, xB0, xB1]
                _mm256_permute2x128_si256::<0x31>(ai, bi),
            );
            let [(sr, si), (dr, di)] = i64_butterfly_avx::<HALVE>(&lanes, u, x, w);
            _mm256_storeu_si256(rp.add(k).cast(), _mm256_permute2x128_si256::<0x20>(sr, dr));
            _mm256_storeu_si256(
                rp.add(k + 4).cast(),
                _mm256_permute2x128_si256::<0x31>(sr, dr),
            );
            _mm256_storeu_si256(ip.add(k).cast(), _mm256_permute2x128_si256::<0x20>(si, di));
            _mm256_storeu_si256(
                ip.add(k + 4).cast(),
                _mm256_permute2x128_si256::<0x31>(si, di),
            );
            k += 8;
        }
        debug_assert_eq!(k, m);
    }
}

/// One bundle row of the integer engine in a single pass:
/// `out = (h ≫ drop) + Σ_p ⌊(K_{slots[p]} ⊙ f_p + 2^{S−1}) / 2^S⌋`, with
/// `drop = ` [`BUNDLE_DROP_BITS`], `K_s` the 32-bit mantissas stored in
/// pattern slot `s` of `key` and `S = ` [`MONO_FRAC_BITS`]` + drop − key.exp`
/// — here `key.exp` counts in `h`'s fixed-point words, so a mantissa `w`
/// stands for the word `w·2^{key.exp}` — each shift rounding half up, every
/// output element summed over the terms in order and stored once.
/// `factors` holds one length-`m` table of `[re, im]` pairs per slot, back
/// to back.
///
/// Both legs produce the same integers. A mantissa and a factor component
/// are 32 bits each, so a product is one signed 32×32→64-bit multiply —
/// the scalar leg's `i64` `*`, the AVX2 leg's `vpmuldq` — and the complex
/// product's components, sums of two of them, stay below `2⁶³` with their
/// rounding term: `|K|·|f| ≤ 2^{31.5}·2³¹` in complex magnitudes, the
/// factors being quantized `ε^e − 1` (`|f| ≤ 2` at [`MONO_FRAC_BITS`]).
/// One rounding shift follows per component. AVX2 has no 64-bit
/// arithmetic shift: `v ≫ₐ S` is `((v + 2⁶³) ≫ S) − 2^{63−S}` with a logical
/// shift, the `2⁶³` riding in the rounding constant and the `2^{63−S}` taken
/// off once per row for all its terms.
///
/// The AVX2 leg also prefetches down the key (`BUNDLE_PREFETCH_AHEAD`):
/// once the products are vector work, fetching the key is what a row waits
/// for, and how long that takes is the neighbours' doing, not the code's.
///
/// # Panics
///
/// Panics on mismatched lengths, on a key stream shorter than the block,
/// on a slot outside the block's patterns, and on a `key.exp` that leaves
/// no rounding shift (`S < 1`).
pub fn i64_bundle_row(
    out_re: &mut [i64],
    out_im: &mut [i64],
    (h_re, h_im): (&[i64], &[i64]),
    key: KeyBlock<'_>,
    slots: &[u8],
    factors: &[[i32; 2]],
) {
    let m = out_re.len();
    assert_eq!(out_im.len(), m, "component length mismatch");
    assert_eq!(h_re.len(), m, "component length mismatch");
    assert_eq!(h_im.len(), m, "component length mismatch");
    assert_eq!(factors.len(), slots.len() * m, "one factor table per slot");
    key.assert_holds(m, slots);
    assert!(
        key.exp < BUNDLE_SHIFT,
        "stored words of 2^{} leave no rounding shift",
        key.exp
    );
    let shift = BUNDLE_SHIFT - key.exp;
    #[cfg(target_arch = "x86_64")]
    if m.is_multiple_of(KEY_CHUNK) && simd_active() {
        // SAFETY: simd_active() implies AVX2; the lengths, the block and
        // the slots were checked above.
        unsafe { i64_bundle_row_avx(out_re, out_im, h_re, h_im, key, slots, factors, shift) };
        return;
    }
    let half = 1i64 << (BUNDLE_DROP_BITS - 1);
    let round = 1i64 << (shift - 1);
    for k in 0..m {
        let mut acc_re = (h_re[k] + half) >> BUNDLE_DROP_BITS;
        let mut acc_im = (h_im[k] + half) >> BUNDLE_DROP_BITS;
        for (p, &slot) in slots.iter().enumerate() {
            let at = KeyBlock::word_index(m, key.patterns, slot as usize, k);
            let sr = i64::from(key.stream[at]);
            let si = i64::from(key.stream[at + KeyBlock::chunk(m)]);
            let [fr, fi] = factors[p * m + k].map(i64::from);
            acc_re += (sr * fr - si * fi + round) >> shift;
            acc_im += (sr * fi + si * fr + round) >> shift;
        }
        out_re[k] = acc_re;
        out_im[k] = acc_im;
    }
}

/// Bits a bundle term's product is rounded back by, before the stored
/// words' own exponent comes off.
const BUNDLE_SHIFT: u32 = MONO_FRAC_BITS + BUNDLE_DROP_BITS;
#[cfg(target_arch = "x86_64")]
const _: () = assert!(BUNDLE_DROP_BITS >= 1);

/// # Safety
///
/// AVX2 must be present; `h_re`, `h_im` and `out_im` must hold
/// `m = out_re.len()` elements, `m` a multiple of [`KEY_CHUNK`], and
/// `factors` `m` per slot; `key.stream` must hold the block and every slot
/// be one of `key.patterns` ([`KeyBlock::assert_holds`]);
/// `1 ≤ shift ≤ 62`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn i64_bundle_row_avx(
    out_re: &mut [i64],
    out_im: &mut [i64],
    h_re: &[i64],
    h_im: &[i64],
    key: KeyBlock<'_>,
    slots: &[u8],
    factors: &[[i32; 2]],
    shift: u32,
) {
    use std::arch::x86_64::*;
    const DROP: i32 = BUNDLE_DROP_BITS as i32;
    let m = out_re.len();
    // Every `v ≫ₐ k` below is `((v + 2⁶³) ≫ k) − 2^{63−k}`; the constants
    // fold what can be folded. `h`: round, then undo the bias.
    let drop_round = _mm256_set1_epi64x((1i64 << (DROP - 1)).wrapping_add(i64::MIN));
    let drop_bias = _mm256_set1_epi64x(1 << (63 - DROP));
    // A term: its rounding constant carries the `2⁶³`; the `−2^{63−shift}`
    // is the same for every term, so the row takes it off once per slot.
    let round = _mm256_set1_epi64x((1i64 << (shift - 1)).wrapping_add(i64::MIN));
    let bias = _mm256_set1_epi64x((1i64 << (63 - shift)).wrapping_mul(slots.len() as i64));
    let count = _mm_cvtsi32_si128(shift as i32);
    let term = |d: __m256i| _mm256_srl_epi64(_mm256_add_epi64(d, round), count);
    for k in (0..m).step_by(KEY_CHUNK) {
        unsafe {
            let dropped = |p: *const i64| {
                let v = _mm256_add_epi64(_mm256_loadu_si256(p.cast()), drop_round);
                _mm256_sub_epi64(_mm256_srli_epi64::<DROP>(v), drop_bias)
            };
            let mut x = [
                dropped(h_re.as_ptr().add(k)),
                dropped(h_re.as_ptr().add(k + 4)),
            ];
            let mut y = [
                dropped(h_im.as_ptr().add(k)),
                dropped(h_im.as_ptr().add(k + 4)),
            ];
            key_lines_of_chunk(key, k / KEY_CHUNK, slots, |p, line| {
                for half in 0..2 {
                    // Four mantissas, one to a 64-bit lane, against four
                    // `[re, im]` pairs: `fr` is the low half of each lane
                    // as loaded (`vpmuldq` ignores the high half), `fi`
                    // moves down.
                    let words = |at: usize| {
                        _mm256_cvtepi32_epi64(_mm_loadu_si128(line.add(at + 4 * half).cast()))
                    };
                    let (sr, si) = (words(0), words(KEY_CHUNK));
                    let fr = _mm256_loadu_si256(factors.as_ptr().add(p * m + k + 4 * half).cast());
                    let fi = _mm256_srli_epi64::<32>(fr);
                    let re = _mm256_sub_epi64(_mm256_mul_epi32(sr, fr), _mm256_mul_epi32(si, fi));
                    let im = _mm256_add_epi64(_mm256_mul_epi32(sr, fi), _mm256_mul_epi32(si, fr));
                    x[half] = _mm256_add_epi64(x[half], term(re));
                    y[half] = _mm256_add_epi64(y[half], term(im));
                }
            });
            for half in 0..2 {
                _mm256_storeu_si256(
                    out_re.as_mut_ptr().add(k + 4 * half).cast(),
                    _mm256_sub_epi64(x[half], bias),
                );
                _mm256_storeu_si256(
                    out_im.as_mut_ptr().add(k + 4 * half).cast(),
                    _mm256_sub_epi64(y[half], bias),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_override_wins() {
        force_simd(Some(false));
        assert!(!simd_active());
        force_simd(Some(true));
        assert_eq!(simd_active(), simd_detected());
        force_simd(None);
        let _ = simd_active(); // auto path must not panic
        force_simd(None);
    }

    #[test]
    fn scalar_radix2_stage_is_a_butterfly() {
        // One length-2 stage with w = 1: (a, b) -> (a+b, a-b).
        let mut re = vec![1.0, 2.0, 3.0, 5.0];
        let mut im = vec![0.5, -0.5, 1.5, -1.5];
        radix2_stage_scalar(&mut re, &mut im, &[1.0], &[0.0], 2);
        assert_eq!(re, vec![3.0, -1.0, 8.0, -2.0]);
        assert_eq!(im, vec![0.0, 1.0, 0.0, 3.0]);
    }

    /// The reduction written with libm's `round`, kept as the contract:
    /// the centred residue's ties go away from zero.
    fn reference_reduce(x: f64) -> u32 {
        const SCALE: f64 = 4294967296.0;
        let turns = x / SCALE;
        let frac = turns - turns.round();
        (frac * SCALE).round() as i64 as u32
    }

    /// Both legs of the reduction on `xs`: the scalar one through
    /// `twist::f64_to_torus_mod`, the vector one (where the CPU has it) by
    /// calling the AVX tail directly with an identity twist, so no
    /// process-global override is touched.
    fn assert_reduction_matches_reference(xs: &[f64]) {
        for &x in xs {
            assert_eq!(
                crate::twist::f64_to_torus_mod(x).raw(),
                reference_reduce(x),
                "scalar leg, x = {x:e} ({:#018x})",
                x.to_bits()
            );
        }
        #[cfg(target_arch = "x86_64")]
        if simd_detected() {
            let m = xs.len().next_multiple_of(4);
            let mut re = xs.to_vec();
            re.resize(m, 0.0);
            let im: Vec<f64> = re.iter().rev().copied().collect();
            let (ones, zeros) = (vec![1.0; m], vec![0.0; m]);
            let mut lo = vec![Torus32::ZERO; m];
            let mut hi = vec![Torus32::ZERO; m];
            // SAFETY: simd_detected() says AVX2+FMA are present.
            unsafe {
                untwist_to_torus_avx(&re, &im, &ones, &zeros, 1.0 / TWO_32, &mut lo, &mut hi)
            };
            for k in 0..m {
                assert_eq!(
                    lo[k].raw(),
                    reference_reduce(re[k]),
                    "vector leg, x = {:e}",
                    re[k]
                );
                assert_eq!(
                    hi[k].raw(),
                    reference_reduce(im[k]),
                    "vector leg, x = {:e}",
                    im[k]
                );
            }
        }
    }

    #[test]
    fn reduction_matches_reference_on_integers_ties_and_edges() {
        let two_32 = TWO_32;
        let mut xs = vec![0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 0.499_999_999_999_999_94];
        // Exact integers and half-integers k + ½ around every power of two
        // (half-integers exist up to 2^52; integers are tested to 2^61).
        for j in 0..=61u32 {
            let p = (1u64 << j) as f64;
            for d in [-2.0, -1.0, 0.0, 1.0, 2.0] {
                let k = p + d;
                xs.extend([k, -k]);
                if j < 52 {
                    xs.extend([k + 0.5, -(k + 0.5), k - 0.5, -(k - 0.5)]);
                }
            }
        }
        // Residues at and around ±2^31 — the tie of the *turn* rounding —
        // reached from both signs and many wrap counts, and half-integer
        // residues reached from the other sign (where rounding `x` itself
        // and then wrapping would go the wrong way).
        for wraps in [0.0, 1.0, 2.0, 3.0, 1024.0, 65_537.0, 1_048_575.0] {
            for r in [
                2_147_483_648.0,
                2_147_483_647.5,
                2_147_483_648.5,
                2_147_483_647.0,
                0.5,
                1.5,
                2.5,
                1_000_000.5,
            ] {
                for x in [wraps * two_32 + r, wraps * two_32 - r] {
                    xs.extend([x, -x]);
                }
            }
        }
        assert_reduction_matches_reference(&xs);
    }

    #[test]
    fn reduction_matches_reference_on_a_million_samples() {
        // Magnitudes 2^-2 … 2^60 (every exponent equally likely), random
        // mantissas and signs; every 16th sample is snapped to a
        // half-integer so ties stay well represented at all magnitudes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xs: Vec<f64> = (0..1_000_000)
            .map(|i| {
                let bits = next();
                let exponent = (bits % 63) as i32 - 2;
                let mantissa = 1.0 + (bits >> 12) as f64 / (1u64 << 52) as f64;
                let x = mantissa * 2f64.powi(exponent);
                let x = if i % 16 == 0 { x.floor() + 0.5 } else { x };
                if bits & (1 << 11) != 0 {
                    -x
                } else {
                    x
                }
            })
            .collect();
        assert_reduction_matches_reference(&xs);
    }

    #[test]
    fn lift_split_covers_every_width_but_62() {
        assert_eq!(LiftSplit::new(0), None);
        assert_eq!(LiftSplit::new(62), None);
        assert_eq!(LiftSplit::new(63), None);
        for beta in 1..=61u32 {
            let split = LiftSplit::new(beta).expect("covered width");
            // The bounds the type's documentation derives the formula from.
            assert!(split.c <= 31 && split.c < beta, "beta={beta}");
            assert!((1..=30).contains(&split.out), "beta={beta}");
            assert_eq!(split.hh + beta, 31 + split.c, "beta={beta}");
            assert_eq!(split.hl + split.c, 31, "beta={beta}");
            assert_eq!(split.out + split.c, beta, "beta={beta}");
        }
        // The widths the paper and the benchmark use.
        assert_eq!(
            LiftSplit::new(38).map(|s| (s.c, s.hh, s.out)),
            Some((31, 24, 7))
        );
    }

    /// The vector lift against the `i128` definition, lane by lane, with no
    /// process-global override: every covered `β`, coefficients at and
    /// around `0`, `±1` and `±2^β` (the lifting range's ends), inputs at and
    /// around `0`, `±2³¹` (the split point) and `±(2⁶² − 1)` (the bound).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn vector_lift_matches_i128_definition() {
        use std::arch::x86_64::*;
        if !simd_detected() {
            return;
        }
        #[target_feature(enable = "avx2")]
        fn lift4(split: LiftSplit, x: [i64; 4], alpha: [i64; 4]) -> [i64; 4] {
            let lanes = LiftLanes::new(split);
            let mut out = [0i64; 4];
            // SAFETY: three 32-byte arrays, unaligned accesses.
            unsafe {
                let a = lanes.split(_mm256_loadu_si256(alpha.as_ptr().cast()));
                let r = lanes.lift(_mm256_loadu_si256(x.as_ptr().cast()), a);
                _mm256_storeu_si256(out.as_mut_ptr().cast(), r);
            }
            out
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bound = I64_LANE_BOUND as i64;
        for beta in 1..=61u32 {
            let split = LiftSplit::new(beta).expect("covered width");
            let one = 1i64 << beta;
            let mut alphas = vec![0, 1, -1, one, -one, one - 1, 1 - one, one / 2, -(one / 2)];
            let mut xs = vec![0, 1, -1, bound - 1, 1 - bound, bound / 2, -(bound / 2)];
            for d in [-2i64, -1, 0, 1, 2] {
                xs.extend([(1 << 31) + d, -(1 << 31) + d, (1 << 32) + d]);
            }
            for _ in 0..64 {
                // Uniform in [−2^β, 2^β] and in (−2⁶², 2⁶²), at every scale.
                alphas.push((next() % (2 * one as u64 + 1)) as i64 - one);
                xs.push((next() as i64 >> 1) >> (next() % 60));
            }
            for &alpha in &alphas {
                for chunk in xs.chunks(4) {
                    let mut x = [0i64; 4];
                    x[..chunk.len()].copy_from_slice(chunk);
                    // SAFETY: simd_detected() says AVX2 is present.
                    let got = unsafe { lift4(split, x, [alpha; 4]) };
                    for lane in 0..4 {
                        assert_eq!(
                            got[lane],
                            crate::lifting::lift(x[lane], alpha, beta),
                            "beta={beta} alpha={alpha} x={}",
                            x[lane]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn round_half_away_is_round_without_libm() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            0.499_999_999_999_999_94,
        ];
        for j in 0..=40u32 {
            let p = (1u64 << j) as f64;
            for d in [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5] {
                xs.extend([p + d, -(p + d)]);
            }
        }
        // The factor quantizer's corner: (ε^N − 1)·2³⁰ = −2³¹.
        xs.extend([-2_147_483_648.0, -2_147_483_648.4, -2_147_483_647.5]);
        for x in xs {
            assert_eq!(round_half_away(x), x.round() as i64, "x = {x:e}");
            // Narrowing wraps where `f64 as i32` saturates; they agree on
            // everything that rounds into `i32`, the quantizer's range.
            if (-2_147_483_648.4..2_147_483_647.4).contains(&x) {
                assert_eq!(round_half_away(x) as i32, x.round() as i32, "x = {x:e}");
            }
        }
    }

    #[test]
    fn pair_kernel_matches_two_singles_scalar_leg() {
        force_simd(Some(false));
        let m = 8;
        let c_re: Vec<f64> = (0..m).map(|k| 0.3 + k as f64).collect();
        let c_im: Vec<f64> = (0..m).map(|k| -0.7 * k as f64).collect();
        let u_re: Vec<f64> = (0..m).map(|k| (k as f64).sin()).collect();
        let u_im: Vec<f64> = (0..m).map(|k| (k as f64).cos()).collect();
        let v_re: Vec<f64> = (0..m).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let v_im: Vec<f64> = (0..m).map(|k| (k as f64) * 0.01).collect();
        let mut p1 = vec![0.25; m];
        let mut p2 = vec![-0.5; m];
        let mut p3 = vec![1.0; m];
        let mut p4 = vec![2.0; m];
        mul_acc_pair(
            &mut p1, &mut p2, &mut p3, &mut p4, &c_re, &c_im, &u_re, &u_im, &v_re, &v_im,
        );
        let mut s1 = vec![0.25; m];
        let mut s2 = vec![-0.5; m];
        let mut s3 = vec![1.0; m];
        let mut s4 = vec![2.0; m];
        mul_acc(&mut s1, &mut s2, &c_re, &c_im, &u_re, &u_im);
        mul_acc(&mut s3, &mut s4, &c_re, &c_im, &v_re, &v_im);
        assert_eq!(p1, s1);
        assert_eq!(p2, s2);
        assert_eq!(p3, s3);
        assert_eq!(p4, s4);
        force_simd(None);
    }
}
