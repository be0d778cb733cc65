//! The integer engine's [`Leg::Avx512`](super::Leg::Avx512) kernels on
//! eight 64-bit lanes — the butterfly stages but `len = 2`, the twist in
//! the fold, the untwist, the pointwise products, the bundle row and the
//! fused bundle product at the shifts of [`MAC_SHIFTS`](super::MAC_SHIFTS)
//! (entries and accumulators in registers; other shifts run the AVX2
//! leg's) — bit-identical to the scalar `i128` definitions.
//!
//! AVX-512F still has no 64×64-bit multiply with a high half, so the
//! kernels take their operands apart at bit 31 for `vpmuldq` as the AVX2
//! leg does ([`LiftSplit`]; [`MAC_LANE_BOUND`] for the products). What the
//! wider leg changes is the lanes (eight), the registers (32: a stage's
//! rotations and a pair of complex products stay in them), the lane
//! permutes that put the narrow stages' blocks side by side (`vpermt2q`)
//! and the native 64-bit arithmetic shift `vpsraq`, which replaces the
//! AVX2 leg's logical shift of a value biased by `2⁶³`.
//!
//! [`MAC_LANE_BOUND`]: super::MAC_LANE_BOUND

use super::i64::LiftSplit;
use super::movers::{key_lines_of_chunk, store_columns_avx, FoldDigit, REV2};
use crate::approx::{FixedSpectrum, BUNDLE_DROP_BITS};
use crate::engine::{KeyBlock, KEY_CHUNK};
use crate::lifting::Lifts;
use std::arch::x86_64::*;

/// A vector taken apart for `vpmuldq`: `(v_h, v_l)`, each in the low halves
/// of the lanes.
type Halves = (__m512i, __m512i);

/// [`LiftSplit`]'s lift and the rotation on eight lanes, its constants
/// broadcast once per kernel call.
#[derive(Clone, Copy)]
struct LiftLanes {
    low31: __m512i,
    low_c: __m512i,
    /// `2^{β−1−c}`: no bias, the shift is arithmetic.
    round: __m512i,
    c: __m128i,
    hh: __m128i,
    hl: __m128i,
    out: __m128i,
}

impl LiftLanes {
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn new(split: LiftSplit) -> Self {
        let count = |n: u32| _mm_cvtsi32_si128(n as i32);
        Self {
            low31: _mm512_set1_epi64((1 << 31) - 1),
            low_c: _mm512_set1_epi64((1 << split.c) - 1),
            // `β − 1 − c = out − 1`.
            round: _mm512_set1_epi64(1 << (split.out - 1)),
            c: count(split.c),
            hh: count(split.hh),
            hl: count(split.hl),
            out: count(split.out),
        }
    }

    /// `(α_h, α_l)`: bits `c..c+32` of `α` are `α ≫ₐ c` as an `i32`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn split(&self, alpha: __m512i) -> Halves {
        (
            _mm512_srl_epi64(alpha, self.c),
            _mm512_and_si512(alpha, self.low_c),
        )
    }

    /// Rotations `k..k + 8` of `rots`: `t` and `s` split, and the negation
    /// masks.
    ///
    /// # Safety
    ///
    /// `k + 8 <= rots.len()`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load(&self, rots: Lifts<'_>, k: usize) -> (Halves, Halves, __m512i) {
        // SAFETY: the caller keeps the eight entries in bounds of all three
        // (equally long) slices.
        unsafe {
            (
                self.split(_mm512_loadu_epi64(rots.t.as_ptr().add(k))),
                self.split(_mm512_loadu_epi64(rots.s.as_ptr().add(k))),
                _mm512_loadu_epi64(rots.neg.as_ptr().add(k)),
            )
        }
    }

    /// `⌊(x·α + 2^{β−1}) / 2^β⌋` per lane, for `|x| < 2⁶²`: [`LiftSplit`]'s
    /// formula with the arithmetic shift done natively.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lift(&self, x: __m512i, (a_h, a_l): Halves) -> __m512i {
        let x_h = _mm512_srli_epi64::<31>(x);
        let x_l = _mm512_and_si512(x, self.low31);
        let hh = _mm512_mul_epi32(x_h, a_h);
        let hl = _mm512_mul_epi32(x_h, a_l);
        let lh = _mm512_mul_epi32(x_l, a_h);
        let ll = _mm512_mul_epi32(x_l, a_l);
        let inner = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_sll_epi64(hl, self.hl), lh),
            _mm512_add_epi64(_mm512_srl_epi64(ll, self.c), self.round),
        );
        _mm512_add_epi64(
            _mm512_sll_epi64(hh, self.hh),
            _mm512_sra_epi64(inner, self.out),
        )
    }

    /// The three lifts and the masked negation of [`Lifts::rotate`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn rotate(
        &self,
        mut x: __m512i,
        mut y: __m512i,
        t: Halves,
        s: Halves,
        neg: __m512i,
    ) -> (__m512i, __m512i) {
        x = _mm512_add_epi64(x, self.lift(y, t));
        y = _mm512_add_epi64(y, self.lift(x, s));
        x = _mm512_add_epi64(x, self.lift(y, t));
        (
            _mm512_sub_epi64(_mm512_xor_si512(x, neg), neg),
            _mm512_sub_epi64(_mm512_xor_si512(y, neg), neg),
        )
    }
}

/// `(v + 1) ≫ₐ 1` when `HALVE`, the identity otherwise.
#[target_feature(enable = "avx512f")]
#[inline]
fn half_round<const HALVE: bool>(v: __m512i) -> __m512i {
    if HALVE {
        _mm512_srai_epi64::<1>(_mm512_add_epi64(v, _mm512_set1_epi64(1)))
    } else {
        v
    }
}

/// `v = rot(x)`, then `(u + v, u − v)` (halved when `HALVE`): the butterfly
/// of every stage.
#[target_feature(enable = "avx512f")]
#[inline]
fn butterfly<const HALVE: bool>(
    lanes: &LiftLanes,
    (ur, ui): (__m512i, __m512i),
    (xr, xi): (__m512i, __m512i),
    (t, s, neg): (Halves, Halves, __m512i),
) -> [(__m512i, __m512i); 2] {
    let (vr, vi) = lanes.rotate(xr, xi, t, s, neg);
    [
        (
            half_round::<HALVE>(_mm512_add_epi64(ur, vr)),
            half_round::<HALVE>(_mm512_add_epi64(ui, vi)),
        ),
        (
            half_round::<HALVE>(_mm512_sub_epi64(ur, vr)),
            half_round::<HALVE>(_mm512_sub_epi64(ui, vi)),
        ),
    ]
}

/// Wide stages (`half ≥ 8`), eight butterflies per iteration, the `k` loop
/// outside as on the AVX2 leg: a group of eight rotations is split once
/// and serves every block of the stage.
///
/// # Safety
///
/// AVX-512F must be present; `re` and `im` must hold `m` elements, a
/// multiple of `len`; `half = len / 2` must be a multiple of 8 and
/// `rots.len() = half`; `split` must be `rots`' split.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn i64_stage<const HALVE: bool>(
    re: &mut [i64],
    im: &mut [i64],
    rots: Lifts<'_>,
    split: LiftSplit,
    len: usize,
) {
    let m = re.len();
    let half = len / 2;
    let lanes = LiftLanes::new(split);
    for k in (0..half).step_by(8) {
        // SAFETY: `k + 8 <= half = rots.len()`, and every block's two
        // halves `start + 0..8`, `start + half + 0..8` lie inside the
        // `m`-element buffers.
        unsafe {
            let w = lanes.load(rots, k);
            for start in (k..m).step_by(len) {
                let (rp, ip) = (re.as_mut_ptr().add(start), im.as_mut_ptr().add(start));
                let at = |q: usize| (_mm512_loadu_epi64(rp.add(q)), _mm512_loadu_epi64(ip.add(q)));
                let [sum, dif] = butterfly::<HALVE>(&lanes, at(0), at(half), w);
                for (q, (xr, xi)) in [(0, sum), (half, dif)] {
                    _mm512_storeu_epi64(rp.add(q), xr);
                    _mm512_storeu_epi64(ip.add(q), xi);
                }
            }
        }
    }
}

/// The stages `len = 4` and `8`, whose blocks are narrower than a vector:
/// sixteen points a step, gathered with `vpermt2q` into the blocks' first
/// halves `u` and second halves `x` (lane `j` holds point `j mod half` of
/// block `j div half`), the stage's `half` rotations tiled to match, and
/// scattered back the same way.
///
/// # Safety
///
/// AVX-512F must be present; `re` and `im` must hold `m` elements, a
/// multiple of 16; `LEN` must be 4 or 8 and `rots.len() = LEN / 2`;
/// `split` must be `rots`' split.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn i64_stage_narrow<const HALVE: bool, const LEN: usize>(
    re: &mut [i64],
    im: &mut [i64],
    rots: Lifts<'_>,
    split: LiftSplit,
) {
    let (len, half) = (LEN, LEN / 2);
    let lanes = LiftLanes::new(split);
    // Indices into the sixteen points (`vpermt2q`'s two sources): where
    // lane `j` of `u` comes from, and where window point `p` goes back to
    // from the sums (`0..8`) and differences (`8..16`).
    let indices = |at: &dyn Fn(usize) -> usize| {
        let lanes: [i64; 8] = std::array::from_fn(|j| at(j) as i64);
        // SAFETY: eight entries.
        unsafe { _mm512_loadu_epi64(lanes.as_ptr()) }
    };
    let u_at = |j: usize| j / half * len + j % half;
    let back = |p: usize| match (p / len, p % len) {
        (block, r) if r < half => block * half + r,
        (block, r) => 8 + block * half + r - half,
    };
    let (from_u, from_x) = (indices(&u_at), indices(&|j| u_at(j) + half));
    let (to_low, to_high) = (indices(&back), indices(&|p| back(p + 8)));
    let tiled = indices(&|j| j % half);
    // SAFETY: the mask reads the table's `half` entries and no more.
    let tile = |v: &[i64]| unsafe {
        _mm512_permutexvar_epi64(tiled, _mm512_maskz_loadu_epi64((1 << half) - 1, v.as_ptr()))
    };
    let w = (
        lanes.split(tile(rots.t)),
        lanes.split(tile(rots.s)),
        tile(rots.neg),
    );
    for k in (0..re.len()).step_by(16) {
        // SAFETY: `k + 16 <= m`.
        let gather = |c: &[i64]| unsafe {
            let (a, b) = (
                _mm512_loadu_epi64(c.as_ptr().add(k)),
                _mm512_loadu_epi64(c.as_ptr().add(k + 8)),
            );
            (
                _mm512_permutex2var_epi64(a, from_u, b),
                _mm512_permutex2var_epi64(a, from_x, b),
            )
        };
        let ((ur, xr), (ui, xi)) = (gather(re), gather(im));
        let [(sr, si), (dr, di)] = butterfly::<HALVE>(&lanes, (ur, ui), (xr, xi), w);
        for (c, s, d) in [(&mut *re, sr, dr), (&mut *im, si, di)] {
            // SAFETY: as the loads.
            unsafe {
                let at = c.as_mut_ptr().add(k);
                _mm512_storeu_epi64(at, _mm512_permutex2var_epi64(s, to_low, d));
                _mm512_storeu_epi64(at.add(8), _mm512_permutex2var_epi64(s, to_high, d));
            }
        }
    }
}

/// [`super::i64_rotate`] on eight points a step.
///
/// # Safety
///
/// AVX-512F must be present; `re`, `im` and `rots` must hold `m` entries,
/// a multiple of 8; `split` must be `rots`' split.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn i64_rotate(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>, split: LiftSplit) {
    let lanes = LiftLanes::new(split);
    for k in (0..re.len()).step_by(8) {
        // SAFETY: `k + 8 <= m`, every slice's length.
        unsafe {
            let (t, s, neg) = lanes.load(rots, k);
            let (rp, ip) = (re.as_mut_ptr().add(k), im.as_mut_ptr().add(k));
            let (x, y) = lanes.rotate(_mm512_loadu_epi64(rp), _mm512_loadu_epi64(ip), t, s, neg);
            _mm512_storeu_epi64(rp, x);
            _mm512_storeu_epi64(ip, y);
        }
    }
}

/// [`super::i64_fold_rotate`] with its lifts on eight lanes: each step
/// rotates eight points of each of the four rows the AVX2 leg's 4×4 block
/// reads, and stores them as that leg's two blocks do.
///
/// # Safety
///
/// AVX-512F and AVX2 must be present; `lo`, `hi`, `re`, `im`, `rots` and
/// `rev` must hold `m` entries, a multiple of 32, `rev` the bit reversal
/// of `0..m`; `split` must be `rots`' split.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx2")]
pub(super) unsafe fn i64_fold_rotate(
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
    let quarter = re.len() / 4;
    let lanes = LiftLanes::new(split);
    let frac = _mm_cvtsi32_si128(frac_bits as i32);
    // SAFETY (the loads): `k + 8 <= m`, every slice's length.
    let rotated = |k: usize| unsafe {
        let scaled = |c: &[u32]| {
            let words = |at: usize| digit.of_lanes(_mm_loadu_si128(c.as_ptr().add(at).cast()));
            _mm512_sll_epi64(
                _mm512_cvtepi32_epi64(_mm256_set_m128i(words(k + 4), words(k))),
                frac,
            )
        };
        let (t, s, neg) = lanes.load(rots, k);
        lanes.rotate(scaled(lo), scaled(hi), t, s, neg)
    };
    for k in (0..quarter).step_by(8) {
        let rows = REV2.map(|h| rotated(k + h * quarter));
        for half in 0..2 {
            let four = |v: __m512i| {
                _mm256_castsi256_pd(if half == 0 {
                    _mm512_castsi512_si256(v)
                } else {
                    _mm512_extracti64x4_epi64::<1>(v)
                })
            };
            // SAFETY: `rev[k + 4·half] ≤ M/4 − 4` for a 4-aligned index
            // below `M/4`.
            unsafe {
                store_columns_avx(
                    rows.map(|(x, y)| (four(x), four(y))),
                    re.as_mut_ptr().cast(),
                    im.as_mut_ptr().cast(),
                    rev[k + 4 * half] as usize,
                    quarter,
                )
            };
        }
    }
}

/// The three partial-product sums of one real product `p·q`, split at bit
/// 31: `[p_h·q_h, p_h·q_l + p_l·q_h, p_l·q_l]`.
#[target_feature(enable = "avx512f")]
#[inline]
fn partials((p_h, p_l): Halves, (q_h, q_l): Halves) -> [__m512i; 3] {
    [
        _mm512_mul_epi32(p_h, q_h),
        _mm512_add_epi64(_mm512_mul_epi32(p_h, q_l), _mm512_mul_epi32(p_l, q_h)),
        _mm512_mul_epi32(p_l, q_l),
    ]
}

/// [`super::i64_mul_acc`]'s product on eight lanes, its constants broadcast
/// once per kernel call: 16 `vpmuldq` per complex product, recombined as
/// [`MAC_LANE_BOUND`](super::MAC_LANE_BOUND) derives.
#[derive(Clone, Copy)]
struct MacLanes {
    low31: __m512i,
    round: __m512i,
    to_hh: __m128i,
    to_out: __m128i,
}

impl MacLanes {
    /// The constants of products rounded back by `shift`, one of
    /// [`MAC_SHIFTS`](super::MAC_SHIFTS).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn new(shift: u32) -> Self {
        Self {
            low31: _mm512_set1_epi64((1 << 31) - 1),
            round: _mm512_set1_epi64(1 << (shift - 1)),
            to_hh: _mm_cvtsi32_si128((62 - shift) as i32),
            to_out: _mm_cvtsi32_si128((shift - 31) as i32),
        }
    }

    /// `(v_h, v_l)`, `v` split at bit 31.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn halves(&self, v: __m512i) -> Halves {
        (_mm512_srli_epi64::<31>(v), _mm512_and_si512(v, self.low31))
    }

    /// `⌊(x·a + 2^{s−1}) / 2^s⌋` per component, `x` and `a` split: `(re,
    /// im)`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn product(
        &self,
        (xr, xi): (Halves, Halves),
        (ar, ai): (Halves, Halves),
    ) -> (__m512i, __m512i) {
        // `(H ≪ (62 − s)) + (M + q) ≫ₐ (s − 31)`, `q` the rounded quotient
        // of the low sum by 2³¹ (arithmetic or logical: see
        // `MAC_LANE_BOUND`).
        let recombine = |[h, mid, _]: [__m512i; 3], q: __m512i| {
            _mm512_add_epi64(
                _mm512_sll_epi64(h, self.to_hh),
                _mm512_sra_epi64(_mm512_add_epi64(mid, q), self.to_out),
            )
        };
        let (rr, ii) = (partials(xr, ar), partials(xi, ai));
        let (ri, ir) = (partials(xr, ai), partials(xi, ar));
        let re = [0, 1, 2].map(|j| _mm512_sub_epi64(rr[j], ii[j]));
        let im = [0, 1, 2].map(|j| _mm512_add_epi64(ri[j], ir[j]));
        let q_re = _mm512_srai_epi64::<31>(_mm512_add_epi64(re[2], self.round));
        let q_im = _mm512_srli_epi64::<31>(_mm512_add_epi64(im[2], self.round));
        (recombine(re, q_re), recombine(im, q_im))
    }
}

/// [`super::i64_mul_acc`] on eight points a step ([`MacLanes`]).
///
/// # Safety
///
/// AVX-512F must be present; every slice must hold `m = x.0.len()`
/// elements, `m` a multiple of 8; `shift` must lie in
/// [`MAC_SHIFTS`](super::MAC_SHIFTS).
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn i64_mul_acc<const ROWS: usize>(
    mut accs: [(&mut [i64], &mut [i64]); ROWS],
    (x_re, x_im): (&[i64], &[i64]),
    rows: [(&[i64], &[i64]); ROWS],
    shift: u32,
) {
    let mac = MacLanes::new(shift);
    for k in (0..x_re.len()).step_by(8) {
        // SAFETY: `k + 8 <= m`, every slice's length.
        let load = |v: &[i64]| unsafe { _mm512_loadu_epi64(v.as_ptr().add(k)) };
        let x = (mac.halves(load(x_re)), mac.halves(load(x_im)));
        for ((acc_re, acc_im), (a_re, a_im)) in accs.iter_mut().zip(rows) {
            let (re, im) = mac.product(x, (mac.halves(load(a_re)), mac.halves(load(a_im))));
            // SAFETY: as the loads.
            unsafe {
                for (acc, sum) in [(&mut **acc_re, re), (&mut **acc_im, im)] {
                    let at = acc.as_mut_ptr().add(k);
                    _mm512_storeu_epi64(at, _mm512_add_epi64(_mm512_loadu_epi64(at), sum));
                }
            }
        }
    }
}

/// [`super::i64_bundle_row`] a chunk (eight points) a vector: one
/// `vpmuldq` a product, the rounding shifts native.
///
/// # Safety
///
/// AVX-512F must be present; `h_re`, `h_im` and `out_im` must hold
/// `m = out_re.len()` elements, `m` a multiple of [`KEY_CHUNK`], and
/// `factors` `m` per slot; `key.stream` must hold the block and every slot
/// be one of `key.patterns` ([`KeyBlock::assert_holds`]); `1 ≤ shift ≤ 62`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn i64_bundle_row(
    out_re: &mut [i64],
    out_im: &mut [i64],
    h_re: &[i64],
    h_im: &[i64],
    key: KeyBlock<'_>,
    slots: &[u8],
    factors: &[[i32; 2]],
    shift: u32,
) {
    let m = out_re.len();
    let lanes = RowLanes::new(shift);
    for k in (0..m).step_by(KEY_CHUNK) {
        // SAFETY: as the caller guarantees; `k + 8 <= m` for the outputs.
        unsafe {
            let (x, y) = lanes.chunk((h_re, h_im), key, slots, factors, m, k);
            _mm512_storeu_epi64(out_re.as_mut_ptr().add(k), x);
            _mm512_storeu_epi64(out_im.as_mut_ptr().add(k), y);
        }
    }
}

/// [`super::i64_bundle_row`] on eight lanes for one row: its constants,
/// broadcast once per kernel call, and its chunk.
#[derive(Clone, Copy)]
struct RowLanes {
    drop_round: __m512i,
    round: __m512i,
    count: __m128i,
}

impl RowLanes {
    /// The constants of a row's terms rounded back by `shift`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn new(shift: u32) -> Self {
        Self {
            drop_round: _mm512_set1_epi64(1 << (BUNDLE_DROP_BITS - 1)),
            round: _mm512_set1_epi64(1 << (shift - 1)),
            count: _mm_cvtsi32_si128(shift as i32),
        }
    }

    /// Points `k..k + 8` of the row of `h` over `key`: `(re, im)`.
    ///
    /// # Safety
    ///
    /// `h`'s components must hold `m` elements, `m` a multiple of
    /// [`KEY_CHUNK`] above `k`, a multiple of it, and `factors` `m` per
    /// slot; `key.stream` must hold the block and every slot be one of
    /// `key.patterns` ([`KeyBlock::assert_holds`]).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn chunk(
        &self,
        (h_re, h_im): (&[i64], &[i64]),
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &[[i32; 2]],
        m: usize,
        k: usize,
    ) -> (__m512i, __m512i) {
        const DROP: u32 = BUNDLE_DROP_BITS;
        let term = |d: __m512i| _mm512_sra_epi64(_mm512_add_epi64(d, self.round), self.count);
        // SAFETY: as the caller guarantees.
        unsafe {
            let dropped = |h: &[i64]| {
                _mm512_srai_epi64::<DROP>(_mm512_add_epi64(
                    _mm512_loadu_epi64(h.as_ptr().add(k)),
                    self.drop_round,
                ))
            };
            let (mut x, mut y) = (dropped(h_re), dropped(h_im));
            key_lines_of_chunk(key, k / KEY_CHUNK, slots, |p, line| {
                let words =
                    |at: usize| _mm512_cvtepi32_epi64(_mm256_loadu_si256(line.add(at).cast()));
                let (sr, si) = (words(0), words(KEY_CHUNK));
                // Eight `[re, im]` pairs: `fr` in the low halves as loaded.
                let fr = _mm512_loadu_epi64(factors.as_ptr().add(p * m + k).cast());
                let fi = _mm512_srli_epi64::<32>(fr);
                let re = _mm512_sub_epi64(_mm512_mul_epi32(sr, fr), _mm512_mul_epi32(si, fi));
                let im = _mm512_add_epi64(_mm512_mul_epi32(sr, fi), _mm512_mul_epi32(si, fr));
                x = _mm512_add_epi64(x, term(re));
                y = _mm512_add_epi64(y, term(im));
            });
            (x, y)
        }
    }
}

/// [`super::i64_bundle_product`] with everything in registers: per 8-point
/// chunk, each block's bundle entries built as [`i64_bundle_row`] builds
/// them ([`RowLanes`]) and fed straight into the two accumulators with
/// [`i64_mul_acc`]'s products ([`MacLanes`]), the digit split once for
/// both; each accumulator stored once per chunk.
///
/// # Safety
///
/// AVX-512F must be present; every spectrum and accumulator must hold
/// `m = digits[0].re.len()` points per component, `m` a multiple of
/// [`KEY_CHUNK`], the factor tables `m` per slot, `h` two spectra per
/// digit; `key.stream` must hold `h.len()` blocks and every slot be one of
/// `key.patterns` ([`KeyBlock::assert_holds_blocks`]); `1 ≤ row_shift ≤
/// 62` and `mac_shift` in [`MAC_SHIFTS`](super::MAC_SHIFTS).
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn i64_bundle_product(
    mut accs: [(&mut [i64], &mut [i64]); 2],
    h: &[FixedSpectrum],
    key: KeyBlock<'_>,
    slots: &[u8],
    factors: &[[i32; 2]],
    digits: &[FixedSpectrum],
    [row_shift, mac_shift]: [u32; 2],
) {
    let m = digits[0].re.len();
    let block = KeyBlock::words(m, key.patterns);
    let (lanes, mac) = (RowLanes::new(row_shift), MacLanes::new(mac_shift));
    // The dev profile's check of `MAC_LANE_BOUND` on the entries, which
    // never reach memory.
    let bound = _mm512_set1_epi64(super::MAC_LANE_BOUND as i64);
    let within = |v: __m512i| _mm512_cmpge_epu64_mask(_mm512_abs_epi64(v), bound) == 0;
    for k in (0..m).step_by(KEY_CHUNK) {
        // SAFETY: `k + 8 ≤ m`, every spectrum's length.
        let load = |v: &[i64]| unsafe { _mm512_loadu_epi64(v.as_ptr().add(k)) };
        // `acc[side]`: the real and imaginary lanes of points `k..k + 8`
        // of the mask (`side = 0`) or body accumulator.
        let mut acc = [(_mm512_setzero_si512(), _mm512_setzero_si512()); 2];
        for (r, d) in digits.iter().enumerate() {
            let x = (mac.halves(load(&d.re)), mac.halves(load(&d.im)));
            for (side, (cr, ci)) in acc.iter_mut().enumerate() {
                let j = 2 * r + side;
                // SAFETY: block `j < h.len()` lies inside the stream and
                // holds chunk `k / 8`, every slot one of its patterns.
                let (ar, ai) = unsafe {
                    let row = KeyBlock {
                        stream: key.stream.get_unchecked(j * block..),
                        ..key
                    };
                    lanes.chunk((&h[j].re, &h[j].im), row, slots, factors, m, k)
                };
                debug_assert!(
                    within(ar) && within(ai),
                    "pointwise product operand outside ±2^61"
                );
                let (re, im) = mac.product(x, (mac.halves(ar), mac.halves(ai)));
                *cr = _mm512_add_epi64(*cr, re);
                *ci = _mm512_add_epi64(*ci, im);
            }
        }
        for ((re, im), (cr, ci)) in accs.iter_mut().zip(acc) {
            // SAFETY: `k + 8 ≤ m`, the accumulators' length.
            unsafe {
                _mm512_storeu_epi64(re.as_mut_ptr().add(k), cr);
                _mm512_storeu_epi64(im.as_mut_ptr().add(k), ci);
            }
        }
    }
}
