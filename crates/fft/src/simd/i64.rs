//! The integer engine's kernels: lifting rotations, butterfly stages,
//! pointwise products and the bundle row, bit-identical across legs.

#[cfg(target_arch = "x86_64")]
use super::dispatch::Leg;
#[cfg(target_arch = "x86_64")]
use super::i64_512;
use super::movers::FoldDigit;
#[cfg(target_arch = "x86_64")]
use super::movers::{key_lines_of_chunk, store_columns_avx, MIN_BLOCKED, REV2};
use crate::approx::{BUNDLE_DROP_BITS, MONO_FRAC_BITS};
use crate::engine::{KeyBlock, KEY_CHUNK};
use crate::lifting::Lifts;
use crate::tables::BitReversal;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128i, __m256i};

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
pub(crate) const I64_LANE_BOUND: u64 = 1 << 62;

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
pub(crate) struct LiftSplit {
    /// Width `c` of `α_l`.
    pub(super) c: u32,
    /// `31 + c − β`.
    pub(super) hh: u32,
    /// `31 − c`.
    pub(super) hl: u32,
    /// `β − c`.
    pub(super) out: u32,
    /// `2^{β−1−c} + 2⁶³` (wrapped).
    round: i64,
    /// `2^{63−out}`.
    bias: i64,
}

impl LiftSplit {
    /// The split for `beta`-bit coefficients, or `None` where the vector
    /// leg does not reach (`beta = 62`; anything outside `1..=62` is not a
    /// coefficient width at all).
    pub(crate) fn new(beta: u32) -> Option<Self> {
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
pub fn i64_rotate(re: &mut [i64], im: &mut [i64], rots: Lifts<'_>, leg: Leg) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(rots.len(), m, "rotation table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let (Some(split), leg @ (Leg::Avx2 | Leg::Avx512), true) =
        (rots.split, leg.narrowed(), m.is_multiple_of(4))
    {
        debug_assert_lane_bound(re);
        debug_assert_lane_bound(im);
        // SAFETY (both): a narrowed vector leg implies AVX2, a narrowed
        // `Leg::Avx512` AVX-512F too; the lengths were checked.
        if leg == Leg::Avx512 && m.is_multiple_of(8) {
            unsafe { i64_512::i64_rotate(re, im, rots, split) };
        } else {
            unsafe { i64_rotate_avx(re, im, rots, split) };
        }
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
/// forward stages want it. Every leg produces the same integers as
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
    leg: Leg,
) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(lo.len(), m, "coefficient half length mismatch");
    assert_eq!(hi.len(), m, "coefficient half length mismatch");
    assert_eq!(rots.len(), m, "rotation table length mismatch");
    assert_eq!(order.len(), m, "bit-reversal table built for another size");
    assert!(frac_bits < 64, "pre-scale wider than a lane");
    #[cfg(target_arch = "x86_64")]
    if let (Some(split), leg @ (Leg::Avx2 | Leg::Avx512), true) =
        (rots.split, leg.narrowed(), m >= MIN_BLOCKED)
    {
        let rev = order.index();
        // SAFETY (both): a narrowed vector leg implies AVX2, a narrowed
        // `Leg::Avx512` AVX-512F too; the lengths were checked, and a
        // `BitReversal` of length `m` holds the reversal of `0..m`.
        if leg == Leg::Avx512 && m >= 2 * MIN_BLOCKED {
            unsafe { i64_512::i64_fold_rotate(lo, hi, digit, frac_bits, rots, split, rev, re, im) };
        } else {
            unsafe { i64_fold_rotate_avx(lo, hi, digit, frac_bits, rots, split, rev, re, im) };
        }
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
/// Every leg reads the same [`Lifts`] and produces the same integers: the
/// scalar leg multiplies in `i128` ([`crate::lifting`]'s definition), the
/// vector legs recombine four 32-bit partial products per lift
/// ([`LiftSplit`]) for inputs below [`I64_LANE_BOUND`] — on four lanes, or
/// on eight on [`Leg::Avx512`](super::Leg::Avx512) for every stage but the
/// multiply-free `len = 2`.
///
/// `HALVE` halves every output, rounding half up — `log2(M)` halving
/// stages realize the `1/M` inverse normalization without a multiplier.
///
/// # Panics
///
/// Panics on mismatched lengths.
pub(crate) fn i64_radix2_stage<const HALVE: bool>(
    re: &mut [i64],
    im: &mut [i64],
    rots: Lifts<'_>,
    len: usize,
    leg: Leg,
) {
    let m = re.len();
    let half = len / 2;
    assert_eq!(im.len(), m, "component length mismatch");
    assert!(
        len >= 2 && m.is_multiple_of(len),
        "buffer not a multiple of the stage length"
    );
    assert_eq!(rots.len(), half, "rotation table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let (Some(split), leg @ (Leg::Avx2 | Leg::Avx512), true) =
        (rots.split, leg.narrowed(), m >= 8)
    {
        debug_assert_lane_bound(re);
        debug_assert_lane_bound(im);
        // SAFETY (every call below): a narrowed vector leg implies AVX2, a
        // narrowed `Leg::Avx512` AVX-512F too; the lengths were checked,
        // and `m` is a multiple of 8 (a multiple of `len`, a power of two,
        // and at least 8). The eight-lane kernels also need `len` a power
        // of two (so `half` is a multiple of 8 from `len = 16` on) and `m`
        // a multiple of 16.
        //
        // On eight lanes every stage but the multiply-free `len = 2`: the
        // narrow ones two or four blocks to a vector, the wide ones as on
        // four lanes.
        if leg == Leg::Avx512 && len > 2 && len.is_power_of_two() && m.is_multiple_of(16) {
            match len {
                4 => unsafe { i64_512::i64_stage_narrow::<HALVE, 4>(re, im, rots, split) },
                8 => unsafe { i64_512::i64_stage_narrow::<HALVE, 8>(re, im, rots, split) },
                _ => unsafe { i64_512::i64_stage::<HALVE>(re, im, rots, split, len) },
            }
            return;
        }
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
pub(super) struct LiftLanes {
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
    pub(super) fn new(split: LiftSplit) -> Self {
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
    pub(super) fn split(&self, alpha: __m256i) -> SplitLanes {
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
    pub(super) fn lift(&self, x: __m256i, (a_h, a_l): SplitLanes) -> __m256i {
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

/// Exclusive magnitude bound on the operands of the integer engine's
/// pointwise products on [`Leg::Avx512`](super::Leg::Avx512) — `x` and every
/// row of `i64_mul_acc` — and how that leg computes them without a
/// 64×64-bit multiply.
///
/// With every lane split at bit 31 (`v = v_h·2³¹ + v_l`, `0 ≤ v_l < 2³¹`), a
/// real product is `p·q = p_h·q_h·2⁶² + (p_h·q_l + p_l·q_h)·2³¹ + p_l·q_l`,
/// four signed 32×32→64-bit `vpmuldq`. A component of the complex product
/// sums two of them (`xr·ar − xi·ai`, `xr·ai + xi·ar`), so it is
/// `H·2⁶² + M·2³¹ + L` with `H`, `M`, `L` the sums of the matching partial
/// products — 16 `vpmuldq` per complex product — and, dividing by `2^s`
/// with nested floors (`s ≥ 31`, so `2³¹` divides the first two terms),
///
/// ```text
/// ⌊(H·2⁶² + M·2³¹ + L + 2^{s−1}) / 2^s⌋ = (H ≪ (62 − s)) + (M + ⌊(L + 2^{s−1}) / 2³¹⌋) ≫ₐ (s − 31)
/// ```
///
/// For `|x|, |a| < 2⁶¹` and `31 ≤ s ≤ 61` (`MAC_SHIFTS`):
///
/// * `v_h ∈ [−2³⁰, 2³⁰)` and `v_l ∈ [0, 2³¹)` are signed 32-bit operands,
///   and a product of a high and a low half lies in
///   `[−2³⁰·(2³¹ − 1), (2³⁰ − 1)·(2³¹ − 1)]`;
/// * the real part's `L` is a difference of two products in `[0, 2⁶²)`:
///   `L + 2^{s−1}` is signed and below `2⁶³` in magnitude, its quotient an
///   arithmetic shift in `[−2³¹, 2³¹ + 2²⁹)`, and `|M| ≤ 2⁶³ − 2³³ + 2`;
/// * the imaginary part's `L` is a *sum* of two products in `[0, 2⁶²)`:
///   below `2⁶³`, but with the rounding term added it can pass `2⁶³` and
///   read negative as an `i64`. It is non-negative, so its quotient is a
///   logical shift, in `[0, 2³² + 2²⁹)`; its `M` lies in
///   `[−2⁶³ + 2³², 2⁶³ − 3·2³² + 4]`;
/// * so `M + ⌊…⌋` stays strictly inside `±2⁶³` on either part: the inner
///   sum is exact and so is its arithmetic shift. `H` and its shift may
///   wrap: they are taken modulo `2⁶⁴`, as the scalar leg's truncation of
///   the quotient to `i64` is.
///
/// The engine's operands stay inside. A digit spectrum is at most
/// `M·√2·2¹⁰` at `int_frac_bits` fractional bits, which
/// [`crate::ApproxIntFft`] sizes to keep it below `2^{60.5}`. A row
/// spectrum is one of a torus polynomial (`M·√2·2³¹` at `torus_frac_bits`,
/// below `2^{60.5}` the same way) or a bundle row, whose `frac_bits` are
/// the torus polynomial's less [`BUNDLE_DROP_BITS`]: `H`'s `2^{56.5}` plus
/// `2^m − 1` terms, each a 32-bit mantissa times a factor of magnitude ≤ 2
/// brought back to those bits (`≤ 2^{55.5}` at `N = 1024`) — below `2⁶⁰` at
/// `MATCHA`'s `m = 3`, below `2⁶¹` up to `m = 5`. `MATCHA` multiplies at
/// `s = 41 + 16 = 57`, and stores its key at `s = 41 + 20 = 61`. Shifts
/// outside the range take the scalar loop, as `β = 62` does for lifts: a
/// torus spectrum times a digit spectrum below `N = 1024`, where both
/// pre-scales are wider (`s ≥ 63`).
pub const MAC_LANE_BOUND: u64 = 1 << 61;

/// The shifts `s` whose products [`i64_mul_acc`]'s
/// [`Leg::Avx512`](super::Leg::Avx512) leg computes ([`MAC_LANE_BOUND`]).
pub(crate) const MAC_SHIFTS: std::ops::RangeInclusive<u32> = 31..=61;

/// The integer engine's pointwise multiply-accumulate, `ROWS` rows in one
/// pass over `x`: `acc_r += ⌊(x ⊙ row_r + 2^{shift−1}) / 2^shift⌋` per
/// component, the complex product taken exactly and the quotient truncated
/// to 64 bits: [`crate::FftEngine::mul_accumulate`] with `ROWS` rows, two
/// in the external product. What a row gets does not depend on `ROWS`, so
/// on every leg a two-row call is bit-identical to two one-row calls.
///
/// The scalar leg is the definition: one `i128` product per term. The
/// [`Leg::Avx512`](super::Leg::Avx512) leg builds the products from 32-bit
/// partial products on eight lanes and agrees with it bit for bit for
/// shifts in [`MAC_SHIFTS`] and operands below [`MAC_LANE_BOUND`], where
/// the recombination is derived. Other shifts, and the AVX2 leg, run the
/// scalar loop: with half the lanes and registers the same partial
/// products are no faster than the native `mul`.
///
/// # Panics
///
/// Panics on mismatched lengths or a zero `shift`.
pub(crate) fn i64_mul_acc<const ROWS: usize>(
    mut accs: [(&mut [i64], &mut [i64]); ROWS],
    (x_re, x_im): (&[i64], &[i64]),
    rows: [(&[i64], &[i64]); ROWS],
    shift: u32,
    leg: Leg,
) {
    let m = x_re.len();
    assert_eq!(x_im.len(), m, "component length mismatch");
    for ((acc_re, acc_im), (a_re, a_im)) in accs.iter().zip(rows) {
        for len in [acc_re.len(), acc_im.len(), a_re.len(), a_im.len()] {
            assert_eq!(len, m, "spectrum size mismatch");
        }
    }
    assert!(
        shift > 0,
        "at least one operand must be an integer-side spectrum"
    );
    #[cfg(target_arch = "x86_64")]
    if leg.narrowed() == Leg::Avx512 && MAC_SHIFTS.contains(&shift) && m.is_multiple_of(8) {
        let within = |v: &[i64]| v.iter().all(|v| v.unsigned_abs() < MAC_LANE_BOUND);
        debug_assert!(
            within(x_re) && within(x_im) && rows.iter().all(|(re, im)| within(re) && within(im)),
            "pointwise product operand outside ±2^61"
        );
        // SAFETY: a narrowed `Leg::Avx512` implies AVX-512F; the lengths and
        // the shift were checked.
        unsafe { i64_512::i64_mul_acc(accs, (x_re, x_im), rows, shift) };
        return;
    }
    let round = 1i128 << (shift - 1);
    for k in 0..m {
        let (xr, xi) = (i128::from(x_re[k]), i128::from(x_im[k]));
        for ((acc_re, acc_im), (a_re, a_im)) in accs.iter_mut().zip(rows) {
            let (ar, ai) = (i128::from(a_re[k]), i128::from(a_im[k]));
            acc_re[k] += ((xr * ar - xi * ai + round) >> shift) as i64;
            acc_im[k] += ((xr * ai + xi * ar + round) >> shift) as i64;
        }
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
/// Every leg produces the same integers. A mantissa and a factor component
/// are 32 bits each, so a product is one signed 32×32→64-bit multiply —
/// the scalar leg's `i64` `*`, the vector legs' `vpmuldq` — and the complex
/// product's components, sums of two of them, stay below `2⁶³` with their
/// rounding term: `|K|·|f| ≤ 2^{31.5}·2³¹` in complex magnitudes, the
/// factors being quantized `ε^e − 1` (`|f| ≤ 2` at [`MONO_FRAC_BITS`]).
/// One rounding shift follows per component. AVX2 has no 64-bit
/// arithmetic shift: `v ≫ₐ S` is `((v + 2⁶³) ≫ S) − 2^{63−S}` with a logical
/// shift, the `2⁶³` riding in the rounding constant and the `2^{63−S}` taken
/// off once per row for all its terms. AVX-512F has one, and takes a chunk
/// of eight points a vector.
///
/// The vector legs also prefetch down the key (`BUNDLE_PREFETCH_AHEAD`):
/// once the products are vector work, fetching the key is what a row waits
/// for, and how long that takes is the neighbours' doing, not the code's.
///
/// # Panics
///
/// Panics on mismatched lengths, on a key stream shorter than the block,
/// on a slot outside the block's patterns, and on a `key.exp` that leaves
/// no rounding shift (`S < 1`).
pub(crate) fn i64_bundle_row(
    out_re: &mut [i64],
    out_im: &mut [i64],
    (h_re, h_im): (&[i64], &[i64]),
    key: KeyBlock<'_>,
    slots: &[u8],
    factors: &[[i32; 2]],
    leg: Leg,
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
    if let (leg @ (Leg::Avx2 | Leg::Avx512), true) = (leg.narrowed(), m.is_multiple_of(KEY_CHUNK)) {
        // SAFETY: a narrowed vector leg implies AVX2, a narrowed
        // `Leg::Avx512` AVX-512F too; the lengths, the block and the slots
        // were checked above.
        if leg == Leg::Avx512 {
            unsafe {
                i64_512::i64_bundle_row(out_re, out_im, h_re, h_im, key, slots, factors, shift)
            };
        } else {
            unsafe { i64_bundle_row_avx(out_re, out_im, h_re, h_im, key, slots, factors, shift) };
        }
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
