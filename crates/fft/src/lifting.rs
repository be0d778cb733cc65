//! Multiplication-less lifting rotations (paper §4.1, Figure 3).
//!
//! A twiddle multiplication is a plane rotation. The lifting factorization
//! writes a rotation by `θ` as three shear ("lifting") steps
//!
//! ```text
//! [cosθ -sinθ]   [1 t] [1 0] [1 t]          θ
//! [sinθ  cosθ] = [0 1] [s 1] [0 1],  t = -tan(-), s = sinθ,
//!                                           2
//! ```
//!
//! each of which adds a scaled copy of one component to the other. Rounding
//! the scaled copy keeps the transform integer-to-integer, and quantizing
//! the lifting coefficients to *dyadic* values `α/2^β` (Figure 3b) lets each
//! scaling be computed with only additions and binary shifts — no
//! multipliers, which is what makes MATCHA's butterfly cores (two 64-bit
//! adders + two 64-bit shifters each, §4.3) sufficient.
//!
//! Rotations with `|θ| > π/2` are reduced by `π` (an exact negation) first
//! so every lifting coefficient lies in `[-1, 1]` and the shift-add expansion
//! stays short and numerically tame.

use crate::simd::LiftSplit;

/// A dyadic fixed-point coefficient `α / 2^β`.
///
/// # Examples
///
/// ```
/// use matcha_fft::DyadicCoeff;
///
/// // 9/128 from the paper's Figure 3(b): 9 = 2^3 + 2^0, β = 7.
/// let c = DyadicCoeff::quantize(9.0 / 128.0, 7);
/// assert_eq!(c.apply(1 << 7), 9); // α = 9
/// // round(9/128 · 1000) = round(70.3) = 70
/// assert_eq!(c.apply(1000), 70);
/// assert_eq!(c.apply_shift_add(1000), 70);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DyadicCoeff {
    alpha: i64,
    beta: u32,
}

impl DyadicCoeff {
    /// Quantizes a real coefficient in `[-2, 2]` to `round(x·2^β)/2^β`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is 0 or exceeds 62, or if `|x| > 2` (lifting
    /// coefficients after angle reduction never exceed 1 in magnitude).
    pub fn quantize(x: f64, beta: u32) -> Self {
        assert!(
            (1..=62).contains(&beta),
            "beta {beta} out of supported range 1..=62"
        );
        assert!(x.abs() <= 2.0, "lifting coefficient {x} out of range");
        let alpha = (x * (1i64 << beta) as f64).round() as i64;
        Self { alpha, beta }
    }

    /// The integer numerator `α`.
    #[inline]
    pub(crate) fn alpha(self) -> i64 {
        self.alpha
    }

    /// `round(x · α/2^β)`, computed with one wide multiply.
    ///
    /// Bit-identical to [`DyadicCoeff::apply_shift_add`]; hardware uses the
    /// shift-add form, software uses this faster equivalent.
    #[inline]
    pub fn apply(self, x: i64) -> i64 {
        lift(x, self.alpha, self.beta)
    }

    /// `round(x · α/2^β)` computed with additions and binary shifts only —
    /// the literal hardware datapath of Figure 3(b).
    pub fn apply_shift_add(self, x: i64) -> i64 {
        let mut acc: i128 = 0;
        let mut bits = self.alpha.unsigned_abs();
        while bits != 0 {
            let b = bits.trailing_zeros();
            acc += (x as i128) << b;
            bits &= bits - 1;
        }
        if self.alpha < 0 {
            acc = -acc;
        }
        round_shift(acc, self.beta)
    }
}

/// Arithmetic shift right by `beta` with round-half-away-from-zero-ties-up
/// (`⌈·⌋` of the paper).
#[inline]
fn round_shift(v: i128, beta: u32) -> i64 {
    ((v + (1i128 << (beta - 1))) >> beta) as i64
}

/// One lifting step's scaled copy, `⌊(x·α + 2^{β−1}) / 2^β⌋`, with one wide
/// multiply: the definition every software leg of the integer engine
/// reproduces bit for bit ([`DyadicCoeff::apply`], the scalar
/// [`crate::simd`] kernels directly, the vector kernels through 32-bit
/// partial products).
#[inline]
pub(crate) fn lift(x: i64, alpha: i64, beta: u32) -> i64 {
    round_shift(x as i128 * alpha as i128, beta)
}

/// How a rotation is realized after angle reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RotationKind {
    /// `θ ≡ 0`: nothing to do.
    Identity,
    /// `θ ≡ π`: exact negation of both components.
    Negation,
    /// General rotation by the reduced angle, optionally negated.
    Lifting {
        t: DyadicCoeff,
        s: DyadicCoeff,
        negate: bool,
    },
}

/// An integer-to-integer approximate rotation by a fixed angle.
///
/// # Examples
///
/// ```
/// use matcha_fft::LiftingRotation;
///
/// let rot = LiftingRotation::from_angle(std::f64::consts::FRAC_PI_2, 40);
/// // Rotating (1000, 0) by 90° gives (0, 1000) exactly.
/// assert_eq!(rot.apply(1000, 0), (0, 1000));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiftingRotation {
    kind: RotationKind,
}

impl LiftingRotation {
    /// Builds the three-lifting-step rotation by `theta` radians with
    /// `twiddle_bits` fractional bits per dyadic coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `twiddle_bits ∉ [1, 62]`.
    pub fn from_angle(theta: f64, twiddle_bits: u32) -> Self {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        // Reduce to (-π, π].
        let mut th = theta.rem_euclid(TAU);
        if th > PI {
            th -= TAU;
        }
        // Reduce to [-π/2, π/2] with an exact negation.
        let mut negate = false;
        if th > FRAC_PI_2 {
            th -= PI;
            negate = true;
        } else if th < -FRAC_PI_2 {
            th += PI;
            negate = true;
        }
        const EPS: f64 = 1e-15;
        let kind = if th.abs() < EPS {
            if negate {
                RotationKind::Negation
            } else {
                RotationKind::Identity
            }
        } else {
            let t = DyadicCoeff::quantize(-(th / 2.0).tan(), twiddle_bits);
            let s = DyadicCoeff::quantize(th.sin(), twiddle_bits);
            RotationKind::Lifting { t, s, negate }
        };
        Self { kind }
    }

    /// Applies the rotation to an integer point.
    #[inline]
    pub fn apply(self, mut x: i64, mut y: i64) -> (i64, i64) {
        match self.kind {
            RotationKind::Identity => (x, y),
            RotationKind::Negation => (-x, -y),
            RotationKind::Lifting { t, s, negate } => {
                x += t.apply(y);
                y += s.apply(x);
                x += t.apply(y);
                if negate {
                    (-x, -y)
                } else {
                    (x, y)
                }
            }
        }
    }

    /// Applies the rotation using only shift-add scalings (hardware path).
    pub fn apply_shift_add(self, mut x: i64, mut y: i64) -> (i64, i64) {
        match self.kind {
            RotationKind::Identity => (x, y),
            RotationKind::Negation => (-x, -y),
            RotationKind::Lifting { t, s, negate } => {
                x += t.apply_shift_add(y);
                y += s.apply_shift_add(x);
                x += t.apply_shift_add(y);
                if negate {
                    (-x, -y)
                } else {
                    (x, y)
                }
            }
        }
    }

    /// The rotation as the integer engine's tables store it: the numerators
    /// of `t` and `s` and whether the result is negated. `Identity` and
    /// `Negation` come out as zero lifts: `⌊(x·0 + 2^{β−1}) / 2^β⌋ = 0`, so
    /// the three steps leave them unchanged and one loop with no case
    /// analysis serves every entry of a table.
    pub(crate) fn lifts(self) -> (i64, i64, bool) {
        match self.kind {
            RotationKind::Identity => (0, 0, false),
            RotationKind::Negation => (0, 0, true),
            RotationKind::Lifting { t, s, negate } => (t.alpha(), s.alpha(), negate),
        }
    }
}

/// A run of rotations in struct-of-arrays layout — what the integer
/// engine's kernels read. Entry `i` is `rotations[i]` taken apart by
/// `LiftingRotation::lifts`: `t[i]`, `s[i]` are the numerators over
/// `2^β`, `neg[i]` is `0` or `−1` (all ones), so that `(v ^ neg) − neg`
/// negates exactly the entries that ask for it. [`LiftingRotation`] stays
/// the definition; this is its storage.
#[derive(Clone, Debug)]
pub struct LiftingTable {
    t: Vec<i64>,
    s: Vec<i64>,
    neg: Vec<i64>,
    beta: u32,
    split: Option<LiftSplit>,
}

impl LiftingTable {
    /// Lays `rotations` out as arrays. All of them must have been built
    /// with `twiddle_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `twiddle_bits ∉ [1, 62]`.
    pub fn new(rotations: impl IntoIterator<Item = LiftingRotation>, twiddle_bits: u32) -> Self {
        assert!(
            (1..=62).contains(&twiddle_bits),
            "twiddle_bits {twiddle_bits} out of supported range 1..=62"
        );
        let (mut t, mut s, mut neg) = (Vec::new(), Vec::new(), Vec::new());
        for rot in rotations {
            let (rt, rs, negate) = rot.lifts();
            debug_assert!(rt.unsigned_abs() <= 1 << twiddle_bits);
            debug_assert!(rs.unsigned_abs() <= 1 << twiddle_bits);
            t.push(rt);
            s.push(rs);
            neg.push(-i64::from(negate));
        }
        Self {
            t,
            s,
            neg,
            beta: twiddle_bits,
            split: LiftSplit::new(twiddle_bits),
        }
    }

    /// The rotations `range` as the kernels take them.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Lifts<'_> {
        Lifts {
            t: &self.t[range.clone()],
            s: &self.s[range.clone()],
            neg: &self.neg[range],
            beta: self.beta,
            split: self.split,
        }
    }
}

/// A borrowed run of a [`LiftingTable`]: three equally long slices, the
/// shared `β`, and how the vector leg takes a lift apart (`None`: this `β`
/// stays scalar).
#[derive(Clone, Copy, Debug)]
pub struct Lifts<'a> {
    pub(crate) t: &'a [i64],
    pub(crate) s: &'a [i64],
    pub(crate) neg: &'a [i64],
    pub(crate) beta: u32,
    pub(crate) split: Option<LiftSplit>,
}

impl Lifts<'_> {
    /// Number of rotations.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.t.len()
    }

    /// Rotation `k` applied to `(x, y)`: the three lifts and the masked
    /// negation, bit-identical to [`LiftingRotation::apply`] of the entry
    /// it was built from. The scalar leg of every integer kernel. Zero
    /// lifts add zero, so they are not multiplied out: every stage's first
    /// rotation is one, and the whole `len = 2` stage.
    #[inline]
    pub(crate) fn rotate(&self, k: usize, mut x: i64, mut y: i64) -> (i64, i64) {
        let (t, s, neg) = (self.t[k], self.s[k], self.neg[k]);
        if t | s != 0 {
            x += lift(y, t, self.beta);
            y += lift(x, s, self.beta);
            x += lift(y, t, self.beta);
        }
        ((x ^ neg) - neg, (y ^ neg) - neg)
    }

    /// Whether rotation `k` changes nothing (angle `0`).
    #[inline]
    pub(crate) fn is_identity(&self, k: usize) -> bool {
        self.t[k] | self.s[k] | self.neg[k] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};

    #[test]
    fn paper_example_nine_over_128() {
        // 9/128 = 1/2^4 + 1/2^7: the summation of a 4- and a 7-bit shifter.
        let c = DyadicCoeff::quantize(0.0703125, 7);
        assert_eq!(c.alpha(), 9);
        for x in [-100_000i64, -7, 0, 3, 12_345, 1 << 40] {
            assert_eq!(c.apply(x), c.apply_shift_add(x), "x={x}");
        }
    }

    #[test]
    fn shift_add_equals_multiply_randomized() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for beta in [8u32, 20, 38, 53, 62] {
            for _ in 0..200 {
                let coef = ((next() % 2001) as f64 / 1000.0) - 1.0;
                let c = DyadicCoeff::quantize(coef, beta);
                let x = (next() as i64) >> 12; // keep |x| < 2^52
                assert_eq!(
                    c.apply(x),
                    c.apply_shift_add(x),
                    "beta={beta} coef={coef} x={x}"
                );
            }
        }
    }

    #[test]
    fn rotation_accuracy() {
        let bits = 45;
        let r = 1_000_000_000i64; // 2^30-ish radius
        for k in 0..32 {
            let theta = TAU * k as f64 / 32.0;
            let rot = LiftingRotation::from_angle(theta, bits);
            let (x, y) = rot.apply(r, 0);
            let ex = (r as f64 * theta.cos()).round() as i64;
            let ey = (r as f64 * theta.sin()).round() as i64;
            assert!(
                (x - ex).abs() < 64 && (y - ey).abs() < 64,
                "θ={theta}: got ({x},{y}) expected ({ex},{ey})"
            );
        }
    }

    #[test]
    fn exact_special_angles() {
        let rot0 = LiftingRotation::from_angle(0.0, 10);
        assert_eq!(rot0.apply(123, -456), (123, -456));
        let rot_pi = LiftingRotation::from_angle(PI, 10);
        assert_eq!(rot_pi.apply(123, -456), (-123, 456));
        let rot_q = LiftingRotation::from_angle(FRAC_PI_2, 30);
        assert_eq!(rot_q.apply(1000, 0), (0, 1000));
        let rot_nq = LiftingRotation::from_angle(-FRAC_PI_2, 30);
        assert_eq!(rot_nq.apply(1000, 0), (0, -1000));
    }

    #[test]
    fn inverse_rotation_roundtrip() {
        let bits = 50;
        for k in 1..16 {
            let theta = TAU * k as f64 / 16.0 + 0.1;
            let fwd = LiftingRotation::from_angle(theta, bits);
            let inv = LiftingRotation::from_angle(-theta, bits);
            let (x0, y0) = (987_654_321i64, -123_456_789i64);
            let (x1, y1) = fwd.apply(x0, y0);
            let (x2, y2) = inv.apply(x1, y1);
            assert!((x2 - x0).abs() < 16 && (y2 - y0).abs() < 16, "θ={theta}");
        }
    }

    #[test]
    fn rotation_preserves_norm_approximately() {
        let rot = LiftingRotation::from_angle(FRAC_PI_4, 40);
        let (x, y) = rot.apply(3_000_000, 4_000_000);
        let before = (3_000_000f64).hypot(4_000_000.0);
        let after = (x as f64).hypot(y as f64);
        // Each lifting step rounds to an integer, so allow a few ulps.
        assert!((before - after).abs() / before < 1e-5);
    }

    #[test]
    fn coarse_quantization_still_bounded() {
        // Even 4-bit twiddles must produce a vaguely-right rotation.
        let rot = LiftingRotation::from_angle(1.0, 4);
        let (x, y) = rot.apply(1 << 20, 0);
        let ex = ((1 << 20) as f64 * 1f64.cos()) as i64;
        let ey = ((1 << 20) as f64 * 1f64.sin()) as i64;
        assert!((x - ex).abs() < (1 << 17) && (y - ey).abs() < (1 << 17));
    }

    #[test]
    fn shift_add_rotation_matches_multiply_rotation() {
        let rot = LiftingRotation::from_angle(2.5, 38);
        for &(x, y) in &[
            (1i64 << 30, -(1i64 << 29)),
            (7, 9),
            (0, 0),
            (-(1 << 40), 1 << 35),
        ] {
            assert_eq!(rot.apply(x, y), rot.apply_shift_add(x, y));
        }
    }
}
