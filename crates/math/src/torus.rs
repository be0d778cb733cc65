//! The discretized torus `T = R/Z` represented as a 32-bit integer.
//!
//! TFHE rescales torus elements by `2^32` and maps them to `u32`, so that
//! additions wrap around exactly like real numbers modulo 1 and no explicit
//! modular reduction is ever performed (paper §2, "Torus Implementation").

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An element of the discretized torus `T = R/Z`, stored as `round(x · 2^32)`.
///
/// `Torus32` is an additive group: elements can be added, subtracted and
/// negated, and scaled by (plain) integers. There is deliberately no
/// `Torus32 × Torus32` product — the torus is a `Z`-module, not a ring.
///
/// # Examples
///
/// ```
/// use matcha_math::Torus32;
///
/// let half = Torus32::from_f64(0.5);
/// assert_eq!(half + half, Torus32::ZERO); // 1 ≡ 0 (mod 1)
/// assert_eq!(half * 3, half);             // 1.5 ≡ 0.5 (mod 1)
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Torus32(u32);

impl Torus32 {
    /// The additive identity, 0 mod 1.
    pub const ZERO: Self = Self(0);
    /// One half: the farthest point from zero on the torus.
    pub const HALF: Self = Self(1 << 31);

    /// Creates a torus element from its raw `2^32`-scaled representation.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw `2^32`-scaled representation.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Creates the torus element `x mod 1` from a real number.
    ///
    /// The result is exact: the nearest multiple of `2^-32` to `x`, ties
    /// away from zero, reduced mod 1. Non-finite inputs map to zero.
    ///
    /// For `|x·2^32| < 2^63` — every noise sample and every plaintext —
    /// this is a scaling by a power of two, a truncating cast and a
    /// comparison of the remainder against `±1/2`, all exact, with no libm
    /// call (`floor` and `round` are calls unless the build targets
    /// SSE4.1).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        let y = x * 4_294_967_296.0;
        if y.abs() < TWO_63 {
            // `t` is `y` truncated toward zero, and `y − t` is exact: an
            // `f64` of magnitude `≥ 2^52` is already an integer.
            let t = y as i64;
            let rem = y - t as f64;
            let nearest = t + i64::from(rem >= 0.5) - i64::from(rem <= -0.5);
            Self(nearest as u32)
        } else if y.is_finite() {
            // `|y| ≥ 2^63`: an integer multiple of `2^11`, `±mant·2^exp`
            // with `exp ≥ 11`; keep its low 32 bits.
            let bits = y.to_bits();
            let exp = ((bits >> 52) & 0x7ff) as u32 - 1075;
            let mant = (bits & ((1 << 52) - 1)) | (1 << 52);
            let low = if exp >= 32 { 0 } else { (mant << exp) as u32 };
            Self(if y < 0.0 { low.wrapping_neg() } else { low })
        } else {
            Self::ZERO
        }
    }

    /// Returns the centered real representative in `[-1/2, 1/2)`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        (self.0 as i32) as f64 / 4294967296.0
    }

    /// The exact dyadic torus element `num / 2^log_denom`.
    ///
    /// This is how TFHE builds plaintext encodings such as `1/8`
    /// (`Torus32::from_dyadic(1, 3)`).
    ///
    /// # Panics
    ///
    /// Panics if `log_denom > 32`.
    #[inline]
    pub fn from_dyadic(num: i64, log_denom: u32) -> Self {
        assert!(log_denom <= 32, "denominator 2^{log_denom} exceeds 2^32");
        Self((num << (32 - log_denom)) as u32)
    }

    /// Signed distance to zero as a real number in `[-1/2, 1/2)`.
    ///
    /// This is the quantity decryption thresholds compare against: a TFHE
    /// sample decrypts correctly when the phase noise keeps `|distance|`
    /// within the plaintext spacing.
    #[inline]
    pub fn distance_to_zero(self) -> f64 {
        self.to_f64().abs()
    }

    /// Signed torus difference `self - other` as a centered real number.
    #[inline]
    pub fn signed_diff(self, other: Self) -> f64 {
        (self - other).to_f64()
    }

    /// Rounds to the closest of the two gate-plaintext values `±1/8` and
    /// returns the Boolean it encodes (`+1/8 → true`, `-1/8 → false`).
    #[inline]
    pub fn to_bool(self) -> bool {
        (self.0 as i32) >= 0
    }

    /// Encodes a Boolean as the gate plaintext `±1/8`.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Self::from_dyadic(1, 3)
        } else {
            Self::from_dyadic(-1, 3)
        }
    }
}

impl Add for Torus32 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for Torus32 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for Torus32 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.wrapping_sub(rhs.0))
    }
}

impl SubAssign for Torus32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 = self.0.wrapping_sub(rhs.0);
    }
}

impl Neg for Torus32 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0.wrapping_neg())
    }
}

/// Integer scaling: the torus is a `Z`-module.
impl Mul<i32> for Torus32 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: i32) -> Self {
        Self(self.0.wrapping_mul(rhs as u32))
    }
}

impl Mul<Torus32> for i32 {
    type Output = Torus32;
    #[inline]
    fn mul(self, rhs: Torus32) -> Torus32 {
        rhs * self
    }
}

impl Sum for Torus32 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Debug for Torus32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Torus32({:#010x} ≈ {:+.6})", self.0, self.to_f64())
    }
}

impl fmt::Display for Torus32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}", self.to_f64())
    }
}

impl fmt::LowerHex for Torus32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Torus32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Torus32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u32> for Torus32 {
    fn from(raw: u32) -> Self {
        Self::from_raw(raw)
    }
}

impl From<Torus32> for u32 {
    fn from(t: Torus32) -> u32 {
        t.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        for &x in &[0.0, 0.25, -0.25, 0.4999, -0.5, 0.125, -0.125] {
            let t = Torus32::from_f64(x);
            assert!((t.to_f64() - x).abs() < 1e-9 || (t.to_f64() - x).abs() > 0.999);
        }
    }

    /// The nearest multiple of `2^-32` to `x` (ties away from zero) mod 1,
    /// from the float's mantissa and exponent in `i128`: `x·2^32 =
    /// ±mant·2^k` exactly, and rounding is integer arithmetic on `mant`.
    fn exact_reference(x: f64) -> u32 {
        if !x.is_finite() {
            return 0;
        }
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let fraction = (bits & ((1 << 52) - 1)) as i128;
        let (mant, exp) = if biased == 0 {
            (fraction, -1074)
        } else {
            (fraction | 1 << 52, biased - 1075)
        };
        let k = exp + 32;
        let magnitude = if k >= 32 {
            0
        } else if k >= 0 {
            mant << k
        } else if k < -60 {
            0 // below 2^-8 of a unit: rounds to zero
        } else {
            let shift = -k;
            let (q, rem) = (mant >> shift, mant & ((1 << shift) - 1));
            q + i128::from(rem >= 1 << (shift - 1))
        };
        let signed = if x < 0.0 { -magnitude } else { magnitude };
        signed.rem_euclid(1 << 32) as u32
    }

    #[test]
    fn from_f64_is_the_exact_nearest_multiple() {
        let unit = 1.0 / 4_294_967_296.0;
        let mut inputs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            // The nearest multiple is −4 units: reducing mod 1 first
            // rounded `1 − |x|` to 53 bits and returned −3.
            -(3.5 + 2f64.powi(-25)) * unit,
        ];
        // Ties and their neighbours, both signs, near zero and near ±1.
        for k in [0.5, 1.5, 2.5, 3.5, 1e6 + 0.5, 2f64.powi(31) - 0.5] {
            for base in [0.0, 1.0, -1.0, 7.0] {
                for v in [k, -k] {
                    let x = base + v * unit;
                    inputs.extend([x, x.next_up(), x.next_down()]);
                }
            }
        }
        // Tiny negatives: everything below half a unit rounds to zero.
        for e in 33..80 {
            inputs.extend([-(2f64.powi(-e)), -(2f64.powi(-e)).next_up()]);
        }
        // Random inputs across magnitudes and the `|x·2^32| ≥ 2^63` range.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let magnitude = 2f64.powi((state % 120) as i32 - 60);
            let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
            let x = magnitude * mantissa;
            inputs.extend([x, -x]);
        }
        for x in inputs {
            assert_eq!(
                Torus32::from_f64(x).raw(),
                exact_reference(x),
                "from_f64({x:e})"
            );
        }
    }

    #[test]
    fn wrapping_addition_is_mod_one() {
        let a = Torus32::from_f64(0.75);
        let b = Torus32::from_f64(0.75);
        // 1.5 ≡ 0.5 (mod 1), whose centered representative is -0.5.
        assert!(((a + b).to_f64() - (-0.5)).abs() < 1e-9);
        assert_eq!(a + b, Torus32::HALF);
    }

    #[test]
    fn dyadic_constants() {
        assert_eq!(Torus32::from_dyadic(1, 1), Torus32::HALF);
        assert_eq!(Torus32::from_dyadic(1, 3).to_f64(), 0.125);
        assert_eq!(Torus32::from_dyadic(-1, 3).to_f64(), -0.125);
        assert_eq!(Torus32::from_dyadic(4, 3), Torus32::HALF);
    }

    #[test]
    fn bool_encoding_roundtrip() {
        assert!(Torus32::from_bool(true).to_bool());
        assert!(!Torus32::from_bool(false).to_bool());
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = Torus32::from_f64(0.3);
        assert_eq!(a + (-a), Torus32::ZERO);
    }

    #[test]
    #[allow(clippy::erasing_op)] // `a * 0` is exactly the law under test
    fn integer_scaling_matches_repeated_addition() {
        let a = Torus32::from_f64(0.21);
        assert_eq!(a * 5, a + a + a + a + a);
        assert_eq!(a * -2, -(a + a));
        assert_eq!(a * 0, Torus32::ZERO);
    }

    #[test]
    fn signed_diff_is_centered() {
        let a = Torus32::from_f64(0.01);
        let b = Torus32::from_f64(0.99);
        // 0.01 - 0.99 = -0.98 ≡ +0.02 (mod 1): the short way around.
        assert!((a.signed_diff(b) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let a = Torus32::from_f64(0.125);
        assert!(!format!("{a}").is_empty());
        assert!(format!("{a:?}").contains("Torus32"));
        assert_eq!(format!("{a:x}"), "20000000");
    }
}
