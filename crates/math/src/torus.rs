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
    /// The fractional part is rounded to the nearest multiple of `2^-32`.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        // Reduce to [0, 1) first so the cast is exact for any finite input.
        let frac = x - x.floor();
        Self((frac * 4294967296.0).round() as u64 as u32)
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
