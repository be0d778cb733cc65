//! A minimal double-precision complex number.
//!
//! The crate deliberately avoids external numeric dependencies; the handful
//! of complex operations the table builders need fit in this module. The
//! transforms themselves never see it: they run on split `re[]`/`im[]`
//! arrays (see [`crate::simd`]).

use std::ops::{Add, Mul, MulAssign, Sub};

/// A complex number with `f64` components.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cplx {
    /// Real part.
    pub(crate) re: f64,
    /// Imaginary part.
    pub(crate) im: f64,
}

impl Cplx {
    /// The multiplicative identity.
    #[cfg(test)]
    pub(crate) const ONE: Self = Self { re: 1.0, im: 0.0 };

    /// Creates `re + i·im`.
    #[cfg(test)]
    pub(crate) const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The unit complex number `e^{iθ}`.
    #[inline]
    pub(crate) fn from_angle(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub(crate) fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus.
    #[cfg(test)]
    pub(crate) fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Fused multiply-add `self + a·b`, computed with `f64::mul_add` on
    /// both components — each component carries a single rounding instead
    /// of the three the expanded `self + a * b` performs, the contraction
    /// the scalar and AVX2 kernels in [`crate::simd`] use.
    ///
    /// On rounding-sensitive inputs this *differs* from the expanded form
    /// (see the `mul_add_is_fused` test).
    #[cfg(test)]
    pub(crate) fn mul_add(self, a: Self, b: Self) -> Self {
        Self {
            re: a.re.mul_add(b.re, (-a.im).mul_add(b.im, self.re)),
            im: a.re.mul_add(b.im, a.im.mul_add(b.re, self.im)),
        }
    }
}

impl Add for Cplx {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Cplx {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Cplx {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Cplx {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = Cplx::new(1.5, -2.0);
        let b = Cplx::new(-0.5, 3.0);
        let c = Cplx::new(2.0, 0.25);
        // Distributivity.
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        assert!((lhs - rhs).abs() < 1e-12);
        // Conjugate multiplicativity.
        assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-12);
    }

    #[test]
    fn from_angle_is_unit() {
        for k in 0..16 {
            let w = Cplx::from_angle(k as f64 * std::f64::consts::FRAC_PI_8);
            assert!((w.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn angle_addition() {
        let a = Cplx::from_angle(0.7);
        let b = Cplx::from_angle(1.1);
        assert!((a * b - Cplx::from_angle(1.8)).abs() < 1e-12);
    }

    #[test]
    fn mul_add_matches_expanded_on_exact_inputs() {
        // Dyadic inputs whose products and sums are exactly representable:
        // fusion cannot change anything here.
        let acc = Cplx::new(1.0, 1.0);
        let a = Cplx::new(2.0, -1.0);
        let b = Cplx::new(0.5, 0.5);
        let (fused, expanded) = (acc.mul_add(a, b), acc + a * b);
        assert_eq!((fused.re, fused.im), (expanded.re, expanded.im));
    }

    #[test]
    fn mul_add_is_fused() {
        // (1 + 2⁻³⁰)(1 − 2⁻³⁰) = 1 − 2⁻⁶⁰ needs more than 52 mantissa bits:
        // the expanded form rounds the product to exactly 1.0 and the
        // subsequent −1.0 cancels to zero, while the fused form feeds the
        // unrounded product into the addition and recovers −2⁻⁶⁰.
        let eps = (2.0f64).powi(-30);
        let acc = Cplx::new(-1.0, 0.0);
        let a = Cplx::new(1.0 + eps, 0.0);
        let b = Cplx::new(1.0 - eps, 0.0);
        let fused = acc.mul_add(a, b);
        let expanded = acc + a * b;
        assert_eq!(expanded.re, 0.0, "expanded form loses the 2⁻⁶⁰ tail");
        assert_eq!(fused.re, -(2.0f64).powi(-60), "fused form keeps it");
        assert_ne!((fused.re, fused.im), (expanded.re, expanded.im));
    }
}
