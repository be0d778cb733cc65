//! Negacyclic polynomial rings `T_N[X] = T[X]/(X^N + 1)` and
//! `Z_N[X] = Z[X]/(X^N + 1)`.
//!
//! All TFHE ring operations happen modulo `X^N + 1` with `N` a power of two,
//! which makes `X` a `2N`-th root of `-1`: multiplying by `X^k` is a rotation
//! of the coefficient vector with sign flips on wrap-around. Blind rotation
//! (Algorithm 1 of the paper) is built entirely out of such monomial
//! multiplications plus external products.

use crate::torus::Torus32;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A polynomial over the discretized torus, `T_N[X]`.
///
/// # Examples
///
/// ```
/// use matcha_math::{TorusPolynomial, Torus32};
///
/// let mut p = TorusPolynomial::zero(4);
/// p.coeffs_mut()[0] = Torus32::from_f64(0.25);
/// // X^4 = -1, so rotating by N negates every coefficient.
/// let q = p.mul_by_monomial(4);
/// assert_eq!(q.coeffs()[0], -Torus32::from_f64(0.25));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TorusPolynomial {
    coeffs: Vec<Torus32>,
}

impl TorusPolynomial {
    /// The zero polynomial of degree bound `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn zero(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "ring degree {n} must be a power of two"
        );
        Self {
            coeffs: vec![Torus32::ZERO; n],
        }
    }

    /// Builds a polynomial from its coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_coeffs(coeffs: Vec<Torus32>) -> Self {
        assert!(
            coeffs.len().is_power_of_two(),
            "length must be a power of two"
        );
        Self { coeffs }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Torus32, n: usize) -> Self {
        let mut p = Self::zero(n);
        p.coeffs[0] = c;
        p
    }

    /// Degree bound `N` of the ring.
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns `true` if the ring degree is zero (never for valid rings).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Immutable view of the coefficients, constant term first.
    #[inline]
    pub fn coeffs(&self) -> &[Torus32] {
        &self.coeffs
    }

    /// Mutable view of the coefficients.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [Torus32] {
        &mut self.coeffs
    }

    /// Multiplies by the monomial `X^power` in `T_N[X]` (negacyclic rotation).
    ///
    /// `power` is interpreted modulo `2N`; `X^N = -1`.
    pub fn mul_by_monomial(&self, power: i64) -> Self {
        let mut out = Self::zero(self.len());
        out.rotate_from(self, power);
        out
    }

    /// Writes `src · X^power` into `self` without allocating (once `self`
    /// has `src`'s length). Every output index is written, so no prior
    /// clearing is needed.
    ///
    /// # Panics
    ///
    /// Panics if `self.len() != src.len()`.
    pub fn rotate_from(&mut self, src: &Self, power: i64) {
        let n = src.len() as i64;
        assert_eq!(self.len() as i64, n, "ring degree mismatch");
        let shift = power.rem_euclid(2 * n);
        for (i, &c) in src.coeffs.iter().enumerate() {
            let mut j = i as i64 + shift;
            let mut v = c;
            if j >= 2 * n {
                j -= 2 * n;
            }
            if j >= n {
                j -= n;
                v = -v;
            }
            self.coeffs[j as usize] = v;
        }
    }

    /// Copies `other`'s coefficients into `self` without allocating once
    /// capacity exists (unlike derived `clone_from`, which reallocates).
    pub fn copy_from(&mut self, other: &Self) {
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&other.coeffs);
    }

    /// Sets every coefficient to zero.
    pub fn fill_zero(&mut self) {
        self.coeffs.fill(Torus32::ZERO);
    }

    /// In-place `self += (X^power − 1) · other`, the "rotate minus identity"
    /// update at the heart of blind rotation and bootstrapping-key bundle
    /// construction (paper Fig. 5).
    pub fn add_rotate_minus_one(&mut self, other: &Self, power: i64) {
        debug_assert_eq!(self.len(), other.len());
        let rotated = other.mul_by_monomial(power);
        for ((dst, &rot), &orig) in self
            .coeffs
            .iter_mut()
            .zip(rotated.coeffs.iter())
            .zip(other.coeffs.iter())
        {
            *dst += rot - orig;
        }
    }

    /// Naive `O(N²)` negacyclic product with an integer polynomial.
    ///
    /// This is the correctness reference the FFT engines are validated
    /// against; production code paths use `matcha-fft`.
    pub fn naive_mul_int(&self, rhs: &IntPolynomial) -> Self {
        let n = self.len();
        debug_assert_eq!(n, rhs.len());
        let mut out = vec![Torus32::ZERO; n];
        for (i, &a) in rhs.coeffs().iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in self.coeffs.iter().enumerate() {
                let k = i + j;
                let term = b * a;
                if k < n {
                    out[k] += term;
                } else {
                    out[k - n] -= term;
                }
            }
        }
        Self { coeffs: out }
    }

    /// Maximum absolute centered distance between two polynomials, in torus
    /// units (`[0, 1/2]`). Used to bound FFT approximation error.
    ///
    /// # Panics
    ///
    /// Panics if the two ring degrees differ.
    pub fn max_distance(&self, other: &Self) -> f64 {
        assert_eq!(self.len(), other.len(), "ring degree mismatch");
        self.coeffs
            .iter()
            .zip(other.coeffs.iter())
            .map(|(&a, &b)| a.signed_diff(b).abs())
            .fold(0.0, f64::max)
    }
}

impl Add<&TorusPolynomial> for TorusPolynomial {
    type Output = TorusPolynomial;
    fn add(mut self, rhs: &TorusPolynomial) -> TorusPolynomial {
        self += rhs;
        self
    }
}

impl AddAssign<&TorusPolynomial> for TorusPolynomial {
    /// # Panics
    ///
    /// Panics if the two ring degrees differ.
    fn add_assign(&mut self, rhs: &TorusPolynomial) {
        assert_eq!(self.len(), rhs.len(), "ring degree mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(rhs.coeffs.iter()) {
            *a += b;
        }
    }
}

impl Sub<&TorusPolynomial> for TorusPolynomial {
    type Output = TorusPolynomial;
    fn sub(mut self, rhs: &TorusPolynomial) -> TorusPolynomial {
        self -= rhs;
        self
    }
}

impl SubAssign<&TorusPolynomial> for TorusPolynomial {
    /// # Panics
    ///
    /// Panics if the two ring degrees differ.
    fn sub_assign(&mut self, rhs: &TorusPolynomial) {
        assert_eq!(self.len(), rhs.len(), "ring degree mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(rhs.coeffs.iter()) {
            *a -= b;
        }
    }
}

impl Neg for TorusPolynomial {
    type Output = TorusPolynomial;
    fn neg(mut self) -> TorusPolynomial {
        for c in &mut self.coeffs {
            *c = -*c;
        }
        self
    }
}

/// A polynomial with (small) integer coefficients, `Z_N[X]`.
///
/// Integer polynomials appear as gadget-decomposition digit vectors (bounded
/// by `Bg/2`) and as binary secret-key polynomials.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntPolynomial {
    coeffs: Vec<i32>,
}

impl IntPolynomial {
    /// The zero polynomial of degree bound `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn zero(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "ring degree {n} must be a power of two"
        );
        Self { coeffs: vec![0; n] }
    }

    /// Builds a polynomial from its coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_coeffs(coeffs: Vec<i32>) -> Self {
        assert!(
            coeffs.len().is_power_of_two(),
            "length must be a power of two"
        );
        Self { coeffs }
    }

    /// Degree bound `N` of the ring.
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns `true` if the ring degree is zero (never for valid rings).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Immutable view of the coefficients, constant term first.
    #[inline]
    pub fn coeffs(&self) -> &[i32] {
        &self.coeffs
    }

    /// Mutable view of the coefficients.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [i32] {
        &mut self.coeffs
    }

    /// Largest coefficient magnitude (infinity norm).
    pub fn norm_inf(&self) -> i64 {
        self.coeffs
            .iter()
            .map(|&c| (c as i64).abs())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(vals: &[f64]) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(vals.iter().map(|&v| Torus32::from_f64(v)).collect())
    }

    #[test]
    fn monomial_rotation_basics() {
        let p = tp(&[0.25, 0.125, 0.0, 0.0]);
        let q = p.mul_by_monomial(1);
        assert_eq!(q.coeffs()[1], Torus32::from_f64(0.25));
        assert_eq!(q.coeffs()[2], Torus32::from_f64(0.125));
    }

    #[test]
    fn monomial_wraps_negacyclically() {
        let p = tp(&[0.0, 0.0, 0.0, 0.25]);
        let q = p.mul_by_monomial(1); // X^3 · X = X^4 = -1
        assert_eq!(q.coeffs()[0], Torus32::from_f64(-0.25));
    }

    #[test]
    fn monomial_by_2n_is_identity() {
        let p = tp(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(p.mul_by_monomial(8), p);
        assert_eq!(p.mul_by_monomial(-8), p);
        assert_eq!(p.mul_by_monomial(0), p);
    }

    #[test]
    fn monomial_by_n_negates() {
        let p = tp(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(p.mul_by_monomial(4), -p);
    }

    #[test]
    fn negative_power_is_inverse_rotation() {
        let p = tp(&[0.1, 0.2, 0.3, 0.4]);
        let q = p.mul_by_monomial(3).mul_by_monomial(-3);
        assert_eq!(q, p);
    }

    #[test]
    fn add_rotate_minus_one_matches_direct_formula() {
        let acc = tp(&[0.05, 0.1, 0.15, 0.2]);
        let other = tp(&[0.01, 0.02, 0.03, 0.04]);
        let mut lhs = acc.clone();
        lhs.add_rotate_minus_one(&other, 3);
        let rhs = acc + &other.mul_by_monomial(3) - &other;
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn naive_mul_int_matches_monomial() {
        // Multiplying by the monomial polynomial X^2 must agree with rotation.
        let p = tp(&[0.1, 0.2, 0.3, 0.4]);
        let mut m = IntPolynomial::zero(4);
        m.coeffs_mut()[2] = 1;
        assert_eq!(p.naive_mul_int(&m), p.mul_by_monomial(2));
    }

    #[test]
    fn naive_mul_int_is_distributive() {
        let p = tp(&[0.1, 0.2, 0.3, 0.4]);
        let a = IntPolynomial::from_coeffs(vec![1, -2, 0, 3]);
        let b = IntPolynomial::from_coeffs(vec![0, 5, -1, 2]);
        let sum = IntPolynomial::from_coeffs(vec![1, 3, -1, 5]);
        let lhs = p.naive_mul_int(&sum);
        let rhs = p.naive_mul_int(&a) + &p.naive_mul_int(&b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn int_poly_norms() {
        let a = IntPolynomial::from_coeffs(vec![1, -7, 0, 3]);
        assert_eq!(a.norm_inf(), 7);
        assert_eq!(IntPolynomial::zero(4).norm_inf(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = TorusPolynomial::zero(3);
    }

    // The length checks below are real asserts: in a release build a
    // mismatched ring degree must not add, subtract or compare a prefix.

    #[test]
    #[should_panic(expected = "ring degree mismatch")]
    fn add_assign_rejects_another_ring_degree() {
        let mut p = TorusPolynomial::zero(8);
        p += &TorusPolynomial::zero(4);
    }

    #[test]
    #[should_panic(expected = "ring degree mismatch")]
    fn sub_assign_rejects_another_ring_degree() {
        let mut p = TorusPolynomial::zero(4);
        p -= &TorusPolynomial::zero(8);
    }

    #[test]
    #[should_panic(expected = "ring degree mismatch")]
    fn max_distance_rejects_another_ring_degree() {
        let _ = TorusPolynomial::zero(8).max_distance(&TorusPolynomial::zero(4));
    }
}
