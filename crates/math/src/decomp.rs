//! Gadget (signed digit) decomposition.
//!
//! The TGSW external product decomposes every torus coefficient of a TLWE
//! sample into `ℓ` signed digits in base `Bg` (paper §5 uses `Bg = 1024`,
//! `ℓ = 3`). Digits are centered in `[-Bg/2, Bg/2)` so that the noise they
//! inject into the product is balanced around zero. The decomposition is
//! approximate: reconstruction matches the input to within
//! `1/(2·Bg^ℓ)` in torus units.

use crate::poly::{IntPolynomial, TorusPolynomial};
use crate::torus::Torus32;

/// Decomposes torus elements into `ℓ` balanced base-`Bg` digits.
///
/// # Examples
///
/// ```
/// use matcha_math::{GadgetDecomposer, Torus32};
///
/// let decomp = GadgetDecomposer::new(10, 3); // Bg = 1024, ℓ = 3
/// let x = Torus32::from_f64(0.317);
/// let digits = decomp.decompose(x);
/// let rebuilt = decomp.recompose(&digits);
/// assert!(x.signed_diff(rebuilt).abs() <= decomp.precision());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GadgetDecomposer {
    bg_bits: u32,
    levels: usize,
    offset: u32,
}

impl GadgetDecomposer {
    /// Creates a decomposer with base `Bg = 2^bg_bits` and `levels = ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the digits would not fit in 32 bits
    /// (`bg_bits * levels > 32` or `bg_bits ≥ 32`), or if either parameter
    /// is zero.
    pub fn new(bg_bits: u32, levels: usize) -> Self {
        assert!(
            bg_bits > 0 && levels > 0,
            "decomposition parameters must be nonzero"
        );
        // bg_bits = 32 would overflow `1 << bg_bits` in base() even with a
        // single level, so the base itself must fit too.
        assert!(
            bg_bits < 32 && bg_bits as usize * levels <= 32,
            "bg_bits {bg_bits} × levels {levels} exceeds the 32-bit torus"
        );
        // Each level contributes Bg/2 at its own digit position so the
        // extracted fields can be re-centered into [-Bg/2, Bg/2); the final
        // half-ulp bump turns the truncation of sub-precision bits into
        // round-to-nearest.
        let mut offset: u32 = 0;
        for level in 1..=levels as u32 {
            offset = offset.wrapping_add(1u32 << (31 - (level - 1) * bg_bits));
        }
        if (bg_bits as usize * levels) < 32 {
            offset = offset.wrapping_add(1u32 << (31 - levels as u32 * bg_bits));
        }
        Self {
            bg_bits,
            levels,
            offset,
        }
    }

    /// The decomposition base `Bg`.
    #[inline]
    pub fn base(&self) -> u32 {
        1 << self.bg_bits
    }

    /// `log2(Bg)`.
    #[inline]
    pub fn bg_bits(&self) -> u32 {
        self.bg_bits
    }

    /// The number of digit levels `ℓ`.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Worst-case reconstruction error in torus units: `1/(2·Bg^ℓ)`.
    #[inline]
    pub fn precision(&self) -> f64 {
        0.5 / (self.base() as f64).powi(self.levels as i32)
    }

    /// The gadget element `h_j = 1/Bg^(j+1)` for level `j ∈ [0, ℓ)`.
    ///
    /// Row `j` of a TGSW sample encrypts `μ · h_j`.
    #[inline]
    pub fn gadget(&self, level: usize) -> Torus32 {
        debug_assert!(level < self.levels);
        Torus32::from_raw(1u32 << (32 - (level as u32 + 1) * self.bg_bits))
    }

    /// The offset-shifted representative from which every digit of `x` is
    /// extracted: `x + Σ_j Bg/2·h_j` plus the rounding half-ulp. Feed the
    /// result to [`GadgetDecomposer::digit`] once per level.
    ///
    /// This is the per-coefficient entry point the fused decompose→twist
    /// FFT fold uses: callers that consume one digit level at a time can
    /// extract it on the fly instead of materializing digit polynomials.
    #[inline]
    pub fn shift(&self, x: Torus32) -> u32 {
        x.raw().wrapping_add(self.offset)
    }

    /// Extracts the centered digit of level `level` (`0` = most
    /// significant) from a representative produced by
    /// [`GadgetDecomposer::shift`]. Bit-identical to the corresponding
    /// entry of [`GadgetDecomposer::decompose`].
    #[inline]
    pub fn digit(&self, shifted: u32, level: usize) -> i32 {
        debug_assert!(level < self.levels);
        let mask = self.base() - 1;
        let half = (self.base() / 2) as i32;
        let sh = 32 - (level as u32 + 1) * self.bg_bits;
        ((shifted >> sh) & mask) as i32 - half
    }

    /// Decomposes one torus element into `ℓ` centered digits,
    /// most significant first.
    pub fn decompose(&self, x: Torus32) -> Vec<i32> {
        let t = self.shift(x);
        (0..self.levels).map(|level| self.digit(t, level)).collect()
    }

    /// Recomposes digits into the closest representable torus element.
    pub fn recompose(&self, digits: &[i32]) -> Torus32 {
        debug_assert_eq!(digits.len(), self.levels);
        digits
            .iter()
            .enumerate()
            .map(|(j, &d)| self.gadget(j) * d)
            .sum()
    }

    /// Decomposes every coefficient of a torus polynomial, producing one
    /// integer polynomial per level (level 0 = most significant digits).
    pub fn decompose_poly(&self, p: &TorusPolynomial) -> Vec<IntPolynomial> {
        let n = p.len();
        let mut out: Vec<IntPolynomial> =
            (0..self.levels).map(|_| IntPolynomial::zero(n)).collect();
        self.decompose_poly_into(p, &mut out);
        out
    }

    /// Decomposes every coefficient of a torus polynomial into caller-owned
    /// digit polynomials — the zero-allocation form used by the external
    /// product hot loop. `out[level]` receives the digits of that level
    /// (level 0 = most significant).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.levels()` or any output polynomial's
    /// length differs from `p.len()`.
    pub fn decompose_poly_into(&self, p: &TorusPolynomial, out: &mut [IntPolynomial]) {
        assert_eq!(out.len(), self.levels, "one output polynomial per level");
        for poly in out.iter_mut() {
            assert_eq!(poly.len(), p.len(), "digit polynomial length mismatch");
        }
        for (i, &c) in p.coeffs().iter().enumerate() {
            let t = self.shift(c);
            for (level, poly) in out.iter_mut().enumerate() {
                poly.coeffs_mut()[i] = self.digit(t, level);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_are_centered() {
        let d = GadgetDecomposer::new(10, 3);
        let half = (d.base() / 2) as i32;
        for i in 0..2000u32 {
            let x = Torus32::from_raw(i.wrapping_mul(0x9e37_79b9));
            for digit in d.decompose(x) {
                assert!(digit >= -half && digit < half, "digit {digit} out of range");
            }
        }
    }

    #[test]
    fn recompose_within_precision() {
        let d = GadgetDecomposer::new(10, 3);
        for i in 0..2000u32 {
            let x = Torus32::from_raw(i.wrapping_mul(0x85eb_ca6b).wrapping_add(17));
            let back = d.recompose(&d.decompose(x));
            assert!(
                x.signed_diff(back).abs() <= d.precision() + 1e-12,
                "error {} exceeds precision {}",
                x.signed_diff(back).abs(),
                d.precision()
            );
        }
    }

    #[test]
    fn exact_for_representable_values() {
        // Values that are exact multiples of the finest gadget element
        // decompose with zero error.
        let d = GadgetDecomposer::new(10, 2);
        let fine = d.gadget(1); // 1/Bg^2 = 2^-20
        for k in [-5i32, -1, 0, 1, 7, 100] {
            let x = fine * k;
            assert_eq!(d.recompose(&d.decompose(x)), x);
        }
    }

    #[test]
    fn gadget_elements_are_powers_of_base() {
        let d = GadgetDecomposer::new(10, 3);
        assert_eq!(d.gadget(0).raw(), 1 << 22);
        assert_eq!(d.gadget(1).raw(), 1 << 12);
        assert_eq!(d.gadget(2).raw(), 1 << 2);
    }

    #[test]
    fn poly_decomposition_matches_scalar() {
        let d = GadgetDecomposer::new(8, 4);
        let p = TorusPolynomial::from_coeffs(
            (0..8).map(|i| Torus32::from_raw(i * 0x1357_9bdf)).collect(),
        );
        let polys = d.decompose_poly(&p);
        assert_eq!(polys.len(), 4);
        for (i, &c) in p.coeffs().iter().enumerate() {
            let scalar = d.decompose(c);
            for (level, poly) in polys.iter().enumerate() {
                assert_eq!(poly.coeffs()[i], scalar[level]);
            }
        }
    }

    #[test]
    fn per_coefficient_digit_matches_decompose() {
        let d = GadgetDecomposer::new(10, 3);
        for i in 0..500u32 {
            let x = Torus32::from_raw(i.wrapping_mul(0x9e37_79b9).wrapping_add(3));
            let t = d.shift(x);
            let full = d.decompose(x);
            for (level, &digit) in full.iter().enumerate() {
                assert_eq!(d.digit(t, level), digit, "level {level}");
            }
        }
    }

    #[test]
    fn key_switch_digits_exhaustive() {
        // The key switch's (γ, t) = (2, 8): a coefficient's digits depend
        // only on its 16-bit rounded prefix, so the lowest, middle and
        // highest value rounding to each of the 2^16 prefixes covers every
        // case. Digits lie in [−2, 1] — magnitudes 1 and 2 are all a
        // key-switching key stores — and recompose to the prefix exactly,
        // within 2^-17 of the value.
        let d = GadgetDecomposer::new(2, 8);
        assert_eq!(d.precision(), 2f64.powi(-17));
        for prefix in 0..1u32 << 16 {
            let center = prefix << 16;
            for raw in [center.wrapping_sub(1 << 15), center, center + (1 << 15) - 1] {
                let x = Torus32::from_raw(raw);
                let digits = d.decompose(x);
                assert!(
                    digits.iter().all(|digit| (-2..=1).contains(digit)),
                    "{raw:#x}: {digits:?}"
                );
                let back = d.recompose(&digits);
                assert_eq!(back.raw(), center, "{raw:#x}");
                assert!(x.signed_diff(back).abs() <= d.precision(), "{raw:#x}");
            }
        }
    }

    #[test]
    fn precision_formula() {
        let d = GadgetDecomposer::new(10, 2);
        assert!((d.precision() - 0.5 / 1024.0f64.powi(2)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit torus")]
    fn oversized_parameters_rejected() {
        let _ = GadgetDecomposer::new(10, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit torus")]
    fn full_width_base_rejected() {
        // 32 × 1 passes the product bound but `1 << 32` overflows base().
        let _ = GadgetDecomposer::new(32, 1);
    }
}
