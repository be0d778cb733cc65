//! Folding between real negacyclic polynomials and the Lagrange
//! half-complex representation.
//!
//! A degree-`N` real polynomial `P` modulo `X^N + 1` is determined by its
//! evaluations at any set of `N/2` pairwise non-conjugate roots of
//! `X^N + 1`. We use the roots `ε_k = e^{iπ(4k+1)/N}`, `k ∈ [0, N/2)`, which
//! satisfy `ε_k^{N/2} = i`: writing `c_j = p_j + i·p_{j+N/2}`,
//!
//! ```text
//! P(ε_k) = Σ_{j<N/2} c_j ε_k^j = Σ_{j<N/2} (c_j · e^{iπj/N}) e^{2πijk/(N/2)}
//! ```
//!
//! i.e. a *twist* by `e^{iπj/N}` followed by an ordinary size-`N/2` DFT with
//! positive kernel sign. The inverse applies the conjugate DFT, scales by
//! `2/N`, and untwists. Negacyclic products become pointwise products of
//! these evaluations, which is precisely how TFHE performs the polynomial
//! multiplications inside external products.
//!
//! All folds produce *split-complex* buffers (separate `re[]`/`im[]`
//! slices) in one pass, [`crate::simd::fold_twist`]: load, convert (or
//! extract a gadget digit), multiply by the twist, and store every point
//! straight to its bit-reversed slot of the plan's
//! [`crate::tables::BitReversal`]. The breadth-first butterflies then start
//! without a permutation pass, and at `simd::FIRST_WIDE_STAGE`: the fold
//! runs the two narrow stages (`len = 2` and `4`, which combine four
//! neighbouring slots) on the way. The unfold is one fused pass too,
//! [`crate::simd::untwist_to_torus`]. Both take the kernel leg they run
//! on, the last argument.

use crate::simd::{self, FoldDigit, Leg, Reversed};
use crate::tables::TwiddleTables;
use matcha_math::{Torus32, TorusPolynomial};

/// Folds coefficient words `c` ([`simd::int_words`] or
/// [`simd::torus_words`] of a polynomial) into the twisted split-complex
/// buffer the forward stage loop starts from: bit-reversed, the two narrow
/// stages done. `digit` says what to make of each word: all of it
/// ([`FoldDigit::WHOLE`]), or one gadget digit ([`FoldDigit::level`]) —
/// the fused decompose→twist input stage, which extracts each centered
/// digit as its coefficient is loaded, never writes the digit polynomial
/// to memory, and is bit-identical to
/// [`matcha_math::GadgetDecomposer::decompose_poly_into`] followed by a
/// whole-word fold of the digits.
///
/// # Panics
///
/// Panics if `c.len() != 2 * tables.size()`.
pub fn fold(
    c: &[u32],
    digit: FoldDigit,
    tables: &TwiddleTables,
    re: &mut Vec<f64>,
    im: &mut Vec<f64>,
    leg: Leg,
) {
    let m = tables.size();
    assert_eq!(c.len(), 2 * m, "polynomial length mismatch");
    // Every slot is written: the resize only ever fills a buffer's first
    // use.
    re.resize(m, 0.0);
    im.resize(m, 0.0);
    let (lo, hi) = c.split_at(m);
    let (twre, twim) = tables.twist_split();
    let reversed = Reversed {
        order: tables.bit_reversal(),
        stages: tables.forward_stages(),
    };
    simd::fold_twist(lo, hi, digit, twre, twim, Some(reversed), re, im, leg);
}

/// Unfolds an inverse-transformed split buffer back into torus
/// coefficients, into a caller-owned polynomial: normalizes by `inv_len`
/// (the `1/M` of an unnormalized inverse DFT, or `1.0`; a power of two),
/// untwists, and reduces each real coefficient modulo `2^32`. The
/// zero-allocation tail of every backward transform, a single pass
/// ([`simd::untwist_to_torus`]) that reads the buffer once and stores
/// torus coefficients.
///
/// # Panics
///
/// Panics if `re.len() != tables.size()`, `re.len() != im.len()`,
/// `out.len() != 2 * re.len()`, or `inv_len` is not a power of two.
pub fn unfold_torus_into(
    re: &[f64],
    im: &[f64],
    inv_len: f64,
    tables: &TwiddleTables,
    out: &mut TorusPolynomial,
    leg: Leg,
) {
    let m = tables.size();
    assert_eq!(re.len(), m, "buffer length mismatch");
    assert_eq!(im.len(), m, "buffer length mismatch");
    assert_eq!(out.len(), 2 * m, "output polynomial length mismatch");
    let (twre, twim) = tables.twist_split();
    let (lo, hi) = out.coeffs_mut().split_at_mut(m);
    simd::untwist_to_torus(re, im, twre, twim, inv_len, lo, hi, leg);
}

/// Reduces a real value modulo `2^32` onto the torus: the centred residue
/// `x − 2^32·round(x / 2^32)`, rounded to the nearest integer with ties of
/// *the residue* away from zero (see `simd::reduce_turns`, which this
/// wraps and which every backward transform applies per coefficient).
///
/// Exact for `|x| < 2^62`. Values after a pointwise-product round trip
/// reach `≈ 2^58`; double precision then carries ≈ 2⁻²⁶ torus units of
/// rounding error, which is the accuracy floor of the reference engine
/// (the "double" line in Figure 8).
#[inline]
pub fn f64_to_torus_mod(x: f64) -> Torus32 {
    const TO_TURNS: f64 = 1.0 / 4294967296.0; // 2^-32
    Torus32::from_raw(simd::reduce_turns(x * TO_TURNS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx::Cplx;
    use matcha_math::{GadgetDecomposer, IntPolynomial};

    #[test]
    fn f64_mod_small_values() {
        assert_eq!(f64_to_torus_mod(0.0), Torus32::ZERO);
        assert_eq!(f64_to_torus_mod(1.0), Torus32::from_raw(1));
        assert_eq!(f64_to_torus_mod(-1.0), Torus32::from_raw(u32::MAX));
    }

    #[test]
    fn f64_mod_wraps() {
        let two32 = 4294967296.0;
        assert_eq!(f64_to_torus_mod(two32), Torus32::ZERO);
        assert_eq!(f64_to_torus_mod(two32 + 5.0), Torus32::from_raw(5));
        assert_eq!(
            f64_to_torus_mod(-two32 - 5.0),
            Torus32::from_raw(5u32.wrapping_neg())
        );
    }

    /// The fold in natural order with no stages run: what
    /// [`unfold_torus_into`] inverts when no transform comes between.
    fn fold_natural(c: &[u32], tables: &TwiddleTables) -> (Vec<f64>, Vec<f64>) {
        let m = tables.size();
        let (mut re, mut im) = (vec![0.0; m], vec![0.0; m]);
        let (twre, twim) = tables.twist_split();
        let (lo, hi) = c.split_at(m);
        let (digit, leg) = (FoldDigit::WHOLE, Leg::host());
        simd::fold_twist(lo, hi, digit, twre, twim, None, &mut re, &mut im, leg);
        (re, im)
    }

    #[test]
    fn fold_unfold_identity() {
        let tables = TwiddleTables::new(8);
        let p = TorusPolynomial::from_coeffs(
            (0..8)
                .map(|i| Torus32::from_raw(i as u32 * 0x0100_0000))
                .collect(),
        );
        let (re, im) = fold_natural(simd::torus_words(p.coeffs()), &tables);
        let mut q = TorusPolynomial::zero(8);
        unfold_torus_into(&re, &im, 1.0, &tables, &mut q, Leg::host());
        assert_eq!(p, q);
    }

    #[test]
    fn fold_torus_digit_matches_materialized_digits() {
        // Below and above the size where the vector leg stores whole blocks,
        // with a decomposition that uses all 32 bits (its last level shifts
        // by zero) and one that leaves some.
        for (n, bg_bits, levels) in [(8usize, 8, 3), (64, 8, 4), (128, 10, 3)] {
            let tables = TwiddleTables::new(n);
            let decomp = GadgetDecomposer::new(bg_bits, levels);
            let p = TorusPolynomial::from_coeffs(
                (0..n as u32)
                    .map(|i| Torus32::from_raw(i.wrapping_mul(0x9e37_79b9).wrapping_add(11)))
                    .collect(),
            );
            let digits = decomp.decompose_poly(&p);
            let (mut fre, mut fim) = (Vec::new(), Vec::new());
            let (mut ure, mut uim) = (Vec::new(), Vec::new());
            let words = simd::torus_words(p.coeffs());
            for leg in Leg::ALL {
                for (level, digit_poly) in digits.iter().enumerate() {
                    let digit = FoldDigit::level(&decomp, level);
                    fold(words, digit, &tables, &mut fre, &mut fim, leg);
                    let digit_words = simd::int_words(digit_poly.coeffs());
                    fold(
                        digit_words,
                        FoldDigit::WHOLE,
                        &tables,
                        &mut ure,
                        &mut uim,
                        leg,
                    );
                    assert_eq!(fre, ure, "n={n} level {level} {leg:?}");
                    assert_eq!(fim, uim, "n={n} level {level} {leg:?}");
                }
            }
        }
    }

    #[test]
    fn fold_int_uses_both_halves() {
        let tables = TwiddleTables::new(8);
        let mut p = IntPolynomial::zero(8);
        p.coeffs_mut()[0] = 3;
        p.coeffs_mut()[4] = 7;
        let (re, im) = fold_natural(simd::int_words(p.coeffs()), &tables);
        assert!((Cplx::new(re[0], im[0]) - Cplx::new(3.0, 7.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn unfold_rejects_short_buffer() {
        // The documented panic is a real assert, not a debug_assert: release
        // builds reject mis-sized buffers too.
        let tables = TwiddleTables::new(8);
        let mut out = TorusPolynomial::zero(8);
        unfold_torus_into(&[0.0; 3], &[0.0; 3], 1.0, &tables, &mut out, Leg::Scalar);
    }

    #[test]
    #[should_panic(expected = "polynomial length mismatch")]
    fn fold_rejects_wrong_length() {
        let tables = TwiddleTables::new(8);
        let p = TorusPolynomial::zero(16);
        let (mut re, mut im) = (Vec::new(), Vec::new());
        let words = simd::torus_words(p.coeffs());
        fold(
            words,
            FoldDigit::WHOLE,
            &tables,
            &mut re,
            &mut im,
            Leg::Scalar,
        );
    }
}
