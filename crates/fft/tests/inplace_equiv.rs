//! Property tests: the `*_into` (scratch) variants must be **bit-identical**
//! to the allocating APIs for both engines — same folds, same butterfly
//! order, same rounding. Any divergence is an ordering bug, not a tolerance
//! question, so everything here compares exact representations.

use matcha_fft::ref_fft::{dft_in_place, Direction};
use matcha_fft::simd::{self, FoldDigit};
use matcha_fft::{
    key_exponent, twist, ApproxIntFft, CplxSpectrum, F64Fft, FftEngine, KeyBlock, SplitFactors,
    TwiddleTables,
};
use matcha_math::{GadgetDecomposer, IntPolynomial, Torus32, TorusPolynomial};
use proptest::prelude::*;

mod common;
use common::{stored_block, word};

const N: usize = 64;

fn torus_poly() -> impl Strategy<Value = TorusPolynomial> {
    proptest::collection::vec(any::<u32>().prop_map(Torus32::from_raw), N)
        .prop_map(TorusPolynomial::from_coeffs)
}

fn digit_poly() -> impl Strategy<Value = IntPolynomial> {
    proptest::collection::vec(-512i32..512, N).prop_map(IntPolynomial::from_coeffs)
}

/// Exercises one engine's full in-place surface against the allocating
/// one, comparing through `backward_torus` (exact torus coefficients) and
/// asserting allocating/backward outputs coincide bit-for-bit.
fn check_engine<E: FftEngine>(engine: &E, p: &TorusPolynomial, q: &IntPolynomial) {
    let mut scratch = engine.make_scratch();

    // forward_int
    let alloc_fq = engine.forward_int(q);
    let mut into_fq = engine.zero_spectrum();
    engine.forward_int_into(q, &mut into_fq, &mut scratch);

    // forward_torus
    let alloc_fp = engine.forward_torus(p);
    let mut into_fp = engine.zero_spectrum();
    engine.forward_torus_into(p, &mut into_fp, &mut scratch);

    // accumulate identically on both sides
    let mut alloc_acc = engine.zero_spectrum();
    engine.mul_accumulate(&mut alloc_acc, &alloc_fp, &alloc_fq);
    let mut into_acc = engine.zero_spectrum();
    engine.clear_spectrum(&mut into_acc);
    engine.mul_accumulate(&mut into_acc, &into_fp, &into_fq);

    // backward: allocating vs into
    let alloc_out = engine.backward_torus(&alloc_acc);
    let mut into_out = TorusPolynomial::zero(N);
    engine.backward_torus_into(&into_acc, &mut into_out, &mut scratch);
    prop_assert_eq!(&alloc_out, &into_out);

    // mul_accumulate_pair must equal two mul_accumulate calls exactly
    let mut pair_a = engine.zero_spectrum();
    let mut pair_b = engine.zero_spectrum();
    engine.mul_accumulate_pair(&mut pair_a, &mut pair_b, &into_fq, &into_fp, &into_fp);
    let mut seq_a = engine.zero_spectrum();
    let mut seq_b = engine.zero_spectrum();
    engine.mul_accumulate(&mut seq_a, &into_fq, &into_fp);
    engine.mul_accumulate(&mut seq_b, &into_fq, &into_fp);
    let mut back_pair = TorusPolynomial::zero(N);
    let mut back_seq = TorusPolynomial::zero(N);
    engine.backward_torus_into(&pair_a, &mut back_pair, &mut scratch);
    engine.backward_torus_into(&seq_a, &mut back_seq, &mut scratch);
    prop_assert_eq!(&back_pair, &back_seq);
    engine.backward_torus_into(&pair_b, &mut back_pair, &mut scratch);
    engine.backward_torus_into(&seq_b, &mut back_seq, &mut scratch);
    prop_assert_eq!(&back_pair, &back_seq);
}

/// The fused decompose→twist transform must be bit-identical, per level, to
/// materializing the digit polynomial and running `forward_int_into` on it.
/// Compared through exact backward transforms so engine-specific spectrum
/// types need no `PartialEq`.
fn check_fused_decompose<E: FftEngine>(engine: &E, p: &TorusPolynomial) {
    let decomp = GadgetDecomposer::new(8, 3);
    let mut scratch = engine.make_scratch();
    let mut digits: Vec<IntPolynomial> = (0..decomp.levels())
        .map(|_| IntPolynomial::zero(N))
        .collect();
    decomp.decompose_poly_into(p, &mut digits);
    for (level, digit_poly) in digits.iter().enumerate() {
        let mut fused = engine.zero_spectrum();
        engine.forward_decomposed_into(p, &decomp, level, &mut fused, &mut scratch);
        let mut unfused = engine.zero_spectrum();
        engine.forward_int_into(digit_poly, &mut unfused, &mut scratch);
        let mut back_fused = TorusPolynomial::zero(N);
        let mut back_unfused = TorusPolynomial::zero(N);
        engine.backward_torus_into(&fused, &mut back_fused, &mut scratch);
        engine.backward_torus_into(&unfused, &mut back_unfused, &mut scratch);
        prop_assert_eq!(&back_fused, &back_unfused, "level {}", level);
    }
}

/// Exponents for a bundle of `terms` patterns: spread over `[-N, 2N)`, with
/// a zero (an all-zero factor table) among them.
fn bundle_exponents(terms: usize, e: i64) -> Vec<i64> {
    (0..terms as i64)
        .map(|p| if p == 1 { 0 } else { e + 37 * p })
        .collect()
}

/// The single-pass bundle row of the double-precision engine over a
/// stored key against its definition written out: `H` copied, then per
/// term and point the four fused multiply-adds of a complex
/// multiply-accumulate, factor table (the key's `2^exp` folded in) times
/// stored word. Term counts cover the empty bundle and `m = 1, 2, 3`; the
/// terms sit in every other slot of a block that holds twice as many.
fn check_bundle_row_f64(h: &TorusPolynomial, src: &TorusPolynomial, e: i64) {
    let engine = F64Fft::new(N);
    let m = N / 2;
    let exp = key_exponent(N);
    let fh = engine.forward_torus(h);
    let keys: Vec<CplxSpectrum> = (0..14)
        .map(|p| engine.forward_torus(&src.mul_by_monomial(p)))
        .collect();
    let block = stored_block(&engine, &keys, exp);
    let key = KeyBlock {
        stream: &block,
        patterns: keys.len(),
        exp,
    };
    // A dirty, wrongly sized factor buffer and output must not leak through.
    let mut factors = SplitFactors {
        re: vec![7.0; 5],
        im: vec![7.0; 3],
        exp: 31,
    };
    let mut row = engine.forward_torus(src);
    for terms in [0usize, 1, 3, 7] {
        let exponents = bundle_exponents(terms, e);
        let slots: Vec<u8> = (0..terms as u8).map(|p| 2 * p + 1).collect();
        engine.monomial_factors_into(exponents.iter().copied(), exp, &mut factors);
        prop_assert_eq!(factors.re.len(), terms * m);
        engine.bundle_row_into(&fh, key, &slots, &factors, &mut row);

        let mut expected = fh.clone();
        for (p, (&slot, &e_p)) in slots.iter().zip(&exponents).enumerate() {
            // One table alone equals its slice of the concatenation, and
            // is the unit-scale table times the key's power of two.
            let mut single = SplitFactors::default();
            engine.monomial_factors_into([e_p].into_iter(), exp, &mut single);
            prop_assert_eq!(&single.re[..], &factors.re[p * m..(p + 1) * m]);
            prop_assert_eq!(&single.im[..], &factors.im[p * m..(p + 1) * m]);
            let mut unscaled = SplitFactors::default();
            engine.monomial_factors_into([e_p].into_iter(), 0, &mut unscaled);
            for k in 0..m {
                let (fr, fi) = (single.re[k], single.im[k]);
                prop_assert_eq!(fr, unscaled.re[k] * f64::from(exp).exp2());
                prop_assert_eq!(fi, unscaled.im[k] * f64::from(exp).exp2());
                let [sr, si] = word(key, m, slot as usize, k).map(f64::from);
                expected.re[k] = (-fi).mul_add(si, fr.mul_add(sr, expected.re[k]));
                expected.im[k] = fi.mul_add(sr, fr.mul_add(si, expected.im[k]));
            }
        }
        prop_assert_eq!(&row, &expected, "terms = {}", terms);
    }
}

/// The integer engine's bundle row over a stored key against its steps
/// written out with their rounding shifts: drop `BUNDLE_DROP_BITS` of `H`
/// (round half up), then per term add the product of 32-bit mantissa and
/// factor rounded back by `MONO_FRAC_BITS + BUNDLE_DROP_BITS` less the
/// mantissas' exponent in `H`'s words.
fn check_bundle_row_approx(h: &TorusPolynomial, src: &TorusPolynomial, e: i64) {
    use matcha_fft::approx::{BUNDLE_DROP_BITS, MONO_FRAC_BITS};
    let engine = ApproxIntFft::new(N, 50);
    let m = N / 2;
    let exp = key_exponent(N);
    let fh = engine.forward_torus(h);
    let keys: Vec<_> = (0..14)
        .map(|p| engine.forward_torus(&src.mul_by_monomial(p)))
        .collect();
    let block = stored_block(&engine, &keys, exp);
    let key = KeyBlock {
        stream: &block,
        patterns: keys.len(),
        exp,
    };
    let mut factors = vec![[1, 1]; 5];
    let mut row = engine.forward_torus(src);
    for terms in [0usize, 1, 3, 7] {
        let exponents = bundle_exponents(terms, e);
        let slots: Vec<u8> = (0..terms as u8).map(|p| 2 * p + 1).collect();
        engine.monomial_factors_into(exponents.iter().copied(), exp, &mut factors);
        prop_assert_eq!(factors.len(), terms * m);
        engine.bundle_row_into(&fh, key, &slots, &factors, &mut row);

        let half = 1i64 << (BUNDLE_DROP_BITS - 1);
        let shift = MONO_FRAC_BITS + BUNDLE_DROP_BITS - exp - fh.frac_bits;
        let round = 1i128 << (shift - 1);
        let mut re: Vec<i64> = fh
            .re
            .iter()
            .map(|&v| (v + half) >> BUNDLE_DROP_BITS)
            .collect();
        let mut im: Vec<i64> = fh
            .im
            .iter()
            .map(|&v| (v + half) >> BUNDLE_DROP_BITS)
            .collect();
        for (p, &slot) in slots.iter().enumerate() {
            for k in 0..m {
                let [fr, fi] = factors[p * m + k].map(i128::from);
                let [sr, si] = word(key, m, slot as usize, k).map(i128::from);
                re[k] += ((sr * fr - si * fi + round) >> shift) as i64;
                im[k] += ((sr * fi + si * fr + round) >> shift) as i64;
            }
        }
        prop_assert_eq!(&row.re, &re, "terms = {}", terms);
        prop_assert_eq!(&row.im, &im, "terms = {}", terms);
        prop_assert_eq!(row.frac_bits, fh.frac_bits - BUNDLE_DROP_BITS);
    }
}

/// The natural-order fold of `words` into `out`: [`simd::fold_twist`] with
/// no reversal and no stages.
fn fold_natural(words: &[u32], digit: FoldDigit, tables: &TwiddleTables, out: &mut CplxSpectrum) {
    let m = tables.size();
    out.re.resize(m, 0.0);
    out.im.resize(m, 0.0);
    let (twre, twim) = tables.twist_split();
    let (lo, hi) = words.split_at(m);
    simd::fold_twist(lo, hi, digit, twre, twim, None, &mut out.re, &mut out.im);
}

/// The engine's forward transforms — fold to bit-reversed slots with the
/// narrow stages on the way, wide stages two to a pass — against the
/// pass-by-pass flow, one pass per step: natural-order fold, then
/// `dft_in_place` (a permutation pass, then the stage loop from `len = 2`).
/// Bit-identical on whatever leg is active.
fn check_f64_forward_flow(p: &TorusPolynomial, q: &IntPolynomial) {
    let engine = F64Fft::new(N);
    let tables = engine.tables();
    let decomp = GadgetDecomposer::new(8, 3);
    let mut scratch = engine.make_scratch();
    let mut got = engine.zero_spectrum();
    let mut want = CplxSpectrum::default();
    let forward = |s: &mut CplxSpectrum| {
        dft_in_place(&mut s.re, &mut s.im, tables, Direction::Forward);
    };

    let (torus, int) = (simd::torus_words(p.coeffs()), simd::int_words(q.coeffs()));
    engine.forward_torus_into(p, &mut got, &mut scratch);
    fold_natural(torus, FoldDigit::WHOLE, tables, &mut want);
    forward(&mut want);
    prop_assert_eq!(&got, &want);

    engine.forward_int_into(q, &mut got, &mut scratch);
    fold_natural(int, FoldDigit::WHOLE, tables, &mut want);
    forward(&mut want);
    prop_assert_eq!(&got, &want);

    for level in 0..decomp.levels() {
        engine.forward_decomposed_into(p, &decomp, level, &mut got, &mut scratch);
        fold_natural(torus, FoldDigit::level(&decomp, level), tables, &mut want);
        forward(&mut want);
        prop_assert_eq!(&got, &want, "level {}", level);
    }

    // Backward: the working copy through the table and the paired stages
    // against the same plain DFT and the unfold.
    let mut out = TorusPolynomial::zero(N);
    engine.backward_torus_into(&got, &mut out, &mut scratch);
    let mut work = got.clone();
    dft_in_place(&mut work.re, &mut work.im, tables, Direction::Inverse);
    let plain = twist::unfold_torus(&work.re, &work.im, 2.0 / N as f64, tables);
    prop_assert_eq!(&out, &plain);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f64_transforms_match_the_pass_by_pass_flow(p in torus_poly(), q in digit_poly()) {
        check_f64_forward_flow(&p, &q);
    }

    #[test]
    fn f64_into_matches_allocating(p in torus_poly(), q in digit_poly()) {
        check_engine(&F64Fft::new(N), &p, &q);
    }

    #[test]
    fn approx_into_matches_allocating(p in torus_poly(), q in digit_poly()) {
        check_engine(&ApproxIntFft::new(N, 50), &p, &q);
    }

    #[test]
    fn f64_fused_decompose_matches(p in torus_poly()) {
        check_fused_decompose(&F64Fft::new(N), &p);
    }

    #[test]
    fn approx_fused_decompose_matches(p in torus_poly()) {
        check_fused_decompose(&ApproxIntFft::new(N, 50), &p);
    }

    #[test]
    fn f64_bundle_path_matches(base in torus_poly(), src in torus_poly(), e in -128i64..256) {
        check_bundle_row_f64(&base, &src, e);
    }

    #[test]
    fn approx_bundle_path_matches(base in torus_poly(), src in torus_poly(), e in -128i64..256) {
        check_bundle_row_approx(&base, &src, e);
    }

    #[test]
    fn scratch_reuse_is_stable(p in torus_poly(), q in digit_poly()) {
        // The same scratch carried across many transforms must never
        // contaminate results: run the whole check twice with one scratch.
        let engine = F64Fft::new(N);
        let mut scratch = engine.make_scratch();
        let mut out1 = engine.zero_spectrum();
        let mut out2 = engine.zero_spectrum();
        for _ in 0..2 {
            engine.forward_int_into(&q, &mut out1, &mut scratch);
            engine.forward_torus_into(&p, &mut out2, &mut scratch);
        }
        prop_assert_eq!(&out1, &engine.forward_int(&q));
        prop_assert_eq!(&out2, &engine.forward_torus(&p));
    }

    #[test]
    fn decompose_poly_into_matches(p in torus_poly()) {
        let d = GadgetDecomposer::new(8, 3);
        let alloc = d.decompose_poly(&p);
        let mut into: Vec<IntPolynomial> =
            (0..3).map(|_| IntPolynomial::zero(N)).collect();
        d.decompose_poly_into(&p, &mut into);
        prop_assert_eq!(alloc, into);
    }
}
