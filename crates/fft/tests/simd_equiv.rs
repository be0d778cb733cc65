//! SIMD-vs-scalar equivalence for both engines.
//!
//! The kernel legs in `matcha_fft::simd` must agree:
//!
//! * **bit-identical** where the operation order is preserved — the integer
//!   engine *across* legs (its AVX2 lifts recombine 32-bit partial products
//!   into exactly the scalar leg's `i128` results, and both equal a
//!   reference written with `LiftingRotation::apply`), the bundle rows over
//!   a stored key *across* legs for both element types (32-bit mantissas
//!   against 32-bit factors in one multiply; fused multiply-adds on both
//!   f64 legs), the fused pair kernels against two single calls *within*
//!   one leg, and the reduction mod `2^32` at the end of the fused backward
//!   tail *across* legs (on identical untwisted values);
//! * **bounded-ulp** where the vector leg contracts `a·b ± c·d` into FMAs —
//!   the double-precision engine, compared here through exact
//!   backward-transformed torus coefficients with a tolerance far below
//!   TFHE's noise floor but far above any legitimate ulp drift.
//!
//! The transforms make no permutation pass: the folds store straight to
//! bit-reversed slots, the backward working copy reads through the plan's
//! table, both run the two narrow stages on the way, and the wide f64
//! stages run two to a pass. Each of those is compared here, **bit for
//! bit on either leg**, with the pass-by-pass flow — natural-order fold,
//! `bit_reverse_permute_pair`, one stage at a time — whose permutation
//! functions are written out below as the test's reference.
//!
//! The integer kernels have three legs — scalar, AVX2 and AVX-512 — and
//! the tests that cover them build one engine per leg (`with_leg`) or pass
//! each leg to the kernel, so they run side by side with no shared state.
//! A leg the CPU lacks narrows to the widest one it has, so on CPUs
//! without AVX-512F the AVX-512 runs repeat the AVX2 leg and on CPUs
//! without AVX2+FMA every comparison holds trivially.

use matcha_fft::approx::FixedSpectrum;
use matcha_fft::lifting::{LiftingRotation, LiftingTable};
use matcha_fft::simd::{FoldDigit, Reversed};
use matcha_fft::tables::BitReversal;
use matcha_fft::{
    key_exponent, simd, simd_detected, twist, ApproxIntFft, F64Fft, FftEngine, KeyBlock, Leg,
    TwiddleTables,
};
use matcha_math::{GadgetDecomposer, IntPolynomial, Torus32, TorusPolynomial};

mod common;
use common::{stored_block, word};

/// One integer engine per leg, in [`Leg::ALL`]'s order: scalar, AVX2,
/// AVX-512.
fn approx_on_each_leg(n: usize, twiddle_bits: u32) -> [ApproxIntFft; 3] {
    Leg::ALL.map(|leg| ApproxIntFft::with_leg(n, twiddle_bits, leg))
}

fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
    TorusPolynomial::from_coeffs(
        (0..n as u32)
            .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9).wrapping_add(seed)))
            .collect(),
    )
}

/// Coefficients as uniform as key material's (xorshift64*): what
/// `key_exponent` sizes the stored words for. [`random_torus_poly`]'s
/// coefficients are an arithmetic progression mod `2³²` — a sawtooth, with
/// a spectral peak no uniform polynomial has.
fn uniform_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
    let mut state = 0x9e37_79b9_7f4a_7c15 ^ (u64::from(seed) << 17);
    TorusPolynomial::from_coeffs(
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                Torus32::from_raw((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32)
            })
            .collect(),
    )
}

/// Runs the full external-product-shaped pipeline on one engine, on its
/// kernel leg: fused decomposed forwards, pair accumulation, bundle scale,
/// backward. Returns the two backward-transformed polynomials.
fn pipeline<E: FftEngine>(engine: &E, seed: u32) -> (TorusPolynomial, TorusPolynomial) {
    let n = engine.ring_degree();
    let decomp = GadgetDecomposer::new(8, 3);
    let p = random_torus_poly(n, seed);
    let q = uniform_torus_poly(n, seed ^ 0xdead);
    let mut scratch = engine.make_scratch();

    let fq = {
        let mut s = engine.zero_spectrum();
        engine.forward_torus_into(&q, &mut s, &mut scratch);
        s
    };
    let mut acc_a = engine.zero_spectrum();
    let mut acc_b = engine.zero_spectrum();
    let mut fd = engine.zero_spectrum();
    for level in 0..decomp.levels() {
        engine.forward_decomposed_into(&p, &decomp, level, &mut fd, &mut scratch);
        engine.mul_accumulate([&mut acc_a, &mut acc_b], &fd, [&fq, &fq]);
    }
    // Bundle path: one row `fq + Σ (X^e − 1)·fq` over three patterns of a
    // stored key.
    let exp = key_exponent(n);
    let block = stored_block(engine, &[fq.clone(), fq.clone(), fq.clone()], exp);
    let key = KeyBlock {
        stream: &block,
        patterns: 3,
        exp,
    };
    let mut factors = E::MonomialFactors::default();
    engine.monomial_factors_into([7, n as i64 + 3, -5].into_iter(), exp, &mut factors);
    let mut bundle_b = engine.zero_spectrum();
    engine.bundle_row_into(&fq, key, &[0, 1, 2], &factors, &mut bundle_b);

    let mut out_a = TorusPolynomial::zero(n);
    let mut out_b = TorusPolynomial::zero(n);
    engine.backward_torus_into(&acc_a, &mut out_a, &mut scratch);
    engine.backward_torus_into(&bundle_b, &mut out_b, &mut scratch);
    (out_a, out_b)
}

/// Largest tolerated SIMD↔scalar divergence, in torus units. FMA
/// contraction drifts a few ulps of ~2^40-magnitude intermediates, which
/// lands around 2^-12 … 2^-20 torus *raw ticks*; 1e-6 (≈ 4300 ticks of
/// 2^-32) gives three orders of margin while still catching any real bug
/// (a wrong butterfly perturbs coefficients at the 1e-2 scale).
const TOL: f64 = 1e-6;

fn check_f64_engine(n: usize, seed: u32) {
    let scalar = F64Fft::with_leg(n, Leg::Scalar);
    assert_eq!(scalar.leg(), Leg::Scalar);
    let (scalar_a, scalar_b) = pipeline(&scalar, seed);
    let (simd_a, simd_b) = pipeline(&F64Fft::with_leg(n, Leg::Avx512), seed);
    let da = scalar_a.max_distance(&simd_a);
    let db = scalar_b.max_distance(&simd_b);
    assert!(da < TOL, "external-product pipeline diverged: {da}");
    assert!(db < TOL, "bundle pipeline diverged: {db}");
}

#[test]
fn f64_simd_matches_scalar() {
    check_f64_engine(1024, 11);
    check_f64_engine(64, 12);
}

/// The in-place bit-reversal permutation of the pass-by-pass flow: the
/// reversed index recomputed per element, a swap where it is larger.
fn bit_reverse_permute_pair<T, U>(a: &mut [T], b: &mut [U]) {
    let n = a.len();
    assert_eq!(n, b.len());
    let shift = (n.leading_zeros() + 1) % usize::BITS;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if j > i {
            a.swap(i, j);
            b.swap(i, j);
        }
    }
}

/// The out-of-place form of the same permutation, per element.
fn bit_reverse_copy_pair<T: Copy>(src_a: &[T], src_b: &[T], dst_a: &mut [T], dst_b: &mut [T]) {
    let n = src_a.len();
    let shift = (n.leading_zeros() + 1) % usize::BITS;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        dst_a[i] = src_a[j];
        dst_b[i] = src_b[j];
    }
}

/// The integer engine's transforms written with
/// [`LiftingRotation::apply`] — the `i128` definition, with
/// its `Identity`/`Negation`/`Lifting` cases — in plain stage loops. Both
/// kernel legs must reproduce it bit for bit.
mod approx_reference {
    use matcha_fft::LiftingRotation;
    use std::f64::consts::{PI, TAU};

    /// Radix-2 stages with rotations by `sign·2πk/len`, optionally halving
    /// every output (round half up).
    fn stages(re: &mut [i64], im: &mut [i64], sign: f64, bits: u32, halve: bool) {
        let m = re.len();
        super::bit_reverse_permute_pair(re, im);
        let scale = |v: i64| if halve { (v + 1) >> 1 } else { v };
        let mut len = 2;
        while len <= m {
            let half = len / 2;
            for start in (0..m).step_by(len) {
                for k in 0..half {
                    // The angle the engine's full-size table holds at
                    // index k·M/len.
                    let theta = sign * TAU * (k * (m / len)) as f64 / m as f64;
                    let rot = LiftingRotation::from_angle(theta, bits);
                    let (vr, vi) = rot.apply(re[start + half + k], im[start + half + k]);
                    let (ur, ui) = (re[start + k], im[start + k]);
                    re[start + k] = scale(ur + vr);
                    im[start + k] = scale(ui + vi);
                    re[start + half + k] = scale(ur - vr);
                    im[start + half + k] = scale(ui - vi);
                }
            }
            len *= 2;
        }
    }

    /// Forward transform of the pre-scaled values `v[0..n]`.
    pub fn forward(v: &[i64], bits: u32) -> (Vec<i64>, Vec<i64>) {
        let n = v.len();
        let m = n / 2;
        let (mut re, mut im) = (Vec::new(), Vec::new());
        for j in 0..m {
            let rot = LiftingRotation::from_angle(PI * j as f64 / n as f64, bits);
            let (x, y) = rot.apply(v[j], v[j + m]);
            re.push(x);
            im.push(y);
        }
        stages(&mut re, &mut im, 1.0, bits, false);
        (re, im)
    }

    /// Backward transform to raw torus coefficients.
    pub fn backward(re: &[i64], im: &[i64], frac_bits: u32, bits: u32) -> Vec<u32> {
        let m = re.len();
        let n = 2 * m;
        let (mut re, mut im) = (re.to_vec(), im.to_vec());
        stages(&mut re, &mut im, -1.0, bits, true);
        let descale = |v: i64| match frac_bits {
            0 => v,
            f => (v + (1 << (f - 1))) >> f,
        };
        let mut out = vec![0u32; n];
        for j in 0..m {
            let rot = LiftingRotation::from_angle(-PI * j as f64 / n as f64, bits);
            let (x, y) = rot.apply(re[j], im[j]);
            out[j] = descale(x) as u32;
            out[j + m] = descale(y) as u32;
        }
        out
    }
}

/// `outs[i]` came from `Leg::ALL[i]`: every vector leg's equals the scalar
/// leg's.
fn assert_same_on_each_leg<T: PartialEq + std::fmt::Debug>(outs: &[T; 3], ctx: &str) {
    for (leg, out) in Leg::ALL.iter().zip(outs).skip(1) {
        assert_eq!(out, &outs[0], "{leg:?} against scalar, {ctx}");
    }
}

#[test]
fn approx_simd_leg_is_bit_identical() {
    // 61 | 62 is the vector legs' range boundary (`simd::LiftSplit`): up to
    // 61 bits they run the lifts, at 62 every leg is the scalar loop. 4 is
    // the narrowest width the engine accepts. n = 8 (M = 4) is too short
    // for any eight-lane kernel; n = 64 and 1024 run them all.
    let decomp = GadgetDecomposer::new(10, 3);
    for n in [8usize, 64, 1024] {
        for bits in [4u32, 20, 38, 45, 50, 61, 62] {
            let engines = approx_on_each_leg(n, bits);
            let p = random_torus_poly(n, 41 + bits);
            let ctx = format!("n={n} bits={bits}");
            let mut scratch = engines[0].make_scratch();

            // forward_torus_into
            let forward = engines.each_ref().map(|engine| {
                let mut s = engine.zero_spectrum();
                engine.forward_torus_into(&p, &mut s, &mut scratch);
                s
            });
            let frac = forward[0].frac_bits;
            let values: Vec<i64> = p
                .coeffs()
                .iter()
                .map(|c| (c.raw() as i32 as i64) << frac)
                .collect();
            let (re, im) = approx_reference::forward(&values, bits);
            for (leg, s) in Leg::ALL.iter().zip(&forward) {
                assert_eq!(s.re, re, "forward_torus re, {leg:?}, {ctx}");
                assert_eq!(s.im, im, "forward_torus im, {leg:?}, {ctx}");
                assert_eq!(s.frac_bits, frac);
            }
            let spectrum = &forward[0];

            // forward_decomposed_into, every level, into a dirty spectrum
            for level in 0..decomp.levels() {
                let decomposed = engines.each_ref().map(|engine| {
                    let mut s = spectrum.clone();
                    engine.forward_decomposed_into(&p, &decomp, level, &mut s, &mut scratch);
                    s
                });
                let frac = decomposed[0].frac_bits;
                let digits: Vec<i64> = p
                    .coeffs()
                    .iter()
                    .map(|&c| (decomp.digit(decomp.shift(c), level) as i64) << frac)
                    .collect();
                let (re, im) = approx_reference::forward(&digits, bits);
                for (leg, s) in Leg::ALL.iter().zip(&decomposed) {
                    assert_eq!(
                        s.re, re,
                        "forward_decomposed re, level {level}, {leg:?}, {ctx}"
                    );
                    assert_eq!(
                        s.im, im,
                        "forward_decomposed im, level {level}, {leg:?}, {ctx}"
                    );
                }
            }

            // backward_torus_into, from a scaled spectrum (the descale
            // path) and from an unscaled one (what bootstrapping feeds it)
            let mut unscaled = spectrum.clone();
            unscaled.frac_bits = 0;
            for spectrum in [spectrum, &unscaled] {
                let backward = engines.each_ref().map(|engine| {
                    let mut out = random_torus_poly(n, 1);
                    engine.backward_torus_into(spectrum, &mut out, &mut scratch);
                    out
                });
                let expected = approx_reference::backward(
                    &spectrum.re,
                    &spectrum.im,
                    spectrum.frac_bits,
                    bits,
                );
                for (leg, out) in Leg::ALL.iter().zip(&backward) {
                    let raw: Vec<u32> = out.coeffs().iter().map(|c| c.raw()).collect();
                    assert_eq!(raw, expected, "backward_torus, {leg:?}, {ctx}");
                }
            }

            // and the whole external-product-shaped pipeline
            assert_same_on_each_leg(
                &engines.each_ref().map(|engine| pipeline(engine, 41)),
                &format!("pipeline, {ctx}"),
            );
        }
    }
}

/// One bundle row over a stored key written out in `i128`, the form both
/// legs must equal: `(h + 8) ≫ 4`, then per term the product of mantissa
/// and factor rounded back by `MONO_FRAC_BITS + BUNDLE_DROP_BITS` less the
/// mantissas' exponent in `h`'s words.
fn bundle_row_i128(
    h: &FixedSpectrum,
    key: KeyBlock<'_>,
    slots: &[u8],
    factors: &[[i32; 2]],
) -> (Vec<i64>, Vec<i64>) {
    use matcha_fft::approx::{BUNDLE_DROP_BITS, MONO_FRAC_BITS};
    let m = h.re.len();
    let half = 1i64 << (BUNDLE_DROP_BITS - 1);
    let shift = MONO_FRAC_BITS + BUNDLE_DROP_BITS - key.exp - h.frac_bits;
    let round = 1i128 << (shift - 1);
    let drop = |v: &i64| (v + half) >> BUNDLE_DROP_BITS;
    let mut re: Vec<i64> = h.re.iter().map(drop).collect();
    let mut im: Vec<i64> = h.im.iter().map(drop).collect();
    for (p, &slot) in slots.iter().enumerate() {
        for k in 0..m {
            let [fr, fi] = factors[p * m + k].map(i128::from);
            let [sr, si] = word(key, m, slot as usize, k).map(i128::from);
            re[k] += ((sr * fr - si * fi + round) >> shift) as i64;
            im[k] += ((sr * fi + si * fr + round) >> shift) as i64;
        }
    }
    (re, im)
}

/// The slot lists a bundle row is checked with, for a block of `patterns`
/// spectra: every pattern active, one in the middle skipped (a zeroed
/// pattern exponent: the factor tables close ranks), only the last, none
/// (an all-zero exponent vector: the row is `H`).
fn slot_lists(patterns: usize) -> Vec<Vec<u8>> {
    let all: Vec<u8> = (0..patterns as u8).collect();
    let mut skipped = all.clone();
    skipped.remove(patterns / 2);
    vec![all, skipped, vec![patterns as u8 - 1], vec![]]
}

/// Ring degrees of the bundle-row checks: below a chunk (`M < 8`), one
/// chunk, and up to twice the paper's.
const ROW_DEGREES: [usize; 9] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048];

#[test]
fn approx_bundle_row_matches_i128_on_both_legs() {
    // Blocks of 1 … 31 patterns (unroll factors up to 5), at the paper's
    // twiddle width and the widest the vector lifts reach; the key stream
    // once ends with its block (the lookahead has nowhere to go) and once
    // runs on. The output buffer arrives dirty and mis-sized.
    for (n, beta) in ROW_DEGREES.into_iter().zip([38, 61].into_iter().cycle()) {
        let m = n / 2;
        let engine = ApproxIntFft::new(n, beta);
        let engines = approx_on_each_leg(n, beta);
        let exp = key_exponent(n);
        let h = engine.forward_torus(&uniform_torus_poly(n, 61));
        for patterns in [1usize, 3, 7, 15, 31] {
            let keys: Vec<_> = (0..patterns as u32)
                .map(|p| engine.forward_torus(&uniform_torus_poly(n, 70 + p)))
                .collect();
            let mut block = stored_block(&engine, &keys, exp);
            for tail in [0, 5000] {
                block.resize(KeyBlock::words(m, patterns) + tail, 77);
                let key = KeyBlock {
                    stream: &block,
                    patterns,
                    exp,
                };
                for slots in slot_lists(patterns) {
                    let exponents = (0..slots.len() as i64).map(|p| 19 * p * p - 40 * p + 1);
                    let mut factors = vec![[7, -7]; 3];
                    engine.monomial_factors_into(exponents, exp, &mut factors);
                    let rows = engines.each_ref().map(|engine| {
                        let mut row = keys[0].clone();
                        row.re.truncate(n / 4);
                        engine.bundle_row_into(&h, key, &slots, &factors, &mut row);
                        row
                    });
                    let (re, im) = bundle_row_i128(&h, key, &slots, &factors);
                    for (leg, row) in Leg::ALL.iter().zip(&rows) {
                        let ctx =
                            format!("{leg:?}, n={n} β={beta} patterns={patterns} slots={slots:?}");
                        assert_eq!(row.re, re, "re, {ctx}");
                        assert_eq!(row.im, im, "im, {ctx}");
                        assert_eq!(row.frac_bits + 4, h.frac_bits);
                    }
                }
            }
        }
    }
}

#[test]
fn f64_bundle_row_is_bit_identical_across_legs() {
    // The same sweep for the double-precision row: the scalar leg is the
    // definition (fused multiply-adds in term order), the AVX2 leg must
    // land on the same bits.
    for n in ROW_DEGREES {
        let m = n / 2;
        let engine = F64Fft::new(n);
        let engines = Leg::ALL.map(|leg| F64Fft::with_leg(n, leg));
        let exp = key_exponent(n);
        let h = engine.forward_torus(&uniform_torus_poly(n, 61));
        for patterns in [1usize, 3, 7, 15, 31] {
            let keys: Vec<_> = (0..patterns as u32)
                .map(|p| engine.forward_torus(&uniform_torus_poly(n, 70 + p)))
                .collect();
            let mut block = stored_block(&engine, &keys, exp);
            for tail in [0, 5000] {
                block.resize(KeyBlock::words(m, patterns) + tail, 77);
                let key = KeyBlock {
                    stream: &block,
                    patterns,
                    exp,
                };
                for slots in slot_lists(patterns) {
                    let exponents = (0..slots.len() as i64).map(|p| 19 * p * p - 40 * p + 1);
                    let mut factors = Default::default();
                    engine.monomial_factors_into(exponents, exp, &mut factors);
                    let rows = engines.each_ref().map(|engine| {
                        let mut row = keys[0].clone();
                        row.re.truncate(n / 4);
                        engine.bundle_row_into(&h, key, &slots, &factors, &mut row);
                        (bits(&row.re), bits(&row.im))
                    });
                    assert_same_on_each_leg(
                        &rows,
                        &format!("n={n} patterns={patterns} slots={slots:?}"),
                    );
                    if slots.is_empty() {
                        assert_eq!(
                            rows[0],
                            (bits(&h.re), bits(&h.im)),
                            "an empty bundle row is H"
                        );
                    }
                }
            }
        }
    }
}

/// `bundle_product_into` against its definition on the same engine: each
/// of the `4ℓ` rows built with `bundle_row_into`, then one two-row
/// `mul_accumulate` per digit, mask levels first, from cleared
/// accumulators. `h` and the digits are spectra of uniform polynomials,
/// each block stores its own `patterns` keys, the stream runs on past the
/// last block once, and the accumulators arrive dirty. Blocks of 15
/// patterns or more are asked for every slot count from 0 to 15.
fn check_bundle_product<E: FftEngine>(engine: &E, patterns: usize, ctx: &str) {
    let n = engine.ring_degree();
    let m = n / 2;
    let exp = key_exponent(n);
    let decomp = GadgetDecomposer::new(10, 3);
    let levels = decomp.levels();
    let seed = |i: usize| 1000 + i as u32;
    let h: Vec<_> = (0..4 * levels)
        .map(|j| engine.forward_torus(&uniform_torus_poly(n, seed(j))))
        .collect();
    let mut stream = Vec::new();
    for j in 0..4 * levels {
        let keys: Vec<_> = (0..patterns)
            .map(|p| engine.forward_torus(&uniform_torus_poly(n, seed(100 * j + p + 50))))
            .collect();
        stream.extend(stored_block(engine, &keys, exp));
    }
    let mut scratch = engine.make_scratch();
    let digits: Vec<_> = (0..2 * levels)
        .map(|r| {
            let mut digit = engine.zero_spectrum();
            let poly = uniform_torus_poly(n, seed(r / levels + 10));
            engine.forward_decomposed_into(&poly, &decomp, r % levels, &mut digit, &mut scratch);
            digit
        })
        .collect();
    let mut slot_sets = slot_lists(patterns);
    if patterns >= 15 {
        slot_sets.extend((1..15).map(|count| (0..count).collect()));
    }
    let block = KeyBlock::words(m, patterns);
    for tail in [0, 5000] {
        stream.resize(4 * levels * block + tail, 77);
        let key = KeyBlock {
            stream: &stream,
            patterns,
            exp,
        };
        for slots in &slot_sets {
            let exponents = (0..slots.len() as i64).map(|p| 19 * p * p - 40 * p + 1);
            let mut factors = Default::default();
            engine.monomial_factors_into(exponents, exp, &mut factors);
            let rows: Vec<_> = h
                .iter()
                .enumerate()
                .map(|(j, h)| {
                    let mut row = engine.zero_spectrum();
                    let key = KeyBlock {
                        stream: &stream[j * block..],
                        ..key
                    };
                    engine.bundle_row_into(h, key, slots, &factors, &mut row);
                    row
                })
                .collect();
            let (mut want_a, mut want_b) = (engine.zero_spectrum(), engine.zero_spectrum());
            for (digit, pair) in digits.iter().zip(rows.chunks(2)) {
                engine.mul_accumulate([&mut want_a, &mut want_b], digit, [&pair[0], &pair[1]]);
            }
            let (mut got_a, mut got_b) = (h[1].clone(), h[2].clone());
            let accs = [&mut got_a, &mut got_b];
            engine.bundle_product_into(&h, key, slots, &factors, &digits, accs, &mut scratch);
            // Spectra print every component exactly: equal text, equal values.
            let ctx = format!("{ctx}, n={n} patterns={patterns} slots={slots:?} tail={tail}");
            assert_eq!(format!("{got_a:?}"), format!("{want_a:?}"), "mask, {ctx}");
            assert_eq!(format!("{got_b:?}"), format!("{want_b:?}"), "body, {ctx}");
        }
    }
}

/// The shift of the integer engine's fused products at ring degree `n`:
/// the digits' fractional bits and the bundle rows' (`h`'s less
/// `BUNDLE_DROP_BITS`) together.
fn fused_mac_shift(n: usize) -> u32 {
    use matcha_fft::approx::BUNDLE_DROP_BITS;
    let engine = ApproxIntFft::new(n, 38);
    let poly = uniform_torus_poly(n, 1);
    let (mut digit, mut scratch) = (engine.zero_spectrum(), engine.make_scratch());
    let decomp = GadgetDecomposer::new(10, 3);
    engine.forward_decomposed_into(&poly, &decomp, 0, &mut digit, &mut scratch);
    digit.frac_bits + engine.forward_torus(&poly).frac_bits - BUNDLE_DROP_BITS
}

/// Ring degrees of the fused-product checks: below a chunk (`M = 2`, where
/// the f64 product is not contracted even on a vector leg, and `M = 4`), a
/// few chunks, the top of `MAC_SHIFTS` (`N = 128`, shift 61, where the
/// eight-lane recombination's bounds are tightest) and the paper's ring.
const PRODUCT_DEGREES: [usize; 7] = [4, 8, 16, 64, 128, 256, 1024];

#[test]
fn product_degrees_reach_both_sides_of_the_mac_shifts() {
    // The AVX-512 leg multiplies in its lanes inside `MAC_SHIFTS` and
    // spills its bundle entries to the scalar products outside: both must
    // stay covered by the degrees below (`M < 8` runs the scalar leg).
    let shifts = PRODUCT_DEGREES.map(fused_mac_shift);
    assert_eq!(shifts, [64, 64, 64, 62, 61, 60, 57]);
    let inside = shifts.map(|s| simd::MAC_SHIFTS.contains(&s));
    assert_eq!(inside, [false, false, false, false, true, true, true]);
}

#[test]
fn bundle_product_is_its_rows_then_products_on_every_leg() {
    // Blocks of up to 255 patterns (unroll 8) on the f64 engine, up to 31
    // on the integer engine, whose row headroom stops at unroll 5.
    for leg in Leg::ALL {
        for n in PRODUCT_DEGREES {
            let f64_engine = F64Fft::with_leg(n, leg);
            let approx = ApproxIntFft::with_leg(n, 38, leg);
            for patterns in [1, 3, 7, 15] {
                check_bundle_product(&f64_engine, patterns, &format!("f64 {leg:?}"));
                check_bundle_product(&approx, patterns, &format!("approx {leg:?}"));
            }
            if n <= 64 {
                check_bundle_product(&f64_engine, 255, &format!("f64 {leg:?}"));
                check_bundle_product(&approx, 31, &format!("approx {leg:?}"));
            }
        }
    }
}

#[test]
#[should_panic(expected = "12 × 3 patterns of 512 points need 36864")]
fn bundle_product_rejects_a_short_stream() {
    let engine = F64Fft::with_leg(1024, widest_leg());
    let exp = key_exponent(1024);
    let h = engine.forward_torus(&uniform_torus_poly(1024, 61));
    let block = stored_block(&engine, &[h.clone(), h.clone(), h.clone()], exp);
    let stream = block.repeat(12);
    let key = KeyBlock {
        stream: &stream[..stream.len() - 1],
        patterns: 3,
        exp,
    };
    let mut factors = Default::default();
    engine.monomial_factors_into([5].into_iter(), exp, &mut factors);
    let (mut a, mut b) = (engine.zero_spectrum(), engine.zero_spectrum());
    let (hs, digits) = (vec![h.clone(); 12], vec![h; 6]);
    let mut scratch = engine.make_scratch();
    engine.bundle_product_into(
        &hs,
        key,
        &[0],
        &factors,
        &digits,
        [&mut a, &mut b],
        &mut scratch,
    );
}

/// A bundle row over a key stream one word short of its block, on the
/// engine's leg.
fn bundle_row_over_a_short_block<E: FftEngine>(engine: &E) {
    let n = engine.ring_degree();
    let exp = key_exponent(n);
    let h = engine.forward_torus(&uniform_torus_poly(n, 61));
    let block = stored_block(engine, &[h.clone(), h.clone(), h.clone()], exp);
    let key = KeyBlock {
        stream: &block[..block.len() - 1],
        patterns: 3,
        exp,
    };
    let mut factors = Default::default();
    engine.monomial_factors_into([5].into_iter(), exp, &mut factors);
    engine.bundle_row_into(&h, key, &[0], &factors, &mut engine.zero_spectrum());
}

// The vector legs index the key through raw pointers: the length check in
// front of them must be there in release builds too (CI runs this file in
// both profiles).
#[test]
#[should_panic(expected = "3 patterns of 512 points need 3072")]
fn f64_row_rejects_a_short_block_scalar() {
    bundle_row_over_a_short_block(&F64Fft::with_leg(1024, Leg::Scalar));
}

#[test]
#[should_panic(expected = "3 patterns of 512 points need 3072")]
fn f64_row_rejects_a_short_block_vector() {
    bundle_row_over_a_short_block(&F64Fft::with_leg(1024, Leg::Avx512));
}

#[test]
#[should_panic(expected = "3 patterns of 512 points need 3072")]
fn approx_row_rejects_a_short_block_scalar() {
    bundle_row_over_a_short_block(&ApproxIntFft::with_leg(1024, 38, Leg::Scalar));
}

#[test]
#[should_panic(expected = "3 patterns of 512 points need 3072")]
fn approx_row_rejects_a_short_block_vector() {
    bundle_row_over_a_short_block(&ApproxIntFft::with_leg(1024, 38, Leg::Avx512));
}

#[test]
#[should_panic(expected = "pattern slot outside the block's 3 patterns")]
fn row_rejects_a_slot_the_block_does_not_hold() {
    let engine = F64Fft::new(64);
    let exp = key_exponent(64);
    let h = engine.forward_torus(&uniform_torus_poly(64, 61));
    let block = stored_block(&engine, &[h.clone(), h.clone(), h.clone()], exp);
    let key = KeyBlock {
        stream: &block,
        patterns: 3,
        exp,
    };
    let mut factors = Default::default();
    engine.monomial_factors_into([5].into_iter(), exp, &mut factors);
    engine.bundle_row_into(&h, key, &[3], &factors, &mut engine.zero_spectrum());
}

#[test]
#[should_panic(expected = "does not fit 32-bit words")]
fn storing_rejects_a_value_the_exponent_does_not_cover() {
    // Every coefficient −2³¹: the spectrum's peak is far outside the 8σ of
    // a uniform polynomial that the exponent is sized for.
    let n = 1024;
    let engine = ApproxIntFft::new(n, 38);
    let peak = TorusPolynomial::from_coeffs(vec![Torus32::from_raw(0x8000_0000); n]);
    stored_block(&engine, &[engine.forward_torus(&peak)], key_exponent(n));
}

#[test]
fn approx_worst_case_magnitudes_agree_and_do_not_overflow() {
    // The inputs that drive the integer engine's values as high as its
    // scaling allows — what `simd::I64_LANE_BOUND` and, for the pointwise
    // products, `simd::MAC_LANE_BOUND` have to leave room for. In a debug
    // build the scalar leg's arithmetic is overflow-checked, so passing
    // there shows the headroom is real; in a release build (where every leg
    // wraps) equality shows the vector legs' modular recombinations land on
    // the same integers.
    use matcha_fft::approx::MAX_DIGIT;
    use matcha_math::IntPolynomial;
    let n = 1024usize;
    let m = n / 2;
    let engine = ApproxIntFft::new(n, 38);
    let engines = approx_on_each_leg(n, 38);
    let mut scratch = engine.make_scratch();

    // Every torus coefficient −2³¹.
    let torus = TorusPolynomial::from_coeffs(vec![Torus32::from_raw(0x8000_0000); n]);
    let keys = engines.each_ref().map(|engine| {
        let mut s = engine.zero_spectrum();
        engine.forward_torus_into(&torus, &mut s, &mut scratch);
        (s.re, s.im)
    });
    assert_same_on_each_leg(&keys, "torus spectrum");
    let key_s = FixedSpectrum {
        re: keys[0].0.clone(),
        im: keys[0].1.clone(),
        frac_bits: engine.forward_torus(&torus).frac_bits,
    };

    // Digits ±MAX_DIGIT with signs chosen so that all M terms of one bin
    // point the same way: X_k = Σ_j (c_j + i·c_{j+M})·e^{iψ_j} with
    // ψ_j = πj/N + 2πjk/M, so c_j = D·sgn(cos ψ_j), c_{j+M} = −D·sgn(sin ψ_j)
    // makes every term's real part D·(|cos ψ_j| + |sin ψ_j|) ≥ D.
    let mut peaks = Vec::new();
    for bin in [0usize, 1, m / 2, m - 1] {
        let mut coeffs = vec![0i32; n];
        for j in 0..m {
            let psi = std::f64::consts::PI * j as f64 / n as f64
                + std::f64::consts::TAU * (j * bin) as f64 / m as f64;
            let sign = |v: f64| if v >= 0.0 { 1 } else { -1 };
            coeffs[j] = MAX_DIGIT as i32 * sign(psi.cos());
            coeffs[j + m] = -(MAX_DIGIT as i32) * sign(psi.sin());
        }
        let digits = IntPolynomial::from_coeffs(coeffs);
        let spectra = engines.each_ref().map(|engine| {
            let mut s = engine.zero_spectrum();
            engine.forward_int_into(&digits, &mut s, &mut scratch);
            (s.re, s.im)
        });
        assert_same_on_each_leg(&spectra, &format!("bin {bin}"));
        let scalar = engine.forward_int(&digits);
        // The alignment worked: the bin holds at least M·D·2^frac.
        let peak = scalar
            .re
            .iter()
            .map(|v| v.unsigned_abs())
            .max()
            .unwrap_or(0);
        let floor = (m as u64 * MAX_DIGIT as u64) << scalar.frac_bits;
        assert!(peak >= floor, "bin {bin}: peak {peak:#x} below {floor:#x}");
        assert!(peak < simd::MAC_LANE_BOUND, "bin {bin}: peak {peak:#x}");
        // Back through the halving inverse and the descale.
        let back = engines.each_ref().map(|engine| {
            let mut out = TorusPolynomial::zero(n);
            engine.backward_torus_into(&scalar, &mut out, &mut scratch);
            out
        });
        assert_same_on_each_leg(&back, &format!("bin {bin}"));
        peaks.push(scalar);
    }

    // A full unroll-3 bundle row of the largest stored words against the
    // largest factors there are: `ε^N − 1 = −2` is `[i32::MIN, 0]`, and
    // `ε^{N/2} − 1 = i − 1` at the first point has both components at
    // `±2³⁰`. Mantissas at both ends of their range, in every sign pairing.
    let exp = key_exponent(n);
    let patterns = 7;
    let ends = [i32::MIN, i32::MAX];
    let block: Vec<i32> = (0..KeyBlock::words(m, patterns))
        .map(|i| ends[(i / 5 + i / 16) % 2])
        .collect();
    let key = KeyBlock {
        stream: &block,
        patterns,
        exp,
    };
    let slots: Vec<u8> = (0..patterns as u8).collect();
    let mut factors = Vec::new();
    let exponents = (0..patterns as i64).map(|p| if p % 2 == 0 { n as i64 } else { n as i64 / 2 });
    engine.monomial_factors_into(exponents, exp, &mut factors);
    assert_eq!(factors[0], [i32::MIN, 0]);
    let rows = engines.each_ref().map(|engine| {
        let mut row = engine.zero_spectrum();
        engine.bundle_row_into(&key_s, key, &slots, &factors, &mut row);
        row
    });
    let (re, im) = bundle_row_i128(&key_s, key, &slots, &factors);
    for (leg, row) in Leg::ALL.iter().zip(&rows) {
        assert_eq!(row.re, re, "bundle re, {leg:?}");
        assert_eq!(row.im, im, "bundle im, {leg:?}");
    }
    let back = engines.each_ref().map(|engine| {
        let mut out = TorusPolynomial::zero(n);
        engine.backward_torus_into(&key_s, &mut out, &mut scratch);
        out
    });
    assert_same_on_each_leg(&back, "torus spectrum, backward");
    assert!(back[0].max_distance(&torus) < 1e-6);

    // The pointwise products of those operands: each aligned digit spectrum
    // against the worst bundle row (the external product's shift,
    // 41 + 16 = 57) and against the torus spectrum (key storage's,
    // 41 + 20 = 61), every row beside its negation in one pair call.
    let row = &rows[0];
    for operand in [row, &key_s] {
        let peak = operand
            .re
            .iter()
            .chain(&operand.im)
            .map(|v| v.unsigned_abs());
        assert!(peak.max().unwrap_or(0) < simd::MAC_LANE_BOUND);
        for x in &peaks {
            check_products(&engines, x, operand);
        }
    }
    assert_eq!(peaks[0].frac_bits + row.frac_bits, 57);
    assert_eq!(peaks[0].frac_bits + key_s.frac_bits, 61);

    // And every operand pattern at the bound itself, at every shift the
    // vector leg covers and a few it leaves to the scalar loop: high halves
    // at both ends of `[−2³⁰, 2³⁰)`, low halves at both ends of `[0, 2³¹)`.
    let bound = simd::MAC_LANE_BOUND as i64;
    let ends = [
        bound - 1,
        1 - bound,
        1 - bound + (1 << 31) - 2,
        bound - (1 << 31),
        -1,
        0,
    ];
    let lanes = |j: u32| -> Vec<i64> {
        (0..ends.len().pow(4))
            .map(|i| ends[i / ends.len().pow(j) % ends.len()])
            .collect()
    };
    let spectrum = |re: Vec<i64>, im: Vec<i64>, frac_bits| FixedSpectrum { re, im, frac_bits };
    for shift in 29..=64 {
        let x = spectrum(lanes(0), lanes(1), shift);
        let a = spectrum(lanes(2), lanes(3), 0);
        check_products(&engines, &x, &a);
        let a = spectrum(lanes(3), lanes(0), 0);
        check_products(&engines, &x, &a);
    }
}

/// `mul_accumulate` of `x` with the rows `[a, −a]` and with `[a]` alone, on
/// every leg's engine, against the `i128` definition.
fn check_products(engines: &[ApproxIntFft; 3], x: &FixedSpectrum, a: &FixedSpectrum) {
    let negated = FixedSpectrum {
        re: a.re.iter().map(|v| -v).collect(),
        im: a.im.iter().map(|v| -v).collect(),
        frac_bits: a.frac_bits,
    };
    let shift = x.frac_bits + a.frac_bits;
    let round = 1i128 << (shift - 1);
    let product = |a: &FixedSpectrum| -> (Vec<i64>, Vec<i64>) {
        (0..x.re.len())
            .map(|k| {
                let (xr, xi) = (i128::from(x.re[k]), i128::from(x.im[k]));
                let (ar, ai) = (i128::from(a.re[k]), i128::from(a.im[k]));
                (
                    ((xr * ar - xi * ai + round) >> shift) as i64,
                    ((xr * ai + xi * ar + round) >> shift) as i64,
                )
            })
            .unzip()
    };
    let (expected_a, expected_b) = (product(a), product(&negated));
    let zeros = || FixedSpectrum {
        re: vec![0; x.re.len()],
        im: vec![0; x.re.len()],
        frac_bits: 0,
    };
    let outs = engines.each_ref().map(|engine| {
        let (mut acc_a, mut acc_b) = (zeros(), zeros());
        engine.mul_accumulate([&mut acc_a, &mut acc_b], x, [a, &negated]);
        let mut single = zeros();
        engine.mul_accumulate([&mut single], x, [a]);
        [acc_a, acc_b, single].map(|s| (s.re, s.im))
    });
    for (leg, [pair_a, pair_b, single]) in Leg::ALL.iter().zip(&outs) {
        let ctx = format!("{leg:?}, shift {shift}");
        assert_eq!(pair_a, &expected_a, "pair, first row, {ctx}");
        assert_eq!(pair_b, &expected_b, "pair, second row, {ctx}");
        assert_eq!(single, &expected_a, "single, {ctx}");
    }
}

#[test]
fn forward_roundtrip_matches_across_legs() {
    // Bare forward/backward roundtrip, each leg internally consistent and
    // both agreeing on the recovered polynomial.
    for n in [8usize, 64, 1024] {
        let p = random_torus_poly(n, 5);
        let [scalar, simd] = [Leg::Scalar, Leg::Avx512].map(|leg| {
            let engine = F64Fft::with_leg(n, leg);
            engine.backward_torus(&engine.forward_torus(&p))
        });
        assert!(scalar.max_distance(&p) < 1e-7, "n={n} scalar roundtrip");
        assert!(simd.max_distance(&p) < 1e-7, "n={n} simd roundtrip");
        assert!(scalar.max_distance(&simd) < TOL, "n={n} leg divergence");
    }
}

#[test]
fn fused_tail_reduction_is_bitwise_across_legs() {
    // With the identity twist both legs reduce the very same values, so the
    // stored coefficients must agree bit for bit — with each other and with
    // the scalar `f64_to_torus_mod` — including ties of the residue and the
    // wrap at ±2^31. `inv_len` exercises the folded normalization.
    let m = 512usize;
    let inv_len = 1.0 / m as f64;
    let specials = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        2_147_483_648.0,
        -2_147_483_648.0,
        2_147_483_647.5,
        -2_147_483_648.5,
        6_442_450_944.5,
        -6_442_450_943.5,
        (1u64 << 58) as f64 + 1024.0,
        -((1u64 << 58) as f64) - 512.0,
    ];
    let re: Vec<f64> = (0..m)
        .map(|k| {
            let raw = (k as u64 ^ 0x5bd1_e995).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let x = if k < specials.len() {
                specials[k]
            } else if k % 3 == 0 {
                // Half-integer residues at growing magnitude.
                (raw >> (12 + k % 40)) as f64 + 0.5
            } else {
                (raw >> 6) as f64 / 64.0 - (1u64 << 57) as f64 / 64.0
            };
            // Pre-multiply by M so the normalization lands on `x` exactly.
            x * m as f64
        })
        .collect();
    let im: Vec<f64> = re.iter().rev().map(|&x| -x).collect();
    let (ones, zeros) = (vec![1.0; m], vec![0.0; m]);
    let run = |leg: Leg| {
        let mut lo = vec![Torus32::ZERO; m];
        let mut hi = vec![Torus32::ZERO; m];
        simd::untwist_to_torus(&re, &im, &ones, &zeros, inv_len, &mut lo, &mut hi, leg);
        (lo, hi)
    };
    let (scalar_lo, scalar_hi) = run(Leg::Scalar);
    let (simd_lo, simd_hi) = run(Leg::Avx512);
    assert_eq!(scalar_lo, simd_lo);
    assert_eq!(scalar_hi, simd_hi);
    for k in 0..m {
        assert_eq!(
            scalar_lo[k],
            twist::f64_to_torus_mod(re[k] * inv_len),
            "k={k}"
        );
        assert_eq!(
            scalar_hi[k],
            twist::f64_to_torus_mod(im[k] * inv_len),
            "k={k}"
        );
    }
}

#[test]
fn bundle_row_matches_copy_then_singles_on_either_leg() {
    // On either leg the single-pass row is a copy of `H` followed, per
    // term, by the fused complex multiply-accumulate of factor table and
    // widened key — `mul_accumulate`'s vector-leg element order, which the
    // row keeps on its scalar leg too. On the vector leg that *is* one
    // one-row `mul_accumulate` per term.
    for leg in Leg::ALL {
        let engine = F64Fft::with_leg(256, leg);
        let exp = key_exponent(256);
        let h = engine.forward_torus(&uniform_torus_poly(256, 61));
        let keys: Vec<_> = (0..11)
            .map(|p| engine.forward_torus(&uniform_torus_poly(256, 70 + p)))
            .collect();
        let block = stored_block(&engine, &keys, exp);
        let key = KeyBlock {
            stream: &block,
            patterns: keys.len(),
            exp,
        };
        let slots: Vec<u8> = (0..11).collect();
        let exponents: Vec<i64> = (0..11).map(|p| 19 * p - 40).collect();
        let mut factors = Default::default();
        engine.monomial_factors_into(exponents.iter().copied(), exp, &mut factors);
        let mut row = engine.zero_spectrum();
        engine.bundle_row_into(&h, key, &slots, &factors, &mut row);
        let mut fused = h.clone();
        let mut singles = h.clone();
        for p in 0..keys.len() {
            let table = matcha_fft::CplxSpectrum {
                re: factors.re[p * 128..(p + 1) * 128].to_vec(),
                im: factors.im[p * 128..(p + 1) * 128].to_vec(),
            };
            // The stored words as they stand: their `2^exp` is in the table.
            let words = common::widened_cplx(KeyBlock { exp: 0, ..key }, 128, p);
            engine.mul_accumulate([&mut singles], &table, [&words]);
            for k in 0..128 {
                let (fr, fi, sr, si) = (table.re[k], table.im[k], words.re[k], words.im[k]);
                fused.re[k] = (-fi).mul_add(si, fr.mul_add(sr, fused.re[k]));
                fused.im[k] = fi.mul_add(sr, fr.mul_add(si, fused.im[k]));
            }
        }
        assert_eq!(row, fused, "{leg:?}");
        if engine.leg() != Leg::Scalar {
            assert_eq!(row, singles, "vector leg");
        }
    }
}

#[test]
fn pair_calls_match_singles_on_every_leg() {
    // On every leg: one two-row call must be bit-identical to two
    // one-row calls — a row's result does not depend on how many rows ride
    // with it.
    // The integer engine at N = 1024 multiplies a digit spectrum by torus
    // spectra at a shift the AVX-512 products cover (41 + 20).
    let decomp = GadgetDecomposer::new(10, 3);
    for leg in Leg::ALL {
        let engine = F64Fft::with_leg(256, leg);
        let x = engine.forward_torus(&random_torus_poly(256, 51));
        check_pair_against_singles(&engine, &x, 52, &format!("f64, {leg:?}"));
        let engine = ApproxIntFft::with_leg(1024, 38, leg);
        let mut x = engine.zero_spectrum();
        let p = uniform_torus_poly(1024, 51);
        engine.forward_decomposed_into(&p, &decomp, 0, &mut x, &mut engine.make_scratch());
        check_pair_against_singles(&engine, &x, 52, &format!("approx, {leg:?}"));
    }
}

/// `mul_accumulate` of `x` with the rows `[a, b]` against one call per row,
/// for `a` and `b` the spectra of two uniform torus polynomials.
fn check_pair_against_singles<E: FftEngine>(engine: &E, x: &E::Spectrum, seed: u32, ctx: &str) {
    let n = engine.ring_degree();
    let a = engine.forward_torus(&uniform_torus_poly(n, seed));
    let b = engine.forward_torus(&uniform_torus_poly(n, seed + 1));
    let mut pair_a = engine.zero_spectrum();
    let mut pair_b = engine.zero_spectrum();
    engine.mul_accumulate([&mut pair_a, &mut pair_b], x, [&a, &b]);
    let mut single_a = engine.zero_spectrum();
    let mut single_b = engine.zero_spectrum();
    engine.mul_accumulate([&mut single_a], x, [&a]);
    engine.mul_accumulate([&mut single_b], x, [&b]);
    // Spectra print every component exactly: equal text, equal values.
    assert_eq!(format!("{pair_a:?}"), format!("{single_a:?}"), "{ctx}");
    assert_eq!(format!("{pair_b:?}"), format!("{single_b:?}"), "{ctx}");
}

/// The widest leg this CPU runs, read off the feature detection.
fn widest_leg() -> Leg {
    #[cfg(target_arch = "x86_64")]
    if simd_detected() {
        return if is_x86_feature_detected!("avx512f") {
            Leg::Avx512
        } else {
            Leg::Avx2
        };
    }
    Leg::Scalar
}

#[test]
fn engines_narrow_their_leg_to_what_the_cpu_runs() {
    // An engine built for a leg runs it where the CPU has it and the widest
    // leg it has otherwise, on both engines; `new` builds for the host leg,
    // the widest unless `MATCHA_SIMD=0` asks for the scalar one.
    let widest = widest_leg();
    for leg in Leg::ALL {
        let want = leg.min(widest);
        assert_eq!(leg.narrowed(), want, "{leg:?}");
        assert_eq!(F64Fft::with_leg(64, leg).leg(), want, "F64Fft, {leg:?}");
        let approx = ApproxIntFft::with_leg(64, 38, leg);
        assert_eq!(approx.leg(), want, "ApproxIntFft, {leg:?}");
    }
    let scalar_only = matches!(
        std::env::var("MATCHA_SIMD").as_deref(),
        Ok("0" | "off" | "OFF")
    );
    let host = if scalar_only { Leg::Scalar } else { widest };
    assert_eq!(Leg::host(), host);
    assert_eq!(F64Fft::new(64).leg(), host, "F64Fft::new");
    assert_eq!(ApproxIntFft::new(64, 38).leg(), host, "ApproxIntFft::new");
}

#[test]
fn detection_reporting_is_consistent() {
    // What an engine reports agrees with `simd_detected`, on both engines.
    for n in [16, 1024] {
        let legs = |leg: Leg| {
            [
                F64Fft::with_leg(n, leg).leg(),
                ApproxIntFft::with_leg(n, 38, leg).leg(),
            ]
        };
        for got in legs(Leg::Avx512) {
            assert_eq!(
                got > Leg::Scalar,
                simd_detected(),
                "building for AVX-512 must still respect CPU detection"
            );
        }
        for got in legs(Leg::Avx2) {
            assert_eq!(got > Leg::Scalar, simd_detected());
            assert!(got <= Leg::Avx2, "building for AVX2 runs no wider leg");
        }
        assert_eq!(legs(Leg::Scalar), [Leg::Scalar; 2]);
    }
}

/// Ring degrees whose transform sizes cover both parities of `log2 M`, the
/// sizes too small for a 4×4 block (`M < 16`) or for a stage pair, and the
/// paper's.
const DEGREES: [usize; 10] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

fn random_f64s(m: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..m)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 40) as f64 - 4096.0
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn stage_pair_matches_two_single_stages_on_either_leg() {
    // Every `len` a pair can start at, at every size from the smallest that
    // holds one: `len < 8` and the scalar leg run the two single stages
    // anyway, `len ≥ 8` on the vector leg is the in-register kernel. Both
    // directions' twiddles.
    for n in DEGREES {
        let m = n / 2;
        let tables = TwiddleTables::new(n);
        for leg in Leg::ALL {
            for stages in [tables.forward_stages(), tables.inverse_stages()] {
                let mut len = 2;
                while 2 * len <= m {
                    let (w1re, w1im) = stages.stage_split(len);
                    let (w2re, w2im) = stages.stage_split(2 * len);
                    let (re, im) = (random_f64s(m, len as u64), random_f64s(m, 77 + len as u64));
                    let (mut pre, mut pim) = (re.clone(), im.clone());
                    simd::radix2_stage_pair(&mut pre, &mut pim, w1re, w1im, w2re, w2im, len, leg);
                    let (mut sre, mut sim) = (re, im);
                    simd::radix2_stage(&mut sre, &mut sim, w1re, w1im, len, leg);
                    simd::radix2_stage(&mut sre, &mut sim, w2re, w2im, 2 * len, leg);
                    assert_eq!(bits(&pre), bits(&sre), "re, n={n} len={len} {leg:?}");
                    assert_eq!(bits(&pim), bits(&sim), "im, n={n} len={len} {leg:?}");
                    len *= 2;
                }
            }
        }
    }
}

/// The two narrow stages, one pass each, over bit-reversed data.
fn narrow_stages(re: &mut [f64], im: &mut [f64], stages: &matcha_fft::StageTwiddles, leg: Leg) {
    for len in [2usize, 4] {
        if len <= re.len() {
            let (wre, wim) = stages.stage_split(len);
            simd::radix2_stage(re, im, wre, wim, len, leg);
        }
    }
}

#[test]
fn reversed_folds_match_natural_fold_permutation_and_narrow_stages() {
    // Every kind of fold, on every leg: one pass to bit-reversed slots with
    // the narrow stages done == `fold_twist` in natural order, a
    // permutation pass, a pass for `len = 2` and a pass for `len = 4`.
    let decomp = GadgetDecomposer::new(10, 3);
    for n in DEGREES {
        let m = n / 2;
        let tables = TwiddleTables::new(n);
        let (twre, twim) = tables.twist_split();
        let p = random_torus_poly(n, 5 + n as u32);
        let q = IntPolynomial::from_coeffs(
            p.coeffs()
                .iter()
                .map(|c| (c.raw() >> 21) as i32 - 1024)
                .collect(),
        );
        let (torus, int) = (simd::torus_words(p.coeffs()), simd::int_words(q.coeffs()));
        let mut folds = vec![
            ("torus".to_string(), torus, FoldDigit::WHOLE),
            ("int".to_string(), int, FoldDigit::WHOLE),
        ];
        for level in 0..decomp.levels() {
            let digit = FoldDigit::level(&decomp, level);
            folds.push((format!("torus digit level {level}"), torus, digit));
        }
        for leg in Leg::ALL {
            for (name, words, digit) in &folds {
                // Dirty, mis-sized outputs must not leak through.
                let (mut rre, mut rim) = (vec![7.0; 3], vec![7.0; 2 * n]);
                twist::fold(words, *digit, &tables, &mut rre, &mut rim, leg);
                let (mut nre, mut nim) = (vec![7.0; m], vec![7.0; m]);
                let (lo, hi) = words.split_at(m);
                simd::fold_twist(lo, hi, *digit, twre, twim, None, &mut nre, &mut nim, leg);
                bit_reverse_permute_pair(&mut nre, &mut nim);
                narrow_stages(&mut nre, &mut nim, tables.forward_stages(), leg);
                assert_eq!(bits(&rre), bits(&nre), "{name} re, n={n} {leg:?}");
                assert_eq!(bits(&rim), bits(&nim), "{name} im, n={n} {leg:?}");
            }
        }
    }
}

#[test]
fn reversed_copies_match_the_per_element_copy() {
    // The backward transforms' working copy: through the table (4×4 blocks
    // on the vector leg) == the reversed index recomputed per element, for
    // both engines' element types; and the f64 copy that runs the narrow
    // stages on the way == copy, then a pass per stage.
    for n in DEGREES {
        let m = n / 2;
        let tables = TwiddleTables::new(n);
        let order = tables.bit_reversal();
        assert_eq!(order, &BitReversal::new(m));
        let (re, im) = (random_f64s(m, 3), random_f64s(m, 4));
        let (ire, iim): (Vec<i64>, Vec<i64>) = (
            re.iter().map(|x| x.to_bits() as i64).collect(),
            im.iter().map(|x| x.to_bits() as i64).collect(),
        );
        for leg in Leg::ALL {
            let (mut ere, mut eim) = (vec![0.0; m], vec![0.0; m]);
            bit_reverse_copy_pair(&re, &im, &mut ere, &mut eim);
            let (mut gre, mut gim) = (vec![1.0; m], vec![1.0; m]);
            simd::bit_reverse_copy(&re, &mut gre, order, leg);
            simd::bit_reverse_copy(&im, &mut gim, order, leg);
            assert_eq!(
                (bits(&gre), bits(&gim)),
                (bits(&ere), bits(&eim)),
                "f64, n={n}"
            );

            let (mut eire, mut eiim) = (vec![0i64; m], vec![0i64; m]);
            bit_reverse_copy_pair(&ire, &iim, &mut eire, &mut eiim);
            let (mut gire, mut giim) = (vec![1i64; m], vec![1i64; m]);
            simd::bit_reverse_copy(&ire, &mut gire, order, leg);
            simd::bit_reverse_copy(&iim, &mut giim, order, leg);
            assert_eq!((gire, giim), (eire, eiim), "i64, n={n} {leg:?}");

            for stages in [tables.forward_stages(), tables.inverse_stages()] {
                let (mut sre, mut sim) = (ere.clone(), eim.clone());
                narrow_stages(&mut sre, &mut sim, stages, leg);
                let reversed = Reversed { order, stages };
                simd::bit_reverse_copy_pair(&re, &im, reversed, &mut gre, &mut gim, leg);
                assert_eq!(bits(&gre), bits(&sre), "staged re, n={n} {leg:?}");
                assert_eq!(bits(&gim), bits(&sim), "staged im, n={n} {leg:?}");
            }
        }
    }
}

#[test]
fn integer_reversed_fold_matches_prescale_rotate_and_permutation() {
    // `i64_fold_rotate` == pre-scale into natural order, `i64_rotate`, a
    // permutation pass — the same integers on either leg, at the
    // paper's width and at the one the vector lift does not reach.
    let decomp = GadgetDecomposer::new(10, 3);
    for n in DEGREES {
        let m = n / 2;
        let order = BitReversal::new(m);
        let p = random_torus_poly(n, 9 + n as u32);
        let words = simd::torus_words(p.coeffs());
        let (lo, hi) = words.split_at(m);
        for beta in [38u32, 62] {
            let twist = (0..m).map(|j| {
                LiftingRotation::from_angle(std::f64::consts::PI * j as f64 / n as f64, beta)
            });
            let table = LiftingTable::new(twist, beta);
            let rots = table.slice(0..m);
            for (digit, frac) in [
                (FoldDigit::WHOLE, 20),
                (FoldDigit::level(&decomp, 0), 41),
                (FoldDigit::level(&decomp, 2), 41),
            ] {
                let folds = Leg::ALL.map(|leg| {
                    let (mut re, mut im) = (vec![5i64; m], vec![5i64; m]);
                    simd::i64_fold_rotate(lo, hi, digit, frac, rots, &order, &mut re, &mut im, leg);
                    (re, im)
                });
                let mut re: Vec<i64> = lo.iter().map(|&x| (digit.of(x) as i64) << frac).collect();
                let mut im: Vec<i64> = hi.iter().map(|&x| (digit.of(x) as i64) << frac).collect();
                simd::i64_rotate(&mut re, &mut im, rots, Leg::Scalar);
                bit_reverse_permute_pair(&mut re, &mut im);
                for (leg, fold) in Leg::ALL.iter().zip(&folds) {
                    assert_eq!(
                        fold,
                        &(re.clone(), im.clone()),
                        "{leg:?}, n={n} beta={beta}"
                    );
                }
            }
        }
    }
}

#[test]
fn fold_digit_is_the_decomposers_digit() {
    // Including a decomposition that uses all 32 bits (last level: shift 0).
    for (bg_bits, levels) in [(10u32, 3usize), (8, 4), (2, 8), (1, 1), (16, 2), (31, 1)] {
        let decomp = GadgetDecomposer::new(bg_bits, levels);
        let mut x = 0x1234_5678u32;
        for _ in 0..2000 {
            x = x.wrapping_mul(0x9e37_79b9).wrapping_add(0x7f4a_7c15);
            assert_eq!(FoldDigit::WHOLE.of(x), x as i32);
            for level in 0..levels {
                assert_eq!(
                    FoldDigit::level(&decomp, level).of(x),
                    decomp.digit(decomp.shift(Torus32::from_raw(x)), level),
                    "bg_bits={bg_bits} level={level} x={x:#x}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "tables built for another size")]
fn reversed_copy_rejects_a_table_of_another_size() {
    // Real asserts, release builds included: the table indexes the buffers.
    let (small, large) = (TwiddleTables::new(32), TwiddleTables::new(64));
    let reversed = Reversed {
        order: small.bit_reversal(),
        stages: large.inverse_stages(),
    };
    let (src, mut dst) = (vec![0.0; 16], vec![0.0; 16]);
    let mut dst2 = dst.clone();
    simd::bit_reverse_copy_pair(&src, &src, reversed, &mut dst, &mut dst2, Leg::host());
}

#[test]
#[should_panic(expected = "buffer length is not the table's")]
fn table_copy_rejects_a_buffer_of_another_size() {
    let (src, mut dst) = (vec![0i64; 32], vec![0i64; 32]);
    simd::bit_reverse_copy(&src, &mut dst, &BitReversal::new(16), Leg::host());
}

#[test]
#[should_panic(expected = "buffer length is not the table's")]
fn dft_rejects_a_buffer_of_another_size() {
    let tables = TwiddleTables::new(32);
    let (mut re, mut im) = (vec![0.0; 32], vec![0.0; 32]);
    let forward = matcha_fft::ref_fft::Direction::Forward;
    matcha_fft::ref_fft::dft_in_place(&mut re, &mut im, &tables, forward, Leg::host());
}

#[test]
#[should_panic(expected = "buffer not a multiple of the stage length")]
fn stage_pair_rejects_a_buffer_shorter_than_its_second_stage() {
    let tables = TwiddleTables::new(32);
    let stages = tables.forward_stages();
    let (w1re, w1im) = stages.stage_split(8);
    let (w2re, w2im) = stages.stage_split(16);
    let (mut re, mut im) = (vec![0.0; 8], vec![0.0; 8]);
    simd::radix2_stage_pair(&mut re, &mut im, w1re, w1im, w2re, w2im, 8, Leg::host());
}
