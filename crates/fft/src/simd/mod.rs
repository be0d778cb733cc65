//! Split-complex butterfly and pointwise kernels with AVX2+FMA and
//! AVX-512F legs, the leg a value every kernel takes.
//!
//! # Layout
//!
//! Every kernel works on *split-complex* data: separate `re[]`/`im[]`
//! slices instead of an interleaved array of complex structs. Split storage
//! is what makes the butterflies vectorizable without any lane shuffles —
//! four butterflies load as four contiguous doubles per component, and the
//! per-stage contiguous [`crate::tables::StageTwiddles`] slices stream the
//! twiddle factors the same way. Both engines, [`crate::F64Fft`] and
//! [`crate::ApproxIntFft`], store their spectra split.
//!
//! # The passes of a breadth-first transform
//!
//! A transform is one pass in, its butterflies, and one pass out — no pass
//! only permutes, and no kernel computes an index (the plan's
//! [`crate::tables::BitReversal`] is handed to the ones that need it):
//!
//! * **In.** Forward, the fold ([`fold_twist`]; [`i64_fold_rotate`] for the
//!   integer engine) loads coefficients, converts them or extracts a
//!   gadget digit ([`FoldDigit`]), twists, and stores every point at its
//!   bit-reversed slot. Backward, the working copy of the caller's
//!   read-only spectrum is made in bit-reversed order
//!   ([`bit_reverse_copy_pair`], [`bit_reverse_copy`]). The vector legs
//!   move 4×4 blocks — four vector loads, a transpose, four vector stores
//!   — and the f64 ones run the two narrow stages (`len = 2` and `4`)
//!   between a block's rows before transposing it, where they are
//!   whole-vector butterflies and cost no shuffle ([`Reversed`]).
//! * **Butterflies.** The f64 stage loop starts at `FIRST_WIDE_STAGE`
//!   and runs two stages to a pass ([`radix2_stage_pair`]: a block's four
//!   quarter-vectors stay in registers between stage `len` and `2·len`);
//!   an odd stage count leaves the last to [`radix2_stage`]. The integer
//!   loop runs `i64_radix2_stage` from `len = 2`, one stage a pass: its
//!   stages are bound by the lifts, not by loads and stores, and pairing
//!   them measured slower.
//! * **Out.** Forward, nothing: the last stage leaves the spectrum.
//!   Backward, one fused pass untwists, normalizes, reduces and stores
//!   torus coefficients ([`untwist_to_torus`]; [`i64_rotate`] and a descale
//!   for the integer engine).
//!
//! Every element meets the same operations in the same order as in the
//! pass-by-pass flow (natural-order fold, permutation, one stage a pass),
//! so on every leg the results are bit-identical to it.
//!
//! # Dispatch
//!
//! Every kernel takes the [`Leg`] it runs on as its last argument, and an
//! engine passes the one it was built with ([`crate::FftEngine::leg`]):
//! which instruction set a transform uses is a property of its engine,
//! not of the process.
//!
//! * [`Leg::Avx512`], where the CPU has AVX-512F (and AVX2+FMA): eight-lane
//!   forms of the integer engine's kernels — `i64_radix2_stage` but for
//!   `len = 2`, [`i64_fold_rotate`]'s lifts, [`i64_rotate`],
//!   `i64_mul_acc` and `i64_bundle_row` — and the AVX2 kernels for
//!   everything else;
//! * [`Leg::Avx2`], where it has AVX2+FMA: explicitly vectorized kernels
//!   (`core::arch::x86_64` intrinsics behind `#[target_feature]`);
//! * [`Leg::Scalar`] everywhere: loops that round every product before
//!   they add it (no contraction) and are the definition the vector legs
//!   reproduce.
//!
//! **Narrowing.** A kernel's `leg` is a request: before it picks a path,
//! every kernel narrows it to the widest leg the CPU runs
//! ([`Leg::narrowed`], a few loads of the standard library's cached
//! detection), and every `unsafe` vector call sits behind that narrowed
//! leg. So no safe call runs an instruction the CPU lacks, whatever leg its
//! caller names. The engines' `with_leg` constructors and
//! `KeySwitchKey::generate` narrow once more when they store a leg, so what
//! an engine reports is what runs.
//!
//! `MATCHA_SIMD` has two values, `0` (scalar) and anything else (the widest
//! leg): it decides [`Leg::host`], the leg `F64Fft::new` and
//! `ApproxIntFft::new` build with, read once per engine. `with_leg` builds
//! an engine for any other leg — [`Leg::Avx2`] on a CPU that has AVX-512F,
//! say — so that one process runs all three legs side by side.
//!
//! # What the legs agree on
//!
//! The double-precision kernels have no AVX-512 form: on [`Leg::Avx512`]
//! they run their AVX2 leg, and the two vector legs agree bit for bit.
//! Between the scalar leg and a vector leg:
//!
//! * **Bounded ulp, not bitwise:** the butterflies ([`radix2_stage`],
//!   [`radix2_stage_pair`]), the twist (inside [`fold_twist`]; the untwist
//!   inside [`untwist_to_torus`]) and the pointwise accumulate (`mul_acc`)
//!   — the vector leg contracts `a·b ± c·d` into fused multiply-adds (one
//!   rounding instead of two).
//! * **Bitwise:** the reduction mod `2^32` at the end of
//!   [`untwist_to_torus`] — on identical untwisted values both legs store
//!   the same `Torus32` (`reduce_turns` states the rule) — the narrow
//!   `len = 2` butterfly stage, which has no multiplies, and the bundle row
//!   over a stored key (`bundle_row`), whose scalar leg is written with
//!   the fused multiply-adds the vector leg makes.
//! * **Within each leg** a row's result does not depend on `R`: the one
//!   pointwise kernel, `mul_acc::<R>` (and the integer engine's
//!   `i64_mul_acc::<R>`), gives each of its `R` rows the same element
//!   operations in the same order, so the external product's two-row call
//!   is bit-identical to two one-row calls.
//!
//! # Integer (i64) kernels
//!
//! The integer engine's rotations (`i64_radix2_stage`, halving or not,
//! [`i64_rotate`], [`i64_fold_rotate`]), its
//! pointwise products (`i64_mul_acc`) and its bundle row
//! (`i64_bundle_row`) have vector legs too, and here every leg agrees
//! **bitwise**, not within ulps: integer arithmetic has one right answer.
//! The scalar leg is the definition — each lift
//! `⌊(x·α + 2^{β−1}) / 2^β⌋`, each pointwise product and each bundle
//! product through one `i128` multiply. Neither AVX2 nor AVX-512F has a
//! 64×64-bit multiply, so the vector legs split every 64-bit operand at
//! bit 31, form the signed 32×32→64-bit partial products `vpmuldq` does
//! offer, and recombine them with nested floors; AVX2 also lacks a 64-bit
//! arithmetic shift and shifts a value biased by `2⁶³` instead, AVX-512F
//! has one (`vpsraq`). `LiftSplit` derives the lifts' recombination and
//! the bounds that keep every partial sum exact; the one precondition it
//! adds to the scalar leg's is `I64_LANE_BOUND` (`|v| < 2⁶²`), which the
//! engine's scaling already guaranteed. Twiddle widths the split does not
//! reach (`β = 62`) run the scalar loop on every leg. [`MAC_LANE_BOUND`]
//! does the same for the pointwise products (16 partial products a
//! complex product, operands below `2⁶¹`, shifts in `MAC_SHIFTS`); those
//! run on [`Leg::Avx512`] only — on four lanes and sixteen registers the
//! split measured no faster than the native `mul`. The bundle row needs no
//! split: a stored key's mantissas and the factors are 32 bits each, one
//! `vpmuldq` a product (`i64_bundle_row`). The bundle rows' vector legs
//! (this one and `bundle_row`'s) and the fused bundle products built on
//! them are the kernels here that prefetch: with the products in vector
//! lanes a row is done before its key arrives, and the time the key takes
//! is the part of a gate that a busy neighbour sets
//! (`BUNDLE_PREFETCH_AHEAD`).
//!
//! # The fused bundle product
//!
//! A blind-rotation step never stores its bundle. Each engine's vector
//! legs make one pass per 8-point chunk over all `2·2ℓ` key blocks of a
//! group, read side by side: each bundle entry is summed in registers as
//! the engine's bundle row sums it and goes straight into the two
//! accumulators with the engine's pointwise product's element operations,
//! so the result is bit-identical, on every leg, to the row for every
//! block followed by the two-row product per digit. On the f64 engine that
//! is `bundle_product` (`bundle_row`, then `mul_acc::<2>`), on the integer
//! engine `i64_bundle_product` (`i64_bundle_row`, then `i64_mul_acc::<2>`).
//! The integer engine's [`Leg::Avx512`] keeps entries and accumulators in
//! registers where the products' shift lies in [`MAC_SHIFTS`] (`MATCHA`'s
//! 57 does); other shifts and [`Leg::Avx2`] spill a chunk's entries to the
//! stack for the scalar leg's `i128` products, as `i64_mul_acc` runs them
//! there.
//!
//! At `N = 1024` on a Xeon with AVX-512F (minimum of 20 rounds of 1000–2000
//! calls; scalar / AVX2 / AVX-512): a pair of pointwise products 2.35 /
//! 2.35 / 1.16 µs, a wide stage 1.07–1.22 / 0.55–0.59 / 0.33–0.38 µs, the
//! fold 2.42 / 1.21 / 0.84 µs, a 7-term bundle row in L1 7.08 / 1.51 /
//! 1.23 µs, a forward transform of one gadget digit 10.7 / 5.26 / 3.61 µs,
//! a backward transform 11.4 / 5.81 / 3.91 µs. The integer engine's fused
//! bundle product over one `m = 3` group (12 blocks of 7 patterns, 344 KB
//! of key in L2; minimum of 20 rounds of 1000 calls) 140.3 / 54.0 /
//! 29.9 µs.

// Off x86_64 the kernels never read their `leg`: every path is scalar.
#![cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]

mod dispatch;
mod f64;
mod i64;
#[cfg(target_arch = "x86_64")]
mod i64_512;
mod movers;

pub use self::dispatch::{simd_detected, Leg};
pub use self::f64::{
    bit_reverse_copy_pair, fold_twist, radix2_stage, radix2_stage_pair, untwist_to_torus, Reversed,
};
pub(crate) use self::f64::{
    bundle_product, bundle_row, mul_acc, reduce_turns, round_half_away, FIRST_WIDE_STAGE,
};
pub(crate) use self::i64::{
    i64_bundle_product, i64_bundle_row, i64_mul_acc, i64_radix2_stage, LiftSplit,
};
pub use self::i64::{i64_fold_rotate, i64_rotate, MAC_LANE_BOUND, MAC_SHIFTS};
pub use self::movers::{bit_reverse_copy, int_words, torus_words, FoldDigit};

#[cfg(test)]
mod tests {
    use super::f64::{radix2_stage_scalar, TWO_32};
    use super::i64::I64_LANE_BOUND;
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use super::{f64::untwist_to_torus_avx, i64::LiftLanes};
    use matcha_math::Torus32;

    #[test]
    fn force_override_wins() {
        // A leg the caller names wins where the CPU runs it.
        assert_eq!(Leg::Scalar.narrowed(), Leg::Scalar);
        assert_eq!(Leg::Avx2.narrowed() == Leg::Avx2, simd_detected());
        // A leg the CPU lacks narrows to the widest one it has.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Leg::Avx512.narrowed() == Leg::Avx512,
            simd_detected() && is_x86_feature_detected!("avx512f")
        );
        assert!(
            Leg::Avx2.narrowed() <= Leg::Avx2,
            "naming AVX2 runs no wider leg"
        );
        // The host leg is one the CPU runs.
        assert_eq!(Leg::host().narrowed(), Leg::host());
    }

    #[test]
    fn scalar_radix2_stage_is_a_butterfly() {
        // One length-2 stage with w = 1: (a, b) -> (a+b, a-b).
        let mut re = vec![1.0, 2.0, 3.0, 5.0];
        let mut im = vec![0.5, -0.5, 1.5, -1.5];
        radix2_stage_scalar(&mut re, &mut im, &[1.0], &[0.0], 2);
        assert_eq!(re, vec![3.0, -1.0, 8.0, -2.0]);
        assert_eq!(im, vec![0.0, 1.0, 0.0, 3.0]);
    }

    /// The reduction written with libm's `round`, kept as the contract:
    /// the centred residue's ties go away from zero.
    fn reference_reduce(x: f64) -> u32 {
        const SCALE: f64 = 4294967296.0;
        let turns = x / SCALE;
        let frac = turns - turns.round();
        (frac * SCALE).round() as i64 as u32
    }

    /// Both legs of the reduction on `xs`: the scalar one through
    /// `twist::f64_to_torus_mod`, the vector one (where the CPU has it) by
    /// calling the AVX tail directly with an identity twist.
    fn assert_reduction_matches_reference(xs: &[f64]) {
        for &x in xs {
            assert_eq!(
                crate::twist::f64_to_torus_mod(x).raw(),
                reference_reduce(x),
                "scalar leg, x = {x:e} ({:#018x})",
                x.to_bits()
            );
        }
        #[cfg(target_arch = "x86_64")]
        if simd_detected() {
            let m = xs.len().next_multiple_of(4);
            let mut re = xs.to_vec();
            re.resize(m, 0.0);
            let im: Vec<f64> = re.iter().rev().copied().collect();
            let (ones, zeros) = (vec![1.0; m], vec![0.0; m]);
            let mut lo = vec![Torus32::ZERO; m];
            let mut hi = vec![Torus32::ZERO; m];
            // SAFETY: simd_detected() says AVX2+FMA are present.
            unsafe {
                untwist_to_torus_avx(&re, &im, &ones, &zeros, 1.0 / TWO_32, &mut lo, &mut hi)
            };
            for k in 0..m {
                assert_eq!(
                    lo[k].raw(),
                    reference_reduce(re[k]),
                    "vector leg, x = {:e}",
                    re[k]
                );
                assert_eq!(
                    hi[k].raw(),
                    reference_reduce(im[k]),
                    "vector leg, x = {:e}",
                    im[k]
                );
            }
        }
    }

    #[test]
    fn reduction_matches_reference_on_integers_ties_and_edges() {
        let two_32 = TWO_32;
        let mut xs = vec![0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 0.499_999_999_999_999_94];
        // Exact integers and half-integers k + ½ around every power of two
        // (half-integers exist up to 2^52; integers are tested to 2^61).
        for j in 0..=61u32 {
            let p = (1u64 << j) as f64;
            for d in [-2.0, -1.0, 0.0, 1.0, 2.0] {
                let k = p + d;
                xs.extend([k, -k]);
                if j < 52 {
                    xs.extend([k + 0.5, -(k + 0.5), k - 0.5, -(k - 0.5)]);
                }
            }
        }
        // Residues at and around ±2^31 — the tie of the *turn* rounding —
        // reached from both signs and many wrap counts, and half-integer
        // residues reached from the other sign (where rounding `x` itself
        // and then wrapping would go the wrong way).
        for wraps in [0.0, 1.0, 2.0, 3.0, 1024.0, 65_537.0, 1_048_575.0] {
            for r in [
                2_147_483_648.0,
                2_147_483_647.5,
                2_147_483_648.5,
                2_147_483_647.0,
                0.5,
                1.5,
                2.5,
                1_000_000.5,
            ] {
                for x in [wraps * two_32 + r, wraps * two_32 - r] {
                    xs.extend([x, -x]);
                }
            }
        }
        assert_reduction_matches_reference(&xs);
    }

    #[test]
    fn reduction_matches_reference_on_a_million_samples() {
        // Magnitudes 2^-2 … 2^60 (every exponent equally likely), random
        // mantissas and signs; every 16th sample is snapped to a
        // half-integer so ties stay well represented at all magnitudes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xs: Vec<f64> = (0..1_000_000)
            .map(|i| {
                let bits = next();
                let exponent = (bits % 63) as i32 - 2;
                let mantissa = 1.0 + (bits >> 12) as f64 / (1u64 << 52) as f64;
                let x = mantissa * 2f64.powi(exponent);
                let x = if i % 16 == 0 { x.floor() + 0.5 } else { x };
                if bits & (1 << 11) != 0 {
                    -x
                } else {
                    x
                }
            })
            .collect();
        assert_reduction_matches_reference(&xs);
    }

    #[test]
    fn lift_split_covers_every_width_but_62() {
        assert_eq!(LiftSplit::new(0), None);
        assert_eq!(LiftSplit::new(62), None);
        assert_eq!(LiftSplit::new(63), None);
        for beta in 1..=61u32 {
            let split = LiftSplit::new(beta).expect("covered width");
            // The bounds the type's documentation derives the formula from.
            assert!(split.c <= 31 && split.c < beta, "beta={beta}");
            assert!((1..=30).contains(&split.out), "beta={beta}");
            assert_eq!(split.hh + beta, 31 + split.c, "beta={beta}");
            assert_eq!(split.hl + split.c, 31, "beta={beta}");
            assert_eq!(split.out + split.c, beta, "beta={beta}");
        }
        // The widths the paper and the benchmark use.
        assert_eq!(
            LiftSplit::new(38).map(|s| (s.c, s.hh, s.out)),
            Some((31, 24, 7))
        );
    }

    /// The vector lift against the `i128` definition, lane by lane: every
    /// covered `β`, coefficients at and
    /// around `0`, `±1` and `±2^β` (the lifting range's ends), inputs at and
    /// around `0`, `±2³¹` (the split point) and `±(2⁶² − 1)` (the bound).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn vector_lift_matches_i128_definition() {
        use std::arch::x86_64::*;
        if !simd_detected() {
            return;
        }
        #[target_feature(enable = "avx2")]
        fn lift4(split: LiftSplit, x: [i64; 4], alpha: [i64; 4]) -> [i64; 4] {
            let lanes = LiftLanes::new(split);
            let mut out = [0i64; 4];
            // SAFETY: three 32-byte arrays, unaligned accesses.
            unsafe {
                let a = lanes.split(_mm256_loadu_si256(alpha.as_ptr().cast()));
                let r = lanes.lift(_mm256_loadu_si256(x.as_ptr().cast()), a);
                _mm256_storeu_si256(out.as_mut_ptr().cast(), r);
            }
            out
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bound = I64_LANE_BOUND as i64;
        for beta in 1..=61u32 {
            let split = LiftSplit::new(beta).expect("covered width");
            let one = 1i64 << beta;
            let mut alphas = vec![0, 1, -1, one, -one, one - 1, 1 - one, one / 2, -(one / 2)];
            let mut xs = vec![0, 1, -1, bound - 1, 1 - bound, bound / 2, -(bound / 2)];
            for d in [-2i64, -1, 0, 1, 2] {
                xs.extend([(1 << 31) + d, -(1 << 31) + d, (1 << 32) + d]);
            }
            for _ in 0..64 {
                // Uniform in [−2^β, 2^β] and in (−2⁶², 2⁶²), at every scale.
                alphas.push((next() % (2 * one as u64 + 1)) as i64 - one);
                xs.push((next() as i64 >> 1) >> (next() % 60));
            }
            for &alpha in &alphas {
                for chunk in xs.chunks(4) {
                    let mut x = [0i64; 4];
                    x[..chunk.len()].copy_from_slice(chunk);
                    // SAFETY: simd_detected() says AVX2 is present.
                    let got = unsafe { lift4(split, x, [alpha; 4]) };
                    for lane in 0..4 {
                        assert_eq!(
                            got[lane],
                            crate::lifting::lift(x[lane], alpha, beta),
                            "beta={beta} alpha={alpha} x={}",
                            x[lane]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn round_half_away_is_round_without_libm() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            0.499_999_999_999_999_94,
        ];
        for j in 0..=40u32 {
            let p = (1u64 << j) as f64;
            for d in [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5] {
                xs.extend([p + d, -(p + d)]);
            }
        }
        // The factor quantizer's corner: (ε^N − 1)·2³⁰ = −2³¹.
        xs.extend([-2_147_483_648.0, -2_147_483_648.4, -2_147_483_647.5]);
        for x in xs {
            assert_eq!(round_half_away(x), x.round() as i64, "x = {x:e}");
            // Narrowing wraps where `f64 as i32` saturates; they agree on
            // everything that rounds into `i32`, the quantizer's range.
            if (-2_147_483_648.4..2_147_483_647.4).contains(&x) {
                assert_eq!(round_half_away(x) as i32, x.round() as i32, "x = {x:e}");
            }
        }
    }

    #[test]
    fn pair_kernel_matches_two_singles_on_every_leg() {
        for leg in Leg::ALL {
            pair_kernel_matches_two_singles(leg);
        }
    }

    fn pair_kernel_matches_two_singles(leg: Leg) {
        let m = 8;
        let c_re: Vec<f64> = (0..m).map(|k| 0.3 + k as f64).collect();
        let c_im: Vec<f64> = (0..m).map(|k| -0.7 * k as f64).collect();
        let u_re: Vec<f64> = (0..m).map(|k| (k as f64).sin()).collect();
        let u_im: Vec<f64> = (0..m).map(|k| (k as f64).cos()).collect();
        let v_re: Vec<f64> = (0..m).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let v_im: Vec<f64> = (0..m).map(|k| (k as f64) * 0.01).collect();
        let mut p1 = vec![0.25; m];
        let mut p2 = vec![-0.5; m];
        let mut p3 = vec![1.0; m];
        let mut p4 = vec![2.0; m];
        mul_acc(
            [(&mut p1, &mut p2), (&mut p3, &mut p4)],
            (&c_re, &c_im),
            [(&u_re, &u_im), (&v_re, &v_im)],
            leg,
        );
        let mut s1 = vec![0.25; m];
        let mut s2 = vec![-0.5; m];
        let mut s3 = vec![1.0; m];
        let mut s4 = vec![2.0; m];
        mul_acc([(&mut s1, &mut s2)], (&c_re, &c_im), [(&u_re, &u_im)], leg);
        mul_acc([(&mut s3, &mut s4)], (&c_re, &c_im), [(&v_re, &v_im)], leg);
        assert_eq!(p1, s1, "{leg:?}");
        assert_eq!(p2, s2, "{leg:?}");
        assert_eq!(p3, s3, "{leg:?}");
        assert_eq!(p4, s4, "{leg:?}");
    }
}
