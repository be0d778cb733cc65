//! SIMD-vs-scalar equivalence for every engine.
//!
//! The kernel legs in `matcha_fft::simd` must agree:
//!
//! * **bit-identical** where the operation order is preserved — the integer
//!   engine (scalar kernels on both legs), the fused pair kernels against
//!   two single calls *within* one leg, and the reduction mod `2^32` at the
//!   end of the fused backward tail *across* legs (on identical untwisted
//!   values);
//! * **bounded-ulp** where the vector leg contracts `a·b ± c·d` into FMAs —
//!   the three double-precision engines, compared here through exact
//!   backward-transformed torus coefficients with a tolerance far below
//!   TFHE's noise floor but far above any legitimate ulp drift.
//!
//! `force_simd` is process-global, so every test takes a mutex; on CPUs
//! without AVX2+FMA both sides force to the scalar leg and the comparisons
//! hold trivially (the CI matrix runs the suite with `MATCHA_SIMD` forced
//! both ways for the same reason).

use matcha_fft::{
    force_simd, simd, simd_active, simd_detected, twist, ApproxIntFft, DepthFirstFft, F64Fft,
    FftEngine, Radix4Fft,
};
use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial};
use std::sync::{Mutex, MutexGuard};

static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Serializes force_simd users and restores auto mode afterwards.
struct ForceGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForceGuard {
    fn lock() -> Self {
        Self(SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        force_simd(None);
    }
}

fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
    TorusPolynomial::from_coeffs(
        (0..n as u32)
            .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9).wrapping_add(seed)))
            .collect(),
    )
}

/// Runs the full external-product-shaped pipeline on one engine with the
/// current kernel leg: fused decomposed forwards, pair accumulation, bundle
/// scale, backward. Returns the two backward-transformed polynomials.
fn pipeline<E: FftEngine>(engine: &E, seed: u32) -> (TorusPolynomial, TorusPolynomial) {
    let n = engine.ring_degree();
    let decomp = GadgetDecomposer::new(8, 3);
    let p = random_torus_poly(n, seed);
    let q = random_torus_poly(n, seed ^ 0xdead);
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
        engine.mul_accumulate_pair(&mut acc_a, &mut acc_b, &fd, &fq, &fq);
    }
    // Bundle path: one row `fq + Σ (X^e − 1)·fq` over three patterns.
    let mut factors = E::MonomialFactors::default();
    engine.monomial_factors_into([7, n as i64 + 3, -5].into_iter(), &mut factors);
    let mut bundle_b = engine.zero_spectrum();
    engine.bundle_row_into(&fq, [&fq, &fq, &fq].into_iter(), &factors, &mut bundle_b);

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

fn check_f64_engine<E: FftEngine>(engine: &E, seed: u32) {
    let _g = ForceGuard::lock();
    force_simd(Some(false));
    assert!(!simd_active());
    let (scalar_a, scalar_b) = pipeline(engine, seed);
    force_simd(Some(true));
    let (simd_a, simd_b) = pipeline(engine, seed);
    let da = scalar_a.max_distance(&simd_a);
    let db = scalar_b.max_distance(&simd_b);
    assert!(da < TOL, "external-product pipeline diverged: {da}");
    assert!(db < TOL, "bundle pipeline diverged: {db}");
}

#[test]
fn f64_simd_matches_scalar() {
    check_f64_engine(&F64Fft::new(1024), 11);
    check_f64_engine(&F64Fft::new(64), 12);
}

#[test]
fn depth_first_simd_matches_scalar() {
    check_f64_engine(&DepthFirstFft::new(1024), 21);
    check_f64_engine(&DepthFirstFft::new(64), 22);
}

#[test]
fn radix4_simd_matches_scalar() {
    check_f64_engine(&Radix4Fft::new(1024), 31);
    check_f64_engine(&Radix4Fft::new(64), 32);
}

#[test]
fn approx_simd_leg_is_bit_identical() {
    // The integer engine's kernels are scalar on both legs (no 64-bit lane
    // multiply in AVX2), so the flag must change *nothing*.
    let _g = ForceGuard::lock();
    let engine = ApproxIntFft::new(256, 45);
    force_simd(Some(false));
    let (sa, sb) = pipeline(&engine, 41);
    force_simd(Some(true));
    let (va, vb) = pipeline(&engine, 41);
    assert_eq!(sa, va);
    assert_eq!(sb, vb);
}

#[test]
fn forward_roundtrip_matches_across_legs() {
    // Bare forward/backward roundtrip, each leg internally consistent and
    // both agreeing on the recovered polynomial.
    let _g = ForceGuard::lock();
    for n in [8usize, 64, 1024] {
        let engine = F64Fft::new(n);
        let p = random_torus_poly(n, 5);
        force_simd(Some(false));
        let scalar = engine.backward_torus(&engine.forward_torus(&p));
        force_simd(Some(true));
        let simd = engine.backward_torus(&engine.forward_torus(&p));
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
    let _g = ForceGuard::lock();
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
    let run = |force: bool| {
        force_simd(Some(force));
        let mut lo = vec![Torus32::ZERO; m];
        let mut hi = vec![Torus32::ZERO; m];
        simd::untwist_to_torus(&re, &im, &ones, &zeros, inv_len, &mut lo, &mut hi);
        (lo, hi)
    };
    let (scalar_lo, scalar_hi) = run(false);
    let (simd_lo, simd_hi) = run(true);
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
    // Within one leg the single-pass row is bit-identical to what it
    // replaced — copy `H`, then one `mul_accumulate` per term with the
    // factor table as left operand — because it keeps that element order.
    // Eleven terms also cross the kernel's source-table size.
    let _g = ForceGuard::lock();
    for force in [Some(false), Some(true)] {
        force_simd(force);
        let engine = F64Fft::new(256);
        let h = engine.forward_torus(&random_torus_poly(256, 61));
        let keys: Vec<_> = (0..11)
            .map(|p| engine.forward_torus(&random_torus_poly(256, 70 + p)))
            .collect();
        let exponents: Vec<i64> = (0..11).map(|p| 19 * p - 40).collect();
        let mut factors = Default::default();
        engine.monomial_factors_into(exponents.iter().copied(), &mut factors);
        let mut row = engine.zero_spectrum();
        engine.bundle_row_into(&h, keys.iter(), &factors, &mut row);
        let mut expected = h.clone();
        for (p, key) in keys.iter().enumerate() {
            let table = matcha_fft::CplxSpectrum {
                re: factors.re[p * 128..(p + 1) * 128].to_vec(),
                im: factors.im[p * 128..(p + 1) * 128].to_vec(),
            };
            engine.mul_accumulate(&mut expected, &table, key);
        }
        assert_eq!(row, expected, "force={force:?}");
    }
}

#[test]
fn pair_calls_match_singles_on_active_leg() {
    // Whatever leg is active (auto): one fused pair call must be
    // bit-identical to two single calls — the external product swaps
    // between them freely.
    let _g = ForceGuard::lock();
    for force in [Some(false), Some(true)] {
        force_simd(force);
        let engine = F64Fft::new(256);
        let x = engine.forward_torus(&random_torus_poly(256, 51));
        let a = engine.forward_torus(&random_torus_poly(256, 52));
        let b = engine.forward_torus(&random_torus_poly(256, 53));
        let mut pair_a = engine.zero_spectrum();
        let mut pair_b = engine.zero_spectrum();
        engine.mul_accumulate_pair(&mut pair_a, &mut pair_b, &x, &a, &b);
        let mut single_a = engine.zero_spectrum();
        let mut single_b = engine.zero_spectrum();
        engine.mul_accumulate(&mut single_a, &x, &a);
        engine.mul_accumulate(&mut single_b, &x, &b);
        assert_eq!(pair_a, single_a, "force={force:?}");
        assert_eq!(pair_b, single_b, "force={force:?}");
    }
}

#[test]
fn detection_reporting_is_consistent() {
    let _g = ForceGuard::lock();
    force_simd(Some(true));
    assert_eq!(
        simd_active(),
        simd_detected(),
        "forcing SIMD on must still respect CPU detection"
    );
    force_simd(Some(false));
    assert!(!simd_active());
}
