//! Property-based tests for the FFT engines: correctness of every engine
//! against the exact negacyclic convolution, equivalence of the shift-add
//! and multiply realizations, and error monotonicity in the twiddle width.

use matcha_fft::{
    key_exponent, ApproxIntFft, DyadicCoeff, F64Fft, FftEngine, KeyBlock, LiftingRotation,
};
use matcha_math::{IntPolynomial, Torus32, TorusPolynomial};
use proptest::prelude::*;

mod common;

const N: usize = 32;

/// A second ring degree for the round-trip and naive-product properties:
/// `log2 M` is even at [`N`] (`M = 16`) and odd here (`M = 32`), so the
/// stage loops end once on a pair of stages and once on a single one.
const N_ODD: usize = 64;

fn torus_poly_of(n: usize) -> impl Strategy<Value = TorusPolynomial> {
    proptest::collection::vec(any::<u32>().prop_map(Torus32::from_raw), n)
        .prop_map(TorusPolynomial::from_coeffs)
}

fn digit_poly_of(n: usize) -> impl Strategy<Value = IntPolynomial> {
    proptest::collection::vec(-512i32..512, n).prop_map(IntPolynomial::from_coeffs)
}

/// `acc += a`, point by point, on split `(re, im)` components.
fn add_split<T: Copy + std::ops::AddAssign>(acc: (&mut [T], &mut [T]), a: (&[T], &[T])) {
    assert_eq!(acc.0.len(), a.0.len(), "spectrum size mismatch");
    let dst = acc.0.iter_mut().chain(acc.1.iter_mut());
    for (d, &x) in dst.zip(a.0.iter().chain(a.1)) {
        *d += x;
    }
}

fn torus_poly() -> impl Strategy<Value = TorusPolynomial> {
    torus_poly_of(N)
}

fn digit_poly() -> impl Strategy<Value = IntPolynomial> {
    digit_poly_of(N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f64_engine_matches_naive(
        p in torus_poly(),
        q in digit_poly(),
        p_odd in torus_poly_of(N_ODD),
        q_odd in digit_poly_of(N_ODD),
    ) {
        for (p, q) in [(&p, &q), (&p_odd, &q_odd)] {
            let fast = F64Fft::new(p.len()).poly_mul(p, q);
            prop_assert!(fast.max_distance(&p.naive_mul_int(q)) < 1e-6, "n={}", p.len());
        }
    }

    #[test]
    fn approx_engine_matches_naive_at_high_precision(
        p in torus_poly(),
        q in digit_poly(),
        p_odd in torus_poly_of(N_ODD),
        q_odd in digit_poly_of(N_ODD),
    ) {
        for (p, q) in [(&p, &q), (&p_odd, &q_odd)] {
            let fast = ApproxIntFft::new(p.len(), 50).poly_mul(p, q);
            prop_assert!(fast.max_distance(&p.naive_mul_int(q)) < 1e-6, "n={}", p.len());
        }
    }

    #[test]
    fn dyadic_shift_add_equals_multiply(
        coef in -1.0f64..1.0,
        beta in 4u32..60,
        x in -(1i64 << 48)..(1i64 << 48),
    ) {
        let c = DyadicCoeff::quantize(coef, beta);
        prop_assert_eq!(c.apply(x), c.apply_shift_add(x));
    }

    #[test]
    fn lifting_rotation_shift_add_equals_multiply(
        theta in -10.0f64..10.0,
        bits in 4u32..60,
        x in -(1i64 << 40)..(1i64 << 40),
        y in -(1i64 << 40)..(1i64 << 40),
    ) {
        let rot = LiftingRotation::from_angle(theta, bits);
        prop_assert_eq!(rot.apply(x, y), rot.apply_shift_add(x, y));
    }

    #[test]
    fn lifting_rotation_approximates_true_rotation(
        theta in -std::f64::consts::TAU..std::f64::consts::TAU,
        x in -(1i64 << 30)..(1i64 << 30),
        y in -(1i64 << 30)..(1i64 << 30),
    ) {
        let rot = LiftingRotation::from_angle(theta, 48);
        let (rx, ry) = rot.apply(x, y);
        let (ex, ey) = (
            (x as f64 * theta.cos() - y as f64 * theta.sin()),
            (x as f64 * theta.sin() + y as f64 * theta.cos()),
        );
        prop_assert!((rx as f64 - ex).abs() < 16.0, "re: {rx} vs {ex}");
        prop_assert!((ry as f64 - ey).abs() < 16.0, "im: {ry} vs {ey}");
    }

    #[test]
    fn forward_is_linear_modulo_one(p in torus_poly(), q in torus_poly()) {
        // Spectra of wrapped sums differ by multiples of 2^32, which the
        // backward reduction absorbs: backward(F(p) + F(q)) = p + q mod 1.
        // The spectra are summed through their public fields.
        let direct = p.clone() + &q;
        let f = F64Fft::new(N);
        let (mut sum, fq) = (f.forward_torus(&p), f.forward_torus(&q));
        add_split((&mut sum.re, &mut sum.im), (&fq.re, &fq.im));
        prop_assert!(f.backward_torus(&sum).max_distance(&direct) < 1e-6, "F64Fft");
        let a = ApproxIntFft::new(N, 50);
        let (mut sum, fq) = (a.forward_torus(&p), a.forward_torus(&q));
        prop_assert_eq!(sum.frac_bits, fq.frac_bits);
        add_split((&mut sum.re, &mut sum.im), (&fq.re, &fq.im));
        prop_assert!(a.backward_torus(&sum).max_distance(&direct) < 1e-6, "ApproxIntFft");
    }

    #[test]
    fn roundtrip_identity_for_all_engines(p in torus_poly(), p_odd in torus_poly_of(N_ODD)) {
        for p in [&p, &p_odd] {
            let n = p.len();
            let f = F64Fft::new(n);
            prop_assert!(f.backward_torus(&f.forward_torus(p)).max_distance(p) < 1e-7, "n={n}");
            let a = ApproxIntFft::new(n, 50);
            prop_assert!(a.backward_torus(&a.forward_torus(p)).max_distance(p) < 1e-6, "n={n}");
        }
    }

    #[test]
    fn monomial_scale_matches_coefficient_domain(
        base in torus_poly(),
        src in torus_poly(),
        e in -64i64..64,
    ) {
        for_each_engine_monomial(&base, &src, e)?;
    }

    #[test]
    fn error_never_improves_with_fewer_bits(p in torus_poly(), q in digit_poly()) {
        let exact = p.naive_mul_int(&q);
        let coarse = ApproxIntFft::new(N, 12).poly_mul(&p, &q).max_distance(&exact);
        let fine = ApproxIntFft::new(N, 44).poly_mul(&p, &q).max_distance(&exact);
        // Allow slack for lucky coarse cases; fine must never be much worse.
        prop_assert!(fine <= coarse + 1e-6, "fine {fine} vs coarse {coarse}");
    }
}

fn for_each_engine_monomial(
    base: &TorusPolynomial,
    src: &TorusPolynomial,
    e: i64,
) -> Result<(), TestCaseError> {
    let mut expected = base.clone();
    expected.add_rotate_minus_one(src, e);

    prop_assert!(scaled(&F64Fft::new(N), base, src, e).max_distance(&expected) < 1e-6);
    prop_assert!(scaled(&ApproxIntFft::new(N, 50), base, src, e).max_distance(&expected) < 1e-5);
    Ok(())
}

/// `base + (X^e − 1)·src` through the engine's bundle-row path, `src`
/// stored as a one-pattern key.
fn scaled<E: FftEngine>(
    engine: &E,
    base: &TorusPolynomial,
    src: &TorusPolynomial,
    e: i64,
) -> TorusPolynomial {
    let exp = key_exponent(N);
    let block = common::stored_block(engine, &[engine.forward_torus(src)], exp);
    let key = KeyBlock {
        stream: &block,
        patterns: 1,
        exp,
    };
    let mut factors = E::MonomialFactors::default();
    engine.monomial_factors_into([e].into_iter(), exp, &mut factors);
    let mut acc = engine.zero_spectrum();
    engine.bundle_row_into(&engine.forward_torus(base), key, &[0], &factors, &mut acc);
    engine.backward_torus(&acc)
}
