//! The bootstrap pipeline runs through caller-owned scratch buffers, and
//! what it computes must not depend on them: a *warmed* scratch (dirty
//! with an earlier call's spectra, factor tables and test vector) gives
//! the bits a cold one does, at every level — external product, bundle
//! construction, the full gate bootstrap and the programmable one — and
//! keeps decrypting correctly. The external product is also held against
//! the textbook one, written here from the engines' public primitives,
//! and a bundle built on the scalar kernel leg against the same bundle
//! built on the vector leg: over a stored key the two agree bit for bit.

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine};
use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial, TorusSampler};
use matcha_tfhe::{
    BootstrapKit, ClientKey, EpScratch, LweCiphertext, ParameterSet, RingSecretKey, TgswCiphertext,
    TgswSpectrum, TrlweCiphertext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{RwLock, RwLockReadGuard};

const MU: f64 = 0.125;

/// `force_simd` is process-global and the f64 transforms differ by ulps
/// between the legs, so a test that compares two of its own runs must not
/// have the leg change under it: such tests hold this lock shared, the
/// bundle tests, which pin each leg in turn, exclusively.
static LEG: RwLock<()> = RwLock::new(());

fn current_leg() -> RwLockReadGuard<'static, ()> {
    LEG.read().unwrap_or_else(|e| e.into_inner())
}

fn params() -> ParameterSet {
    ParameterSet {
        ring_degree: 64,
        ..ParameterSet::TEST_FAST
    }
}

/// The external product as the paper's §2 states it: materialize the `2ℓ`
/// digit polynomials, transform each, accumulate it against its key row,
/// transform the two sums back. The reference the fused, in-place
/// `external_product_assign` is checked against.
fn textbook_external_product<E: FftEngine>(
    engine: &E,
    tgsw: &TgswSpectrum<E>,
    c: &TrlweCiphertext,
    decomp: &GadgetDecomposer,
) -> TrlweCiphertext {
    let mut digits = decomp.decompose_poly(c.mask());
    digits.extend(decomp.decompose_poly(c.body()));
    let mut acc_a = engine.zero_spectrum();
    let mut acc_b = engine.zero_spectrum();
    for (digit, row) in digits.iter().zip(tgsw.rows()) {
        let fd = engine.forward_int(digit);
        engine.mul_accumulate(&mut acc_a, &fd, &row.a);
        engine.mul_accumulate(&mut acc_b, &fd, &row.b);
    }
    TrlweCiphertext::from_parts(engine.backward_torus(&acc_a), engine.backward_torus(&acc_b))
}

/// The fused decompose→twist external product must match the textbook one
/// bit for bit, through a cold scratch and through a warmed one, on any
/// engine.
fn check_external_product<E: FftEngine>(engine: &E, seed: u64) {
    let _leg = current_leg();
    let p = params();
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(seed));
    let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
    let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
    let tgsw =
        TgswCiphertext::encrypt_constant(1, &key, &p, engine, &mut sampler).to_spectrum(engine);
    let mu = TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree);
    let c = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, engine, &mut sampler);

    let textbook = textbook_external_product(engine, &tgsw, &c, &decomp);
    let mut scratch = EpScratch::new(engine, &p);
    for state in ["cold", "warmed"] {
        let mut inplace = c.clone();
        tgsw.external_product_assign(engine, &mut inplace, &decomp, &mut scratch);
        assert_eq!(textbook, inplace, "seed {seed}: {state} call diverged");
    }
}

#[test]
fn external_product_assign_is_bit_identical() {
    for seed in [3u64, 17, 99] {
        check_external_product(&F64Fft::new(params().ring_degree), seed);
    }
}

#[test]
fn external_product_assign_matches_on_integer_engine() {
    check_external_product(&ApproxIntFft::new(params().ring_degree, 45), 23);
}

/// `build_bundle_into` through fresh buffers on the scalar kernel leg,
/// through fresh buffers on the vector leg, and through one bundle buffer
/// and one factor buffer carried, dirty, from group to group — at unroll
/// 1, 2 and 3, where 16 = 5·3 + 1 ends in a short group (and the last
/// row of the last group in the last words of the key, where the rows'
/// lookahead has nowhere left to go), with one exponent vector that
/// zeroes a pattern's exponent (its slot is skipped and the factor tables
/// close ranks) and one that zeroes them all (the bundle is `H`). Spectra
/// are engine-specific types without `PartialEq`; their `Debug` output
/// prints every component exactly, so equal strings mean equal bundles.
fn check_bundle_equivalence<E: FftEngine + std::fmt::Debug>(engine: &E, seed: u64) {
    let _legs = LEG.write().unwrap_or_else(|e| e.into_inner());
    struct Auto;
    impl Drop for Auto {
        fn drop(&mut self) {
            matcha_fft::force_simd(None);
        }
    }
    let _auto = Auto;
    let p = params();
    let two_n = p.two_n();
    let gadget = TgswCiphertext::trivial_one(&p).to_spectrum(engine);
    for unroll in 1..=3usize {
        let mut rng = StdRng::seed_from_u64(seed + unroll as u64);
        let client = ClientKey::generate(p, &mut rng);
        let kit = BootstrapKit::generate(&client, engine, unroll, &mut rng);
        let bk = kit.bootstrapping_key();
        let last = bk.groups().last().expect("at least one group");
        assert_eq!(last.len() < unroll, unroll == 3, "only m = 3 ends short");
        let mut bundle = gadget.clone();
        let mut factors = E::MonomialFactors::default();
        for (g, group) in bk.groups().iter().enumerate() {
            let spread: Vec<u32> = (0..group.len())
                .map(|i| (5 + 11 * g as u32 + 29 * i as u32) % two_n)
                .collect();
            // ā₀ + ā₁ ≡ 0 (mod 2N): pattern 0b11 contributes nothing.
            let mut cancelling = spread.clone();
            if let [a0, a1, ..] = cancelling[..] {
                cancelling[1] = (two_n - a0) % two_n;
                assert_ne!(a1, cancelling[1]);
            }
            let zeros = vec![0; group.len()];
            for exponents in [&spread, &cancelling, &zeros] {
                let fresh = |vector_leg: bool| {
                    matcha_fft::force_simd(Some(vector_leg));
                    let (mut fresh, mut fresh_factors) = (gadget.clone(), Default::default());
                    bk.build_bundle_into(
                        engine,
                        group,
                        exponents,
                        two_n,
                        &mut fresh,
                        &mut fresh_factors,
                    );
                    format!("{:?}", fresh.rows())
                };
                let (scalar, vector) = (fresh(false), fresh(true));
                bk.build_bundle_into(engine, group, exponents, two_n, &mut bundle, &mut factors);
                let context = format!("unroll={unroll} group={g} exponents={exponents:?}");
                assert_eq!(scalar, vector, "across legs, {context}");
                assert_eq!(vector, format!("{:?}", bundle.rows()), "reused, {context}");
            }
        }
    }
}

#[test]
fn build_bundle_into_is_bit_identical_f64() {
    check_bundle_equivalence(&F64Fft::new(params().ring_degree), 171);
}

#[test]
fn build_bundle_into_is_bit_identical_approx() {
    check_bundle_equivalence(&ApproxIntFft::new(params().ring_degree, 45), 174);
}

fn check_bootstrap_equivalence<E: FftEngine>(engine: &E, unroll: usize, seed: u64) {
    let _leg = current_leg();
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let kit = BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let mu = Torus32::from_f64(MU);
    let mut scratch = kit.make_scratch(engine);
    let (mut cold, mut out) = (LweCiphertext::default(), LweCiphertext::default());

    for (round, message) in [true, false, true, false].into_iter().enumerate() {
        let c = client.encrypt_with(message, &mut rng);
        kit.bootstrap_into(engine, &c, mu, &mut cold, &mut kit.make_scratch(engine));
        // The same scratch is reused across rounds: rounds ≥ 1 run warmed.
        kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);
        assert_eq!(
            cold, out,
            "unroll={unroll} round={round}: warmed bootstrap diverged"
        );
        assert_eq!(
            client.decrypt(&out),
            message,
            "unroll={unroll} round={round}"
        );
    }
}

#[test]
fn warmed_scratch_bootstrap_is_bit_identical_m1() {
    check_bootstrap_equivalence(&F64Fft::new(256), 1, 141);
}

#[test]
fn warmed_scratch_bootstrap_is_bit_identical_m3() {
    check_bootstrap_equivalence(&F64Fft::new(256), 3, 143);
}

#[test]
fn warmed_scratch_bootstrap_is_bit_identical_m2() {
    check_bootstrap_equivalence(&F64Fft::new(256), 2, 144);
}

#[test]
fn warmed_scratch_bootstrap_is_bit_identical_approx() {
    check_bootstrap_equivalence(&ApproxIntFft::new(256, 45), 2, 145);
}

/// The issue's regression test: warm a scratch, then keep bootstrapping
/// through it — every output must still decrypt to the right message with
/// healthy noise margins.
#[test]
fn warmed_scratch_keeps_decrypting_correctly() {
    let _leg = current_leg();
    let mut rng = StdRng::seed_from_u64(151);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    let mu = Torus32::from_f64(MU);
    let mut scratch = kit.make_scratch(&engine);
    let mut out = LweCiphertext::default();
    for i in 0..8 {
        let message = i % 3 == 0;
        let c = client.encrypt_with(message, &mut rng);
        kit.bootstrap_into(&engine, &c, mu, &mut out, &mut scratch);
        assert_eq!(client.decrypt(&out), message, "iteration {i}");
        let noise = client.noise_of(&out, message).abs();
        assert!(noise < 0.03, "iteration {i}: noise {noise}");
    }
}

#[test]
fn lut_bootstrap_into_is_bit_identical() {
    let _leg = current_leg();
    use matcha_tfhe::pbs::Lut;
    let mut rng = StdRng::seed_from_u64(161);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    let eighth = Torus32::from_dyadic(1, 3);
    let lut = Lut::from_fn(256, |k| if k < 128 { eighth } else { -eighth });
    let mut scratch = kit.make_scratch(&engine);
    let mut out = LweCiphertext::default();
    // The scratch arrives dirty with a gate bootstrap's test vector.
    let c = client.encrypt_with(true, &mut rng);
    kit.bootstrap_into(&engine, &c, eighth, &mut out, &mut scratch);
    let mut cold = LweCiphertext::default();
    for message in [true, false, true] {
        let c = client.encrypt_with(message, &mut rng);
        kit.bootstrap_with_lut_into(&engine, &c, &lut, &mut cold, &mut kit.make_scratch(&engine));
        kit.bootstrap_with_lut_into(&engine, &c, &lut, &mut out, &mut scratch);
        assert_eq!(cold, out);
    }
}
