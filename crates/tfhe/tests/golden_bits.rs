//! Golden hashes of the gate pipeline's output bits at `ParameterSet::MATCHA`.
//!
//! A change that claims to leave the arithmetic alone — a kernel folded into
//! another, a loop reordered, a buffer moved — must leave every ciphertext
//! bit as it was. This test holds that as constants: keys from fixed seeds,
//! and one FNV-1a hash over the mask and body words of every output of
//! `Gate::ALL` through `apply_into`, one `mux`, one `BootstrapKit::bootstrap`,
//! `Gate3::ALL` through `apply3_into` and one adder cell through `cell_into`
//! (the readbacks of the three-input lanes). Every output is decrypted
//! against its plaintext too.
//!
//! It runs the benchmark's two configurations, `F64Fft` at m = 2 and
//! `ApproxIntFft(38)` at m = 3, on each kernel leg, one test per
//! configuration and leg, each engine built for its leg (`with_leg`)
//! before its keys are generated. A leg this CPU does not run prints
//! "not run" and passes: its engine would run a narrower leg, whose hash
//! another test already checks.
//! `ApproxIntFft` computes the same integers on every leg, so it has one
//! golden. `F64Fft`'s vector legs contract products into FMAs where the
//! scalar leg rounds each one, so it has one golden for the scalar leg and
//! one for the vector legs (AVX-512 runs the double-precision kernels as
//! AVX2 does).
//!
//! A change that moves bits on purpose (a sampler, a key format) updates the
//! constants and lists old → new with its noise evidence. The twiddle tables
//! come from the platform's `f64::sin_cos`: a host whose libm rounds one
//! entry differently fails here, and that is a finding, not a re-pin.

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine, Leg};
use matcha_math::Torus32;
use matcha_tfhe::{ClientKey, Gate, Gate3, LweCiphertext, ParameterSet, ServerKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a over little-endian torus words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: Torus32) {
        for byte in w.raw().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sample(&mut self, c: &LweCiphertext) {
        for &w in c.mask() {
            self.word(w);
        }
        self.word(c.body());
    }
}

/// The hash of one configuration's outputs, on the engine's leg.
fn pipeline_hash<E: FftEngine>(engine: E, unroll: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
    let bits = [true, false, true];
    let [a, b, c] = bits.map(|bit| client.encrypt_with(bit, &mut rng));
    let mut hash = Fnv::new();
    let mut check = |out: &LweCiphertext, want: bool, what: &str| {
        assert_eq!(client.decrypt(out), want, "{what}");
        hash.sample(out);
    };

    let mut scratch = server.make_scratch();
    let mut out = LweCiphertext::default();
    for gate in Gate::ALL {
        server.apply_into(gate, &a, &b, &mut out, &mut scratch);
        check(&out, gate.eval(bits[0], bits[1]), &format!("{gate}"));
    }
    check(&server.mux(&a, &b, &c), bits[1], "mux");
    let mu = Torus32::from_raw(1 << 29);
    let boot = server.kit().bootstrap(server.engine(), &b, mu);
    check(&boot, false, "bootstrap");
    for gate in Gate3::ALL {
        server.apply3_into(gate, [&a, &b, &c], &mut out, &mut scratch);
        check(
            &out,
            gate.eval(bits[0], bits[1], bits[2]),
            &format!("{gate}"),
        );
    }
    let mut cell = [LweCiphertext::default(), LweCiphertext::default()];
    server.cell_into([&a, &b, &c], &mut cell, &mut scratch);
    check(&cell[0], true, "cell carry");
    check(&cell[1], false, "cell sum");

    hash.0
}

/// `F64Fft` at m = 2: the scalar leg's hash, then the vector legs'.
const F64_M2: [u64; 2] = [0x67aa_6746_b7b2_80c0, 0x3555_957d_85d9_07a4];

/// `ApproxIntFft(38)` at m = 3, every leg.
const APPROX38_M3: u64 = 0xaf9e_e06f_93fd_cb44;

/// Hashes one configuration, `engine` (built for `leg`) at `unroll` with
/// keys from `seed`, against `golden`; prints "not run" instead where this
/// CPU lacks `leg`.
fn check_golden<E: FftEngine>(engine: E, leg: Leg, unroll: usize, seed: u64, golden: u64) {
    let config = format!("{} m={unroll}", std::any::type_name::<E>());
    let runs = engine.leg();
    if runs != leg {
        println!("{leg:?} {config}: not run, this CPU runs {runs:?}");
        return;
    }
    let hash = pipeline_hash(engine, unroll, seed);
    println!("{leg:?} {config}: {hash:#018x} (golden {golden:#018x})");
    assert_eq!(hash, golden, "{leg:?} {config}: off its golden");
}

fn f64_m2(leg: Leg) {
    let engine = F64Fft::with_leg(ParameterSet::MATCHA.ring_degree, leg);
    let golden = F64_M2[usize::from(leg != Leg::Scalar)];
    check_golden(engine, leg, 2, 0x601d_0002, golden);
}

fn approx38_m3(leg: Leg) {
    let engine = ApproxIntFft::with_leg(ParameterSet::MATCHA.ring_degree, 38, leg);
    check_golden(engine, leg, 3, 0x601d_3803, APPROX38_M3);
}

#[test]
fn f64_m2_scalar() {
    f64_m2(Leg::Scalar);
}

#[test]
fn f64_m2_avx2() {
    f64_m2(Leg::Avx2);
}

#[test]
fn f64_m2_avx512() {
    f64_m2(Leg::Avx512);
}

#[test]
fn approx38_m3_scalar() {
    approx38_m3(Leg::Scalar);
}

#[test]
fn approx38_m3_avx2() {
    approx38_m3(Leg::Avx2);
}

#[test]
fn approx38_m3_avx512() {
    approx38_m3(Leg::Avx512);
}
