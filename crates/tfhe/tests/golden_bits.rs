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
//! `ApproxIntFft::new(1024, 38)` at m = 3, on every kernel leg this CPU
//! runs, each leg pinned with `force_simd` before its keys are generated.
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
//!
//! The leg override is process-global, so this binary holds one test; the
//! two configurations of a leg run side by side on two threads.

use matcha_fft::{active_leg, force_simd, ApproxIntFft, F64Fft, FftEngine, Leg};
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

/// The hash of one configuration's outputs, keys generated under the leg
/// active at the call.
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

/// The legs `force_simd` pins on this CPU, printing the ones it narrows.
fn runnable_legs() -> Vec<Leg> {
    let mut ran = Vec::new();
    for leg in Leg::ALL {
        force_simd(Some(leg));
        if active_leg() == leg {
            ran.push(leg);
        } else {
            println!(
                "leg {leg:?} not run: this CPU runs {:?} for it",
                active_leg()
            );
        }
    }
    force_simd(None);
    ran
}

#[test]
fn gate_outputs_match_golden_hashes() {
    /// `F64Fft` at m = 2: the scalar leg's hash, then the vector legs'.
    const F64_M2: [u64; 2] = [0x67aa_6746_b7b2_80c0, 0x3555_957d_85d9_07a4];
    /// `ApproxIntFft(38)` at m = 3, every leg.
    const APPROX38_M3: u64 = 0xaf9e_e06f_93fd_cb44;
    let n = ParameterSet::MATCHA.ring_degree;
    let mut wrong = Vec::new();
    for leg in runnable_legs() {
        force_simd(Some(leg));
        let (f64_m2, approx38_m3) = std::thread::scope(|s| {
            let f64_m2 = s.spawn(|| pipeline_hash(F64Fft::new(n), 2, 0x601d_0002));
            let approx38_m3 = pipeline_hash(ApproxIntFft::new(n, 38), 3, 0x601d_3803);
            (f64_m2.join().expect("F64Fft m=2 panicked"), approx38_m3)
        });
        let f64_golden = F64_M2[usize::from(leg != Leg::Scalar)];
        for (config, hash, golden) in [
            ("F64Fft m=2", f64_m2, f64_golden),
            ("ApproxIntFft(38) m=3", approx38_m3, APPROX38_M3),
        ] {
            println!("{leg:?} {config}: {hash:#018x} (golden {golden:#018x})");
            if hash != golden {
                wrong.push(format!(
                    "{leg:?} {config}: {hash:#018x}, golden {golden:#018x}"
                ));
            }
        }
    }
    force_simd(None);
    assert!(wrong.is_empty(), "hashes off their goldens: {wrong:#?}");
}
