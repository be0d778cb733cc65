//! End-to-end gate correctness across FFT engines and unroll factors.

use matcha::{ApproxIntFft, ClientKey, F64Fft, Gate, ParameterSet, ServerKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

fn client(seed: u64) -> (ClientKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    (c, rng)
}

#[test]
fn every_gate_every_input_f64_engine() {
    let (client, mut rng) = client(1);
    let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
    for gate in Gate::ALL {
        for (a, b) in CASES {
            let ca = client.encrypt_with(a, &mut rng);
            let cb = client.encrypt_with(b, &mut rng);
            assert_eq!(
                client.decrypt(&server.apply(gate, &ca, &cb)),
                gate.eval(a, b),
                "{gate}({a},{b})"
            );
        }
    }
}

#[test]
fn every_gate_with_approximate_integer_fft() {
    let (client, mut rng) = client(2);
    let server = ServerKey::with_unrolling(&client, ApproxIntFft::new(256, 40), 2, &mut rng);
    for gate in Gate::ALL {
        for (a, b) in CASES {
            let ca = client.encrypt_with(a, &mut rng);
            let cb = client.encrypt_with(b, &mut rng);
            assert_eq!(
                client.decrypt(&server.apply(gate, &ca, &cb)),
                gate.eval(a, b),
                "{gate}({a},{b}) with approx FFT"
            );
        }
    }
}

#[test]
fn coarse_twiddles_still_decrypt_correctly() {
    // The paper's core claim: FFT approximation error is flushed by the
    // per-gate bootstrap. Even 18-bit twiddles survive at test parameters.
    let (client, mut rng) = client(4);
    let server = ServerKey::new(&client, ApproxIntFft::new(256, 22), &mut rng);
    for (a, b) in CASES {
        let ca = client.encrypt_with(a, &mut rng);
        let cb = client.encrypt_with(b, &mut rng);
        assert_eq!(client.decrypt(&server.xor(&ca, &cb)), a ^ b, "XOR({a},{b})");
    }
}

#[test]
fn long_dependent_gate_chain() {
    // 20 dependent gates: noise must stay bounded thanks to per-gate
    // bootstrapping (TFHE's unlimited-depth property, Table 1).
    let (client, mut rng) = client(5);
    let server = ServerKey::with_unrolling(&client, ApproxIntFft::new(256, 40), 2, &mut rng);
    let mut acc = client.encrypt_with(false, &mut rng);
    let mut expected = false;
    for i in 0..20 {
        let v = i % 3 == 0;
        let c = client.encrypt_with(v, &mut rng);
        if i % 2 == 0 {
            acc = server.xor(&acc, &c);
            expected ^= v;
        } else {
            acc = server.nand(&acc, &c);
            expected = !(expected && v);
        }
        assert_eq!(client.decrypt(&acc), expected, "step {i}");
    }
}

#[test]
fn engines_agree_on_the_same_ciphertext() {
    let (client, mut rng) = client(6);
    let exact = ServerKey::new(&client, F64Fft::new(256), &mut rng);
    let approx = ServerKey::new(&client, ApproxIntFft::new(256, 40), &mut rng);
    for (a, b) in CASES {
        let ca = client.encrypt_with(a, &mut rng);
        let cb = client.encrypt_with(b, &mut rng);
        assert_eq!(
            client.decrypt(&exact.nand(&ca, &cb)),
            client.decrypt(&approx.nand(&ca, &cb)),
            "engines disagree on NAND({a},{b})"
        );
    }
}
