//! Failure injection: the suite must not only show the system working but
//! show it *failing* where theory says it must — noise beyond the margin
//! flips messages, tampered wire bytes are rejected, bad parameters are
//! refused.

use matcha::tfhe::{BootstrapKit, Codec};
use matcha::{ApproxIntFft, ClientKey, F64Fft, LweCiphertext, ParameterSet, Torus32};
use matcha_math::TorusSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn client(seed: u64) -> (ClientKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    (c, rng)
}

#[test]
fn noise_beyond_margin_flips_decryption() {
    // Inject noise of ~1/4: the ±1/8 plaintexts are only 1/4 apart, so
    // decryption must fail for some samples.
    let (client, mut rng) = client(51);
    let mut sampler = TorusSampler::new(&mut rng);
    let mut flips = 0;
    for _ in 0..50 {
        let c = LweCiphertext::encrypt(
            Torus32::from_bool(true),
            client.lwe_key(),
            0.25,
            &mut sampler,
        );
        if !c.decrypt_bool(client.lwe_key()) {
            flips += 1;
        }
    }
    assert!(
        flips > 5,
        "huge noise should flip many messages, got {flips}/50"
    );
}

#[test]
fn bootstrap_cannot_rescue_an_already_wrong_phase() {
    // Push the phase across the decision boundary before bootstrapping:
    // the bootstrap faithfully refreshes the *wrong* message.
    let (client, mut rng) = client(52);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 1, &mut rng);
    let c = client.encrypt_with(true, &mut rng);
    // Shift the phase by -1/4: +1/8 becomes -1/8.
    let n = client.params().ring_degree;
    let shifted = c - &LweCiphertext::trivial(Torus32::from_dyadic(1, 2), n);
    let out = kit.bootstrap(&engine, &shifted, Torus32::from_dyadic(1, 3));
    assert!(
        !client.decrypt(&out),
        "bootstrap must preserve the (wrong) sign"
    );
}

#[test]
fn extremely_coarse_twiddles_do_fail() {
    // At 8-bit twiddles the FFT error exceeds the noise budget: gates must
    // actually fail sometimes — the flip side of the paper's claim that
    // 38 bits suffice.
    let (client, mut rng) = client(53);
    let engine = ApproxIntFft::new(256, 8);
    let kit = BootstrapKit::generate(&client, &engine, 1, &mut rng);
    let mu = Torus32::from_dyadic(1, 3);
    let mut wrong = 0;
    for i in 0..12 {
        let msg = i % 2 == 0;
        let c = client.encrypt_with(msg, &mut rng);
        if client.decrypt(&kit.bootstrap(&engine, &c, mu)) != msg {
            wrong += 1;
        }
    }
    assert!(
        wrong > 0,
        "8-bit twiddles should break decryption sometimes"
    );
}

#[test]
fn tampered_ciphertext_bytes_rejected() {
    let (client, mut rng) = client(54);
    let c = client.encrypt_with(true, &mut rng);
    let mut bytes = c.to_bytes();
    bytes[0] ^= 0xFF; // corrupt the magic
    assert!(LweCiphertext::from_bytes(&bytes).is_err());
    let mut truncated = c.to_bytes();
    truncated.truncate(10);
    assert!(LweCiphertext::from_bytes(&truncated).is_err());
}

#[test]
fn invalid_parameter_sets_rejected_everywhere() {
    let mut p = ParameterSet::MATCHA;
    p.ring_degree = 1000; // not a power of two
    assert!(p.validate().is_err());
    assert!(ParameterSet::from_bytes(&{
        let mut out = Vec::new();
        out.extend_from_slice(b"MPAR");
        out.push(1);
        use matcha::tfhe::codec::Codec as _;
        p.encode_body(&mut out).unwrap();
        out
    })
    .is_err());
}

#[test]
fn mismatched_engine_ring_degree_panics() {
    let (client, mut rng) = client(55);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // 512 ≠ the parameter set's 256.
        let _ = matcha::ServerKey::new(&client, F64Fft::new(512), &mut rng);
    }));
    assert!(result.is_err(), "ring-degree mismatch must panic");
}
