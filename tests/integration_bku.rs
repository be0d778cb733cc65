//! Bootstrapping key unrolling, end to end: semantic equivalence across
//! unroll factors, key-size scaling, and FFT-count reduction (the property
//! the whole MATCHA pipeline is designed around).

use matcha::fft::Counting;
use matcha::tfhe::BootstrapKit;
use matcha::{ApproxIntFft, ClientKey, F64Fft, ParameterSet, ServerKey, Torus32};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn client(seed: u64) -> (ClientKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    (c, rng)
}

#[test]
fn all_unroll_factors_decrypt_identically() {
    let (client, mut rng) = client(21);
    let engine = F64Fft::new(256);
    let kits: Vec<BootstrapKit<_>> = (1..=5)
        .map(|m| BootstrapKit::generate(&client, &engine, m, &mut rng))
        .collect();
    let mu = Torus32::from_dyadic(1, 3);
    for message in [true, false] {
        let c = client.encrypt_with(message, &mut rng);
        for (i, kit) in kits.iter().enumerate() {
            let out = kit.bootstrap(&engine, &c, mu);
            assert_eq!(
                client.decrypt(&out),
                message,
                "m={} message={message}",
                i + 1
            );
        }
    }
}

#[test]
fn key_material_grows_exponentially_with_m() {
    // Table 3: (2^m − 1)·BK keys.
    let (client, mut rng) = client(22);
    let engine = F64Fft::new(256);
    let n = client.params().lwe_dimension;
    for m in 1..=4usize {
        let kit = BootstrapKit::generate(&client, &engine, m, &mut rng);
        let full_groups = n / m;
        let remainder = n % m;
        let expected = full_groups * ((1 << m) - 1)
            + if remainder > 0 {
                (1 << remainder) - 1
            } else {
                0
            };
        assert_eq!(kit.bootstrapping_key().key_count(), expected, "m={m}");
    }
}

#[test]
fn unrolling_reduces_transform_count() {
    // The point of BKU (§4.2): FFT/IFFT invocations scale with ⌈n/m⌉,
    // 2ℓ + 2 of them a step.
    let (client, mut rng) = client(23);
    let engine = Counting::new(F64Fft::new(256));
    let mu = Torus32::from_dyadic(1, 3);
    let params = client.params();
    for m in [1usize, 2, 4] {
        let kit = BootstrapKit::generate(&client, &engine, m, &mut rng);
        let c = client.encrypt_with(true, &mut rng);
        let before = engine.counts();
        let _ = kit.bootstrap(&engine, &c, mu);
        let counted = engine.counts() - before;
        let steps = params.lwe_dimension.div_ceil(m) as u64;
        assert_eq!(
            counted.forward + counted.backward,
            steps * (2 * params.decomp_levels as u64 + 2),
            "m={m}"
        );
    }
}

#[test]
fn unrolled_gates_compose_with_approx_fft() {
    // The full MATCHA configuration: aggressive unrolling (m = 4) on the
    // approximate integer engine, through a chain of gates.
    let (client, mut rng) = client(24);
    let server = ServerKey::with_unrolling(&client, ApproxIntFft::new(256, 45), 4, &mut rng);
    let a = client.encrypt_with(true, &mut rng);
    let b = client.encrypt_with(false, &mut rng);
    let c1 = server.nand(&a, &b); // true
    let c2 = server.xor(&c1, &a); // false
    let c3 = server.or(&c2, &b); // false
    assert!(!client.decrypt(&c3));
}

#[test]
fn remainder_groups_handle_non_divisible_dimensions() {
    // n = 16 with m = 5 leaves a 1-bit remainder group.
    let (client, mut rng) = client(25);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 5, &mut rng);
    let groups = kit.bootstrapping_key().groups();
    assert_eq!(groups.len(), 4);
    assert_eq!(groups.last().unwrap().len(), 1);
    let c = client.encrypt_with(true, &mut rng);
    let out = kit.bootstrap(&engine, &c, Torus32::from_dyadic(1, 3));
    assert!(client.decrypt(&out));
}
