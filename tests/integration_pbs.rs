//! Programmable bootstrapping, bucket messages, packing and wire formats,
//! end to end across crates.

use matcha::tfhe::encode::BucketEncoding;
use matcha::tfhe::{packing, pbs::Lut, BootstrapKit, Codec};
use matcha::{ApproxIntFft, ClientKey, F64Fft, LweCiphertext, ParameterSet, Torus32};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn client(seed: u64) -> (ClientKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    (c, rng)
}

#[test]
fn lut_bootstrap_on_approximate_engine() {
    // The paper's engine must support arbitrary LUTs, not only gates.
    let (client, mut rng) = client(61);
    let engine = ApproxIntFft::new(256, 40);
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    let enc = BucketEncoding::new(2);
    let double_mod4 = enc.lut(256, |x| (2 * x) % 4);
    for msg in 0..4u32 {
        let c = enc.encrypt(&client, msg, &mut rng);
        let out = kit.bootstrap_with_lut(&engine, &c, &double_mod4);
        assert_eq!(enc.decrypt(&client, &out), (2 * msg) % 4, "msg={msg}");
    }
}

#[test]
fn gate_lut_equivalence() {
    // A constant LUT is exactly the gate bootstrap.
    let (client, mut rng) = client(62);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 3, &mut rng);
    let mu = Torus32::from_dyadic(1, 3);
    let lut = Lut::from_fn(256, |_| mu);
    for msg in [true, false] {
        let c = client.encrypt_with(msg, &mut rng);
        assert_eq!(
            client.decrypt(&kit.bootstrap_with_lut(&engine, &c, &lut)),
            client.decrypt(&kit.bootstrap(&engine, &c, mu))
        );
    }
}

#[test]
fn packed_transport_feeds_lut_pipeline() {
    // Pack bits → extract under the ring key → bootstrap.
    let (client, mut rng) = client(63);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    let bits = [true, false, true, true];
    let packed = packing::pack_bits(&client, &bits, &engine, &mut rng);
    for (i, &expected) in bits.iter().enumerate() {
        let lwe = packing::extract_bit(&packed, i, kit.key_switch_key(), client.params());
        // Refresh through a gate bootstrap: message must survive.
        let out = kit.bootstrap(&engine, &lwe, Torus32::from_dyadic(1, 3));
        assert_eq!(client.decrypt(&out), expected, "bit {i}");
    }
}

#[test]
fn wire_roundtrip_through_evaluation() {
    // Client serializes inputs; "server" deserializes, evaluates, and
    // serializes the result back.
    let (client, mut rng) = client(64);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 1, &mut rng);
    let a_wire = client.encrypt_with(true, &mut rng).to_bytes();
    let b_wire = client.encrypt_with(true, &mut rng).to_bytes();

    // Server side.
    let a = LweCiphertext::from_bytes(&a_wire).unwrap();
    let b = LweCiphertext::from_bytes(&b_wire).unwrap();
    let n = client.params().ring_degree;
    let lin = LweCiphertext::trivial(Torus32::from_dyadic(1, 3), n) - &a - &b;
    let out_wire = kit
        .bootstrap(&engine, &lin, Torus32::from_dyadic(1, 3))
        .to_bytes();

    // Client side.
    let out = LweCiphertext::from_bytes(&out_wire).unwrap();
    assert!(!client.decrypt(&out), "NAND(true, true) = false");
}

#[test]
fn bucket_space_survives_many_chained_luts() {
    // Unlimited depth (Table 1): chain 8 LUT evaluations.
    let (client, mut rng) = client(65);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    let enc = BucketEncoding::new(2);
    let inc = enc.lut(256, |x| (x + 1) % 4);
    let mut c = enc.encrypt(&client, 0, &mut rng);
    for step in 1..=8u32 {
        c = kit.bootstrap_with_lut(&engine, &c, &inc);
        assert_eq!(enc.decrypt(&client, &c), step % 4, "step {step}");
    }
}
