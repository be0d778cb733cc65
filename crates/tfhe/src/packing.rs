//! Packed TRLWE transport: one ring ciphertext carries up to `N` Booleans.
//!
//! A per-bit LWE sample costs `(N+1)·4` bytes; packing the bits into the
//! coefficients of a single TRLWE sample amortizes that to `2·4` bytes per
//! bit (512× less upload at the paper's parameters for a full payload).
//! The evaluator unpacks an individual bit with
//! [`TrlweCiphertext::sample_extract_at`] and nothing else: the extracted
//! sample is under the extracted key, the key every gate reads.

use crate::keyswitch::KeySwitchKey;
use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::secret::ClientKey;
use crate::tlwe::TrlweCiphertext;
use matcha_fft::FftEngine;
use matcha_math::{Torus32, TorusPolynomial, TorusSampler};
use rand::Rng;

/// Packs up to `N` Booleans (plaintexts `±1/8`) into one TRLWE sample.
///
/// # Panics
///
/// Panics if `bits` is empty or longer than the ring degree.
///
/// # Examples
///
/// ```
/// use matcha_tfhe::{packing, ClientKey, params::ParameterSet};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
/// let engine = F64Fft::new(256);
/// let packed = packing::pack_bits(&client, &[true, false, true], &engine, &mut rng);
/// assert_eq!(packing::unpack_bits(&client, &packed, 3, &engine), vec![true, false, true]);
/// ```
pub fn pack_bits<E: FftEngine, R: Rng>(
    client: &ClientKey,
    bits: &[bool],
    engine: &E,
    rng: &mut R,
) -> TrlweCiphertext {
    let params = client.params();
    let n = params.ring_degree;
    assert!(!bits.is_empty(), "empty payload");
    assert!(
        bits.len() <= n,
        "payload of {} bits exceeds ring degree {n}",
        bits.len()
    );
    let mut mu = TorusPolynomial::zero(n);
    for (i, &b) in bits.iter().enumerate() {
        mu.coeffs_mut()[i] = Torus32::from_bool(b);
    }
    let mut sampler = TorusSampler::new(rng);
    TrlweCiphertext::encrypt(
        &mu,
        client.ring_key(),
        params.ring_noise_stdev,
        engine,
        &mut sampler,
    )
}

/// Client-side unpack (decrypts the packed sample directly).
pub fn unpack_bits<E: FftEngine>(
    client: &ClientKey,
    packed: &TrlweCiphertext,
    count: usize,
    engine: &E,
) -> Vec<bool> {
    let phase = packed.phase(client.ring_key(), engine);
    phase.coeffs()[..count]
        .iter()
        .map(|c| c.to_bool())
        .collect()
}

/// Server-side unpack: extracts bit `index` as a gate input — a sample
/// under the extracted key, nothing switched.
///
/// # Panics
///
/// Panics if `index` is out of range, if the packed sample's ring degree
/// does not match `params`, or if the key-switch key does not switch from
/// that ring degree (the key the gates this bit feeds will switch it with)
/// — each checked here, at the API boundary, so a mismatched wire
/// submission fails with a message naming the mismatch instead of
/// indexing the wrong coefficient or tripping an assertion deep inside a
/// bootstrap.
pub fn extract_bit(
    packed: &TrlweCiphertext,
    index: usize,
    ksk: &KeySwitchKey,
    params: &ParameterSet,
) -> LweCiphertext {
    check_packed(packed, params);
    assert_eq!(
        ksk.from_dimension(),
        params.ring_degree,
        "key-switch key switches from dimension {}, not ring degree {}",
        ksk.from_dimension(),
        params.ring_degree
    );
    assert!(index < params.ring_degree, "index {index} out of range");
    packed.sample_extract_at(index)
}

/// Server-side unpack of a whole upload: slots `0..count`, slot `s` being
/// coefficient `s % N` of `samples[s / N]`, as gate inputs in slot order —
/// one sample extraction each, bit-identical to its [`extract_bit`].
///
/// # Panics
///
/// Panics with [`extract_bit`]'s message on a mismatched sample, and if
/// `samples` holds fewer than `count` slots.
pub fn extract_bits(
    samples: &[TrlweCiphertext],
    count: usize,
    params: &ParameterSet,
) -> Vec<LweCiphertext> {
    let n = params.ring_degree;
    for packed in samples {
        check_packed(packed, params);
    }
    assert!(
        count <= samples.len() * n,
        "{count} slots asked of {} packed samples",
        samples.len()
    );
    (0..count)
        .map(|slot| samples[slot / n].sample_extract_at(slot % n))
        .collect()
}

/// The ring-degree check of a server-side unpack (see [`extract_bit`]).
fn check_packed(packed: &TrlweCiphertext, params: &ParameterSet) {
    assert_eq!(
        packed.ring_degree(),
        params.ring_degree,
        "packed sample ring degree {} does not match parameter ring degree {}",
        packed.ring_degree(),
        params.ring_degree
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapKit;
    use matcha_fft::F64Fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ClientKey, F64Fft, BootstrapKit<F64Fft>, StdRng) {
        let mut rng = StdRng::seed_from_u64(41);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(256);
        let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
        (client, engine, kit, rng)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (client, engine, _, mut rng) = setup();
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let packed = pack_bits(&client, &bits, &engine, &mut rng);
        assert_eq!(unpack_bits(&client, &packed, 64, &engine), bits);
    }

    #[test]
    fn extracted_bits_decrypt_under_gate_key() {
        let (client, engine, kit, mut rng) = setup();
        let bits = [true, false, false, true, true];
        let packed = pack_bits(&client, &bits, &engine, &mut rng);
        for (i, &expected) in bits.iter().enumerate() {
            let lwe = extract_bit(&packed, i, kit.key_switch_key(), client.params());
            assert_eq!(client.decrypt(&lwe), expected, "bit {i}");
        }
    }

    #[test]
    fn extract_bits_matches_extract_bit_slot_by_slot() {
        // Two samples and a count that crosses the sample boundary. Every
        // slot is the sample extraction of its coefficient, bit for bit:
        // nothing is switched on the way in.
        let (client, engine, kit, mut rng) = setup();
        let n = client.params().ring_degree;
        let bits: Vec<bool> = (0..n + 21).map(|i| i % 3 == 0 || i % 7 == 2).collect();
        let samples = [
            pack_bits(&client, &bits[..n], &engine, &mut rng),
            pack_bits(&client, &bits[n..], &engine, &mut rng),
        ];
        let ksk = kit.key_switch_key();
        let unpacked = extract_bits(&samples, bits.len(), client.params());
        assert_eq!(unpacked.len(), bits.len());
        for (slot, (lwe, &bit)) in unpacked.iter().zip(&bits).enumerate() {
            let extracted = samples[slot / n].sample_extract_at(slot % n);
            assert_eq!(*lwe, extracted, "slot {slot}");
            let alone = extract_bit(&samples[slot / n], slot % n, ksk, client.params());
            assert_eq!(*lwe, alone, "slot {slot}");
            assert_eq!(client.decrypt(lwe), bit, "slot {slot}");
        }
        assert!(extract_bits(&samples, 0, client.params()).is_empty());
    }

    #[test]
    fn extracted_bits_feed_gates() {
        // End to end: pack, extract two bits, NAND them homomorphically.
        let (client, engine, kit, mut rng) = setup();
        let packed = pack_bits(&client, &[true, true], &engine, &mut rng);
        let a = extract_bit(&packed, 0, kit.key_switch_key(), client.params());
        let b = extract_bit(&packed, 1, kit.key_switch_key(), client.params());
        let n = client.params().ring_degree;
        let lin = LweCiphertext::trivial(Torus32::from_dyadic(1, 3), n) - &a - &b;
        let out = kit.bootstrap(&engine, &lin, Torus32::from_dyadic(1, 3));
        assert!(!client.decrypt(&out), "NAND(true, true) = false");
    }

    #[test]
    fn expansion_ratio_is_large() {
        // One packed sample: 2N torus words; N LWE samples: N·(N+1) words.
        let p = ParameterSet::MATCHA;
        let packed_words = 2 * p.ring_degree;
        let lwe_words = p.ring_degree * (p.ring_degree + 1);
        assert!(lwe_words / packed_words >= 512, "packing should save ≥512×");
    }

    #[test]
    #[should_panic(expected = "exceeds ring degree")]
    fn oversized_payload_rejected() {
        let (client, engine, _, mut rng) = setup();
        let bits = vec![true; 257];
        let _ = pack_bits(&client, &bits, &engine, &mut rng);
    }

    #[test]
    #[should_panic(expected = "does not match parameter ring degree")]
    fn mismatched_packed_degree_rejected() {
        let (client, _, kit, _) = setup();
        // A sample from some other parameter set: half the ring degree.
        let packed = TrlweCiphertext::zero(client.params().ring_degree / 2);
        let _ = extract_bit(&packed, 0, kit.key_switch_key(), client.params());
    }

    #[test]
    #[should_panic(expected = "key-switch key switches from dimension")]
    fn mismatched_keyswitch_key_rejected() {
        let (client, _, kit, _) = setup();
        // Params claiming a smaller ring: the packed sample matches them,
        // but the key-switch key was built for the real ring degree.
        let mut params = *client.params();
        params.ring_degree /= 2;
        let packed = TrlweCiphertext::zero(params.ring_degree);
        let _ = extract_bit(&packed, 0, kit.key_switch_key(), &params);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let (client, engine, kit, mut rng) = setup();
        let packed = pack_bits(&client, &[true], &engine, &mut rng);
        let n = client.params().ring_degree;
        let _ = extract_bit(&packed, n, kit.key_switch_key(), client.params());
    }
}
