//! Multi-bit message encoding for programmable bootstrapping.
//!
//! Boolean gates use the two plaintexts `±1/8`; programmable bootstrapping
//! ([`crate::pbs`]) supports richer message spaces. The standard encoding
//! places `2^bits` buckets on the *positive half* of the torus (phases in
//! `(0, 1/2)`), centered at `(2k+1)/2^{bits+2}`, so that a blind rotation
//! never crosses the negacyclic boundary and every bucket enjoys the same
//! noise margin `1/2^{bits+2}`.

use crate::lwe::LweCiphertext;
use crate::pbs::Lut;
use crate::secret::ClientKey;
use matcha_math::Torus32;
use rand::Rng;

/// A `2^bits`-bucket message space on the half circle.
///
/// # Examples
///
/// ```
/// use matcha_tfhe::{encode::BucketEncoding, ClientKey, ParameterSet};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
/// let enc = BucketEncoding::new(2); // messages 0..4
/// let c = enc.encrypt(&client, 3, &mut rng);
/// assert_eq!(enc.decrypt(&client, &c), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketEncoding {
    bits: u32,
}

impl BucketEncoding {
    /// Creates the encoding with `2^bits` messages.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8.
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bucket bits {bits} outside 1..=8");
        Self { bits }
    }

    /// Number of messages `2^bits`.
    fn message_count(&self) -> u32 {
        1 << self.bits
    }

    /// The phase encoding message `msg`: `(2·msg + 1)/2^{bits+2}`.
    ///
    /// # Panics
    ///
    /// Panics if `msg ≥ 2^bits`.
    fn phase_of(&self, msg: u32) -> Torus32 {
        assert!(msg < self.message_count(), "message {msg} out of range");
        Torus32::from_dyadic((2 * msg + 1) as i64, self.bits + 2)
    }

    /// Half the bucket spacing: the noise magnitude that still decodes
    /// correctly.
    #[cfg(test)]
    fn noise_margin(&self) -> f64 {
        0.5 / (1u64 << (self.bits + 2)) as f64
    }

    /// Decodes a phase back to the nearest message bucket.
    ///
    /// Phases outside the positive half circle clamp to the nearest edge
    /// bucket (they indicate a protocol error upstream).
    fn decode_phase(&self, phase: Torus32) -> u32 {
        let x = phase.to_f64();
        let buckets = self.message_count() as f64;
        let idx = (x * 2.0 * buckets - 0.5).round();
        idx.clamp(0.0, buckets - 1.0) as u32
    }

    /// Encrypts a bucket message under the client's extracted key.
    ///
    /// # Panics
    ///
    /// Panics if `msg ≥ 2^bits`.
    pub fn encrypt<R: Rng>(&self, client: &ClientKey, msg: u32, rng: &mut R) -> LweCiphertext {
        client.encrypt_phase(self.phase_of(msg), rng)
    }

    /// Decrypts a bucket message.
    pub fn decrypt(&self, client: &ClientKey, c: &LweCiphertext) -> u32 {
        self.decode_phase(client.phase(c))
    }

    /// Builds a LUT evaluating `f: bucket → bucket` under this encoding:
    /// the bootstrapped output is a fresh encryption of `f(msg)`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket space exceeds the ring degree or `f` returns
    /// an out-of-range message.
    pub fn lut(&self, ring_degree: usize, f: impl Fn(u32) -> u32) -> Lut {
        let count = self.message_count();
        Lut::from_bucket_fn(ring_degree, self.bits, |k| {
            let out = f(k);
            assert!(out < count, "LUT output {out} out of range");
            self.phase_of(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapKit;
    use crate::params::ParameterSet;
    use matcha_fft::F64Fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phase_roundtrip_all_messages() {
        for bits in 1..=4u32 {
            let enc = BucketEncoding::new(bits);
            for msg in 0..enc.message_count() {
                assert_eq!(
                    enc.decode_phase(enc.phase_of(msg)),
                    msg,
                    "bits={bits} msg={msg}"
                );
            }
        }
    }

    #[test]
    fn phases_sit_on_the_half_circle() {
        let enc = BucketEncoding::new(3);
        for msg in 0..8 {
            let x = enc.phase_of(msg).to_f64();
            assert!(x > 0.0 && x < 0.5, "phase {x} off the half circle");
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(61);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let enc = BucketEncoding::new(2);
        for msg in 0..4 {
            let c = enc.encrypt(&client, msg, &mut rng);
            assert_eq!(enc.decrypt(&client, &c), msg);
        }
    }

    #[test]
    fn homomorphic_bucket_function() {
        // Evaluate f(x) = 3 − x on encrypted 2-bit messages via PBS.
        let mut rng = StdRng::seed_from_u64(62);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(256);
        let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
        let enc = BucketEncoding::new(2);
        let lut = enc.lut(256, |x| 3 - x);
        for msg in 0..4 {
            let c = enc.encrypt(&client, msg, &mut rng);
            let out = kit.bootstrap_with_lut(&engine, &c, &lut);
            assert_eq!(enc.decrypt(&client, &out), 3 - msg, "msg={msg}");
        }
    }

    #[test]
    fn homomorphic_increment_mod_4() {
        let mut rng = StdRng::seed_from_u64(63);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(256);
        let kit = BootstrapKit::generate(&client, &engine, 1, &mut rng);
        let enc = BucketEncoding::new(2);
        let lut = enc.lut(256, |x| (x + 1) % 4);
        // Chain two PBS evaluations: the output encoding feeds back in.
        let c0 = enc.encrypt(&client, 1, &mut rng);
        let c1 = kit.bootstrap_with_lut(&engine, &c0, &lut);
        let c2 = kit.bootstrap_with_lut(&engine, &c1, &lut);
        assert_eq!(enc.decrypt(&client, &c2), 3);
    }

    #[test]
    fn noise_margin_formula() {
        assert!((BucketEncoding::new(1).noise_margin() - 1.0 / 16.0).abs() < 1e-12);
        assert!((BucketEncoding::new(3).noise_margin() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_message_rejected() {
        let enc = BucketEncoding::new(2);
        let _ = enc.phase_of(4);
    }
}
