//! Gate bootstrapping (Algorithm 1 of the paper, key switch first).
//!
//! The pipeline per gate: key-switch the input from the extracted key `s′`
//! (dimension `N`) to the LWE key `s` (dimension `n`), round it to
//! `Z_{2N}`, blind-rotate a test vector by the encrypted phase (one step,
//! a bundle streamed into an external product, per key group), and
//! extract the constant coefficient — a sample under `s′` again, so an
//! output feeds the next gate as it is. The paper's Algorithm 1 switches
//! after the extraction instead; either way a bootstrap runs one key
//! switch and one blind rotation, but switching first leaves nothing to
//! switch that did not come out of a bootstrap's own input. Every TFHE
//! Boolean gate is a cheap linear combination followed by this procedure,
//! which is why bootstrapping is 99% of gate latency (paper Figure 1).

use crate::bku::UnrolledBootstrappingKey;
use crate::keyswitch::KeySwitchKey;
use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::scratch::{BootstrapScratch, Lane};
use crate::secret::ClientKey;
use matcha_fft::FftEngine;
use matcha_math::{mod_switch_from_torus, GadgetDecomposer, Torus32, TorusSampler};
use rand::Rng;

/// Everything the (untrusted) evaluator needs to bootstrap: the unrolled
/// bootstrapping key, the key-switching key, and the gadget decomposer.
#[derive(Clone, Debug)]
pub struct BootstrapKit<E: FftEngine> {
    params: ParameterSet,
    bk: UnrolledBootstrappingKey<E>,
    ksk: KeySwitchKey,
    decomp: GadgetDecomposer,
}

impl<E: FftEngine> BootstrapKit<E> {
    /// Generates the evaluation keys from the client's secrets.
    ///
    /// `unroll` is the BKU factor `m` (paper §4.2): 1 reproduces classic
    /// TFHE; larger values trade `2^m − 1` stored keys per group for
    /// `⌈n/m⌉` instead of `n` external products per bootstrap. The
    /// key-switching key runs on `engine`'s kernel leg.
    pub fn generate<R: Rng>(client: &ClientKey, engine: &E, unroll: usize, rng: &mut R) -> Self {
        let params = *client.params();
        let mut sampler = TorusSampler::new(rng);
        let bk = UnrolledBootstrappingKey::generate(
            client.lwe_key(),
            client.ring_key(),
            &params,
            engine,
            unroll,
            &mut sampler,
        );
        let ksk = KeySwitchKey::generate(
            client.extracted_key(),
            client.lwe_key(),
            &params,
            engine.leg(),
            &mut sampler,
        );
        let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
        Self {
            params,
            bk,
            ksk,
            decomp,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &ParameterSet {
        &self.params
    }

    /// The BKU factor `m`.
    pub(crate) fn unroll(&self) -> usize {
        self.bk.unroll()
    }

    /// The unrolled bootstrapping key.
    pub fn bootstrapping_key(&self) -> &UnrolledBootstrappingKey<E> {
        &self.bk
    }

    /// The key-switching key.
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }

    /// Full gate bootstrap (Algorithm 1, key switch first): a noise reset
    /// of an extracted-key sample to `±mu`, under the extracted key. The
    /// output message is `+mu` when the input phase is in `(0, 1/2)` and
    /// `−mu` otherwise.
    /// [`BootstrapKit::bootstrap_into`] through a scratch built for the
    /// call.
    pub fn bootstrap(&self, engine: &E, input: &LweCiphertext, mu: Torus32) -> LweCiphertext {
        let mut out = LweCiphertext::default();
        self.bootstrap_into(engine, input, mu, &mut out, &mut self.make_scratch(engine));
        out
    }

    /// Builds a reusable workspace for the zero-allocation bootstrap path.
    /// One scratch per worker thread; the first bootstrap through it warms
    /// the buffers, every later one allocates nothing.
    pub fn make_scratch(&self, engine: &E) -> BootstrapScratch<E> {
        BootstrapScratch::new(engine, &self.params)
    }

    /// Stages lanes `0..lanes` of a blind rotation from their key-switched
    /// inputs (`scratch.switched`): each accumulator is set to
    /// `X^{b̄}·testv` (the test vector read from
    /// `scratch.test_vector_mut()`) and each mask is mod-switched to the
    /// lane's bundle exponents.
    pub(crate) fn stage_switched(&self, lanes: usize, scratch: &mut BootstrapScratch<E>) {
        let two_n = self.params.two_n();
        let BootstrapScratch {
            lanes: staged,
            switched,
            testv,
            ..
        } = scratch;
        for (Lane { acc, exponents }, input) in staged[..lanes].iter_mut().zip(&*switched) {
            acc.mask_mut().fill_zero();
            let b_bar = mod_switch_from_torus(input.body(), two_n);
            acc.body_mut().rotate_from(testv, b_bar as i64);
            exponents.clear();
            exponents.extend(
                input
                    .mask()
                    .iter()
                    .map(|&a| mod_switch_from_torus(a, two_n)),
            );
        }
    }

    /// Blind-rotates the staged lanes `0..lanes` in **one pass over the
    /// key**: the key groups are walked once, and inside each group every
    /// lane takes its step — its bundle streamed straight into its external
    /// product ([`UnrolledBootstrappingKey::bundle_product_assign`], Figure
    /// 6a's two pipeline steps fused) — while that group's keys are
    /// cache-resident, the key stream shared by the bootstraps in flight as
    /// MATCHA's pipelines share it. The step workspace is shared across
    /// lanes exactly as it is shared across steps, so each lane's
    /// arithmetic — and every output bit — is what a one-lane call computes
    /// for it alone. Zero allocations once warmed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `lanes` lanes were ever staged.
    pub(crate) fn blind_rotate_lanes(
        &self,
        engine: &E,
        lanes: usize,
        scratch: &mut BootstrapScratch<E>,
    ) {
        let BootstrapScratch {
            ep, lanes: staged, ..
        } = scratch;
        let mut index = 0;
        for group in self.bk.groups() {
            let bits = index..index + group.len();
            for Lane { acc, exponents } in &mut staged[..lanes] {
                let exponents = &exponents[bits.clone()];
                self.bk
                    .bundle_product_assign(engine, group, exponents, &self.decomp, acc, ep);
            }
            index = bits.end;
        }
    }

    /// Key switch and blind rotation through the scratch: switches `input`
    /// (under the extracted key) to the LWE key, reads the test vector from
    /// `scratch.test_vector_mut()` and leaves `TRLWE(X^{b̄ − ⟨ā, s⟩}·testv)`
    /// of the switched sample in `scratch.accumulator()` — the one-lane
    /// form of a wave. Zero allocations once warmed.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s dimension is not the ring degree `N`.
    pub fn blind_rotate_assign(
        &self,
        engine: &E,
        input: &LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        self.ksk.switch_into(input, &mut scratch.switched[0]);
        self.stage_switched(1, scratch);
        self.blind_rotate_lanes(engine, 1, scratch);
    }

    /// [`BootstrapKit::bootstrap`] into a caller-owned output through the
    /// scratch — zero allocations once warmed.
    pub fn bootstrap_into(
        &self,
        engine: &E,
        input: &LweCiphertext,
        mu: Torus32,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        // All-(−μ) test vector: rotating by a positive phase δ̄ ∈ [1, N]
        // wraps the top coefficient negacyclically into +μ at position 0.
        scratch.testv.coeffs_mut().fill(-mu);
        self.blind_rotate_assign(engine, input, scratch);
        scratch.lanes[0].acc.sample_extract_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MU: f64 = 0.125;

    fn client(seed: u64) -> (ClientKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        (key, rng)
    }

    fn check_bootstrap<E: FftEngine>(engine: &E, unroll: usize, seed: u64) {
        let (client_key, mut rng) = client(seed);
        let kit = BootstrapKit::generate(&client_key, engine, unroll, &mut rng);
        for message in [true, false] {
            let c = client_key.encrypt_with(message, &mut rng);
            let out = kit.bootstrap(engine, &c, Torus32::from_f64(MU));
            assert_eq!(
                client_key.decrypt(&out),
                message,
                "unroll={unroll} message={message}"
            );
            // Bootstrapped noise must be far below the 1/8 decision margin.
            let noise = client_key.noise_of(&out, message).abs();
            assert!(noise < 0.03, "unroll={unroll}: noise {noise}");
        }
    }

    #[test]
    fn bootstrap_identity_m1() {
        check_bootstrap(&F64Fft::new(256), 1, 41);
    }

    #[test]
    fn bootstrap_identity_m2() {
        check_bootstrap(&F64Fft::new(256), 2, 42);
    }

    #[test]
    fn bootstrap_identity_m3() {
        check_bootstrap(&F64Fft::new(256), 3, 43);
    }

    #[test]
    fn bootstrap_identity_m4() {
        check_bootstrap(&F64Fft::new(256), 4, 44);
    }

    #[test]
    fn bootstrap_with_approximate_fft() {
        check_bootstrap(&ApproxIntFft::new(256, 45), 1, 45);
    }

    #[test]
    fn bootstrap_with_approximate_fft_unrolled() {
        check_bootstrap(&ApproxIntFft::new(256, 45), 3, 46);
    }

    #[test]
    fn unrolled_matches_classic_output_message() {
        // m = 1 and m = 3 must decrypt identically on the same ciphertext.
        let (client_key, mut rng) = client(47);
        let engine = F64Fft::new(256);
        let kit1 = BootstrapKit::generate(&client_key, &engine, 1, &mut rng);
        let kit3 = BootstrapKit::generate(&client_key, &engine, 3, &mut rng);
        for message in [true, false] {
            let c = client_key.encrypt_with(message, &mut rng);
            let o1 = kit1.bootstrap(&engine, &c, Torus32::from_f64(MU));
            let o3 = kit3.bootstrap(&engine, &c, Torus32::from_f64(MU));
            assert_eq!(client_key.decrypt(&o1), client_key.decrypt(&o3));
            assert_eq!(client_key.decrypt(&o1), message);
        }
    }

    #[test]
    fn bootstrap_resets_noise() {
        // Feed a deliberately noisy (but decryptable) sample; output noise
        // must be independent of input noise.
        let (client_key, mut rng) = client(48);
        let engine = F64Fft::new(256);
        let kit = BootstrapKit::generate(&client_key, &engine, 2, &mut rng);
        let mut c = client_key.encrypt_with(true, &mut rng);
        // Stack noise by summing encryptions of ±1/8 that cancel.
        for _ in 0..3 {
            let plus = client_key.encrypt_with(true, &mut rng);
            let minus = client_key.encrypt_with(false, &mut rng);
            c.add_assign(&plus);
            c.add_assign(&minus);
            let flip = client_key.encrypt_with(false, &mut rng);
            let unflip = client_key.encrypt_with(true, &mut rng);
            c.add_assign(&flip);
            c.sub_assign(&unflip);
            c.add_assign(&unflip);
            c.sub_assign(&flip);
        }
        let out = kit.bootstrap(&engine, &c, Torus32::from_f64(MU));
        assert!(client_key.decrypt(&out));
        assert!(client_key.noise_of(&out, true).abs() < 0.03);
    }
}
