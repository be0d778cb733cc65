//! LWE key switching: a bootstrap's first step.
//!
//! Gates read and write samples under the extracted ring key `s′` of
//! dimension `N` (what sample extraction leaves). A bootstrap's blind
//! rotation reads a sample under the LWE key `s` of dimension `n`, so it
//! starts by switching its input — the gate's linear part — from `s′` to
//! `s`: every mask coefficient is decomposed into `t` balanced digits in
//! base `2^γ` by the same [`GadgetDecomposer`] the external product uses,
//! and pre-encrypted multiples of the `s′` bits are subtracted for positive
//! digits and added for negative ones. The paper's Algorithm 1 draws the
//! same switch as the bootstrap's final step; the work per bootstrap is the
//! same either way, one switch per blind rotation.
//!
//! The key stores every mask word in 24 bits. Each is the uniform `u32`
//! drawn for it with the low byte cleared, kept as its top three bytes, and
//! the body (32 bits) is computed for that stored mask, so every entry is
//! an **exact** LWE sample whose phase error is its drawn Gaussian: the
//! narrow masks add no noise to the switch. Nor do they help an attacker,
//! who could switch 32-bit samples to any modulus `q′` for free at the
//! cost of `√(n/24)` units of rounding at `q′`, against the key's `α·q′` —
//! the two meet at `q′ ≈ 2^17.5` (about 4.5 units each at `MATCHA`). Masks
//! of 19 or more bits therefore give an attacker nothing new; 24 bits is
//! byte-aligned with margin, while 16 bits (σ = 1.6 units at `2^16`,
//! against ≈ 4.8 reachable from 32-bit samples) would weaken the key.

use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::secret::LweSecretKey;
use matcha_fft::Leg;
use matcha_math::{GadgetDecomposer, Torus32, TorusSampler};
use rand::Rng;

/// Bytes a stored mask word keeps: the top three of its 32 bits.
const MASK_WORD_BYTES: usize = 3;

/// The low byte every stored mask word has cleared.
const DROPPED_BITS: u32 = 0xff;

/// Zero bytes after the last entry: the vector leg's last 32-byte load of
/// an entry may reach this far past its body.
const TAIL_PAD: usize = 4;

/// Bytes of one stored entry of dimension `n`: its mask words, then its
/// body as a little-endian `u32`.
const fn entry_bytes(n: usize) -> usize {
    n * MASK_WORD_BYTES + 4
}

/// A key-switching key `KS_{s′→s}`.
///
/// A switch decomposes every source coefficient into `t` balanced digits
/// `d ∈ [−2^{γ−1}, 2^{γ−1})` (base `2^γ`, gadget `h_j = 1/2^{(j+1)γ}`), so
/// only the magnitudes `1..=2^{γ−1}` need a sample: the key holds
/// `N × t × 2^{γ−1}` LWE samples, and entry `(i, j, v)` encrypts
/// `v · s′_i · h_j` under the target key. A digit `d > 0` subtracts entry
/// `(i, j, d)`, a digit `d < 0` adds entry `(i, j, −d)` and `d = 0` touches
/// nothing — two samples per `(i, j)` at the paper's `γ = 2`.
///
/// The samples live in one flat byte array in `(i, j, v)` order, each
/// `3n + 4` bytes: `n` mask words as the top three bytes of their 32 bits,
/// little-endian (the low byte is zero, see the module docs), then the body
/// as a little-endian `u32` — 1 504 B an entry and 23.5 MiB at `MATCHA`.
/// A switch applies up to `N·t` entries, and one allocation with computable addresses is what
/// lets it prefetch the next coefficient's picks while it applies the
/// current ones. Four zero bytes follow the last entry for the vector
/// leg's loads.
///
/// The key holds the kernel leg it switches on, the one it was generated
/// for (`BootstrapKit::generate` passes its engine's): any vector leg runs
/// the AVX2 unpack, [`Leg::Scalar`] the scalar one, with the same bits.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    bytes: Vec<u8>,
    from_dimension: usize,
    to_dimension: usize,
    decomp: GadgetDecomposer,
    /// Narrowed to what the CPU runs when the key was generated.
    leg: Leg,
}

impl KeySwitchKey {
    /// Generates a key-switching key from `from_key` to `to_key` that
    /// switches on kernel leg `leg` (narrowed to what the CPU runs), every
    /// sample encrypted straight into its place in the flat array (the key
    /// is the largest object a server holds after the bootstrapping key;
    /// it is never held twice).
    ///
    /// # Panics
    ///
    /// Panics where [`GadgetDecomposer::new`] does for
    /// `(ks_base_log, ks_levels)`: either is zero, `ks_base_log ≥ 32`, or
    /// `ks_base_log · ks_levels > 32`.
    pub fn generate<R: Rng>(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &ParameterSet,
        leg: Leg,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let decomp = GadgetDecomposer::new(params.ks_base_log, params.ks_levels);
        let magnitudes = (decomp.base() / 2) as i32;
        let n_from = from_key.dimension();
        let n_to = to_key.dimension();
        let count = n_from * decomp.levels() * magnitudes as usize;
        let mut bytes = Vec::with_capacity(count * entry_bytes(n_to) + TAIL_PAD);
        let mut mask = vec![Torus32::ZERO; n_to];
        for i in 0..n_from {
            let s_bit = i32::from(from_key.bits()[i]);
            for j in 0..decomp.levels() {
                for v in 1..=magnitudes {
                    let mu = decomp.gadget(j) * (v * s_bit);
                    // `LweCiphertext::encrypt` of the stored mask: the same
                    // draws in the same order (mask, then the body's noise).
                    for a in &mut mask {
                        *a = Torus32::from_raw(sampler.uniform().raw() & !DROPPED_BITS);
                    }
                    let body =
                        to_key.dot(&mask) + sampler.gaussian_around(mu, params.lwe_noise_stdev);
                    let start = bytes.len();
                    bytes.resize(start + entry_bytes(n_to), 0);
                    let (words, body_bytes) = bytes[start..].split_at_mut(n_to * MASK_WORD_BYTES);
                    for (word, a) in words.chunks_exact_mut(MASK_WORD_BYTES).zip(&mask) {
                        word.copy_from_slice(&a.raw().to_le_bytes()[1..]);
                    }
                    body_bytes.copy_from_slice(&body.raw().to_le_bytes());
                }
            }
        }
        bytes.resize(bytes.len() + TAIL_PAD, 0);
        Self {
            bytes,
            from_dimension: n_from,
            to_dimension: n_to,
            decomp,
            leg: leg.narrowed(),
        }
    }

    /// Source key dimension `N`.
    pub fn from_dimension(&self) -> usize {
        self.from_dimension
    }

    /// Target key dimension `n`.
    pub fn to_dimension(&self) -> usize {
        self.to_dimension
    }

    /// Size of the key in LWE samples (for memory-traffic models).
    pub fn entry_count(&self) -> usize {
        self.from_dimension * self.decomp.levels() * (self.decomp.base() as usize / 2)
    }

    /// Bytes the key holds: every entry's mask words and body, and the
    /// zero bytes the vector leg may read past the last one.
    pub fn stored_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Entry `index` and the bytes a vector load may read past its body.
    fn entry(&self, index: usize) -> &[u8] {
        let stride = entry_bytes(self.to_dimension);
        &self.bytes[index * stride..(index + 1) * stride + TAIL_PAD]
    }

    /// Switches `c` (under the source key) to the target key, into a
    /// caller-owned output — no allocation once `out`'s mask has capacity
    /// `n`. The one-sample call of [`KeySwitchKey::switch_slice_into`].
    ///
    /// # Panics
    ///
    /// Panics if `c`'s dimension does not match the source key.
    pub fn switch_into(&self, c: &LweCiphertext, out: &mut LweCiphertext) {
        self.switch_slice_into(std::slice::from_ref(c), std::slice::from_mut(out))
    }

    /// Switches every sample of `inputs` into the matching entry of
    /// `outs`, **coefficient-major**: coefficient `i` of all samples before
    /// coefficient `i + 1` of any, so the samples share one walk through
    /// the key's `N` coefficient blocks instead of taking one each. Every
    /// sample sees the wrapping additions and subtractions
    /// [`KeySwitchKey::switch_into`] makes for it alone, in the same order,
    /// so the outputs are bit-identical.
    /// No allocation once every output's mask has capacity `n`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or an input's dimension does
    /// not match the source key.
    pub fn switch_slice_into(&self, inputs: &[LweCiphertext], outs: &mut [LweCiphertext]) {
        assert_eq!(inputs.len(), outs.len(), "one output per input");
        let n = self.to_dimension;
        let levels = self.decomp.levels();
        let magnitudes = self.decomp.base() as usize / 2;
        let vector = self.leg != Leg::Scalar;
        // The entries coefficient `i` selects, one per nonzero digit, each
        // with whether its digit is positive (the entry is subtracted) or
        // negative (added).
        let selected = |i: usize, ai: Torus32| {
            let shifted = self.decomp.shift(ai);
            (0..levels).filter_map(move |j| {
                let digit = self.decomp.digit(shifted, j);
                let v = (digit.unsigned_abs() as usize).checked_sub(1)?;
                Some((digit > 0, self.entry((i * levels + j) * magnitudes + v)))
            })
        };
        for (c, out) in inputs.iter().zip(outs.iter_mut()) {
            assert_eq!(c.dimension(), self.from_dimension, "dimension mismatch");
            out.assign_trivial(c.body(), n);
        }
        for i in 0..self.from_dimension {
            // Which entries a coefficient picks depends on its digits, so
            // the walk through the key is a random one the hardware cannot
            // predict: ask for the next coefficient's entries now, for
            // every sample, and they arrive while this coefficient's are
            // being applied.
            if i + 1 < self.from_dimension {
                for c in inputs {
                    selected(i + 1, c.mask()[i + 1])
                        .for_each(|(_, entry)| prefetch(&entry[..entry_bytes(n)]));
                }
            }
            for (c, out) in inputs.iter().zip(outs.iter_mut()) {
                let (mask, body) = out.parts_mut();
                for (subtract, entry) in selected(i, c.mask()[i]) {
                    apply(vector, mask, body, entry, subtract);
                }
            }
        }
    }
}

/// Subtracts (`subtract`) or adds the stored entry `entry` to the sample
/// `(mask, body)`, on the AVX2 leg when `vector` (which the caller takes
/// from the key's narrowed leg), else on the scalar one. Both give the
/// same bits.
#[inline]
fn apply(vector: bool, mask: &mut [Torus32], body: &mut Torus32, entry: &[u8], subtract: bool) {
    #[cfg(target_arch = "x86_64")]
    if vector {
        // SAFETY: `vector` says the key's leg is a vector one, and that leg
        // was narrowed to what the CPU runs: the CPU has AVX2.
        return unsafe { apply_avx2(mask, body, entry, subtract) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = vector;
    apply_scalar(mask, body, entry, subtract)
}

/// The scalar leg, and the definition: word `k` of the mask is bytes
/// `3k..3k + 3` as the top three bytes of a `u32`, and the body follows the
/// last word.
fn apply_scalar(mask: &mut [Torus32], body: &mut Torus32, entry: &[u8], subtract: bool) {
    let n = mask.len();
    let entry = &entry[..entry_bytes(n)];
    // The `u32` at byte `3k` shifted up a byte is word `k` (the next
    // word's first byte falls off the top).
    let words = entry
        .windows(4)
        .step_by(MASK_WORD_BYTES)
        .map(|w| Torus32::from_raw(u32::from_le_bytes([w[0], w[1], w[2], w[3]]) << 8));
    let stored_body = Torus32::from_raw(u32::from_le_bytes(
        entry[n * MASK_WORD_BYTES..]
            .try_into()
            .expect("four body bytes"),
    ));
    if subtract {
        mask.iter_mut().zip(words).for_each(|(x, y)| *x -= y);
        *body -= stored_body;
    } else {
        mask.iter_mut().zip(words).for_each(|(x, y)| *x += y);
        *body += stored_body;
    }
}

/// The AVX2 leg of [`apply_scalar`]: eight mask words a step, widened from
/// one 32-byte load by a `vpermd` that gives each 128-bit lane its four
/// words' twelve bytes and a `vpshufb` that moves every three bytes to the
/// top of a 32-bit lane over a zero low byte. The words past the last full
/// eight and the body go through the scalar leg.
///
/// # Panics
///
/// Panics if `entry` is shorter than the entry and the [`TAIL_PAD`] bytes
/// after it (the last load reads up to four bytes past the body).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_avx2(mask: &mut [Torus32], body: &mut Torus32, entry: &[u8], subtract: bool) {
    use std::arch::x86_64::*;
    let n = mask.len();
    assert!(entry.len() >= entry_bytes(n) + TAIL_PAD, "entry too short");
    let groups = n / 8;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 3, 4, 5, 6);
    #[rustfmt::skip]
    let widen = _mm256_setr_epi8(
        -1, 0, 1, 2, -1, 3, 4, 5, -1, 6, 7, 8, -1, 9, 10, 11,
        -1, 0, 1, 2, -1, 3, 4, 5, -1, 6, 7, 8, -1, 9, 10, 11,
    );
    let src = entry.as_ptr();
    let dst = mask.as_mut_ptr().cast::<__m256i>();
    for g in 0..groups {
        // SAFETY: the load reads bytes `24g..24g + 32` of `entry`, at most
        // `3n + 8` — inside it by the assert; word group `g` is inside
        // `mask`. `Torus32` is a transparent `u32`.
        unsafe {
            let raw = _mm256_loadu_si256(src.add(8 * MASK_WORD_BYTES * g).cast());
            let words = _mm256_shuffle_epi8(_mm256_permutevar8x32_epi32(raw, lanes), widen);
            let acc = _mm256_loadu_si256(dst.add(g));
            let acc = if subtract {
                _mm256_sub_epi32(acc, words)
            } else {
                _mm256_add_epi32(acc, words)
            };
            _mm256_storeu_si256(dst.add(g), acc);
        }
    }
    let done = 8 * groups;
    apply_scalar(
        &mut mask[done..],
        body,
        &entry[done * MASK_WORD_BYTES..],
        subtract,
    );
}

/// Bytes per cache line on every x86_64 part this runs on.
#[cfg(target_arch = "x86_64")]
const CACHE_LINE: usize = 64;

/// Hints the cache to fetch every line `entry` touches (a no-op where
/// there is no such hint).
#[inline]
fn prefetch(entry: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        // Entries are not line-aligned: start from the line holding the
        // first byte so that the one holding the last is fetched too.
        let offset = entry.as_ptr() as usize % CACHE_LINE;
        for line in (0..offset + entry.len()).step_by(CACHE_LINE) {
            // SAFETY: prefetching has no architectural effect, and every
            // address is in a line that holds a byte of a live slice.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let address = entry.as_ptr().wrapping_sub(offset).wrapping_add(line);
                _mm_prefetch::<_MM_HINT_T0>(address.cast());
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = entry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`KeySwitchKey::switch_into`] into a fresh output.
    fn switch(ksk: &KeySwitchKey, c: &LweCiphertext) -> LweCiphertext {
        let mut out = LweCiphertext::default();
        ksk.switch_into(c, &mut out);
        out
    }

    fn setup() -> (
        LweSecretKey,
        LweSecretKey,
        KeySwitchKey,
        TorusSampler<StdRng>,
    ) {
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(31));
        let (from, to) = keys(&mut sampler);
        let params = ParameterSet::TEST_FAST;
        let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
        (from, to, ksk, sampler)
    }

    #[test]
    fn switch_preserves_message() {
        let (from, to, ksk, mut sampler) = setup();
        for &m in &[0.125, -0.125, 0.25, 0.0] {
            let mu = Torus32::from_f64(m);
            let c = LweCiphertext::encrypt(mu, &from, 1e-8, &mut sampler);
            let switched = switch(&ksk, &c);
            assert_eq!(switched.dimension(), to.dimension());
            let err = switched.phase(&to).signed_diff(mu).abs();
            assert!(err < 1e-3, "message {m}: error {err}");
        }
    }

    #[test]
    fn switch_is_linear() {
        let (from, to, ksk, mut sampler) = setup();
        let c1 = LweCiphertext::encrypt(Torus32::from_f64(0.125), &from, 1e-8, &mut sampler);
        let c2 = LweCiphertext::encrypt(Torus32::from_f64(0.25), &from, 1e-8, &mut sampler);
        let sum_then_switch = switch(&ksk, &(c1.clone() + &c2));
        let expected = Torus32::from_f64(0.375);
        assert!(sum_then_switch.phase(&to).signed_diff(expected).abs() < 1e-3);
    }

    #[test]
    fn entry_count_matches_formula() {
        let (_, to, ksk, _) = setup();
        assert_eq!(ksk.entry_count(), 128 * 8 * 2);
        assert_eq!(ksk.to_dimension(), to.dimension());
        assert_eq!(ksk.from_dimension(), 128);
        // One entry per digit magnitude `1..=2^{γ−1}`: γ = 1 (digits −1
        // and 0) still needs one entry per level.
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(5));
        let from = LweSecretKey::generate(128, &mut sampler);
        for (base_log, per_level) in [(1, 1), (3, 4), (4, 8)] {
            let params = ParameterSet {
                ks_base_log: base_log,
                ..ParameterSet::TEST_FAST
            };
            let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
            assert_eq!(ksk.entry_count(), 128 * 8 * per_level, "γ = {base_log}");
        }
    }

    /// Stored entry `index` as a sample, decoded byte by byte.
    fn stored_sample(ksk: &KeySwitchKey, index: usize) -> LweCiphertext {
        let n = ksk.to_dimension();
        let entry = ksk.entry(index);
        let word = |b: &[u8]| {
            b.iter()
                .rev()
                .fold(0u32, |w, &byte| w << 8 | u32::from(byte))
        };
        let mask = entry[..3 * n]
            .chunks(3)
            .map(|b| Torus32::from_raw(word(b) << 8))
            .collect();
        LweCiphertext::from_parts(mask, Torus32::from_raw(word(&entry[3 * n..3 * n + 4])))
    }

    /// The keys of a `128 → n` switch at `TEST_FAST`.
    fn keys(sampler: &mut TorusSampler<StdRng>) -> (LweSecretKey, LweSecretKey) {
        let from = LweSecretKey::generate(128, sampler);
        let to = LweSecretKey::generate(ParameterSet::TEST_FAST.lwe_dimension, sampler);
        (from, to)
    }

    #[test]
    fn stored_entries_are_exact_lwe_samples() {
        // Replaying the generator's draws: every stored mask word is the
        // word drawn for it with its low byte cleared, and the body minus
        // `⟨mask, s⟩` and the message `v·s′_i·h_j` is the Gaussian drawn
        // after the mask, bit for bit — the entry's whole phase error.
        let params = ParameterSet::TEST_FAST;
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(57));
        let (from, to) = keys(&mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);

        let mut replay = TorusSampler::new(StdRng::seed_from_u64(57));
        let _ = keys(&mut replay);
        let decomp = GadgetDecomposer::new(params.ks_base_log, params.ks_levels);
        let mut index = 0;
        for i in 0..128 {
            let s_bit = i32::from(from.bits()[i]);
            for j in 0..decomp.levels() {
                for v in 1..=decomp.base() as i32 / 2 {
                    let stored = stored_sample(&ksk, index);
                    for &a in stored.mask() {
                        assert_eq!(a.raw(), replay.uniform().raw() & !0xff, "entry {index}");
                    }
                    let noise = replay.gaussian_around(Torus32::ZERO, params.lwe_noise_stdev);
                    let mu = decomp.gadget(j) * (v * s_bit);
                    assert_eq!(
                        stored.body() - to.dot(stored.mask()) - mu,
                        noise,
                        "entry {index}"
                    );
                    index += 1;
                }
            }
        }
        assert_eq!(index, ksk.entry_count());
        let n = to.dimension();
        assert_eq!(ksk.stored_bytes(), index * (3 * n + 4) + TAIL_PAD);
        assert!(ksk.bytes[index * (3 * n + 4)..].iter().all(|&b| b == 0));
    }

    #[test]
    fn flat_key_matches_per_entry_reference() {
        // A switch must equal applying the stored samples by hand: subtract
        // entry `(i, j, d)` for every digit `d > 0` of
        // `GadgetDecomposer::decompose`, add `(i, j, −d)` for `d < 0`.
        let params = ParameterSet::TEST_FAST;
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(57));
        let (from, to) = keys(&mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
        let decomp = GadgetDecomposer::new(params.ks_base_log, params.ks_levels);
        let (levels, magnitudes) = (decomp.levels(), decomp.base() as usize / 2);
        let reference: Vec<_> = (0..ksk.entry_count())
            .map(|index| stored_sample(&ksk, index))
            .collect();

        let n = to.dimension();
        let mut out = LweCiphertext::default();
        for message in [0.125, -0.25, 0.0] {
            let c = LweCiphertext::encrypt(Torus32::from_f64(message), &from, 1e-8, &mut sampler);
            let mut expected = LweCiphertext::trivial(c.body(), n);
            for (i, &ai) in c.mask().iter().enumerate() {
                for (j, d) in decomp.decompose(ai).into_iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    let entry =
                        &reference[(i * levels + j) * magnitudes + d.unsigned_abs() as usize - 1];
                    if d > 0 {
                        expected.sub_assign(entry);
                    } else {
                        expected.add_assign(entry);
                    }
                }
            }
            ksk.switch_into(&c, &mut out);
            assert_eq!(out, expected, "message {message}");
        }
    }

    #[test]
    fn scalar_and_host_keys_switch_to_the_same_bits() {
        // One key generated for the scalar leg and one for the host's, from
        // the same draws, switching the same samples through
        // `switch_slice_into`: each runs the leg it holds (the AVX2 unpack
        // for the host's where the CPU has it), and the bits agree.
        let params = ParameterSet::TEST_FAST;
        let generate = |leg| {
            let mut sampler = TorusSampler::new(StdRng::seed_from_u64(57));
            let (from, to) = keys(&mut sampler);
            let ksk = KeySwitchKey::generate(&from, &to, &params, leg, &mut sampler);
            (from, to, ksk, sampler)
        };
        let (from, to, scalar, mut sampler) = generate(Leg::Scalar);
        let (_, _, host, _) = generate(Leg::host());
        assert_eq!((scalar.leg, host.leg), (Leg::Scalar, Leg::host()));
        let messages = [0.125, -0.25, 0.0, 0.375, -0.5].map(Torus32::from_f64);
        let inputs = messages.map(|mu| LweCiphertext::encrypt(mu, &from, 1e-8, &mut sampler));
        let [on_scalar, on_host] = [scalar, host].map(|ksk| {
            let mut outs = vec![LweCiphertext::default(); inputs.len()];
            ksk.switch_slice_into(&inputs, &mut outs);
            outs
        });
        assert_eq!(on_scalar, on_host, "scalar key against the host's");
        for (out, mu) in on_host.iter().zip(messages) {
            assert!(out.phase(&to).signed_diff(mu).abs() < 1e-3);
        }
    }

    #[test]
    fn vector_leg_matches_scalar_leg() {
        // Both kernels called directly:
        // dimensions with and without a tail past the last eight words,
        // both signs, random bytes in the padding (which neither may use).
        let mut rng = StdRng::seed_from_u64(0x24b);
        for n in [8, 16, 500, 503] {
            for subtract in [true, false] {
                let entry: Vec<u8> = (0..entry_bytes(n) + TAIL_PAD).map(|_| rng.gen()).collect();
                let start: Vec<_> = (0..n).map(|_| Torus32::from_raw(rng.gen())).collect();
                let start_body = Torus32::from_raw(rng.gen());
                let (mut mask, mut body) = (start.clone(), start_body);
                apply_scalar(&mut mask, &mut body, &entry, subtract);
                let stored = |k: usize| {
                    Torus32::from_raw(
                        u32::from(entry[k]) << 8
                            | u32::from(entry[k + 1]) << 16
                            | u32::from(entry[k + 2]) << 24,
                    )
                };
                let stored_body =
                    Torus32::from_raw(u32::from_le_bytes(entry[3 * n..][..4].try_into().unwrap()));
                let sign = |x: Torus32| if subtract { -x } else { x };
                for k in 0..n {
                    assert_eq!(mask[k], start[k] + sign(stored(3 * k)), "n={n} word {k}");
                }
                assert_eq!(body, start_body + sign(stored_body), "n={n} body");
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") {
                    let (mut vector_mask, mut vector_body) = (start.clone(), start_body);
                    // SAFETY: the CPU has AVX2.
                    unsafe { apply_avx2(&mut vector_mask, &mut vector_body, &entry, subtract) };
                    assert_eq!(vector_mask, mask, "n={n} subtract={subtract}");
                    assert_eq!(vector_body, body, "n={n} subtract={subtract}");
                }
            }
        }
    }

    /// The switch's error over `keys` keys of `from_dim → to_dim` at
    /// `MATCHA`'s `(γ, t, σ)`, `switches` noiseless inputs each (uniform
    /// masks, zero message): the largest within-key variance (each key's
    /// noise fixed, only the digits vary) and the second moment across
    /// keys, as shares of `NoiseModel`'s key-switch term at `N = from_dim`.
    fn switch_noise_shares(
        from_dim: usize,
        to_dim: usize,
        keys: usize,
        switches: usize,
    ) -> (f64, f64) {
        let params = ParameterSet {
            ring_degree: from_dim,
            lwe_dimension: to_dim,
            ..ParameterSet::MATCHA
        };
        let model = crate::analyze::NoiseModel::new(&params, 2).v_key_switch;
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(71));
        let (mut worst_in_key, mut second_moment) = (0.0f64, 0.0);
        let mut outs = vec![LweCiphertext::default(); 16];
        for _ in 0..keys {
            let from = LweSecretKey::generate(from_dim, &mut sampler);
            let to = LweSecretKey::generate(to_dim, &mut sampler);
            let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
            let mut errors = Vec::with_capacity(switches);
            while errors.len() < switches {
                let inputs: Vec<_> = (0..outs.len())
                    .map(|_| {
                        let mask: Vec<_> = (0..from_dim).map(|_| sampler.uniform()).collect();
                        let body = from.dot(&mask);
                        LweCiphertext::from_parts(mask, body)
                    })
                    .collect();
                ksk.switch_slice_into(&inputs, &mut outs);
                errors.extend(outs.iter().map(|o| o.phase(&to).signed_diff(Torus32::ZERO)));
            }
            let count = errors.len() as f64;
            let mean = errors.iter().sum::<f64>() / count;
            let in_key = errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / count;
            worst_in_key = worst_in_key.max(in_key);
            second_moment += errors.iter().map(|e| e * e).sum::<f64>() / count / keys as f64;
        }
        (worst_in_key / model, second_moment / model)
    }

    #[test]
    fn switch_noise_within_the_model() {
        // A balanced digit is zero with probability 1/4, so across keys
        // each digit position carries 3/4·σ²; within a key ±1 share one
        // sample and the position's variance is 11/16·σ². The model
        // charges σ² to every position. At full size (1024 → 500, what the release build runs)
        // the shares read 0.69 and 0.67: the across-key figure swings with
        // each key's mean over the digits, one χ²₁-like draw per key.
        let (from_dim, to_dim) = if cfg!(debug_assertions) {
            (128, 32)
        } else {
            (1024, 500)
        };
        let (in_key, across_keys) = switch_noise_shares(from_dim, to_dim, 4, 1500);
        assert!(
            in_key <= 1.0,
            "within-key variance {in_key} of the model term"
        );
        assert!(
            across_keys <= 1.0,
            "second moment {across_keys} of the model term"
        );
        // The measurement sees the key's noise at all.
        assert!(
            across_keys >= 0.5,
            "second moment {across_keys} of the model term"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        let (_, _, ksk, _) = setup();
        let c = LweCiphertext::trivial(Torus32::ZERO, 64);
        let _ = switch(&ksk, &c);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit torus")]
    fn oversized_decomposition_rejected() {
        // 12 × 3 = 36 > 32: the per-level shift `32 − (j+1)·γ` would
        // underflow at j = 2. Must be rejected at key generation, not
        // deep inside a switch.
        let params = ParameterSet {
            ks_base_log: 12,
            ks_levels: 3,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(1));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let _ = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit torus")]
    fn full_width_base_rejected() {
        // γ = 32 with a single level passes γ·t ≤ 32 but `1u32 << 32`
        // overflows; the constructor must reject the base itself.
        let params = ParameterSet {
            ks_base_log: 32,
            ks_levels: 1,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(4));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let _ = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
    }

    #[test]
    #[should_panic(expected = "must be nonzero")]
    fn zero_levels_rejected() {
        let params = ParameterSet {
            ks_levels: 0,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(2));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let _ = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
    }

    #[test]
    fn full_precision_32_bits_accepted() {
        // γ·t = 32 exactly is legal: every bit of a coefficient is a digit
        // bit, so the decomposer adds no rounding half-ulp and the finest
        // digit is extracted with a shift of 0.
        let params = ParameterSet {
            ks_base_log: 8,
            ks_levels: 4,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(3));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
        let c = LweCiphertext::encrypt(Torus32::from_f64(0.25), &from, 1e-9, &mut sampler);
        let err = switch(&ksk, &c)
            .phase(&to)
            .signed_diff(Torus32::from_f64(0.25));
        assert!(err.abs() < 1e-2, "error {err}");
    }

    #[test]
    fn noise_growth_is_bounded() {
        let (from, to, ksk, mut sampler) = setup();
        let mut worst: f64 = 0.0;
        for _ in 0..20 {
            let c = LweCiphertext::encrypt(Torus32::from_f64(0.125), &from, 1e-8, &mut sampler);
            let err = switch(&ksk, &c)
                .phase(&to)
                .signed_diff(Torus32::from_f64(0.125))
                .abs();
            worst = worst.max(err);
        }
        // 128 coefficients × 8 levels of noise-1e-7 keys plus rounding at
        // 2^-17 granularity: comfortably below the 1/8 decision margin.
        assert!(worst < 1e-2, "worst key-switch noise {worst}");
    }
}
