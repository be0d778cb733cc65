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

use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::secret::LweSecretKey;
use matcha_math::{GadgetDecomposer, Torus32, TorusSampler};
use rand::Rng;

/// A key-switching key `KS_{s′→s}`.
///
/// A switch decomposes every source coefficient into `t` balanced digits
/// `d ∈ [−2^{γ−1}, 2^{γ−1})` (base `2^γ`, gadget `h_j = 1/2^{(j+1)γ}`), so
/// only the magnitudes `1..=2^{γ−1}` need a sample: the key holds
/// `N × t × 2^{γ−1}` LWE samples, and entry `(i, j, v)` encrypts
/// `v · s′_i · h_j` under the target key. A digit `d > 0` subtracts entry
/// `(i, j, d)`, a digit `d < 0` adds entry `(i, j, −d)` and `d = 0` touches
/// nothing — two samples per `(i, j)` at the paper's `γ = 2`. The samples
/// live in one flat array, `n + 1` torus elements each (mask, then body),
/// in `(i, j, v)` order — a switch applies up to `N·t` of them, and one
/// allocation with computable addresses is what lets it prefetch the next
/// coefficient's picks while it applies the current ones.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    entries: Vec<Torus32>,
    from_dimension: usize,
    to_dimension: usize,
    decomp: GadgetDecomposer,
}

impl KeySwitchKey {
    /// Generates a key-switching key from `from_key` to `to_key`, every
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
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let decomp = GadgetDecomposer::new(params.ks_base_log, params.ks_levels);
        let magnitudes = (decomp.base() / 2) as i32;
        let n_from = from_key.dimension();
        let n_to = to_key.dimension();
        let mut entries =
            Vec::with_capacity(n_from * decomp.levels() * magnitudes as usize * (n_to + 1));
        for i in 0..n_from {
            let s_bit = i32::from(from_key.bits()[i]);
            for j in 0..decomp.levels() {
                for v in 1..=magnitudes {
                    let mu = decomp.gadget(j) * (v * s_bit);
                    // `LweCiphertext::encrypt`, in place: same draws in the
                    // same order (mask, then the body's noise).
                    let start = entries.len();
                    entries.extend((0..n_to).map(|_| sampler.uniform()));
                    let body = to_key.dot(&entries[start..])
                        + sampler.gaussian_around(mu, params.lwe_noise_stdev);
                    entries.push(body);
                }
            }
        }
        Self {
            entries,
            from_dimension: n_from,
            to_dimension: n_to,
            decomp,
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
        self.entries.len() / (self.to_dimension + 1)
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
        profile::timed(Phase::KeySwitch, || self.switch_inner(inputs, outs))
    }

    fn switch_inner(&self, inputs: &[LweCiphertext], outs: &mut [LweCiphertext]) {
        assert_eq!(inputs.len(), outs.len(), "one output per input");
        let n = self.to_dimension;
        let levels = self.decomp.levels();
        let magnitudes = self.decomp.base() as usize / 2;
        // The entries coefficient `i` selects, one per nonzero digit, each
        // with whether its digit is positive (the entry is subtracted) or
        // negative (added).
        let selected = |i: usize, ai: Torus32| {
            let shifted = self.decomp.shift(ai);
            (0..levels).filter_map(move |j| {
                let digit = self.decomp.digit(shifted, j);
                let v = (digit.unsigned_abs() as usize).checked_sub(1)?;
                let index = (i * levels + j) * magnitudes + v;
                Some((
                    digit > 0,
                    &self.entries[index * (n + 1)..(index + 1) * (n + 1)],
                ))
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
                    selected(i + 1, c.mask()[i + 1]).for_each(|(_, entry)| prefetch(entry));
                }
            }
            for (c, out) in inputs.iter().zip(outs.iter_mut()) {
                let (mask, body) = out.parts_mut();
                for (positive, entry) in selected(i, c.mask()[i]) {
                    if positive {
                        for (x, &y) in mask.iter_mut().zip(&entry[..n]) {
                            *x -= y;
                        }
                        *body -= entry[n];
                    } else {
                        for (x, &y) in mask.iter_mut().zip(&entry[..n]) {
                            *x += y;
                        }
                        *body += entry[n];
                    }
                }
            }
        }
    }
}

/// Bytes per cache line on every x86_64 part this runs on.
#[cfg(target_arch = "x86_64")]
const CACHE_LINE: usize = 64;

/// Hints the cache to fetch all of `entry` (a no-op where there is no such
/// hint).
#[inline]
fn prefetch(entry: &[Torus32]) {
    #[cfg(target_arch = "x86_64")]
    for line in entry.chunks(CACHE_LINE / std::mem::size_of::<Torus32>()) {
        // SAFETY: prefetching has no architectural effect, and the address
        // is inside a live slice anyway.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast());
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
        let params = ParameterSet::TEST_FAST;
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(31));
        let from = LweSecretKey::generate(128, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
            let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
            assert_eq!(ksk.entry_count(), 128 * 8 * per_level, "γ = {base_log}");
        }
    }

    #[test]
    fn flat_key_matches_per_entry_reference() {
        // The same sampler stream through a per-entry construction (one
        // `LweCiphertext::encrypt` per `(i, j, v)`, `v ≤ 2^{γ−1}`) must give
        // the same key material, and a switch must equal applying those
        // entries by hand: subtract entry `(i, j, d)` for every digit
        // `d > 0` of `GadgetDecomposer::decompose`, add `(i, j, −d)` for
        // `d < 0`.
        let params = ParameterSet::TEST_FAST;
        let keys = |sampler: &mut TorusSampler<StdRng>| {
            let from = LweSecretKey::generate(128, sampler);
            let to = LweSecretKey::generate(params.lwe_dimension, sampler);
            (from, to)
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(57));
        let (from, to) = keys(&mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);

        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(57));
        let (from_again, to_again) = keys(&mut sampler);
        assert_eq!(from.bits(), from_again.bits());
        let decomp = GadgetDecomposer::new(params.ks_base_log, params.ks_levels);
        let (levels, magnitudes) = (decomp.levels(), decomp.base() as usize / 2);
        let mut reference = Vec::new();
        for i in 0..128 {
            let s_bit = i32::from(from.bits()[i]);
            for j in 0..levels {
                for v in 1..=magnitudes as i32 {
                    reference.push(LweCiphertext::encrypt(
                        decomp.gadget(j) * (v * s_bit),
                        &to_again,
                        params.lwe_noise_stdev,
                        &mut sampler,
                    ));
                }
            }
        }
        assert_eq!(ksk.entry_count(), reference.len());
        let n = to.dimension();
        for (entry, lwe) in ksk.entries.chunks(n + 1).zip(&reference) {
            assert_eq!(&entry[..n], lwe.mask());
            assert_eq!(entry[n], lwe.body());
        }

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
            let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
        let _ = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
        let _ = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
        let _ = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
        let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
