//! LWE key switching: a bootstrap's first step.
//!
//! Gates read and write samples under the extracted ring key `s′` of
//! dimension `N` (what sample extraction leaves). A bootstrap's blind
//! rotation reads a sample under the LWE key `s` of dimension `n`, so it
//! starts by switching its input — the gate's linear part — from `s′` to
//! `s`: every mask coefficient is decomposed in base `2^γ` over `t` levels
//! and pre-encrypted multiples of the `s′` bits are subtracted. The paper's
//! Algorithm 1 draws the same switch as the bootstrap's final step; the
//! work per bootstrap is the same either way, one switch per blind
//! rotation.

use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::secret::LweSecretKey;
use matcha_math::{Torus32, TorusSampler};
use rand::Rng;

/// A key-switching key `KS_{s′→s}`.
///
/// Holds `N × t × (2^γ − 1)` LWE samples: entry `(i, j, v)` encrypts
/// `v · s′_i / 2^{(j+1)γ}` under the target key. The samples live in one
/// flat array, `n + 1` torus elements each (mask, then body), in `(i, j, v)`
/// order — a switch subtracts up to `N·t` of them, and one allocation with
/// computable addresses is what lets it prefetch the next coefficient's
/// picks while it subtracts the current ones.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    entries: Vec<Torus32>,
    from_dimension: usize,
    to_dimension: usize,
    base_log: u32,
    levels: usize,
}

impl KeySwitchKey {
    /// Generates a key-switching key from `from_key` to `to_key`, every
    /// sample encrypted straight into its place in the flat array (the key
    /// is the largest object a server holds after the bootstrapping key;
    /// it is never held twice).
    ///
    /// # Panics
    ///
    /// Panics if `ks_base_log` or `ks_levels` is zero, if
    /// `ks_base_log ≥ 32` (the base `2^γ` itself must fit a `u32`), or if
    /// `ks_base_log · ks_levels > 32`: the decomposition shifts
    /// `32 − (j+1)·γ` (here and in [`KeySwitchKey::switch_into`]) would
    /// underflow past the 32-bit torus — a debug-build panic and a silent
    /// release-build wraparound before this constructor-time check.
    pub fn generate<R: Rng>(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &ParameterSet,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let base_log = params.ks_base_log;
        let levels = params.ks_levels;
        assert!(
            base_log > 0 && levels > 0,
            "key-switch decomposition parameters must be nonzero"
        );
        // base_log = 32 would already overflow `1u32 << base_log` below
        // even with a single level, so the base itself must fit too.
        assert!(
            base_log < 32 && base_log as usize * levels <= 32,
            "ks_base_log {base_log} × ks_levels {levels} exceeds the 32-bit torus"
        );
        let base = 1u32 << base_log;
        let n_from = from_key.dimension();
        let n_to = to_key.dimension();
        let mut entries = Vec::with_capacity(n_from * levels * (base as usize - 1) * (n_to + 1));
        for i in 0..n_from {
            let s_bit = u32::from(from_key.bits()[i]);
            for j in 0..levels {
                let unit = Torus32::from_raw(1u32 << (32 - (j as u32 + 1) * base_log));
                for v in 1..base {
                    let mu = unit * (v * s_bit) as i32;
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
            base_log,
            levels,
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
    /// sample sees the wrapping subtractions [`KeySwitchKey::switch_into`]
    /// makes for it alone, in the same order, so the outputs are
    /// bit-identical.
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
        let base = 1u32 << self.base_log;
        let per_level = base as usize - 1;
        // Round each coefficient to t·γ bits before decomposing.
        let precision_bits = self.base_log * self.levels as u32;
        let round_bump = if precision_bits < 32 {
            1u32 << (31 - precision_bits)
        } else {
            0
        };
        // The entries coefficient `i` selects, one per nonzero digit.
        let selected = |i: usize, ai: Torus32| {
            let t = ai.raw().wrapping_add(round_bump);
            (0..self.levels).filter_map(move |j| {
                let shift = 32 - (j as u32 + 1) * self.base_log;
                let digit = ((t >> shift) & (base - 1)) as usize;
                let index = (i * self.levels + j) * per_level + digit.checked_sub(1)?;
                Some(&self.entries[index * (n + 1)..(index + 1) * (n + 1)])
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
            // being subtracted.
            if i + 1 < self.from_dimension {
                for c in inputs {
                    selected(i + 1, c.mask()[i + 1]).for_each(prefetch);
                }
            }
            for (c, out) in inputs.iter().zip(outs.iter_mut()) {
                let (mask, body) = out.parts_mut();
                for entry in selected(i, c.mask()[i]) {
                    for (x, &y) in mask.iter_mut().zip(&entry[..n]) {
                        *x -= y;
                    }
                    *body -= entry[n];
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
        assert_eq!(ksk.entry_count(), 128 * 8 * 3);
        assert_eq!(ksk.to_dimension(), to.dimension());
        assert_eq!(ksk.from_dimension(), 128);
    }

    #[test]
    fn flat_key_matches_per_entry_reference() {
        // The same sampler stream through the per-entry construction the
        // flat layout replaced (one `LweCiphertext::encrypt` per entry, a
        // `sub_assign` per nonzero digit) must give the same key material
        // and bit-identical switches.
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
        let (base_log, levels) = (params.ks_base_log, params.ks_levels);
        let base = 1u32 << base_log;
        let mut reference = Vec::new();
        for i in 0..128 {
            let s_bit = u32::from(from.bits()[i]);
            for j in 0..levels {
                let unit = Torus32::from_raw(1u32 << (32 - (j as u32 + 1) * base_log));
                for v in 1..base {
                    let mu = unit * (v * s_bit) as i32;
                    reference.push(LweCiphertext::encrypt(
                        mu,
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
            let round_bump = 1u32 << (31 - base_log * levels as u32);
            for (i, &ai) in c.mask().iter().enumerate() {
                let t = ai.raw().wrapping_add(round_bump);
                for j in 0..levels {
                    let digit = (t >> (32 - (j as u32 + 1) * base_log)) & (base - 1);
                    if digit != 0 {
                        let per_i = levels * (base as usize - 1);
                        let idx = i * per_i + j * (base as usize - 1) + digit as usize - 1;
                        expected.sub_assign(&reference[idx]);
                    }
                }
            }
            ksk.switch_into(&c, &mut out);
            assert_eq!(out, expected, "message {message}");
        }
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
        // γ·t = 32 exactly is legal: the finest level's shift is 0 and the
        // rounding bump is skipped (precision_bits == 32).
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
