//! Bootstrapping key unrolling (paper §4.2, Figures 4–6).
//!
//! Classic blind rotation multiplies the accumulator by
//! `X^{-ā_i s_i}` once per secret bit — `n` external products. BKU groups
//! `m` bits and rewrites (Figure 4's truth table, generalized):
//!
//! ```text
//! X^{-Σ_{i∈g} ā_i s_i} = 1 + Σ_{∅≠p⊆g} (X^{-Σ_{i∈p} ā_i} − 1) · Ind_p(s),
//! ```
//!
//! where `Ind_p(s) = Π_{i∈p} s_i · Π_{i∈g∖p} (1−s_i)` is the indicator that
//! the group's bits equal exactly pattern `p`. The indicators over all `2^m`
//! patterns sum to 1, which collapses the truth table into the affine form
//! above. Each group needs `2^m − 1` pre-encrypted TGSW keys (one per
//! nonempty pattern — Table 3's `(2^m − 1)·BK`), and one blind-rotation
//! step per *group*: external products drop from `n` to `⌈n/m⌉`, at the cost
//! of `2^m − 1` TGSW scale-and-add operations per step (the work MATCHA's
//! TGSW clusters absorb).
//!
//! # The stored key
//!
//! Blind rotation reads the whole key once per gate (once per wave), front
//! to back, and that stream — not arithmetic — is what a step waits for.
//! So the key is one slab of 32-bit words in exactly the order the bundle
//! rows consume it:
//!
//! ```text
//! slab   = group 0 | group 1 | … | group ⌈n/m⌉−1
//! group  = row 0 | row 1 | … | row 2ℓ−1            (TGSW rows)
//! row    = mask block | body block
//! block  = chunk 0 | chunk 1 | … | chunk N/16−1     (8 points each)
//! chunk  = pattern 1 | pattern 2 | … | pattern 2^len−1
//! pattern = re of the 8 points | im of the 8 points (64 bytes)
//! ```
//!
//! A cache line is one pattern's eight points, a bundle row is one
//! sequential block ([`matcha_fft::KeyBlock`]) and a gate is one forward
//! pass; the rows' one lookahead hint runs ahead of it. A word `w` stands
//! for `w·2^e` torus units with one exponent `e` for the whole key, from
//! the ring degree alone ([`matcha_fft::key_exponent`]: 7 at `N = 1024`);
//! the bundle, the accumulators and the transforms stay full width, as
//! does the gadget `H`.
//!
//! Generation works in the stored domain. Each TGSW row is encrypted and
//! transformed as ever — same draws, same noise, same security parameters
//! — and then narrowed *mask first*: the mask's rounding error `Δ` would
//! reach the phase `b − a·s` multiplied by the ring key (`‖s‖ ≈ √(N/2)`;
//! measured at the paper's parameters, blind-rotation noise variance
//! +140 … 160 %: `key_width_sweep` in `matcha-bench`), so the
//! body is recomputed for the mask as stored, `b + Δ·s`, before it is
//! rounded ([`FftEngine::store_key_row`]). The stored row's phase is then
//! the original's plus the body's own rounding, a uniform step of `2^e`
//! per spectral component: `4^e/(6N)` of variance per coefficient, 0.3 %
//! of the key's own noise at the paper's parameters —
//! [`NoiseModel`](crate::analyze::NoiseModel) charges it. Rows go into the
//! slab as they are produced; nothing but one TGSW sample is ever held
//! beside it.
//!
//! # A step
//!
//! Blind rotation never stores a bundle. A step
//! ([`UnrolledBootstrappingKey::bundle_product_assign`]) transforms the
//! accumulator's `2ℓ` gadget digits first, then makes one pass over its
//! group ([`FftEngine::bundle_product_into`]): on the f64 engine's vector
//! leg, chunk by chunk, the group's `2·2ℓ` blocks are read side by side,
//! each bundle entry is summed in registers and multiplied into the two
//! accumulators there and then — MATCHA's TGSW cluster feeding the EP
//! cores (Figure 6a) with no bundle buffer between them. Building the
//! bundle first ([`UnrolledBootstrappingKey::build_bundle_into`], 96 KB at
//! `MATCHA`) and taking its [`TgswSpectrum::external_product_assign`] is
//! the definition the step is held to, bit for bit on every kernel leg.
//! Dropping the store and the reload took a blind rotation of `F64Fft` at
//! `m = 2` to 0.73–0.84 of its time on a 2-vCPU Xeon (whole rotations
//! alternated in one process), and its gates a second up 6–20 % (medians
//! of three batches of ten alternating benchmark pairs, CHANGES.md).

use crate::params::ParameterSet;
use crate::scratch::EpScratch;
use crate::secret::{LweSecretKey, RingSecretKey};
use crate::tgsw::{TgswCiphertext, TgswSpectrum};
use crate::tlwe::TrlweCiphertext;
use matcha_fft::{key_exponent, FftEngine, KeyBlock, Spectrum};
use matcha_math::{GadgetDecomposer, TorusSampler};
use rand::Rng;

/// Largest unroll factor a key is generated for: `2^m − 1` keys per group
/// grow exponentially (the paper stops at `m = 4`), and a bundle names its
/// active patterns in bytes.
const MAX_UNROLL: usize = 8;

/// One group of `len ≤ m` secret bits: where its `2^len − 1` pattern keys
/// lie in the key's slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyGroup {
    offset: usize,
    len: usize,
}

impl KeyGroup {
    /// Number of secret bits this group covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for an empty group (never produced by generation).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pattern keys of the group: one per nonempty bit pattern.
    fn patterns(&self) -> usize {
        (1 << self.len) - 1
    }
}

/// An unrolled bootstrapping key: the pattern keys of `⌈n/m⌉` key groups
/// as one slab of 32-bit words (module docs), plus the gadget TGSW `H` in
/// spectral form (the `1 +` term of every bundle).
#[derive(Clone, Debug)]
pub struct UnrolledBootstrappingKey<E: FftEngine> {
    slab: Vec<i32>,
    /// A stored word `w` stands for `w·2^exp` torus units.
    exp: u32,
    groups: Vec<KeyGroup>,
    /// `H`'s `2·2ℓ` spectra row by row, mask before body: the order of a
    /// group's blocks in the slab.
    h: Vec<E::Spectrum>,
    unroll: usize,
}

impl<E: FftEngine> UnrolledBootstrappingKey<E> {
    /// Encrypts the unrolled bootstrapping key: for every group of `m`
    /// bits of `lwe_key`, TGSW encryptions (under `ring_key`) of every
    /// nonempty pattern indicator, each row written to its place in the
    /// slab as soon as it is transformed.
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is 0 or greater than 8, and if a key spectrum
    /// leaves the range the stored words cover (`8σ`: a `10⁻¹⁵` event per
    /// word).
    pub fn generate<R: Rng>(
        lwe_key: &LweSecretKey,
        ring_key: &RingSecretKey,
        params: &ParameterSet,
        engine: &E,
        unroll: usize,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        assert!(
            (1..=MAX_UNROLL).contains(&unroll),
            "unroll factor {unroll} outside 1..=8"
        );
        let points = params.ring_degree / 2;
        let rows = 2 * params.decomp_levels;
        let mut groups = Vec::with_capacity(lwe_key.dimension().div_ceil(unroll));
        let mut words = 0;
        for bits in lwe_key.bits().chunks(unroll) {
            let group = KeyGroup {
                offset: words,
                len: bits.len(),
            };
            words += rows * 2 * KeyBlock::words(points, group.patterns());
            groups.push(group);
        }
        let mut slab = vec![0; words];
        let exp = key_exponent(params.ring_degree);
        let ring_spectrum = engine.forward_int(ring_key.as_poly());
        for (group, bits) in groups.iter().zip(lwe_key.bits().chunks(unroll)) {
            let row_words = 2 * KeyBlock::words(points, group.patterns());
            for pattern in 1u32..(1 << group.len) {
                let indicator = bits.iter().enumerate().all(|(i, &s)| {
                    let want = (pattern >> i) & 1 == 1;
                    s == want
                });
                let sample = TgswCiphertext::encrypt_constant(
                    i32::from(indicator),
                    ring_key,
                    params,
                    engine,
                    sampler,
                );
                for (r, row) in sample.rows().iter().enumerate() {
                    let row = row.to_spectrum(engine);
                    let at = group.offset + r * row_words;
                    engine.store_key_row(
                        &row.a,
                        &row.b,
                        &ring_spectrum,
                        exp,
                        pattern as usize - 1,
                        &mut slab[at..at + row_words],
                    );
                }
            }
        }
        let h = TgswCiphertext::trivial_one(params).to_spectrum(engine);
        Self {
            slab,
            exp,
            groups,
            h: h.rows()
                .iter()
                .flat_map(|row| [row.a.clone(), row.b.clone()])
                .collect(),
            unroll,
        }
    }

    /// The unroll factor `m`.
    pub(crate) fn unroll(&self) -> usize {
        self.unroll
    }

    /// The key groups, in secret-bit order.
    pub fn groups(&self) -> &[KeyGroup] {
        &self.groups
    }

    /// Total TGSW ciphertexts stored — `⌈n/m⌉·(2^m − 1)`, the exponential
    /// key blow-up of Table 3.
    pub fn key_count(&self) -> usize {
        self.groups.iter().map(KeyGroup::patterns).sum()
    }

    /// Bytes the key holds: the slab of pattern keys and the full-width
    /// gadget `H`.
    pub fn stored_bytes(&self) -> usize {
        let h_words = self.h.len() * 2 * self.points();
        std::mem::size_of_val(&self.slab[..]) + h_words * std::mem::size_of::<u64>()
    }

    /// Points of every spectrum, `N/2`.
    fn points(&self) -> usize {
        self.h[0].len()
    }

    /// The patterns of `group` whose factor is not zero, in pattern order
    /// (the order of the factor tables and of every row's sum), as slots
    /// into the group's blocks — the first `count` of the returned array —
    /// with their factor tables written into `factors`.
    fn active_slots(
        &self,
        engine: &E,
        group: &KeyGroup,
        exponents: &[u32],
        two_n: u32,
        factors: &mut E::MonomialFactors,
    ) -> ([u8; (1 << MAX_UNROLL) - 1], usize) {
        assert_eq!(
            exponents.len(),
            group.len,
            "one exponent per grouped secret bit"
        );
        let active = (0..group.patterns()).filter_map(|slot| {
            let e = pattern_exponent(slot as u32 + 1, exponents, two_n)?;
            Some((slot as u8, e))
        });
        let mut slots = [0u8; (1 << MAX_UNROLL) - 1];
        let mut count = 0;
        for (slot, _) in active.clone() {
            slots[count] = slot;
            count += 1;
        }
        engine.monomial_factors_into(active.map(|(_, e)| e), self.exp, factors);
        (slots, count)
    }

    /// The slab from `group`'s first block on: its `2·2ℓ` blocks, then the
    /// rest of the key, which the rows' lookahead runs into.
    fn key_stream(&self, group: &KeyGroup) -> KeyBlock<'_> {
        KeyBlock {
            stream: &self.slab[group.offset..],
            patterns: group.patterns(),
            exp: self.exp,
        }
    }

    /// Builds the bootstrapping-key bundle for one group (Figure 5) into a
    /// caller-owned bundle:
    ///
    /// `BKB = H + Σ_{p≠0} (X^{-⟨ā, p⟩} − 1) · K_p`,
    ///
    /// evaluated entirely in the Lagrange domain with TGSW scale operations
    /// — no FFTs, no allocation once `factors` has held a group's tables.
    /// `exponents[i]` is the mod-switched `ā` of the group's `i`-th secret
    /// bit. Each of the bundle's `2·2ℓ` spectra is written in one pass,
    /// `row = H_row + Σ_p f_p ⊙ K_p,row` ([`FftEngine::bundle_row_into`]),
    /// over the group's next block of the slab: the sum over the patterns
    /// is carried in registers, so a row is read from `H` and the key once
    /// and stored once, never read back, and the group is read front to
    /// back. The factor tables `f_p = ε^{e_p} − 1` of all patterns are
    /// computed once per call into `factors` and shared by every row;
    /// patterns whose exponent is `0` (factor identically zero) are
    /// skipped, their slots left out of the rows' list.
    ///
    /// It is the definition [`UnrolledBootstrappingKey::bundle_product_assign`]
    /// is held to; blind rotation itself never stores a bundle.
    ///
    /// # Panics
    ///
    /// Panics if `exponents.len()` differs from the group length, the
    /// bundle buffer has the wrong shape, or `group` is not one of this
    /// key's.
    pub fn build_bundle_into(
        &self,
        engine: &E,
        group: &KeyGroup,
        exponents: &[u32],
        two_n: u32,
        bundle: &mut TgswSpectrum<E>,
        factors: &mut E::MonomialFactors,
    ) {
        assert_eq!(
            2 * bundle.rows().len(),
            self.h.len(),
            "bundle buffer has the wrong row count"
        );
        let (slots, count) = self.active_slots(engine, group, exponents, two_n, factors);
        let mut key = self.key_stream(group);
        let block = KeyBlock::words(self.points(), key.patterns);
        let outs = bundle
            .rows_mut()
            .iter_mut()
            .flat_map(|row| [&mut row.a, &mut row.b]);
        for (h, out) in self.h.iter().zip(outs) {
            engine.bundle_row_into(h, key, &slots[..count], factors, out);
            key.stream = &key.stream[block..];
        }
    }

    /// One blind-rotation step, `acc ← BKB ⊡ acc` with `BKB` the bundle
    /// [`UnrolledBootstrappingKey::build_bundle_into`] builds for `group`
    /// and `exponents` (`2N` from the engine's ring degree), the bundle
    /// never stored: the factor tables, the `2ℓ` fused decompose→forward
    /// transforms of `acc` into the scratch's digit spectra (mask levels
    /// first), one [`FftEngine::bundle_product_into`] over the group's key
    /// — every bundle entry built and multiplied while its key line is in
    /// hand, as MATCHA's TGSW cluster streams bundles into the EP cores —
    /// and the two backward transforms. Bit-identical to `build_bundle_into`
    /// followed by [`TgswSpectrum::external_product_assign`]; zero
    /// allocations once `scratch` is warmed.
    ///
    /// # Panics
    ///
    /// Panics if `exponents.len()` differs from the group length, if
    /// `decomp.levels()` is not the key's `ℓ`, if `scratch` was built for
    /// fewer levels, or if `group` is not one of this key's.
    pub fn bundle_product_assign(
        &self,
        engine: &E,
        group: &KeyGroup,
        exponents: &[u32],
        decomp: &GadgetDecomposer,
        acc: &mut TrlweCiphertext,
        scratch: &mut EpScratch<E>,
    ) {
        let levels = decomp.levels();
        assert_eq!(
            4 * levels,
            self.h.len(),
            "decomposer levels must match the key's ℓ"
        );
        let two_n = 2 * engine.ring_degree() as u32;
        let EpScratch {
            engine: es,
            digits,
            acc_a,
            acc_b,
            factors,
        } = scratch;
        let (slots, count) = self.active_slots(engine, group, exponents, two_n, factors);
        let digits = &mut digits[..2 * levels];
        for (half, poly) in [acc.mask(), acc.body()].into_iter().enumerate() {
            for level in 0..levels {
                engine.forward_decomposed_into(
                    poly,
                    decomp,
                    level,
                    &mut digits[half * levels + level],
                    es,
                );
            }
        }
        let key = self.key_stream(group);
        engine.bundle_product_into(
            &self.h,
            key,
            &slots[..count],
            factors,
            digits,
            [acc_a, acc_b],
            es,
        );
        let (mask, body) = acc.parts_mut();
        engine.backward_torus_into(acc_a, mask, es);
        engine.backward_torus_into(acc_b, body, es);
    }
}

/// The bundle exponent `-⟨ā, p⟩ mod 2N` of a bit pattern, or `None` when
/// the term vanishes (`X^0 − 1 = 0`).
fn pattern_exponent(pattern: u32, exponents: &[u32], two_n: u32) -> Option<i64> {
    let mut e: i64 = 0;
    for (i, &a) in exponents.iter().enumerate() {
        if (pattern >> i) & 1 == 1 {
            e -= a as i64;
        }
    }
    let e = e.rem_euclid(two_n as i64);
    if e == 0 {
        None
    } else {
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlwe::{TrlweCiphertext, TrlweSpectrum};
    use matcha_fft::approx::FixedSpectrum;
    use matcha_fft::{ApproxIntFft, CplxSpectrum, F64Fft, Leg};
    use matcha_math::{stats, GadgetDecomposer, Torus32, TorusPolynomial};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The full-width spectrum a block's stored words stand for — what the
    /// bundle rows widen on the fly, here as a value a test can look at.
    trait StoredWords: FftEngine {
        /// `words(k)` are point `k`'s `[re, im]` words of `2^exp` torus
        /// units.
        fn widen(&self, words: impl Fn(usize) -> [i32; 2], exp: u32) -> Self::Spectrum;
    }

    impl StoredWords for F64Fft {
        fn widen(&self, words: impl Fn(usize) -> [i32; 2], exp: u32) -> CplxSpectrum {
            let part = |c: usize| {
                (0..self.ring_degree() / 2)
                    .map(|k| f64::from(words(k)[c]) * f64::from(exp).exp2())
                    .collect()
            };
            CplxSpectrum {
                re: part(0),
                im: part(1),
            }
        }
    }

    impl StoredWords for ApproxIntFft {
        fn widen(&self, words: impl Fn(usize) -> [i32; 2], exp: u32) -> FixedSpectrum {
            // The scale of a torus spectrum, read off one.
            let zero = TorusPolynomial::zero(self.ring_degree());
            let frac_bits = self.forward_torus(&zero).frac_bits;
            let part = |c: usize| {
                (0..self.ring_degree() / 2)
                    .map(|k| i64::from(words(k)[c]) << (exp + frac_bits))
                    .collect()
            };
            FixedSpectrum {
                re: part(0),
                im: part(1),
                frac_bits,
            }
        }
    }

    /// The gadget TGSW `H` the key holds, as a sample: also the shape of a
    /// bundle buffer.
    fn gadget<E: FftEngine>(bk: &UnrolledBootstrappingKey<E>) -> TgswSpectrum<E> {
        let rows = bk.h.chunks(2).map(|row| TrlweSpectrum {
            a: row[0].clone(),
            b: row[1].clone(),
        });
        TgswSpectrum::from_rows(rows.collect(), bk.h.len() / 4)
    }

    /// The key of bit pattern `pattern ∈ [1, 2^len)` of group `group`,
    /// widened: the TGSW sample blind rotation computes with.
    fn key_spectrum<E: StoredWords>(
        bk: &UnrolledBootstrappingKey<E>,
        engine: &E,
        group: usize,
        pattern: u32,
    ) -> TgswSpectrum<E> {
        let group = bk.groups[group];
        let (points, patterns) = (bk.points(), group.patterns());
        let block = KeyBlock::words(points, patterns);
        let spectrum = |at: usize| {
            let words = &bk.slab[group.offset + at * block..][..block];
            engine.widen(
                |k| {
                    let i = KeyBlock::word_index(points, patterns, pattern as usize - 1, k);
                    [words[i], words[i + KeyBlock::chunk(points)]]
                },
                bk.exp,
            )
        };
        let rows = (0..bk.h.len() / 2)
            .map(|r| TrlweSpectrum {
                a: spectrum(2 * r),
                b: spectrum(2 * r + 1),
            })
            .collect();
        TgswSpectrum::from_rows(rows, bk.h.len() / 4)
    }

    /// A small key on any engine, the secrets it encrypts, and the sampler
    /// as it stood *before* the key was drawn (a clone replays the draws).
    struct Setup<E: FftEngine> {
        params: ParameterSet,
        lwe_key: LweSecretKey,
        ring_key: RingSecretKey,
        engine: E,
        bk: UnrolledBootstrappingKey<E>,
        before: TorusSampler<StdRng>,
    }

    fn setup_with<E: FftEngine>(params: ParameterSet, engine: E, unroll: usize) -> Setup<E> {
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(37 + unroll as u64));
        let lwe_key = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let ring_key = RingSecretKey::generate(params.ring_degree, &mut sampler);
        let before = sampler.clone();
        let bk = UnrolledBootstrappingKey::generate(
            &lwe_key,
            &ring_key,
            &params,
            &engine,
            unroll,
            &mut sampler,
        );
        Setup {
            params,
            lwe_key,
            ring_key,
            engine,
            bk,
            before,
        }
    }

    fn setup(unroll: usize, n_lwe: usize) -> Setup<F64Fft> {
        let params = ParameterSet {
            ring_degree: 64,
            lwe_dimension: n_lwe,
            ..ParameterSet::TEST_FAST
        };
        setup_with(params, F64Fft::new(params.ring_degree), unroll)
    }

    /// A group's bundle in fresh buffers.
    fn build_bundle(
        bk: &UnrolledBootstrappingKey<F64Fft>,
        engine: &F64Fft,
        group: &KeyGroup,
        exponents: &[u32],
        two_n: u32,
    ) -> TgswSpectrum<F64Fft> {
        let mut bundle = gadget(bk);
        let mut factors = Default::default();
        bk.build_bundle_into(engine, group, exponents, two_n, &mut bundle, &mut factors);
        bundle
    }

    #[test]
    fn key_counts_follow_formula() {
        for (m, n, expected) in [(1usize, 6usize, 6usize), (2, 6, 9), (3, 6, 14), (2, 5, 7)] {
            let bk = setup(m, n).bk;
            assert_eq!(bk.key_count(), expected, "m={m} n={n}");
            assert_eq!(bk.groups().len(), n.div_ceil(m));
        }
    }

    #[test]
    fn remainder_group_is_shorter() {
        let bk = setup(4, 6).bk;
        assert_eq!(bk.groups()[0].len(), 4);
        assert_eq!(bk.groups()[1].len(), 2);
        assert_eq!(bk.key_count(), 15 + 3);
    }

    #[test]
    fn slab_is_half_the_full_width_key() {
        // 16 bytes a point at full width (two 8-byte components), 8 as
        // stored — whatever the group lengths; `stored_bytes` adds `H`.
        for (m, n) in [(1usize, 6usize), (3, 6), (4, 6), (2, 5)] {
            let Setup { params, bk, .. } = setup(m, n);
            let rows = 2 * params.decomp_levels;
            let full_width = bk.key_count() * rows * 2 * (params.ring_degree / 2) * 16;
            let slab = std::mem::size_of_val(&bk.slab[..]);
            assert_eq!(2 * slab, full_width, "m={m} n={n}");
            let h = rows * 2 * (params.ring_degree / 2) * 16;
            assert_eq!(bk.stored_bytes(), slab + h, "m={m} n={n}");
        }
    }

    /// The heart of BKU: applying a bundle to an accumulator must multiply
    /// its message by exactly `X^{-Σ ā_i s_i}`.
    #[test]
    fn bundle_external_product_rotates_by_group_phase() {
        for m in 1..=3usize {
            let Setup {
                params: p,
                lwe_key,
                ring_key,
                engine,
                bk,
                before: mut sampler,
            } = setup(m, 6);
            let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
            let two_n = p.two_n();
            let msg = TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree);
            let acc = TrlweCiphertext::encrypt(
                &msg,
                &ring_key,
                p.ring_noise_stdev,
                &engine,
                &mut sampler,
            );

            let group = &bk.groups()[0];
            let exponents: Vec<u32> = (0..group.len()).map(|i| (7 + 13 * i) as u32).collect();
            let bundle = build_bundle(&bk, &engine, group, &exponents, two_n);
            let out = bundle.external_product(&engine, &acc, &decomp);

            // Expected rotation: -Σ ā_i s_i over the group's true key bits.
            let mut shift: i64 = 0;
            for (i, &e) in exponents.iter().enumerate() {
                if lwe_key.bits()[i] {
                    shift -= e as i64;
                }
            }
            let expected = msg.mul_by_monomial(shift);
            let dist = out.phase(&ring_key, &engine).max_distance(&expected);
            assert!(dist < 5e-3, "m={m}: distance {dist}");
        }
    }

    #[test]
    fn zero_exponents_yield_identity_bundle() {
        let Setup {
            params: p,
            ring_key,
            engine,
            bk,
            before: mut sampler,
            ..
        } = setup(2, 4);
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let msg = TorusPolynomial::constant(Torus32::from_f64(0.125), p.ring_degree);
        let acc =
            TrlweCiphertext::encrypt(&msg, &ring_key, p.ring_noise_stdev, &engine, &mut sampler);
        let bundle = build_bundle(&bk, &engine, &bk.groups()[0], &[0, 0], p.two_n());
        let out = bundle.external_product(&engine, &acc, &decomp);
        assert!(out.phase(&ring_key, &engine).max_distance(&msg) < 5e-3);
    }

    /// Every row of every group — the short last one too — against the
    /// bundle formula evaluated on the widened keys: the rows find their
    /// blocks, their slots and their factor tables.
    #[test]
    fn bundle_is_h_plus_scaled_pattern_keys() {
        let Setup {
            params: p,
            engine,
            bk,
            ..
        } = setup(3, 8);
        for (g, group) in bk.groups().iter().enumerate() {
            // The middle bit's exponent is 0: patterns of it alone vanish.
            let exponents: Vec<u32> = [11, 0, 40][..group.len()].to_vec();
            let bundle = build_bundle(&bk, &engine, group, &exponents, p.two_n());
            let mut expected = gadget(&bk);
            for pattern in 1u32..(1 << group.len()) {
                let Some(e) = pattern_exponent(pattern, &exponents, p.two_n()) else {
                    continue;
                };
                let key = key_spectrum(&bk, &engine, g, pattern);
                let mut factor = Default::default();
                engine.monomial_factors_into([e].into_iter(), 0, &mut factor);
                let factor = CplxSpectrum {
                    re: factor.re,
                    im: factor.im,
                };
                for (row, key_row) in expected.rows_mut().iter_mut().zip(key.rows()) {
                    engine.mul_accumulate(
                        [&mut row.a, &mut row.b],
                        &factor,
                        [&key_row.a, &key_row.b],
                    );
                }
            }
            for (r, (row, want)) in bundle.rows().iter().zip(expected.rows()).enumerate() {
                let (got, want) = (row.to_ciphertext(&engine), want.to_ciphertext(&engine));
                let dist = got
                    .mask()
                    .max_distance(want.mask())
                    .max(got.body().max_distance(want.body()));
                assert!(dist < 1e-7, "group {g} row {r}: distance {dist}");
            }
        }
    }

    /// The fused step against its definition, the stored bundle's external
    /// product, bit for bit: every group of a key built at unroll `unroll`
    /// (the short last one too), under exponents that leave every pattern
    /// active, one bit's patterns out (a zero exponent), pairs of bits
    /// cancelling, and none — on every kernel leg (`make`).
    fn fused_step_is_bundle_then_product<E: FftEngine>(
        params: ParameterSet,
        unroll: usize,
        make: impl Fn(Leg) -> E,
    ) {
        let Setup {
            bk,
            before: mut sampler,
            ..
        } = setup_with(params, make(Leg::host()), unroll);
        let (n, two_n) = (params.ring_degree, params.two_n());
        let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
        let acc = TrlweCiphertext::from_parts(sampler.uniform_poly(n), sampler.uniform_poly(n));
        let bits = 0..unroll as u32;
        let exponent_sets: [Vec<u32>; 4] = [
            bits.clone().map(|i| (37 + 101 * i) % two_n).collect(),
            bits.clone()
                .map(|i| [5 + 211 * i, 0][(i == 1) as usize] % two_n)
                .collect(),
            bits.clone()
                .map(|i| [300 + i, two_n + 1 - 300 - i][(i % 2) as usize])
                .collect(),
            vec![0; unroll],
        ];
        for leg in Leg::ALL {
            let engine = make(leg);
            let mut bundle = gadget(&bk);
            let mut factors = Default::default();
            let mut reference = EpScratch::new(&engine, &params);
            let mut fused = EpScratch::new(&engine, &params);
            for exponents in &exponent_sets {
                for (g, group) in bk.groups().iter().enumerate() {
                    let exponents = &exponents[..group.len()];
                    let mut want = acc.clone();
                    bk.build_bundle_into(
                        &engine,
                        group,
                        exponents,
                        two_n,
                        &mut bundle,
                        &mut factors,
                    );
                    bundle.external_product_assign(&engine, &mut want, &decomp, &mut reference);
                    let mut got = acc.clone();
                    bk.bundle_product_assign(
                        &engine, group, exponents, &decomp, &mut got, &mut fused,
                    );
                    assert!(
                        got == want,
                        "{leg:?}, N={n} m={unroll}, group {g}, exponents {exponents:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_step_is_bit_identical_at_test_fast() {
        // Seven bits: a short last group at every unroll factor above 1.
        let params = ParameterSet {
            lwe_dimension: 7,
            ..ParameterSet::TEST_FAST
        };
        let n = params.ring_degree;
        for unroll in 1..=4 {
            fused_step_is_bundle_then_product(params, unroll, |leg| F64Fft::with_leg(n, leg));
            let approx = |leg| ApproxIntFft::with_leg(n, 38, leg);
            fused_step_is_bundle_then_product(params, unroll, approx);
        }
    }

    #[test]
    fn fused_step_is_bit_identical_at_paper_parameters() {
        // The benchmark's configurations at the paper's ring and gadget,
        // with five key bits: groups of 2, 2, 1 and of 3, 2.
        let params = ParameterSet {
            lwe_dimension: 5,
            ..ParameterSet::MATCHA
        };
        let n = params.ring_degree;
        fused_step_is_bundle_then_product(params, 2, |leg| F64Fft::with_leg(n, leg));
        fused_step_is_bundle_then_product(params, 3, |leg| ApproxIntFft::with_leg(n, 38, leg));
    }

    #[test]
    fn indicator_keys_are_one_hot() {
        // Exactly one pattern key per group should encrypt 1 (the pattern
        // matching the true bits) unless the group bits are all zero.
        let Setup {
            params: p,
            lwe_key,
            ring_key,
            engine,
            bk,
            ..
        } = setup(2, 6);
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(99));
        let probe = TrlweCiphertext::encrypt(
            &TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree),
            &ring_key,
            p.ring_noise_stdev,
            &engine,
            &mut sampler,
        );
        for (g, group) in bk.groups().iter().enumerate() {
            let bits = &lwe_key.bits()[2 * g..2 * g + group.len()];
            let true_pattern: u32 = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| u32::from(b) << i)
                .sum();
            for pattern in 1u32..(1 << group.len()) {
                let key = key_spectrum(&bk, &engine, g, pattern);
                let out = key.external_product(&engine, &probe, &decomp);
                let phase = out.phase(&ring_key, &engine);
                let expect = if pattern == true_pattern {
                    probe.phase(&ring_key, &engine)
                } else {
                    TorusPolynomial::zero(p.ring_degree)
                };
                assert!(
                    phase.max_distance(&expect) < 5e-3,
                    "group {g} pattern {pattern:b}"
                );
            }
        }
    }

    /// The noise of every row of `sample` in raw torus units: its phase
    /// `b − a·s`, taken in the Lagrange domain as the external product
    /// meets the rows (`key` is the ring secret's spectrum; a detour
    /// through coefficients would round the mask once more, and the secret
    /// would amplify that too), minus the row's message — `μ·h_j` on the
    /// body or `−μ·h_j·s` on the mask, which is `μ` times the phase of the
    /// noiseless `H`'s row.
    fn row_noise<E: FftEngine>(
        sample: &[TrlweSpectrum<E>],
        mu: bool,
        gadget: &TgswSpectrum<E>,
        key: &E::Spectrum,
        engine: &E,
        out: &mut Vec<f64>,
    ) {
        let phase = |row: &TrlweSpectrum<E>| {
            let mut mask_times_key = engine.zero_spectrum();
            engine.mul_accumulate([&mut mask_times_key], &row.a, [key]);
            engine.backward_torus(&row.b) - &engine.backward_torus(&mask_times_key)
        };
        for (row, gadget_row) in sample.iter().zip(gadget.rows()) {
            let mut noise = phase(row);
            if mu {
                noise -= &phase(gadget_row);
            }
            out.extend(
                noise
                    .coeffs()
                    .iter()
                    .map(|c| c.signed_diff(Torus32::ZERO) * 4294967296.0),
            );
        }
    }

    /// Storing a key must not let the mask's rounding meet the secret: the
    /// phase error of every stored row has the standard deviation the row
    /// had before it was stored (within 2 %; the body's own rounding is
    /// 0.15 % of it). Rounding mask and body each as it stands — the same
    /// rows through `store_key_row` with no key — reads +17 %: the control
    /// that shows the comparison can see it.
    fn stored_rows_keep_their_phase_on<E: StoredWords>(engine: E) {
        // The paper's noise and gadget at a ring small enough for a test:
        // the mask error's weight, `‖s‖² ≈ N/2`, still dwarfs the body's.
        let params = ParameterSet {
            ring_degree: 256,
            lwe_dimension: 6,
            ..ParameterSet::MATCHA
        };
        let Setup {
            lwe_key,
            ring_key,
            engine,
            bk,
            before: mut replay,
            ..
        } = setup_with(params, engine, 2);
        let exp = key_exponent(params.ring_degree);
        let points = params.ring_degree / 2;
        let key = engine.forward_int(ring_key.as_poly());
        let gadget = &gadget(&bk);
        let (mut fresh, mut stored, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        for (g, bits) in lwe_key.bits().chunks(2).enumerate() {
            for pattern in 1u32..(1 << bits.len()) {
                let mu = bits
                    .iter()
                    .enumerate()
                    .all(|(i, &s)| s == ((pattern >> i) & 1 == 1));
                // The sample generation drew for this key, before storing.
                let sample = TgswCiphertext::encrypt_constant(
                    i32::from(mu),
                    &ring_key,
                    &params,
                    &engine,
                    &mut replay,
                )
                .to_spectrum(&engine);
                row_noise(sample.rows(), mu, gadget, &key, &engine, &mut fresh);
                let widened = key_spectrum(&bk, &engine, g, pattern);
                row_noise(widened.rows(), mu, gadget, &key, &engine, &mut stored);
                // The control: each spectrum rounded as it stands.
                let rounded: Vec<_> = sample
                    .rows()
                    .iter()
                    .map(|row| {
                        let mut words = vec![0; 2 * KeyBlock::words(points, 1)];
                        let no_key = engine.zero_spectrum();
                        engine.store_key_row(&row.a, &row.b, &no_key, exp, 0, &mut words);
                        let (mask, body) = words.split_at(words.len() / 2);
                        let widen = |block: &[i32]| {
                            engine.widen(
                                |k| {
                                    let i = KeyBlock::word_index(points, 1, 0, k);
                                    [block[i], block[i + KeyBlock::chunk(points)]]
                                },
                                exp,
                            )
                        };
                        TrlweSpectrum::<E> {
                            a: widen(mask),
                            b: widen(body),
                        }
                    })
                    .collect();
                row_noise(&rounded, mu, gadget, &key, &engine, &mut plain);
            }
        }
        let sigma = stats::stdev(&fresh);
        let expected = params.ring_noise_stdev * 4294967296.0;
        assert!(
            (sigma / expected - 1.0).abs() < 0.05,
            "unstored rows: σ = {sigma} raw units, parameters say {expected}"
        );
        let kept = stats::stdev(&stored) / sigma;
        assert!(
            (kept - 1.0).abs() < 0.02,
            "stored rows: σ is {kept} of the unstored rows'"
        );
        let lost = stats::stdev(&plain) / sigma;
        assert!(lost > 1.1, "plainly rounded rows: σ is only {lost} of it");
    }

    #[test]
    fn stored_rows_keep_their_phase() {
        stored_rows_keep_their_phase_on(F64Fft::new(256));
        stored_rows_keep_their_phase_on(ApproxIntFft::new(256, 38));
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn zero_unroll_rejected() {
        let p = ParameterSet {
            ring_degree: 64,
            lwe_dimension: 4,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(1));
        let lwe_key = LweSecretKey::generate(4, &mut sampler);
        let ring_key = RingSecretKey::generate(64, &mut sampler);
        let engine = F64Fft::new(64);
        let _ =
            UnrolledBootstrappingKey::generate(&lwe_key, &ring_key, &p, &engine, 0, &mut sampler);
    }
}
