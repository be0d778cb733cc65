//! The [`FftEngine`] abstraction shared by the reference and approximate
//! transforms.
//!
//! TFHE's external product needs exactly three spectral operations:
//! transform small integer polynomials (gadget digits, binary secrets) into
//! the Lagrange domain, transform torus polynomials likewise, and bring an
//! accumulated pointwise product back to coefficients. Keeping the engine
//! behind a trait lets the whole scheme run on either the double-precision
//! reference kernel or MATCHA's approximate integer kernel, which is how the
//! paper's accuracy experiments (Figure 8, Table 3) compare the two.
//!
//! # In-place execution
//!
//! Bootstrapping performs `~2ℓ·⌈n/m⌉` transforms per gate; allocating fresh
//! buffers for each would dominate the cost the paper's accelerator removes.
//! Every transform therefore has an `*_into` variant writing into
//! caller-owned spectra/polynomials, threaded through an engine-specific
//! [`FftEngine::Scratch`] workspace. After a warm-up call the scratch owns
//! all required capacity and steady-state transforms allocate nothing. The
//! allocating methods are thin wrappers over the `*_into` core.
//!
//! # SIMD
//!
//! Both engines store spectra split-complex and execute their butterfly
//! stages and pointwise accumulates through the [`crate::simd`] kernels, on
//! the kernel leg the engine was built with ([`FftEngine::leg`]). Generic
//! callers (the external product, bootstrapping) pick the vectorized
//! kernels up for free through this trait; what they see of the legs is
//! that one accessor, which key generation reads so that the
//! key-switching key runs on its engine's leg.

use crate::simd::Leg;
use matcha_math::{GadgetDecomposer, IntPolynomial, TorusPolynomial};
use std::fmt::Debug;

/// A Lagrange half-complex spectrum owned by a specific engine family.
pub trait Spectrum: Clone + Debug + Send + Sync {
    /// Number of complex evaluation points (`N/2`).
    fn len(&self) -> usize;
    /// Returns `true` for the degenerate empty spectrum.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A negacyclic FFT engine over `T_N[X]`.
///
/// Implementations must satisfy, up to their documented accuracy:
/// `backward_torus(fwd_torus(p) ⊙ fwd_int(q)) = p·q mod (X^N+1, 1)`.
///
/// The `*_into` methods are the engine core and must be bit-identical to
/// their allocating counterparts; after one warm-up call per buffer they
/// must not allocate.
///
/// # Examples
///
/// ```
/// use matcha_fft::{F64Fft, FftEngine};
/// use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
///
/// let engine = F64Fft::new(8);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.25), 8);
/// let mut q = IntPolynomial::zero(8);
/// q.coeffs_mut()[0] = 2;
/// let mut acc = engine.zero_spectrum();
/// engine.mul_accumulate([&mut acc], &engine.forward_torus(&p), [&engine.forward_int(&q)]);
/// let r = engine.backward_torus(&acc);
/// assert!(r.coeffs()[0].signed_diff(Torus32::from_f64(0.5)).abs() < 1e-6);
/// ```
pub trait FftEngine {
    /// The engine's spectral representation.
    type Spectrum: Spectrum;

    /// Pointwise factors `(X^e − 1)` evaluated at the engine's Lagrange
    /// points, one table per exponent, concatenated; reusable across the
    /// `2ℓ·(k+1)` polynomials of a TGSW sample.
    type MonomialFactors: Clone + Debug + Default + Send + Sync;

    /// Reusable per-caller workspace for the `*_into` transforms. A
    /// default-constructed scratch is empty; the first transform through it
    /// sizes its buffers, after which no further allocation occurs.
    type Scratch: Default + Debug + Send;

    /// Ring degree `N`.
    fn ring_degree(&self) -> usize;

    /// The kernel leg every transform and product of this engine runs on,
    /// fixed when the engine was built and never wider than the CPU runs.
    fn leg(&self) -> Leg;

    /// The zero spectrum, ready for [`FftEngine::mul_accumulate`].
    fn zero_spectrum(&self) -> Self::Spectrum;

    /// Resets `s` to the zero spectrum (resizing it if needed), making it a
    /// valid accumulator for [`FftEngine::mul_accumulate`] without
    /// allocating once `s` has the right capacity.
    fn clear_spectrum(&self, s: &mut Self::Spectrum);

    /// A fresh scratch workspace (buffers are sized lazily on first use).
    fn make_scratch(&self) -> Self::Scratch {
        Self::Scratch::default()
    }

    /// Coefficients → Lagrange domain for an integer polynomial, writing
    /// into `out`.
    ///
    /// Integer inputs are gadget digits or binary secrets; implementations
    /// may assume `‖p‖∞ ≤ 2^10` (the largest digit magnitude produced by the
    /// decompositions in this workspace).
    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    );

    /// Coefficients → Lagrange domain for a torus polynomial, writing into
    /// `out`.
    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    );

    /// Fused gadget-decompose → forward transform: extracts digit `level`
    /// of every coefficient of `p` during the negacyclic twist fold and
    /// transforms it, writing into `out`.
    ///
    /// Must be bit-identical to materializing the digit polynomial with
    /// [`GadgetDecomposer::decompose_poly_into`] and calling
    /// [`FftEngine::forward_int_into`] on it — the external product relies
    /// on that equivalence to swap freely between the two paths — while
    /// never writing the digit polynomial to memory and, warmed, never
    /// allocating.
    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &GadgetDecomposer,
        level: usize,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    );

    /// Lagrange domain → torus coefficients (with reduction mod 1), writing
    /// into `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `out.len()` differs from the ring degree.
    fn backward_torus_into(
        &self,
        s: &Self::Spectrum,
        out: &mut TorusPolynomial,
        scratch: &mut Self::Scratch,
    );

    /// Coefficients → Lagrange domain for an integer polynomial
    /// (allocating wrapper over [`FftEngine::forward_int_into`]).
    fn forward_int(&self, p: &IntPolynomial) -> Self::Spectrum {
        let mut out = self.zero_spectrum();
        let mut scratch = self.make_scratch();
        self.forward_int_into(p, &mut out, &mut scratch);
        out
    }

    /// Coefficients → Lagrange domain for a torus polynomial (allocating
    /// wrapper over [`FftEngine::forward_torus_into`]).
    fn forward_torus(&self, p: &TorusPolynomial) -> Self::Spectrum {
        let mut out = self.zero_spectrum();
        let mut scratch = self.make_scratch();
        self.forward_torus_into(p, &mut out, &mut scratch);
        out
    }

    /// Lagrange domain → torus coefficients (allocating wrapper over
    /// [`FftEngine::backward_torus_into`]).
    fn backward_torus(&self, s: &Self::Spectrum) -> TorusPolynomial {
        let mut out = TorusPolynomial::zero(self.ring_degree());
        let mut scratch = self.make_scratch();
        self.backward_torus_into(s, &mut out, &mut scratch);
        out
    }

    /// `accs[r] += x ⊙ rows[r]` for each of `R` rows (pointwise complex
    /// multiply-accumulate), in one pass that reads `x` once.
    ///
    /// One row is a plain product (key generation,
    /// [`FftEngine::poly_mul`]). Two are the external product's inner loop:
    /// each transformed digit multiplies the mask and body rows of a TGSW
    /// sample. A row's result does not depend on `R`, so one call with two
    /// rows is bit-identical to two calls with one.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the spectra come from incompatible
    /// transforms (mismatched sizes or scales).
    fn mul_accumulate<const R: usize>(
        &self,
        accs: [&mut Self::Spectrum; R],
        x: &Self::Spectrum,
        rows: [&Self::Spectrum; R],
    );

    /// Writes the pointwise factor tables `ε_k^e − 1` (`k < N/2`), one per
    /// exponent in iteration order, back to back into `out`: at evaluation
    /// point `ε_k = e^{iπ(4k+1)/N}` the monomial `X^e` is the scalar
    /// `ε_k^e`. One table serves every row of a TGSW sample, so bundle
    /// construction fills `out` once per blind-rotation step — all of the
    /// step's patterns in one call — and reuses its capacity afterwards.
    ///
    /// The tables are made for a key stored in words of `2^key_exp` torus
    /// units ([`KeyBlock::exp`]), and an engine takes that unit where it is
    /// free: the double-precision engine multiplies it into the tables here
    /// (a power of two, exact), once per step instead of once per stored
    /// word; the integer engine's quantized tables stay as they are and its
    /// bundle row takes `key_exp` off its rounding shift.
    fn monomial_factors_into(
        &self,
        exponents: impl Iterator<Item = i64>,
        key_exp: u32,
        out: &mut Self::MonomialFactors,
    );

    /// Stores one TRLWE key row `(a, b)` — `forward_torus` spectra — as
    /// pattern `slot` of `row`, the row's mask block followed by its body
    /// block (`row.len() / 2` words each; see [`KeyBlock`] for a block's
    /// layout), in words of `2^exp` torus units.
    ///
    /// The mask goes first: `Â = round(a / 2^exp)`, and its rounding error
    /// `Δ = 2^exp·Â − a` moves into the body before that is rounded in its
    /// turn, `round((b + Δ ⊙ key) / 2^exp)` with `key` the
    /// [`FftEngine::forward_int`] spectrum of the ring secret. The stored
    /// row's phase `b′ − a′·s` is then the original row's plus the body's
    /// own rounding — the mask's error, which the phase would multiply by
    /// the secret (`‖s‖ ≈ √(N/2)`), cancels. With a zero `key` both
    /// spectra are rounded as they stand.
    ///
    /// # Panics
    ///
    /// Implementations panic on mismatched sizes, on a `slot` the blocks do
    /// not hold, and on any value that `exp` does not bring into an `i32`.
    fn store_key_row(
        &self,
        a: &Self::Spectrum,
        b: &Self::Spectrum,
        key: &Self::Spectrum,
        exp: u32,
        slot: usize,
        row: &mut [i32],
    );

    /// One bundle row in a single pass:
    /// `out = h + Σ_p factors[p] ⊙ 2^exp·key[slots[p]]`, the stored spectrum
    /// in pattern slot `slots[p]` of `key` paired with the `p`-th table of
    /// [`FftEngine::monomial_factors_into`] (with exponents `e_p`, this is
    /// `h + Σ_p (X^{e_p} − 1)·K_p` in the Lagrange domain).
    ///
    /// This is the *TGSW scale* operation of MATCHA's TGSW clusters
    /// (paper Fig. 5/7b): bootstrapping-key bundles are linear combinations
    /// of pre-transformed keys, so building them needs pointwise complex
    /// multiplications (32-bit integer multipliers in hardware) but **no
    /// additional FFTs** — the property that makes aggressive key unrolling
    /// reduce FFT counts.
    ///
    /// `h` must be a `forward_torus` spectrum and `key` blocks written by
    /// [`FftEngine::store_key_row`]; each output element is accumulated
    /// over the terms in order and written once. Fixed-point engines drop a
    /// few fractional bits of `h` first so that summing up to `2^m − 1`
    /// scaled terms (`|X^e − 1| ≤ 2` each) cannot overflow.
    ///
    /// # Panics
    ///
    /// Implementations panic if the number of slots differs from the number
    /// of factor tables, if the tables were made for another `key.exp`, if
    /// a slot is not one of `key.patterns`, if `key.stream` is shorter than
    /// the block, or on mismatched spectrum sizes.
    fn bundle_row_into(
        &self,
        h: &Self::Spectrum,
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &Self::MonomialFactors,
        out: &mut Self::Spectrum,
    );

    /// Convenience: the full negacyclic product `p · q`.
    fn poly_mul(&self, p: &TorusPolynomial, q: &IntPolynomial) -> TorusPolynomial {
        let mut acc = self.zero_spectrum();
        self.mul_accumulate([&mut acc], &self.forward_torus(p), [&self.forward_int(q)]);
        self.backward_torus(&acc)
    }
}

/// Points of one stored spectrum that lie side by side in a key block:
/// eight `re` words, then the same points' eight `im` words — 64 bytes, a
/// cache line, per pattern.
pub(crate) const KEY_CHUNK: usize = 8;

/// The power of two a bootstrapping key's spectra are stored in units of,
/// from the ring degree alone: the smallest `e` for which `8σ` of a uniform
/// torus polynomial's spectrum fits an `i32` word of `2^e` torus units. A
/// spectrum component is a sum of `N/2` terms of variance `2⁶⁴/12` each, so
/// `σ = 2³²·√(N/24)` and `e` is the least with `3·4^e ≥ 32·N` (7 at
/// `N = 1024`). Beyond `8σ` lies `10⁻¹⁵` of a Gaussian; storing asserts it
/// of every word all the same.
pub fn key_exponent(ring_degree: usize) -> u32 {
    (0u32..)
        .find(|&e| 3u128 << (2 * e) >= 32 * ring_degree as u128)
        .expect("some power of four exceeds any ring degree")
}

/// One bundle row's share of a stored bootstrapping key: the spectra of
/// every pattern key of one group, for one of a TGSW row's two
/// polynomials, narrowed to 32-bit words and interleaved in the order a
/// bundle row consumes them —
///
/// ```text
/// [chunk c < M/8][pattern slot][re of points 8c..8c+8 | im of the same]
/// ```
///
/// — so that the row reads its block front to back, one 64-byte line per
/// pattern and chunk. (Below `M = 8` points a chunk is the whole spectrum.)
#[derive(Clone, Copy, Debug)]
pub struct KeyBlock<'a> {
    /// The key's words from the block's first on: the block itself, then
    /// whatever follows it in the key, which the kernels never read but do
    /// prefetch — a row's lookahead runs into the next row's block.
    pub stream: &'a [i32],
    /// Pattern spectra interleaved in the block.
    pub patterns: usize,
    /// A stored word `w` stands for `w·2^exp` torus units.
    pub exp: u32,
}

impl KeyBlock<'_> {
    /// Words in a block of `patterns` spectra of `m` points.
    pub const fn words(m: usize, patterns: usize) -> usize {
        2 * m * patterns
    }

    /// Points per chunk of a spectrum of `m` points.
    #[inline]
    pub const fn chunk(m: usize) -> usize {
        if m < KEY_CHUNK {
            m
        } else {
            KEY_CHUNK
        }
    }

    /// Index of the `re` word of point `k` of pattern `slot` in a block of
    /// `patterns` spectra of `m` points; the point's `im` word lies
    /// [`KeyBlock::chunk`] words further on.
    #[inline]
    pub const fn word_index(m: usize, patterns: usize, slot: usize, k: usize) -> usize {
        // Spectrum sizes are powers of two, so chunks are too: no division.
        let w = Self::chunk(m);
        (((k >> w.trailing_zeros()) * patterns + slot) * 2 * w) + (k & (w - 1))
    }

    /// The checks every bundle-row kernel makes before its loops: the
    /// block is all there and every slot is one of its patterns.
    pub(crate) fn assert_holds(&self, m: usize, slots: &[u8]) {
        assert!(
            self.stream.len() >= Self::words(m, self.patterns),
            "key block of {} words, {} patterns of {m} points need {}",
            self.stream.len(),
            self.patterns,
            Self::words(m, self.patterns)
        );
        assert!(
            slots.iter().all(|&s| (s as usize) < self.patterns),
            "pattern slot outside the block's {} patterns",
            self.patterns
        );
    }
}

/// Splits a key row into its mask and body blocks and checks that they
/// hold whole spectra of `m` points, `slot` among them; returns the blocks
/// and the number of patterns each interleaves.
pub(crate) fn split_key_row(
    row: &mut [i32],
    m: usize,
    slot: usize,
) -> (&mut [i32], &mut [i32], usize) {
    let block = row.len() / 2;
    let patterns = block / (2 * m);
    assert!(
        row.len() == 2 * KeyBlock::words(m, patterns),
        "a key row of {} words is not two blocks of {m}-point spectra",
        row.len()
    );
    assert!(
        slot < patterns,
        "pattern slot {slot} outside the row's {patterns}"
    );
    let (mask, body) = row.split_at_mut(block);
    (mask, body, patterns)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One key block holding `spectra` in slot order, each rounded as it
    /// stands to words of `2^exp` (no ring key for a mask's error to meet).
    pub(crate) fn stored_block<E: FftEngine>(
        engine: &E,
        spectra: &[E::Spectrum],
        exp: u32,
    ) -> Vec<i32> {
        let words = KeyBlock::words(engine.ring_degree() / 2, spectra.len());
        let mut row = vec![0; 2 * words];
        for (slot, s) in spectra.iter().enumerate() {
            engine.store_key_row(s, s, &engine.zero_spectrum(), exp, slot, &mut row);
        }
        row.truncate(words);
        row
    }
}
