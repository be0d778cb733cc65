//! Precomputed twiddle-factor tables and the bit-reversal table: everything
//! a transform looks up, built once in the plan's constructor and handed to
//! every kernel, so the hot path computes no index and allocates nothing.
//!
//! The transform size used throughout is `M = N/2` complex points for a ring
//! of degree `N` (Lagrange half-complex folding, see [`crate::twist`]).
//!
//! # No permutation pass
//!
//! A breadth-first Cooley–Tukey flow runs its butterflies over bit-reversed
//! data. The engines never reorder a buffer for that: [`BitReversal`] is the
//! plan's `rev[i]` array, the forward folds store each twisted element at
//! its reversed slot, and the backward transforms' working copy — which has
//! to be made anyway, the caller's spectrum is read-only — is made through
//! the same table.
//!
//! # Per-stage contiguous layout
//!
//! A breadth-first butterfly stage of length `len` reads the roots
//! `w^{k·(M/len)}` for `k < len/2` — a *strided* walk over one big table,
//! whose stride changes every stage. [`StageTwiddles`] instead stores each
//! stage's factors contiguously (the software mirror of the paper's
//! twiddle-access argument: MATCHA's address generation unit streams each
//! stage's factors as a unit-stride burst). Every engine's inner loop then
//! reads its stage slice sequentially, and the direction (forward or
//! conjugated inverse) is resolved once per transform, never per butterfly.

use crate::cplx::Cplx;

/// One direction's twiddle factors, stored contiguously per stage.
///
/// Stage `s` serves butterflies of length `len = 2^{s+1}` and holds the
/// `len/2` factors `w^{k·(M/len)}` (`w = e^{±2πi/M}`) in index order. The
/// final stage (`len = M`) is exactly the classic strided table.
#[derive(Clone, Debug)]
pub struct StageTwiddles {
    /// Real components of all stages back to back: `1 + 2 + … + M/2 =
    /// M − 1` entries, split from the imaginary ones — the layout the SIMD
    /// butterfly kernels consume (see [`crate::simd`]).
    flat_re: Vec<f64>,
    /// Imaginary components, in the same order.
    flat_im: Vec<f64>,
    /// `offsets[s]` = start of the stage for `len = 2^{s+1}`.
    offsets: Vec<usize>,
    /// Transform size `M`.
    m: usize,
}

impl StageTwiddles {
    /// Copies per-stage slices out of the full-size table `full`
    /// (`full[k] = w^k`, `k < m/2`), so every entry is bit-identical to the
    /// strided access `full[k * (m/len)]` it replaces.
    fn from_full(full: &[Cplx], m: usize) -> Self {
        debug_assert_eq!(full.len(), m / 2);
        let mut flat_re = Vec::with_capacity(m.saturating_sub(1));
        let mut flat_im = Vec::with_capacity(m.saturating_sub(1));
        let mut offsets = Vec::new();
        let mut len = 2;
        while len <= m {
            offsets.push(flat_re.len());
            let step = m / len;
            for w in (0..len / 2).map(|k| full[k * step]) {
                flat_re.push(w.re);
                flat_im.push(w.im);
            }
            len *= 2;
        }
        Self {
            flat_re,
            flat_im,
            offsets,
            m,
        }
    }

    /// The contiguous factors for butterflies of length `len`: `(re, im)`
    /// slices of `len/2` entries each.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `len` is not a power of two in `[2, M]`.
    #[inline]
    pub fn stage_split(&self, len: usize) -> (&[f64], &[f64]) {
        debug_assert!(len.is_power_of_two() && len >= 2 && len <= self.m);
        let s = len.trailing_zeros() as usize - 1;
        let start = self.offsets[s];
        let end = start + len / 2;
        (&self.flat_re[start..end], &self.flat_im[start..end])
    }

    /// Transform size `M`.
    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.m
    }
}

/// Twiddle factors `e^{+2πik/M}` for `k ∈ [0, M/2)` — forward and
/// pre-conjugated inverse, both in per-stage contiguous layout — plus the
/// twist factors `e^{+iπj/N}` for `j ∈ [0, M)` and every power of the
/// primitive `2N`-th root (the monomial evaluations of the bundle path), and
/// the bit-reversal table of the breadth-first flow.
#[derive(Clone, Debug)]
pub struct TwiddleTables {
    m: usize,
    /// `rev[i]` for `i < M`.
    rev: BitReversal,
    /// Forward kernel `e^{+2πik/M}`, per-stage contiguous.
    fwd: StageTwiddles,
    /// Inverse kernel `e^{-2πik/M}` (pre-conjugated so butterfly loops
    /// never branch on direction), per-stage contiguous.
    inv: StageTwiddles,
    /// `e^{iπj/N}` for `j < M`, real components (split for the SIMD fold
    /// kernels).
    twist_re: Vec<f64>,
    /// Imaginary components of the twist factors.
    twist_im: Vec<f64>,
    /// `e^{iπj/N}` for `j < 2N`, real parts: the monomial `X^e` evaluates
    /// to entry `(4k+1)·e mod 2N` at Lagrange point `k`.
    unit_re: Vec<f64>,
    /// Imaginary parts of the `2N`-th roots.
    unit_im: Vec<f64>,
}

impl TwiddleTables {
    /// Builds tables for ring degree `n` (transform size `M = n/2`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "ring degree {n} must be a power of two ≥ 4"
        );
        let m = n / 2;
        let roots: Vec<Cplx> = (0..m / 2)
            .map(|k| Cplx::from_angle(std::f64::consts::TAU * k as f64 / m as f64))
            .collect();
        let roots_conj: Vec<Cplx> = roots.iter().map(|r| r.conj()).collect();
        let twist: Vec<Cplx> = (0..m)
            .map(|j| Cplx::from_angle(std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let twist_re = twist.iter().map(|w| w.re).collect();
        let twist_im = twist.iter().map(|w| w.im).collect();
        // One `sin_cos` per first-quadrant angle, the other three quadrants
        // by exact symmetry: `unit[N] = −1` and `unit[N/2] = i` hold to the
        // bit, and no entry carries argument-reduction error.
        let (mut unit_re, mut unit_im) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
        for j in 0..m {
            let w = twist[j];
            for (q, (re, im)) in [(w.re, w.im), (-w.im, w.re), (-w.re, -w.im), (w.im, -w.re)]
                .into_iter()
                .enumerate()
            {
                unit_re[q * m + j] = re;
                unit_im[q * m + j] = im;
            }
        }
        Self {
            m,
            rev: BitReversal::new(m),
            fwd: StageTwiddles::from_full(&roots, m),
            inv: StageTwiddles::from_full(&roots_conj, m),
            twist_re,
            twist_im,
            unit_re,
            unit_im,
        }
    }

    /// Transform size `M = N/2`.
    #[inline]
    pub fn size(&self) -> usize {
        self.m
    }

    /// The bit-reversal table for `M` points.
    #[inline]
    pub fn bit_reversal(&self) -> &BitReversal {
        &self.rev
    }

    /// Forward twiddles in per-stage contiguous layout.
    #[inline]
    pub fn forward_stages(&self) -> &StageTwiddles {
        &self.fwd
    }

    /// Pre-conjugated inverse twiddles in per-stage contiguous layout.
    #[inline]
    pub fn inverse_stages(&self) -> &StageTwiddles {
        &self.inv
    }

    /// The twist factors `e^{iπj/N}`, `j < M`, in split-component form:
    /// `(re, im)` slices of `M` entries.
    #[inline]
    pub fn twist_split(&self) -> (&[f64], &[f64]) {
        (&self.twist_re, &self.twist_im)
    }

    /// `e^{iπj/N}` for `j < 2N` in split-component form (`2N` entries
    /// each). At Lagrange point `ε_k = e^{iπ(4k+1)/N}` the monomial `X^e`
    /// evaluates to entry `(4k+1)·e mod 2N`.
    #[inline]
    pub(crate) fn unit_roots_split(&self) -> (&[f64], &[f64]) {
        (&self.unit_re, &self.unit_im)
    }
}

/// The bit-reversal permutation of `0..M` as a table: `index()[i]` is `i`
/// with its `log2 M` bits reversed — the "irregular memory access" stage the
/// paper attributes to breadth-first Cooley–Tukey flows, computed once.
///
/// A plan builds one in its constructor and every transform indexes it: the
/// forward folds write element `k` straight to slot `index()[k]`
/// ([`crate::simd::fold_twist`], [`crate::simd::i64_fold_rotate`]), the
/// backward transforms make their working copy through it
/// ([`crate::simd::bit_reverse_copy_pair`],
/// [`crate::simd::bit_reverse_copy`]). Nothing on a transform path
/// recomputes a reversed index or makes a pass that only permutes.
///
/// The vector legs of those kernels move 4×4 blocks: with
/// `k = [h | mid | l]` (two high bits, the middle, two low bits) the
/// reversal is `[rev2(l) | rev(mid) | rev2(h)]`, so for a 4-aligned `k < M/4`
/// the four lanes `k..k + 4` land at `index()[k] + {0, M/2, M/4, 3M/4}` and
/// the four rows `k + {0, M/2, M/4, 3M/4}` fill those four destinations'
/// lanes — a transpose between vector loads and vector stores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitReversal {
    rev: Vec<u32>,
}

impl BitReversal {
    /// The table for `m` points.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two or does not fit 32-bit indices.
    pub fn new(m: usize) -> Self {
        assert!(
            m.is_power_of_two() && m <= 1 << 31,
            "transform size {m} must be a power of two ≤ 2^31"
        );
        // `rev(i)` is `rev(i / 2)` moved down one place, with `i`'s low bit
        // entering at the top.
        let mut rev = vec![0u32; m];
        for i in 1..m {
            rev[i] = rev[i / 2] / 2 + (i % 2 * (m / 2)) as u32;
        }
        Self { rev }
    }

    /// Transform size `M`.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rev.len()
    }

    /// `index()[i]` = `i` bit-reversed; an involution on `0..M`.
    #[inline]
    pub(crate) fn index(&self) -> &[u32] {
        &self.rev
    }

    /// Permutes both components of a split buffer in place. Not on any
    /// engine's transform path at the sizes TFHE uses: it serves
    /// [`crate::ref_fft::dft_in_place`] and the folds of transforms too
    /// small for a 4×4 block (`M < 16`).
    ///
    /// # Panics
    ///
    /// Panics if either slice's length is not the table's.
    pub(crate) fn permute_pair<T, U>(&self, a: &mut [T], b: &mut [U]) {
        assert_eq!(a.len(), self.len(), "buffer length is not the table's");
        assert_eq!(b.len(), self.len(), "buffer length is not the table's");
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                a.swap(i, j);
                b.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward factor `k` of the full-size stage, `e^{2πik/M}`.
    fn root(t: &TwiddleTables, k: usize) -> Cplx {
        let (re, im) = t.forward_stages().stage_split(t.size());
        Cplx::new(re[k], im[k])
    }

    /// Twist factor `j`, `e^{iπj/N}`.
    fn twist(t: &TwiddleTables, j: usize) -> Cplx {
        let (re, im) = t.twist_split();
        Cplx::new(re[j], im[j])
    }

    #[test]
    fn roots_are_on_unit_circle() {
        let t = TwiddleTables::new(32);
        for k in 0..t.size() / 2 {
            assert!((root(&t, k).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn root_zero_is_one() {
        let t = TwiddleTables::new(16);
        assert!((root(&t, 0) - Cplx::ONE).abs() < 1e-15);
    }

    #[test]
    fn quarter_root_is_i() {
        let t = TwiddleTables::new(32); // M = 16
        assert!((root(&t, 4) - Cplx::new(0.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn stage_slices_match_strided_access() {
        let t = TwiddleTables::new(64); // M = 32
        let m = t.size();
        for stages in [t.forward_stages(), t.inverse_stages()] {
            let (full_re, full_im) = stages.stage_split(m);
            let mut len = 2;
            while len <= m {
                let step = m / len;
                let (re, im) = stages.stage_split(len);
                assert_eq!(re.len(), len / 2, "len={len}");
                assert_eq!(im.len(), len / 2, "len={len}");
                for k in 0..len / 2 {
                    assert_eq!(
                        re[k].to_bits(),
                        full_re[k * step].to_bits(),
                        "len={len} k={k}"
                    );
                    assert_eq!(
                        im[k].to_bits(),
                        full_im[k * step].to_bits(),
                        "len={len} k={k}"
                    );
                }
                len *= 2;
            }
        }
    }

    #[test]
    fn stage_layout_is_contiguous_and_complete() {
        let t = TwiddleTables::new(128); // M = 64
        let m = t.size();
        // 1 + 2 + ... + M/2 = M - 1 entries overall.
        let total: usize = {
            let mut sum = 0;
            let mut len = 2;
            while len <= m {
                sum += t.forward_stages().stage_split(len).0.len();
                len *= 2;
            }
            sum
        };
        assert_eq!(total, m - 1);
        // Adjacent stages are back to back in memory.
        for view in [
            |s: (&[f64], &[f64])| s.0.as_ptr(),
            |s: (&[f64], &[f64])| s.1.as_ptr(),
        ] {
            let s2 = view(t.forward_stages().stage_split(2));
            let s4 = view(t.forward_stages().stage_split(4));
            assert_eq!(unsafe { s2.add(1) }, s4);
        }
    }

    #[test]
    fn smallest_ring_has_single_stage() {
        let t = TwiddleTables::new(4); // M = 2
        assert_eq!(t.forward_stages().stage_split(2).0.len(), 1);
        assert!((root(&t, 0) - Cplx::ONE).abs() < 1e-15);
    }

    #[test]
    fn split_views_match_cplx_views() {
        // Each factor is stored once, split: every entry matches, bit for
        // bit, the `Cplx::from_angle` the constructor computed it from, and
        // the inverse stages are the forward ones exactly conjugated.
        let n = 64;
        let t = TwiddleTables::new(n); // M = 32
        let m = t.size();
        let mut len = 2;
        while len <= m {
            let (fre, fim) = t.forward_stages().stage_split(len);
            let (ire, iim) = t.inverse_stages().stage_split(len);
            for k in 0..len / 2 {
                let w = Cplx::from_angle(std::f64::consts::TAU * (k * (m / len)) as f64 / m as f64);
                assert_eq!(fre[k].to_bits(), w.re.to_bits(), "len={len} k={k}");
                assert_eq!(fim[k].to_bits(), w.im.to_bits(), "len={len} k={k}");
                assert_eq!(ire[k].to_bits(), fre[k].to_bits(), "len={len} k={k}");
                assert_eq!(iim[k].to_bits(), (-fim[k]).to_bits(), "len={len} k={k}");
            }
            len *= 2;
        }
        let (twre, twim) = t.twist_split();
        assert_eq!(twre.len(), m);
        for j in 0..m {
            let w = Cplx::from_angle(std::f64::consts::PI * j as f64 / n as f64);
            assert_eq!(twre[j].to_bits(), w.re.to_bits(), "twist j={j}");
            assert_eq!(twim[j].to_bits(), w.im.to_bits(), "twist j={j}");
        }
    }

    /// The permutation as it was computed per element before the plan owned
    /// a table.
    fn reversed(i: usize, m: usize) -> usize {
        i.reverse_bits() >> ((m.leading_zeros() + 1) % usize::BITS)
    }

    #[test]
    fn bit_reverse_involution() {
        for log in 1..=11 {
            let m = 1usize << log;
            let rev = BitReversal::new(m);
            assert_eq!(rev.len(), m);
            for (i, &j) in rev.index().iter().enumerate() {
                assert_eq!(j as usize, reversed(i, m), "m={m} i={i}");
                assert_eq!(rev.index()[j as usize] as usize, i, "m={m} i={i}");
            }
        }
        assert_eq!(BitReversal::new(1).index(), &[0]);
        assert_eq!(TwiddleTables::new(64).bit_reversal(), &BitReversal::new(32));
    }

    #[test]
    fn bit_reverse_known_order() {
        assert_eq!(BitReversal::new(8).index(), &[0, 4, 2, 6, 1, 5, 3, 7]);
        let (mut a, mut b): (Vec<usize>, Vec<u8>) = ((0..8).collect(), (10..18).collect());
        BitReversal::new(8).permute_pair(&mut a, &mut b);
        assert_eq!(a, vec![0, 4, 2, 6, 1, 5, 3, 7]);
        assert_eq!(b, vec![10, 14, 12, 16, 11, 15, 13, 17]);
    }

    #[test]
    fn bit_reverse_copy_matches_in_place() {
        // Reading through the table is the in-place permutation, and the
        // 4-aligned blocks land where the vector legs put them.
        for m in [16usize, 32, 512] {
            let rev = BitReversal::new(m);
            let a: Vec<u32> = (0..m as u32).collect();
            let b: Vec<u32> = (100..100 + m as u32).collect();
            let da: Vec<u32> = rev.index().iter().map(|&j| a[j as usize]).collect();
            let db: Vec<u32> = rev.index().iter().map(|&j| b[j as usize]).collect();
            let (mut ia, mut ib) = (a.clone(), b.clone());
            rev.permute_pair(&mut ia, &mut ib);
            assert_eq!(da, ia);
            assert_eq!(db, ib);
            for k in (0..m / 4).step_by(4) {
                let base = rev.index()[k] as usize;
                assert!(base + 3 * m / 4 + 4 <= m, "m={m} k={k}");
                for (lane, offset) in [0, m / 2, m / 4, 3 * m / 4].into_iter().enumerate() {
                    assert_eq!(rev.index()[k + lane] as usize, base + offset);
                    assert_eq!(rev.index()[k + offset] as usize, base + lane);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer length is not the table's")]
    fn permutation_rejects_a_buffer_of_another_size() {
        // A real assert: the table was built for one `M`, in release builds
        // too.
        let (mut a, mut b) = ([0u8; 16], [0u8; 8]);
        BitReversal::new(8).permute_pair(&mut a, &mut b);
    }

    #[test]
    fn unit_roots_are_the_2n_th_roots() {
        let n = 64;
        let t = TwiddleTables::new(n);
        let (re, im) = t.unit_roots_split();
        assert_eq!(re.len(), 2 * n);
        for j in 0..2 * n {
            let w = Cplx::from_angle(std::f64::consts::PI * j as f64 / n as f64);
            assert!((Cplx::new(re[j], im[j]) - w).abs() < 1e-15, "j={j}");
        }
        // The quadrant symmetries are exact, not merely close.
        assert_eq!((re[0], im[0]), (1.0, 0.0));
        assert_eq!((re[n / 2], im[n / 2]), (0.0, 1.0));
        assert_eq!((re[n], im[n]), (-1.0, 0.0));
        // ... and they agree with the twist table on the shared range.
        let (twre, twim) = t.twist_split();
        for j in 0..n / 2 {
            assert_eq!(re[j].to_bits(), twre[j].to_bits(), "j={j}");
            assert_eq!(im[j].to_bits(), twim[j].to_bits(), "j={j}");
        }
    }

    #[test]
    fn twist_angles() {
        let t = TwiddleTables::new(8); // N = 8, M = 4
        assert!((twist(&t, 0) - Cplx::ONE).abs() < 1e-15);
        // Twist factor 2 is e^{iπ/4}.
        assert!((twist(&t, 2) - Cplx::from_angle(std::f64::consts::FRAC_PI_4)).abs() < 1e-12);
    }
}
