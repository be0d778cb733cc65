//! Buffer movers: the words a fold reads, bit-reversed copies and 4×4
//! transposes, and the key lines a bundle row streams.

use super::dispatch::Leg;
#[cfg(target_arch = "x86_64")]
use super::f64::CplxLanes;
use crate::engine::{KeyBlock, KEY_CHUNK};
use crate::tables::BitReversal;
use matcha_math::{GadgetDecomposer, Torus32};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128i, __m256d};

/// What a fold makes of a stored 32-bit coefficient before twisting it:
/// `((x + offset) ≫ shift & mask) − half`, as a signed integer. One gadget
/// digit of a torus coefficient is that expression
/// ([`FoldDigit::level`]); so is the coefficient itself
/// ([`FoldDigit::WHOLE`]), which lets each engine's folds be one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldDigit {
    offset: u32,
    shift: u32,
    mask: u32,
    half: i32,
}

impl FoldDigit {
    /// The coefficient as it stands: an `i32`, or a torus element's centred
    /// representative.
    pub const WHOLE: Self = Self {
        offset: 0,
        shift: 0,
        mask: u32::MAX,
        half: 0,
    };

    /// Digit `level` of `decomp` (`0` = most significant): bit-identical to
    /// `decomp.digit(decomp.shift(x), level)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not one of `decomp`'s.
    pub fn level(decomp: &GadgetDecomposer, level: usize) -> Self {
        assert!(level < decomp.levels(), "digit level out of range");
        Self {
            offset: decomp.shift(Torus32::ZERO),
            shift: 32 - (level as u32 + 1) * decomp.bg_bits(),
            mask: decomp.base() - 1,
            half: (decomp.base() / 2) as i32,
        }
    }

    /// The integer the fold twists for stored word `x`.
    #[inline]
    pub fn of(self, x: u32) -> i32 {
        ((x.wrapping_add(self.offset) >> self.shift) & self.mask) as i32 - self.half
    }

    /// [`FoldDigit::of`] on four 32-bit lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn of_lanes(self, x: __m128i) -> __m128i {
        use std::arch::x86_64::*;
        let shifted = _mm_srl_epi32(
            _mm_add_epi32(x, _mm_set1_epi32(self.offset as i32)),
            _mm_cvtsi32_si128(self.shift as i32),
        );
        _mm_sub_epi32(
            _mm_and_si128(shifted, _mm_set1_epi32(self.mask as i32)),
            _mm_set1_epi32(self.half),
        )
    }
}

/// An integer polynomial's coefficients as the raw words the folds read.
#[inline]
pub fn int_words(c: &[i32]) -> &[u32] {
    // SAFETY: `i32` and `u32` have the same size, alignment and validity.
    unsafe { std::slice::from_raw_parts(c.as_ptr().cast(), c.len()) }
}

/// A torus polynomial's coefficients as the raw words the folds read.
#[inline]
pub fn torus_words(c: &[Torus32]) -> &[u32] {
    // SAFETY: `Torus32` is `repr(transparent)` over `u32`.
    unsafe { std::slice::from_raw_parts(c.as_ptr().cast(), c.len()) }
}

/// The 4×4 transpose between the vector loads and the vector stores of a
/// bit-reversed block ([`BitReversal`]): rows in, columns out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose_avx(rows: [__m256d; 4]) -> [__m256d; 4] {
    use std::arch::x86_64::*;
    let lo01 = _mm256_unpacklo_pd(rows[0], rows[1]); // [r0[0], r1[0], r0[2], r1[2]]
    let hi01 = _mm256_unpackhi_pd(rows[0], rows[1]); // [r0[1], r1[1], r0[3], r1[3]]
    let lo23 = _mm256_unpacklo_pd(rows[2], rows[3]);
    let hi23 = _mm256_unpackhi_pd(rows[2], rows[3]);
    [
        _mm256_permute2f128_pd(lo01, lo23, 0x20),
        _mm256_permute2f128_pd(hi01, hi23, 0x20),
        _mm256_permute2f128_pd(lo01, lo23, 0x31),
        _mm256_permute2f128_pd(hi01, hi23, 0x31),
    ]
}

/// Offsets, in quarters of the buffer, of the four rows a bit-reversed
/// block loads and of the four columns it stores: lane `j` of a column is
/// row `j` of the block, and `rev2` of `0, 1, 2, 3` is `0, 2, 1, 3`.
#[cfg(target_arch = "x86_64")]
pub(super) const REV2: [usize; 4] = [0, 2, 1, 3];

/// Smallest transform the 4×4 block form fits: two high and two low index
/// bits around at least nothing.
#[cfg(target_arch = "x86_64")]
pub(super) const MIN_BLOCKED: usize = 16;

/// Stores a block's four rows as the four columns they are in bit-reversed
/// order: column `l` at `slot + rev2(l)·M/4`.
///
/// # Safety
///
/// `slot + 3·quarter + 4` is within both buffers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(super) unsafe fn store_columns_avx(
    rows: [CplxLanes; 4],
    re: *mut f64,
    im: *mut f64,
    slot: usize,
    quarter: usize,
) {
    use std::arch::x86_64::*;
    let cols_re = transpose_avx(rows.map(|(r, _)| r));
    let cols_im = transpose_avx(rows.map(|(_, i)| i));
    for (l, (c_re, c_im)) in cols_re.into_iter().zip(cols_im).enumerate() {
        unsafe {
            _mm256_storeu_pd(re.add(slot + REV2[l] * quarter), c_re);
            _mm256_storeu_pd(im.add(slot + REV2[l] * quarter), c_im);
        }
    }
}

/// `dst[i] = src[rev[i]]` for one component: the reversed working copy of
/// a backward transform, which reads the caller's spectrum exactly once.
/// Elements are moved, never computed on, so the vector leg (4×4 blocks of
/// 64-bit elements — both engines' spectra) serves `f64` and `i64` alike.
///
/// # Panics
///
/// Panics if either slice's length is not the table's.
pub fn bit_reverse_copy<T: Copy>(src: &[T], dst: &mut [T], order: &BitReversal, leg: Leg) {
    let m = order.len();
    assert_eq!(src.len(), m, "buffer length is not the table's");
    assert_eq!(dst.len(), m, "buffer length is not the table's");
    #[cfg(target_arch = "x86_64")]
    if std::mem::size_of::<T>() == 8 && m >= MIN_BLOCKED && leg.narrowed() != Leg::Scalar {
        // SAFETY: a narrowed vector leg implies AVX2; both buffers hold
        // `m` 64-bit elements, moved as bit patterns by unaligned loads,
        // shuffles and stores; `order` holds the reversal of `0..m`.
        unsafe {
            bit_reverse_copy_avx(src.as_ptr().cast(), dst.as_mut_ptr().cast(), order.index())
        };
        return;
    }
    for (d, &j) in dst.iter_mut().zip(order.index()) {
        *d = src[j as usize];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bit_reverse_copy_avx(src: *const f64, dst: *mut f64, rev: &[u32]) {
    use std::arch::x86_64::*;
    let quarter = rev.len() / 4;
    for k in (0..quarter).step_by(4) {
        // SAFETY: rows `k + h·M/4 + 0..4` and columns `rev[k] + h·M/4 +
        // 0..4` lie inside the `M`-element buffers (`rev[k] ≤ M/4 − 4`).
        unsafe {
            let cols = transpose_avx(REV2.map(|h| _mm256_loadu_pd(src.add(k + h * quarter))));
            let slot = rev[k] as usize;
            for (l, col) in cols.into_iter().enumerate() {
                _mm256_storeu_pd(dst.add(slot + REV2[l] * quarter), col);
            }
        }
    }
}

/// Bytes the vector bundle rows (both engines', both vector legs) and the
/// fused bundle products prefetch ahead of their loads: one `prefetcht0`
/// per 64-byte line consumed, of the line this far down the key. A
/// bootstrapping key is one slab in the order the bundle rows read it
/// ([`KeyBlock`]), 35 MB at `m = 2` and 55 MB at `m = 3`, so the line
/// 4 KB ahead is the line the row — or the next row, or the next group's
/// first row: the lookahead runs off a block's end into whatever the key
/// holds next, which hides the wait at the head of each row where rows
/// run one after another — reads 64 lines from now, and the hint stops
/// only at the key's last word. What it buys depends on how busy memory
/// is. Measured
/// on a quiet host (gate time in one process, minimum / median of 150):
/// the integer engine at `m = 3`, whose rows have arithmetic to hide a
/// fetch behind, 22.6–24.3 / 26 ms with no hint, 20.9–22.7 / 23.5–25 at
/// 1 KB, 19.4–21.1 / 20.2–22.7 at 2, 4 and 8 KB alike; the f64 engine at
/// `m = 2` 7.3–7.8 / 7.6–8.3 ms at every distance and with none — one
/// forward stream is what the hardware prefetcher is good at, and on that
/// host it kept up by itself. The change that introduced the slab measured
/// a busier one (4 KB against none: −26 % on the f64 gate's median).
///
/// The fused bundle products (`bundle_product`, `i64_bundle_product`) read
/// a group's `2·2ℓ` blocks side by side, a chunk of each in turn, and give
/// every line they consume the same hint. A block is longer than the
/// lookahead (12 KB at `m = 2`, 28 KB at `m = 3`), so each block's hint
/// lands further down that block; only the last block's reaches the next
/// group, and the heads of the others are the hardware prefetcher's, which
/// follows the dozen streams. On the f64 engine, running
/// each block's lookahead on into the same block of the next group read
/// −14 … +15 % a pair against this in alternated benchmark runs on a
/// 2-vCPU Xeon (16 or 6 chunks ahead), and 1.03–1.05 of this at the median
/// of whole blind rotations alternated in one process (8, 21 or 40 chunks
/// ahead): not kept.
#[cfg(target_arch = "x86_64")]
const BUNDLE_PREFETCH_AHEAD: usize = 4096;

/// The 64-byte lines of a key block as a bundle row's vector leg meets
/// them — chunk by chunk, and within a chunk the active slots in order —
/// each handed to `line(p, words)` with a prefetch of its counterpart
/// [`BUNDLE_PREFETCH_AHEAD`] bytes down the key already issued.
///
/// # Safety
///
/// `key.stream` must hold the block of `chunks` chunks and every slot be
/// one of `key.patterns` ([`KeyBlock::assert_holds`] with `m = 8·chunks`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(super) unsafe fn key_lines_of_chunk(
    key: KeyBlock<'_>,
    chunk: usize,
    slots: &[u8],
    mut line: impl FnMut(usize, *const i32),
) {
    let words = key.stream.as_ptr_range();
    // SAFETY: chunk `chunk` of the block starts inside the stream.
    let first = unsafe { words.start.add(chunk * 2 * KEY_CHUNK * key.patterns) };
    for (p, &slot) in slots.iter().enumerate() {
        // SAFETY: the slot's line lies inside the block.
        let at = unsafe { first.add(slot as usize * 2 * KEY_CHUNK) };
        if words.end as usize - at as usize > BUNDLE_PREFETCH_AHEAD {
            // SAFETY: a hint, not an access — and the check above puts
            // the address inside the stream.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    at.byte_add(BUNDLE_PREFETCH_AHEAD).cast(),
                );
            }
        }
        line(p, at);
    }
}
