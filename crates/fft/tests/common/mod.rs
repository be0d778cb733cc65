//! Stored key blocks for the integration tests: spectra narrowed through
//! the engine's own `store_key_row`, and the words read back out.

#![allow(dead_code)]

use matcha_fft::approx::FixedSpectrum;
use matcha_fft::{CplxSpectrum, FftEngine, KeyBlock};

/// One key block holding `spectra` in slot order, each rounded as it
/// stands to words of `2^exp` (a zero ring key: nothing for a mask's
/// rounding error to meet).
pub fn stored_block<E: FftEngine>(engine: &E, spectra: &[E::Spectrum], exp: u32) -> Vec<i32> {
    let words = KeyBlock::words(engine.ring_degree() / 2, spectra.len());
    let mut row = vec![0; 2 * words];
    for (slot, s) in spectra.iter().enumerate() {
        engine.store_key_row(s, s, &engine.zero_spectrum(), exp, slot, &mut row);
    }
    row.truncate(words);
    row
}

/// The `[re, im]` words of point `k` of pattern `slot`.
pub fn word(key: KeyBlock<'_>, m: usize, slot: usize, k: usize) -> [i32; 2] {
    let at = KeyBlock::word_index(m, key.patterns, slot, k);
    [key.stream[at], key.stream[at + KeyBlock::chunk(m)]]
}

/// Pattern `slot` of a block as the double-precision spectrum its words
/// stand for.
pub fn widened_cplx(key: KeyBlock<'_>, m: usize, slot: usize) -> CplxSpectrum {
    let unit = f64::from(key.exp).exp2();
    let part = |c: usize| {
        (0..m)
            .map(|k| f64::from(word(key, m, slot, k)[c]) * unit)
            .collect()
    };
    CplxSpectrum {
        re: part(0),
        im: part(1),
    }
}

/// Pattern `slot` of a block as the fixed-point spectrum (at `frac_bits`)
/// its words stand for.
pub fn widened_fixed(key: KeyBlock<'_>, m: usize, slot: usize, frac_bits: u32) -> FixedSpectrum {
    let part = |c: usize| {
        (0..m)
            .map(|k| i64::from(word(key, m, slot, k)[c]) << (key.exp + frac_bits))
            .collect()
    };
    FixedSpectrum {
        re: part(0),
        im: part(1),
        frac_bits,
    }
}
