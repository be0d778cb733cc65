//! Word-level multiplexers and selection trees, run as their
//! [`netlist::mux_tree`] lowerings.

use crate::netlist;
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::{LweCiphertext, ServerKey};

/// Selects `a` when `sel` is true, else `b`, bit by bit: a one-level
/// [`netlist::mux_tree`] over `[b, a]`.
///
/// # Panics
///
/// Panics if the words have different widths or are empty.
pub fn select_word<E: FftEngine>(
    server: &ServerKey<E>,
    sel: &LweCiphertext,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> EncryptedWord {
    assert_eq!(a.len(), b.len(), "operand widths differ");
    let net = netlist::mux_tree(1, a.len());
    crate::run(server, &net, &[std::slice::from_ref(sel), b, a])
}

/// Selects one of `2^k` words by an encrypted `k`-bit index (LSB first):
/// a balanced mux tree of `k` levels ([`netlist::mux_tree`]).
/// Test-only: no caller outside this file's tests, which check that
/// lowering at two index bits under encryption.
///
/// # Panics
///
/// Panics if `words.len() != 2^index.len()`, if the words have unequal
/// widths, or if the index or the words are empty.
#[cfg(test)]
fn select_one_of<E: FftEngine>(
    server: &ServerKey<E>,
    index: &[LweCiphertext],
    words: &[EncryptedWord],
) -> EncryptedWord {
    assert_eq!(
        words.len(),
        1usize << index.len(),
        "need exactly 2^k words for a k-bit index"
    );
    let width = words[0].len();
    assert!(words.iter().all(|w| w.len() == width), "word widths differ");
    let inputs: Vec<&[LweCiphertext]> = std::iter::once(index)
        .chain(words.iter().map(Vec::as_slice))
        .collect();
    crate::run(server, &netlist::mux_tree(index.len(), width), &inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn word_mux_selects() {
        let (client, server, mut rng) = setup(401);
        let a = word::encrypt(&client, 0b101, 3, &mut rng);
        let b = word::encrypt(&client, 0b010, 3, &mut rng);
        for sel in [true, false] {
            let cs = client.encrypt_with(sel, &mut rng);
            let out = select_word(&server, &cs, &a, &b);
            assert_eq!(
                word::decrypt(&client, &out),
                if sel { 0b101 } else { 0b010 },
                "sel={sel}"
            );
        }
    }

    #[test]
    fn four_way_selection() {
        let (client, server, mut rng) = setup(402);
        let words: Vec<_> = (0..4u64)
            .map(|v| word::encrypt(&client, v + 4, 3, &mut rng))
            .collect();
        for idx in 0..4u64 {
            let index = word::encrypt(&client, idx, 2, &mut rng);
            let out = select_one_of(&server, &index, &words);
            assert_eq!(word::decrypt(&client, &out), idx + 4, "idx={idx}");
        }
    }

    #[test]
    #[should_panic(expected = "2^k words")]
    fn wrong_word_count_rejected() {
        let (client, server, mut rng) = setup(403);
        let words = vec![word::encrypt(&client, 0, 2, &mut rng)];
        let index = word::encrypt(&client, 0, 1, &mut rng);
        let _ = select_one_of(&server, &index, &words);
    }
}
