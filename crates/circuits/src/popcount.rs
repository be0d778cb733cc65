//! Population count (Hamming weight) with a carry-save adder tree.

use crate::netlist;
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::{LweCiphertext, ServerKey};

/// Counts the set bits of `bits`, returning a word wide enough to hold the
/// count (`⌈log2(n+1)⌉` bits).
///
/// Runs [`netlist::popcount`]: full adders as 3:2 compressors, so triples
/// of same-weight bits reduce to one sum and one carry bit until every
/// weight class has a single bit.
///
/// # Panics
///
/// Panics if `bits` is empty.
pub fn popcount<E: FftEngine>(server: &ServerKey<E>, bits: &[LweCiphertext]) -> EncryptedWord {
    assert!(!bits.is_empty(), "empty input");
    crate::run(server, &netlist::popcount(bits.len()), &[bits])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn popcount_of_nibbles() {
        let (client, server, mut rng) = setup(801);
        for value in [0u64, 0b1111, 0b1010, 0b0001, 0b0111] {
            let bits = word::encrypt(&client, value, 4, &mut rng);
            let count = popcount(&server, &bits);
            assert_eq!(
                word::decrypt(&client, &count),
                value.count_ones() as u64,
                "popcount({value:04b})"
            );
        }
    }

    #[test]
    fn popcount_single_bit() {
        let (client, server, mut rng) = setup(802);
        let bits = vec![client.encrypt_with(true, &mut rng)];
        let count = popcount(&server, &bits);
        assert_eq!(word::decrypt(&client, &count), 1);
    }
}
