//! Ripple-carry arithmetic on encrypted words.
//!
//! A full adder costs 5 bootstrapped gates in the naive XOR/AND/OR
//! formulation; an n-bit add is therefore ~5n TFHE gates, each dominated by
//! a bootstrap — exactly the workload MATCHA's throughput numbers
//! (Figure 10) are about. Both functions run their [`netlist`] lowering.

use crate::netlist;
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::{CircuitNetlist, LweCiphertext, ServerKey};

/// The outputs of an addition: the sum word and the final carry.
#[derive(Clone, Debug)]
pub struct AddResult {
    /// Sum bits, LSB first, same width as the inputs.
    pub sum: EncryptedWord,
    /// Carry out of the most significant bit.
    pub carry: LweCiphertext,
}

/// Ripple-carry addition of two equal-width words
/// ([`netlist::ripple_adder`]).
///
/// # Panics
///
/// Panics if the words have different widths or are empty.
pub fn add<E: FftEngine>(server: &ServerKey<E>, a: &EncryptedWord, b: &EncryptedWord) -> AddResult {
    ripple(server, netlist::ripple_adder, a, b)
}

/// Two's-complement subtraction `a − b`: returns the difference and a
/// carry that equals `1` when `a ≥ b` (no borrow)
/// ([`netlist::ripple_subtractor`]).
///
/// # Panics
///
/// Panics if the words have different widths or are empty.
pub fn sub<E: FftEngine>(server: &ServerKey<E>, a: &EncryptedWord, b: &EncryptedWord) -> AddResult {
    ripple(server, netlist::ripple_subtractor, a, b)
}

/// Runs a ripple chain whose outputs are the word then the carry.
fn ripple<E: FftEngine>(
    server: &ServerKey<E>,
    lowering: fn(usize) -> CircuitNetlist,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> AddResult {
    assert_eq!(a.len(), b.len(), "operand widths differ");
    assert!(!a.is_empty(), "empty operands");
    let mut sum = crate::run(server, &lowering(a.len()), &[a, b]);
    let carry = sum.pop().expect("the chain ends in its carry");
    AddResult { sum, carry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn four_bit_addition() {
        let (client, server, mut rng) = setup(202);
        for (x, y) in [(3u64, 5u64), (15, 1), (9, 9), (0, 0)] {
            let a = word::encrypt(&client, x, 4, &mut rng);
            let b = word::encrypt(&client, y, 4, &mut rng);
            let r = add(&server, &a, &b);
            assert_eq!(word::decrypt(&client, &r.sum), (x + y) & 0xF, "{x}+{y}");
            assert_eq!(client.decrypt(&r.carry), x + y > 15, "carry {x}+{y}");
        }
    }

    #[test]
    fn subtraction_and_borrow() {
        let (client, server, mut rng) = setup(203);
        for (x, y) in [(9u64, 4u64), (4, 9), (7, 7), (0, 1)] {
            let a = word::encrypt(&client, x, 4, &mut rng);
            let b = word::encrypt(&client, y, 4, &mut rng);
            let r = sub(&server, &a, &b);
            assert_eq!(
                word::decrypt(&client, &r.sum),
                x.wrapping_sub(y) & 0xF,
                "{x}-{y}"
            );
            assert_eq!(client.decrypt(&r.carry), x >= y, "no-borrow {x}-{y}");
        }
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_widths_rejected() {
        let (client, server, mut rng) = setup(205);
        let a = word::encrypt(&client, 1, 2, &mut rng);
        let b = word::encrypt(&client, 1, 3, &mut rng);
        let _ = add(&server, &a, &b);
    }
}
