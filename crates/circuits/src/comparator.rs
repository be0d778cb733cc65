//! Encrypted comparisons on words.

use crate::word::EncryptedWord;
use crate::{adder, netlist};
use matcha_fft::FftEngine;
use matcha_tfhe::{LweCiphertext, ServerKey};

/// Bitwise equality: one XNOR per bit plus an AND reduction tree
/// ([`netlist::eq_comparator`]).
///
/// # Panics
///
/// Panics if the words have different widths or are empty.
pub fn eq<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> LweCiphertext {
    assert_eq!(a.len(), b.len(), "operand widths differ");
    assert!(!a.is_empty(), "empty operands");
    let mut out = crate::run(server, &netlist::eq_comparator(a.len()), &[a, b]);
    out.pop().expect("one output")
}

/// Unsigned `a < b`, computed as the borrow of `a − b`.
pub fn lt<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> LweCiphertext {
    let diff = adder::sub(server, a, b);
    // carry == 1 ⇔ a ≥ b, so a < b is its negation (free NOT).
    server.not(&diff.carry)
}

/// Unsigned `a ≥ b`.
pub fn ge<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> LweCiphertext {
    adder::sub(server, a, b).carry
}

/// Unsigned `a ≤ b` = `b ≥ a`.
pub fn le<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> LweCiphertext {
    ge(server, b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn equality() {
        let (client, server, mut rng) = setup(301);
        for (x, y) in [(5u64, 5u64), (5, 6), (0, 0), (7, 0)] {
            let a = word::encrypt(&client, x, 3, &mut rng);
            let b = word::encrypt(&client, y, 3, &mut rng);
            assert_eq!(client.decrypt(&eq(&server, &a, &b)), x == y, "{x}=={y}");
        }
    }

    #[test]
    fn orderings() {
        let (client, server, mut rng) = setup(302);
        for (x, y) in [(2u64, 5u64), (5, 2), (4, 4), (0, 7)] {
            let a = word::encrypt(&client, x, 3, &mut rng);
            let b = word::encrypt(&client, y, 3, &mut rng);
            assert_eq!(client.decrypt(&lt(&server, &a, &b)), x < y, "{x}<{y}");
            assert_eq!(client.decrypt(&ge(&server, &a, &b)), x >= y, "{x}>={y}");
            assert_eq!(client.decrypt(&le(&server, &a, &b)), x <= y, "{x}<={y}");
        }
    }

    #[test]
    fn eq_on_single_bit() {
        let (client, server, mut rng) = setup(303);
        let a = word::encrypt(&client, 1, 1, &mut rng);
        let b = word::encrypt(&client, 1, 1, &mut rng);
        assert!(client.decrypt(&eq(&server, &a, &b)));
    }
}
