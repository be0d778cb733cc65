//! Schoolbook multiplication on encrypted words.
//!
//! An `n×n`-bit multiply costs `n²` AND gates for the partial products plus
//! `n − 1` ripple additions — hundreds of bootstrapped gates even at small
//! widths, which is exactly why the paper cares about gate *throughput*
//! (Figure 10), not just latency.
//!
//! Test-only: nothing outside this module's tests multiplies words, so the
//! module checks the [`netlist::mul`] and [`netlist::mul_low`] lowerings
//! under encryption and is compiled for tests only.
//!
//! Both functions run their [`netlist`] lowering, whose
//! additions only touch positions the shifted partial product can actually
//! reach: each `width`-bit partial covers a window of the `2·width`-bit
//! accumulator, so positions below the window pass through, the window
//! start takes a half adder, positions past the known accumulator take a
//! half adder on (partial, carry), and the carry lands one past the window
//! for free. An 8×8 multiply is 320 bootstraps this way.

use crate::netlist;
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::ServerKey;

/// Full-width product of two equal-width words: `a · b` with `2·width`
/// output bits ([`netlist::mul`]).
///
/// # Panics
///
/// Panics if the words have different widths or are empty.
fn mul<E: FftEngine>(server: &ServerKey<E>, a: &EncryptedWord, b: &EncryptedWord) -> EncryptedWord {
    assert_eq!(a.len(), b.len(), "operand widths differ");
    assert!(!a.is_empty(), "empty operands");
    crate::run(server, &netlist::mul(a.len()), &[a, b])
}

/// Truncated (wrapping) product: only the low `width` bits
/// ([`netlist::mul_low`]). Partial products are truncated to the bits that
/// land below `width` and the ripple chains never compute their carry out,
/// so this is much cheaper than truncating [`mul`] (136 vs 320 bootstraps
/// at 8 bits).
///
/// # Panics
///
/// Panics if the words have different widths or are empty.
fn mul_low<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> EncryptedWord {
    assert_eq!(a.len(), b.len(), "operand widths differ");
    assert!(!a.is_empty(), "empty operands");
    crate::run(server, &netlist::mul_low(a.len()), &[a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn two_bit_products_exhaustive() {
        let (client, server, mut rng) = setup(701);
        for x in 0u64..4 {
            for y in 0u64..4 {
                let a = word::encrypt(&client, x, 2, &mut rng);
                let b = word::encrypt(&client, y, 2, &mut rng);
                let p = mul(&server, &a, &b);
                assert_eq!(p.len(), 4);
                assert_eq!(word::decrypt(&client, &p), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn three_bit_product() {
        let (client, server, mut rng) = setup(702);
        let a = word::encrypt(&client, 5, 3, &mut rng);
        let b = word::encrypt(&client, 6, 3, &mut rng);
        assert_eq!(word::decrypt(&client, &mul(&server, &a, &b)), 30);
    }

    #[test]
    fn low_product_wraps() {
        let (client, server, mut rng) = setup(703);
        let a = word::encrypt(&client, 3, 2, &mut rng);
        let b = word::encrypt(&client, 3, 2, &mut rng);
        // 9 mod 4 = 1.
        assert_eq!(word::decrypt(&client, &mul_low(&server, &a, &b)), 1);
    }

    #[test]
    fn four_bit_product_hits_every_window_case() {
        // Wide enough that windows start with half adders, ripple through
        // full adders, and spill carries past the known accumulator.
        let (client, server, mut rng) = setup(705);
        let a = word::encrypt(&client, 13, 4, &mut rng);
        let b = word::encrypt(&client, 11, 4, &mut rng);
        assert_eq!(word::decrypt(&client, &mul(&server, &a, &b)), 143);
        assert_eq!(word::decrypt(&client, &mul_low(&server, &a, &b)), 143 % 16);
    }
}
