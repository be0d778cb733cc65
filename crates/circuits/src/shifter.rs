//! Barrel shifter on encrypted words.
//!
//! Shifting by an *encrypted* amount uses one mux layer per index bit, the
//! classic barrel construction. Positions whose shifted source falls off
//! the word would mux in a known zero, so the two-bootstrap MUX collapses
//! to a single `¬bit ∧ cur` there — in particular a whole level collapses
//! once `2^j ≥ width`. [`shl`] runs the [`netlist::shl`] lowering; the
//! test-only `shr` runs [`netlist::shr`] under encryption.

use crate::netlist;
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::{LweCiphertext, ServerKey};

/// Barrel left shift by an encrypted amount (LSB-first index bits).
///
/// Level `j` conditionally shifts by `2^j`, so `k` index bits cover shifts
/// `0..2^k − 1`; shifts ≥ width produce zero.
///
/// # Panics
///
/// Panics if the word or the amount is empty.
pub fn shl<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    amount: &[LweCiphertext],
) -> EncryptedWord {
    crate::run(server, &netlist::shl(a.len(), amount.len()), &[amount, a])
}

/// Barrel right shift by an encrypted amount (LSB-first index bits).
/// Test-only: no caller outside this file's tests, which check the
/// [`netlist::shr`] lowering under encryption.
///
/// # Panics
///
/// Panics if the word or the amount is empty.
#[cfg(test)]
fn shr<E: FftEngine>(
    server: &ServerKey<E>,
    a: &EncryptedWord,
    amount: &[LweCiphertext],
) -> EncryptedWord {
    crate::run(server, &netlist::shr(a.len(), amount.len()), &[amount, a])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn collapsed_levels_match_the_all_mux_barrel() {
        // 3 amount bits over a 4-bit word: the 2^2 = 4 ≥ width level is
        // entirely zero-fill, and lower levels collapse per position; the
        // results are what an all-mux barrel computes.
        let (client, server, mut rng) = setup(504);
        let a = word::encrypt(&client, 0b1011, 4, &mut rng);
        for amt in 0..8u64 {
            let enc_amt = word::encrypt(&client, amt, 3, &mut rng);
            let left = shl(&server, &a, &enc_amt);
            let right = shr(&server, &a, &enc_amt);
            let expected_l = if amt >= 4 { 0 } else { (0b1011 << amt) & 0xF };
            assert_eq!(word::decrypt(&client, &left), expected_l);
            assert_eq!(
                word::decrypt(&client, &right),
                0b1011u64.checked_shr(amt as u32).unwrap_or(0)
            );
        }
    }

    #[test]
    fn encrypted_left_shift() {
        let (client, server, mut rng) = setup(502);
        let a = word::encrypt(&client, 0b0011, 4, &mut rng);
        for amt in 0..4u64 {
            let enc_amt = word::encrypt(&client, amt, 2, &mut rng);
            let out = shl(&server, &a, &enc_amt);
            assert_eq!(
                word::decrypt(&client, &out),
                (0b0011 << amt) & 0xF,
                "amt={amt}"
            );
        }
    }

    #[test]
    fn encrypted_right_shift() {
        let (client, server, mut rng) = setup(503);
        let a = word::encrypt(&client, 0b1100, 4, &mut rng);
        for amt in 0..4u64 {
            let enc_amt = word::encrypt(&client, amt, 2, &mut rng);
            let out = shr(&server, &a, &enc_amt);
            assert_eq!(word::decrypt(&client, &out), 0b1100 >> amt, "amt={amt}");
        }
    }
}
