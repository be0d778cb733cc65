//! Modulus switching between the torus and `Z_{2N}`.
//!
//! The first step of bootstrapping (Algorithm 1, line 2) rounds every torus
//! coefficient of the input LWE sample to the `2N`-element subgroup
//! `(1/2N)·Z / Z` so it can be used as the exponent of the `2N`-th root of
//! unity `X` during blind rotation. Rounding adds the "rounding noise" `RO`
//! that Table 3 of the paper tracks.

use crate::torus::Torus32;

/// Rounds a torus element to the nearest multiple of `1/2N`, returning the
/// integer exponent in `[0, 2N)`.
///
/// # Panics
///
/// Panics if `two_n` is not a power of two or exceeds `2^31`.
///
/// # Examples
///
/// ```
/// use matcha_math::{mod_switch_from_torus, Torus32};
///
/// // 0.25 → 2N/4 for N = 1024.
/// assert_eq!(mod_switch_from_torus(Torus32::from_f64(0.25), 2048), 512);
/// ```
#[inline]
pub fn mod_switch_from_torus(x: Torus32, two_n: u32) -> u32 {
    assert!(
        two_n.is_power_of_two() && two_n <= 1 << 31,
        "2N must be a power of two ≤ 2^31"
    );
    let interval = (1u64 << 32) / two_n as u64;
    let half = interval / 2;
    (((x.raw() as u64 + half) / interval) % two_n as u64) as u32
}

/// Embeds an exponent of `Z_{2N}` back onto the torus as `k / 2N`.
///
/// # Panics
///
/// Panics if `two_n` is not a power of two or exceeds `2^31`.
#[inline]
pub fn mod_switch_to_torus(k: u32, two_n: u32) -> Torus32 {
    assert!(
        two_n.is_power_of_two() && two_n <= 1 << 31,
        "2N must be a power of two ≤ 2^31"
    );
    let interval = (1u64 << 32) / two_n as u64;
    Torus32::from_raw(((k as u64 % two_n as u64) * interval) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_bounded() {
        let two_n = 2048;
        for i in 0..4096u32 {
            let x = Torus32::from_raw(i.wrapping_mul(0x9e37_79b9).wrapping_add(3));
            let k = mod_switch_from_torus(x, two_n);
            let back = mod_switch_to_torus(k, two_n);
            // Half a step of the `2N`-element grid: `1/(4N)`.
            assert!(
                x.signed_diff(back).abs() <= 0.5 / two_n as f64 + 1e-12,
                "rounding error too large for {x:?}"
            );
        }
    }

    #[test]
    fn exact_on_grid() {
        let two_n = 2048;
        for k in [0u32, 1, 7, 1024, 2047] {
            let x = mod_switch_to_torus(k, two_n);
            assert_eq!(mod_switch_from_torus(x, two_n), k);
        }
    }

    #[test]
    fn quarter_turn() {
        assert_eq!(mod_switch_from_torus(Torus32::from_f64(0.25), 2048), 512);
        assert_eq!(mod_switch_from_torus(Torus32::from_f64(-0.25), 2048), 1536);
        assert_eq!(mod_switch_from_torus(Torus32::ZERO, 2048), 0);
    }

    #[test]
    fn result_in_range() {
        for i in 0..1000u32 {
            let x = Torus32::from_raw(i.wrapping_mul(0xdead_beef));
            assert!(mod_switch_from_torus(x, 64) < 64);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = mod_switch_from_torus(Torus32::ZERO, 100);
    }
}
