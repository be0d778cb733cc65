//! Error measurement harness for the paper's Figure 8.
//!
//! Figure 8 plots the error of the approximate FFT+IFFT pipeline (in dB,
//! relative to signal amplitude) against the twiddle-factor quantization
//! width, with the 64-bit double-precision pipeline as the reference line.
//! We measure end-to-end polynomial-multiplication error against the *exact*
//! integer negacyclic convolution, which both pipelines approximate.

use crate::engine::FftEngine;
use matcha_math::{stats, IntPolynomial, Torus32, TorusPolynomial};

/// Deterministic xorshift for reproducible error sweeps without pulling a
/// full RNG dependency into the library path.
#[derive(Clone, Debug)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Generates the Figure 8 workload: a random torus polynomial (all 32 bits
/// used) times a random gadget-digit polynomial (`|digit| ≤ Bg/2 = 512`).
fn workload(n: usize, rng: &mut XorShift64) -> (TorusPolynomial, IntPolynomial) {
    let p = TorusPolynomial::from_coeffs(
        (0..n)
            .map(|_| Torus32::from_raw(rng.next() as u32))
            .collect(),
    );
    let q = IntPolynomial::from_coeffs((0..n).map(|_| (rng.next() % 1024) as i32 - 512).collect());
    (p, q)
}

/// End-to-end polynomial multiplication error of `engine` in dB, over
/// `trials` random products at the engine's ring degree.
///
/// The error is `20·log10(rms(err)/rms(signal))` where both are measured on
/// the centered torus representatives of the result, exactly the relative
/// error metric of Figure 8 (smaller/more negative is better).
pub fn poly_mul_error_db<E: FftEngine>(engine: &E, trials: usize, seed: u64) -> f64 {
    let n = engine.ring_degree();
    let mut rng = XorShift64::new(seed);
    let mut errs = Vec::with_capacity(trials * n);
    let mut signal = Vec::with_capacity(trials * n);
    for _ in 0..trials {
        let (p, q) = workload(n, &mut rng);
        let exact = p.naive_mul_int(&q);
        let approx = engine.poly_mul(&p, &q);
        for (&e, &a) in exact.coeffs().iter().zip(approx.coeffs().iter()) {
            errs.push(a.signed_diff(e));
            signal.push(e.to_f64());
        }
    }
    let s = stats::rms(&signal);
    if s == 0.0 {
        return f64::NEG_INFINITY;
    }
    stats::amplitude_db(stats::rms(&errs) / s)
}

/// Forward/backward round-trip error of `engine` in dB (pure FFT+IFFT, no
/// pointwise product), over `trials` random torus polynomials.
pub fn fft_roundtrip_error_db<E: FftEngine>(engine: &E, trials: usize, seed: u64) -> f64 {
    let n = engine.ring_degree();
    let mut rng = XorShift64::new(seed);
    let mut errs = Vec::with_capacity(trials * n);
    let mut signal = Vec::with_capacity(trials * n);
    for _ in 0..trials {
        let p = TorusPolynomial::from_coeffs(
            (0..n)
                .map(|_| Torus32::from_raw(rng.next() as u32))
                .collect(),
        );
        let back = engine.backward_torus(&engine.forward_torus(&p));
        for (&e, &a) in p.coeffs().iter().zip(back.coeffs().iter()) {
            errs.push(a.signed_diff(e));
            signal.push(e.to_f64());
        }
    }
    let s = stats::rms(&signal);
    if s == 0.0 {
        return f64::NEG_INFINITY;
    }
    stats::amplitude_db(stats::rms(&errs) / s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxIntFft, F64Fft};

    #[test]
    fn double_precision_error_is_small() {
        let engine = F64Fft::new(256);
        let db = poly_mul_error_db(&engine, 4, 42);
        assert!(
            db < -120.0,
            "double-precision error {db} dB unexpectedly large"
        );
    }

    #[test]
    fn approx_error_improves_with_bits() {
        let coarse = poly_mul_error_db(&ApproxIntFft::new(256, 10), 3, 7);
        let fine = poly_mul_error_db(&ApproxIntFft::new(256, 40), 3, 7);
        assert!(
            fine < coarse - 20.0,
            "40-bit ({fine} dB) should be far better than 10-bit ({coarse} dB)"
        );
    }

    #[test]
    fn high_precision_approx_close_to_double() {
        let double = poly_mul_error_db(&F64Fft::new(128), 3, 11);
        let approx = poly_mul_error_db(&ApproxIntFft::new(128, 55), 3, 11);
        // Figure 8: at high twiddle widths the approximate engine approaches
        // (without fully matching) the double-precision line.
        assert!(approx < -100.0, "55-bit approx error {approx} dB too large");
        assert!(double < -100.0);
    }

    #[test]
    fn roundtrip_error_reported() {
        let db = fft_roundtrip_error_db(&ApproxIntFft::new(128, 40), 3, 5);
        assert!(db < -80.0, "roundtrip error {db} dB too large");
    }
}
