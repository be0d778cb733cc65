//! Figure 8: error (dB) of the approximate multiplication-less integer
//! FFT+IFFT versus the twiddle-factor quantization width, with the
//! double-precision engine as reference.
//!
//! Run with: `cargo run --release -p matcha-bench --bin fig8_fft_error`

use matcha::fft::error::poly_mul_error_db;
use matcha::{ApproxIntFft, F64Fft};

fn main() {
    let n = 1024;
    let trials = 6;
    let seed = 2022;
    println!("# Figure 8: error of approximate FFT & IFFT vs twiddle factor bits");
    println!("{:<14} {:>12}", "twiddle bits", "error (dB)");
    for bits in (10..=62).step_by(4) {
        let db = poly_mul_error_db(&ApproxIntFft::new(n, bits), trials, seed);
        println!("{bits:<14} {db:>12.1}");
    }
    let double = poly_mul_error_db(&F64Fft::new(n), trials, seed);
    // Our double-precision pipeline rounds to the bit-exact product at these
    // sizes, so its measured error can fall below the half-ulp floor of the
    // 32-bit torus (≈ -193 dB).
    let double = if double.is_finite() { double } else { -193.0 };
    println!("{:<14} {double:>12.1}", "double");
    println!("\npaper anchors: 64-bit DVQTFs ≈ -141 dB; double ≈ -150 dB.");
}
