//! Figure 8: error (dB) of the approximate multiplication-less integer
//! FFT+IFFT versus the twiddle-factor quantization width, with the
//! double-precision engine as reference. The error column is a polynomial
//! product through the transforms; the round-trip column is a forward and
//! a backward transform alone, no pointwise product.
//!
//! Run with: `cargo run --release -p matcha-bench --bin fig8_fft_error`

use matcha::fft::error::{fft_roundtrip_error_db, poly_mul_error_db};
use matcha::{ApproxIntFft, F64Fft};

/// Exact results fall below the half-ulp measurement floor of the 32-bit
/// torus (≈ -193 dB), where the measured error is `-∞`.
fn floored(db: f64) -> f64 {
    if db.is_finite() {
        db
    } else {
        -193.0
    }
}

fn main() {
    let n = 1024;
    let trials = 6;
    let seed = 2022;
    println!("# Figure 8: error of approximate FFT & IFFT vs twiddle factor bits");
    println!(
        "{:<14} {:>12} {:>14}",
        "twiddle bits", "error (dB)", "roundtrip (dB)"
    );
    for bits in (10..=62).step_by(4) {
        let engine = ApproxIntFft::new(n, bits);
        let db = poly_mul_error_db(&engine, trials, seed);
        let rt = floored(fft_roundtrip_error_db(&engine, trials, seed));
        println!("{bits:<14} {db:>12.1} {rt:>14.1}");
    }
    // Our double-precision pipeline rounds to the bit-exact product at these
    // sizes, so its measured error can fall below the floor.
    let double = floored(poly_mul_error_db(&F64Fft::new(n), trials, seed));
    println!("{:<14} {double:>12.1} {:>14}", "double", "-");
    println!("\npaper anchors: 64-bit DVQTFs ≈ -141 dB; double ≈ -150 dB.");
}
