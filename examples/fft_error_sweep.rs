//! Sweeps the twiddle-factor quantization width of the approximate
//! multiplication-less integer FFT and reports the polynomial-
//! multiplication error in dB (the paper's Figure 8), against the
//! double-precision reference line.
//!
//! Run with: `cargo run --release --example fft_error_sweep`

use matcha::fft::error::{fft_roundtrip_error_db, poly_mul_error_db};
use matcha::{ApproxIntFft, F64Fft};

fn main() {
    let n = 1024; // the paper's ring degree
    let trials = 4;
    let seed = 2022;

    let double = poly_mul_error_db(&F64Fft::new(n), trials, seed);
    // Our double-precision pipeline rounds to the bit-exact product at these
    // sizes, so its measured error can fall below the half-ulp floor of the
    // 32-bit torus (≈ -193 dB).
    let double = if double.is_finite() { double } else { -193.0 };
    println!("# Figure 8: error of approx FFT & IFFT vs twiddle factor bits (N = {n})");
    println!(
        "{:<14} {:>12} {:>14}",
        "twiddle bits", "error (dB)", "roundtrip (dB)"
    );
    for bits in [10u32, 16, 22, 28, 34, 38, 44, 50, 56, 62] {
        let engine = ApproxIntFft::new(n, bits);
        let db = poly_mul_error_db(&engine, trials, seed);
        let rt = fft_roundtrip_error_db(&engine, trials, seed);
        // Exact round trips fall below the half-ulp measurement floor.
        let rt = if rt.is_finite() { rt } else { -193.0 };
        println!("{bits:<14} {db:>12.1} {rt:>14.1}");
    }
    println!("{:<14} {double:>12.1} {:>14}", "double (f64)", "-");
    println!("\npaper anchors: 64-bit DVQTF ≈ -141 dB, double ≈ -150 dB;");
    println!("38-bit DVQTFs already produce no decryption failures at m = 2 (§4.3).");
}
