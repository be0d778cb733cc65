//! Table 3: noise comparison between classic BKU (m = 2) and MATCHA's
//! aggressive unrolling, measured empirically: post-bootstrap phase noise
//! for m ∈ {2..5} under the exact and the approximate FFT engine, plus the
//! bootstrapping-key blow-up and the FFT error floor.
//!
//! Uses the medium test parameters so hundreds of bootstraps finish in
//! seconds; pass `--paper` for the full parameter set (slower).
//!
//! Exits non-zero if any trial decrypts wrong: the failures column is a
//! check, not only a reading.
//!
//! Run with: `cargo run --release -p matcha-bench --bin table3_noise`

use matcha::fft::error::poly_mul_error_db;
use matcha::tfhe::{noise, BootstrapKit};
use matcha::{ApproxIntFft, ClientKey, F64Fft, ParameterSet};
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paper = std::env::args().any(|a| a == "--paper");
    let params = if paper {
        ParameterSet::MATCHA
    } else {
        ParameterSet::TEST_MEDIUM
    };
    let trials = if paper { 20 } else { 60 };
    let twiddle_bits = 38; // the paper's minimum failure-free width
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let client = ClientKey::generate(params, &mut rng);
    let n = params.ring_degree;

    let exact = F64Fft::new(n);
    let approx = ApproxIntFft::new(n, twiddle_bits);

    println!("# Table 3: noise comparison, BKU (m=2) vs aggressive unrolling");
    println!(
        "{:<4} {:>10} {:>16} {:>16} {:>14}",
        "m", "BK keys", "noise (exact)", "noise (approx)", "failures"
    );
    let mut total_failures = 0;
    for m in 2..=5usize {
        let kit_e = BootstrapKit::generate(&client, &exact, m, &mut rng);
        let kit_a = BootstrapKit::generate(&client, &approx, m, &mut rng);
        let s_e = noise::bootstrap_noise(&client, &kit_e, &exact, trials, &mut rng);
        let s_a = noise::bootstrap_noise(&client, &kit_a, &approx, trials, &mut rng);
        let failures = noise::failure_count(&client, &kit_a, &approx, trials, &mut rng);
        total_failures += failures;
        println!(
            "{:<4} {:>10} {:>13.2e} {:>13.2e} {:>14}",
            m,
            kit_e.bootstrapping_key().key_count(),
            s_e.stdev,
            s_a.stdev,
            failures,
        );
    }

    let fft_db = poly_mul_error_db(&approx, 4, 9);
    let dbl_db = poly_mul_error_db(&exact, 4, 9);
    println!(
        "\nI/FFT error: approx ({twiddle_bits}-bit DVQTF) {fft_db:.0} dB, double {dbl_db:.0} dB"
    );
    println!("paper: EP and rounding noise fall ~1/m; BK noise grows ~(2^m - 1);");
    println!("approx-FFT noise stays below the decryption margin ({total_failures} failures).");
    if total_failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("table3_noise: {total_failures} bootstraps decrypted wrong");
        ExitCode::FAILURE
    }
}
