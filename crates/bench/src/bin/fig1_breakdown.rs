//! Figure 1: latency breakdown of TFHE gates into IFFT / FFT / other,
//! measured with the built-in phase profiler at the paper's parameters on
//! the path every caller runs: `apply_into` through a warmed scratch.
//!
//! Run with: `cargo run --release -p matcha-bench --bin fig1_breakdown`

use matcha::tfhe::profile::{self, Phase};
use matcha::{ClientKey, F64Fft, Gate, LweCiphertext, ParameterSet, ServerKey};
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server = ServerKey::new(&client, F64Fft::new(1024), &mut rng);
    let mut scratch = server.make_scratch();
    let mut out = LweCiphertext::default();
    // Size every buffer first: the figure is of a gate, not of the first
    // call's allocations.
    let warm = server.trivial(true);
    server.apply_into(Gate::Nand, &warm, &warm, &mut out, &mut scratch);

    println!("# Figure 1: TFHE gate latency breakdown (%)");
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "gate", "IFFT", "FFT", "KS", "other", "IFFT calls", "FFT calls"
    );
    for gate in [Gate::And, Gate::Or, Gate::Nand, Gate::Xor, Gate::Xnor] {
        let a = client.encrypt_with(true, &mut rng);
        let b = client.encrypt_with(false, &mut rng);
        profile::start();
        server.apply_into(gate, &a, &b, &mut out, &mut scratch);
        let snap = profile::snapshot();
        profile::stop();
        assert_eq!(client.decrypt(&out), gate.eval(true, false));
        println!(
            "{:<6} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>10}",
            gate.to_string(),
            snap.fraction(Phase::Ifft) * 100.0,
            snap.fraction(Phase::Fft) * 100.0,
            snap.fraction(Phase::KeySwitch) * 100.0,
            (snap.fraction(Phase::Other) + snap.fraction(Phase::TgswScale)) * 100.0,
            snap.ifft_calls,
            snap.fft_calls,
        );
    }
    println!("\npaper: bootstrapping ≈ 99% of gate latency; FFT+IFFT ≈ 80% of the bootstrap;");
    println!(
        "IFFT (coefficient→Lagrange) is invoked ~{}x more often than FFT.",
        6 / 2
    );
}
