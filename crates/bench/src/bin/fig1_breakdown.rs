//! Figure 1: latency breakdown of TFHE gates into IFFT / FFT / bundle /
//! key switch / other, measured with the built-in phase profiler at the
//! paper's parameters on the path every caller runs: `apply_into` through a
//! warmed scratch. Two configurations: the classic `F64Fft` flow (m = 1)
//! and the benchmark's paper configuration, `ApproxIntFft` with 38-bit
//! twiddles at m = 3, where the bundle `H + Σ_p (X^{e_p} − 1)·K_p` is a
//! phase of its own.
//!
//! Run with: `cargo run --release -p matcha-bench --bin fig1_breakdown`

use matcha::tfhe::profile::{self, Phase};
use matcha::{
    ApproxIntFft, ClientKey, F64Fft, FftEngine, Gate, LweCiphertext, ParameterSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prints one row per gate for `server`, labelled `config`.
fn breakdown<E: FftEngine>(
    config: &str,
    client: &ClientKey,
    server: &ServerKey<E>,
    rng: &mut StdRng,
) {
    let mut scratch = server.make_scratch();
    let mut out = LweCiphertext::default();
    // Size every buffer first: the figure is of a gate, not of the first
    // call's allocations.
    let warm = server.trivial(true);
    server.apply_into(Gate::Nand, &warm, &warm, &mut out, &mut scratch);
    for gate in [Gate::And, Gate::Or, Gate::Nand, Gate::Xor, Gate::Xnor] {
        let a = client.encrypt_with(true, rng);
        let b = client.encrypt_with(false, rng);
        profile::start();
        server.apply_into(gate, &a, &b, &mut out, &mut scratch);
        let snap = profile::snapshot();
        profile::stop();
        assert_eq!(client.decrypt(&out), gate.eval(true, false));
        println!(
            "{:<13} {:<6} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>10}",
            config,
            gate.to_string(),
            snap.fraction(Phase::Ifft) * 100.0,
            snap.fraction(Phase::Fft) * 100.0,
            snap.fraction(Phase::TgswScale) * 100.0,
            snap.fraction(Phase::KeySwitch) * 100.0,
            snap.fraction(Phase::Other) * 100.0,
            snap.ifft_calls,
            snap.fft_calls,
        );
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let n = client.params().ring_degree;

    println!("# Figure 1: TFHE gate latency breakdown (%)");
    println!(
        "{:<13} {:<6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "config", "gate", "IFFT", "FFT", "bundle", "KS", "other", "IFFT calls", "FFT calls"
    );
    let server = ServerKey::new(&client, F64Fft::new(n), &mut rng);
    breakdown("f64 m=1", &client, &server, &mut rng);
    let server = ServerKey::with_unrolling(&client, ApproxIntFft::new(n, 38), 3, &mut rng);
    breakdown("approx38 m=3", &client, &server, &mut rng);

    println!("\npaper: bootstrapping ≈ 99% of gate latency; FFT+IFFT ≈ 80% of the bootstrap;");
    println!(
        "IFFT (coefficient→Lagrange) is invoked ~{}x more often than FFT.",
        6 / 2
    );
}
