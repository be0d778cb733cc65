//! Figure 1: latency breakdown of TFHE gates into IFFT / FFT /
//! bundle+MAC / key switch / other at the paper's parameters, on the path
//! every caller runs: `apply_into` through a warmed scratch. The server key
//! is built over a `Counting` engine, which counts and times the transforms
//! and the fused bundle products as they run — a step streams the bundle
//! `H + Σ_p (X^{e_p} − 1)·K_p` straight into the external product's
//! pointwise multiply-accumulates, so the two are one column. The gate's
//! wall time is the denominator; the key switch is one switch of a fresh
//! operand timed right after each gate, which finds the key-switching key
//! as cold as the gate's own switch does (behind the previous blind
//! rotation's walk over the bootstrapping key), and an untimed gate after
//! it puts the next timed gate behind a gate again; "other" is what is
//! left.
//! Two configurations: the classic `F64Fft` flow (m = 1) and the
//! benchmark's paper configuration, `ApproxIntFft` with 38-bit twiddles at
//! m = 3. Exits non-zero if a gate decrypts wrong or its transform counts
//! are not `2ℓ·⌈n/m⌉` and `2·⌈n/m⌉`.
//!
//! Run with: `cargo run --release -p matcha-bench --bin fig1_breakdown`

use matcha::fft::{Counting, Counts};
use matcha::{
    ApproxIntFft, ClientKey, F64Fft, FftEngine, Gate, LweCiphertext, ParameterSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Prints one row per gate for `server`, labelled `config`, and returns the
/// last gate's counts.
fn breakdown<E: FftEngine>(
    config: &str,
    client: &ClientKey,
    server: &ServerKey<Counting<E>>,
    rng: &mut StdRng,
) -> Counts {
    let mut scratch = server.make_scratch();
    let mut out = LweCiphertext::default();
    // Size every buffer first: the figure is of a gate, not of the first
    // call's allocations.
    let warm = server.trivial(true);
    server.apply_into(Gate::Nand, &warm, &warm, &mut out, &mut scratch);
    let ksk = server.kit().key_switch_key();
    let mut switched = LweCiphertext::default();
    ksk.switch_into(&warm, &mut switched);

    let params = server.params();
    let steps = params.lwe_dimension.div_ceil(server.unroll()) as u64;
    let mut counted = Counts::default();
    for gate in [Gate::And, Gate::Or, Gate::Nand, Gate::Xor, Gate::Xnor] {
        let a = client.encrypt_with(true, rng);
        let b = client.encrypt_with(false, rng);
        let fresh = client.encrypt_with(true, rng);
        let before = server.engine().counts();
        let t0 = Instant::now();
        server.apply_into(gate, &a, &b, &mut out, &mut scratch);
        let wall = t0.elapsed();
        counted = server.engine().counts() - before;
        let t0 = Instant::now();
        ksk.switch_into(&fresh, &mut switched);
        let switch = t0.elapsed();
        assert_eq!(client.decrypt(&out), gate.eval(true, false));
        assert_eq!(
            (counted.forward, counted.backward),
            (2 * params.decomp_levels as u64 * steps, 2 * steps),
            "{config} {gate}: transform calls"
        );
        // The switch warmed the key-switching key; one more gate, untimed,
        // leaves the next timed gate behind a gate as every gate runs.
        server.apply_into(gate, &a, &b, &mut out, &mut scratch);

        let share = |d: Duration| d.as_secs_f64() / wall.as_secs_f64() * 100.0;
        let ns = Duration::from_nanos;
        let [ifft, fft, bundle, ks] = [
            ns(counted.forward_ns),
            ns(counted.backward_ns),
            ns(counted.bundle_ns),
            switch,
        ]
        .map(share);
        println!(
            "{:<13} {:<6} {:>7.1}% {:>7.1}% {:>9.1}% {:>7.1}% {:>7.1}% {:>10} {:>10}",
            config,
            gate.to_string(),
            ifft,
            fft,
            bundle,
            ks,
            100.0 - ifft - fft - bundle - ks,
            counted.forward,
            counted.backward,
        );
    }
    counted
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let n = client.params().ring_degree;

    println!("# Figure 1: TFHE gate latency breakdown (% of the gate's wall time)");
    println!(
        "{:<13} {:<6} {:>8} {:>8} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "config", "gate", "IFFT", "FFT", "bundle+MAC", "KS", "other", "IFFT calls", "FFT calls"
    );
    let server = ServerKey::new(&client, Counting::new(F64Fft::new(n)), &mut rng);
    let counted = breakdown("f64 m=1", &client, &server, &mut rng);
    let engine = Counting::new(ApproxIntFft::new(n, 38));
    let server = ServerKey::with_unrolling(&client, engine, 3, &mut rng);
    breakdown("approx38 m=3", &client, &server, &mut rng);

    println!("\npaper: bootstrapping ≈ 99% of gate latency; FFT+IFFT ≈ 80% of the bootstrap;");
    println!(
        "IFFT (coefficient→Lagrange) is invoked ~{}x more often than FFT.",
        counted.forward / counted.backward
    );
}
