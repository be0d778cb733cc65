//! Noise behaviour end to end (paper Table 3 and the error-tolerance
//! argument of §4.1): approximate-FFT noise stays within the decryption
//! budget, and key unrolling trades EP noise against BK noise.

use matcha::circuits::{netlist, word};
use matcha::tfhe::{noise, packing, simplify, AnalysisPolicy, BootstrapKit, ServerConfig};
use matcha::{ApproxIntFft, CircuitServer, ClientKey, F64Fft, ParameterSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn client(seed: u64) -> (ClientKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    (c, rng)
}

#[test]
fn bootstrap_noise_within_margin_for_both_engines() {
    let (client, mut rng) = client(31);
    let exact = F64Fft::new(256);
    let kit_exact = BootstrapKit::generate(&client, &exact, 2, &mut rng);
    let s_exact = noise::bootstrap_noise(&client, &kit_exact, &exact, 10, &mut rng);

    let approx = ApproxIntFft::new(256, 40);
    let kit_approx = BootstrapKit::generate(&client, &approx, 2, &mut rng);
    let s_approx = noise::bootstrap_noise(&client, &kit_approx, &approx, 10, &mut rng);

    // Both must stay far below the harness's 1/16 threshold.
    assert!(s_exact.max_abs < 1.0 / 16.0, "exact: {}", s_exact.max_abs);
    assert!(
        s_approx.max_abs < 1.0 / 16.0,
        "approx: {}",
        s_approx.max_abs
    );
}

#[test]
fn coarse_twiddles_increase_noise_but_not_failures() {
    // §4.1: approximation errors behave like extra noise, flushed at each
    // bootstrap. Coarser twiddles ⇒ more noise, same decryptions.
    let (client, mut rng) = client(32);
    let fine = ApproxIntFft::new(256, 50);
    let coarse = ApproxIntFft::new(256, 22);
    let kit_fine = BootstrapKit::generate(&client, &fine, 1, &mut rng);
    let kit_coarse = BootstrapKit::generate(&client, &coarse, 1, &mut rng);
    let s_fine = noise::bootstrap_noise(&client, &kit_fine, &fine, 12, &mut rng);
    let s_coarse = noise::bootstrap_noise(&client, &kit_coarse, &coarse, 12, &mut rng);
    assert!(
        s_coarse.stdev > s_fine.stdev,
        "coarse {} should exceed fine {}",
        s_coarse.stdev,
        s_fine.stdev
    );
    assert_eq!(
        noise::failure_count(&client, &kit_coarse, &coarse, 16, &mut rng),
        0,
        "coarse twiddles must still decrypt correctly"
    );
}

#[test]
fn nand_failure_probe_is_clean() {
    // The paper's 10^8-gate failure test, scaled to CI size.
    let (client, mut rng) = client(33);
    let engine = ApproxIntFft::new(256, 38); // the paper's minimum width
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    assert_eq!(
        noise::failure_count(&client, &kit, &engine, 40, &mut rng),
        0
    );
}

#[test]
fn fresh_noise_matches_parameters() {
    let (client, mut rng) = client(34);
    let stats = noise::fresh_noise(&client, 500, &mut rng);
    let sigma = client.params().ring_noise_stdev;
    assert!(stats.stdev < 3.0 * sigma && stats.stdev > sigma / 3.0);
}

#[test]
fn unrolling_does_not_blow_the_noise_budget() {
    // Table 3's trade-off: more BK noise terms per bundle (2^m − 1), fewer
    // rounding/EP steps. At our parameters every m must stay decryptable.
    let (client, mut rng) = client(35);
    let engine = F64Fft::new(256);
    for m in 1..=4 {
        let kit = BootstrapKit::generate(&client, &engine, m, &mut rng);
        let stats = noise::bootstrap_noise(&client, &kit, &engine, 8, &mut rng);
        assert!(stats.max_abs < 1.0 / 16.0, "m={m}: {}", stats.max_abs);
    }
}

/// The decrypt-failure sweep at the paper's parameters, on a key stored in
/// 32-bit words: every NAND and every MUX must decrypt to its truth-table
/// value, and the bootstrap's measured noise — one blind rotation, the key
/// switch having come first — must be what this seed reads (`recorded`:
/// the draws are fixed, so a reading that moves means the bootstrap's
/// arithmetic did). Then the adder cells where admission puts them: ripple
/// adders as `simplify` leaves them, one bootstrap a bit with every sum
/// riding on its carry's, every sum checked on random operands; the same
/// adders uploaded packed through a [`CircuitServer`] that admits them
/// under its noise certificate, so the unpacked bits — sample extractions,
/// nothing switched — feed the cells directly; and one long chain of
/// cells, each taking the carry before it and two fresh operands, every
/// carry and sum checked and the noise of accumulator coefficients 0, 1
/// and 2 — the carry's, and the two the sum is made of — measured to be
/// uncorrelated, which is what the certificate of a riding sum assumes.
///
/// 200 NANDs, 50 MUXes, 2048 noise trials, eight 8-bit and four 32-bit
/// additions, eight packed 8-bit additions and 512 chained cells in an
/// release build (CI's release step); a build with debug assertions
/// (tier-1's test profile) runs half of the gates and cells, one 4-bit
/// addition of each kind, and leaves the noise and correlation readings
/// out.
fn decrypt_failure_sweep<E>(engine: E, unroll: usize, seed: u64, recorded: f64)
where
    E: matcha::FftEngine + Send + Sync + 'static,
{
    use matcha::math::Torus32;
    use matcha::tfhe::LweCiphertext;
    use matcha::{Gate, ServerKey};
    let full = !cfg!(debug_assertions);
    let scale = if full { 1 } else { 2 };
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server = Arc::new(ServerKey::with_unrolling(&client, engine, unroll, &mut rng));
    let mut failures = 0;
    for i in 0..200 / scale {
        let (a, b) = (i % 2 == 0, (i / 2) % 2 == 0);
        let [ca, cb] = [a, b].map(|bit| client.encrypt_with(bit, &mut rng));
        let out = server.apply(Gate::Nand, &ca, &cb);
        failures += usize::from(client.decrypt(&out) == (a && b));
    }
    for i in 0..50 / scale {
        let (s, a, b) = (i % 2 == 0, (i / 2) % 2 == 0, (i / 4) % 2 == 0);
        let [cs, ca, cb] = [s, a, b].map(|bit| client.encrypt_with(bit, &mut rng));
        let out = server.mux(&cs, &ca, &cb);
        failures += usize::from(client.decrypt(&out) != if s { a } else { b });
    }
    assert_eq!(failures, 0, "decryption failures among the NANDs and MUXes");
    if full {
        let stats = noise::bootstrap_noise(&client, server.kit(), server.engine(), 2048, &mut rng);
        assert!(
            (stats.stdev / recorded - 1.0).abs() < 0.05,
            "bootstrap noise σ {:e}, recorded {recorded:e}",
            stats.stdev
        );
    }
    let additions: &[(usize, usize)] = if full { &[(8, 8), (32, 4)] } else { &[(4, 1)] };
    for &(width, rounds) in additions {
        let (adder, report) = simplify(&netlist::ripple_adder(width));
        assert_eq!((report.bootstraps_after, report.riding), (width, width));
        for _ in 0..rounds {
            let [x, y] = [(); 2].map(|()| rng.gen::<u64>() & word::max_value(width));
            let mut inputs = word::encrypt(&client, x, width, &mut rng);
            inputs.extend(word::encrypt(&client, y, width, &mut rng));
            let run = adder.execute_sequential(&server, &inputs);
            assert_eq!(word::decrypt(&client, &run.outputs), x + y, "{x} + {y}");
        }
    }

    let config = ServerConfig {
        analysis: Some(AnalysisPolicy::default()),
        ..ServerConfig::default()
    };
    let circuits = CircuitServer::start_with(Arc::clone(&server), 1, config);
    let handle = circuits.client();
    let (width, rounds) = if full { (8, 8) } else { (4, 1) };
    for _ in 0..rounds {
        let [x, y] = [(); 2].map(|()| rng.gen::<u64>() & word::max_value(width));
        let bits: Vec<bool> = (0..2 * width)
            .map(|i| [x, y][i / width] >> (i % width) & 1 == 1)
            .collect();
        let packed = packing::pack_bits(&client, &bits, server.engine(), &mut rng);
        let outcome = handle
            .submit_packed(netlist::ripple_adder(width), vec![packed])
            .wait();
        let run = outcome.completed().expect("a packed adder is admitted");
        assert_eq!(
            word::decrypt(&client, &run.outputs),
            x + y,
            "packed {x} + {y}"
        );
    }
    circuits.shutdown();

    let mut scratch = server.make_scratch();
    let mut outs = [LweCiphertext::default(), LweCiphertext::default()];
    let (mut carry, mut carry_bit) = (server.trivial(false), false);
    let mut errors: [Vec<f64>; 3] = Default::default();
    for _ in 0..512 / scale {
        let [a, b] = [(); 2].map(|()| rng.gen::<bool>());
        let [ca, cb] = [a, b].map(|bit| client.encrypt_with(bit, &mut rng));
        server.cell_into([&ca, &cb, &carry], &mut outs, &mut scratch);
        let ones = usize::from(a) + usize::from(b) + usize::from(carry_bit);
        assert_eq!(client.decrypt(&outs[1]), ones % 2 == 1, "a chained sum");
        carry_bit = ones >= 2;
        assert_eq!(client.decrypt(&outs[0]), carry_bit, "a chained carry");
        carry.copy_from(&outs[0]);
        // The cell's accumulator is still in the scratch.
        for (coefficient, errors) in errors.iter_mut().enumerate() {
            let sample = scratch.accumulator().sample_extract_at(coefficient);
            let phase = client.phase(&sample);
            errors.push(phase.signed_diff(Torus32::from_bool(carry_bit)));
        }
    }
    if full {
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            let rho = correlation(&errors[i], &errors[j]);
            assert!(rho.abs() < 0.15, "coefficients {i} and {j}: ρ = {rho}");
        }
    }
}

/// Pearson correlation of two equally long samples.
fn correlation(x: &[f64], y: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(x), mean(y));
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var = |v: &[f64], m: f64| v.iter().map(|a| (a - m) * (a - m)).sum::<f64>();
    cov / (var(x, mx) * var(y, my)).sqrt()
}

#[test]
fn no_decrypt_failures_at_paper_parameters_f64() {
    decrypt_failure_sweep(F64Fft::new(1024), 2, 36, 6.476e-3);
}

#[test]
fn no_decrypt_failures_at_paper_parameters_approx38() {
    decrypt_failure_sweep(ApproxIntFft::new(1024, 38), 3, 37, 8.089e-3);
}
