//! Cross-validation of the analytic noise model in [`matcha_tfhe::analyze`]
//! against the empirical [`matcha_tfhe::noise`] harness.
//!
//! The admission-time certificate is only sound if the analytic worst-case
//! variance *dominates* what real ciphertexts carry. These tests measure
//! fresh-input and post-bootstrap noise on live ciphertexts (under the
//! extracted key, where every value between gates lives) across parameter
//! sets and unrolling factors and assert the model is an upper bound every
//! time (with real slack where the model is a worst case — it charges every
//! key bit and every rounding half-step, so it should not be within a
//! hair).

use matcha_fft::F64Fft;
use matcha_math::{stats, Torus32};
use matcha_tfhe::analyze::DEFAULT_FAILURE_BUDGET;
use matcha_tfhe::noise::bootstrap_noise;
use matcha_tfhe::params::ParameterSet;
use matcha_tfhe::{
    analyze, demote_sums, packing, simplify, CircuitNetlist, ClientKey, Gate, Gate3, LweCiphertext,
    NoiseModel, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// (label, parameter set, unroll factors worth exercising).
fn cases() -> Vec<(&'static str, ParameterSet, Vec<usize>)> {
    vec![
        ("TEST_FAST", ParameterSet::TEST_FAST, vec![1, 2]),
        ("TEST_MEDIUM", ParameterSet::TEST_MEDIUM, vec![2]),
    ]
}

/// A bootstrap's output is one blind rotation, extracted — the key switch
/// came before it — so the blind-rotation bound is the bootstrapped
/// value's.
#[test]
fn analytic_bound_dominates_empirical_bootstrap_noise() {
    for (label, params, unrolls) in cases() {
        for unroll in unrolls {
            let mut rng = StdRng::seed_from_u64(7 + unroll as u64);
            let client = ClientKey::generate(params, &mut rng);
            let engine = F64Fft::new(params.ring_degree);
            let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
            let model = NoiseModel::new(&params, unroll);
            assert_eq!(model.v_bootstrapped(), model.v_blind_rotate());

            let analytic = model.v_bootstrapped().sqrt();
            let empirical =
                bootstrap_noise(&client, server.kit(), server.engine(), 64, &mut rng).stdev;
            assert!(
                analytic >= empirical,
                "{label} unroll {unroll}: analytic stdev {analytic:.3e} \
                 below empirical {empirical:.3e}"
            );
            // The bound is worst-case, not asymptotically tight, but it
            // should not be vacuous either: within three decades.
            assert!(
                analytic < empirical * 1e3,
                "{label} unroll {unroll}: analytic stdev {analytic:.3e} \
                 is vacuously far above empirical {empirical:.3e}"
            );
        }
    }
}

/// The blind rotation alone — switched input, all-(−μ) test vector,
/// coefficient 0 extracted by hand — measured under the extracted key. It is
/// bit for bit what the gate bootstrap returns (nothing follows the
/// extraction), and the blind-rotation bound dominates its noise.
#[test]
fn analytic_blind_rotate_bound_dominates_extracted_noise() {
    let mu = Torus32::from_dyadic(1, 3);
    for (label, params, unrolls) in cases() {
        for unroll in unrolls {
            let mut rng = StdRng::seed_from_u64(11 + unroll as u64);
            let client = ClientKey::generate(params, &mut rng);
            let engine = F64Fft::new(params.ring_degree);
            let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
            let (kit, engine) = (server.kit(), server.engine());
            let model = NoiseModel::new(&params, unroll);
            let mut scratch = kit.make_scratch(engine);
            let mut extracted = LweCiphertext::default();

            let errors: Vec<f64> = (0..64)
                .map(|i| {
                    let msg = i % 2 == 0;
                    let c = client.encrypt_with(msg, &mut rng);
                    scratch.test_vector_mut().coeffs_mut().fill(-mu);
                    kit.blind_rotate_assign(engine, &c, &mut scratch);
                    scratch.accumulator().sample_extract_into(&mut extracted);
                    assert_eq!(extracted, kit.bootstrap(engine, &c, mu));
                    client
                        .phase(&extracted)
                        .signed_diff(Torus32::from_bool(msg))
                })
                .collect();
            let analytic = model.v_blind_rotate().sqrt();
            let empirical = stats::stdev(&errors);
            assert!(
                analytic >= empirical,
                "{label} unroll {unroll}: blind-rotate stdev bound {analytic:.3e} \
                 below empirical {empirical:.3e}"
            );
        }
    }
}

/// Both ways an input reaches a circuit — a client's `encrypt_with` and a
/// slot of a packed upload unpacked by the server — are samples under the
/// extracted key at the ring noise, which is what admission charges every
/// `Input` ([`NoiseModel::v_fresh`]). Exact, not worst case: the sample
/// variance of 2048 draws may exceed it by its own sampling error, four
/// standard errors of `√(2/2048)` at most.
#[test]
fn fresh_and_unpacked_inputs_carry_what_admission_charges() {
    const SAMPLES: usize = 2048;
    let params = ParameterSet::MATCHA;
    let mut rng = StdRng::seed_from_u64(17);
    let client = ClientKey::generate(params, &mut rng);
    let engine = F64Fft::new(params.ring_degree);
    let v_fresh = NoiseModel::new(&params, 2).v_fresh();
    let slack = 1.0 + 4.0 * (2.0 / SAMPLES as f64).sqrt();

    let bits: Vec<bool> = (0..SAMPLES).map(|i| i % 3 == 0).collect();
    let fresh: Vec<f64> = bits
        .iter()
        .map(|&bit| client.noise_of(&client.encrypt_with(bit, &mut rng), bit))
        .collect();
    let samples: Vec<_> = bits
        .chunks(params.ring_degree)
        .map(|chunk| packing::pack_bits(&client, chunk, &engine, &mut rng))
        .collect();
    let unpacked: Vec<f64> = packing::extract_bits(&samples, SAMPLES, &params)
        .iter()
        .zip(&bits)
        .map(|(c, &bit)| client.noise_of(c, bit))
        .collect();
    for (path, errors) in [("encrypt_with", fresh), ("extract_bits", unpacked)] {
        let v = stats::rms(&errors).powi(2);
        assert!(
            v <= slack * v_fresh && v > v_fresh / slack,
            "{path}: variance {v:.3e} against v_fresh {v_fresh:.3e}"
        );
    }
}

/// An adder cell's twin — coefficients 1 and 2 of the host's accumulator,
/// added — is charged two blind rotations, and its sum the operands on top
/// of that: both bounds must dominate what live cells produce, like the
/// bootstrap's own above.
#[test]
fn analytic_bound_dominates_empirical_cell_noise() {
    for (label, params, unrolls) in cases() {
        for unroll in unrolls {
            let mut rng = StdRng::seed_from_u64(13 + unroll as u64);
            let client = ClientKey::generate(params, &mut rng);
            let engine = F64Fft::new(params.ring_degree);
            let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
            let model = NoiseModel::new(&params, unroll);
            let mut scratch = server.make_scratch();
            let mut outs = [LweCiphertext::default(), LweCiphertext::default()];
            let (mut twins, mut sums) = (Vec::new(), Vec::new());
            for trial in 0..64u32 {
                let bits = [0, 1, 2].map(|i| trial >> i & 1 == 1);
                let ops = bits.map(|bit| client.encrypt_with(bit, &mut rng));
                server.cell_into([&ops[0], &ops[1], &ops[2]], &mut outs, &mut scratch);
                let carry = bits.iter().filter(|&&bit| bit).count() >= 2;
                // What the cell took its twin from is still in the scratch.
                let acc = scratch.accumulator();
                let mut twin = acc.sample_extract_at(1);
                twin.add_assign(&acc.sample_extract_at(2));
                let want = Torus32::from_dyadic(if carry { 1 } else { -1 }, 2);
                twins.push(client.phase(&twin).signed_diff(want));
                sums.push(client.noise_of(&outs[1], bits[0] ^ bits[1] ^ bits[2]));
                assert_eq!(client.decrypt(&outs[0]), carry);
            }
            let twin = stats::stdev(&twins);
            let bound = (2.0 * model.v_blind_rotate()).sqrt();
            assert!(
                bound >= twin,
                "{label} unroll {unroll}: twin stdev {twin:.3e} above the bound {bound:.3e}"
            );
            let sum = stats::stdev(&sums);
            let fresh = model.v_fresh();
            let bound = model.sum_variance(fresh, fresh, fresh).sqrt();
            assert!(
                bound >= sum && bound < sum * 1e3,
                "{label} unroll {unroll}: sum stdev {sum:.3e} against the bound {bound:.3e}"
            );
        }
    }
}

#[test]
fn variance_ordering_matches_the_pipeline() {
    // Sanity on the model's internal decomposition: a bootstrapped value
    // carries its blind rotation and no switch, and a mux output (two
    // blind rotates) is noisier than a binary gate output (one).
    for (_, params, unrolls) in cases() {
        for unroll in unrolls {
            let model = NoiseModel::new(&params, unroll);
            assert!(model.v_blind_rotate() > 0.0);
            assert_eq!(model.v_bootstrapped(), model.v_blind_rotate());
            assert!(model.v_mux_output() > model.v_bootstrapped());
        }
    }
}

/// The binary lowering of a `width`-bit ripple-carry adder, as
/// `circuits::netlist::ripple_adder` emits it after its constant carry-in
/// folds: a half adder, then XOR, XOR, AND, AND, OR per bit.
fn ripple_adder(width: usize) -> CircuitNetlist {
    let mut net = CircuitNetlist::new();
    let a: Vec<usize> = (0..width).map(|_| net.input()).collect();
    let b: Vec<usize> = (0..width).map(|_| net.input()).collect();
    let sum = net.gate(Gate::Xor, a[0], b[0]);
    net.mark_output(sum);
    let mut carry = net.gate(Gate::And, a[0], b[0]);
    for i in 1..width {
        let axb = net.gate(Gate::Xor, a[i], b[i]);
        let sum = net.gate(Gate::Xor, axb, carry);
        net.mark_output(sum);
        let and_ab = net.gate(Gate::And, a[i], b[i]);
        let and_cx = net.gate(Gate::And, axb, carry);
        carry = net.gate(Gate::Or, and_ab, and_cx);
    }
    net.mark_output(carry);
    net
}

/// What the three-input gates cost in failure probability at the paper's
/// parameters, pinned: on three bootstrapped operands they are inside the
/// `2⁻²⁰` budget at m = 2 and outside it at m = 3 — why admission
/// re-certifies a fused netlist and can fall back — while a ripple adder's
/// stages, two fresh operands and one carry, are nowhere near it at
/// either, so fused adders certify at both.
#[test]
fn three_input_gate_bounds_at_paper_parameters() {
    let pinned = [
        (2, Gate3::Xor3, 2.16e-9),
        (2, Gate3::Maj, 3.91e-9),
        (3, Gate3::Xor3, 3.37e-6),
        (3, Gate3::Maj, 4.32e-6),
    ];
    for (unroll, gate, want) in pinned {
        let model = NoiseModel::new(&ParameterSet::MATCHA, unroll);
        let (fresh, reset) = (model.v_fresh(), model.v_bootstrapped());
        let p = model.decision_failure(gate.desc(), &[reset, reset, reset]);
        assert!((p / want - 1.0).abs() < 0.02, "{gate} m={unroll}: {p:e}");
        assert_eq!(p > DEFAULT_FAILURE_BUDGET, unroll == 3, "{gate} m={unroll}");
        let stage = model.decision_failure(gate.desc(), &[fresh, fresh, reset]);
        assert!(stage < 1e-15, "{gate} m={unroll}: adder stage {stage:e}");
    }
    for width in [4, 32] {
        let (riding, report) = simplify(&ripple_adder(width));
        let fused = demote_sums(&riding);
        assert_eq!(fused.bootstraps(), 2 * width, "two bootstraps a bit");
        assert_eq!(report.bootstraps_after, width, "one, the sum riding");
        for unroll in [2, 3] {
            let p = analyze(&fused, &ParameterSet::MATCHA, unroll).max_failure_prob();
            assert!(p < DEFAULT_FAILURE_BUDGET, "adder{width} m={unroll}: {p:e}");
        }
    }
}

/// What a riding sum costs in failure probability at the paper's
/// parameters, pinned. A chained cell's sum — two fresh operands and the
/// previous carry — leaves with `2·v_fresh + v_bs + 2·v_br` (no key switch:
/// it is never switched), and what decides whether it rides is the client's
/// decryption of *that*: inside the `2⁻²⁰` budget at m = 2, outside it at
/// m = 3, where admission demotes the sums back to `XOR3`s (the fused form
/// certifies at both, above).
///
/// The alternative this form exists to avoid, so nobody re-derives it:
/// `L − 2·carry`, the carry's output doubled, leaves the sum with
/// `2·v_fresh + 5·v_bs`, whose decryption tail reads 7.38e-6 at m = 2 —
/// over the budget everywhere.
#[test]
fn riding_sum_bounds_at_paper_parameters() {
    let pinned = [(2, 3.75e-4, 1.76e-9), (3, 5.84e-4, 3.10e-6)];
    for (unroll, want_variance, want_tail) in pinned {
        let model = NoiseModel::new(&ParameterSet::MATCHA, unroll);
        let (fresh, reset) = (model.v_fresh(), model.v_bootstrapped());
        let variance = model.sum_variance(fresh, fresh, reset);
        assert_eq!(variance, 2.0 * fresh + reset + 2.0 * model.v_blind_rotate());
        assert!(
            (variance / want_variance - 1.0).abs() < 0.01,
            "m={unroll}: {variance:e}"
        );
        let tail = model.decrypt_failure(variance);
        assert!(
            (tail / want_tail - 1.0).abs() < 0.03,
            "m={unroll}: {tail:e}"
        );
        assert_eq!(tail > DEFAULT_FAILURE_BUDGET, unroll == 3, "m={unroll}");
        // The two extra extractions decide on the host's operands, a hair
        // closer to the boundary than the host: nowhere near the budget.
        let decisions = model.sum_failure(fresh, fresh, reset);
        let host = model.decision_failure(Gate3::Maj.desc(), &[fresh, fresh, reset]);
        assert!(
            decisions > 2.0 * host && decisions < 10.0 * host && decisions < 1e-15,
            "m={unroll}: {decisions:e} vs {host:e}"
        );
        // The dead end.
        let doubled = model.decrypt_failure(2.0 * fresh + 5.0 * reset);
        assert!(doubled > DEFAULT_FAILURE_BUDGET, "m={unroll}: {doubled:e}");
        if unroll == 2 {
            assert!((doubled / 7.38e-6 - 1.0).abs() < 0.03, "{doubled:e}");
        }
    }
    for width in [4, 32] {
        let (riding, report) = simplify(&ripple_adder(width));
        assert_eq!(report.riding, width);
        let bound = |net: &CircuitNetlist, unroll| {
            analyze(net, &ParameterSet::MATCHA, unroll).max_failure_prob()
        };
        let (at2, at3) = (bound(&riding, 2), bound(&riding, 3));
        assert!(
            at2 < DEFAULT_FAILURE_BUDGET,
            "adder{width} rides at m=2: {at2:e}"
        );
        assert!(
            at3 > DEFAULT_FAILURE_BUDGET,
            "adder{width} demotes at m=3: {at3:e}"
        );
        assert!(bound(&demote_sums(&riding), 3) < DEFAULT_FAILURE_BUDGET);
    }
}
