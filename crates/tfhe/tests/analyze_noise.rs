//! Cross-validation of the analytic noise model in [`matcha_tfhe::analyze`]
//! against the empirical [`matcha_tfhe::noise`] harness.
//!
//! The admission-time certificate is only sound if the analytic worst-case
//! variance *dominates* what real bootstraps produce. These tests measure
//! post-bootstrap and pre-key-switch noise on live ciphertexts across two
//! parameter sets and two unrolling factors and assert the model's stdev is
//! an upper bound every time (with real slack — the model charges every key
//! bit and every rounding half-step, so it should not be within a hair).

use matcha_fft::F64Fft;
use matcha_tfhe::analyze::DEFAULT_FAILURE_BUDGET;
use matcha_tfhe::noise::{bootstrap_noise, extracted_noise};
use matcha_tfhe::params::ParameterSet;
use matcha_tfhe::{
    analyze, simplify, CircuitNetlist, ClientKey, Gate, Gate3, NoiseModel, ServerKey,
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

#[test]
fn analytic_bound_dominates_empirical_bootstrap_noise() {
    for (label, params, unrolls) in cases() {
        for unroll in unrolls {
            let mut rng = StdRng::seed_from_u64(7 + unroll as u64);
            let client = ClientKey::generate(params, &mut rng);
            let engine = F64Fft::new(params.ring_degree);
            let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
            let model = NoiseModel::new(&params, unroll);

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

#[test]
fn analytic_blind_rotate_bound_dominates_extracted_noise() {
    for (label, params, unrolls) in cases() {
        for unroll in unrolls {
            let mut rng = StdRng::seed_from_u64(11 + unroll as u64);
            let client = ClientKey::generate(params, &mut rng);
            let engine = F64Fft::new(params.ring_degree);
            let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
            let model = NoiseModel::new(&params, unroll);

            let analytic = model.v_blind_rotate().sqrt();
            let empirical =
                extracted_noise(&client, server.kit(), server.engine(), 64, &mut rng).stdev;
            assert!(
                analytic >= empirical,
                "{label} unroll {unroll}: blind-rotate stdev bound {analytic:.3e} \
                 below empirical {empirical:.3e}"
            );
        }
    }
}

#[test]
fn variance_ordering_matches_the_pipeline() {
    // Sanity on the model's internal decomposition: each stage adds
    // variance, and a mux output (two blind rotates) is noisier than a
    // binary gate output (one).
    for (_, params, unrolls) in cases() {
        for unroll in unrolls {
            let model = NoiseModel::new(&params, unroll);
            assert!(model.v_blind_rotate() > 0.0);
            assert!(model.v_bootstrapped() > model.v_blind_rotate());
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
        (2, Gate3::Xor3, 4.4e-9),
        (2, Gate3::Maj, 6.4e-9),
        (3, Gate3::Xor3, 4.6e-6),
        (3, Gate3::Maj, 5.3e-6),
    ];
    for (unroll, gate, want) in pinned {
        let model = NoiseModel::new(&ParameterSet::MATCHA, unroll);
        let (fresh, reset) = (model.v_fresh(), model.v_bootstrapped());
        let p = model.gate3_failure(gate, reset, reset, reset);
        assert!((p / want - 1.0).abs() < 0.02, "{gate} m={unroll}: {p:e}");
        assert_eq!(p > DEFAULT_FAILURE_BUDGET, unroll == 3, "{gate} m={unroll}");
        let stage = model.gate3_failure(gate, fresh, fresh, reset);
        assert!(stage < 1e-15, "{gate} m={unroll}: adder stage {stage:e}");
    }
    for width in [4, 32] {
        let (fused, report) = simplify(&ripple_adder(width));
        assert_eq!(report.bootstraps_after, 2 * width, "two bootstraps a bit");
        for unroll in [2, 3] {
            let p = analyze(&fused, &ParameterSet::MATCHA, unroll).max_failure_prob();
            assert!(p < DEFAULT_FAILURE_BUDGET, "adder{width} m={unroll}: {p:e}");
        }
    }
}
