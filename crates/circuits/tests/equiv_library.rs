//! Formal verification of the circuit library: every shipped lowering is
//! **proven** — not sampled — equivalent to its simplified form, full
//! adders fused into three-input gates included (BDD function identity per
//! output), and to its plaintext arithmetic spec (exhaustive over all
//! input assignments). A deliberately broken rewrite — a flipped XOR, a
//! majority cone fused to the wrong gate — must be refuted with a
//! counterexample that replays, and the proofs must degrade to `Unknown`
//! (never a wrong verdict, never a blowup) under a starved budget.
//!
//! This is the suite the CI `netlist-equiv` job runs. It spends zero
//! bootstraps: everything here is plaintext static analysis, and the one
//! server it starts rejects its submission at admission.

use matcha_circuits::analysis::{library, library_specs};
use matcha_circuits::netlist::{self, NetBit, WordNetlist};
use matcha_fft::F64Fft;
use matcha_tfhe::analyze::equiv::{
    self, check_spec, check_with_words, eval_netlist, EquivBudget, Verdict,
};
use matcha_tfhe::analyze::DEFAULT_FAILURE_BUDGET;
use matcha_tfhe::circuit::{CircuitNetlist, GateOp};
use matcha_tfhe::server::{CircuitServer, RejectReason, ServerConfig};
use matcha_tfhe::{
    analyze, simplify, AnalysisPolicy, ClientKey, Gate, Gate3, ParameterSet, ServerKey,
    SimplifyReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn every_library_entry_simplifies_to_a_proven_equivalent() {
    let budget = EquivBudget::default();
    let specs = library_specs();
    for ((name, raw), (spec_name, spec)) in library().into_iter().zip(&specs) {
        assert_eq!(name, *spec_name, "library and specs must stay aligned");
        let (simplified, _) = simplify(&raw);
        let report = check_with_words(&raw, &simplified, budget, &spec.input_widths);
        assert!(
            report.is_equivalent(),
            "{name}: simplify must be sound — {report}"
        );
        assert!(
            report.nodes <= budget.max_nodes,
            "{name}: {} nodes exceed the budget",
            report.nodes
        );
    }
}

#[test]
fn every_library_entry_matches_its_plaintext_spec_on_all_inputs() {
    let budget = EquivBudget::default();
    for ((name, raw), (spec_name, spec)) in library().into_iter().zip(library_specs()) {
        assert_eq!(name, spec_name);
        let report = check_spec(&raw, &spec, budget);
        assert!(
            report.is_equivalent(),
            "{name}: lowering must compute its spec — {report}"
        );
        assert_eq!(
            report.outputs_checked,
            raw.outputs().len(),
            "{name}: every output proven"
        );
    }
}

#[test]
fn simplify_is_idempotent_on_the_whole_library() {
    for (name, raw) in library() {
        let (once, _) = simplify(&raw);
        let (twice, report) = simplify(&once);
        assert_eq!(once, twice, "{name}: simplify must be a fixpoint");
        assert_eq!(
            report.bootstraps_saved(),
            0,
            "{name}: a second pass must find nothing"
        );
    }
}

/// Bootstraps and waves of every library lowering, as lowered and as
/// `simplify` leaves it, and whether the result certifies inside the
/// default `2⁻²⁰` budget at the paper's parameters with unroll 2 and 3 (the
/// README's table). A full adder is two bootstraps where it was five and
/// one wave where it was three, wherever one occurs — in the adder, the
/// subtractor, the ALU's two chains, the multipliers' and the popcount's
/// cells — and nothing else moves. Where a cell's three operands are all
/// bootstrapped (multipliers, popcount) the fused gates' bound misses the
/// budget at unroll 3, and admission there runs the lowering as submitted.
#[test]
fn fusion_count_table() {
    let table: Vec<(&str, [usize; 4], [bool; 2])> = library()
        .iter()
        .map(|(name, raw)| {
            let (fused, report) = simplify(raw);
            assert_eq!(report.bootstraps_after, fused.bootstraps());
            let counts = [
                raw.bootstraps(),
                raw.depth(),
                fused.bootstraps(),
                fused.depth(),
            ];
            let certified = [2, 3].map(|unroll| {
                analyze(&fused, &ParameterSet::MATCHA, unroll).max_failure_prob()
                    <= DEFAULT_FAILURE_BUDGET
            });
            (*name, counts, certified)
        })
        .collect();
    assert_eq!(
        table,
        vec![
            ("adder8", [40, 17, 16, 8], [true, true]),
            ("subtractor8", [40, 17, 17, 9], [true, true]),
            ("comparator8", [15, 4, 15, 4], [true, true]),
            ("mux4x4", [24, 2, 24, 2], [true, true]),
            ("mul8", [320, 40, 197, 21], [true, false]),
            ("mul_low8", [136, 24, 100, 13], [true, false]),
            ("alu8", [138, 18, 93, 11], [true, true]),
            ("popcount16", [63, 26, 41, 15], [true, false]),
            ("shifter8", [49, 4, 49, 4], [true, true]),
            ("processor_cycle8", [138, 18, 93, 11], [true, true]),
        ]
    );
}

/// The benchmark's adder: what admission scheduled for `ripple_adder(4)`
/// when `simplify` only folded (the constant carry-in gone: 17 bootstraps
/// in 7 waves) and what it schedules now — s₀ = XOR, c₁ = AND, then one
/// XOR3 and one MAJ per bit, each bit a wave.
#[test]
fn adder4_as_admitted_is_eight_bootstraps_in_four_waves() {
    let mut w = WordNetlist::new();
    let (a, b) = (w.input_word(4), w.input_word(4));
    let (sums, carry) = w.fold_ripple_add(&a, &b, NetBit::Const(false));
    w.mark_output_word(&sums);
    w.mark_output(carry);
    let folded = w.finish();
    assert_eq!((folded.bootstraps(), folded.depth()), (17, 7));

    let lowered = netlist::ripple_adder(4);
    let (admitted, report) = simplify(&lowered);
    assert_eq!((admitted.bootstraps(), admitted.depth()), (8, 4));
    assert_eq!(report.fused, 6);
    assert!(!report.exact);
    let widths: Vec<usize> = admitted.waves().iter().map(Vec::len).collect();
    assert_eq!(widths, [2, 2, 2, 2]);
    let gates = |net: &CircuitNetlist, want: fn(&GateOp) -> bool| {
        net.ops().iter().filter(|op| want(op)).count()
    };
    assert_eq!(
        gates(&admitted, |op| matches!(
            op,
            GateOp::Ternary(Gate3::Maj, ..)
        )),
        3
    );
    assert_eq!(
        gates(&admitted, |op| matches!(
            op,
            GateOp::Ternary(Gate3::Xor3, ..)
        )),
        3
    );
    for other in [&folded, &lowered] {
        let report = equiv::check(other, &admitted, EquivBudget::default());
        assert!(report.is_equivalent(), "{report}");
    }
}

/// The subtractor adds `¬b`: every carry of its chain is a majority over a
/// negated leaf, and fuses through the free `NOT`.
#[test]
fn subtractor_chain_fuses_through_its_free_nots() {
    let (fused, _) = simplify(&netlist::ripple_subtractor(8));
    let over_a_not = fused
        .ops()
        .iter()
        .filter(|op| match **op {
            GateOp::Ternary(Gate3::Maj, a, b, c) => [a, b, c]
                .iter()
                .any(|&o| matches!(fused.ops()[o], GateOp::Not(_))),
            _ => false,
        })
        .count();
    assert_eq!(over_a_not, 7, "bits 1..8 of the chain");
}

/// A fusion pass gone wrong: `simplify`, then the first majority it fused
/// turned into a three-input XOR.
fn fuse_carry_as_parity(net: &CircuitNetlist) -> (CircuitNetlist, SimplifyReport) {
    let (fused, report) = simplify(net);
    let mut ops = fused.ops().to_vec();
    let carry = ops
        .iter_mut()
        .find(|op| matches!(op, GateOp::Ternary(Gate3::Maj, ..)))
        .expect("the netlist has a carry to break");
    if let GateOp::Ternary(_, a, b, c) = *carry {
        *carry = GateOp::Ternary(Gate3::Xor3, a, b, c);
    }
    let broken = CircuitNetlist::from_parts(ops, fused.outputs().to_vec())
        .expect("mutated netlist keeps the canonical shape");
    (broken, report)
}

#[test]
fn a_wrong_fusion_is_rejected_at_admission_with_a_counterexample() {
    let mut rng = StdRng::seed_from_u64(0xF05E);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let engine = F64Fft::new(client.params().ring_degree);
    let key = Arc::new(ServerKey::with_unrolling(&client, engine, 2, &mut rng));
    let config = ServerConfig {
        analysis: Some(AnalysisPolicy {
            require_equivalence: Some(EquivBudget::default()),
            ..AnalysisPolicy::default()
        }),
        ..ServerConfig::default()
    };
    let server = CircuitServer::start_with_rewrite(key, 1, config, fuse_carry_as_parity);
    let adder = netlist::ripple_adder(4);
    let inputs = (0..8)
        .map(|i| client.encrypt_with(i % 3 == 0, &mut rng))
        .collect();
    let ticket = server.client().submit(adder.clone(), inputs);
    match ticket.wait().reject_reason() {
        Some(RejectReason::NotEquivalent {
            output,
            counterexample,
        }) => {
            let (broken, _) = fuse_carry_as_parity(&adder);
            let want = eval_netlist(&adder, &counterexample.bits);
            let got = eval_netlist(&broken, &counterexample.bits);
            assert_ne!(want[output], got[output], "on {counterexample}");
        }
        other => panic!("expected NotEquivalent, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!((stats.rejected, stats.dispatches), (1, 0));
    server.shutdown();
}

/// Flips the first XOR of a netlist to XNOR — an unsound "rewrite" that
/// must be refuted.
fn flip_first_xor(net: &CircuitNetlist) -> CircuitNetlist {
    let mut ops = net.ops().to_vec();
    let flipped = ops.iter_mut().find_map(|op| {
        if let GateOp::Binary(Gate::Xor, a, b) = *op {
            *op = GateOp::Binary(Gate::Xnor, a, b);
            Some(())
        } else {
            None
        }
    });
    assert!(flipped.is_some(), "netlist has an XOR to break");
    CircuitNetlist::from_parts(ops, net.outputs().to_vec())
        .expect("mutated netlist keeps the canonical shape")
}

#[test]
fn broken_rewrites_are_refuted_with_replayable_counterexamples() {
    let budget = EquivBudget::default();
    let specs = library_specs();
    // Every XOR-bearing entry: break it and demand a counterexample that
    // actually distinguishes the two netlists under eager evaluation.
    for ((name, raw), (_, spec)) in library().into_iter().zip(&specs) {
        if !raw
            .ops()
            .iter()
            .any(|op| matches!(op, GateOp::Binary(Gate::Xor, _, _)))
        {
            continue;
        }
        let broken = flip_first_xor(&raw);
        let report = check_with_words(&raw, &broken, budget, &spec.input_widths);
        match report.verdict {
            Verdict::NotEquivalent {
                output,
                counterexample,
            } => {
                let want = eval_netlist(&raw, &counterexample.bits);
                let got = eval_netlist(&broken, &counterexample.bits);
                assert_ne!(
                    want[output], got[output],
                    "{name}: counterexample {counterexample} must distinguish output {output}"
                );
                // The rendering is per-input-word hex in slot order.
                assert!(
                    counterexample.to_string().starts_with("in[0]=0x"),
                    "{name}: {counterexample}"
                );
            }
            other => panic!("{name}: expected NotEquivalent, got {other:?}"),
        }
    }
}

#[test]
fn starved_budgets_degrade_to_unknown_not_wrong_verdicts() {
    let tiny = EquivBudget {
        max_nodes: 8,
        max_inputs: 64,
    };
    for (name, raw) in library() {
        let (simplified, _) = simplify(&raw);
        let report = equiv::check(&raw, &simplified, tiny);
        assert!(
            matches!(
                report.verdict,
                Verdict::Equivalent | Verdict::Unknown { .. }
            ),
            "{name}: a starved check may give up but never mis-decide: {report}"
        );
    }
    // And the input cap refuses up front.
    let narrow = EquivBudget {
        max_nodes: 1 << 20,
        max_inputs: 4,
    };
    let (_, adder) = &library()[0];
    let (simplified, _) = simplify(adder);
    assert!(
        matches!(
            equiv::check(adder, &simplified, narrow).verdict,
            Verdict::Unknown { .. }
        ),
        "16 inputs must exceed a 4-input budget"
    );
}

#[test]
fn processor_cycle_proof_fits_the_default_node_budget() {
    // The acceptance bar: the largest library entry (18 inputs, a full
    // register-file update) verifies within the default budget.
    let budget = EquivBudget::default();
    let (name, raw) = library().into_iter().last().expect("library is non-empty");
    assert_eq!(name, "processor_cycle8");
    let (simplified, _) = simplify(&raw);
    let report = equiv::check(&raw, &simplified, budget);
    assert!(report.is_equivalent(), "{name}: {report}");
    assert!(
        report.nodes < budget.max_nodes / 4,
        "{name}: {} nodes leaves headroom under the {} budget",
        report.nodes,
        budget.max_nodes
    );
}
