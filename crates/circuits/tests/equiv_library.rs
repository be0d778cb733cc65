//! Formal verification of the circuit library: every shipped lowering is
//! **proven** — not sampled — equivalent to its simplified form, full
//! adders fused into three-input gates and sums riding on their carries
//! included (BDD function identity per output), and to its plaintext
//! arithmetic spec (exhaustive over all input assignments) — at the
//! library's shapes and, in a width sweep, at every shape the word-level
//! functions that run these lowerings are tested at, where it must also
//! leave `simplify` no constant to fold. A deliberately
//! broken rewrite — a flipped XOR, a majority cone fused to the wrong gate,
//! a sum riding on the wrong carry — must be refuted with a counterexample
//! that replays, and the proofs must degrade to `Unknown` (never a wrong
//! verdict, never a blowup) under a starved budget.
//!
//! This is the suite the CI `netlist-equiv` job runs. All but one test
//! spend zero bootstraps — plaintext static analysis, and `server::admit`
//! called without keys; the admission ladder's runs the 4-bit adder six
//! times at test parameters.

use matcha_circuits::analysis::{
    adder_spec, alu_spec, eq_comparator_spec, library, library_specs, mul_low_spec, mul_spec,
    mux_tree_spec, popcount_spec, processor_cycle_spec, shl_spec, shr_spec, subtractor_spec,
};
use matcha_circuits::netlist::{self, CycleInstruction};
use matcha_fft::F64Fft;
use matcha_tfhe::analyze::equiv::{
    self, check_spec, check_with_words, eval_netlist, EquivBudget, Spec, Verdict,
};
use matcha_tfhe::analyze::DEFAULT_FAILURE_BUDGET;
use matcha_tfhe::circuit::{CircuitNetlist, GateOp};
use matcha_tfhe::server::{admit, CircuitServer, RejectReason, Rung, ServerConfig};
use matcha_tfhe::{
    analyze, demote_sums, lint, simplify, AnalysisPolicy, ClientKey, Gate, Gate3, LintKind,
    NoiseModel, ParameterSet, ServerKey,
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

/// Proves `net` computes `spec` on every input assignment, every output,
/// and that it submits no gate on a constant: nothing for `simplify` to
/// fold, nothing for `lint` to call foldable.
fn prove(name: &str, net: &CircuitNetlist, spec: &Spec) {
    let report = check_spec(net, spec, EquivBudget::default());
    assert!(
        report.is_equivalent(),
        "{name}: lowering must compute its spec — {report}"
    );
    assert_eq!(
        report.outputs_checked,
        net.outputs().len(),
        "{name}: every output proven"
    );
    let foldable = lint(net)
        .into_iter()
        .find(|l| l.kind == LintKind::ConstantFoldable);
    assert_eq!(foldable, None, "{name}: a gate on a constant");
    assert_eq!(simplify(net).1.folded_constants, 0, "{name}: folds");
}

#[test]
fn every_library_entry_matches_its_plaintext_spec_on_all_inputs() {
    for ((name, raw), (spec_name, spec)) in library().into_iter().zip(library_specs()) {
        assert_eq!(name, spec_name);
        prove(name, &raw, &spec);
    }
}

// The width sweep. The word-level functions (`adder::add`, `alu::execute`,
// `Processor::step`, …) run these lowerings, so these proofs are their
// reference: each lowering against its width-parameterised plaintext spec,
// and free of constant operands, at every shape the word-level tests run,
// with no bootstraps spent.

#[test]
fn arithmetic_lowerings_match_their_specs_at_widths_1_to_5() {
    for w in 1..=5 {
        prove("ripple_adder", &netlist::ripple_adder(w), &adder_spec(w));
        let subtractor = netlist::ripple_subtractor(w);
        prove("ripple_subtractor", &subtractor, &subtractor_spec(w));
        prove(
            "eq_comparator",
            &netlist::eq_comparator(w),
            &eq_comparator_spec(w),
        );
        prove("alu", &netlist::alu(w), &alu_spec(w));
        prove("mul", &netlist::mul(w), &mul_spec(w));
        prove("mul_low", &netlist::mul_low(w), &mul_low_spec(w));
    }
}

#[test]
fn popcount_shifter_and_mux_lowerings_match_their_specs() {
    for n in 1..=8 {
        prove("popcount", &netlist::popcount(n), &popcount_spec(n));
    }
    for w in 1..=4 {
        for k in 1..=3 {
            prove("shl", &netlist::shl(w, k), &shl_spec(w, k));
            prove("shr", &netlist::shr(w, k), &shr_spec(w, k));
        }
    }
    for k in 1..=2 {
        for w in 1..=3 {
            prove("mux_tree", &netlist::mux_tree(k, w), &mux_tree_spec(k, w));
        }
    }
}

#[test]
fn processor_cycles_match_their_specs_in_both_forms() {
    for regs in 2..=3 {
        for w in 1..=4 {
            // Every (dst, x, y) register routing, aliased ones included.
            for code in 0..regs * regs * regs {
                let (dst, x, y) = (code % regs, code / regs % regs, code / (regs * regs));
                let alu = CycleInstruction::Alu {
                    dst,
                    src1: x,
                    src2: y,
                };
                let cmov = CycleInstruction::CMov {
                    dst,
                    src_true: x,
                    src_false: y,
                };
                for instr in [alu, cmov] {
                    let net = netlist::processor_cycle(regs, w, instr);
                    let spec = processor_cycle_spec(regs, w, instr);
                    prove(&format!("{instr:?} over {regs}×{w}"), &net, &spec);
                }
            }
        }
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

/// Bootstraps and waves of every library lowering as lowered (constant
/// carry-ins restricted away: the adder's first position is its XOR and
/// AND, the subtractor's its XOR, AND and their OR) and as the fusion stage of
/// `simplify` leaves it (`demote_sums` of the result: full adders as
/// `XOR3` + `MAJ`, two-leaf cones as one gate), bootstraps with
/// every sum riding on its carry's bootstrap (the waves are the fused
/// form's), and the rung [`admit`] takes inside the default `2⁻²⁰` budget
/// at the paper's parameters with unroll 2 and 3 (the README's table:
/// riding, fused, as submitted after a refusal, or rejected). A full adder
/// is one bootstrap where it was five and
/// one wave where it was three, wherever one occurs — in the adder, the
/// subtractor, the ALU's two chains, the multipliers' and the popcount's
/// cells; the two-leaf cuts took the subtractor's and the ALU's first
/// borrow from two gates to one; nothing else moves. A riding sum keeps
/// its operands' noise, so where it feeds the next row's cells
/// (multipliers, popcount) the whole netlist demotes even at unroll 2, and
/// a sum with a carry among its operands misses the budget at unroll 3,
/// where the adders run fused.
/// Where a cell's three operands are all bootstrapped the fused gates'
/// bound misses it there too and admission runs the lowering as submitted
/// — `mul8`'s own 320 decisions are over it before any rewrite.
#[test]
fn fusion_count_table() {
    let policy = AnalysisPolicy {
        require_equivalence: Some(EquivBudget::default()),
        ..AnalysisPolicy::default()
    };
    let table: Vec<_> = library()
        .iter()
        .map(|(name, raw)| {
            let (riding, report) = simplify(raw);
            assert_eq!(report.bootstraps_after, riding.bootstraps());
            let fused = demote_sums(&riding);
            assert_eq!(report.riding, fused.bootstraps() - riding.bootstraps());
            assert_eq!(riding.depth(), fused.depth(), "{name}: a sum is no wave");
            let demoted = equiv::check(&riding, &fused, EquivBudget::default());
            assert!(demoted.is_equivalent(), "{name}: {demoted}");
            let counts = [
                raw.bootstraps(),
                raw.depth(),
                fused.bootstraps(),
                fused.depth(),
                riding.bootstraps(),
            ];
            let rung = [2, 3].map(|unroll| {
                let model = NoiseModel::new(&ParameterSet::MATCHA, unroll);
                match admit(raw.clone(), &model, &policy, |n| simplify(n).0) {
                    Ok(admitted) => Some(admitted.rung),
                    Err(RejectReason::NoiseBudget { .. }) => None,
                    Err(other) => panic!("{name} at m = {unroll}: {other}"),
                }
            });
            (*name, counts, rung)
        })
        .collect();
    let [riding, fused] = [Rung::Rewritten, Rung::SumsDemoted].map(Some);
    let (submitted, rejected) = (Some(Rung::Refused { demoted: true }), None);
    assert_eq!(
        table,
        vec![
            ("adder8", [37, 15, 16, 8, 8], [riding, fused]),
            ("subtractor8", [38, 16, 16, 8, 8], [riding, fused]),
            ("comparator8", [15, 4, 15, 4, 15], [riding, riding]),
            ("mux4x4", [24, 2, 24, 2, 24], [riding, riding]),
            ("mul8", [320, 40, 197, 21, 147], [fused, rejected]),
            ("mul_low8", [136, 24, 100, 13, 84], [fused, submitted]),
            ("alu8", [133, 17, 91, 10, 71], [riding, fused]),
            ("popcount16", [63, 26, 41, 15, 29], [fused, submitted]),
            ("shifter8", [49, 4, 49, 4, 49], [riding, riding]),
            ("processor_cycle8", [133, 17, 91, 10, 71], [riding, fused]),
        ]
    );
}

/// The benchmark's adder: `ripple_adder(4)` as submitted (its constant
/// carry-in restricted away as it is built: 17 bootstraps in 7 waves),
/// fused (s₀ = XOR, c₁ = AND, then one XOR3 and one MAJ per bit: 8 in 4
/// waves of two) and as admission schedules it — one cell per bit, the
/// first with a constant carry-in, each bit a wave of one.
#[test]
fn adder4_as_admitted_is_four_bootstraps_in_four_waves() {
    let lowered = netlist::ripple_adder(4);
    assert_eq!((lowered.bootstraps(), lowered.depth()), (17, 7));
    let (admitted, report) = simplify(&lowered);
    assert_eq!((admitted.bootstraps(), admitted.depth()), (4, 4));
    assert_eq!((report.fused, report.riding), (6, 4));
    assert!(!report.exact);
    let widths = |net: &CircuitNetlist| net.waves().iter().map(Vec::len).collect::<Vec<_>>();
    assert_eq!(widths(&admitted), [1, 1, 1, 1]);
    let gates = |net: &CircuitNetlist, want: fn(&GateOp) -> bool| {
        net.ops().iter().filter(|op| want(op)).count()
    };
    let majorities = |op: &GateOp| matches!(op, GateOp::Ternary(Gate3::Maj, ..));
    assert_eq!(gates(&admitted, majorities), 4);
    assert_eq!(gates(&admitted, |op| matches!(op, GateOp::Sum(..))), 4);
    assert_eq!(
        gates(&admitted, |op| op.bootstraps() > 0),
        4,
        "nothing else"
    );
    // Every sum is an output, every majority hosts one.
    for (id, op) in admitted.ops().iter().enumerate() {
        if majorities(op) {
            let sum = admitted.rider_of(id).expect("a cell");
            assert!(admitted.outputs().contains(&sum));
        }
    }
    // One rung down the ladder: the fused form, two lanes a wave.
    let fused = demote_sums(&admitted);
    assert_eq!((fused.bootstraps(), fused.depth()), (8, 4));
    assert_eq!(widths(&fused), [2, 2, 2, 2]);
    for other in [&lowered, &fused] {
        let report = equiv::check(other, &admitted, EquivBudget::default());
        assert!(report.is_equivalent(), "{report}");
    }
}

/// The subtractor adds `¬b`: every carry of its chain is a majority over a
/// negated leaf — the first, `a₀ ∨ ¬b₀` with the carry-in `true` folded in,
/// the two-leaf cell over `(a₀, ¬b₀, true)` — and fuses through the free
/// `NOT`; every difference bit rides on it.
#[test]
fn subtractor_chain_fuses_through_its_free_nots() {
    let lowered = netlist::ripple_subtractor(8);
    let (fused, report) = simplify(&lowered);
    let hosts: Vec<usize> = (0..fused.len())
        .filter(|&id| fused.rider_of(id).is_some())
        .collect();
    let over_a_not = hosts
        .iter()
        .filter(|&&id| {
            let operands = fused.ops()[id].operands().into_iter().flatten();
            operands
                .filter(|&o| matches!(fused.ops()[o], GateOp::Not(_)))
                .count()
                == 1
        })
        .count();
    assert_eq!((hosts.len(), over_a_not), (8, 8), "bits 0..8 of the chain");
    assert_eq!(
        (report.riding, fused.bootstraps(), fused.depth()),
        (8, 8, 8)
    );
    assert!(matches!(
        fused.ops()[hosts[0]],
        GateOp::Ternary(Gate3::Maj, _, _, k) if fused.ops()[k] == GateOp::Constant(true)
    ));
    let report = equiv::check(&lowered, &fused, EquivBudget::default());
    assert!(report.is_equivalent(), "{report}");
}

/// A pairing pass gone wrong: `simplify`, its sums demoted, then the
/// second cell's parity riding on the *first* cell's majority — a valid
/// netlist (the host is there, and free), and the wrong function.
fn ride_on_the_wrong_carry(net: &CircuitNetlist) -> CircuitNetlist {
    let (riding, _) = simplify(net);
    let mut ops = demote_sums(&riding).ops().to_vec();
    let leaves = |op: &GateOp| {
        let mut operands = op.operands();
        operands.sort_unstable();
        operands
    };
    let host = ops
        .iter()
        .position(|op| matches!(op, GateOp::Ternary(Gate3::Maj, ..)))
        .expect("the netlist has a carry");
    let parity = (host..ops.len())
        .find(|&id| {
            matches!(ops[id], GateOp::Ternary(Gate3::Xor3, ..))
                && leaves(&ops[id]) != leaves(&ops[host])
        })
        .expect("and a later cell's sum");
    let GateOp::Ternary(_, a, b, c) = ops[host] else {
        unreachable!("a majority");
    };
    ops[parity] = GateOp::Sum(a, b, c);
    CircuitNetlist::from_parts(ops, riding.outputs().to_vec())
        .expect("a sum over a free majority's operands is a valid netlist")
}

#[test]
fn a_sum_without_its_host_is_no_netlist_and_one_on_the_wrong_host_is_refuted() {
    // No majority over the three nodes: not a netlist at all.
    let (riding, _) = simplify(&netlist::ripple_adder(4));
    let mut ops = riding.ops().to_vec();
    ops.push(GateOp::Sum(0, 1, 2));
    let err = CircuitNetlist::from_parts(ops.clone(), riding.outputs().to_vec())
        .expect_err("inputs 0, 1, 2 have no majority over them");
    assert!(err.contains("no majority"), "{err}");
    // A second sum on a majority that carries one already: neither.
    let taken = riding
        .ops()
        .iter()
        .find(|op| matches!(op, GateOp::Sum(..)))
        .expect("the adder rides");
    *ops.last_mut().expect("just pushed") = *taken;
    let err =
        CircuitNetlist::from_parts(ops, riding.outputs().to_vec()).expect_err("one rider a host");
    assert!(err.contains("already carries"), "{err}");

    // On a majority over other leaves: a netlist, and not this adder.
    let adder = netlist::ripple_adder(4);
    let broken = ride_on_the_wrong_carry(&adder);
    assert_eq!(broken.bootstraps(), 7, "it would even be cheaper");
    match equiv::check(&adder, &broken, EquivBudget::default()).verdict {
        Verdict::NotEquivalent {
            output,
            counterexample,
        } => {
            let want = eval_netlist(&adder, &counterexample.bits);
            let got = eval_netlist(&broken, &counterexample.bits);
            assert_ne!(want[output], got[output], "on {counterexample}");
        }
        other => panic!("expected NotEquivalent, got {other:?}"),
    }
}

/// The ladder `server::admit` walks, on the benchmark's adder: the default
/// budget runs the four cells; a budget between the riding netlist's bound
/// and the other two's runs the eight fused gates, its sums demoted — each
/// step counted, every sum decrypting. *This* netlist has no rung where
/// the seventeen gates run as submitted: on fresh operands they bound worse
/// than the fused eight (their AND/OR decisions read two bootstrapped
/// values where a fused gate reads one), so a budget the fused form misses
/// turns the submission away before any rewrite is tried; that rung is
/// `server::tests::rewrite_over_the_noise_budget…`, on a multiplier's cell.
#[test]
fn admission_runs_the_adder_riding_or_demoted_by_its_budget() {
    // Ring noise large enough for blind rotation to be what the bounds
    // are made of, as at the paper's parameters (`TEST_FAST`'s underflow
    // to zero), small enough to decrypt.
    let params = ParameterSet {
        lwe_noise_stdev: 1e-5,
        ring_noise_stdev: 3e-7,
        ..ParameterSet::TEST_FAST
    };
    let mut rng = StdRng::seed_from_u64(0x1ADDE2);
    let client = ClientKey::generate(params, &mut rng);
    let engine = F64Fft::new(params.ring_degree);
    let key = Arc::new(ServerKey::new(&client, engine, &mut rng));
    let adder = netlist::ripple_adder(4);
    let (riding, _) = simplify(&adder);
    let fused = demote_sums(&riding);
    let [as_submitted, as_fused, as_riding] =
        [&adder, &fused, &riding].map(|net| analyze(net, &params, 1).max_failure_prob());
    assert!(
        0.0 < as_fused && as_fused < as_submitted && as_submitted * 1e3 < as_riding,
        "{as_fused:e} {as_submitted:e} {as_riding:e}"
    );
    assert!(as_riding < DEFAULT_FAILURE_BUDGET);
    let config = |budget| ServerConfig {
        analysis: Some(AnalysisPolicy {
            max_failure_prob: budget,
            require_equivalence: Some(EquivBudget::default()),
            ..AnalysisPolicy::default()
        }),
        ..ServerConfig::default()
    };
    let mut encrypt = |x: u8, y: u8| {
        let bits = (0..8).map(|i| if i < 4 { x >> i } else { y >> (i - 4) } & 1 == 1);
        bits.map(|bit| client.encrypt_with(bit, &mut rng)).collect()
    };
    let between = (as_submitted * as_riding).sqrt();
    for (budget, ran, demoted) in [(between, 8, 1), (DEFAULT_FAILURE_BUDGET, 4, 0)] {
        let server = CircuitServer::start_with(Arc::clone(&key), 1, config(budget));
        for (x, y) in [(15u8, 15u8), (9, 6), (5, 3)] {
            let run = server
                .client()
                .submit(adder.clone(), encrypt(x, y))
                .wait()
                .completed()
                .expect("inside the budget");
            assert_eq!((run.bootstraps, run.waves), (ran, 4));
            let sum = (0..5).fold(0u8, |sum, i| {
                sum | u8::from(client.decrypt(&run.outputs[i])) << i
            });
            assert_eq!(sum, x + y, "{x} + {y} on {ran} bootstraps");
        }
        let stats = server.stats();
        assert_eq!(
            (stats.completed, stats.sums_demoted, stats.rewrites_refused),
            (3, 3 * demoted, 0),
            "budget {budget:e}"
        );
        server.shutdown();
    }
    // Below the fused form's bound the submission is over budget itself.
    let server = CircuitServer::start_with(Arc::clone(&key), 1, config(as_fused / 2.0));
    let ticket = server.client().submit(adder.clone(), encrypt(1, 2));
    assert!(matches!(
        ticket.wait().reject_reason(),
        Some(RejectReason::NoiseBudget { .. })
    ));
    assert_eq!(server.stats().dispatches, 0);
    server.shutdown();
}

/// A fusion pass gone wrong: `simplify` (its sums demoted: a majority that
/// hosts one could not change), then the first majority it fused turned
/// into a three-input XOR.
fn fuse_carry_as_parity(net: &CircuitNetlist) -> CircuitNetlist {
    let (riding, _) = simplify(net);
    let fused = demote_sums(&riding);
    let mut ops = fused.ops().to_vec();
    let carry = ops
        .iter_mut()
        .find(|op| matches!(op, GateOp::Ternary(Gate3::Maj, ..)))
        .expect("the netlist has a carry to break");
    if let GateOp::Ternary(_, a, b, c) = *carry {
        *carry = GateOp::Ternary(Gate3::Xor3, a, b, c);
    }
    CircuitNetlist::from_parts(ops, fused.outputs().to_vec())
        .expect("mutated netlist keeps the canonical shape")
}

#[test]
fn a_wrong_fusion_is_rejected_at_admission_with_a_counterexample() {
    let policy = AnalysisPolicy {
        require_equivalence: Some(EquivBudget::default()),
        ..AnalysisPolicy::default()
    };
    let model = NoiseModel::new(&ParameterSet::TEST_FAST, 2);
    let adder = netlist::ripple_adder(4);
    for pass in [fuse_carry_as_parity, ride_on_the_wrong_carry] {
        match admit(adder.clone(), &model, &policy, pass) {
            Err(RejectReason::NotEquivalent {
                output,
                counterexample,
            }) => {
                let broken = pass(&adder);
                let want = eval_netlist(&adder, &counterexample.bits);
                let got = eval_netlist(&broken, &counterexample.bits);
                assert_ne!(want[output], got[output], "on {counterexample}");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }
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
