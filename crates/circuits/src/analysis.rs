//! The static-analysis driver for the circuit library: runs
//! `matcha_tfhe::analyze` over every shipped lowering and bridges the
//! cost section to `matcha_accel::schedule`'s list scheduler for a
//! predicted makespan — the pre-execution certificate (lints, noise
//! bounds, priority ranks, latency estimate) for a whole netlist, with
//! zero bootstraps spent.
//!
//! The CI `netlist-lint` job runs [`analyze_library`] (via the
//! `netlist_lint` example) and fails on any `Error`-severity finding, so
//! every lowering the crate ships stays admissible under the default
//! [`AnalysisPolicy`](matcha_tfhe::AnalysisPolicy).

use crate::netlist;
use matcha_accel::schedule::{self, ScheduleResult};
use matcha_tfhe::analyze::equiv::{push_word, word_at, Spec};
use matcha_tfhe::circuit::CircuitNetlist;
use matcha_tfhe::params::ParameterSet;
use matcha_tfhe::{analyze, simplify, NetlistReport, SimplifyReport};

/// The full pre-execution certificate for one lowering.
#[derive(Clone, Debug)]
pub struct CircuitAnalysis {
    /// Which lowering this is (e.g. `"adder8"`).
    pub name: &'static str,
    /// Lints, per-output noise certificates, and cost ranks.
    pub report: NetlistReport,
    /// What [`matcha_tfhe::simplify`] would save on this netlist.
    pub simplified: SimplifyReport,
    /// List-scheduled latency prediction over the bootstrap-unit skeleton.
    pub predicted: ScheduleResult,
}

/// Analyzes one netlist end to end: [`matcha_tfhe::analyze`] for
/// lints/noise/cost, [`matcha_tfhe::simplify`] for the rewrite savings,
/// and `matcha_accel::schedule` over
/// [`CircuitNetlist::schedule_skeleton`] for the makespan a
/// `pipelines`-wide pool at `gate_latency_s` per bootstrap should hit.
///
/// # Panics
///
/// Panics if `unroll` is outside `1..=8`, `pipelines == 0`, or
/// `gate_latency_s <= 0` (the underlying analyzers' bounds).
pub fn analyze_netlist(
    name: &'static str,
    net: &CircuitNetlist,
    params: &ParameterSet,
    unroll: usize,
    pipelines: usize,
    gate_latency_s: f64,
) -> CircuitAnalysis {
    let report = analyze(net, params, unroll);
    let (_, simplified) = simplify(net);
    let dag = schedule::Netlist::from_deps(&net.schedule_skeleton());
    let predicted = schedule::schedule(&dag, pipelines, gate_latency_s);
    debug_assert_eq!(
        report.cost.critical_path_units,
        dag.critical_path(),
        "analyze and accel::schedule must agree on the critical path"
    );
    CircuitAnalysis {
        name,
        report,
        simplified,
        predicted,
    }
}

/// The shipped library lowerings, by name — the set the CI lint job and
/// the bench rows cover.
pub fn library() -> Vec<(&'static str, CircuitNetlist)> {
    vec![
        ("adder8", netlist::ripple_adder(8)),
        ("subtractor8", netlist::ripple_subtractor(8)),
        ("comparator8", netlist::eq_comparator(8)),
        ("mux4x4", netlist::mux_tree(2, 4)),
        ("mul8", netlist::mul(8)),
        ("mul_low8", netlist::mul_low(8)),
        ("alu8", netlist::alu(8)),
        ("popcount16", netlist::popcount(16)),
        ("shifter8", netlist::shl(8, 4)),
        (
            "processor_cycle8",
            netlist::processor_cycle(
                2,
                8,
                netlist::CycleInstruction::Alu {
                    dst: 0,
                    src1: 0,
                    src2: 1,
                },
            ),
        ),
    ]
}

/// The plaintext arithmetic specification of every [`library`] entry, by
/// the same names and in the same order: what each lowering is *supposed*
/// to compute, as a closure over the flat input assignment (input-slot
/// order, LSB-first within each word). `matcha_tfhe::analyze::equiv`
/// proves each lowering equal to its spec on **all** inputs — the
/// word-level layer is verified against textbook arithmetic, not merely
/// against its own eager evaluation.
pub fn library_specs() -> Vec<(&'static str, Spec)> {
    vec![
        // ripple_adder(8): a(8), b(8) → the 9-bit sum a + b
        // (8 sum bits then the final carry).
        (
            "adder8",
            Spec::new(vec![8, 8], 9, |bits| {
                let (a, b) = (word_at(bits, 0, 8), word_at(bits, 8, 8));
                let mut out = Vec::new();
                push_word(&mut out, a + b, 9);
                out
            }),
        ),
        // ripple_subtractor(8): a + ¬b + 1 — 8 difference bits
        // (a − b mod 2⁸) then the carry (1 iff a ≥ b).
        (
            "subtractor8",
            Spec::new(vec![8, 8], 9, |bits| {
                let (a, b) = (word_at(bits, 0, 8), word_at(bits, 8, 8));
                let mut out = Vec::new();
                push_word(&mut out, a + (b ^ 0xff) + 1, 9);
                out
            }),
        ),
        // eq_comparator(8): one bit, [a == b].
        (
            "comparator8",
            Spec::new(vec![8, 8], 1, |bits| {
                vec![word_at(bits, 0, 8) == word_at(bits, 8, 8)]
            }),
        ),
        // mux_tree(2, 4): a 2-bit index (LSB-first) then four 4-bit
        // words; the output is words[index].
        (
            "mux4x4",
            Spec::new(vec![2, 4, 4, 4, 4], 4, |bits| {
                let index = word_at(bits, 0, 2) as usize;
                bits[2 + 4 * index..2 + 4 * index + 4].to_vec()
            }),
        ),
        // mul(8): the full 16-bit product.
        (
            "mul8",
            Spec::new(vec![8, 8], 16, |bits| {
                let (a, b) = (word_at(bits, 0, 8), word_at(bits, 8, 8));
                let mut out = Vec::new();
                push_word(&mut out, a * b, 16);
                out
            }),
        ),
        // mul_low(8): the low 8 bits of the product.
        (
            "mul_low8",
            Spec::new(vec![8, 8], 8, |bits| {
                let (a, b) = (word_at(bits, 0, 8), word_at(bits, 8, 8));
                let mut out = Vec::new();
                push_word(&mut out, a * b, 8);
                out
            }),
        ),
        // alu(8): 2 opcode bits (LSB-first: 0 add, 1 sub, 2 and, 3 xor)
        // then a(8) then b(8); 8 result bits, add/sub mod 2⁸.
        (
            "alu8",
            Spec::new(vec![2, 8, 8], 8, |bits| {
                let op = word_at(bits, 0, 2);
                let (a, b) = (word_at(bits, 2, 8), word_at(bits, 10, 8));
                let r = match op {
                    0 => a + b,
                    1 => a + (b ^ 0xff) + 1,
                    2 => a & b,
                    _ => a ^ b,
                };
                let mut out = Vec::new();
                push_word(&mut out, r, 8);
                out
            }),
        ),
        // popcount(16): the 5-bit count of set inputs, LSB-first.
        (
            "popcount16",
            Spec::new(vec![16], 5, |bits| {
                let count = bits.iter().filter(|&&b| b).count() as u128;
                let mut out = Vec::new();
                push_word(&mut out, count, 5);
                out
            }),
        ),
        // shl(8, 4): 4 amount bits (LSB-first) then the 8-bit word;
        // (a << amount) mod 2⁸, so over-shifts flush to zero.
        (
            "shifter8",
            Spec::new(vec![4, 8], 8, |bits| {
                let amount = word_at(bits, 0, 4) as u32;
                let a = word_at(bits, 4, 8);
                let mut out = Vec::new();
                push_word(&mut out, a << amount, 8);
                out
            }),
        ),
        // processor_cycle(2, 8, Alu{dst:0, src1:0, src2:1}): r0(8),
        // r1(8), then 2 opcode bits; the new register file in order —
        // r0' = alu(op, r0, r1), r1' passes through.
        (
            "processor_cycle8",
            Spec::new(vec![8, 8, 2], 16, |bits| {
                let (r0, r1) = (word_at(bits, 0, 8), word_at(bits, 8, 8));
                let op = word_at(bits, 16, 2);
                let alu = match op {
                    0 => r0 + r1,
                    1 => r0 + (r1 ^ 0xff) + 1,
                    2 => r0 & r1,
                    _ => r0 ^ r1,
                };
                let mut out = Vec::new();
                push_word(&mut out, alu, 8);
                push_word(&mut out, r1, 8);
                out
            }),
        ),
    ]
}

/// Runs [`analyze_netlist`] over the whole [`library`].
pub fn analyze_library(
    params: &ParameterSet,
    unroll: usize,
    pipelines: usize,
    gate_latency_s: f64,
) -> Vec<CircuitAnalysis> {
    library()
        .iter()
        .map(|(name, net)| analyze_netlist(name, net, params, unroll, pipelines, gate_latency_s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_tfhe::Severity;

    #[test]
    fn every_lowering_is_lint_clean_at_error_severity() {
        for a in analyze_library(&ParameterSet::MATCHA, 2, 4, 1.0) {
            assert!(
                a.report.is_clean(Severity::Error),
                "{}: {:?}",
                a.name,
                a.report.lints
            );
        }
    }

    #[test]
    fn ranks_are_consistent_with_the_accel_list_scheduler() {
        for (name, net) in library() {
            let skeleton = net.schedule_skeleton();
            let dag = schedule::Netlist::from_deps(&skeleton);
            let report = analyze(&net, &ParameterSet::MATCHA, 2);
            assert_eq!(
                report.cost.critical_path_units,
                dag.critical_path(),
                "{name}"
            );
            assert_eq!(
                report.cost.node_ranks.iter().copied().max().unwrap_or(0),
                dag.ranks().iter().copied().max().unwrap_or(0),
                "{name}"
            );
            assert_eq!(report.cost.bootstraps, dag.len(), "{name}");
        }
    }

    #[test]
    fn predicted_makespan_respects_the_classic_bounds() {
        for a in analyze_library(&ParameterSet::MATCHA, 2, 4, 1.0) {
            let cp = a.report.cost.critical_path_units as f64;
            let work = a.report.cost.bootstraps as f64 / 4.0;
            assert!(a.predicted.makespan_s >= cp.max(work) - 1e-9, "{}", a.name);
            assert!(
                a.predicted.makespan_s <= a.report.cost.bootstraps as f64 + 1e-9,
                "{}",
                a.name
            );
        }
    }

    #[test]
    fn simplify_savings_match_the_const_carry_folds() {
        let by_name: Vec<(&str, usize, usize)> = analyze_library(&ParameterSet::MATCHA, 2, 4, 1.0)
            .iter()
            .map(|a| {
                (
                    a.name,
                    a.simplified.bootstraps_before,
                    a.simplified.bootstraps_after,
                )
            })
            .collect();
        // Folding first: the constant carry-in of the first full adder
        // folds (the adder 40 → 37, the subtractor's true carry-in 40 → 38),
        // and the ALU's two chains lose their constant carry-ins and the
        // word-wise AND/XOR gates that duplicate the add chain's own
        // (138 → 118). Then fusion: every full adder left — XOR, XOR, AND,
        // AND, OR over three bits — becomes XOR3 + MAJ, two bootstraps for
        // five, through the free NOTs of the subtractor's inverted operand
        // as well (adder 37 → 16 = XOR + AND + 7 × 2; subtractor 38 → 16,
        // the first borrow's three gates over two leaves fused into one).
        // Then every sum rides on its carry's bootstrap, half adders
        // included (adder and subtractor 16 → 8, a cell a bit). The
        // multipliers and the popcount keep their partial products; the
        // comparator, mux tree and shifter have no majority or parity in
        // them.
        assert_eq!(
            by_name,
            vec![
                ("adder8", 40, 8),
                ("subtractor8", 40, 8),
                ("comparator8", 15, 15),
                ("mux4x4", 24, 24),
                ("mul8", 320, 147),
                ("mul_low8", 136, 84),
                ("alu8", 138, 71),
                ("popcount16", 63, 29),
                ("shifter8", 49, 49),
                ("processor_cycle8", 138, 71),
            ]
        );
    }

    #[test]
    fn multiplier_lowering_skips_what_the_simplifier_would_fold() {
        use crate::netlist::{NetBit, NetWord, WordNetlist};
        use matcha_tfhe::Gate;

        // The naive schoolbook lowering: zero-extend every partial
        // product to 2·width and push it through a full-width raw ripple
        // chain, trivial zeros and all (the pre-refactor eager shape,
        // with its dropped final carries).
        let width = 8;
        let out_width = 2 * width;
        let mut w = WordNetlist::new();
        let a = w.input_word(width);
        let b = w.input_word(width);
        let mut acc = NetWord::from_bits(
            (0..out_width)
                .map(|i| {
                    if i < width {
                        w.gate(Gate::And, a[i], b[0])
                    } else {
                        NetBit::Const(false)
                    }
                })
                .collect(),
        );
        for j in 1..width {
            let partial = NetWord::from_bits(
                (0..out_width)
                    .map(|i| {
                        if i >= j && i - j < width {
                            w.gate(Gate::And, a[i - j], b[j])
                        } else {
                            NetBit::Const(false)
                        }
                    })
                    .collect(),
            );
            let (sums, _dropped_carry) = w.ripple_add(&acc, &partial, NetBit::Const(false));
            acc = sums;
        }
        w.mark_output_word(&acc);
        let naive = w.finish();

        // 64 partial-product ANDs + 7 full-width ripple adds.
        assert_eq!(naive.bootstraps(), 64 + 7 * 5 * 16);
        let (_, naive_report) = simplify(&naive);
        assert!(
            naive_report.bootstraps_after < naive_report.bootstraps_before,
            "the simplifier must fold the trivial-zero columns"
        );
        assert!(
            !naive_report.exact,
            "folding bootstrapped gates on constants is not bit-exact"
        );

        // The shipped lowering skips those columns at build time instead:
        // the simplifier finds nothing to fold or share in it — only adder
        // cells to fuse — and ends no higher than where it gets from the
        // naive netlist.
        let shipped = netlist::mul(8);
        let (_, report) = simplify(&shipped);
        assert_eq!(report.bootstraps_before, 320);
        assert_eq!((report.folded_constants, report.deduplicated), (0, 0));
        assert!(report.bootstraps_after <= naive_report.bootstraps_after);
    }

    #[test]
    fn noise_certificates_pass_the_default_budget_at_paper_params() {
        for unroll in [1, 2] {
            for a in analyze_library(&ParameterSet::MATCHA, unroll, 4, 1.0) {
                let p = a.report.max_failure_prob();
                assert!(
                    p < matcha_tfhe::analyze::DEFAULT_FAILURE_BUDGET,
                    "{} at unroll {unroll}: bound {p}",
                    a.name
                );
                assert!(p > 0.0, "{}: MATCHA noise is not literally zero", a.name);
            }
        }
    }
}
