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

use crate::alu::AluOp;
use crate::netlist::{self, CycleInstruction};
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

/// Analyzes one netlist end to end (see [`analyze_library`]).
fn analyze_netlist(
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
            netlist::processor_cycle(2, 8, LIBRARY_CYCLE),
        ),
    ]
}

/// The plaintext arithmetic specification of every [`library`] entry, by
/// the same names and in the same order: what each lowering is *supposed*
/// to compute, as a closure over the flat input assignment (input-slot
/// order, LSB-first within each word). `matcha_tfhe::analyze::equiv`
/// proves each lowering equal to its spec on **all** inputs — the
/// word-level layer is verified against textbook arithmetic, not merely
/// against another evaluation of itself.
pub fn library_specs() -> Vec<(&'static str, Spec)> {
    vec![
        ("adder8", adder_spec(8)),
        ("subtractor8", subtractor_spec(8)),
        ("comparator8", eq_comparator_spec(8)),
        ("mux4x4", mux_tree_spec(2, 4)),
        ("mul8", mul_spec(8)),
        ("mul_low8", mul_low_spec(8)),
        ("alu8", alu_spec(8)),
        ("popcount16", popcount_spec(16)),
        ("shifter8", shl_spec(8, 4)),
        (
            "processor_cycle8",
            processor_cycle_spec(2, 8, LIBRARY_CYCLE),
        ),
    ]
}

/// The instruction shape of the library's `processor_cycle8`.
const LIBRARY_CYCLE: CycleInstruction = CycleInstruction::Alu {
    dst: 0,
    src1: 0,
    src2: 1,
};

/// A spec over words of `input_widths` bits whose output is the low
/// `output_bits` bits of `f` applied to the input words.
fn word_spec(
    input_widths: Vec<usize>,
    output_bits: usize,
    f: impl Fn(&[u128]) -> u128 + Send + Sync + 'static,
) -> Spec {
    let widths = input_widths
        .iter()
        .map(|&w| u8::try_from(w).expect("word wider than 255 bits"))
        .collect();
    Spec::new(widths, output_bits, move |bits| {
        let mut offset = 0;
        let words: Vec<u128> = input_widths
            .iter()
            .map(|&w| {
                offset += w;
                word_at(bits, offset - w, w)
            })
            .collect();
        let mut out = Vec::with_capacity(output_bits);
        push_word(&mut out, f(&words), output_bits);
        out
    })
}

/// [`netlist::ripple_adder`]`(width)`: `a`, `b` → the `width + 1`-bit sum
/// `a + b` (the sum bits, then the final carry).
pub fn adder_spec(width: usize) -> Spec {
    word_spec(vec![width, width], width + 1, |x| x[0] + x[1])
}

/// [`netlist::ripple_subtractor`]`(width)`: `a + ¬b + 1` over `width + 1`
/// bits — the difference `a − b mod 2^width`, then the carry (1 iff
/// `a ≥ b`).
pub fn subtractor_spec(width: usize) -> Spec {
    let mask = (1u128 << width) - 1;
    word_spec(vec![width, width], width + 1, move |x| {
        x[0] + (x[1] ^ mask) + 1
    })
}

/// [`netlist::eq_comparator`]`(width)`: one bit, `[a == b]`.
pub fn eq_comparator_spec(width: usize) -> Spec {
    word_spec(vec![width, width], 1, |x| u128::from(x[0] == x[1]))
}

/// [`netlist::mux_tree`]`(index_bits, width)`: an `index_bits`-bit index,
/// then `2^index_bits` words; the output is the indexed word.
pub fn mux_tree_spec(index_bits: usize, width: usize) -> Spec {
    let mut widths = vec![index_bits];
    widths.extend(std::iter::repeat_n(width, 1 << index_bits));
    word_spec(widths, width, |x| x[1 + x[0] as usize])
}

/// [`netlist::mul`]`(width)`: the full `2·width`-bit product.
pub fn mul_spec(width: usize) -> Spec {
    word_spec(vec![width, width], 2 * width, |x| x[0] * x[1])
}

/// [`netlist::mul_low`]`(width)`: the low `width` bits of the product.
pub fn mul_low_spec(width: usize) -> Spec {
    word_spec(vec![width, width], width, |x| x[0] * x[1])
}

/// The ALU's opcodes in code order (`Add=00`, `Sub=01`, `And=10`, `Xor=11`).
const ALU_OPS: [AluOp; 4] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Xor];

/// [`AluOp::eval`] of a 2-bit opcode on two `width`-bit words.
fn alu_eval(opcode: u128, a: u128, b: u128, width: usize) -> u128 {
    u128::from(ALU_OPS[opcode as usize].eval(a as u64, b as u64, width))
}

/// [`netlist::alu`]`(width)`: 2 opcode bits, then `a`, then `b`; the
/// `width`-bit result of [`AluOp::eval`].
pub fn alu_spec(width: usize) -> Spec {
    word_spec(vec![2, width, width], width, move |x| {
        alu_eval(x[0], x[1], x[2], width)
    })
}

/// [`netlist::popcount`]`(n_bits)`: the `⌈log2(n+1)⌉`-bit count of set
/// inputs.
pub fn popcount_spec(n_bits: usize) -> Spec {
    let out_width = (usize::BITS - n_bits.leading_zeros()) as usize;
    word_spec(vec![n_bits], out_width, |x| u128::from(x[0].count_ones()))
}

/// [`netlist::shl`]`(width, amount_bits)`: the amount, then the word;
/// `(a << amount) mod 2^width`, so over-shifts flush to zero.
pub fn shl_spec(width: usize, amount_bits: usize) -> Spec {
    word_spec(vec![amount_bits, width], width, |x| {
        x[1].checked_shl(x[0] as u32).unwrap_or(0)
    })
}

/// [`netlist::shr`]`(width, amount_bits)`: the amount, then the word;
/// `a >> amount`.
pub fn shr_spec(width: usize, amount_bits: usize) -> Spec {
    word_spec(vec![amount_bits, width], width, |x| {
        x[1].checked_shr(x[0] as u32).unwrap_or(0)
    })
}

/// [`netlist::processor_cycle`]`(reg_count, width, instr)`: the register
/// file, then the control bits (2 opcode bits or 1 flag); the new register
/// file in order, `r[dst]` replaced by the [`AluOp::eval`] result or the
/// flag's choice.
pub fn processor_cycle_spec(reg_count: usize, width: usize, instr: CycleInstruction) -> Spec {
    let control = match instr {
        CycleInstruction::Alu { .. } => 2,
        CycleInstruction::CMov { .. } => 1,
    };
    let mut widths = vec![width; reg_count];
    widths.push(control);
    word_spec(widths, reg_count * width, move |x| {
        let (regs, control) = x.split_at(reg_count);
        let (dst, value) = match instr {
            CycleInstruction::Alu { dst, src1, src2 } => {
                (dst, alu_eval(control[0], regs[src1], regs[src2], width))
            }
            CycleInstruction::CMov {
                dst,
                src_true,
                src_false,
            } => {
                let src = if control[0] == 1 { src_true } else { src_false };
                (dst, regs[src])
            }
        };
        (0..reg_count)
            .map(|r| {
                let reg = if r == dst { value } else { regs[r] };
                reg << (r * width)
            })
            .sum()
    })
}

/// Analyzes every [`library`] lowering end to end:
/// [`matcha_tfhe::analyze`](fn@matcha_tfhe::analyze) for
/// lints/noise/cost, [`matcha_tfhe::simplify`] for the rewrite savings,
/// and `matcha_accel::schedule` over
/// [`CircuitNetlist::schedule_skeleton`] for the makespan a
/// `pipelines`-wide pool at `gate_latency_s` per bootstrap should hit.
///
/// # Panics
///
/// Panics if `unroll` is outside `1..=8`, `pipelines == 0`, or
/// `gate_latency_s <= 0` (the underlying analyzers' bounds).
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
        // The lowerings submit no gate on a constant (the adders' carry-ins
        // are restricted away as they are built), so nothing folds; the
        // ALU's word-wise AND/XOR gates that duplicate its add chain's own
        // are shared (133 → 118). Then fusion: every full adder left — XOR,
        // XOR, AND, AND, OR over three bits — becomes XOR3 + MAJ, two
        // bootstraps for five, through the free NOTs of the subtractor's
        // inverted operand as well (adder 37 → 16 = XOR + AND + 7 × 2;
        // subtractor 38 → 16, the first borrow's three gates over two
        // leaves fused into one).
        // Then every sum rides on its carry's bootstrap, half adders
        // included (adder and subtractor 16 → 8, a cell a bit). The
        // multipliers and the popcount keep their partial products; the
        // comparator, mux tree and shifter have no majority or parity in
        // them.
        assert_eq!(
            by_name,
            vec![
                ("adder8", 37, 8),
                ("subtractor8", 38, 8),
                ("comparator8", 15, 15),
                ("mux4x4", 24, 24),
                ("mul8", 320, 147),
                ("mul_low8", 136, 84),
                ("alu8", 133, 71),
                ("popcount16", 63, 29),
                ("shifter8", 49, 49),
                ("processor_cycle8", 133, 71),
            ]
        );
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
