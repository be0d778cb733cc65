//! Static analysis of executable netlists: structural lints, a safe
//! simplification rewriter and analytic worst-case noise certification —
//! all computed from the DAG alone, before a single bootstrap is spent.
//!
//! Bootstraps are the only expensive resource in gate-level TFHE, and a
//! malformed or noise-over-budget circuit wastes them (or worse, silently
//! decrypts wrong). [`analyze`] walks a [`CircuitNetlist`] once and
//! produces a machine-readable [`NetlistReport`] with two sections:
//!
//! * **Lints** ([`lint`](fn@lint)) — structural findings with
//!   [`Severity`] levels: dead bootstrapped nodes, netlists with work but
//!   no outputs ([`Severity::Error`]), unused inputs, constant-foldable
//!   gates, duplicate gates, muxes with identical arms
//!   ([`Severity::Warning`]), and double negations ([`Severity::Info`]).
//! * **Noise** — per-node worst-case error variance propagated through
//!   each gate's linear combination and reset at every bootstrap (the
//!   [`NoiseModel`] mirrors this crate's blind-rotate / key-switch /
//!   mod-switch pipeline), then turned into a per-output
//!   decryption-failure probability bound via Gaussian tails and a union
//!   bound over the output's backward cone. Tests cross-validate the
//!   bound against the empirical [`noise`](crate::noise) harness.
//!
//! [`simplify`](fn@simplify) applies the safe subset of the lint findings
//! as rewrites — constant folding, double-`NOT` collapse,
//! common-subexpression elimination, and dead-code removal — then fuses
//! every cone over two leaves into the one [`Gate`](crate::gates::Gate)
//! that computes it and every cone that computes a three-input majority
//! or parity into one [`Gate3`](crate::gates::Gate3) bootstrap, lets each
//! parity ride on the majority over the same leaves as the free
//! `Sum` of an adder cell, and reports whether the result is bit-identical
//! to the original (CSE/`NOT` rewrites are; folding a bootstrapped gate
//! into a trivial constant or an alias, fusing a cone or riding a sum is
//! decrypt-equivalent only, and the report says so).
//!
//! [`AnalysisPolicy`] packages the admission knobs (`CircuitServer`-side):
//! the minimum lint severity to reject on, the per-output
//! failure-probability budget, and — optionally — a formal-equivalence
//! requirement on the rewrite the server schedules in place of the
//! submitted netlist, proven by the [`equiv`] BDD engine.

pub mod equiv;

mod lint;
mod noise;
mod simplify;

pub use lint::{lint, Lint, LintKind, Severity};
pub use noise::{NoiseModel, NoiseReport, OutputNoise};
pub use simplify::{demote_sums, simplify, SimplifyReport};

use crate::circuit::CircuitNetlist;
use crate::params::ParameterSet;
use noise::noise_report;

/// The full machine-readable result of [`analyze`].
#[derive(Clone, Debug, PartialEq)]
pub struct NetlistReport {
    /// Structural findings (see [`lint`](fn@lint)).
    pub lints: Vec<Lint>,
    /// Per-output analytic noise certificates.
    pub noise: NoiseReport,
}

impl NetlistReport {
    /// `true` when no lint at or above `deny` fired.
    pub fn is_clean(&self, deny: Severity) -> bool {
        self.lints.iter().all(|l| l.severity() < deny)
    }

    /// The severest lint at or above `deny`, if any — what an admission
    /// policy rejects on.
    pub(crate) fn worst_lint_at_least(&self, deny: Severity) -> Option<&Lint> {
        self.lints
            .iter()
            .filter(|l| l.severity() >= deny)
            .max_by_key(|l| l.severity())
    }

    /// The largest per-output failure bound (0 when nothing is marked).
    pub fn max_failure_prob(&self) -> f64 {
        self.noise.max_failure_prob()
    }
}

/// Analyzes `net` in one pass: structural [`lint`](fn@lint)s and analytic
/// per-output noise certification under `params` at bootstrapping-key
/// unroll `unroll`.
///
/// # Panics
///
/// Panics if `unroll` is outside `1..=8` (the `ServerKey` bound).
pub fn analyze(net: &CircuitNetlist, params: &ParameterSet, unroll: usize) -> NetlistReport {
    report(net, &NoiseModel::new(params, unroll))
}

/// [`analyze`] under a model built once: what admission certifies with.
pub(crate) fn report(net: &CircuitNetlist, model: &NoiseModel) -> NetlistReport {
    NetlistReport {
        lints: lint(net),
        noise: noise_report(net, *model),
    }
}

/// Default per-output decryption-failure budget: `2⁻²⁰` (≈ `9.5·10⁻⁷`).
/// Far above the analytic bound of any shipped lowering at any shipped
/// parameter set, far below anything a production client should accept.
pub const DEFAULT_FAILURE_BUDGET: f64 = 1.0 / (1 << 20) as f64;

/// Admission-time analysis knobs for a `CircuitServer` (set on
/// `ServerConfig::analysis`): every submitted netlist is [`analyze`]d
/// before admission and rejected — with a structured reason naming the
/// failing lint or output bound — when it trips either knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalysisPolicy {
    /// Reject circuits carrying any lint at or above this severity.
    pub deny: Severity,
    /// Reject circuits whose analytic per-output failure bound exceeds
    /// this probability.
    pub max_failure_prob: f64,
    /// When set, admission (`server::admit`) rewrites every submission
    /// with [`simplify`](fn@simplify) — the one rewrite a server runs;
    /// there is no pluggable pass — and **proves** the result
    /// function-identical to the submission with the [`equiv`] BDD engine
    /// under this budget, then certifies the result against
    /// `max_failure_prob`, before scheduling it. A refuted rewrite is
    /// rejected with a structured counterexample
    /// (`RejectReason::NotEquivalent`); a check that exhausts the budget
    /// surfaces as a [`LintKind::EquivUnknown`] warning — rejected only
    /// under a strict `deny`, otherwise the submitted netlist runs
    /// unrewritten, as it does when the proven rewrite is over the noise
    /// budget even with its riding sums demoted ([`demote_sums`], tried
    /// first; `SchedulerStats::{sums_demoted, rewrites_refused}` count the
    /// two steps). `None` skips the proof and schedules the submission
    /// as-is.
    pub require_equivalence: Option<equiv::EquivBudget>,
}

impl Default for AnalysisPolicy {
    /// Rejects on [`Severity::Error`] lints and on outputs past
    /// [`DEFAULT_FAILURE_BUDGET`]; no equivalence requirement.
    fn default() -> Self {
        Self {
            deny: Severity::Error,
            max_failure_prob: DEFAULT_FAILURE_BUDGET,
            require_equivalence: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateOp;
    use crate::gates::{Gate, Gate3};
    use crate::params::ParameterSet;

    /// sum/carry half adder: clean by construction.
    fn half_adder() -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let sum = net.gate(Gate::Xor, a, b);
        let carry = net.gate(Gate::And, a, b);
        net.mark_output(sum);
        net.mark_output(carry);
        net
    }

    /// Two gates over the same inputs with no sum among them: nothing
    /// rides, so exact rewrites stay exact.
    fn nand_and_or() -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let nand = net.gate(Gate::Nand, a, b);
        let or = net.gate(Gate::Or, a, b);
        net.mark_output(nand);
        net.mark_output(or);
        net
    }

    fn kinds(lints: &[Lint]) -> Vec<LintKind> {
        lints.iter().map(|l| l.kind).collect()
    }

    #[test]
    fn clean_netlist_has_no_lints() {
        assert!(lint(&half_adder()).is_empty());
        assert!(lint(&CircuitNetlist::new()).is_empty());
    }

    #[test]
    fn dead_bootstrapped_node_is_an_error() {
        let mut net = half_adder();
        let a = net.input();
        let dead = net.gate(Gate::Or, 0, a);
        let l = lint(&net);
        assert!(l.contains(&Lint {
            kind: LintKind::DeadNode,
            node: dead
        }));
        assert!(l.contains(&Lint {
            kind: LintKind::UnusedInput,
            node: a
        }));
        assert_eq!(l.iter().map(Lint::severity).max(), Some(Severity::Error));
    }

    #[test]
    fn no_outputs_is_an_error() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let _ = net.gate(Gate::And, a, b);
        assert!(kinds(&lint(&net)).contains(&LintKind::NoOutputs));
        // …but a netlist with no bootstrapped work and no outputs is not
        // burning anything.
        let mut empty = CircuitNetlist::new();
        let _ = empty.input();
        assert!(!kinds(&lint(&empty)).contains(&LintKind::NoOutputs));
    }

    #[test]
    fn foldable_duplicate_double_not_and_mux_arms_lint() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let t = net.constant(true);
        let foldable = net.gate(Gate::And, a, t);
        let g1 = net.gate(Gate::Or, a, b);
        let dup = net.gate(Gate::Or, b, a); // commutative duplicate
        let n1 = net.not(g1);
        let dnot = net.not(n1);
        let mux = net.mux(b, g1, g1);
        for id in [foldable, dup, dnot, mux] {
            net.mark_output(id);
        }
        let l = lint(&net);
        let k = kinds(&l);
        assert!(k.contains(&LintKind::ConstantFoldable));
        assert!(k.contains(&LintKind::DuplicateGate));
        assert!(k.contains(&LintKind::DoubleNot));
        assert!(k.contains(&LintKind::MuxIdenticalArms));
        assert_eq!(l.iter().map(Lint::severity).max(), Some(Severity::Warning));
        // A double negation that duplicates an earlier one: the warning
        // comes before the info at the same node.
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let n1 = net.not(a);
        let n2 = net.not(n1);
        let n3 = net.not(n1);
        net.mark_output(n2);
        net.mark_output(n3);
        let at_n3: Vec<LintKind> = lint(&net)
            .into_iter()
            .filter(|l| l.node == n3)
            .map(|l| l.kind)
            .collect();
        assert_eq!(at_n3, [LintKind::DuplicateGate, LintKind::DoubleNot]);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(LintKind::DeadNode.severity(), Severity::Error);
        assert_eq!(LintKind::DoubleNot.severity(), Severity::Info);
        assert_eq!(
            format!(
                "{}",
                Lint {
                    kind: LintKind::DeadNode,
                    node: 3
                }
            ),
            "error: dead-node at node 3"
        );
    }

    #[test]
    fn simplify_collapses_double_not_exactly() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g = net.gate(Gate::And, a, b);
        let n1 = net.not(g);
        let n2 = net.not(n1);
        net.mark_output(n2);
        let (s, r) = simplify(&net);
        assert!(r.exact);
        assert_eq!(r.collapsed_nots, 1);
        assert_eq!(s.bootstraps(), 1);
        // The double negation and the inner NOT are gone.
        assert_eq!(s.len(), 3);
        assert_eq!(s.outputs(), &[2]);
    }

    #[test]
    fn simplify_dedups_commutative_gates_exactly() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g1 = net.gate(Gate::Nand, a, b);
        let g2 = net.gate(Gate::Nand, b, a);
        let g3 = net.gate(Gate::AndYN, a, b);
        let g4 = net.gate(Gate::AndYN, b, a); // NOT a duplicate (order matters)
        net.mark_output(g1);
        net.mark_output(g2);
        net.mark_output(g3);
        net.mark_output(g4);
        let (s, r) = simplify(&net);
        assert!(r.exact);
        assert_eq!(r.deduplicated, 1);
        assert_eq!(s.bootstraps(), 3);
        // Both NAND outputs alias the same node.
        assert_eq!(s.outputs()[0], s.outputs()[1]);
        assert_ne!(s.outputs()[2], s.outputs()[3]);
    }

    #[test]
    fn simplify_folds_constants_and_cascades() {
        // AND(a, true) → a, then XOR(a, a)… stays: XOR of the same node
        // twice is not folded (it is a duplicate-operand gate, left to
        // run); instead check OR(AND(a,true), false) → a.
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let t = net.constant(true);
        let f = net.constant(false);
        let g1 = net.gate(Gate::And, a, t); // → a
        let g2 = net.gate(Gate::Or, g1, f); // → g1 → a
        net.mark_output(g2);
        let (s, r) = simplify(&net);
        assert!(!r.exact);
        assert_eq!(r.folded_constants, 2);
        assert_eq!(s.bootstraps(), 0);
        // Just the input survives (constants die with their consumers).
        assert_eq!(s.len(), 1);
        assert_eq!(s.outputs(), &[0]);
        assert_eq!(s.num_inputs(), 1);
    }

    #[test]
    fn simplify_folds_not_of_constant_exactly() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let f = net.constant(false);
        let n = net.not(f); // → constant true, bit-exact (symmetric ±1/8)
        let g = net.gate(Gate::Xor, a, n);
        net.mark_output(g);
        let (s, r) = simplify(&net);
        // The XOR still folds (constant operand) — not exact overall…
        assert!(!r.exact);
        // …but run the NOT fold alone and exactness survives:
        let mut net2 = CircuitNetlist::new();
        let _ = net2.input();
        let f2 = net2.constant(false);
        let n2 = net2.not(f2);
        net2.mark_output(n2);
        let (s2, r2) = simplify(&net2);
        assert!(r2.exact);
        assert!(matches!(s2.ops()[s2.outputs()[0]], GateOp::Constant(true)));
        assert_eq!(s.bootstraps(), 0);
    }

    #[test]
    fn simplify_mux_constant_selector_and_arms() {
        let mut net = CircuitNetlist::new();
        let sel = net.input();
        let a = net.input();
        let b = net.input();
        let t = net.constant(true);
        let m1 = net.mux(t, a, b); // const sel → a
        let m2 = net.mux(sel, t, b); // → OR(sel, b)
        let m3 = net.mux(sel, a, t); // → ORNY(sel, a)
        net.mark_output(m1);
        net.mark_output(m2);
        net.mark_output(m3);
        let (s, r) = simplify(&net);
        assert!(!r.exact);
        assert_eq!(r.folded_constants, 3);
        // Three muxes (6 bootstraps) became two binary gates.
        assert_eq!(s.bootstraps(), 2);
        assert!(matches!(
            s.ops()[s.outputs()[1]],
            GateOp::Binary(Gate::Or, _, _)
        ));
        assert!(matches!(
            s.ops()[s.outputs()[2]],
            GateOp::Binary(Gate::OrNY, _, _)
        ));
    }

    #[test]
    fn simplify_keeps_identical_arm_muxes() {
        let mut net = CircuitNetlist::new();
        let sel = net.input();
        let a = net.input();
        let m = net.mux(sel, a, a);
        net.mark_output(m);
        let (s, r) = simplify(&net);
        assert!(r.exact);
        assert_eq!(s.bootstraps(), 2, "the noise reset stays");
    }

    #[test]
    fn simplify_folds_a_mux_whose_arms_are_one_constant() {
        let mut net = CircuitNetlist::new();
        let sel = net.input();
        let k = net.constant(true);
        let m = net.mux(sel, k, k);
        net.mark_output(m);
        let (s, r) = simplify(&net);
        assert_eq!((r.bootstraps_before, r.bootstraps_after), (2, 0));
        assert_eq!(s.ops()[s.outputs()[0]], GateOp::Constant(true));
        assert_eq!(kinds(&lint(&s)), [LintKind::UnusedInput], "nothing to fold");
    }

    /// `sum`, `carry` of `a + b + c` in the binary lowering: XOR, XOR, AND,
    /// AND, OR.
    fn full_adder(net: &mut CircuitNetlist, a: usize, b: usize, c: usize) -> (usize, usize) {
        let axb = net.gate(Gate::Xor, a, b);
        let sum = net.gate(Gate::Xor, axb, c);
        let and_ab = net.gate(Gate::And, a, b);
        let and_cx = net.gate(Gate::And, axb, c);
        (sum, net.gate(Gate::Or, and_ab, and_cx))
    }

    fn assert_equivalent(net: &CircuitNetlist, simplified: &CircuitNetlist) {
        let report = equiv::check(net, simplified, equiv::EquivBudget::default());
        assert!(report.is_equivalent(), "{report}");
    }

    #[test]
    fn simplify_fuses_a_full_adder_into_two_bootstraps() {
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let (sum, carry) = full_adder(&mut net, a, b, c);
        net.mark_output(sum);
        net.mark_output(carry);
        let (cell, r) = simplify(&net);
        assert_eq!((r.fused, r.dead_removed), (2, 3));
        assert!(
            !r.exact,
            "a fused gate's output is not the cone's, bit for bit"
        );
        // The fusion stage's own result, before the sum rides.
        let s = demote_sums(&cell);
        assert_eq!((r.bootstraps_before, s.bootstraps()), (5, 2));
        assert_eq!(s.depth(), 1);
        let ops: Vec<GateOp> = s.outputs().iter().map(|&o| s.ops()[o]).collect();
        assert_eq!(
            ops,
            [
                GateOp::Ternary(Gate3::Xor3, a, b, c),
                GateOp::Ternary(Gate3::Maj, a, b, c)
            ]
        );
        assert_equivalent(&net, &s);
    }

    #[test]
    fn simplify_rides_a_full_adder_sum_on_its_carry() {
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let (sum, carry) = full_adder(&mut net, a, b, c);
        net.mark_output(sum);
        net.mark_output(carry);
        let (s, r) = simplify(&net);
        assert_eq!((r.bootstraps_before, r.bootstraps_after), (5, 1));
        assert_eq!((r.fused, r.riding), (2, 1));
        assert!(!r.exact, "a riding sum is not a bootstrapped one");
        assert_eq!(s.depth(), 1);
        // The host first, whichever of the two the lowering put first.
        let ops: Vec<GateOp> = s.outputs().iter().map(|&o| s.ops()[o]).collect();
        assert_eq!(
            ops,
            [GateOp::Sum(a, b, c), GateOp::Ternary(Gate3::Maj, a, b, c)]
        );
        assert!(s.outputs()[1] < s.outputs()[0]);
        assert_eq!(s.host_of(s.outputs()[0]), Some(s.outputs()[1]));
        assert_eq!(s.rider_of(s.outputs()[1]), Some(s.outputs()[0]));
        assert_equivalent(&net, &s);
        // Nothing left to do on the result.
        let (again, r) = simplify(&s);
        assert_eq!(again, s);
        assert!(r.exact && r.riding == 1);
    }

    #[test]
    fn half_adder_is_the_cell_with_a_constant_carry_in() {
        let (s, r) = simplify(&half_adder());
        assert_eq!((r.bootstraps_after, r.riding), (1, 1));
        let (a, b) = (0, 1);
        let f = s
            .ops()
            .iter()
            .position(|&op| op == GateOp::Constant(false))
            .expect("the carry-in");
        let ops: Vec<GateOp> = s.outputs().iter().map(|&o| s.ops()[o]).collect();
        assert_eq!(
            ops,
            [GateOp::Sum(a, b, f), GateOp::Ternary(Gate3::Maj, a, b, f)]
        );
        assert!(
            lint(&s).is_empty(),
            "the carry-in is not foldable: {:?}",
            lint(&s)
        );
        assert_equivalent(&half_adder(), &s);
        assert_eq!(simplify(&s).0, s);
        // Every AND-family carry, every polarity of the parity.
        for carry in Gate::ALL {
            for parity in [Gate::Xor, Gate::Xnor] {
                if matches!(carry, Gate::Xor | Gate::Xnor) {
                    continue;
                }
                let mut net = CircuitNetlist::new();
                let (a, b) = (net.input(), net.input());
                let nb = net.not(b);
                let p = net.gate(parity, nb, a);
                let c = net.gate(carry, a, b);
                net.mark_output(p);
                net.mark_output(c);
                let (s, r) = simplify(&net);
                assert_eq!((r.bootstraps_after, r.riding), (1, 1), "{carry} {parity}");
                assert_equivalent(&net, &s);
                assert_eq!(simplify(&s).0, s, "{carry} {parity}");
            }
        }
    }

    #[test]
    fn two_leaf_cones_fuse_into_the_one_gate_that_computes_them() {
        // The subtractor's first borrow-free carry: OR(XOR(a, ¬b), AND(a, ¬b))
        // is a ∨ ¬b, one bootstrap for three.
        let mut net = CircuitNetlist::new();
        let (a, b) = (net.input(), net.input());
        let nb = net.not(b);
        let x = net.gate(Gate::Xor, a, nb);
        let g = net.gate(Gate::And, a, nb);
        let carry = net.gate(Gate::Or, x, g);
        net.mark_output(carry);
        let (s, r) = simplify(&net);
        assert_eq!(
            (r.bootstraps_before, r.bootstraps_after, r.fused),
            (3, 1, 1)
        );
        assert_eq!(s.ops()[s.outputs()[0]], GateOp::Binary(Gate::OrYN, a, b));
        assert_equivalent(&net, &s);
        // A gate over its own operands, negated or not, is no cone.
        let mut net = CircuitNetlist::new();
        let (a, b) = (net.input(), net.input());
        let na = net.not(a);
        let g = net.gate(Gate::And, b, na);
        net.mark_output(g);
        let (s, r) = simplify(&net);
        assert!(r.exact && r.fused == 0);
        assert_eq!(s, net);
    }

    #[test]
    fn a_sum_whose_host_folds_is_a_parity_of_its_own_again() {
        let mut net = CircuitNetlist::new();
        let (a, b) = (net.input(), net.input());
        let (t, f) = (net.constant(true), net.constant(false));
        let m = net.ternary(Gate3::Maj, a, t, f); // a
        let s = net.sum(a, t, f); // ¬a
        let m2 = net.ternary(Gate3::Maj, a, b, f); // stays the host it is
        let s2 = net.sum(b, f, a);
        for o in [m, s, m2, s2] {
            net.mark_output(o);
        }
        let (small, r) = simplify(&net);
        assert_eq!((r.bootstraps_after, r.riding), (1, 1));
        let ops: Vec<GateOp> = small.outputs().iter().map(|&o| small.ops()[o]).collect();
        assert!(matches!(ops[0], GateOp::Input(0)));
        assert!(matches!(ops[1], GateOp::Not(0)));
        assert!(matches!(ops[2], GateOp::Ternary(Gate3::Maj, ..)));
        assert!(matches!(ops[3], GateOp::Sum(..)));
        assert_equivalent(&net, &small);
        // The sweep keeps a host alive for its rider.
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let _host = net.ternary(Gate3::Maj, a, b, c);
        let s = net.sum(a, b, c);
        net.mark_output(s);
        assert!(lint(&net).is_empty());
        let (small, r) = simplify(&net);
        assert_eq!((small.len(), r.dead_removed, r.bootstraps_after), (5, 0, 1));
        assert_equivalent(&demote_sums(&net), &small);
    }

    #[test]
    fn simplify_fuses_through_leaf_polarity() {
        // A full subtractor's borrow and difference: the majority of
        // (¬a, b, c) and the parity, with the XOR written as XNOR + NOT.
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let same = net.gate(Gate::Xnor, a, b);
        let diff = net.gate(Gate::Xnor, same, c);
        let gen = net.gate(Gate::AndNY, a, b);
        let pass = net.gate(Gate::And, same, c);
        let borrow = net.gate(Gate::Or, gen, pass);
        let nborrow = net.not(borrow);
        net.mark_output(diff);
        net.mark_output(nborrow);
        let (s, r) = simplify(&net);
        assert_eq!((r.fused, r.riding, r.bootstraps_after), (2, 1, 1));
        assert_equivalent(&net, &s);
        let majority = s
            .ops()
            .iter()
            .find_map(|&op| match op {
                GateOp::Ternary(Gate3::Maj, x, y, z) => Some([x, y, z]),
                _ => None,
            })
            .expect("the borrow is a majority");
        let negated = majority
            .iter()
            .filter(|&&o| matches!(s.ops()[o], GateOp::Not(_)))
            .count();
        assert_eq!(negated, 1, "over one negated leaf: {majority:?}");
    }

    #[test]
    fn fusion_keeps_what_others_still_read() {
        // The cone's interior is an output too: the root fuses (one
        // bootstrap for one, a wave earlier), the interior stays.
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let axb = net.gate(Gate::Xor, a, b);
        let sum = net.gate(Gate::Xor, axb, c);
        net.mark_output(axb);
        net.mark_output(sum);
        let (s, r) = simplify(&net);
        assert_eq!((r.fused, r.dead_removed), (1, 0));
        assert_eq!((r.bootstraps_before, r.bootstraps_after), (2, 2));
        assert_eq!((net.depth(), s.depth()), (2, 1));
        assert_equivalent(&net, &s);
        // A mux is a root like any other: `sel ? ¬x : x` over an XOR.
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let axb = net.gate(Gate::Xor, a, b);
        let naxb = net.not(axb);
        let m = net.mux(c, naxb, axb);
        net.mark_output(m);
        let (s, r) = simplify(&net);
        assert_eq!((r.bootstraps_before, r.bootstraps_after), (3, 1));
        assert_equivalent(&net, &s);
    }

    #[test]
    fn simplify_folds_constant_operands_of_ternary_gates() {
        // The parity reads another pair than the majorities do: over the
        // same two leaves it would ride on one of them.
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let (t, f) = (net.constant(true), net.constant(false));
        let outs = [
            net.ternary(Gate3::Maj, a, t, b),  // OR(a, b)
            net.ternary(Gate3::Maj, f, a, b),  // AND(a, b)
            net.ternary(Gate3::Xor3, a, c, t), // XNOR(a, c)
            net.ternary(Gate3::Xor3, t, a, f), // NOT a
            net.ternary(Gate3::Maj, t, f, b),  // b
            net.ternary(Gate3::Maj, t, a, t),  // true
            net.ternary(Gate3::Xor3, t, t, f), // false
        ];
        for o in outs {
            net.mark_output(o);
        }
        assert_eq!(
            lint(&net)
                .iter()
                .filter(|l| l.kind == LintKind::ConstantFoldable)
                .count(),
            outs.len()
        );
        let (s, r) = simplify(&net);
        assert_eq!(r.folded_constants, outs.len());
        assert_eq!(r.bootstraps_after, 3);
        let kinds: Vec<GateOp> = s.outputs().iter().map(|&o| s.ops()[o]).collect();
        assert!(
            matches!(kinds[0], GateOp::Binary(Gate::Or, ..)),
            "{kinds:?}"
        );
        assert!(matches!(kinds[1], GateOp::Binary(Gate::And, ..)));
        assert!(matches!(kinds[2], GateOp::Binary(Gate::Xnor, ..)));
        assert!(matches!(kinds[3], GateOp::Not(_)));
        assert!(matches!(kinds[4], GateOp::Input(1)));
        assert!(matches!(kinds[5], GateOp::Constant(true)));
        assert!(matches!(kinds[6], GateOp::Constant(false)));
        assert_equivalent(&net, &s);
    }

    #[test]
    fn ternary_gates_lint_dedup_and_rank_like_one_bootstrap() {
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let m1 = net.ternary(Gate3::Maj, a, b, c);
        let m2 = net.ternary(Gate3::Maj, c, a, b); // the same gate
        let x = net.ternary(Gate3::Xor3, m1, m2, a);
        let dead = net.ternary(Gate3::Xor3, a, b, c);
        net.mark_output(x);
        let l = lint(&net);
        assert!(l.contains(&Lint {
            kind: LintKind::DuplicateGate,
            node: m2
        }));
        assert!(l.contains(&Lint {
            kind: LintKind::DeadNode,
            node: dead
        }));
        assert_eq!((net.bootstraps(), net.depth()), (4, 2));
        let (s, r) = simplify(&net);
        assert_eq!((r.deduplicated, r.dead_removed, r.fused), (1, 1, 0));
        assert!(r.exact);
        assert_eq!(s.bootstraps(), 2);
    }

    #[test]
    fn ternary_decisions_are_charged_from_the_descriptor() {
        let model = NoiseModel::new(&ParameterSet::MATCHA, 3);
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let m = net.ternary(Gate3::Maj, a, b, c);
        let x = net.ternary(Gate3::Xor3, m, b, c);
        net.mark_output(x);
        let r = noise_report(&net, model);
        assert_eq!(r.node_variance[x], model.v_bootstrapped());
        let (fresh, reset) = (model.v_fresh(), model.v_bootstrapped());
        let switches = model.v_key_switch + model.v_mod_switch;
        let want = model.decrypt_failure(reset)
            + NoiseModel::tail_bound(0.125, 3.0 * fresh + switches)
            + NoiseModel::tail_bound(0.25, 4.0 * (reset + 2.0 * fresh) + switches);
        let got = r.outputs[0].failure_prob;
        assert!(
            want > 0.0 && (got - want).abs() <= 1e-12 * want,
            "{got:e} vs {want:e}"
        );
    }

    /// The decision bounds as the model wrote them before the records: a
    /// margin and a variance scale per gate family. `w² ∈ {1, 4}` scales by
    /// powers of two, which commute with rounding, so the derived sum
    /// `Σ wᵢ²·vᵢ` is bit for bit the old `scale · Σ vᵢ`. (Both switches are
    /// charged to the decision, key switch first.)
    #[test]
    fn decision_failure_matches_the_hand_written_formulas() {
        let model = NoiseModel::new(&ParameterSet::MATCHA, 2);
        let tail =
            |margin, v| NoiseModel::tail_bound(margin, v + model.v_key_switch + model.v_mod_switch);
        let grid = [
            0.0,
            1e-9,
            3.7e-7,
            model.v_fresh(),
            model.v_bootstrapped(),
            1.3e-4,
            2e-3,
        ];
        for &va in &grid {
            for &vb in &grid {
                for gate in Gate::ALL {
                    let (margin, scale2) = match gate {
                        Gate::Xor | Gate::Xnor => (0.25, 4.0),
                        _ => (0.125, 1.0),
                    };
                    let old = tail(margin, scale2 * (va + vb));
                    let derived = model.decision_failure(gate.desc(), &[va, vb]);
                    assert_eq!(derived.to_bits(), old.to_bits(), "{gate} {va:e} {vb:e}");
                }
                for &vc in &grid {
                    for (gate, margin, scale) in
                        [(Gate3::Maj, 0.125, 1.0), (Gate3::Xor3, 0.25, 2.0)]
                    {
                        let old = tail(margin, scale * scale * (va + vb + vc));
                        let derived = model.decision_failure(gate.desc(), &[va, vb, vc]);
                        assert_eq!(derived.to_bits(), old.to_bits(), "{gate}");
                    }
                    let old = tail(0.125, va + vb) + tail(0.125, va + vc);
                    assert_eq!(model.mux_failure(va, vb, vc).to_bits(), old.to_bits());
                }
            }
        }
    }

    #[test]
    fn riding_sums_are_charged_what_they_are_and_reset_nothing() {
        let p = ParameterSet::MATCHA;
        let model = NoiseModel::new(&p, 2);
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let m = net.ternary(Gate3::Maj, a, b, c);
        let s = net.sum(a, b, c);
        let x = net.gate(Gate::And, s, m); // reads the sum: decides on its noise
        net.mark_output(s);
        net.mark_output(x);
        let r = noise_report(&net, model);
        let fresh = model.v_fresh();
        let kept = 3.0 * fresh + 2.0 * model.v_blind_rotate();
        assert_eq!(r.node_variance[s], kept);
        assert!(kept > model.v_bootstrapped() + 3.0 * fresh, "not a reset");
        // The sum's own terms: two extractions deciding a step or two off
        // the host's switched phase, and the client's decryption of what it
        // keeps.
        let shifted = 0.125 - 2.0 / (2.0 * p.ring_degree as f64);
        let switched = 3.0 * fresh + model.v_key_switch + model.v_mod_switch;
        let extractions = 2.0 * NoiseModel::tail_bound(shifted, switched);
        let want = model.decrypt_failure(kept) + extractions;
        let got = r.outputs[0].failure_prob;
        assert!((got - want).abs() <= 1e-12 * want, "{got:e} vs {want:e}");
        // The AND downstream decides on the sum's variance, and its cone
        // holds the host's decision beside the sum's.
        let and = model.decision_failure(Gate::And.desc(), &[kept, model.v_bootstrapped()]);
        let host = model.decision_failure(Gate3::Maj.desc(), &[fresh; 3]);
        let want = model.decrypt_failure(model.v_bootstrapped()) + and + host + extractions;
        let got = r.outputs[1].failure_prob;
        assert!((got - want).abs() <= 1e-12 * want, "{got:e} vs {want:e}");
        // The sum costs no bootstrap and no wave: its reader waits for its host.
        assert_eq!((net.bootstraps(), net.depth()), (2, 2));
    }

    #[test]
    fn simplify_sweeps_dead_nodes_but_keeps_inputs() {
        let mut net = nand_and_or();
        let c = net.input(); // unused input: kept
        let dead = net.gate(Gate::Nor, 0, c); // dead gate: swept
        let _ = dead;
        let (s, r) = simplify(&net);
        assert!(r.exact);
        assert_eq!(r.dead_removed, 1);
        assert_eq!(s.num_inputs(), 3);
        assert_eq!(s.bootstraps(), 2);
    }

    #[test]
    fn simplify_preserves_output_multiplicity_and_order() {
        let mut net = nand_and_or();
        net.mark_output(net.outputs()[0]); // the NAND marked twice
        let (s, r) = simplify(&net);
        assert!(r.exact);
        assert_eq!(s.outputs().len(), 3);
        assert_eq!(s.outputs()[0], s.outputs()[2]);
    }

    #[test]
    fn noise_resets_at_each_bootstrap() {
        let model = NoiseModel::new(&ParameterSet::TEST_FAST, 2);
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let mut g = net.gate(Gate::And, a, b);
        for _ in 0..20 {
            g = net.gate(Gate::And, g, b);
        }
        net.mark_output(g);
        let r = noise_report(&net, model);
        // A 21-gate chain's output variance equals a single gate's.
        assert_eq!(r.node_variance[g], model.v_bootstrapped());
        // …but its union failure bound is larger than a single gate's.
        let single = noise_report(&half_adder(), model);
        assert!(r.outputs[0].failure_prob >= single.outputs[1].failure_prob);
        assert!(r.outputs[0].failure_prob <= 1.0);
    }

    #[test]
    fn noise_constants_are_noiseless() {
        let model = NoiseModel::new(&ParameterSet::TEST_FAST, 2);
        let mut net = CircuitNetlist::new();
        let c = net.constant(true);
        let n = net.not(c);
        net.mark_output(n);
        let r = noise_report(&net, model);
        assert_eq!(r.node_variance[n], 0.0);
        assert_eq!(r.outputs[0].failure_prob, 0.0);
    }

    #[test]
    fn tail_bound_behaves() {
        assert_eq!(NoiseModel::tail_bound(0.125, 0.0), 0.0);
        let loose = NoiseModel::tail_bound(0.125, 1.0);
        assert_eq!(loose, 1.0, "hopeless variance clamps to certainty");
        let p1 = NoiseModel::tail_bound(0.125, 1e-4);
        let p2 = NoiseModel::tail_bound(0.25, 1e-4);
        assert!(p2 < p1, "larger margin, smaller failure bound");
        assert!(p1 > 0.0 && p1 < 1.0);
    }

    #[test]
    fn analyze_ties_the_sections_together() {
        let net = half_adder();
        let report = analyze(&net, &ParameterSet::TEST_FAST, 2);
        assert!(report.is_clean(Severity::Info));
        assert_eq!(report.lints.iter().map(Lint::severity).max(), None);
        assert_eq!(report.noise.outputs.len(), 2);
        assert!(report.max_failure_prob() < DEFAULT_FAILURE_BUDGET);
    }

    #[test]
    fn policy_default_rejects_errors_only() {
        let policy = AnalysisPolicy::default();
        assert_eq!(policy.deny, Severity::Error);
        let mut net = half_adder();
        let a = net.input();
        let _dead = net.gate(Gate::Or, 0, a);
        let report = analyze(&net, &ParameterSet::TEST_FAST, 2);
        let worst = report.worst_lint_at_least(policy.deny).expect("dead node");
        assert_eq!(worst.kind, LintKind::DeadNode);
        // A warnings-only netlist passes the default policy.
        let mut warn = CircuitNetlist::new();
        let x = warn.input();
        let t = warn.constant(true);
        let g = warn.gate(Gate::And, x, t);
        warn.mark_output(g);
        let warn_report = analyze(&warn, &ParameterSet::TEST_FAST, 2);
        assert!(warn_report.worst_lint_at_least(policy.deny).is_none());
        assert_eq!(
            warn_report.lints.iter().map(Lint::severity).max(),
            Some(Severity::Warning)
        );
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn model_rejects_bad_unroll() {
        let _ = NoiseModel::new(&ParameterSet::TEST_FAST, 0);
    }

    /// The body rounding of the stored bootstrapping key is in the model,
    /// and it is small: against the same model with a key row's ring noise
    /// alone, blind rotation's variance rises by the rounding's share of a
    /// row (0.3 % at the paper's parameters), and no decision's failure
    /// bound — a certificate is a sum of these — by as much as a tenth,
    /// unless it is a bound no certificate can see: the further out in the
    /// tail, the more a variance moves it, and below `2⁻⁴⁰` (a millionth of
    /// the default budget) it may move by a fifth.
    #[test]
    fn stored_key_rounding_is_charged_and_moves_no_bound_by_a_tenth() {
        let p = ParameterSet::MATCHA;
        let ring = p.ring_noise_stdev * p.ring_noise_stdev;
        let rounding = (2.0 * f64::from(matcha_fft::key_exponent(p.ring_degree)) - 64.0).exp2()
            / (6.0 * p.ring_degree as f64);
        assert!((0.001..0.004).contains(&(rounding / ring)), "{rounding:e}");
        for unroll in 1..=4 {
            let model = NoiseModel::new(&p, unroll);
            // What does not scale with a key row's variance: the gadget's
            // approximation error, once per group.
            let groups = p.lwe_dimension.div_ceil(unroll) as f64;
            let eps = (-f64::from(p.decomp_base_log) * p.decomp_levels as f64).exp2();
            let approximation = groups * (1.0 + p.ring_degree as f64) * eps * eps;
            let keyed = model.v_blind_rotate - approximation;
            let unstored = NoiseModel {
                v_blind_rotate: approximation + keyed * ring / (ring + rounding),
                ..model
            };
            let share = model.v_blind_rotate / unstored.v_blind_rotate - 1.0;
            assert!(
                share > 0.0 && share < rounding / ring,
                "unroll {unroll}: {share}"
            );
            let moved = |with: f64, without: f64| {
                let most = if with < (-40f64).exp2() { 1.2 } else { 1.1 };
                assert!(
                    with >= without && with < most * without,
                    "unroll {unroll}: bound {without:e} became {with:e}"
                );
            };
            let (v, v0) = (model.v_bootstrapped(), unstored.v_bootstrapped());
            for gate in [Gate::And, Gate::Xor] {
                moved(
                    model.decision_failure(gate.desc(), &[v, v]),
                    unstored.decision_failure(gate.desc(), &[v0, v0]),
                );
            }
            let (m, m0) = (model.v_mux_output(), unstored.v_mux_output());
            moved(model.mux_failure(v, m, m), unstored.mux_failure(v0, m0, m0));
            moved(
                model.decision_failure(Gate::And.desc(), &[m, m]),
                unstored.decision_failure(Gate::And.desc(), &[m0, m0]),
            );
            moved(model.decrypt_failure(m), unstored.decrypt_failure(m0));
        }
    }

    #[test]
    fn model_variances_are_positive_and_ordered() {
        for p in [
            ParameterSet::MATCHA,
            ParameterSet::TEST_FAST,
            ParameterSet::TEST_MEDIUM,
        ] {
            for unroll in [1, 2, 4] {
                let m = NoiseModel::new(&p, unroll);
                assert!(m.v_fresh() > 0.0);
                assert!(m.v_blind_rotate() > 0.0);
                assert!(m.v_key_switch > 0.0);
                assert!(m.v_mod_switch > 0.0);
                assert!(m.v_mux_output() > m.v_bootstrapped());
            }
        }
    }
}
