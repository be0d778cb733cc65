//! Structural lints: what [`lint`] finds in a netlist and how bad it is,
//! and the reachability and canonical forms the rewriter shares.

use crate::circuit::{cell_key, CircuitNetlist, GateOp};
use std::collections::HashMap;
use std::fmt;

/// How bad a [`Lint`] is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Harmless but noteworthy (costs no bootstraps).
    Info,
    /// Wastes bootstraps or signals likely construction bugs, but the
    /// circuit still computes its outputs.
    Warning,
    /// The circuit burns bootstraps on work that cannot reach any output.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The catalogue of structural findings [`lint`] can report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A bootstrapped node (binary or ternary gate, mux) unreachable from every
    /// marked output: the executor still spends its bootstraps.
    DeadNode,
    /// The netlist performs bootstrapped work but marks no outputs — all
    /// of it is wasted.
    NoOutputs,
    /// An input slot no output depends on.
    UnusedInput,
    /// A gate, `NOT`, or mux with a constant operand: partial evaluation
    /// removes or cheapens it ([`simplify`](fn@super::simplify) does).
    ConstantFoldable,
    /// A node structurally identical to an earlier one (same op, same
    /// operands up to commutativity): a CSE candidate.
    DuplicateGate,
    /// A mux whose two data arms are the same node — it can only ever
    /// produce that node's value (at two bootstraps).
    MuxIdenticalArms,
    /// `NOT(NOT(x))` — free, but pure slab traffic.
    DoubleNot,
    /// An admission-time equivalence check came back
    /// [`equiv::Verdict::Unknown`](super::equiv::Verdict::Unknown) — the
    /// rewrite could not be proven (or refuted) within its
    /// [`equiv::EquivBudget`](super::equiv::EquivBudget). Emitted by the
    /// server's admission path, never by [`lint`] itself; under a strict
    /// policy (`deny <= Warning`) the circuit is rejected, otherwise the
    /// *submitted* netlist is scheduled unrewritten.
    EquivUnknown,
}

impl LintKind {
    /// The fixed severity of this finding.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::DeadNode | LintKind::NoOutputs => Severity::Error,
            LintKind::UnusedInput
            | LintKind::ConstantFoldable
            | LintKind::DuplicateGate
            | LintKind::MuxIdenticalArms
            | LintKind::EquivUnknown => Severity::Warning,
            LintKind::DoubleNot => Severity::Info,
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintKind::DeadNode => "dead-node",
            LintKind::NoOutputs => "no-outputs",
            LintKind::UnusedInput => "unused-input",
            LintKind::ConstantFoldable => "constant-foldable",
            LintKind::DuplicateGate => "duplicate-gate",
            LintKind::MuxIdenticalArms => "mux-identical-arms",
            LintKind::DoubleNot => "double-not",
            LintKind::EquivUnknown => "equiv-unknown",
        })
    }
}

/// One structural finding, anchored at a netlist node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lint {
    /// What was found.
    pub kind: LintKind,
    /// The offending node index (for [`LintKind::NoOutputs`], which has no
    /// single node, this is `0`).
    pub node: usize,
}

impl Lint {
    /// Shorthand for `self.kind.severity()`.
    pub(crate) fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} at node {}",
            self.severity(),
            self.kind,
            self.node
        )
    }
}

/// Nodes reachable (backwards through operands, and from a `Sum` to the
/// majority whose bootstrap computes it) from any marked output.
pub(super) fn reachable(net: &CircuitNetlist) -> Vec<bool> {
    let mut seen = vec![false; net.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &out in net.outputs() {
        if !seen[out] {
            seen[out] = true;
            stack.push(out);
        }
    }
    while let Some(id) = stack.pop() {
        let operands = net.ops()[id].operands().into_iter().flatten();
        for needed in operands.chain(net.host_of(id)) {
            if !seen[needed] {
                seen[needed] = true;
                stack.push(needed);
            }
        }
    }
    seen
}

/// The canonical form of an op for duplicate detection: commutative gates
/// ([`GateDesc::commutative`](crate::gates::GateDesc::commutative)) and
/// sums get their operands sorted.
pub(super) fn canonical(op: GateOp) -> GateOp {
    match op {
        GateOp::Binary(g, a, b) if g.desc().commutative() && b < a => GateOp::Binary(g, b, a),
        GateOp::Ternary(g, a, b, c) if g.desc().commutative() => {
            let [a, b, c] = cell_key([a, b, c]);
            GateOp::Ternary(g, a, b, c)
        }
        GateOp::Sum(a, b, c) => {
            let [a, b, c] = cell_key([a, b, c]);
            GateOp::Sum(a, b, c)
        }
        other => other,
    }
}

/// Runs the structural lints over `net`. Findings are reported in node
/// order, severest first within a node; [`LintKind::DeadNode`] and
/// [`LintKind::UnusedInput`] consider reachability from the marked
/// outputs, every other lint only fires on reachable nodes (a dead
/// foldable gate is already reported dead).
pub fn lint(net: &CircuitNetlist) -> Vec<Lint> {
    let mut lints = Vec::new();
    if net.bootstraps() > 0 && net.outputs().is_empty() {
        lints.push(Lint {
            kind: LintKind::NoOutputs,
            node: 0,
        });
    }
    let live = reachable(net);
    let is_const = |id: usize| matches!(net.ops()[id], GateOp::Constant(_));
    let mut seen: HashMap<GateOp, usize> = HashMap::new();
    for (id, &op) in net.ops().iter().enumerate() {
        if !live[id] {
            match op {
                GateOp::Input(_) => lints.push(Lint {
                    kind: LintKind::UnusedInput,
                    node: id,
                }),
                _ if op.bootstraps() > 0 => lints.push(Lint {
                    kind: LintKind::DeadNode,
                    node: id,
                }),
                _ => {}
            }
            continue;
        }
        // A half adder's cell reads its constant-false carry-in on purpose:
        // folded, the majority would be an AND with nothing to ride on.
        let constants = op.operands().into_iter().flatten().filter(|&o| is_const(o));
        let in_a_cell = net.rider_of(id).is_some() || net.host_of(id).is_some();
        if constants.count() > usize::from(in_a_cell) {
            lints.push(Lint {
                kind: LintKind::ConstantFoldable,
                node: id,
            });
        }
        if let GateOp::Mux { a, b, .. } = op {
            if a == b {
                lints.push(Lint {
                    kind: LintKind::MuxIdenticalArms,
                    node: id,
                });
            }
        }
        if !matches!(op, GateOp::Input(_) | GateOp::Constant(_))
            && seen.insert(canonical(op), id).is_some()
        {
            lints.push(Lint {
                kind: LintKind::DuplicateGate,
                node: id,
            });
        }
        if let GateOp::Not(a) = op {
            if matches!(net.ops()[a], GateOp::Not(_)) {
                lints.push(Lint {
                    kind: LintKind::DoubleNot,
                    node: id,
                });
            }
        }
    }
    lints
}
