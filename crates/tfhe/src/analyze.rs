//! Static analysis of executable netlists: structural lints, a safe
//! simplification rewriter, analytic worst-case noise certification, and
//! critical-path cost analysis — all computed from the DAG alone, before a
//! single bootstrap is spent.
//!
//! Bootstraps are the only expensive resource in gate-level TFHE, and a
//! malformed or noise-over-budget circuit wastes them (or worse, silently
//! decrypts wrong). [`analyze`] walks a [`CircuitNetlist`] once and
//! produces a machine-readable [`NetlistReport`] with three sections:
//!
//! * **Lints** ([`lint`]) — structural findings with [`Severity`] levels:
//!   dead bootstrapped nodes, netlists with work but no outputs
//!   ([`Severity::Error`]), unused inputs, constant-foldable gates,
//!   duplicate gates, muxes with identical arms ([`Severity::Warning`]),
//!   and double negations ([`Severity::Info`]).
//! * **Noise** — per-node worst-case error variance propagated through
//!   each gate's linear combination and reset at every bootstrap (the
//!   [`NoiseModel`] mirrors this crate's blind-rotate / key-switch /
//!   mod-switch pipeline), then turned into a per-output
//!   decryption-failure probability bound via Gaussian tails and a union
//!   bound over the output's backward cone. Tests cross-validate the
//!   bound against the empirical [`noise`](crate::noise) harness.
//! * **Cost** — bootstrap counts, wave depth, and per-node critical-path
//!   priority ranks in bootstrap units, consistent with
//!   `accel::schedule`'s list scheduler over
//!   [`CircuitNetlist::schedule_skeleton`].
//!
//! [`simplify`] applies the safe subset of the lint findings as rewrites —
//! constant folding, double-`NOT` collapse, common-subexpression
//! elimination, and dead-code removal — then fuses every cone over two
//! leaves into the one [`Gate`] that computes it and every cone that
//! computes a three-input majority or parity into one [`Gate3`] bootstrap,
//! lets each parity ride on the majority over the same leaves as the free
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

use crate::circuit::{cell_key, CircuitNetlist, GateOp, Restricted};
use crate::gates::{Gate, Gate3, GateDesc};
use crate::params::ParameterSet;
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
    /// removes or cheapens it ([`simplify`] does).
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
    /// [`equiv::Verdict::Unknown`] — the rewrite could not be proven (or
    /// refuted) within its [`equiv::EquivBudget`]. Emitted by the server's
    /// admission path, never by [`lint`] itself; under a strict policy
    /// (`deny <= Warning`) the circuit is rejected, otherwise the
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
fn reachable(net: &CircuitNetlist) -> Vec<bool> {
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
/// ([`GateDesc::commutative`]) and sums get their operands sorted.
fn canonical(op: GateOp) -> GateOp {
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
        if let GateOp::Not(a) = op {
            if matches!(net.ops()[a], GateOp::Not(_)) {
                lints.push(Lint {
                    kind: LintKind::DoubleNot,
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
    }
    lints
}

/// What [`simplify`] did, and how faithful the result is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyReport {
    /// Node count of the original netlist.
    pub nodes_before: usize,
    /// Node count of the simplified netlist.
    pub nodes_after: usize,
    /// Gate bootstraps in the original netlist.
    pub bootstraps_before: usize,
    /// Gate bootstraps in the simplified netlist.
    pub bootstraps_after: usize,
    /// Ops removed or cheapened by constant folding / partial evaluation.
    pub folded_constants: usize,
    /// `NOT(NOT(x))` chains collapsed to `x`.
    pub collapsed_nots: usize,
    /// Ops aliased to a structurally identical earlier op (CSE).
    pub deduplicated: usize,
    /// Bootstrapped gates replaced by one gate — two-input or three — over
    /// the leaves of a cone they were the root of.
    pub fused: usize,
    /// `Sum`s of the simplified netlist: parities that cost no bootstrap
    /// because they ride on the majority over the same leaves.
    pub riding: usize,
    /// Dead (output-unreachable, non-input) nodes swept.
    pub dead_removed: usize,
    /// `true` when every rewrite applied was *bit*-exact: outputs of the
    /// simplified netlist are bit-identical ciphertexts to the original's
    /// (CSE, `NOT` collapse, `NOT`-of-constant, constant pooling, and
    /// dead-code removal all are — bootstrapping is deterministic given
    /// the keys). Folding a *bootstrapped* gate to a constant or an alias,
    /// fusing a cone into one gate, or letting a parity ride on a majority
    /// clears this: the outputs then agree on decryption (same plaintext,
    /// noise within the gate margins) but not bit-for-bit.
    pub exact: bool,
}

impl SimplifyReport {
    /// Bootstraps the rewrite saved.
    pub fn bootstraps_saved(&self) -> usize {
        self.bootstraps_before - self.bootstraps_after
    }
}

/// Most cuts kept per node: what bounds the enumeration on an adversarial
/// netlist. A full adder's carry has five.
const MAX_CUTS: usize = 16;

/// A node as a function of at most three other nodes: `table` bit
/// `Σ leafᵢ << i` is the node's value when the `leaves[..len]` (ascending)
/// hold those bits; bits past `1 << len` mean nothing. Holds on every
/// assignment the netlist can reach, whether or not one leaf lies in
/// another's cone.
#[derive(Clone, Copy, Debug)]
struct Cut {
    leaves: [usize; 3],
    len: usize,
    table: u8,
}

impl Cut {
    /// The node itself as its only leaf.
    fn trivial(id: usize) -> Self {
        Cut {
            leaves: [id, 0, 0],
            len: 1,
            table: 0b10,
        }
    }

    fn leaves(&self) -> &[usize] {
        &self.leaves[..self.len]
    }

    /// The cut of `op` that reads operand `i` through `operands[i]`, if it
    /// has at most three leaves.
    fn merge(op: GateOp, operands: &[Cut]) -> Option<Cut> {
        let mut leaves = [0usize; 3];
        let mut len = 0;
        for &leaf in operands.iter().flat_map(Cut::leaves) {
            if !leaves[..len].contains(&leaf) {
                if len == 3 {
                    return None;
                }
                leaves[len] = leaf;
                len += 1;
            }
        }
        leaves[..len].sort_unstable();
        let mut table = 0u8;
        for row in 0..1u8 << len {
            // The bit `row` gives a leaf of the union.
            let bit = |leaf: &usize| {
                let at = leaves[..len].iter().position(|l| l == leaf);
                row >> at.expect("a leaf of the union") & 1
            };
            let mut values = [false; 3];
            for (value, cut) in values.iter_mut().zip(operands) {
                let leaves = cut.leaves().iter().enumerate();
                let index = leaves.fold(0, |index, (i, leaf)| index | bit(leaf) << i);
                *value = cut.table >> index & 1 == 1;
            }
            let value = op.eval(values).expect("only gates are merged");
            table |= u8::from(value) << row;
        }
        Some(Cut { leaves, len, table })
    }
}

/// Every node's cuts of at most three leaves ([`MAX_CUTS`] a node), in
/// node order. A `NOT` is transparent — its cuts are its operand's,
/// negated — so no leaf is ever a `NOT` and polarity lives in the tables.
fn enumerate_cuts(net: &CircuitNetlist) -> Vec<Vec<Cut>> {
    let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(net.len());
    for (id, &op) in net.ops().iter().enumerate() {
        let own = match op {
            GateOp::Input(_) => vec![Cut::trivial(id)],
            GateOp::Constant(v) => vec![Cut {
                leaves: [0; 3],
                len: 0,
                table: u8::from(v),
            }],
            GateOp::Not(a) => cuts[a]
                .iter()
                .map(|c| Cut {
                    table: !c.table,
                    ..*c
                })
                .collect(),
            GateOp::Binary(..) | GateOp::Mux { .. } | GateOp::Ternary(..) | GateOp::Sum(..) => {
                let operands: Vec<usize> = op.operands().into_iter().flatten().collect();
                let mut own = vec![Cut::trivial(id)];
                // Every choice of one cut per operand, last operand fastest.
                let mut pick = [0usize; 3];
                'choices: loop {
                    let mut picked = [Cut::trivial(id); 3];
                    for (i, &operand) in operands.iter().enumerate() {
                        picked[i] = cuts[operand][pick[i]];
                    }
                    if let Some(cut) = Cut::merge(op, &picked[..operands.len()]) {
                        if !own.iter().any(|c| c.leaves() == cut.leaves()) {
                            own.push(cut);
                            if own.len() == MAX_CUTS {
                                break;
                            }
                        }
                    }
                    for (i, &operand) in operands.iter().enumerate().rev() {
                        pick[i] += 1;
                        if pick[i] < cuts[operand].len() {
                            continue 'choices;
                        }
                        pick[i] = 0;
                    }
                    break;
                }
                own
            }
        };
        cuts.push(own);
    }
    cuts
}

/// One fusion: the node becomes `gate` — a two- or three-input gate whose
/// operand `i` is `leaves[i]` — reading those in `negated` through a free
/// `NOT`.
#[derive(Clone, Copy, Debug)]
struct Fusion {
    gate: GateOp,
    leaves: [usize; 3],
    negated: u8,
}

impl Fusion {
    /// The leaves the fused gate reads.
    fn leaves(&self) -> &[usize] {
        let (desc, _) = self.gate.gate().expect("a fusion is a gate");
        &self.leaves[..desc.arity]
    }
}

/// An adder cell found in a netlist: the majority of `leaves[..len]`, those
/// in `negated` through a free `NOT`, and — `len == 2`, a half adder — the
/// constant `carry_in`; the parity of the same operands rides on it.
#[derive(Clone, Copy, Debug)]
struct Cell {
    leaves: [usize; 3],
    len: usize,
    negated: u8,
    carry_in: bool,
}

/// What [`rewrite`] puts in a node's place instead of the node.
#[derive(Clone, Copy, Debug)]
enum Override {
    /// One gate over the leaves of a cone the node was the root of.
    Fuse(Fusion),
    /// The majority of `Cell`, kept unfolded so that its sum can ride.
    Carry(Cell),
    /// The `Sum` of `Cell`, through a free `NOT` if `negated`.
    Ride { cell: Cell, negated: bool },
}

/// `id` with the free negations in front of it taken off: the node under
/// them, and whether their count is odd.
fn strip_nots(net: &CircuitNetlist, mut id: usize) -> (usize, bool) {
    let mut negated = false;
    while let GateOp::Not(a) = net.ops()[id] {
        (id, negated) = (a, !negated);
    }
    (id, negated)
}

/// Which nodes of `net` to fuse: walking back from the outputs, every
/// binary gate or mux still needed that has a cut computing a [`Gate3`]
/// under some polarity of its leaves, or any two-input [`Gate`] over two
/// leaves that are not simply its own operands — the one whose leaves sit
/// lowest, which is the shallowest result and the largest cone orphaned,
/// two leaves before three. What a fused node no longer reads is not
/// visited, so interior gates are left for the dead-code sweep, not fused
/// on their way out.
fn choose_fusions(net: &CircuitNetlist) -> Vec<Option<Override>> {
    // Every table a fused gate can realise, read off the records, the gate
    // over leaf positions: each `Gate3` with each subset of its operands
    // negated, and each `Gate` (whose ten cover every polarity of AND, OR
    // and XOR themselves).
    let mut realisable: Vec<(usize, u8, GateOp, u8)> = Vec::new();
    for gate in Gate3::ALL {
        for negated in 0..8u8 {
            let table = (0..8).fold(0u8, |t, row| {
                t | (gate.desc().table >> (row ^ negated) & 1) << row
            });
            realisable.push((3, table, GateOp::Ternary(gate, 0, 1, 2), negated));
        }
    }
    for gate in Gate::ALL {
        realisable.push((2, gate.desc().table, GateOp::Binary(gate, 0, 1), 0));
    }
    let cuts = enumerate_cuts(net);
    let mut needed = vec![false; net.len()];
    for &out in net.outputs() {
        needed[out] = true;
    }
    let mut fusions = vec![None; net.len()];
    for (id, &op) in net.ops().iter().enumerate().rev() {
        if !needed[id] {
            continue;
        }
        let root = matches!(op, GateOp::Binary(..) | GateOp::Mux { .. });
        // A cut over the node's own operands is the node, not a cone.
        let mut own: Vec<usize> = op.operands().into_iter().flatten().collect();
        own.iter_mut().for_each(|o| *o = strip_nots(net, *o).0);
        own.sort_unstable();
        let fusion = cuts[id]
            .iter()
            .filter(|cut| root && cut.len >= 2 && cut.leaves() != own)
            .filter_map(|cut| {
                let mask = (1u16 << (1 << cut.len)) - 1;
                let table = (u16::from(cut.table) & mask) as u8;
                let &(_, _, gate, negated) =
                    realisable.iter().find(|r| r.0 == cut.len && r.1 == table)?;
                Some(Fusion {
                    gate,
                    leaves: cut.leaves,
                    negated,
                })
            })
            .min_by_key(|f| {
                let lowest = f.leaves().iter().map(|&l| net.levels()[l]).max();
                (lowest, f.leaves().len())
            });
        match fusion {
            Some(f) => f.leaves().iter().for_each(|&l| needed[l] = true),
            None => op
                .operands()
                .into_iter()
                .flatten()
                .chain(net.host_of(id))
                .for_each(|o| needed[o] = true),
        }
        fusions[id] = fusion.map(Override::Fuse);
    }
    fusions
}

/// The majority a two-input carry gate is over its own operands and a
/// constant: `(negate a, negate b, carry-in)` with `gate(a, b) = MAJ(a ⊕ na,
/// b ⊕ nb, k)`. `None` for XOR and XNOR, which are the sums.
fn as_majority(gate: Gate) -> Option<(bool, bool, bool)> {
    let rows = [(false, false), (false, true), (true, false), (true, true)];
    (0..8u8)
        .map(|bits| (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4))
        .find(|&(na, nb, k)| {
            rows.iter()
                .all(|&(a, b)| gate.eval(a, b) == Gate3::Maj.eval(a ^ na, b ^ nb, k))
        })
}

/// Which nodes of `net` form adder cells: a majority and a parity over the
/// same leaves, whatever the polarities — `MAJ3` and `XOR3` over three, or
/// an AND-family gate and an XOR/XNOR over two, the half adder whose
/// carry-in is a constant. The parity becomes a `Sum` over the majority's
/// operands (a free `NOT` behind it when the polarities differ by an odd
/// count), the majority is what it was, kept unfolded. Only nodes an output
/// needs are paired: a dead majority would cost the bootstrap the parity
/// saves.
fn choose_cells(net: &CircuitNetlist) -> Vec<Option<Override>> {
    let live = reachable(net);
    // The operands of a node as sorted leaves with their polarities, when
    // they are distinct non-constant nodes.
    let leaves_of = |operands: &[usize]| {
        let mut leaves: Vec<(usize, bool)> = operands.iter().map(|&o| strip_nots(net, o)).collect();
        leaves.sort_unstable();
        let distinct = leaves.windows(2).all(|w| w[0].0 != w[1].0);
        let constant = |&(l, _): &(usize, bool)| matches!(net.ops()[l], GateOp::Constant(_));
        (distinct && !leaves.iter().any(constant)).then_some(leaves)
    };
    let cell_over = |leaves: &[(usize, bool)], flips: [bool; 2], carry_in: bool| {
        let mut cell = Cell {
            leaves: [0; 3],
            len: leaves.len(),
            negated: 0,
            carry_in,
        };
        for (i, &(leaf, negated)) in leaves.iter().enumerate() {
            cell.leaves[i] = leaf;
            let flip = leaves.len() == 2 && flips[i];
            cell.negated |= u8::from(negated ^ flip) << i;
        }
        cell
    };
    // What a majority and a parity over the same leaves share.
    let key = |leaves: &[(usize, bool)]| {
        let mut key = [usize::MAX; 3];
        for (slot, &(leaf, _)) in key.iter_mut().zip(leaves) {
            *slot = leaf;
        }
        key
    };
    // Leaves → the first live majority over them.
    let mut carries: HashMap<[usize; 3], (usize, Cell)> = HashMap::new();
    for (id, &op) in net.ops().iter().enumerate() {
        let carry = match op {
            GateOp::Ternary(Gate3::Maj, a, b, c) => {
                leaves_of(&[a, b, c]).map(|l| (l, [false; 2], false))
            }
            GateOp::Binary(gate, a, b) => as_majority(gate).and_then(|(na, nb, k)| {
                // Sorting the two leaves may have swapped the operands.
                let swapped = strip_nots(net, a).0 > strip_nots(net, b).0;
                let flips = if swapped { [nb, na] } else { [na, nb] };
                leaves_of(&[a, b]).map(|l| (l, flips, k))
            }),
            _ => None,
        };
        if let Some((leaves, flips, carry_in)) = carry.filter(|_| live[id]) {
            let cell = cell_over(&leaves, flips, carry_in);
            carries.entry(key(&leaves)).or_insert((id, cell));
        }
    }
    let mut overrides = vec![None; net.len()];
    for (id, &op) in net.ops().iter().enumerate() {
        // The parity's own polarity: its negated operands, and XNOR's.
        let parity = match op {
            GateOp::Ternary(Gate3::Xor3, a, b, c) => leaves_of(&[a, b, c]).map(|l| (l, false)),
            GateOp::Binary(Gate::Xor, a, b) => leaves_of(&[a, b]).map(|l| (l, false)),
            GateOp::Binary(Gate::Xnor, a, b) => leaves_of(&[a, b]).map(|l| (l, true)),
            _ => None,
        };
        let Some((leaves, inverted)) = parity.filter(|_| live[id]) else {
            continue;
        };
        let Some(&(carry, cell)) = carries.get(&key(&leaves)) else {
            continue;
        };
        let own = leaves.iter().filter(|&&(_, n)| n).count() % 2 == 1;
        let sum = (cell.negated.count_ones() % 2 == 1) ^ (cell.len == 2 && cell.carry_in);
        overrides[carry] = Some(Override::Carry(cell));
        overrides[id] = Some(Override::Ride {
            cell,
            negated: own ^ inverted ^ sum,
        });
    }
    overrides
}

/// Rewrite pass state shared by the op emitters in [`simplify`].
struct Rewriter {
    mid: CircuitNetlist,
    /// Pooled constant node per value, once emitted.
    const_node: [Option<usize>; 2],
    /// Canonicalized op → emitted node (CSE).
    seen: HashMap<GateOp, usize>,
    report: SimplifyReport,
}

impl Rewriter {
    fn const_of(&self, id: usize) -> Option<bool> {
        match self.mid.ops()[id] {
            GateOp::Constant(v) => Some(v),
            _ => None,
        }
    }

    /// The pooled constant node for `v`, emitting it on first use.
    fn constant(&mut self, v: bool) -> usize {
        match self.const_node[v as usize] {
            Some(id) => id,
            None => {
                let id = self.mid.constant(v);
                self.const_node[v as usize] = Some(id);
                id
            }
        }
    }

    /// `NOT a`, through [`Rewriter::emit`].
    fn not(&mut self, a: usize) -> usize {
        self.emit(GateOp::Not(a))
    }

    /// Emits (or aliases) an op over already-rewritten operands, restricted
    /// to those that are not constants ([`GateOp::restrict`]): a constant,
    /// an alias, a free `NOT` or a cheaper gate wherever one is, a `NOT` of a
    /// `NOT` collapsed. Restricting a `NOT` is bit-exact — the `false`/`true`
    /// encodings are symmetric (±1/8), and wrapping negation is an
    /// involution — restricting a bootstrapped op is not: its output was a
    /// fresh bootstrap.
    fn emit(&mut self, op: GateOp) -> usize {
        let restricted = op.restrict(|o| self.const_of(o));
        if op
            .operands()
            .into_iter()
            .flatten()
            .any(|o| self.const_of(o).is_some())
        {
            self.report.folded_constants += 1;
            self.report.exact &= op.bootstraps() == 0;
        }
        match restricted {
            Restricted::Const(v) => self.constant(v),
            Restricted::Wire {
                node,
                negated: false,
            } => node,
            Restricted::Wire {
                node,
                negated: true,
            } => match self.mid.ops()[node] {
                GateOp::Not(x) => {
                    self.report.collapsed_nots += 1;
                    x
                }
                _ => self.dedup_or(GateOp::Not(node)),
            },
            Restricted::Op(op) => self.dedup_or(op),
        }
    }

    /// The majority of an adder cell over already-rewritten operands: kept
    /// a three-input gate on one constant (a half adder's carry-in, which
    /// [`Rewriter::emit`] would restrict to an AND or an OR with nothing to
    /// ride on), restricted on more.
    fn carry(&mut self, operands: [usize; 3]) -> usize {
        let [a, b, c] = operands;
        let op = GateOp::Ternary(Gate3::Maj, a, b, c);
        let constants = operands.iter().filter(|&&o| self.const_of(o).is_some());
        if constants.count() > 1 {
            self.emit(op)
        } else {
            self.dedup_or(op)
        }
    }

    /// The parity of already-rewritten operands as a `Sum`, where the
    /// netlist so far holds a majority over them for it to ride on (or the
    /// very sum); as an `XOR3` of its own otherwise.
    fn sum(&mut self, operands: [usize; 3]) -> usize {
        let [a, b, c] = operands;
        let op = canonical(GateOp::Sum(a, b, c));
        if self.seen.contains_key(&op) || self.mid.free_host(operands).is_ok() {
            self.dedup_or(op)
        } else {
            self.emit(GateOp::Ternary(Gate3::Xor3, a, b, c))
        }
    }

    /// The operand nodes of `cell`, `alias` mapping its leaves into the
    /// netlist being emitted.
    fn cell_operands(&mut self, cell: Cell, alias: &[usize]) -> [usize; 3] {
        let mut operands = [0; 3];
        for i in 0..cell.len {
            let leaf = alias[cell.leaves[i]];
            operands[i] = if cell.negated >> i & 1 == 1 {
                self.not(leaf)
            } else {
                leaf
            };
        }
        if cell.len == 2 {
            operands[2] = self.constant(cell.carry_in);
        }
        operands
    }

    /// Emits `op` (a gate, not a source) in canonical form unless a
    /// structurally identical node exists (then aliases it — bit-exact,
    /// bootstrapping is deterministic).
    fn dedup_or(&mut self, op: GateOp) -> usize {
        let op = canonical(op);
        if let Some(&id) = self.seen.get(&op) {
            self.report.deduplicated += 1;
            return id;
        }
        let id = self.mid.add(op);
        self.seen.insert(op, id);
        id
    }
}

/// The forward pass of [`simplify`]: `net` re-emitted op by op through the
/// folding, `NOT`-collapsing and deduplicating emitters, except where
/// `overrides` puts a fused gate or a part of an adder cell in a node's
/// place. A majority that hosts a `Sum` stays its host unless more than
/// its carry-in folds; a `Sum` whose host did fold is the `XOR3` it was.
fn rewrite(
    net: &CircuitNetlist,
    overrides: &[Option<Override>],
    report: SimplifyReport,
) -> (CircuitNetlist, SimplifyReport) {
    let mut rw = Rewriter {
        mid: CircuitNetlist::new(),
        const_node: [None, None],
        seen: HashMap::new(),
        report,
    };
    // A majority whose sum no output reads is a gate like any other.
    let live = reachable(net);
    // Old node → new node.
    let mut alias: Vec<usize> = Vec::with_capacity(net.len());
    for (id, &op) in net.ops().iter().enumerate() {
        let new_id = match (overrides.get(id).copied().flatten(), op) {
            (Some(Override::Fuse(fusion)), _) => {
                let mut operands = fusion.leaves.map(|leaf| alias[leaf]);
                for (i, operand) in operands.iter_mut().enumerate() {
                    if fusion.negated >> i & 1 == 1 {
                        *operand = rw.not(*operand);
                    }
                }
                rw.emit(fusion.gate.map_operands(|i| operands[i]))
            }
            (Some(Override::Carry(cell)), _) => {
                let operands = rw.cell_operands(cell, &alias);
                rw.carry(operands)
            }
            (Some(Override::Ride { cell, negated }), _) => {
                let operands = rw.cell_operands(cell, &alias);
                rw.carry(operands);
                let sum = rw.sum(operands);
                if negated {
                    rw.not(sum)
                } else {
                    sum
                }
            }
            (None, GateOp::Input(_)) => rw.mid.input(),
            (None, GateOp::Constant(v)) => {
                let pooled = rw.const_node[v as usize].is_some();
                if pooled {
                    rw.report.deduplicated += 1;
                }
                rw.constant(v)
            }
            (None, GateOp::Ternary(_, a, b, c)) if net.rider_of(id).is_some_and(|s| live[s]) => {
                rw.carry([alias[a], alias[b], alias[c]])
            }
            (None, GateOp::Sum(a, b, c)) => rw.sum([alias[a], alias[b], alias[c]]),
            (None, _) => rw.emit(op.map_operands(|o| alias[o])),
        };
        alias.push(new_id);
    }
    for &out in net.outputs() {
        rw.mid.mark_output(alias[out]);
    }
    (rw.mid, rw.report)
}

/// Rewrites `net` into an output-equivalent netlist with fewer (never
/// more) bootstraps, applying the safe subset of the [`lint`] findings,
/// then fusing what one bootstrap can compute, then letting sums ride:
///
/// * **Constant folding / partial evaluation** — gates, `NOT`s, and muxes
///   with constant operands become constants, aliases, free `NOT`s, or
///   (for one-constant-arm muxes and one-constant ternary gates) a single
///   binary gate — each op's [`GateOp::restrict`], the rule the circuit
///   library's builder emits by.
/// * **Double-`NOT` collapse** — `NOT(NOT(x))` aliases `x`.
/// * **CSE** — structurally identical ops (up to operand order for the
///   six commutative gates, the ternary ones and sums) are computed once.
/// * **Fusion** — over the netlist so rewritten, every node's cuts of at
///   most three leaves are enumerated with their truth tables; a binary
///   gate or mux one of whose cuts computes a [`Gate3`] — majority under
///   any polarity of its leaves, three-input XOR or XNOR — becomes that
///   gate over the leaves, through free `NOT`s where the polarity asks, and
///   one with a cut over two leaves (other than its own operands) becomes
///   the two-input [`Gate`] with that table — all ten non-degenerate ones
///   exist. A full adder's sum and carry are one bootstrap each instead of
///   five together. The fused gate replaces one bootstrap or two by one and
///   reads nodes that were already there, so bootstraps and depth never
///   grow; but a three-input gate decides on a sum of three operands, not
///   two, at the same margin, so its failure bound is *larger* — a caller
///   with a noise budget must certify the result ([`analyze`]), as
///   `CircuitServer`'s admission does.
/// * **Riding** — a parity and a majority over the same leaves, whatever
///   their polarities, are an adder cell: the parity becomes the free
///   `Sum` over the majority's operands (through a free `NOT` when the
///   polarities differ by an odd count) and costs no bootstrap, the
///   majority's blind rotation computing both; an XOR/XNOR and an
///   AND-family gate over two leaves are the cell whose carry-in is a
///   constant. A `Sum` is not a noise reset — it carries its operands'
///   variance and two blind rotations' — so this, too, is certified at
///   admission, and [`demote_sums`] is the way back.
/// * **Dead-code removal** — nodes no output depends on are swept,
///   including the interior gates of fused cones nothing else reads.
///
/// Folding rewrites cascade in one forward pass (folding a gate can make
/// its consumer foldable). Every input node is preserved in slot order, so
/// the simplified netlist takes the same input vector; outputs are
/// remapped and stay in marking order. Muxes with identical (non-constant)
/// arms are *not* folded — aliasing the arm would skip a noise reset —
/// they are only linted.
///
/// The returned [`SimplifyReport`] says what fired and whether the result
/// is bit-identical to the original ([`SimplifyReport::exact`]) or
/// decrypt-equivalent only.
pub fn simplify(net: &CircuitNetlist) -> (CircuitNetlist, SimplifyReport) {
    let mut report = SimplifyReport {
        nodes_before: net.len(),
        bootstraps_before: net.bootstraps(),
        exact: true,
        ..SimplifyReport::default()
    };
    // To a fixpoint, so that the result is one: a fused gate reads lower
    // leaves than what it replaced, which can put a consumer's cone within
    // three leaves' reach, and a majority whose sum a fusion orphaned is a
    // gate to fold again. Every step folds a node away, saves a bootstrap or
    // has a root read strictly deeper into its cone, so this ends — the
    // round count is bounded all the same.
    let mut out = simplify_once(net, &mut report);
    for _ in 0..net.len() {
        let next = simplify_once(&out, &mut report);
        if next == out {
            break;
        }
        out = next;
    }
    report.nodes_after = out.len();
    report.bootstraps_after = out.bootstraps();
    let sums = |op: &&GateOp| matches!(op, GateOp::Sum(..));
    report.riding = out.ops().iter().filter(sums).count();
    (out, report)
}

/// One round of [`simplify`]: fold and deduplicate, fuse, pair, sweep.
fn simplify_once(net: &CircuitNetlist, report: &mut SimplifyReport) -> CircuitNetlist {
    let (mut mid, folded) = rewrite(net, &[], *report);
    *report = folded;
    let fusions = choose_fusions(&mid);
    let fused = fusions.iter().flatten().count();
    if fused > 0 {
        // `mid` is already folded and deduplicated: all this pass can count
        // is a `NOT` it introduced meeting one of the netlist's own.
        (mid, _) = rewrite(&mid, &fusions, SimplifyReport::default());
    }
    let cells = choose_cells(&mid);
    let paired = cells.iter().any(Option::is_some);
    if paired {
        (mid, _) = rewrite(&mid, &cells, SimplifyReport::default());
    }
    report.fused += fused;
    if fused > 0 || paired {
        report.exact = false;
    }

    // Sweep dead nodes (inputs always stay — the simplified netlist must
    // take the original input vector positionally).
    let live = reachable(&mid);
    let mut out = CircuitNetlist::new();
    let mut remap: Vec<Option<usize>> = Vec::with_capacity(mid.len());
    for (id, &op) in mid.ops().iter().enumerate() {
        let keep = live[id] || matches!(op, GateOp::Input(_));
        if !keep {
            report.dead_removed += 1;
            remap.push(None);
            continue;
        }
        let kept = op.map_operands(|x| remap[x].expect("live operand kept"));
        remap.push(Some(out.add(kept)));
    }
    for &o in mid.outputs() {
        out.mark_output(remap[o].expect("outputs are live"));
    }
    out
}

/// `net` with every riding `Sum` back on a bootstrap of its own — the
/// three-input XOR over the same operands, node for node: the form that
/// resets the sum's noise, for when the riding netlist misses a noise
/// budget. The majorities stay as they are.
pub fn demote_sums(net: &CircuitNetlist) -> CircuitNetlist {
    let ops = net.ops().iter().map(|&op| match op {
        GateOp::Sum(a, b, c) => GateOp::Ternary(Gate3::Xor3, a, b, c),
        other => other,
    });
    CircuitNetlist::from_parts(ops.collect(), net.outputs().to_vec())
        .expect("replacing a free op by a gate over the same operands keeps a netlist valid")
}

/// The worst-case per-operation noise variances of this crate's gate
/// bootstrap pipeline, derived from a [`ParameterSet`] and the
/// bootstrapping-key unroll factor `m`. All variances are in squared
/// torus units (the torus is `[-1/2, 1/2)`).
///
/// The model mirrors the implementation, not a generic TFHE bound:
///
/// * **Blind rotate** ([`NoiseModel::v_blind_rotate`]) — `⌈n/m⌉`
///   external products, each against a bundle `1 + Σ_p (X^{e_p} − 1)·BK_p`
///   over the group's `2^m − 1` pattern keys. A pattern key's row carries
///   the ring noise it was encrypted with plus what storing it added: the
///   key is kept in 32-bit words of `2^e` torus units
///   ([`matcha_fft::key_exponent`]), narrowed so that only the body's
///   rounding reaches the phase ([`crate::bku`]) — a uniform step of `2^e`
///   per spectral component, `(2^e/2³²)²/12` each, which the inverse
///   transform averages over `N/2` points: `4^e/(6N)` raw units² per
///   coefficient. Scaling a key by `X^e − 1` doubles its per-coefficient
///   noise variance, every nonempty pattern is charged, digits are taken at
///   the worst-case magnitude `Bg/2`, and the gadget's `ℓ`-level
///   approximation contributes `(1 + N)·(2^{-ℓ·log Bg})²` per product.
/// * **Key switch** (`v_key_switch`) — digit multiples are
///   pre-encrypted (`KeySwitchKey` stores `v·s′_i/2^{(j+1)γ}` entries), so
///   each of the `N·t` digits subtracts exactly one fresh-noise sample;
///   rounding each coefficient to `t·γ` bits adds a half-step per
///   coefficient, all `N` charged.
/// * **Mod switch** (`v_mod_switch`) — rounding `n + 1`
///   torus coefficients to multiples of `1/2N`, uniform within a step.
///
/// A bootstrap switches its input first, so the key switch and the mod
/// switch are charged to the *decision*
/// ([`decision_failure`](NoiseModel::decision_failure)), and a value never
/// carries a switch: a fresh input carries the ring noise it was encrypted
/// with ([`v_fresh`](NoiseModel::v_fresh)), a bootstrapped gate output
/// (two inputs or three) [`v_bootstrapped`](NoiseModel::v_bootstrapped)
/// `= v_blind_rotate` regardless of its inputs (the reset that makes
/// gate-level TFHE compose), a mux output two blind rotations, and the
/// riding sum of an adder cell its operands' noise on top of two — **not**
/// a reset ([`sum_variance`](NoiseModel::sum_variance)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    v_fresh: f64,
    v_blind_rotate: f64,
    v_key_switch: f64,
    v_mod_switch: f64,
    /// `1/2N`: how far the decision of accumulator coefficient `j` sits
    /// from coefficient 0's, per `j`.
    coefficient_step: f64,
}

/// Margin charged to the final decryption of each output: the symmetric
/// ±1/8 encoding decides on the sign, so an error of 1/8 toward the
/// boundary is what flips a decrypted bit. (The empirical
/// [`noise`](crate::noise) harness documents the tighter 1/16 acceptance
/// threshold it checks samples against; the decision margin itself is
/// 1/8.)
const DECRYPT_MARGIN: f64 = 0.125;
/// The highest accumulator coefficient an adder cell's sum reads: it
/// decides `2/2N` closer to the boundary than coefficient 0 does.
const SUM_COEFFICIENT: f64 = 2.0;

impl NoiseModel {
    /// Builds the model for `params` at bootstrapping-key unroll `m`.
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is outside `1..=8` (the [`ServerKey`] bound).
    ///
    /// [`ServerKey`]: crate::gates::ServerKey
    pub fn new(params: &ParameterSet, unroll: usize) -> Self {
        assert!(
            (1..=8).contains(&unroll),
            "unroll factor {unroll} outside 1..=8"
        );
        let n = params.lwe_dimension as f64;
        let big_n = params.ring_degree as f64;
        let groups = params.lwe_dimension.div_ceil(unroll) as f64;
        let patterns = ((1usize << unroll) - 1) as f64;
        let bg = (params.decomp_base_log as f64).exp2();
        let ell = params.decomp_levels as f64;
        // A stored key row: its ring noise, and the body's rounding to
        // words of `2^e` (step² / 12 per spectral component, averaged over
        // the N/2 points a coefficient is the mean of).
        let key_step = (f64::from(matcha_fft::key_exponent(params.ring_degree)) - 32.0).exp2();
        let v_key_row =
            params.ring_noise_stdev * params.ring_noise_stdev + key_step * key_step / (6.0 * big_n);
        // `(X^e − 1)` doubles a pattern key's per-coefficient variance.
        let v_bundle = 2.0 * patterns * v_key_row;
        let eps_bg = (-(params.decomp_base_log as f64 * params.decomp_levels as f64)).exp2();
        let v_blind_rotate = groups
            * (2.0 * ell * big_n * (bg * bg / 4.0) * v_bundle + (1.0 + big_n) * eps_bg * eps_bg);
        let eps_ks = (-(params.ks_base_log as f64 * params.ks_levels as f64)).exp2();
        let v_key_switch =
            big_n * params.ks_levels as f64 * params.lwe_noise_stdev * params.lwe_noise_stdev
                + big_n * (eps_ks / 2.0) * (eps_ks / 2.0);
        let step = 1.0 / (2.0 * big_n);
        let v_mod_switch = (n + 1.0) * step * step / 12.0;
        Self {
            v_fresh: params.ring_noise_stdev * params.ring_noise_stdev,
            v_blind_rotate,
            v_key_switch,
            v_mod_switch,
            coefficient_step: step,
        }
    }

    /// Variance of a fresh input: a client encryption under the extracted
    /// key, or a bit unpacked from a packed upload — both at the ring noise.
    pub fn v_fresh(&self) -> f64 {
        self.v_fresh
    }

    /// Worst-case variance added by one blind rotation.
    pub fn v_blind_rotate(&self) -> f64 {
        self.v_blind_rotate
    }

    /// Variance of a bootstrapped gate output: one blind rotation,
    /// extracted — independent of the inputs: the noise reset.
    pub fn v_bootstrapped(&self) -> f64 {
        self.v_blind_rotate
    }

    /// Variance of a mux output: two bootstraps' outputs summed.
    pub fn v_mux_output(&self) -> f64 {
        2.0 * self.v_blind_rotate
    }

    /// A Gaussian tail bound on the probability that an error of the
    /// given variance exceeds `margin` in absolute value:
    /// `min(1, 2·exp(−margin²/2σ²))`. This dominates the exact
    /// `erfc(margin/σ√2)` for every useful margin (z ≳ 0.8), so the
    /// certificate stays a true upper bound. Zero variance means zero
    /// failure probability (trivial ciphertexts).
    fn tail_bound(margin: f64, variance: f64) -> f64 {
        if variance <= 0.0 {
            return 0.0;
        }
        let z2 = margin * margin / variance;
        (2.0 * (-z2 / 2.0).exp()).min(1.0)
    }

    /// Failure-probability bound of one gate's bootstrap decision, from
    /// its record: the margin against `Σ wᵢ²·vᵢ` — operand `i`'s variance
    /// `variances[i]` through its weight in the linear part — plus the key
    /// switch and the mod switch the linear part goes through before the
    /// blind rotation reads it.
    pub fn decision_failure(&self, desc: &GateDesc, variances: &[f64]) -> f64 {
        debug_assert_eq!(variances.len(), desc.arity, "{}", desc.name);
        let terms = desc.weights.iter().zip(variances);
        let v = terms.fold(0.0, |v, (&w, &vi)| v + f64::from(w * w) * vi);
        Self::tail_bound(desc.margin, v + self.v_key_switch + self.v_mod_switch)
    }

    /// Summed failure bound of a mux's two bootstrap decisions, one per
    /// lane: `AND(sel, a)` and `AND(¬sel, b)`.
    fn mux_failure(&self, v_sel: f64, va: f64, vb: f64) -> f64 {
        self.decision_failure(Gate::And.desc(), &[v_sel, va])
            + self.decision_failure(Gate::AndNY.desc(), &[v_sel, vb])
    }

    /// Failure bound of decrypting a value of variance `v`: the tail past
    /// the 1/8 margin. The encoding is `±1/8` and decryption reads the
    /// sign, so 1/8 toward zero is what flips the bit — every certificate
    /// is computed at this margin; 1/16 is the stricter threshold the
    /// empirical [`noise`](crate::noise) harness accepts *samples* against,
    /// not a bound of this model.
    pub fn decrypt_failure(&self, v: f64) -> f64 {
        Self::tail_bound(DECRYPT_MARGIN, v)
    }

    /// Variance of an adder cell's riding sum over operands of variances
    /// `va`, `vb`, `vc`: the linear part it keeps — the operands', at unit
    /// coefficients, under the extracted key and never switched — minus the
    /// twin, two extracted coefficients of the host's accumulator (two
    /// blind rotations' worth). Not a reset: the operands' noise stays,
    /// which is what the next consumer decides on and what the client
    /// decrypts.
    ///
    /// Like [`v_mux_output`](NoiseModel::v_mux_output)'s two lanes, the two
    /// coefficients are charged as independent. They are distinct
    /// coefficients of one accumulator, so what could correlate them is a
    /// structured digit polynomial, and the only one is the body's top
    /// level (`±128` everywhere, the rotated constant test vector) against
    /// `Bg²/12` for the other five — 3.6 % of a step's variance — while
    /// the model's `Bg²/4` digit bound leaves a factor 3 over the measured
    /// per-coefficient variance (4.0e-5 … 4.6e-5 at the paper's parameters,
    /// pairwise `|ρ| ≤ 0.064` over coefficients 0, 1, 2 in 600-cell
    /// chains). Doubling the carry's output instead would put
    /// `4·v_bootstrapped` on top of the operands, which a chained cell's
    /// decryption misses the default budget with at every unroll.
    pub fn sum_variance(&self, va: f64, vb: f64, vc: f64) -> f64 {
        va + vb + vc + 2.0 * self.v_blind_rotate
    }

    /// Failure bound of the two extra decisions an adder cell's sum rests
    /// on: accumulator coefficient `j` is the sign of the host's switched
    /// linear part at a phase shifted by `j/2N`, so coefficients 1 and 2
    /// each decide at a margin up to `2/2N` short of the majority's 1/8 —
    /// two terms of the union bound on top of the host's own
    /// [`decision_failure`](NoiseModel::decision_failure), under the same
    /// independence as [`sum_variance`](NoiseModel::sum_variance).
    pub fn sum_failure(&self, va: f64, vb: f64, vc: f64) -> f64 {
        let margin = Gate3::Maj.desc().margin - SUM_COEFFICIENT * self.coefficient_step;
        let v = va + vb + vc + self.v_key_switch + self.v_mod_switch;
        2.0 * Self::tail_bound(margin, v)
    }
}

/// The analytic noise certificate for one marked output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutputNoise {
    /// The output's node index in the netlist.
    pub node: usize,
    /// Worst-case variance of the output's value.
    pub variance: f64,
    /// Union bound on the probability that this output decrypts wrong:
    /// the sum of every bootstrap-decision failure bound in the output's
    /// backward cone, plus the final decryption tail. Clamped to 1.
    pub failure_prob: f64,
}

/// The noise section of a [`NetlistReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseReport {
    /// Worst-case value variance per node, in netlist order.
    pub node_variance: Vec<f64>,
    /// Per-output certificates, in marking order.
    pub outputs: Vec<OutputNoise>,
    /// The parameter-derived model the certificates used.
    pub model: NoiseModel,
}

impl NoiseReport {
    /// The largest per-output failure bound (0 when nothing is marked).
    pub(crate) fn max_failure_prob(&self) -> f64 {
        self.outputs
            .iter()
            .map(|o| o.failure_prob)
            .fold(0.0, f64::max)
    }
}

fn noise_report(net: &CircuitNetlist, model: NoiseModel) -> NoiseReport {
    let n = net.len();
    let mut variance = vec![0.0f64; n];
    // Failure bound of each node's own bootstrap decisions (0 for free ops).
    let mut decision = vec![0.0f64; n];
    for (id, &op) in net.ops().iter().enumerate() {
        match op {
            GateOp::Input(_) => variance[id] = model.v_fresh(),
            GateOp::Constant(_) => variance[id] = 0.0,
            GateOp::Not(a) => variance[id] = variance[a],
            GateOp::Mux { sel, a, b } => {
                decision[id] = model.mux_failure(variance[sel], variance[a], variance[b]);
                variance[id] = model.v_mux_output();
            }
            GateOp::Sum(a, b, c) => {
                decision[id] = model.sum_failure(variance[a], variance[b], variance[c]);
                variance[id] = model.sum_variance(variance[a], variance[b], variance[c]);
            }
            _ => {
                let (desc, operands) = op.gate().expect("every other op is a gate");
                let v = operands.map(|o| variance[o]);
                decision[id] = model.decision_failure(desc, &v[..desc.arity]);
                variance[id] = model.v_bootstrapped();
            }
        }
    }
    let mut outputs = Vec::with_capacity(net.outputs().len());
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &out in net.outputs() {
        // Union bound over the output's backward cone.
        seen.iter_mut().for_each(|s| *s = false);
        let mut p = model.decrypt_failure(variance[out]);
        seen[out] = true;
        stack.push(out);
        while let Some(id) = stack.pop() {
            p += decision[id];
            for operand in net.ops()[id].operands().into_iter().flatten() {
                if !seen[operand] {
                    seen[operand] = true;
                    stack.push(operand);
                }
            }
        }
        outputs.push(OutputNoise {
            node: out,
            variance: variance[out],
            failure_prob: p.min(1.0),
        });
    }
    NoiseReport {
        node_variance: variance,
        outputs,
        model,
    }
}

/// The cost section of a [`NetlistReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostReport {
    /// Total gate bootstraps (the schedule-skeleton unit count).
    pub bootstraps: usize,
    /// Wave depth (free `NOT`s add none).
    pub depth: usize,
    /// Longest dependency chain in bootstrap units — equals
    /// `accel::schedule::Netlist::from_deps(skeleton).critical_path()`.
    pub critical_path_units: usize,
    /// Critical-path priority rank per *node*, in bootstrap units: the
    /// length of the longest downstream chain including the node's own
    /// bootstraps (binary and ternary 1, mux 2, free ops 0). A frontier scheduler
    /// dispatching highest-rank-first is critical-path-first; sources and
    /// `NOT`s carry the rank of their longest consumer chain.
    pub node_ranks: Vec<usize>,
}

fn cost_report(net: &CircuitNetlist) -> CostReport {
    let units = net.schedule_skeleton();
    // Unit-level ranks: longest chain (in units, inclusive) to any sink.
    let mut unit_rank = vec![1usize; units.len()];
    for u in (0..units.len()).rev() {
        let r = unit_rank[u];
        for &d in &units[u] {
            unit_rank[d] = unit_rank[d].max(r + 1);
        }
    }
    // Re-derive the node → unit mapping the skeleton used (mirrors
    // `CircuitNetlist::schedule_skeleton`'s construction order: one unit per
    // bootstrap, a mux's two chained).
    let mut next_unit = 0usize;
    let mut node_units: Vec<Option<(usize, usize)>> = Vec::with_capacity(net.len());
    for op in net.ops() {
        node_units.push(match op.bootstraps() {
            0 => None,
            units => {
                next_unit += units;
                Some((next_unit - units, next_unit - 1))
            }
        });
    }
    debug_assert_eq!(next_unit, units.len());
    let mut ranks = vec![0usize; net.len()];
    for (id, &op) in net.ops().iter().enumerate().rev() {
        if let Some((first, _)) = node_units[id] {
            ranks[id] = ranks[id].max(unit_rank[first]);
        }
        let own = ranks[id];
        // What reads a sum waits for the bootstrap it rides on.
        if let Some(host) = net.host_of(id) {
            ranks[host] = ranks[host].max(own);
        }
        for (pos, operand) in op.operands().into_iter().enumerate() {
            let Some(o) = operand else { continue };
            // A mux's `b` arm only feeds its second unit; everything else
            // chains through the node's full rank.
            let contribution = match (op, pos) {
                (GateOp::Mux { .. }, 2) => unit_rank[node_units[id].expect("mux has units").1],
                _ => own,
            };
            ranks[o] = ranks[o].max(contribution);
        }
    }
    CostReport {
        bootstraps: net.bootstraps(),
        depth: net.depth(),
        critical_path_units: unit_rank.iter().copied().max().unwrap_or(0),
        node_ranks: ranks,
    }
}

/// The full machine-readable result of [`analyze`].
#[derive(Clone, Debug, PartialEq)]
pub struct NetlistReport {
    /// Structural findings (see [`lint`]).
    pub lints: Vec<Lint>,
    /// Per-output analytic noise certificates.
    pub noise: NoiseReport,
    /// Bootstrap counts, depth, and priority ranks.
    pub cost: CostReport,
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

/// Analyzes `net` in one pass: structural [`lint`]s, analytic per-output
/// noise certification under `params` at bootstrapping-key unroll
/// `unroll`, and critical-path cost analysis.
///
/// # Panics
///
/// Panics if `unroll` is outside `1..=8` (the `ServerKey` bound).
pub fn analyze(net: &CircuitNetlist, params: &ParameterSet, unroll: usize) -> NetlistReport {
    let model = NoiseModel::new(params, unroll);
    NetlistReport {
        lints: lint(net),
        noise: noise_report(net, model),
        cost: cost_report(net),
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
    /// When set, the server runs its rewrite pass (by default
    /// [`simplify`]) on every admitted netlist and **proves** the result
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
        let c = cost_report(&net);
        assert_eq!((c.bootstraps, c.critical_path_units), (4, 2));
        assert_eq!(c.node_ranks[m1], 2);
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
        // Ranks and units: the sum costs none, its readers wait for its host.
        let cost = cost_report(&net);
        assert_eq!((cost.bootstraps, cost.critical_path_units), (2, 2));
        assert_eq!((cost.node_ranks[m], cost.node_ranks[s]), (2, 1));
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
    fn cost_ranks_match_units() {
        // XOR → AND chain: ranks descend along the chain.
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g1 = net.gate(Gate::Xor, a, b);
        let g2 = net.gate(Gate::And, g1, b);
        let g3 = net.gate(Gate::Or, g2, a);
        net.mark_output(g3);
        let c = cost_report(&net);
        assert_eq!(c.bootstraps, 3);
        assert_eq!(c.critical_path_units, 3);
        assert_eq!(c.node_ranks[g1], 3);
        assert_eq!(c.node_ranks[g2], 2);
        assert_eq!(c.node_ranks[g3], 1);
        assert_eq!(c.node_ranks[a], 3, "source rank = longest chain below");
    }

    #[test]
    fn cost_ranks_charge_mux_as_two_units() {
        let mut net = CircuitNetlist::new();
        let s = net.input();
        let a = net.input();
        let b = net.input();
        let m = net.mux(s, a, b);
        let g = net.gate(Gate::And, m, a);
        net.mark_output(g);
        let c = cost_report(&net);
        assert_eq!(c.critical_path_units, 3);
        assert_eq!(c.node_ranks[m], 3, "two mux units + the AND");
        assert_eq!(c.node_ranks[s], 3);
        assert_eq!(c.node_ranks[a], 3, "a feeds the first mux unit");
        assert_eq!(c.node_ranks[b], 2, "b only feeds the second mux unit");
    }

    #[test]
    fn cost_ranks_not_is_transparent() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g1 = net.gate(Gate::And, a, b);
        let n = net.not(g1);
        let g2 = net.gate(Gate::Or, n, b);
        net.mark_output(g2);
        let c = cost_report(&net);
        assert_eq!(c.node_ranks[n], 1, "NOT carries its consumer's rank");
        assert_eq!(c.node_ranks[g1], 2);
        assert_eq!(c.critical_path_units, 2);
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
        assert_eq!(report.cost.bootstraps, 2);
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
