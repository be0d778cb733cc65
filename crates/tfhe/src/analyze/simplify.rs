//! The rewriter: folding, deduplication, cut-based fusion and riding sums.

use super::lint::{canonical, reachable};
use crate::circuit::{CircuitNetlist, GateOp, Restricted};
use crate::gates::{Gate, Gate3};
use std::collections::HashMap;

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
/// more) bootstraps, applying the safe subset of the [`lint`](fn@super::lint) findings,
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
///   with a noise budget must certify the result ([`analyze`](fn@super::analyze)), as
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
