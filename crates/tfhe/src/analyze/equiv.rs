//! Formal combinational equivalence checking for [`CircuitNetlist`]s on a
//! small reduced-ordered BDD engine — the proof layer every netlist
//! rewrite ([`simplify`](super::simplify), its three-input gate fusion
//! included) must pass through before the server schedules its output.
//!
//! # BDD representation
//!
//! Functions are reduced ordered binary decision diagrams with
//! **complement edges**: a `BddRef` packs a node index and a negation
//! bit, so `NOT` is free (flip the bit) and a function and its complement
//! share every node. Canonical form is enforced structurally:
//!
//! * no node has identical children (`mk` returns the child instead),
//! * the *then* edge of every stored node is regular (never complemented) —
//!   `mk` pushes the complement outward — so each function has exactly one
//!   representation,
//! * a **unique table** interns `(var, then, else)` triples, making
//!   equivalence checking a pointer comparison: two netlist outputs compute
//!   the same Boolean function **iff** they compile to the same `BddRef`.
//!
//! All Boolean structure is built through a single memoized `ite`
//! (if-then-else) operator with the standard terminal rules and
//! complement-edge normalizations, so the op-cache is shared across the
//! mux and every gate, each compiled from its record's truth table.
//!
//! # Variable order
//!
//! The order is static (no sifting), derived from the netlist's
//! topological levels: inputs are ordered by the level of the earliest
//! gate that consumes them, tie-broken by that gate's position and then by
//! input slot. For word-level lowerings this interleaves the operand
//! words the way their bits actually meet (e.g. `a0,b0,a1,b1,…` for a
//! ripple adder, where the carry chain keeps BDDs linear-sized), without
//! the caller declaring word boundaries.
//!
//! # Budget semantics
//!
//! BDD sizes are worst-case exponential, and remote netlists are
//! adversarial, so every check runs under an [`EquivBudget`]: a cap on
//! unique-table nodes and on input count. Exceeding either cap **degrades
//! to [`Verdict::Unknown`]** — never a panic, never unbounded memory — and
//! admission policies treat `Unknown` as a [`Severity::Warning`]-level
//! finding ([`LintKind::EquivUnknown`]): strict servers reject it, default
//! servers admit the *submitted* netlist (an unproven rewrite is never
//! scheduled).
//!
//! [`Severity::Warning`]: super::Severity::Warning
//! [`LintKind::EquivUnknown`]: super::LintKind::EquivUnknown

use crate::circuit::{CircuitNetlist, GateOp};
use crate::gates::Gate3;
use std::collections::HashMap;
use std::fmt;

/// Cost caps for one equivalence check. Exceeding either cap makes the
/// check return [`Verdict::Unknown`] instead of growing without bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EquivBudget {
    /// Maximum unique-table nodes across the whole check (both netlists
    /// share one table). Each node is a `(var, then, else)` triple.
    pub max_nodes: usize,
    /// Maximum number of netlist inputs (BDD variables). Checks over more
    /// inputs than this are refused up front.
    pub max_inputs: usize,
}

impl Default for EquivBudget {
    /// 2²⁰ nodes and 64 inputs: every shipped library lowering (including
    /// the 8×8 schoolbook multiplier and a full processor cycle) verifies
    /// well inside this, while an adversarial netlist is cut off around
    /// tens of megabytes of table.
    fn default() -> Self {
        Self {
            max_nodes: 1 << 20,
            max_inputs: 64,
        }
    }
}

/// Why a check came back [`Verdict::Unknown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The unique table hit [`EquivBudget::max_nodes`].
    NodeBudget {
        /// The cap that was hit.
        max_nodes: usize,
    },
    /// The netlists have more inputs than [`EquivBudget::max_inputs`].
    InputBudget {
        /// The netlists' input count.
        inputs: usize,
        /// The cap it exceeded.
        max_inputs: usize,
    },
    /// The two sides are not comparable per-output: their input or output
    /// counts differ, so "same function per output" is not even
    /// well-posed.
    ShapeMismatch {
        /// `(left, right)` input counts.
        inputs: (usize, usize),
        /// `(left, right)` output counts.
        outputs: (usize, usize),
    },
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::NodeBudget { max_nodes } => {
                write!(f, "BDD node budget of {max_nodes} exhausted")
            }
            UnknownReason::InputBudget { inputs, max_inputs } => {
                write!(f, "{inputs} inputs exceed the budget of {max_inputs}")
            }
            UnknownReason::ShapeMismatch { inputs, outputs } => write!(
                f,
                "shapes are not comparable: {} vs {} inputs, {} vs {} outputs",
                inputs.0, inputs.1, outputs.0, outputs.1
            ),
        }
    }
}

/// A concrete input assignment distinguishing two netlists, in netlist
/// input-slot order, with a word partition for human-readable rendering.
///
/// `Display` renders the assignment as per-input-word hex —
/// `in[0]=0x3a in[1]=0x07` — with bits LSB-first inside each word
/// (the word convention of every `circuits::netlist` lowering). When the
/// word structure is unknown (e.g. a remote netlist at admission), the
/// partition defaults to bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// One bit per netlist input slot.
    pub bits: Vec<bool>,
    /// Word widths partitioning `bits` (each `1..=128`, summing to
    /// `bits.len()`), used only for rendering.
    pub widths: Vec<u8>,
}

/// The widest word [`Counterexample`] rendering supports (a `u128`).
pub(crate) const MAX_WORD_WIDTH: usize = 128;

/// Splits `n` bits into byte-sized words with a trailing remainder — the
/// rendering fallback when no word structure is known.
fn byte_partition(n: usize) -> Vec<u8> {
    let mut widths = vec![8u8; n / 8];
    if !n.is_multiple_of(8) {
        widths.push((n % 8) as u8);
    }
    widths
}

impl Counterexample {
    /// Wraps an assignment with the default byte partition.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        let widths = byte_partition(bits.len());
        Self { bits, widths }
    }

    /// Wraps an assignment with an explicit word partition.
    ///
    /// # Panics
    ///
    /// Panics unless every width is `1..=MAX_WORD_WIDTH` and the widths
    /// sum to `bits.len()`.
    pub fn with_widths(bits: Vec<bool>, widths: Vec<u8>) -> Self {
        assert!(
            widths
                .iter()
                .all(|&w| w >= 1 && (w as usize) <= MAX_WORD_WIDTH),
            "word widths must be 1..={MAX_WORD_WIDTH}"
        );
        assert_eq!(
            widths.iter().map(|&w| w as usize).sum::<usize>(),
            bits.len(),
            "word widths must partition the assignment"
        );
        Self { bits, widths }
    }

    /// The assignment's words as values, LSB-first within each word.
    pub(crate) fn words(&self) -> Vec<u128> {
        let mut out = Vec::with_capacity(self.widths.len());
        let mut offset = 0;
        for &w in &self.widths {
            out.push(word_at(&self.bits, offset, w as usize));
            offset += w as usize;
        }
        out
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits.is_empty() {
            return f.write_str("(no inputs)");
        }
        for (i, (value, &width)) in self.words().iter().zip(&self.widths).enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            let digits = (width as usize).div_ceil(4);
            write!(f, "in[{i}]=0x{value:0digits$x}")?;
        }
        Ok(())
    }
}

/// Reads a word value from a flat bit assignment: `width` bits starting
/// at `offset`, LSB first — the inverse of how every word-level lowering
/// lays its operands out. A helper for [`Spec`] closures.
///
/// # Panics
///
/// Panics if the range is out of bounds or `width > MAX_WORD_WIDTH`.
pub fn word_at(bits: &[bool], offset: usize, width: usize) -> u128 {
    assert!(width <= MAX_WORD_WIDTH, "word wider than u128");
    let mut v: u128 = 0;
    for (i, &bit) in bits[offset..offset + width].iter().enumerate() {
        v |= (bit as u128) << i;
    }
    v
}

/// Appends a word's bits to a flat output vector, LSB first — the inverse
/// of [`word_at`]. A helper for [`Spec`] closures.
pub fn push_word(out: &mut Vec<bool>, value: u128, width: usize) {
    assert!(width <= MAX_WORD_WIDTH, "word wider than u128");
    for i in 0..width {
        out.push((value >> i) & 1 == 1);
    }
}

/// The outcome of one equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every output pair computes the same Boolean function, on **all**
    /// input assignments — a proof, not a sample.
    Equivalent,
    /// The sides differ, and here is an input proving it.
    NotEquivalent {
        /// Index (marking order) of the first differing output.
        output: usize,
        /// An assignment on which that output differs.
        counterexample: Counterexample,
    },
    /// The check could not be decided within budget (or the shapes are
    /// not comparable). Says nothing about equivalence either way.
    Unknown {
        /// Why the check gave up.
        reason: UnknownReason,
    },
}

/// What one check did and decided. `Display` gives a one-line summary
/// with the counterexample rendered as per-input-word hex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivReport {
    /// The decision.
    pub verdict: Verdict,
    /// Unique-table nodes built (both sides share the table) — the peak
    /// memory measure an [`EquivBudget::max_nodes`] caps.
    pub nodes: usize,
    /// Outputs proven equal before the verdict was reached (equal to the
    /// output count on [`Verdict::Equivalent`]).
    pub outputs_checked: usize,
}

impl EquivReport {
    /// A [`Verdict::Unknown`] report.
    fn unknown(reason: UnknownReason, nodes: usize, outputs_checked: usize) -> Self {
        Self {
            verdict: Verdict::Unknown { reason },
            nodes,
            outputs_checked,
        }
    }

    /// `true` on [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self.verdict, Verdict::Equivalent)
    }
}

impl fmt::Display for EquivReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Equivalent => write!(
                f,
                "equivalent on all inputs ({} outputs, {} BDD nodes)",
                self.outputs_checked, self.nodes
            ),
            Verdict::NotEquivalent {
                output,
                counterexample,
            } => write!(
                f,
                "NOT equivalent: output {output} differs on {counterexample} ({} BDD nodes)",
                self.nodes
            ),
            Verdict::Unknown { reason } => {
                write!(f, "unknown: {reason} ({} BDD nodes)", self.nodes)
            }
        }
    }
}

/// A reference to a BDD function: node index with a complement bit in the
/// LSB. [`Bdd::TRUE`] is the sole terminal; its complement is `FALSE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct BddRef(u32);

impl BddRef {
    fn new(index: u32, neg: bool) -> Self {
        Self(index << 1 | neg as u32)
    }

    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Free negation: flip the complement bit.
    fn not(self) -> Self {
        Self(self.0 ^ 1)
    }

    /// `self` with `parent_neg` pushed in (for cofactoring through a
    /// complemented reference).
    fn under(self, parent_neg: bool) -> Self {
        Self(self.0 ^ parent_neg as u32)
    }
}

/// One interned decision node: `var ? hi : lo`, with `hi` always regular.
#[derive(Clone, Copy)]
struct BddNode {
    var: u32,
    hi: BddRef,
    lo: BddRef,
}

/// Raised when the unique table would exceed the budget; surfaces as
/// [`Verdict::Unknown`].
struct NodeLimit;

/// The BDD manager: node store, unique table, and the shared `ite`
/// op-cache. All functions in one check live in one manager so
/// equivalence is reference equality.
struct Bdd {
    nodes: Vec<BddNode>,
    unique: HashMap<(u32, BddRef, BddRef), u32>,
    cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    max_nodes: usize,
}

/// Variable index reserved for the terminal (orders after every real
/// variable, so min-var recursion never descends into it).
const TERMINAL_VAR: u32 = u32::MAX;

impl Bdd {
    const TRUE: BddRef = BddRef(0);
    const FALSE: BddRef = BddRef(1);

    fn new(max_nodes: usize) -> Self {
        Self {
            // Node 0 is the terminal; its fields are never read as a
            // decision (TERMINAL_VAR keeps it out of every var-min).
            nodes: vec![BddNode {
                var: TERMINAL_VAR,
                hi: Self::TRUE,
                lo: Self::TRUE,
            }],
            unique: HashMap::new(),
            cache: HashMap::new(),
            max_nodes,
        }
    }

    fn var_of(&self, r: BddRef) -> u32 {
        self.nodes[r.index()].var
    }

    /// The single-variable function `var`.
    fn literal(&mut self, var: u32) -> Result<BddRef, NodeLimit> {
        self.mk(var, Self::TRUE, Self::FALSE)
    }

    /// Interns `var ? hi : lo` in canonical form: equal children collapse,
    /// a complemented `hi` is pushed outward, and structurally identical
    /// nodes are shared through the unique table.
    fn mk(&mut self, var: u32, hi: BddRef, lo: BddRef) -> Result<BddRef, NodeLimit> {
        if hi == lo {
            return Ok(hi);
        }
        // Canonical complement edges: the stored then-edge is regular.
        let (out_neg, hi, lo) = if hi.is_neg() {
            (true, hi.not(), lo.not())
        } else {
            (false, hi, lo)
        };
        let index = match self.unique.get(&(var, hi, lo)) {
            Some(&i) => i,
            None => {
                if self.nodes.len() >= self.max_nodes {
                    return Err(NodeLimit);
                }
                let i = self.nodes.len() as u32;
                self.nodes.push(BddNode { var, hi, lo });
                self.unique.insert((var, hi, lo), i);
                i
            }
        };
        Ok(BddRef::new(index, out_neg))
    }

    /// The cofactor of `r` with respect to its own top variable. Callers
    /// only invoke this when `var_of(r) == v` for the recursion's top `v`;
    /// otherwise `r` is independent of `v` and passes through unchanged.
    fn cofactor(&self, r: BddRef, v: u32, branch: bool) -> BddRef {
        if self.var_of(r) != v {
            return r;
        }
        let node = self.nodes[r.index()];
        let child = if branch { node.hi } else { node.lo };
        child.under(r.is_neg())
    }

    /// Memoized if-then-else — the one operator everything is built from.
    fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, NodeLimit> {
        // Terminal rules.
        if f == Self::TRUE {
            return Ok(g);
        }
        if f == Self::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == Self::TRUE && h == Self::FALSE {
            return Ok(f);
        }
        if g == Self::FALSE && h == Self::TRUE {
            return Ok(f.not());
        }
        // Normalizations that fold the complement bit out of `f` and `g`,
        // quartering the op-cache's key space.
        let (f, g, h) = if f.is_neg() {
            (f.not(), h, g)
        } else {
            (f, g, h)
        };
        if g.is_neg() {
            return Ok(self.ite(f, g.not(), h.not())?.not());
        }
        if let Some(&hit) = self.cache.get(&(f, g, h)) {
            return Ok(hit);
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let t = self.ite(
            self.cofactor(f, v, true),
            self.cofactor(g, v, true),
            self.cofactor(h, v, true),
        )?;
        let e = self.ite(
            self.cofactor(f, v, false),
            self.cofactor(g, v, false),
            self.cofactor(h, v, false),
        )?;
        let out = self.mk(v, t, e)?;
        self.cache.insert((f, g, h), out);
        Ok(out)
    }

    /// The function with truth table `table` over the operand functions
    /// `ops` (bit `Σ opᵢ << i` of `table` is its value there), by Shannon
    /// expansion on the last operand.
    fn table(&mut self, table: u8, ops: &[BddRef]) -> Result<BddRef, NodeLimit> {
        let Some((&last, rest)) = ops.split_last() else {
            return Ok(if table & 1 == 1 {
                Self::TRUE
            } else {
                Self::FALSE
            });
        };
        let lo = self.table(table, rest)?;
        let hi = self.table(table >> (1 << rest.len()), rest)?;
        self.ite(last, hi, lo)
    }

    /// Evaluates `r` under a per-*variable* assignment (not per input
    /// slot — permute through the static order first).
    fn eval(&self, mut r: BddRef, by_var: &[bool]) -> bool {
        let mut parity = false;
        loop {
            parity ^= r.is_neg();
            let node = self.nodes[r.index()];
            if node.var == TERMINAL_VAR {
                return !parity;
            }
            r = if by_var[node.var as usize] {
                node.hi
            } else {
                node.lo
            };
        }
    }

    /// A satisfying per-variable assignment of a non-`FALSE` function
    /// (`None` for variables the function does not depend on). Greedy
    /// descent is complete on a reduced BDD: the only unsatisfiable
    /// function is `FALSE` itself, so whichever child is non-`FALSE`
    /// leads to the terminal.
    fn any_sat(&self, mut r: BddRef, num_vars: usize) -> Vec<Option<bool>> {
        debug_assert_ne!(r, Self::FALSE, "FALSE has no satisfying assignment");
        let mut by_var = vec![None; num_vars];
        while r != Self::TRUE {
            let node = self.nodes[r.index()];
            let hi = node.hi.under(r.is_neg());
            let lo = node.lo.under(r.is_neg());
            if hi != Self::FALSE {
                by_var[node.var as usize] = Some(true);
                r = hi;
            } else {
                by_var[node.var as usize] = Some(false);
                r = lo;
            }
        }
        by_var
    }
}

/// The sifting-free static variable order: `order[slot]` is the BDD
/// variable assigned to input slot `slot`. Inputs are sorted by the
/// topological level of their earliest consumer, then by that consumer's
/// position, then by slot — so operand words that meet early interleave
/// (the order that keeps carry-chain BDDs small) and the order is a pure
/// function of the netlist's structure.
fn input_order(net: &CircuitNetlist) -> Vec<usize> {
    let n = net.num_inputs();
    // Earliest consumer per input slot: (consumer level, consumer node).
    let mut first_use = vec![(usize::MAX, usize::MAX); n];
    let mut slot_of_node: HashMap<usize, usize> = HashMap::new();
    for (id, op) in net.ops().iter().enumerate() {
        if let GateOp::Input(slot) = *op {
            slot_of_node.insert(id, slot);
        }
        for operand in op.operands().into_iter().flatten() {
            if let Some(&slot) = slot_of_node.get(&operand) {
                let key = (net.levels()[id], id);
                if key < first_use[slot] {
                    first_use[slot] = key;
                }
            }
        }
    }
    let mut slots: Vec<usize> = (0..n).collect();
    slots.sort_by_key(|&s| (first_use[s], s));
    let mut order = vec![0usize; n];
    for (var, &slot) in slots.iter().enumerate() {
        order[slot] = var;
    }
    order
}

/// Compiles every node of `net` to a BDD function under `order`
/// (`order[slot]` = variable of input slot `slot`), returning the
/// per-output references in marking order.
fn compile(net: &CircuitNetlist, order: &[usize], bdd: &mut Bdd) -> Result<Vec<BddRef>, NodeLimit> {
    let mut funcs: Vec<BddRef> = Vec::with_capacity(net.len());
    for op in net.ops() {
        let f = match *op {
            GateOp::Input(slot) => bdd.literal(order[slot] as u32)?,
            GateOp::Constant(v) => {
                if v {
                    Bdd::TRUE
                } else {
                    Bdd::FALSE
                }
            }
            GateOp::Not(a) => funcs[a].not(),
            GateOp::Mux { sel, a, b } => bdd.ite(funcs[sel], funcs[a], funcs[b])?,
            // A riding sum is the parity it computes, whatever computes it.
            GateOp::Sum(a, b, c) => {
                bdd.table(Gate3::Xor3.desc().table, &[funcs[a], funcs[b], funcs[c]])?
            }
            _ => {
                let (desc, operands) = op.gate().expect("every other op is a gate");
                bdd.table(desc.table, &operands.map(|o| funcs[o])[..desc.arity])?
            }
        };
        funcs.push(f);
    }
    Ok(net.outputs().iter().map(|&o| funcs[o]).collect())
}

/// Evaluates `net` on a plaintext assignment (one bool per input slot),
/// returning the output bits in marking order — the eager reference the
/// BDD proofs are replayed against in tests, and a convenience for
/// [`Spec`] authors.
///
/// # Panics
///
/// Panics if `inputs` does not match [`CircuitNetlist::num_inputs`].
pub fn eval_netlist(net: &CircuitNetlist, inputs: &[bool]) -> Vec<bool> {
    assert_eq!(
        inputs.len(),
        net.num_inputs(),
        "netlist expects {} inputs, got {}",
        net.num_inputs(),
        inputs.len()
    );
    let mut values: Vec<bool> = Vec::with_capacity(net.len());
    for op in net.ops() {
        let v = match *op {
            GateOp::Input(slot) => inputs[slot],
            _ => op
                .eval(op.operands().map(|o| o.is_some_and(|id| values[id])))
                .expect("every op but an input has a value of its own"),
        };
        values.push(v);
    }
    net.outputs().iter().map(|&o| values[o]).collect()
}

/// Proves `left` and `right` compute identical functions on every output
/// (under [`EquivBudget`] `budget`), or extracts a distinguishing input.
/// Counterexamples render with the default byte partition; use
/// [`check_with_words`] when the word structure is known.
pub fn check(left: &CircuitNetlist, right: &CircuitNetlist, budget: EquivBudget) -> EquivReport {
    check_with_words(left, right, budget, &byte_partition(left.num_inputs()))
}

/// [`check`] with an explicit input word partition (widths in input-slot
/// order, used only to render counterexamples — see [`Counterexample`]).
///
/// # Panics
///
/// Panics if `widths` does not partition `left`'s input slots (when the
/// shapes mismatch, `widths` is ignored and no panic occurs).
pub fn check_with_words(
    left: &CircuitNetlist,
    right: &CircuitNetlist,
    budget: EquivBudget,
    widths: &[u8],
) -> EquivReport {
    if left.num_inputs() != right.num_inputs() || left.outputs().len() != right.outputs().len() {
        let inputs = (left.num_inputs(), right.num_inputs());
        let outputs = (left.outputs().len(), right.outputs().len());
        return EquivReport::unknown(UnknownReason::ShapeMismatch { inputs, outputs }, 0, 0);
    }
    let n = left.num_inputs();
    if n > budget.max_inputs {
        let max_inputs = budget.max_inputs;
        let reason = UnknownReason::InputBudget {
            inputs: n,
            max_inputs,
        };
        return EquivReport::unknown(reason, 0, 0);
    }
    let order = input_order(left);
    let mut bdd = Bdd::new(budget.max_nodes);
    let unknown = |bdd: &Bdd, checked: usize| {
        let max_nodes = budget.max_nodes;
        EquivReport::unknown(
            UnknownReason::NodeBudget { max_nodes },
            bdd.nodes.len(),
            checked,
        )
    };
    let (lhs, rhs) = match (
        compile(left, &order, &mut bdd),
        compile(right, &order, &mut bdd),
    ) {
        (Ok(l), Ok(r)) => (l, r),
        _ => return unknown(&bdd, 0),
    };
    for (i, (&l, &r)) in lhs.iter().zip(&rhs).enumerate() {
        // Canonicity: same function ⇔ same reference.
        if l == r {
            continue;
        }
        // The diff is satisfiable exactly where the outputs disagree.
        let diff = match bdd.ite(l, r.not(), r) {
            Ok(d) => d,
            Err(NodeLimit) => return unknown(&bdd, i),
        };
        debug_assert_ne!(diff, Bdd::FALSE, "distinct refs must differ somewhere");
        let by_var = bdd.any_sat(diff, n);
        let mut bits = vec![false; n];
        for (slot, &var) in order.iter().enumerate() {
            bits[slot] = by_var[var].unwrap_or(false);
        }
        return EquivReport {
            verdict: Verdict::NotEquivalent {
                output: i,
                counterexample: Counterexample::with_widths(bits, widths.to_vec()),
            },
            nodes: bdd.nodes.len(),
            outputs_checked: i,
        };
    }
    EquivReport {
        verdict: Verdict::Equivalent,
        nodes: bdd.nodes.len(),
        outputs_checked: lhs.len(),
    }
}

/// The boxed closure type a [`Spec`] evaluates.
type SpecFn = Box<dyn Fn(&[bool]) -> Vec<bool> + Send + Sync>;

/// A plaintext arithmetic specification: the function a netlist is
/// supposed to compute, as a closure over the flat `&[bool]` input
/// assignment (input-slot order, LSB-first within each word). Build the
/// closures with [`word_at`] / [`push_word`].
pub struct Spec {
    /// Input word widths in netlist input-slot order (also the
    /// counterexample rendering partition).
    pub input_widths: Vec<u8>,
    /// Expected output bit count (marking order).
    pub output_bits: usize,
    eval: SpecFn,
}

impl Spec {
    /// A spec over `input_widths`-shaped words producing `output_bits`
    /// output bits.
    pub fn new(
        input_widths: Vec<u8>,
        output_bits: usize,
        eval: impl Fn(&[bool]) -> Vec<bool> + Send + Sync + 'static,
    ) -> Self {
        Self {
            input_widths,
            output_bits,
            eval: Box::new(eval),
        }
    }

    /// Total input bits the spec expects.
    fn input_bits(&self) -> usize {
        self.input_widths.iter().map(|&w| w as usize).sum()
    }

    /// Evaluates the spec on one assignment.
    pub(crate) fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        (self.eval)(inputs)
    }
}

impl fmt::Debug for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spec")
            .field("input_widths", &self.input_widths)
            .field("output_bits", &self.output_bits)
            .finish_non_exhaustive()
    }
}

/// Proves `net` computes exactly `spec` on **every** input assignment:
/// the netlist is compiled to BDDs (under `budget`) and compared against
/// the spec closure over the full `2ⁿ` assignment space. Exponential in
/// the input count by construction — [`EquivBudget::max_inputs`] is the
/// guard; every shipped library entry has ≤ 18 inputs.
pub fn check_spec(net: &CircuitNetlist, spec: &Spec, budget: EquivBudget) -> EquivReport {
    if net.num_inputs() != spec.input_bits() || net.outputs().len() != spec.output_bits {
        let inputs = (net.num_inputs(), spec.input_bits());
        let outputs = (net.outputs().len(), spec.output_bits);
        return EquivReport::unknown(UnknownReason::ShapeMismatch { inputs, outputs }, 0, 0);
    }
    let n = net.num_inputs();
    if n > budget.max_inputs || n >= usize::BITS as usize - 1 {
        let max_inputs = budget.max_inputs.min(usize::BITS as usize - 2);
        let reason = UnknownReason::InputBudget {
            inputs: n,
            max_inputs,
        };
        return EquivReport::unknown(reason, 0, 0);
    }
    let order = input_order(net);
    let mut bdd = Bdd::new(budget.max_nodes);
    let Ok(outputs) = compile(net, &order, &mut bdd) else {
        let max_nodes = budget.max_nodes;
        return EquivReport::unknown(UnknownReason::NodeBudget { max_nodes }, bdd.nodes.len(), 0);
    };
    let mut bits = vec![false; n];
    let mut by_var = vec![false; n];
    for assignment in 0..(1usize << n) {
        for slot in 0..n {
            let b = (assignment >> slot) & 1 == 1;
            bits[slot] = b;
            by_var[order[slot]] = b;
        }
        let expected = spec.eval(&bits);
        assert_eq!(
            expected.len(),
            outputs.len(),
            "spec produced {} output bits, declared {}",
            expected.len(),
            outputs.len()
        );
        for (i, (&f, &want)) in outputs.iter().zip(&expected).enumerate() {
            if bdd.eval(f, &by_var) != want {
                return EquivReport {
                    verdict: Verdict::NotEquivalent {
                        output: i,
                        counterexample: Counterexample::with_widths(
                            bits.clone(),
                            spec.input_widths.clone(),
                        ),
                    },
                    nodes: bdd.nodes.len(),
                    outputs_checked: i,
                };
            }
        }
    }
    EquivReport {
        verdict: Verdict::Equivalent,
        nodes: bdd.nodes.len(),
        outputs_checked: outputs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::simplify;
    use crate::gates::Gate;

    fn budget() -> EquivBudget {
        EquivBudget::default()
    }

    /// One netlist per gate: `out = g(a, b)`.
    fn gate_net(g: Gate) -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let o = net.gate(g, a, b);
        net.mark_output(o);
        net
    }

    #[test]
    fn every_gate_compiles_to_its_truth_table() {
        for &g in &Gate::ALL {
            let net = gate_net(g);
            for assignment in 0..4usize {
                let a = assignment & 1 == 1;
                let b = assignment >> 1 == 1;
                let out = eval_netlist(&net, &[a, b]);
                assert_eq!(out[0], g.eval(a, b), "{g:?} eager eval");
                // …and the BDD agrees: prove the gate against a spec
                // closure built from the truth table itself.
                let spec = Spec::new(vec![1, 1], 1, move |bits| vec![g.eval(bits[0], bits[1])]);
                assert!(
                    check_spec(&net, &spec, budget()).is_equivalent(),
                    "{g:?} BDD vs truth table"
                );
            }
        }
    }

    /// Each two-input gate as the engine compiled it before the records:
    /// one `ite` per gate.
    fn hand_written(bdd: &mut Bdd, g: Gate, a: BddRef, b: BddRef) -> Result<BddRef, NodeLimit> {
        let (t, f) = (Bdd::TRUE, Bdd::FALSE);
        match g {
            Gate::And => bdd.ite(a, b, f),
            Gate::Or => bdd.ite(a, t, b),
            Gate::Nand => Ok(bdd.ite(a, b, f)?.not()),
            Gate::Nor => Ok(bdd.ite(a, t, b)?.not()),
            Gate::Xor => bdd.ite(a, b.not(), b),
            Gate::Xnor => bdd.ite(a, b, b.not()),
            Gate::AndYN => bdd.ite(a, b.not(), f),
            Gate::AndNY => bdd.ite(a, f, b),
            Gate::OrYN => bdd.ite(a, t, b.not()),
            Gate::OrNY => bdd.ite(a, b, t),
        }
    }

    /// A fresh manager and operand pairs over three variables in it.
    fn operand_pairs() -> Result<(Bdd, Vec<(BddRef, BddRef)>), NodeLimit> {
        let mut bdd = Bdd::new(1 << 16);
        let [x, y, z] = [bdd.literal(0)?, bdd.literal(1)?, bdd.literal(2)?];
        let xy = bdd.ite(x, y, Bdd::FALSE)?;
        let yz = bdd.ite(y, z.not(), z)?;
        let pairs = vec![
            (x, y),
            (y, x),
            (x, x.not()),
            (xy, yz),
            (yz.not(), z),
            (Bdd::TRUE, z),
        ];
        Ok((bdd, pairs))
    }

    #[test]
    fn table_compiles_match_the_hand_written_ite_forms() {
        for g in Gate::ALL {
            for i in 0..6 {
                // Whichever form runs first, the other is the same reference
                // and interns no node of its own.
                for derived_first in [true, false] {
                    let (mut bdd, pairs) = operand_pairs().ok().expect("in budget");
                    let (a, b) = pairs[i];
                    let derived = |bdd: &mut Bdd| bdd.table(g.desc().table, &[a, b]).ok();
                    let first = if derived_first {
                        derived(&mut bdd)
                    } else {
                        hand_written(&mut bdd, g, a, b).ok()
                    };
                    let nodes = bdd.nodes.len();
                    let second = if derived_first {
                        hand_written(&mut bdd, g, a, b).ok()
                    } else {
                        derived(&mut bdd)
                    };
                    assert_eq!((first, nodes), (second, bdd.nodes.len()), "{g} pair {i}");
                }
            }
        }
    }

    #[test]
    fn ternary_gates_compile_to_their_truth_tables() {
        for g in Gate3::ALL {
            let mut net = CircuitNetlist::new();
            let (a, b, c) = (net.input(), net.input(), net.input());
            let nb = net.not(b);
            let o = net.ternary(g, a, nb, c);
            net.mark_output(o);
            let spec = Spec::new(vec![3], 1, move |bits| {
                vec![g.eval(bits[0], !bits[1], bits[2])]
            });
            assert!(check_spec(&net, &spec, budget()).is_equivalent(), "{g}");
            for row in 0..8u8 {
                let bits = [row & 1 == 1, row & 2 == 2, row & 4 == 4];
                assert_eq!(eval_netlist(&net, &bits), spec.eval(&bits), "{g}");
            }
        }
    }

    #[test]
    fn mux_and_not_compile_exactly() {
        let mut net = CircuitNetlist::new();
        let s = net.input();
        let a = net.input();
        let b = net.input();
        let na = net.not(a);
        let m = net.mux(s, na, b);
        net.mark_output(m);
        let spec = Spec::new(vec![1, 1, 1], 1, |bits| {
            vec![if bits[0] { !bits[1] } else { bits[2] }]
        });
        assert!(check_spec(&net, &spec, budget()).is_equivalent());
    }

    #[test]
    fn canonicity_makes_distinct_constructions_reference_equal() {
        // a XOR b built two structurally different ways.
        let left = gate_net(Gate::Xor);
        let mut right = CircuitNetlist::new();
        let a = right.input();
        let b = right.input();
        let or = right.gate(Gate::Or, a, b);
        let nand = right.gate(Gate::Nand, a, b);
        let xor = right.gate(Gate::And, or, nand);
        right.mark_output(xor);
        let report = check(&left, &right, budget());
        assert!(report.is_equivalent(), "{report}");
        assert_eq!(report.outputs_checked, 1);
    }

    #[test]
    fn inequivalent_netlists_yield_a_replayable_counterexample() {
        let left = gate_net(Gate::Xor);
        let right = gate_net(Gate::Xnor);
        let report = check(&left, &right, budget());
        match &report.verdict {
            Verdict::NotEquivalent {
                output,
                counterexample,
            } => {
                assert_eq!(*output, 0);
                // Replay: the assignment really distinguishes them.
                let l = eval_netlist(&left, &counterexample.bits);
                let r = eval_netlist(&right, &counterexample.bits);
                assert_ne!(l[0], r[0], "counterexample must distinguish");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn counterexample_renders_per_word_hex() {
        let cex = Counterexample::with_widths(
            vec![
                false, true, false, true, true, false, false, false, // 0x1a
                true, true, false, false, // 0x3
            ],
            vec![8, 4],
        );
        assert_eq!(cex.to_string(), "in[0]=0x1a in[1]=0x3");
        assert_eq!(cex.words(), vec![0x1a, 0x3]);
        // Default partition: bytes with a remainder.
        let default = Counterexample::from_bits(vec![true; 10]);
        assert_eq!(default.widths, vec![8, 2]);
        assert_eq!(default.to_string(), "in[0]=0xff in[1]=0x3");
    }

    #[test]
    fn node_budget_degrades_to_unknown() {
        // A 6-bit comparator wants more than 3 nodes.
        let mut net = CircuitNetlist::new();
        let inputs: Vec<usize> = (0..12).map(|_| net.input()).collect();
        let mut acc = net.gate(Gate::Xnor, inputs[0], inputs[6]);
        for i in 1..6 {
            let eq = net.gate(Gate::Xnor, inputs[i], inputs[i + 6]);
            acc = net.gate(Gate::And, acc, eq);
        }
        net.mark_output(acc);
        let tiny = EquivBudget {
            max_nodes: 3,
            max_inputs: 64,
        };
        let report = check(&net, &net.clone(), tiny);
        // Same structure compiles to the same refs cheaply — compare
        // against a *different* structure to force node growth.
        let mut other = CircuitNetlist::new();
        let ins: Vec<usize> = (0..12).map(|_| other.input()).collect();
        let mut acc = other.gate(Gate::Xor, ins[0], ins[6]);
        for i in 1..6 {
            let ne = other.gate(Gate::Xor, ins[i], ins[i + 6]);
            acc = other.gate(Gate::Or, acc, ne);
        }
        let eq = other.not(acc);
        other.mark_output(eq);
        let report2 = check(&net, &other, tiny);
        for r in [&report, &report2] {
            assert!(
                matches!(r.verdict, Verdict::Equivalent | Verdict::Unknown { .. }),
                "budget must degrade, never mis-decide: {r:?}"
            );
        }
        assert!(
            matches!(
                report2.verdict,
                Verdict::Unknown {
                    reason: UnknownReason::NodeBudget { max_nodes: 3 }
                }
            ),
            "{report2:?}"
        );
    }

    #[test]
    fn input_budget_degrades_to_unknown() {
        let net = gate_net(Gate::And);
        let b = EquivBudget {
            max_nodes: 1 << 20,
            max_inputs: 1,
        };
        let report = check(&net, &net.clone(), b);
        assert_eq!(
            report.verdict,
            Verdict::Unknown {
                reason: UnknownReason::InputBudget {
                    inputs: 2,
                    max_inputs: 1
                }
            }
        );
    }

    #[test]
    fn shape_mismatch_is_unknown_not_a_panic() {
        let two_in = gate_net(Gate::And);
        let mut one_in = CircuitNetlist::new();
        let a = one_in.input();
        let n = one_in.not(a);
        one_in.mark_output(n);
        let report = check(&two_in, &one_in, budget());
        assert!(
            matches!(
                report.verdict,
                Verdict::Unknown {
                    reason: UnknownReason::ShapeMismatch { .. }
                }
            ),
            "{report:?}"
        );
    }

    #[test]
    fn input_order_interleaves_ripple_operands() {
        // a0,a1,b0,b1 consumed pairwise (a0 with b0 first, then a1 with
        // b1): the static order must interleave, not concatenate.
        let mut net = CircuitNetlist::new();
        let a0 = net.input();
        let a1 = net.input();
        let b0 = net.input();
        let b1 = net.input();
        let g0 = net.gate(Gate::And, a0, b0);
        let g1 = net.gate(Gate::Xor, a1, b1);
        let o = net.gate(Gate::Or, g0, g1);
        net.mark_output(o);
        let order = input_order(&net);
        // slots a0,b0 get vars 0,1; slots a1,b1 get vars 2,3.
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn simplify_rewrites_prove_equivalent_on_a_foldable_net() {
        // Constant-foldable net: the simplified form drops bootstraps but
        // must stay function-identical.
        let mut net = CircuitNetlist::new();
        let x = net.input();
        let y = net.input();
        let t = net.constant(true);
        let g = net.gate(Gate::And, x, t);
        let h = net.gate(Gate::Xor, g, y);
        let h2 = net.gate(Gate::Xor, g, y); // CSE candidate
        let o = net.gate(Gate::Or, h, h2);
        net.mark_output(o);
        let (simplified, report) = simplify(&net);
        assert!(report.bootstraps_saved() > 0);
        assert!(check(&net, &simplified, budget()).is_equivalent());
    }

    #[test]
    fn unused_inputs_default_to_false_in_counterexamples() {
        // Output ignores input 1; the counterexample still assigns it.
        let mut left = CircuitNetlist::new();
        let a = left.input();
        let _unused = left.input();
        let n = left.not(a);
        left.mark_output(n);
        let mut right = CircuitNetlist::new();
        let a2 = right.input();
        let _unused2 = right.input();
        let n2 = right.not(a2);
        let nn = right.not(n2);
        right.mark_output(nn); // identity, differs from NOT
        match check(&left, &right, budget()).verdict {
            Verdict::NotEquivalent { counterexample, .. } => {
                assert_eq!(counterexample.bits.len(), 2);
                assert!(!counterexample.bits[1], "unused input defaults false");
                let l = eval_netlist(&left, &counterexample.bits);
                let r = eval_netlist(&right, &counterexample.bits);
                assert_ne!(l, r);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }
}
