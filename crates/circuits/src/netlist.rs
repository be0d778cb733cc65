//! The word-level circuit library, as executable netlists.
//!
//! Every word-level circuit is defined once, here, as a lowering to a
//! [`CircuitNetlist`]. The functions in the word-level modules
//! ([`adder`](crate::adder), [`comparator`](crate::comparator),
//! [`mux`](crate::mux), [`alu`](crate::alu), [`popcount`](crate::popcount),
//! [`shifter`](crate::shifter) and [`processor`](crate::processor)) build
//! these netlists and run them gate by gate on the calling thread with
//! [`CircuitNetlist::execute_sequential`]; the same netlists can be
//! wave-scheduled onto a persistent
//! [`GateBatchPool`](matcha_tfhe::GateBatchPool) or submitted to a
//! [`CircuitServer`](matcha_tfhe::CircuitServer). Bootstrapping is
//! deterministic given the keys, so every way of running a lowering yields
//! bit-identical ciphertexts — the equivalence the `netlist_equiv` suite
//! pins — and `equiv_library` proves each lowering against its plaintext
//! arithmetic on all inputs.
//!
//! Rather than hand-threading node indices, lowerings are written against
//! the word-level [`WordNetlist`] builder: words of [`NetBit`] wires
//! ([`NetWord`], LSB first), per-bit gate application, ripple chains, mux
//! layers and reduction trees. Builder-known constants stay symbolic
//! ([`NetBit::Const`]), and every gate is restricted to its non-constant
//! operands as it is emitted — by [`GateOp::restrict`], the rule
//! [`simplify`](matcha_tfhe::analyze::simplify) folds by — so no lowering
//! submits a gate on a constant for admission to fold: the adders' constant
//! carry-ins cost their first full adder two or three gates, and [`mul`]
//! skips the constant-zero partial-product columns of the schoolbook
//! multiply instead of pushing trivial zeros through full adders.
//!
//! Input-slot conventions (all words LSB first):
//!
//! * [`ripple_adder`]/[`ripple_subtractor`]: `a` bits then `b` bits;
//!   outputs are the sum/difference bits then the carry.
//! * [`eq_comparator`]: `a` bits then `b` bits; one output.
//! * [`mux_tree`]: the `k` index bits, then the `2^k` words in order;
//!   outputs are the selected word's bits.
//! * [`mul`]/[`mul_low`]: `a` bits then `b` bits; outputs are the
//!   `2·width` (resp. low `width`) product bits.
//! * [`alu`]: the 2 opcode bits (LSB first: `Add=00`, `Sub=01`, `And=10`,
//!   `Xor=11`, matching [`AluOp::opcode_bits`](crate::alu::AluOp)), then
//!   `a` bits, then `b` bits; outputs are the result word.
//! * [`popcount`]: the `n` input bits; outputs are the
//!   `⌈log2(n+1)⌉`-bit count.
//! * [`shl`]/[`shr`]: the `amount_bits` shift-amount bits, then the word;
//!   outputs are the shifted word.
//! * [`processor_cycle`]: the full register file `r0, r1, …` (each
//!   `width` bits, LSB first), then the instruction's encrypted control
//!   bits — 2 opcode bits for [`CycleInstruction::Alu`], 1 flag bit for
//!   [`CycleInstruction::CMov`]; outputs are the *entire* new register
//!   file in order (non-destination registers pass through).

use matcha_tfhe::circuit::{CircuitNetlist, GateOp, Restricted};
use matcha_tfhe::Gate;

/// One wire of a [`WordNetlist`] under construction.
///
/// Constants stay symbolic: a `Const` wire owns no netlist node, and the
/// builder restricts every gate that reads one to its other operands. Only
/// when a constant reaches an output is a (pooled) trivial node
/// materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetBit {
    /// A builder-known constant; no netlist node exists for it (yet).
    Const(bool),
    /// A node in the underlying [`CircuitNetlist`].
    Node(usize),
}

/// A word of netlist wires, least-significant bit first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetWord {
    bits: Vec<NetBit>,
}

impl NetWord {
    /// Wraps wires (LSB first) as a word.
    fn from_bits(bits: Vec<NetBit>) -> Self {
        Self { bits }
    }

    /// Word width in bits.
    fn width(&self) -> usize {
        self.bits.len()
    }
}

impl std::ops::Index<usize> for NetWord {
    type Output = NetBit;

    fn index(&self, i: usize) -> &NetBit {
        &self.bits[i]
    }
}

/// Word-level [`CircuitNetlist`] builder.
///
/// Wraps a netlist under construction and exposes a word-level
/// vocabulary — input words, per-bit gates, half/full adders, ripple
/// chains, word muxes, selection trees and reduction trees — so lowerings
/// read like arithmetic instead of hand-threaded node indices.
///
/// One tier of emission: every gate and mux is restricted to its
/// non-constant operands as it is emitted ([`GateOp::restrict`], the rule
/// [`simplify`](matcha_tfhe::analyze::simplify) folds by). A gate on two
/// known bits is a constant, one on a single known bit an alias, a free
/// `NOT` or a constant, a mux with a known selector its arm and one with a
/// known arm a single AND/OR-form bootstrap. So a constant never reaches a
/// bootstrapped gate: the adder's constant carry-in and the multiplier's
/// zero-extension columns cost what the live bits do and nothing more.
pub struct WordNetlist {
    net: CircuitNetlist,
    /// Pooled trivial-false / trivial-true nodes, created on first use so
    /// lean netlists never carry unused constant nodes.
    const_nodes: [Option<usize>; 2],
}

impl Default for WordNetlist {
    fn default() -> Self {
        Self::new()
    }
}

impl WordNetlist {
    /// An empty builder.
    pub fn new() -> Self {
        Self {
            net: CircuitNetlist::new(),
            const_nodes: [None, None],
        }
    }

    /// Ensures `bit` names a real netlist node, materializing (and
    /// pooling) a constant node if needed.
    fn materialize(&mut self, bit: NetBit) -> usize {
        match bit {
            NetBit::Node(id) => id,
            NetBit::Const(v) => {
                if let Some(id) = self.const_nodes[usize::from(v)] {
                    id
                } else {
                    let id = self.net.constant(v);
                    self.const_nodes[usize::from(v)] = Some(id);
                    id
                }
            }
        }
    }

    /// Adds one input slot and returns its wire.
    fn input_bit(&mut self) -> NetBit {
        NetBit::Node(self.net.input())
    }

    /// Adds `width` consecutive input slots as a word (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    pub fn input_word(&mut self, width: usize) -> NetWord {
        assert!(width > 0, "empty operands");
        NetWord::from_bits((0..width).map(|_| self.input_bit()).collect())
    }

    /// Emits `op`, whose operands index `wires`, restricted to the wires
    /// that are not constants.
    fn emit(&mut self, op: GateOp, wires: &[NetBit]) -> NetBit {
        let known = |i: usize| match wires[i] {
            NetBit::Const(v) => Some(v),
            NetBit::Node(_) => None,
        };
        let node = |i: usize| match wires[i] {
            NetBit::Node(id) => id,
            NetBit::Const(_) => unreachable!("a restricted op reads free operands only"),
        };
        match op.restrict(known) {
            Restricted::Const(v) => NetBit::Const(v),
            Restricted::Wire {
                node,
                negated: true,
            } => self.not(wires[node]),
            Restricted::Wire { node, .. } => wires[node],
            Restricted::Op(GateOp::Binary(g, a, b)) => {
                NetBit::Node(self.net.gate(g, node(a), node(b)))
            }
            Restricted::Op(GateOp::Mux { sel, a, b }) => {
                NetBit::Node(self.net.mux(node(sel), node(a), node(b)))
            }
            Restricted::Op(op) => unreachable!("{op:?} restricted from a gate or a mux"),
        }
    }

    /// A binary gate, restricted to its non-constant operands.
    fn gate(&mut self, gate: Gate, a: NetBit, b: NetBit) -> NetBit {
        self.emit(GateOp::Binary(gate, 0, 1), &[a, b])
    }

    /// A free NOT: folds constants, emits a transparent NOT node otherwise.
    fn not(&mut self, a: NetBit) -> NetBit {
        match a {
            NetBit::Const(v) => NetBit::Const(!v),
            NetBit::Node(id) => NetBit::Node(self.net.not(id)),
        }
    }

    /// `sel ? a : b`, restricted to its non-constant operands: two
    /// bootstraps on three free wires.
    fn mux(&mut self, sel: NetBit, a: NetBit, b: NetBit) -> NetBit {
        self.emit(GateOp::Mux { sel: 0, a: 1, b: 2 }, &[sel, a, b])
    }

    /// Applies `gate` bit-wise across two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn bitwise(&mut self, gate: Gate, a: &NetWord, b: &NetWord) -> NetWord {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        NetWord::from_bits(
            (0..a.width())
                .map(|i| self.gate(gate, a[i], b[i]))
                .collect(),
        )
    }

    /// Free bit-wise NOT of a word.
    fn not_word(&mut self, a: &NetWord) -> NetWord {
        NetWord::from_bits((0..a.width()).map(|i| self.not(a[i])).collect())
    }

    /// One half adder: `(sum, carry) = (a XOR b, a AND b)`.
    fn half_add(&mut self, a: NetBit, b: NetBit) -> (NetBit, NetBit) {
        let sum = self.gate(Gate::Xor, a, b);
        let carry = self.gate(Gate::And, a, b);
        (sum, carry)
    }

    /// One full adder: the 5-gate XOR/AND/OR form — `a ⊕ b`, the sum,
    /// `a ∧ b`, `(a ⊕ b) ∧ cin`, the carry's OR, in that order; returns
    /// `(sum, carry)`. A known operand or carry leaves 3, 2, 1 or 0 of them.
    fn full_add(&mut self, a: NetBit, b: NetBit, cin: NetBit) -> (NetBit, NetBit) {
        let axb = self.gate(Gate::Xor, a, b);
        let sum = self.gate(Gate::Xor, axb, cin);
        let and_ab = self.gate(Gate::And, a, b);
        let and_cx = self.gate(Gate::And, axb, cin);
        let carry = self.gate(Gate::Or, and_ab, and_cx);
        (sum, carry)
    }

    /// A ripple-carry chain of [`full_add`](Self::full_add)s over two
    /// equal-width words; returns `(sums, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or the words are empty.
    fn ripple_add(&mut self, a: &NetWord, b: &NetWord, carry_in: NetBit) -> (NetWord, NetBit) {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        assert!(a.width() > 0, "empty operands");
        let mut carry = carry_in;
        let mut sums = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let (sum, cout) = self.full_add(a[i], b[i], carry);
            sums.push(sum);
            carry = cout;
        }
        (NetWord::from_bits(sums), carry)
    }

    /// Like [`ripple_add`](Self::ripple_add) but the carry out is not
    /// computed: the top position emits only its two sum XORs, so no
    /// bootstrapped gate is left dangling when the carry is unwanted.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or the words are empty.
    fn ripple_add_no_carry(&mut self, a: &NetWord, b: &NetWord, carry_in: NetBit) -> NetWord {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        assert!(a.width() > 0, "empty operands");
        let top = a.width() - 1;
        let mut carry = carry_in;
        let mut sums = Vec::with_capacity(a.width());
        for i in 0..top {
            let (sum, cout) = self.full_add(a[i], b[i], carry);
            sums.push(sum);
            carry = cout;
        }
        let axb = self.gate(Gate::Xor, a[top], b[top]);
        sums.push(self.gate(Gate::Xor, axb, carry));
        NetWord::from_bits(sums)
    }

    /// Word-wise `sel ? a : b`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    fn mux_word(&mut self, sel: NetBit, a: &NetWord, b: &NetWord) -> NetWord {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        NetWord::from_bits((0..a.width()).map(|i| self.mux(sel, a[i], b[i])).collect())
    }

    /// A `2^k`-way selection tree over `words`: one
    /// [`mux_word`](Self::mux_word) level per index bit (LSB first), each
    /// bit selecting the odd (higher-index) word of its pair.
    ///
    /// # Panics
    ///
    /// Panics unless `words.len() == 2^index.len()` and `words` is
    /// non-empty.
    fn select_one_of(&mut self, index: &[NetBit], words: &[NetWord]) -> NetWord {
        assert!(!words.is_empty(), "empty selection");
        assert_eq!(
            words.len(),
            1usize << index.len(),
            "need exactly 2^index_bits words"
        );
        let mut layer: Vec<NetWord> = words.to_vec();
        for &bit in index {
            layer = layer
                .chunks(2)
                .map(|pair| self.mux_word(bit, &pair[1], &pair[0]))
                .collect();
        }
        layer.pop().expect("non-empty selection layer")
    }

    /// Balanced AND-reduction tree (odd layer elements pass through): the
    /// depth stays logarithmic, so the tree halves latency on parallel
    /// hardware like MATCHA's 8 pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    fn and_reduce(&mut self, bits: &[NetBit]) -> NetBit {
        assert!(!bits.is_empty(), "empty reduction");
        let mut layer = bits.to_vec();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| match pair {
                    [x, y] => self.gate(Gate::And, *x, *y),
                    [x] => *x,
                    _ => unreachable!(),
                })
                .collect();
        }
        layer[0]
    }

    /// Marks a wire as a circuit output (constants are materialized).
    fn mark_output(&mut self, bit: NetBit) {
        let id = self.materialize(bit);
        self.net.mark_output(id);
    }

    /// Marks every bit of a word as an output, LSB first.
    pub fn mark_output_word(&mut self, word: &NetWord) {
        for i in 0..word.width() {
            self.mark_output(word[i]);
        }
    }

    /// Finishes building and returns the netlist.
    pub fn finish(self) -> CircuitNetlist {
        self.net
    }
}

/// A `width`-bit ripple-carry adder, what [`adder::add`](crate::adder::add)
/// runs: `5·width − 3` bootstrapped gates, the constant-false carry-in
/// leaving the first position its XOR and AND.
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn ripple_adder(width: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let a = w.input_word(width);
    let b = w.input_word(width);
    let (sums, carry) = w.ripple_add(&a, &b, NetBit::Const(false));
    w.mark_output_word(&sums);
    w.mark_output(carry);
    w.finish()
}

/// A `width`-bit two's-complement subtractor, what
/// [`adder::sub`](crate::adder::sub) and the orderings in
/// [`comparator`](crate::comparator) run: free `NOT` on every `b` bit,
/// then a ripple add with a constant-true carry-in (the first position's
/// sum a free `NOT`, its carry an OR: `5·width − 2` gates). The final carry
/// is `1` when `a ≥ b`.
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn ripple_subtractor(width: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let a = w.input_word(width);
    let b = w.input_word(width);
    let not_b = w.not_word(&b);
    let (sums, carry) = w.ripple_add(&a, &not_b, NetBit::Const(true));
    w.mark_output_word(&sums);
    w.mark_output(carry);
    w.finish()
}

/// A `width`-bit equality comparator, what
/// [`comparator::eq`](crate::comparator::eq) runs: one XNOR per bit and a
/// balanced AND reduction tree (odd layer elements pass through).
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn eq_comparator(width: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let a = w.input_word(width);
    let b = w.input_word(width);
    let diffs: Vec<NetBit> = (0..width).map(|i| w.gate(Gate::Xnor, a[i], b[i])).collect();
    let eq = w.and_reduce(&diffs);
    w.mark_output(eq);
    w.finish()
}

/// A `2^index_bits`-way, `width`-bit-word selection tree (what
/// [`mux::select_word`](crate::mux::select_word) runs at one index bit):
/// `index_bits` levels of word-wise muxes, each index bit selecting the
/// odd (higher-index) half.
///
/// # Panics
///
/// Panics if `index_bits` or `width` is 0.
pub fn mux_tree(index_bits: usize, width: usize) -> CircuitNetlist {
    assert!(index_bits > 0, "need at least one index bit");
    assert!(width > 0, "empty words");
    let mut w = WordNetlist::new();
    let index: Vec<NetBit> = (0..index_bits).map(|_| w.input_bit()).collect();
    let words: Vec<NetWord> = (0..1usize << index_bits)
        .map(|_| w.input_word(width))
        .collect();
    let selected = w.select_one_of(&index, &words);
    w.mark_output_word(&selected);
    w.finish()
}

/// A full `width × width → 2·width` schoolbook multiplier: `width²`
/// partial-product ANDs and `width−1` ripple adds. Constant-zero
/// partial-product columns (the zero-extension outside each shifted
/// window) never touch a full adder — the builder restricts them away as
/// it emits, so the netlist contains no trivial-zero arithmetic for
/// [`simplify`](matcha_tfhe::analyze::simplify) to clean up.
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn mul(width: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let a = w.input_word(width);
    let b = w.input_word(width);
    let out_width = 2 * width;
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
        let (sums, _carry) = w.ripple_add(&acc, &partial, NetBit::Const(false));
        acc = sums;
    }
    w.mark_output_word(&acc);
    w.finish()
}

/// The low `width` bits of the schoolbook product: each partial
/// product is truncated to the bits that land below `width`, and the
/// ripple chains drop their carry out.
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn mul_low(width: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let a = w.input_word(width);
    let b = w.input_word(width);
    let mut acc = NetWord::from_bits((0..width).map(|i| w.gate(Gate::And, a[i], b[0])).collect());
    for j in 1..width {
        let partial = NetWord::from_bits(
            (0..width)
                .map(|i| {
                    if i >= j {
                        w.gate(Gate::And, a[i - j], b[j])
                    } else {
                        NetBit::Const(false)
                    }
                })
                .collect(),
        );
        acc = w.ripple_add_no_carry(&acc, &partial, NetBit::Const(false));
    }
    w.mark_output_word(&acc);
    w.finish()
}

/// The shared ALU body of [`alu`] and [`processor_cycle`]: all four ops
/// computed, then an opcode-decoded selection tree. `opcode` is LSB first
/// (`Add=00`, `Sub=01`, `And=10`, `Xor=11`).
fn alu_word(w: &mut WordNetlist, opcode: &[NetBit], a: &NetWord, b: &NetWord) -> NetWord {
    let add = w.ripple_add_no_carry(a, b, NetBit::Const(false));
    let not_b = w.not_word(b);
    let sub = w.ripple_add_no_carry(a, &not_b, NetBit::Const(true));
    let and = w.bitwise(Gate::And, a, b);
    let xor = w.bitwise(Gate::Xor, a, b);
    w.select_one_of(opcode, &[add, sub, and, xor])
}

/// A `width`-bit ALU with an encrypted 2-bit opcode, what
/// [`alu::execute`](crate::alu::execute) runs: adder and subtractor chains
/// (carry out dropped), word-wise AND and XOR, and a 4-way opcode
/// selection tree. Inputs: the 2 opcode bits (LSB first, matching
/// [`AluOp::opcode_bits`](crate::alu::AluOp::opcode_bits)), then `a`, then
/// `b`.
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn alu(width: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let opcode = [w.input_bit(), w.input_bit()];
    let a = w.input_word(width);
    let b = w.input_word(width);
    let out = alu_word(&mut w, &opcode, &a, &b);
    w.mark_output_word(&out);
    w.finish()
}

/// A carry-save population count over `n_bits` inputs, what
/// [`popcount::popcount`](crate::popcount::popcount) runs: per weight column,
/// triples compress through full adders and leftover pairs through half
/// adders; carries feed the next column. Outputs are the
/// `⌈log2(n+1)⌉`-bit count (missing columns are constant zero).
///
/// # Panics
///
/// Panics if `n_bits` is 0.
pub fn popcount(n_bits: usize) -> CircuitNetlist {
    assert!(n_bits > 0, "empty input");
    let mut w = WordNetlist::new();
    let out_width = (usize::BITS - n_bits.leading_zeros()) as usize;
    let mut columns: Vec<Vec<NetBit>> = vec![Vec::new(); out_width + 1];
    columns[0] = (0..n_bits).map(|_| w.input_bit()).collect();
    for weight in 0..out_width {
        while columns[weight].len() >= 3 {
            let a = columns[weight].pop().expect("len >= 3");
            let b = columns[weight].pop().expect("len >= 3");
            let c = columns[weight].pop().expect("len >= 3");
            let (sum, carry) = w.full_add(a, b, c);
            columns[weight].push(sum);
            columns[weight + 1].push(carry);
        }
        if columns[weight].len() == 2 {
            let a = columns[weight].pop().expect("len == 2");
            let b = columns[weight].pop().expect("len == 2");
            let (sum, carry) = w.half_add(a, b);
            columns[weight].push(sum);
            columns[weight + 1].push(carry);
        }
    }
    for column in columns.iter().take(out_width) {
        let bit = column.first().copied().unwrap_or(NetBit::Const(false));
        w.mark_output(bit);
    }
    w.finish()
}

/// One barrel-shifter level: a MUX between shifted and unshifted bit; where
/// the source is past the word (a known zero), the MUX restricts to
/// `¬bit ∧ cur` — one bootstrap instead of two. `shifted_src(i)` returns
/// the source position for output `i`, or `None` when the shift pulls in a
/// zero.
fn barrel_level(
    w: &mut WordNetlist,
    bit: NetBit,
    cur: &NetWord,
    shifted_src: impl Fn(usize) -> Option<usize>,
) -> NetWord {
    NetWord::from_bits(
        (0..cur.width())
            .map(|i| {
                let shifted = shifted_src(i).map_or(NetBit::Const(false), |src| cur[src]);
                w.mux(bit, shifted, cur[i])
            })
            .collect(),
    )
}

/// A `width`-bit left barrel shifter with an encrypted `amount_bits`-bit
/// shift amount, what [`shifter::shl`](crate::shifter::shl) runs: one
/// level per amount bit (LSB first); positions whose shifted source falls
/// off the word restrict to the one-bootstrap AND-with-NOT form.
/// Inputs: the amount bits, then the word.
///
/// # Panics
///
/// Panics if `width` or `amount_bits` is 0.
pub fn shl(width: usize, amount_bits: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    assert!(amount_bits > 0, "need at least one amount bit");
    let mut w = WordNetlist::new();
    let amount: Vec<NetBit> = (0..amount_bits).map(|_| w.input_bit()).collect();
    let mut cur = w.input_word(width);
    for (j, &bit) in amount.iter().enumerate() {
        let shift = 1usize.checked_shl(j as u32).unwrap_or(usize::MAX);
        cur = barrel_level(&mut w, bit, &cur, |i| i.checked_sub(shift));
    }
    w.mark_output_word(&cur);
    w.finish()
}

/// A `width`-bit logical right barrel shifter with an encrypted
/// `amount_bits`-bit shift amount; same level structure and
/// restricted zero-fill form as [`shl`]. Inputs: the amount bits, then the
/// word.
///
/// # Panics
///
/// Panics if `width` or `amount_bits` is 0.
pub fn shr(width: usize, amount_bits: usize) -> CircuitNetlist {
    assert!(width > 0, "empty operands");
    assert!(amount_bits > 0, "need at least one amount bit");
    let mut w = WordNetlist::new();
    let amount: Vec<NetBit> = (0..amount_bits).map(|_| w.input_bit()).collect();
    let mut cur = w.input_word(width);
    for (j, &bit) in amount.iter().enumerate() {
        let shift = 1usize.checked_shl(j as u32).unwrap_or(usize::MAX);
        cur = barrel_level(&mut w, bit, &cur, |i| {
            let src = i.checked_add(shift)?;
            (src < width).then_some(src)
        });
    }
    w.mark_output_word(&cur);
    w.finish()
}

/// The plaintext *shape* of one processor instruction for
/// [`processor_cycle`]: which registers are read and written. The
/// operation itself stays encrypted — the ALU opcode (or CMov flag)
/// arrives as ciphertext input bits at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleInstruction {
    /// `r[dst] ← ALU(opcode, r[src1], r[src2])`; the 2 encrypted opcode
    /// bits (LSB first) are the netlist's trailing inputs.
    Alu {
        /// Destination register index.
        dst: usize,
        /// First (left) operand register.
        src1: usize,
        /// Second (right) operand register.
        src2: usize,
    },
    /// `r[dst] ← flag ? r[src_true] : r[src_false]`; the encrypted flag
    /// bit is the netlist's trailing input.
    CMov {
        /// Destination register index.
        dst: usize,
        /// Register selected when the flag is set.
        src_true: usize,
        /// Register selected when the flag is clear.
        src_false: usize,
    },
}

/// One full processor step as a single netlist, what
/// [`Processor::run`](crate::processor::Processor::run) runs per
/// instruction. Inputs:
/// the entire register file `r0, r1, …` (each `width` bits, LSB first),
/// then the instruction's encrypted control bits (2 opcode bits for
/// [`CycleInstruction::Alu`], 1 flag bit for
/// [`CycleInstruction::CMov`]). Outputs: the *entire* new register file
/// in order — the destination register carries the computed word, every
/// other register passes its input bits straight through, so consecutive
/// cycles chain by feeding one circuit's outputs to the next one's
/// register inputs.
///
/// # Panics
///
/// Panics if `reg_count` or `width` is 0, or an instruction register
/// index is out of range.
pub fn processor_cycle(reg_count: usize, width: usize, instr: CycleInstruction) -> CircuitNetlist {
    assert!(reg_count > 0, "need at least one register");
    assert!(width > 0, "empty operands");
    let mut w = WordNetlist::new();
    let regs: Vec<NetWord> = (0..reg_count).map(|_| w.input_word(width)).collect();
    let (dst, out) = match instr {
        CycleInstruction::Alu { dst, src1, src2 } => {
            assert!(
                dst < reg_count && src1 < reg_count && src2 < reg_count,
                "register index out of range"
            );
            let opcode = [w.input_bit(), w.input_bit()];
            let out = alu_word(&mut w, &opcode, &regs[src1], &regs[src2]);
            (dst, out)
        }
        CycleInstruction::CMov {
            dst,
            src_true,
            src_false,
        } => {
            assert!(
                dst < reg_count && src_true < reg_count && src_false < reg_count,
                "register index out of range"
            );
            let flag = w.input_bit();
            let out = w.mux_word(flag, &regs[src_true], &regs[src_false]);
            (dst, out)
        }
    };
    for (r, reg) in regs.iter().enumerate() {
        if r == dst {
            w.mark_output_word(&out);
        } else {
            w.mark_output_word(reg);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_tfhe::circuit::GateOp;

    #[test]
    fn adder_shape_matches_eager_cost() {
        let net = ripple_adder(8);
        assert_eq!(net.num_inputs(), 16);
        // 5 gates per full adder, but the constant-false carry-in leaves
        // the first position its XOR (the sum) and AND (the carry).
        assert_eq!(net.bootstraps(), 5 * 8 - 3);
        assert_eq!(net.outputs().len(), 9); // sum bits + carry
        assert_eq!(net.schedule_skeleton().len(), 37);
        // Two waves a carry, and the first carry in the first wave.
        assert_eq!(net.depth(), 2 * 8 - 1);
        assert!(net
            .ops()
            .iter()
            .all(|op| !matches!(op, GateOp::Constant(_))));
    }

    #[test]
    fn subtractor_shape() {
        let net = ripple_subtractor(4);
        assert_eq!(net.num_inputs(), 8);
        // NOTs are free; the constant-true carry-in leaves the first
        // position's sum a free NOT of its XOR and its carry an OR.
        assert_eq!(net.bootstraps(), 5 * 4 - 2);
        assert_eq!(net.outputs().len(), 5);
        // …and transparent in the schedule skeleton…
        assert_eq!(net.schedule_skeleton().len(), 18);
        // …and in the wave structure: the executor resolves NOT inline
        // between waves, so only that OR makes subtracting one wave deeper
        // than adding.
        assert_eq!(net.depth(), ripple_adder(4).depth() + 1);
    }

    #[test]
    fn comparator_shape_and_depth() {
        let net = eq_comparator(16);
        assert_eq!(net.num_inputs(), 32);
        assert_eq!(net.bootstraps(), 16 + 15); // XNOR leaves + AND tree
        assert_eq!(net.depth(), 5); // 1 XNOR level + 4 AND-tree levels
    }

    #[test]
    fn mux_tree_shape() {
        let net = mux_tree(2, 3);
        assert_eq!(net.num_inputs(), 2 + 4 * 3);
        // 2 tree levels: (2 pairs + 1 pair) × 3 bits = 9 muxes, 2 bootstraps each.
        assert_eq!(net.bootstraps(), 18);
        assert_eq!(net.outputs().len(), 3);
        // Each mux is two chained units in the analytic skeleton.
        assert_eq!(net.schedule_skeleton().len(), 18);
    }

    #[test]
    #[should_panic(expected = "empty operands")]
    fn zero_width_adder_rejected() {
        let _ = ripple_adder(0);
    }

    #[test]
    #[should_panic(expected = "empty operands")]
    fn zero_width_multiplier_rejected() {
        let _ = mul(0);
    }

    #[test]
    fn gate_restricts_constant_operands_away() {
        let mut w = WordNetlist::new();
        let a = w.input_bit();
        // Both constant → constant, no node.
        assert_eq!(
            w.gate(Gate::And, NetBit::Const(true), NetBit::Const(false)),
            NetBit::Const(false)
        );
        // Identity operand → alias.
        assert_eq!(w.gate(Gate::Xor, a, NetBit::Const(false)), a);
        assert_eq!(w.gate(Gate::And, NetBit::Const(true), a), a);
        // Inverting operand → free NOT.
        assert!(matches!(
            w.gate(Gate::Xor, NetBit::Const(true), a),
            NetBit::Node(_)
        ));
        // Absorbing operand → constant.
        assert_eq!(
            w.gate(Gate::And, a, NetBit::Const(false)),
            NetBit::Const(false)
        );
        assert_eq!(
            w.gate(Gate::Or, NetBit::Const(true), a),
            NetBit::Const(true)
        );
        let net = w.finish();
        assert_eq!(net.bootstraps(), 0, "no restriction may bootstrap");
    }

    #[test]
    fn mux_with_a_constant_arm_is_one_bootstrap() {
        let mut w = WordNetlist::new();
        let sel = w.input_bit();
        let a = w.input_bit();
        assert_eq!(w.mux(NetBit::Const(true), a, sel), a);
        assert_eq!(w.mux(sel, NetBit::Const(true), NetBit::Const(false)), sel);
        assert_eq!(
            w.mux(sel, NetBit::Const(true), NetBit::Const(true)),
            NetBit::Const(true)
        );
        // Each constant-arm form costs exactly one bootstrap.
        w.mux(sel, NetBit::Const(false), a);
        w.mux(sel, NetBit::Const(true), a);
        w.mux(sel, a, NetBit::Const(false));
        w.mux(sel, a, NetBit::Const(true));
        let net = w.finish();
        assert_eq!(net.bootstraps(), 4);
        let gates = net.ops().iter().filter_map(|op| match op {
            GateOp::Binary(g, ..) => Some(*g),
            _ => None,
        });
        assert_eq!(
            gates.collect::<Vec<_>>(),
            [Gate::AndNY, Gate::Or, Gate::And, Gate::OrNY]
        );
    }

    #[test]
    fn adding_a_zero_word_is_free() {
        let mut w = WordNetlist::new();
        let a = w.input_word(4);
        let zero = NetWord::from_bits(vec![NetBit::Const(false); 4]);
        let (sums, carry) = w.ripple_add(&a, &zero, NetBit::Const(false));
        assert_eq!(sums, a, "x + 0 aliases x");
        assert_eq!(carry, NetBit::Const(false));
        assert_eq!(w.finish().bootstraps(), 0);
    }

    #[test]
    fn multiplier_shape_skips_zero_columns() {
        // 8×8: 64 partial-product ANDs; j=1 window rows cost 34, later
        // windows 37 (the leading half-adder pair only appears once).
        let net = mul(8);
        assert_eq!(net.num_inputs(), 16);
        assert_eq!(net.outputs().len(), 16);
        assert_eq!(net.bootstraps(), 320);
        // The builder never materialized a constant: every zero column was
        // skipped at build time, not cleaned up afterwards.
        assert!(net
            .ops()
            .iter()
            .all(|op| !matches!(op, GateOp::Constant(_))));

        assert_eq!(mul(2).bootstraps(), 8);
        assert_eq!(mul(4).bootstraps(), 64);
    }

    #[test]
    fn mul_low_shape() {
        let net = mul_low(8);
        assert_eq!(net.num_inputs(), 16);
        assert_eq!(net.outputs().len(), 8);
        assert_eq!(net.bootstraps(), 136);
        // Degenerate width: a single AND.
        assert_eq!(mul_low(1).bootstraps(), 1);
    }

    #[test]
    fn alu_shape() {
        let net = alu(8);
        assert_eq!(net.num_inputs(), 2 + 16);
        assert_eq!(net.outputs().len(), 8);
        // Carry-free adder and subtractor chains (7 full adders + 2 sum
        // XORs = 37 each, less the 3 and 2 gates their constant carry-ins
        // restrict away), word-wise AND/XOR (8 each), and the 4-way
        // selection tree ((2+1) word-muxes × 8 bits × 2 bootstraps = 48).
        assert_eq!(net.bootstraps(), 34 + 35 + 8 + 8 + 48);
    }

    #[test]
    fn popcount_shape() {
        let net = popcount(16);
        assert_eq!(net.num_inputs(), 16);
        assert_eq!(net.outputs().len(), 5);
        // 11 full adders (5 gates) + 4 half adders (2 gates).
        assert_eq!(net.bootstraps(), 63);
        // The count of 16 bits needs 5 output columns; the top one only
        // ever receives the final carry, so no gate lands there.
        assert_eq!(popcount(4).outputs().len(), 3);
    }

    #[test]
    fn shifter_shape_collapses_zero_fill_levels() {
        // Width 8, 4 amount bits: levels shift by 1/2/4/8. The shift-by-8
        // level sources nothing from the word — all 8 positions collapse
        // to single-bootstrap ANDs; partial levels collapse per position.
        let net = shl(8, 4);
        assert_eq!(net.num_inputs(), 4 + 8);
        assert_eq!(net.outputs().len(), 8);
        assert_eq!(net.bootstraps(), 2 * (7 + 6 + 4) + (1 + 2 + 4 + 8));
        // The all-mux construction would cost 2 bootstraps everywhere.
        assert!(net.bootstraps() < 2 * 8 * 4);
        // Right shifts mirror left shifts exactly.
        assert_eq!(shr(8, 4).bootstraps(), net.bootstraps());
        assert_eq!(shr(4, 3).bootstraps(), shl(4, 3).bootstraps());
    }

    #[test]
    fn processor_cycle_shape() {
        let instr = CycleInstruction::Alu {
            dst: 0,
            src1: 0,
            src2: 1,
        };
        let net = processor_cycle(2, 8, instr);
        assert_eq!(net.num_inputs(), 2 * 8 + 2);
        // The whole register file comes back out.
        assert_eq!(net.outputs().len(), 2 * 8);
        // Cost is exactly the ALU body: passthrough registers are free.
        assert_eq!(net.bootstraps(), alu(8).bootstraps());

        let cmov = processor_cycle(
            3,
            4,
            CycleInstruction::CMov {
                dst: 2,
                src_true: 0,
                src_false: 1,
            },
        );
        assert_eq!(cmov.num_inputs(), 3 * 4 + 1);
        assert_eq!(cmov.outputs().len(), 3 * 4);
        assert_eq!(cmov.bootstraps(), 2 * 4); // one word-wise mux
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn processor_cycle_rejects_bad_register() {
        let _ = processor_cycle(
            2,
            4,
            CycleInstruction::Alu {
                dst: 2,
                src1: 0,
                src2: 1,
            },
        );
    }
}
