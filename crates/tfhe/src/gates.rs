//! Homomorphic Boolean gates (the paper's `Logic[c0, c1]` operations).
//!
//! Every two-input gate is a linear combination of the input ciphertexts
//! and a trivial constant, followed by a gate bootstrap that simultaneously
//! computes the sign decision and resets the noise. Inputs, linear parts
//! and outputs are all samples under the extracted key (dimension `N`);
//! the key switch to dimension `n` is the bootstrap's first step. `NOT` is
//! a free negation; `MUX` adds the outputs of two bootstraps, one per
//! lane, as in the TFHE reference library; the three-input [`Gate3`]s (majority and parity, a
//! full adder's carry and sum) are one bootstrap each — and one bootstrap
//! together, as an adder *cell*: the sum is linear in what the carry's blind
//! rotation already holds ([`LaneGate::Cell`]).

use crate::bootstrap::BootstrapKit;
use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::scratch::{BootstrapScratch, MAX_LANES};
use crate::secret::ClientKey;
use matcha_fft::FftEngine;
use matcha_math::Torus32;
use rand::Rng;
use std::fmt;

/// The two-input gates MATCHA evaluates (paper §5 studies all of them and
/// reports NAND, whose latency is representative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
    /// `a ∧ ¬b`.
    AndYN,
    /// `¬a ∧ b`.
    AndNY,
    /// `a ∨ ¬b`.
    OrYN,
    /// `¬a ∨ b`.
    OrNY,
}

impl Gate {
    /// All supported two-input gates, in declaration and wire-code order.
    pub const ALL: [Gate; 10] = [
        Gate::And,
        Gate::Or,
        Gate::Nand,
        Gate::Nor,
        Gate::Xor,
        Gate::Xnor,
        Gate::AndYN,
        Gate::AndNY,
        Gate::OrYN,
        Gate::OrNY,
    ];

    /// The gate's record.
    pub(crate) const fn desc(self) -> &'static GateDesc {
        &RECORDS[self as usize]
    }

    /// The plaintext truth table.
    pub fn eval(self, a: bool, b: bool) -> bool {
        self.desc().eval([a, b, false])
    }

    /// The gate with this wire code, if there is one.
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.desc().code == code)
    }

    /// The gate with this truth table (bit `a | b << 1`), if there is one.
    pub(crate) fn from_table(table: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.desc().table == table)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.desc().name)
    }
}

/// The three-input gates one sign bootstrap evaluates in the `±1/8`
/// encoding: with `a, b, c ∈ {−1/8, +1/8}`, `a + b + c` lands on
/// `{±1/8, ±3/8}` and its sign is the majority, and `2(a + b + c) + 1/2`
/// lands on `±1/4` with the sign of the parity. (`a + b + c − 1/4` for an
/// `AND3` would put its all-false row on `−5/8 ≡ +3/8`, the wrong side of
/// `1/2`: three-input AND and OR stay two gates.) Both are symmetric in
/// their operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate3 {
    /// At least two of the three operands are true (a full adder's carry).
    Maj,
    /// An odd number of the three operands are true (a full adder's sum).
    Xor3,
}

impl Gate3 {
    /// All supported three-input gates, in declaration and wire-code order.
    pub const ALL: [Gate3; 2] = [Gate3::Maj, Gate3::Xor3];

    /// The gate's record.
    pub const fn desc(self) -> &'static GateDesc {
        &RECORDS[Gate::ALL.len() + self as usize]
    }

    /// The plaintext truth table.
    pub fn eval(self, a: bool, b: bool, c: bool) -> bool {
        self.desc().eval([a, b, c])
    }

    /// The gate with this wire code, if there is one.
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.desc().code == code)
    }
}

impl fmt::Display for Gate3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.desc().name)
    }
}

/// What a bootstrapped gate is, stated once: one sign bootstrap of the
/// linear part `Σ weights[i]·opᵢ + offset` over `±1/8`-encoded operands.
/// Evaluation, the linear part, the BDD compile, folding, commutativity,
/// the noise bound and the wire code are all read from here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateDesc {
    /// Display name.
    pub name: &'static str,
    /// Operands the gate reads: 2 or 3.
    pub arity: usize,
    /// Truth table: bit `Σ opᵢ << i` is the output.
    pub table: u8,
    /// The integer weight of each operand in the linear part (`0` past
    /// [`GateDesc::arity`]).
    pub weights: [i32; 3],
    /// The torus constant of the linear part.
    pub offset: Torus32,
    /// Distance from every noiseless value of the linear part to the
    /// nearest sign boundary (`0` or `1/2`).
    pub margin: f64,
    /// The gate's code after its MNET tag (`Binary`'s or `Ternary`'s):
    /// its index in [`Gate::ALL`] or [`Gate3::ALL`].
    pub code: u8,
}

impl GateDesc {
    /// The output on the operand bits `bits[..arity]`.
    pub(crate) fn eval(&self, bits: [bool; 3]) -> bool {
        let row = (0..self.arity).fold(0, |row, i| row | u8::from(bits[i]) << i);
        self.table >> row & 1 == 1
    }

    /// `true` when every operand has the same weight: permuting the
    /// operands leaves the linear part — hence the output ciphertext, bit
    /// for bit — unchanged.
    pub(crate) fn commutative(&self) -> bool {
        let weights = &self.weights[..self.arity];
        weights.iter().all(|&w| w == weights[0])
    }
}

/// `k/8` on the torus.
const fn eighths(k: i32) -> Torus32 {
    Torus32::from_raw((k as u32) << 29)
}

/// A record: three operands when the third weighs anything, two otherwise.
const fn record(
    name: &'static str,
    table: u8,
    weights: [i32; 3],
    offset: Torus32,
    margin: f64,
    code: u8,
) -> GateDesc {
    let arity = if weights[2] == 0 { 2 } else { 3 };
    GateDesc {
        name,
        arity,
        table,
        weights,
        offset,
        margin,
        code,
    }
}

/// Every bootstrapped gate: the ten [`Gate`]s in [`Gate::ALL`] order, then
/// the two [`Gate3`]s. A weight of ±1 decides at margin `1/8`, one of ±2
/// (the parities, whose `±1/4` encodings double the operand error) at
/// `1/4`.
const RECORDS: [GateDesc; 12] = [
    record("AND", 0b1000, [1, 1, 0], eighths(-1), 0.125, 0),
    record("OR", 0b1110, [1, 1, 0], eighths(1), 0.125, 1),
    record("NAND", 0b0111, [-1, -1, 0], eighths(1), 0.125, 2),
    record("NOR", 0b0001, [-1, -1, 0], eighths(-1), 0.125, 3),
    record("XOR", 0b0110, [2, 2, 0], eighths(2), 0.25, 4),
    record("XNOR", 0b1001, [-2, -2, 0], eighths(-2), 0.25, 5),
    record("ANDYN", 0b0010, [1, -1, 0], eighths(-1), 0.125, 6),
    record("ANDNY", 0b0100, [-1, 1, 0], eighths(-1), 0.125, 7),
    record("ORYN", 0b1011, [1, -1, 0], eighths(1), 0.125, 8),
    record("ORNY", 0b1101, [-1, 1, 0], eighths(1), 0.125, 9),
    record("MAJ3", 0b1110_1000, [1, 1, 1], eighths(0), 0.125, 0),
    record("XOR3", 0b1001_0110, [2, 2, 2], eighths(4), 0.25, 1),
];

/// A gate's linear part `Σ wᵢ·opᵢ + offset` of dimension `n` (the ring
/// degree: operands are under the extracted key), as its
/// record states it, written into a caller-owned buffer — no allocation
/// once `out`'s mask has capacity `n`. Torus arithmetic wraps, so the
/// order of the terms does not change a bit of the result.
fn linear_part_into(
    desc: &GateDesc,
    operands: &[&LweCiphertext],
    n: usize,
    out: &mut LweCiphertext,
) {
    profile::timed(Phase::Other, || {
        out.assign_trivial(desc.offset, n);
        for (&weight, operand) in desc.weights.iter().zip(operands) {
            out.add_scaled_assign(operand, weight);
        }
    })
}

/// One bootstrapped gate of a wave, operands by reference: what
/// [`ServerKey::apply_lanes_into`] evaluates a slice of.
#[derive(Clone, Copy, Debug)]
pub enum LaneGate<'a> {
    /// A two-input gate: one bootstrap, one lane.
    Binary {
        /// The gate to evaluate.
        gate: Gate,
        /// Left operand.
        a: &'a LweCiphertext,
        /// Right operand.
        b: &'a LweCiphertext,
    },
    /// `sel ? a : b`: two bootstraps side by side, two lanes.
    Mux {
        /// The selector.
        sel: &'a LweCiphertext,
        /// Taken when `sel` is true.
        a: &'a LweCiphertext,
        /// Taken when `sel` is false.
        b: &'a LweCiphertext,
    },
    /// A three-input gate: one bootstrap, one lane.
    Ternary {
        /// The gate to evaluate.
        gate: Gate3,
        /// The operands (the gates are symmetric in them).
        ops: [&'a LweCiphertext; 3],
    },
    /// An adder cell: the majority of the operands and, riding on the same
    /// blind rotation, their parity — one bootstrap, one lane, **two**
    /// outputs (carry, then sum).
    ///
    /// With `L = a + b + c` the majority's linear part and `c′ = sign(L)/8`
    /// its bootstrapped value, `L − 2c′` is the encoding of `a ⊕ b ⊕ c`
    /// (`±3/8 ∓ 2/8`, `±1/8 ∓ 2/8`). The rotated all-`(−μ)` test vector
    /// holds `sign(L)·μ` at *every* coefficient, so the `2c′` is
    /// coefficients 1 and 2 of the accumulator, extracted and taken off
    /// the kept linear part — both under the extracted key, so nothing is
    /// switched beyond the majority's own input. The carry is coefficient
    /// 0, bit for bit the [`Gate3::Maj`] output; the sum carries its
    /// operands' noise — it is *not* a noise reset
    /// ([`NoiseModel::sum_variance`](crate::NoiseModel::sum_variance)).
    /// A half adder is the cell whose third operand is a trivial `false`.
    Cell {
        /// The operands (the cell is symmetric in them).
        ops: [&'a LweCiphertext; 3],
    },
}

impl LaneGate<'_> {
    /// Blind rotations the gate runs, i.e. lanes it occupies in a wave.
    pub(crate) fn lanes(&self) -> usize {
        match self {
            LaneGate::Mux { .. } => 2,
            _ => 1,
        }
    }

    /// Ciphertexts the gate writes: one, or a cell's two.
    pub(crate) fn outputs(&self) -> usize {
        match self {
            LaneGate::Cell { .. } => 2,
            _ => 1,
        }
    }
}

/// Length of the longest prefix of gates, given by their lane counts, that
/// fits `cap` lanes — at least one gate, so cutting always makes progress
/// (`cap ≥ 2` fits any single gate).
pub(crate) fn lane_prefix(lanes: impl Iterator<Item = usize>, cap: usize) -> usize {
    let mut used = 0;
    let fits = lanes.take_while(|&l| {
        used += l;
        used <= cap
    });
    fits.count().max(1)
}

/// The evaluator's key: bootstrapping + key-switching keys bound to an FFT
/// engine, exposing the Boolean gate API over samples under the client's
/// extracted key.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{ClientKey, ServerKey, params::ParameterSet};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let engine = F64Fft::new(client.params().ring_degree);
/// let server = ServerKey::new(&client, engine, &mut rng);
/// let (a, b) = (client.encrypt(true), client.encrypt(false));
/// let c = server.nand(&a, &b);
/// assert!(client.decrypt(&c));
/// ```
#[derive(Clone, Debug)]
pub struct ServerKey<E: FftEngine> {
    kit: BootstrapKit<E>,
    engine: E,
}

/// The gate output plaintext amplitude `1/8`.
const GATE_MU: Torus32 = Torus32::from_raw(1 << 29);

impl<E: FftEngine> ServerKey<E> {
    /// Builds a server key with the classic (`m = 1`) bootstrapping flow.
    pub fn new<R: Rng>(client: &ClientKey, engine: E, rng: &mut R) -> Self {
        Self::with_unrolling(client, engine, 1, rng)
    }

    /// Builds a server key with BKU factor `m` (paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics if `unroll ∉ 1..=8` or the engine's ring degree disagrees
    /// with the client parameters.
    pub fn with_unrolling<R: Rng>(
        client: &ClientKey,
        engine: E,
        unroll: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(
            engine.ring_degree(),
            client.params().ring_degree,
            "engine ring degree must match parameters"
        );
        let kit = BootstrapKit::generate(client, &engine, unroll, rng);
        Self { kit, engine }
    }

    /// The parameter set.
    pub fn params(&self) -> &ParameterSet {
        self.kit.params()
    }

    /// The BKU factor `m`.
    pub fn unroll(&self) -> usize {
        self.kit.unroll()
    }

    /// The underlying bootstrap machinery (for noise experiments).
    pub fn kit(&self) -> &BootstrapKit<E> {
        &self.kit
    }

    /// The FFT engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// A trivial (noiseless, unkeyed) encryption of a Boolean constant, of
    /// the dimension gates read (the ring degree `N`).
    pub fn trivial(&self, value: bool) -> LweCiphertext {
        LweCiphertext::trivial(Torus32::from_bool(value), self.params().ring_degree)
    }

    /// Applies any two-input gate: linear part + key switch + blind
    /// rotation + sample extraction.
    /// [`ServerKey::apply_into`] through a scratch built for the call.
    pub fn apply(&self, gate: Gate, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let mut out = LweCiphertext::default();
        self.apply_into(gate, a, b, &mut out, &mut self.make_scratch());
        out
    }

    /// Builds a reusable workspace for [`ServerKey::apply_into`].
    pub fn make_scratch(&self) -> BootstrapScratch<E> {
        self.kit.make_scratch(&self.engine)
    }

    /// [`ServerKey::apply`] into a caller-owned output through the scratch:
    /// a warmed call evaluates the whole gate — linear part, key switch,
    /// blind rotation, sample extraction — with zero heap allocations. The one-gate call of [`ServerKey::apply_lanes_into`].
    pub fn apply_into(
        &self,
        gate: Gate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        let gates = [LaneGate::Binary { gate, a, b }];
        self.apply_lanes_into(&gates, std::slice::from_mut(out), scratch);
    }

    /// Evaluates a slice of independent gates into `outs`, a wave of up to
    /// [`MAX_LANES`] blind rotations at a time: linear parts, one
    /// coefficient-major key switch of all of them
    /// ([`KeySwitchKey::switch_slice_into`](crate::KeySwitchKey::switch_slice_into)),
    /// then **one pass over the bootstrapping key** carrying every lane
    /// through each key group (`BootstrapKit::blind_rotate_lanes`), and
    /// sample extraction straight into `outs` (with the mux and cell
    /// recombinations).
    /// Each gate's arithmetic is what a one-gate call does for it alone,
    /// so every output is bit-identical to that call's; a warmed call
    /// allocates nothing. Outputs are in gate order, a [`LaneGate::Cell`]'s
    /// carry then its sum.
    ///
    /// # Panics
    ///
    /// Panics if `outs` does not hold one entry per gate (two per cell), or
    /// on a mismatched operand dimension.
    pub fn apply_lanes_into(
        &self,
        gates: &[LaneGate<'_>],
        outs: &mut [LweCiphertext],
        scratch: &mut BootstrapScratch<E>,
    ) {
        let outputs = |gates: &[LaneGate<'_>]| gates.iter().map(LaneGate::outputs).sum::<usize>();
        assert_eq!(
            outputs(gates),
            outs.len(),
            "one output per gate, two per cell"
        );
        let (mut gates, mut outs) = (gates, outs);
        while !gates.is_empty() {
            let take = lane_prefix(gates.iter().map(LaneGate::lanes), MAX_LANES);
            let (wave, rest) = gates.split_at(take);
            let (wave_outs, rest_outs) = outs.split_at_mut(outputs(wave));
            let mut lane = 0;
            for gate in wave {
                self.stage_lanes(gate, lane, scratch);
                lane += gate.lanes();
            }
            self.finish_lanes(wave, wave_outs, scratch);
            (gates, outs) = (rest, rest_outs);
        }
    }

    /// The per-gate half of a wave: checks `gate`'s operands and takes its
    /// linear part(s) as the inputs of lanes `lane..lane + gate.lanes()`.
    /// Touches nothing another lane owns, so a gate that panics here can be
    /// dropped from its wave.
    pub(crate) fn stage_lanes(
        &self,
        gate: &LaneGate<'_>,
        lane: usize,
        scratch: &mut BootstrapScratch<E>,
    ) {
        scratch.reserve_lanes(lane + gate.lanes());
        let n = self.params().ring_degree;
        let lin = &mut scratch.lin[lane..];
        match *gate {
            LaneGate::Binary { gate, a, b } => {
                linear_part_into(gate.desc(), &[a, b], n, &mut lin[0]);
            }
            // u1 = AND(sel, a), u2 = AND(¬sel, b).
            LaneGate::Mux { sel, a, b } => {
                linear_part_into(Gate::And.desc(), &[sel, a], n, &mut lin[0]);
                linear_part_into(Gate::AndNY.desc(), &[sel, b], n, &mut lin[1]);
            }
            LaneGate::Ternary { gate, ops } => linear_part_into(gate.desc(), &ops, n, &mut lin[0]),
            // The majority's lane; its linear part stays for the sum.
            LaneGate::Cell { ops } => linear_part_into(Gate3::Maj.desc(), &ops, n, &mut lin[0]),
        }
    }

    /// The shared half of a wave: key-switches every staged lane's linear
    /// part in one walk through the key-switching key, blind-rotates the
    /// lanes in one pass over the bootstrapping key, and extracts each
    /// output into `outs` (`gates` are the staged gates, in lane order:
    /// one lane read at coefficient 0, a mux's two added to `1/8`, a cell's
    /// one read at coefficient 0 and taken off its kept linear part).
    pub(crate) fn finish_lanes(
        &self,
        gates: &[LaneGate<'_>],
        outs: &mut [LweCiphertext],
        scratch: &mut BootstrapScratch<E>,
    ) {
        let lanes = gates.iter().map(LaneGate::lanes).sum();
        self.kit
            .key_switch_key()
            .switch_slice_into(&scratch.lin[..lanes], &mut scratch.switched[..lanes]);
        // All-(−μ) test vector, as in `BootstrapKit::bootstrap_into`.
        scratch.testv.coeffs_mut().fill(-GATE_MU);
        self.kit.stage_switched(lanes, scratch);
        self.kit.blind_rotate_lanes(&self.engine, lanes, scratch);
        let BootstrapScratch {
            lanes: rotated,
            lin,
            spare,
            ..
        } = scratch;
        profile::timed(Phase::Other, || {
            let (mut lane, mut out) = (0, 0);
            for gate in gates {
                let acc = &rotated[lane].acc;
                acc.sample_extract_into(&mut outs[out]);
                match gate {
                    LaneGate::Binary { .. } | LaneGate::Ternary { .. } => {}
                    LaneGate::Mux { .. } => {
                        // sel ? a : b = u1 + u2 + (0, 1/8).
                        rotated[lane + 1].acc.sample_extract_into(spare);
                        outs[out].add_assign(spare);
                        outs[out].add_body(GATE_MU);
                    }
                    LaneGate::Cell { .. } => {
                        // sum = (a + b + c) − 2·carry, twice the carry being
                        // two coefficients the carry did not use: the
                        // rotated test vector is constant.
                        let sum = &mut outs[out + 1];
                        sum.copy_from(&lin[lane]);
                        for coefficient in [1, 2] {
                            acc.sample_extract_at_into(coefficient, spare);
                            sum.sub_assign(spare);
                        }
                    }
                }
                lane += gate.lanes();
                out += gate.outputs();
            }
        });
    }

    /// Applies a three-input gate in one bootstrap.
    /// [`ServerKey::apply3_into`] through a scratch built for the call.
    pub(crate) fn apply3(
        &self,
        gate: Gate3,
        a: &LweCiphertext,
        b: &LweCiphertext,
        c: &LweCiphertext,
    ) -> LweCiphertext {
        let mut out = LweCiphertext::default();
        self.apply3_into(gate, [a, b, c], &mut out, &mut self.make_scratch());
        out
    }

    /// Applies a three-input gate in one bootstrap, into a caller-owned
    /// output through the scratch, allocation-free once warmed. The
    /// one-gate call of [`ServerKey::apply_lanes_into`].
    pub fn apply3_into(
        &self,
        gate: Gate3,
        ops: [&LweCiphertext; 3],
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        let gates = [LaneGate::Ternary { gate, ops }];
        self.apply_lanes_into(&gates, std::slice::from_mut(out), scratch);
    }

    /// An adder cell in one bootstrap: `[carry, sum]` of `a + b + c`
    /// ([`LaneGate::Cell`]). [`ServerKey::cell_into`] through a scratch
    /// built for the call.
    pub(crate) fn cell(
        &self,
        a: &LweCiphertext,
        b: &LweCiphertext,
        c: &LweCiphertext,
    ) -> [LweCiphertext; 2] {
        let mut outs = [LweCiphertext::default(), LweCiphertext::default()];
        self.cell_into([a, b, c], &mut outs, &mut self.make_scratch());
        outs
    }

    /// An adder cell in one bootstrap, `[carry, sum]` of `a + b + c`
    /// ([`LaneGate::Cell`]), into caller-owned outputs through the scratch,
    /// allocation-free once warmed. The one-gate call of
    /// [`ServerKey::apply_lanes_into`].
    pub fn cell_into(
        &self,
        ops: [&LweCiphertext; 3],
        outs: &mut [LweCiphertext; 2],
        scratch: &mut BootstrapScratch<E>,
    ) {
        self.apply_lanes_into(&[LaneGate::Cell { ops }], outs, scratch);
    }

    /// Logical OR.
    pub fn or(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Or, a, b)
    }

    /// Logical NAND (the gate the paper reports throughput for).
    pub fn nand(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Nand, a, b)
    }

    /// Logical XOR.
    pub fn xor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Xor, a, b)
    }

    /// Logical NOT — a free negation, no bootstrap (paper §5: "NOT has no
    /// bootstrapping at all").
    pub fn not(&self, a: &LweCiphertext) -> LweCiphertext {
        profile::timed(Phase::Other, || {
            let mut out = a.clone();
            out.neg_assign();
            out
        })
    }

    /// Homomorphic multiplexer `sel ? a : b`: the outputs of two
    /// bootstraps, `AND(sel, a)` and `AND(¬sel, b)`, added, as in the TFHE
    /// reference library — each bootstrap switching its own linear part.
    /// `mux_into` through a scratch built for the call.
    pub fn mux(&self, sel: &LweCiphertext, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let mut out = LweCiphertext::default();
        self.mux_into(sel, a, b, &mut out, &mut self.make_scratch());
        out
    }

    /// [`ServerKey::mux`] into a caller-owned output through the scratch:
    /// both bootstraps (side by side, as two lanes of one key switch and
    /// one pass over the key) and the recombination run with zero heap
    /// allocations once warmed. The one-gate call of
    /// [`ServerKey::apply_lanes_into`].
    fn mux_into(
        &self,
        sel: &LweCiphertext,
        a: &LweCiphertext,
        b: &LweCiphertext,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        let gates = [LaneGate::Mux { sel, a, b }];
        self.apply_lanes_into(&gates, std::slice::from_mut(out), scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(unroll: usize) -> (ClientKey, ServerKey<F64Fft>, StdRng) {
        let mut rng = StdRng::seed_from_u64(1000 + unroll as u64);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
        (client, server, rng)
    }

    #[test]
    fn all_gates_match_truth_tables() {
        let (client, server, mut rng) = setup(1);
        for gate in Gate::ALL {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                let out = server.apply(gate, &ca, &cb);
                assert_eq!(client.decrypt(&out), gate.eval(a, b), "{gate}({a}, {b})");
            }
        }
    }

    #[test]
    fn gates_with_unrolling_m2() {
        let (client, server, mut rng) = setup(2);
        for gate in [Gate::Nand, Gate::Xor] {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                assert_eq!(
                    client.decrypt(&server.apply(gate, &ca, &cb)),
                    gate.eval(a, b),
                    "{gate}({a}, {b}) m=2"
                );
            }
        }
    }

    /// All twelve records: the table and the margin derived back from the
    /// weights and the offset on every row, and the code round-trips.
    #[test]
    fn gate3_descriptors_decide_their_tables_at_their_margins() {
        let two = Gate::ALL.map(|g| (g.desc(), Gate::from_code(g.desc().code) == Some(g)));
        let three = Gate3::ALL.map(|g| (g.desc(), Gate3::from_code(g.desc().code) == Some(g)));
        for (desc, round_trips) in two.into_iter().chain(three) {
            let name = desc.name;
            assert!(round_trips, "{name}");
            let mut closest = f64::INFINITY;
            for row in 0..1u8 << desc.arity {
                let bits = [0, 1, 2].map(|i| row >> i & 1 == 1);
                // The linear part on noiseless ±1/8 operands.
                let phase = (0..desc.arity).fold(desc.offset, |phase, i| {
                    phase + Torus32::from_bool(bits[i]) * desc.weights[i]
                });
                assert_eq!(phase.to_bool(), desc.eval(bits), "{name} row {row:03b}");
                assert_eq!(desc.eval(bits), desc.table >> row & 1 == 1);
                let to_boundary = phase
                    .distance_to_zero()
                    .min((phase + Torus32::HALF).distance_to_zero());
                closest = closest.min(to_boundary);
            }
            assert_eq!(closest, desc.margin, "{name}");
            assert_eq!(u16::from(desc.table) >> (1 << desc.arity), 0, "{name}");
        }
        assert_eq!(Gate::from_code(Gate::ALL.len() as u8), None);
        assert_eq!(Gate3::from_code(Gate3::ALL.len() as u8), None);
        for (i, gate) in Gate::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(gate.desc().code), i, "{gate}");
            assert_eq!(Gate::from_table(gate.desc().table), Some(gate));
        }
    }

    /// The linear parts as `ServerKey` wrote them before the records, one
    /// arm per gate: `±a ± b` (doubled for the parities) and a body in
    /// eighths.
    fn hand_written_linear_part(gate: Gate, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let zero = LweCiphertext::trivial(Torus32::ZERO, a.dimension());
        let (mut out, eighths) = match gate {
            Gate::And => (zero + a + b, -1),
            Gate::Or => (zero + a + b, 1),
            Gate::Nand => (zero - a - b, 1),
            Gate::Nor => (zero - a - b, -1),
            Gate::Xor => ((zero + a + b).scale(2), 2),
            Gate::Xnor => ((zero + a + b).scale(-2), -2),
            Gate::AndYN => (zero + a - b, -1),
            Gate::AndNY => (zero - a + b, -1),
            Gate::OrYN => (zero + a - b, 1),
            Gate::OrNY => (zero - a + b, 1),
        };
        out.add_body(Torus32::from_dyadic(eighths, 3));
        out
    }

    #[test]
    fn derived_linear_parts_match_the_hand_written_ones() {
        let mut sampler = matcha_math::TorusSampler::new(StdRng::seed_from_u64(1007));
        let mut random = || {
            let mask = (0..ParameterSet::MATCHA.ring_degree).map(|_| sampler.uniform());
            LweCiphertext::from_parts(mask.collect(), sampler.uniform())
        };
        let n = ParameterSet::MATCHA.ring_degree;
        let mut lin = LweCiphertext::default();
        for _ in 0..16 {
            let [sel, a, b, c] = [0; 4].map(|_| random());
            for gate in Gate::ALL {
                linear_part_into(gate.desc(), &[&a, &b], n, &mut lin);
                assert_eq!(lin, hand_written_linear_part(gate, &a, &b), "{gate}");
            }
            // Both lanes of a mux.
            linear_part_into(Gate::And.desc(), &[&sel, &a], n, &mut lin);
            assert_eq!(lin, hand_written_linear_part(Gate::And, &sel, &a));
            linear_part_into(Gate::AndNY.desc(), &[&sel, &b], n, &mut lin);
            assert_eq!(lin, hand_written_linear_part(Gate::AndNY, &sel, &b));
            // The three-input gates' `scale · (a + b + c) + offset`.
            for (gate, scale, offset) in [(Gate3::Maj, 1, 0), (Gate3::Xor3, 2, 1)] {
                linear_part_into(gate.desc(), &[&a, &b, &c], n, &mut lin);
                let mut want =
                    (LweCiphertext::trivial(Torus32::ZERO, n) + &a + &b + &c).scale(scale);
                want.add_body(Torus32::from_dyadic(offset, 1));
                assert_eq!(lin, want, "{gate}");
            }
        }
    }

    /// Every row of both three-input gates, under every polarity of the
    /// operands (a negated leaf is a free `NOT` in front of the gate).
    fn check_gate3_rows<E: FftEngine>(engine: E, unroll: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
        let mut scratch = server.make_scratch();
        let mut out = LweCiphertext::default();
        for row in 0..8u8 {
            let bits = [0, 1, 2].map(|i| row >> i & 1 == 1);
            let plain = bits.map(|b| client.encrypt_with(b, &mut rng));
            let negated = [0, 1, 2].map(|i| server.not(&plain[i]));
            for polarity in 0..8u8 {
                let flipped = [0, 1, 2].map(|i| polarity >> i & 1 == 1);
                let ops = [0, 1, 2].map(|i| if flipped[i] { &negated[i] } else { &plain[i] });
                let [a, b, c] = [0, 1, 2].map(|i| bits[i] ^ flipped[i]);
                for gate in Gate3::ALL {
                    server.apply3_into(gate, ops, &mut out, &mut scratch);
                    assert_eq!(
                        client.decrypt(&out),
                        gate.eval(a, b, c),
                        "{gate}({a}, {b}, {c}) m={unroll}"
                    );
                }
            }
        }
    }

    #[test]
    fn ternary_gates_match_truth_tables_f64_m2() {
        check_gate3_rows(F64Fft::new(256), 2, 1003);
    }

    #[test]
    fn ternary_gates_match_truth_tables_approx38_m3() {
        check_gate3_rows(ApproxIntFft::new(256, 38), 3, 1004);
    }

    /// Every row of the adder cell under every polarity of the operands,
    /// carry and sum both, the carry bit for bit the `MAJ3` gate's, and the
    /// sum bit for bit `a + b + c` minus accumulator coefficients 1 and 2:
    /// nothing on the sum's way out is switched.
    fn check_cell_rows<E: FftEngine>(engine: E, unroll: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
        let mut scratch = server.make_scratch();
        let mut outs = [LweCiphertext::default(), LweCiphertext::default()];
        let mut majority = LweCiphertext::default();
        for row in 0..8u8 {
            let bits = [0, 1, 2].map(|i| row >> i & 1 == 1);
            let plain = bits.map(|b| client.encrypt_with(b, &mut rng));
            let negated = [0, 1, 2].map(|i| server.not(&plain[i]));
            for polarity in 0..8u8 {
                let flipped = [0, 1, 2].map(|i| polarity >> i & 1 == 1);
                let ops = [0, 1, 2].map(|i| if flipped[i] { &negated[i] } else { &plain[i] });
                let [a, b, c] = [0, 1, 2].map(|i| bits[i] ^ flipped[i]);
                server.cell_into(ops, &mut outs, &mut scratch);
                let [carry, sum] = outs.each_ref().map(|out| client.decrypt(out));
                assert_eq!(carry, Gate3::Maj.eval(a, b, c), "carry({a}, {b}, {c})");
                assert_eq!(sum, Gate3::Xor3.eval(a, b, c), "sum({a}, {b}, {c})");
                let acc = scratch.accumulator();
                let twin = acc.sample_extract_at(1) + &acc.sample_extract_at(2);
                let n = client.params().ring_degree;
                let lin = LweCiphertext::trivial(Torus32::ZERO, n) + ops[0] + ops[1] + ops[2];
                assert_eq!(outs[1], lin - &twin, "the sum is L − twin");
                server.apply3_into(Gate3::Maj, ops, &mut majority, &mut scratch);
                assert_eq!(outs[0], majority, "the carry is the MAJ3 gate's output");
            }
        }
        // A half adder is the cell with a constant-false carry-in.
        let no_carry = server.trivial(false);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let [ca, cb] = [a, b].map(|bit| client.encrypt_with(bit, &mut rng));
            let [carry, sum] = server.cell(&ca, &cb, &no_carry);
            assert_eq!(
                carry,
                server.apply(Gate::And, &ca, &cb),
                "MAJ(a, b, 0) is AND, bit for bit"
            );
            assert_eq!(client.decrypt(&sum), a ^ b, "{a} ^ {b}");
        }
    }

    #[test]
    fn cell_matches_truth_tables_f64_m2() {
        check_cell_rows(F64Fft::new(256), 2, 1005);
    }

    #[test]
    fn cell_matches_truth_tables_approx38_m3() {
        check_cell_rows(ApproxIntFft::new(256, 38), 3, 1006);
    }

    #[test]
    fn not_gate_is_free_and_correct() {
        let (client, server, mut rng) = setup(1);
        for v in [true, false] {
            let c = client.encrypt_with(v, &mut rng);
            assert_eq!(client.decrypt(&server.not(&c)), !v);
        }
    }

    #[test]
    fn mux_selects() {
        let (client, server, mut rng) = setup(1);
        for sel in [true, false] {
            for (a, b) in [(true, false), (false, true), (true, true), (false, false)] {
                let cs = client.encrypt_with(sel, &mut rng);
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                let out = server.mux(&cs, &ca, &cb);
                assert_eq!(
                    client.decrypt(&out),
                    if sel { a } else { b },
                    "sel={sel} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn mux_into_is_bit_identical_to_mux() {
        let (client, server, mut rng) = setup(1);
        let mut scratch = server.make_scratch();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, 1);
        for sel in [true, false] {
            for (a, b) in [(true, false), (false, true)] {
                let cs = client.encrypt_with(sel, &mut rng);
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                let eager = server.mux(&cs, &ca, &cb);
                server.mux_into(&cs, &ca, &cb, &mut out, &mut scratch);
                assert_eq!(out, eager, "sel={sel} a={a} b={b}");
            }
        }
    }

    #[test]
    fn lanes_are_built_on_first_use_only() {
        // A one-gate caller's scratch holds one lane, whatever the cap: its
        // footprint is what it was before a bootstrap became a slice
        // operation.
        let (client, server, mut rng) = setup(2);
        let bits: Vec<LweCiphertext> = (0..MAX_LANES + 1)
            .map(|i| client.encrypt_with(i % 2 == 0, &mut rng))
            .collect();
        let mut scratch = server.make_scratch();
        let mut outs = vec![LweCiphertext::default(); MAX_LANES + 1];
        server.apply_into(Gate::Nand, &bits[0], &bits[1], &mut outs[0], &mut scratch);
        assert_eq!((scratch.lanes.len(), scratch.lin.len()), (1, 1));
        server.mux_into(&bits[0], &bits[1], &bits[2], &mut outs[0], &mut scratch);
        assert_eq!((scratch.lanes.len(), scratch.lin.len()), (2, 2));
        // More gates than lanes: two passes, and no lane past the cap.
        let gates: Vec<LaneGate<'_>> = bits
            .windows(2)
            .map(|w| LaneGate::Binary {
                gate: Gate::Xor,
                a: &w[0],
                b: &w[1],
            })
            .chain([LaneGate::Mux {
                sel: &bits[0],
                a: &bits[1],
                b: &bits[2],
            }])
            .collect();
        server.apply_lanes_into(&gates, &mut outs, &mut scratch);
        assert_eq!(scratch.lanes.len(), MAX_LANES);
        for (out, w) in outs.iter().zip(bits.windows(2)) {
            assert_eq!(*out, server.apply(Gate::Xor, &w[0], &w[1]));
        }
        assert_eq!(outs[MAX_LANES], server.mux(&bits[0], &bits[1], &bits[2]));
    }

    #[test]
    fn lane_prefix_cuts_at_the_cap_and_always_advances() {
        assert_eq!(lane_prefix([1, 1, 1].into_iter(), 2), 2);
        assert_eq!(lane_prefix([1, 2, 1].into_iter(), 2), 1);
        assert_eq!(lane_prefix([1, 0, 0, 1].into_iter(), 1), 3);
        assert_eq!(lane_prefix([2, 1].into_iter(), 1), 1, "a mux alone");
        assert_eq!(lane_prefix([1; 40].into_iter(), MAX_LANES), MAX_LANES);
    }

    #[test]
    fn trivial_constants_feed_gates() {
        let (client, server, mut rng) = setup(1);
        let ct = server.trivial(true);
        let ca = client.encrypt_with(true, &mut rng);
        assert!(client.decrypt(&server.apply(Gate::And, &ca, &ct)));
        assert!(!client.decrypt(&server.nand(&ca, &ct)));
    }

    #[test]
    fn gate_chain_survives_noise() {
        // A chain of dependent gates: each output feeds the next.
        let (client, server, mut rng) = setup(2);
        let mut acc = client.encrypt_with(true, &mut rng);
        let mut expected = true;
        for i in 0..6 {
            let fresh_val = i % 2 == 0;
            let fresh = client.encrypt_with(fresh_val, &mut rng);
            acc = server.xor(&acc, &fresh);
            expected ^= fresh_val;
            assert_eq!(client.decrypt(&acc), expected, "step {i}");
        }
    }

    #[test]
    fn nand_with_integer_engine() {
        let mut rng = StdRng::seed_from_u64(77);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = ApproxIntFft::new(client.params().ring_degree, 45);
        let server = ServerKey::with_unrolling(&client, engine, 2, &mut rng);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let ca = client.encrypt_with(a, &mut rng);
            let cb = client.encrypt_with(b, &mut rng);
            assert_eq!(client.decrypt(&server.nand(&ca, &cb)), !(a && b));
        }
    }

    #[test]
    fn gate_display_names() {
        assert_eq!(Gate::Nand.to_string(), "NAND");
        assert_eq!(Gate::AndYN.to_string(), "ANDYN");
    }
}
