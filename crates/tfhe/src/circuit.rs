//! Executable gate netlists and the wave-front circuit executor.
//!
//! `accel::schedule` models circuits as dependency DAGs of equal-cost
//! gates to *predict* makespan on parallel pipelines; this module is the
//! executable counterpart. A [`CircuitNetlist`] carries real operands —
//! encrypted inputs, trivial constants, all ten binary [`Gate`]s, the free
//! `NOT`, the two-bootstrap `MUX`, the one-bootstrap three-input
//! [`Gate3`]s and the free `Sum` that rides on a majority's bootstrap —
//! with dependency edges validated at construction.
//! [`CircuitNetlist::execute`] schedules it level by level:
//! every wave of ready gates is dispatched as one mixed-gate batch onto a
//! persistent [`GateBatchPool`], the software analogue of MATCHA's
//! scheduler keeping its eight resident bootstrapping pipelines busy on
//! dependent gate workloads (the throughput story of Figure 10).
//!
//! [`CircuitNetlist::schedule_skeleton`] exports the dependency structure
//! of the bootstrapped work back to the analytical model, so predicted
//! makespan/utilization can be cross-checked against measured wall-clock.

use crate::batch::{GateBatchPool, SlabTask, ValueSlab};
use crate::gates::{Gate, Gate3, GateDesc, ServerKey};
use crate::lwe::LweCiphertext;
use matcha_fft::FftEngine;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One node of an executable netlist. Operand fields are indices of
/// earlier nodes (the netlist is topologically ordered by construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// The circuit's `slot`-th encrypted input, supplied at execution time.
    Input(usize),
    /// A trivial (noiseless, unkeyed) Boolean constant.
    Constant(bool),
    /// A two-input bootstrapped gate.
    Binary(Gate, usize, usize),
    /// Free negation — no bootstrap.
    Not(usize),
    /// `sel ? a : b` — two bootstraps, their outputs added.
    Mux {
        /// Selector node.
        sel: usize,
        /// Node taken when the selector is true.
        a: usize,
        /// Node taken when the selector is false.
        b: usize,
    },
    /// A three-input bootstrapped gate — one bootstrap.
    Ternary(Gate3, usize, usize, usize),
    /// `a ⊕ b ⊕ c` at no bootstrap of its own: the sum of an adder cell,
    /// read off the blind rotation of its *host*, the
    /// `Ternary(Gate3::Maj, ..)` over the same three nodes that the netlist
    /// must hold earlier ([`LaneGate::Cell`](crate::gates::LaneGate::Cell)).
    /// Free, but not a noise reset: the value carries its operands' noise.
    Sum(usize, usize, usize),
}

impl GateOp {
    /// The operand node indices this op consumes (`None` entries pad the
    /// fixed-width array; sources consume nothing).
    pub fn operands(&self) -> [Option<usize>; 3] {
        match *self {
            GateOp::Input(_) | GateOp::Constant(_) => [None, None, None],
            GateOp::Binary(_, a, b) => [Some(a), Some(b), None],
            GateOp::Not(a) => [Some(a), None, None],
            GateOp::Mux { sel, a, b } => [Some(sel), Some(a), Some(b)],
            GateOp::Ternary(_, a, b, c) | GateOp::Sum(a, b, c) => [Some(a), Some(b), Some(c)],
        }
    }

    /// The same op over renamed operands (`f` maps each operand node).
    pub(crate) fn map_operands(&self, f: impl Fn(usize) -> usize) -> Self {
        match *self {
            GateOp::Input(_) | GateOp::Constant(_) => *self,
            GateOp::Binary(g, a, b) => GateOp::Binary(g, f(a), f(b)),
            GateOp::Not(a) => GateOp::Not(f(a)),
            GateOp::Mux { sel, a, b } => GateOp::Mux {
                sel: f(sel),
                a: f(a),
                b: f(b),
            },
            GateOp::Ternary(g, a, b, c) => GateOp::Ternary(g, f(a), f(b), f(c)),
            GateOp::Sum(a, b, c) => GateOp::Sum(f(a), f(b), f(c)),
        }
    }

    /// A one-bootstrap gate's record and operands (those past the record's
    /// arity are `0` and mean nothing); `None` for every other op.
    pub(crate) fn gate(&self) -> Option<(&'static GateDesc, [usize; 3])> {
        match *self {
            GateOp::Binary(g, a, b) => Some((g.desc(), [a, b, 0])),
            GateOp::Ternary(g, a, b, c) => Some((g.desc(), [a, b, c])),
            _ => None,
        }
    }

    /// The op's plaintext value given its operands' (`v[i]` is the bit of
    /// `self.operands()[i]`); `None` for an input, whose value comes from
    /// outside the netlist.
    pub(crate) fn eval(&self, v: [bool; 3]) -> Option<bool> {
        Some(match *self {
            GateOp::Constant(c) => c,
            GateOp::Not(_) => !v[0],
            GateOp::Mux { .. } => v[if v[0] { 1 } else { 2 }],
            GateOp::Sum(..) => Gate3::Xor3.desc().eval(v),
            _ => return self.gate().map(|(desc, _)| desc.eval(v)),
        })
    }

    /// Gate bootstraps this op costs (binary and ternary gates one, muxes
    /// two, sources, free `NOT`s and riding `Sum`s none).
    pub fn bootstraps(&self) -> usize {
        match self {
            GateOp::Mux { .. } => 2,
            _ => usize::from(self.gate().is_some()),
        }
    }

    /// The op with the operands `value` knows substituted: its plaintext
    /// evaluation tabulated over the free operands, those the table
    /// ignores dropped. No free operand left is a constant, one is that node or its free
    /// `NOT`, two are the two-input [`Gate`] with that table. Three come
    /// back as the op itself — so does a mux whose arms are one free node:
    /// the bootstraps that reset the arm's noise would be skipped by an
    /// alias of it. Sources and riding `Sum`s (computed by their host, not
    /// on their own) come back as they are, a constant as its value.
    pub fn restrict(&self, value: impl Fn(usize) -> Option<bool>) -> Restricted {
        let arity = match *self {
            GateOp::Constant(v) => return Restricted::Const(v),
            GateOp::Input(_) | GateOp::Sum(..) => return Restricted::Op(*self),
            GateOp::Not(_) => 1,
            GateOp::Binary(..) => 2,
            GateOp::Mux { .. } | GateOp::Ternary(..) => 3,
        };
        let operands = self.operands().map(|o| o.unwrap_or(0));
        let known = operands.map(&value);
        // The op's value with the free operands `vars[j]` at bit `j` of `row`.
        let at = |vars: &[usize], row: usize| {
            let mut bits = known.map(|k| k.unwrap_or(false));
            for (j, &i) in vars.iter().enumerate() {
                bits[i] = row >> j & 1 == 1;
            }
            self.eval(bits).expect("an op over operands has a value")
        };
        let free: Vec<usize> = (0..arity).filter(|&i| known[i].is_none()).collect();
        let read: Vec<usize> = (0..free.len())
            .filter(|&j| (0..1 << free.len()).any(|row| at(&free, row) != at(&free, row ^ 1 << j)))
            .map(|j| free[j])
            .collect();
        let table = (0..1 << read.len()).fold(0u8, |t, row| t | u8::from(at(&read, row)) << row);
        match *read {
            [] => Restricted::Const(table & 1 == 1),
            [i] => Restricted::Wire {
                node: operands[i],
                negated: table & 1 == 1,
            },
            [i, j] => {
                let gate = Gate::from_table(table)
                    .expect("every two-input table that reads both inputs is a gate");
                Restricted::Op(GateOp::Binary(gate, operands[i], operands[j]))
            }
            _ => Restricted::Op(*self),
        }
    }
}

/// What an op is once some of its operands are known
/// ([`GateOp::restrict`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Restricted {
    /// A constant: the op reads none of its free operands.
    Const(bool),
    /// One operand node, or its free `NOT`.
    Wire {
        /// The operand node.
        node: usize,
        /// Whether the op is that node's negation.
        negated: bool,
    },
    /// An op over free operands only, costing no more bootstraps than the
    /// original.
    Op(GateOp),
}

/// An executable netlist: a DAG of [`GateOp`]s with designated outputs.
///
/// Built incrementally — every constructor returns the new node's index,
/// and operands must reference earlier nodes, so the op list is always a
/// valid topological order. Execution is either eager sequential
/// ([`CircuitNetlist::execute_sequential`]) or wave-scheduled onto a
/// [`GateBatchPool`] ([`CircuitNetlist::execute`]); both produce
/// decrypt-identical outputs (bootstrapping is deterministic given the
/// keys, so they are in fact bit-identical).
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::circuit::CircuitNetlist;
/// use matcha_tfhe::{batch::GateBatchPool, ClientKey, Gate, ParameterSet, ServerKey};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let server = Arc::new(ServerKey::new(&client, F64Fft::new(1024), &mut rng));
///
/// // sum = a XOR b, carry = a AND b (a half adder).
/// let mut net = CircuitNetlist::new();
/// let a = net.input();
/// let b = net.input();
/// let sum = net.gate(Gate::Xor, a, b);
/// let carry = net.gate(Gate::And, a, b);
/// net.mark_output(sum);
/// net.mark_output(carry);
///
/// let pool = GateBatchPool::new(server, 8);
/// let inputs = vec![client.encrypt(true), client.encrypt(true)];
/// let run = net.execute(&pool, &inputs);
/// assert!(!client.decrypt(&run.outputs[0])); // 1 ^ 1
/// assert!(client.decrypt(&run.outputs[1])); // 1 & 1
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CircuitNetlist {
    ops: Vec<GateOp>,
    /// Wave level per node: 0 for sources, `1 + max(operand levels)` else.
    level: Vec<usize>,
    inputs: usize,
    outputs: Vec<usize>,
    /// Adder cells by operand triple (sorted): the first majority over
    /// those three nodes — the *host* — and the `Sum` riding on it, once
    /// there is one.
    cells: HashMap<[usize; 3], (usize, Option<usize>)>,
}

/// An operand triple in ascending order: its key in
/// [`CircuitNetlist::cells`], and a symmetric op's canonical form.
pub(crate) fn cell_key(mut operands: [usize; 3]) -> [usize; 3] {
    operands.sort_unstable();
    operands
}

impl CircuitNetlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a netlist from raw parts — the wire decoder's entry
    /// point, returning `Err` (instead of the builder's panics) so a
    /// malformed remote submission cannot take down a server thread.
    ///
    /// Validity requires the builder's canonical form: every operand
    /// references an earlier node, input slots are numbered `0, 1, 2, …`
    /// in node order (each exactly once), every `Sum` has its host — an
    /// earlier majority over the same three nodes, ridden by nothing else —
    /// and every output marks an existing node.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn from_parts(ops: Vec<GateOp>, outputs: Vec<usize>) -> Result<Self, String> {
        let mut next_slot = 0usize;
        for (id, op) in ops.iter().enumerate() {
            for operand in op.operands().into_iter().flatten() {
                if operand >= id {
                    return Err(format!(
                        "node {id}: operand {operand} references a not-yet-defined node"
                    ));
                }
            }
            if let GateOp::Input(slot) = *op {
                if slot != next_slot {
                    return Err(format!(
                        "node {id}: input slot {slot}, expected {next_slot} \
                         (slots are numbered in node order)"
                    ));
                }
                next_slot += 1;
            }
        }
        for &o in &outputs {
            if o >= ops.len() {
                return Err(format!("output {o} not in a {}-node netlist", ops.len()));
            }
        }
        // Everything is pre-validated, so the builder's panics are
        // unreachable; replaying through it keeps the level bookkeeping
        // in one place.
        let mut net = Self::new();
        for (id, op) in ops.into_iter().enumerate() {
            if let GateOp::Sum(a, b, c) = op {
                net.free_host([a, b, c])
                    .map_err(|e| format!("node {id}: {e}"))?;
            }
            net.add(op);
        }
        for o in outputs {
            net.mark_output(o);
        }
        Ok(net)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of input slots ([`CircuitNetlist::execute`] expects exactly
    /// this many ciphertexts).
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// The designated output nodes, in marking order.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// The ops, in topological order.
    pub fn ops(&self) -> &[GateOp] {
        &self.ops
    }

    /// Per-node wave levels, parallel to [`CircuitNetlist::ops`]: 0 for
    /// sources (and free `NOT`s of sources), `1 + max(operand levels)`
    /// otherwise. The structural signal `analyze::equiv` derives its
    /// static BDD variable order from.
    pub(crate) fn levels(&self) -> &[usize] {
        &self.level
    }

    /// The majority whose bootstrap node `id`, a `Sum`, rides on (`None`
    /// for any other op).
    pub fn host_of(&self, id: usize) -> Option<usize> {
        match self.ops[id] {
            GateOp::Sum(a, b, c) => Some(self.cells[&cell_key([a, b, c])].0),
            _ => None,
        }
    }

    /// The `Sum` riding on node `id`'s bootstrap, if `id` is a majority
    /// that hosts one.
    pub fn rider_of(&self, id: usize) -> Option<usize> {
        match self.ops[id] {
            GateOp::Ternary(Gate3::Maj, a, b, c) => {
                let (host, rider) = self.cells[&cell_key([a, b, c])];
                rider.filter(|_| host == id)
            }
            _ => None,
        }
    }

    /// The host a new `Sum` over `operands` would ride on: the majority
    /// over the same three nodes, if nothing rides on it yet — what
    /// [`CircuitNetlist::sum`] panics without.
    ///
    /// # Errors
    ///
    /// Says whether the majority is missing or taken.
    pub fn free_host(&self, operands: [usize; 3]) -> Result<usize, String> {
        match self.cells.get(&cell_key(operands)) {
            Some(&(host, None)) => Ok(host),
            Some(&(host, Some(rider))) => Err(format!(
                "sum over {operands:?}: majority {host} already carries sum {rider}"
            )),
            None => Err(format!(
                "sum over {operands:?} has no majority over the same nodes to ride on"
            )),
        }
    }

    /// Total gate bootstraps in the circuit (binary and ternary gates count
    /// one, muxes two, `NOT`/`Sum`/sources none).
    pub fn bootstraps(&self) -> usize {
        self.ops.iter().map(GateOp::bootstraps).sum()
    }

    /// Number of scheduled waves (the dependency depth over *bootstrapped*
    /// ops — `NOT` is free, resolved inline between waves, and adds no
    /// depth, nor does a `Sum`, there when its host is; matching
    /// [`CircuitNetlist::schedule_skeleton`]'s model).
    pub fn depth(&self) -> usize {
        self.level.iter().copied().max().unwrap_or(0)
    }

    fn push(&mut self, op: GateOp) -> usize {
        let id = self.ops.len();
        let mut level = 0;
        for operand in op.operands().into_iter().flatten() {
            assert!(
                operand < id,
                "operands must reference earlier nodes ({operand} >= {id})"
            );
            level = level.max(self.level[operand] + 1);
        }
        match op {
            // A free negation is transparent: its value is available the
            // moment its operand is, so it inherits the operand's level
            // instead of starting a wave of its own.
            GateOp::Not(a) => level = self.level[a],
            GateOp::Ternary(Gate3::Maj, a, b, c) => {
                self.cells.entry(cell_key([a, b, c])).or_insert((id, None));
            }
            // A sum is there the moment its host is.
            GateOp::Sum(a, b, c) => {
                let host = self.free_host([a, b, c]).unwrap_or_else(|e| panic!("{e}"));
                level = self.level[host];
                self.cells.insert(cell_key([a, b, c]), (host, Some(id)));
            }
            _ => {}
        }
        self.ops.push(op);
        self.level.push(level);
        id
    }

    /// Adds `op` as the builder methods would (an input takes the next
    /// slot, whatever slot `op` names) and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a not-yet-added node.
    pub(crate) fn add(&mut self, op: GateOp) -> usize {
        match op {
            GateOp::Input(_) => self.input(),
            op => self.push(op),
        }
    }

    /// Adds an encrypted-input node and returns its index. Inputs are
    /// numbered in creation order; execution takes them positionally.
    pub fn input(&mut self) -> usize {
        let slot = self.inputs;
        self.inputs += 1;
        self.push(GateOp::Input(slot))
    }

    /// Adds a trivial constant node.
    pub fn constant(&mut self, value: bool) -> usize {
        self.push(GateOp::Constant(value))
    }

    /// Adds a two-input bootstrapped gate over earlier nodes `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a not-yet-added node.
    pub fn gate(&mut self, gate: Gate, a: usize, b: usize) -> usize {
        self.push(GateOp::Binary(gate, a, b))
    }

    /// Adds a free negation of earlier node `a`.
    ///
    /// # Panics
    ///
    /// Panics if the operand references a not-yet-added node.
    pub fn not(&mut self, a: usize) -> usize {
        self.push(GateOp::Not(a))
    }

    /// Adds a multiplexer `sel ? a : b` over earlier nodes.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a not-yet-added node.
    pub fn mux(&mut self, sel: usize, a: usize, b: usize) -> usize {
        self.push(GateOp::Mux { sel, a, b })
    }

    /// Adds a three-input bootstrapped gate over earlier nodes.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a not-yet-added node.
    pub fn ternary(&mut self, gate: Gate3, a: usize, b: usize, c: usize) -> usize {
        self.push(GateOp::Ternary(gate, a, b, c))
    }

    /// Adds the sum `a ⊕ b ⊕ c` of an adder cell, riding on the bootstrap
    /// of the earlier [`Gate3::Maj`] over the same three nodes — no
    /// bootstrap of its own.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a not-yet-added node, if no such
    /// majority exists, or if another `Sum` already rides on it.
    pub fn sum(&mut self, a: usize, b: usize, c: usize) -> usize {
        self.push(GateOp::Sum(a, b, c))
    }

    /// Marks node `id` as a circuit output. Outputs are returned in
    /// marking order; a node may be marked more than once.
    ///
    /// # Panics
    ///
    /// Panics if `id` references a not-yet-added node.
    pub fn mark_output(&mut self, id: usize) {
        assert!(id < self.ops.len(), "output {id} not in netlist");
        self.outputs.push(id);
    }

    /// Groups the *bootstrapped* ops (binary and ternary gates, muxes) into
    /// wave-front levels: wave `r` holds every op whose operands are all
    /// available after wave `r − 1`. Each wave is independent work — one
    /// mixed-gate pool batch. Free `NOT`s and `Sum`s are not waves: the
    /// executor resolves them inline the moment their operand's (their
    /// host's) wave completes.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let depth = self.depth();
        let mut waves: Vec<Vec<usize>> = vec![Vec::new(); depth];
        for (id, &level) in self.level.iter().enumerate() {
            if self.ops[id].bootstraps() > 0 {
                waves[level - 1].push(id);
            }
        }
        waves
    }

    /// The dependency skeleton of the *bootstrapped* work, for
    /// `matcha_accel::schedule`-style analytical models: entry `i` lists the
    /// unit indices unit `i` consumes. Binary and ternary gates are one
    /// unit; a mux is two chained units (it occupies a worker for two
    /// back-to-back bootstraps); `NOT` is free and transparent (consumers
    /// depend directly on its operand's unit) and so is a `Sum` (consumers
    /// depend on its host's unit); inputs and constants cost nothing.
    pub fn schedule_skeleton(&self) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        // The unit whose completion makes each node's value available
        // (None for sources and nots-of-sources: available at time 0).
        let mut unit_of: Vec<Option<usize>> = Vec::with_capacity(self.ops.len());
        for (id, op) in self.ops.iter().enumerate() {
            let unit = match *op {
                GateOp::Input(_) | GateOp::Constant(_) => None,
                GateOp::Not(a) => unit_of[a],
                GateOp::Sum(..) => unit_of[self.host_of(id).expect("a sum has its host")],
                GateOp::Mux { sel, a, b } => {
                    // First bootstrap AND(sel, a); the second, AND(¬sel, b),
                    // runs after it on the same worker.
                    let first: Vec<usize> =
                        [unit_of[sel], unit_of[a]].into_iter().flatten().collect();
                    units.push(first);
                    let u1 = units.len() - 1;
                    let second: Vec<usize> = [Some(u1), unit_of[sel], unit_of[b]]
                        .into_iter()
                        .flatten()
                        .collect();
                    units.push(second);
                    Some(units.len() - 1)
                }
                // A gate: one unit.
                _ => {
                    let operands = op.operands().into_iter().flatten();
                    units.push(operands.filter_map(|o| unit_of[o]).collect());
                    Some(units.len() - 1)
                }
            };
            unit_of.push(unit);
        }
        units
    }

    fn resolve_sources<E: FftEngine>(
        &self,
        server: &ServerKey<E>,
        inputs: &[LweCiphertext],
        values: &mut [Option<LweCiphertext>],
    ) {
        assert_eq!(
            inputs.len(),
            self.inputs,
            "circuit expects {} inputs, got {}",
            self.inputs,
            inputs.len()
        );
        for (id, op) in self.ops.iter().enumerate() {
            match op {
                GateOp::Input(slot) => values[id] = Some(inputs[*slot].clone()),
                GateOp::Constant(v) => values[id] = Some(server.trivial(*v)),
                _ => {}
            }
        }
    }

    fn value(values: &[Option<LweCiphertext>], id: usize) -> LweCiphertext {
        values[id]
            .clone()
            .expect("operand computed in earlier wave")
    }

    /// Executes the circuit wave-by-wave on a persistent pool: each ready
    /// frontier of bootstrapped nodes becomes one [`SlabTask`] batch over
    /// the run's [`ValueSlab`], so independent gates of a level run in
    /// parallel on the warmed workers with **no per-wave operand clones**.
    /// Free `NOT`s are resolved inline between waves, and a `Sum` is stored
    /// with its host (neither costs a dispatch or a wave barrier). This is the
    /// solo-circuit driver of the frontier; the multi-circuit
    /// interleaving driver is [`CircuitServer`](crate::server::CircuitServer).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`, or if a task panics
    /// in a worker (mismatched input dimensions; the pool survives).
    pub fn execute<E>(&self, pool: &GateBatchPool<E>, inputs: &[LweCiphertext]) -> CircuitRun
    where
        E: FftEngine + Send + Sync + 'static,
    {
        // The netlist clone is O(nodes) of plain indices — noise next to
        // the O(nodes) gate bootstraps the run performs; it buys the slab
        // the same owned form the interleaving server uses.
        let net = Arc::new(self.clone());
        let mut frontier = CircuitFrontier::new(net, pool.server(), inputs, Instant::now());
        let mut batch: Vec<SlabTask> = Vec::new();
        while !frontier.is_done() {
            batch.clear();
            frontier.take_ready(&mut batch);
            debug_assert!(!batch.is_empty(), "unfinished circuit must have ready work");
            if let Some((index, msg)) = pool.run_tasks(&batch).first() {
                panic!("pool task {index} panicked in a worker: {msg}");
            }
            for st in &batch {
                frontier.complete(st.node);
            }
        }
        frontier.finish(Instant::now())
    }

    /// Eager sequential reference evaluation: every op runs in netlist
    /// order on the calling thread through the one-gate
    /// [`ServerKey::apply`]/[`ServerKey::not`]/[`ServerKey::mux`] calls,
    /// a scratch built per gate.
    /// The equivalence oracle for [`CircuitNetlist::execute`], and how the
    /// word-level circuits of `matcha-circuits` (adders, comparators, the
    /// ALU, the processor step, …) run their lowerings.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn execute_sequential<E: FftEngine>(
        &self,
        server: &ServerKey<E>,
        inputs: &[LweCiphertext],
    ) -> CircuitRun {
        let t0 = Instant::now();
        let mut values: Vec<Option<LweCiphertext>> = vec![None; self.ops.len()];
        self.resolve_sources(server, inputs, &mut values);
        let mut scheduled_ops = 0;
        for (id, op) in self.ops.iter().enumerate() {
            let out = match *op {
                GateOp::Input(_) | GateOp::Constant(_) => continue,
                GateOp::Binary(gate, a, b) => {
                    server.apply(gate, &Self::value(&values, a), &Self::value(&values, b))
                }
                GateOp::Not(a) => server.not(&Self::value(&values, a)),
                GateOp::Mux { sel, a, b } => server.mux(
                    &Self::value(&values, sel),
                    &Self::value(&values, a),
                    &Self::value(&values, b),
                ),
                GateOp::Ternary(gate, a, b, c) => {
                    let [a, b, c] = [a, b, c].map(|operand| Self::value(&values, operand));
                    match self.rider_of(id) {
                        Some(rider) => {
                            let [carry, sum] = server.cell(&a, &b, &c);
                            values[rider] = Some(sum);
                            carry
                        }
                        None => server.apply3(gate, &a, &b, &c),
                    }
                }
                // Stored by its host.
                GateOp::Sum(..) => {
                    scheduled_ops += 1;
                    continue;
                }
            };
            scheduled_ops += 1;
            values[id] = Some(out);
        }
        self.finish_run(values, t0, self.depth(), scheduled_ops)
    }

    fn finish_run(
        &self,
        values: Vec<Option<LweCiphertext>>,
        t0: Instant,
        waves: usize,
        scheduled_ops: usize,
    ) -> CircuitRun {
        let outputs = self
            .outputs
            .iter()
            .map(|&id| Self::value(&values, id))
            .collect();
        CircuitRun {
            outputs,
            waves,
            scheduled_ops,
            bootstraps: self.bootstraps(),
            elapsed_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// The ready-frontier of one in-flight circuit execution: which
/// bootstrapped ops can be dispatched *right now*, backed by the run's
/// shared [`ValueSlab`], which holds the netlist.
///
/// This is the unit the interleaving scheduler juggles: it keeps one
/// `CircuitFrontier` per in-flight circuit and fills every pool dispatch
/// with [`CircuitFrontier::take_ready`] tasks from all of them. The
/// protocol per circuit is: `take_ready` → dispatch the tasks (each
/// worker stores its result in the slab) → [`CircuitFrontier::complete`]
/// each dispatched node → repeat until [`CircuitFrontier::is_done`], then
/// [`CircuitFrontier::finish`]. Free `NOT`s never surface as tasks: they
/// are resolved inline (a local negation) the moment their operand's
/// value lands, so chains of negations add no waves and no dispatches. Nor
/// do `Sum`s: a majority that hosts one is dispatched as an adder cell, its
/// worker stores both values, and the sum resolves with its host.
///
/// Dropping a frontier abandons its run (deadline expiry, cancellation):
/// a worker still evaluating one of its tasks holds its own `Arc` on the
/// slab, so the write stays safe and the slab is freed with the last such
/// task. The server drops one only between dispatches, when none is.
pub(crate) struct CircuitFrontier {
    slab: Arc<ValueSlab>,
    /// Operand slots (with multiplicity) not yet available, per node.
    pending: Vec<usize>,
    /// Consumer edges: `consumers[v]` lists every node with an operand
    /// slot reading `v`, one entry per slot. Drained when `v` resolves
    /// (each node becomes available exactly once).
    consumers: Vec<Vec<usize>>,
    /// Bootstrapped ops whose operands are all available, not yet taken.
    ready: Vec<usize>,
    /// Bootstrapped ops not yet completed.
    remaining: usize,
    scheduled_ops: usize,
    waves: usize,
    /// When the run started, as its caller read the clock.
    t0: Instant,
}

impl CircuitFrontier {
    /// Starts a run at `now`: clones the encrypted inputs into a fresh
    /// slab, resolves constants and source-level `NOT`s, and seeds the
    /// ready set with every bootstrapped op that depends only on sources.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != net.num_inputs()`.
    fn new<E: FftEngine>(
        net: Arc<CircuitNetlist>,
        server: &ServerKey<E>,
        inputs: &[LweCiphertext],
        now: Instant,
    ) -> Self {
        assert_eq!(
            inputs.len(),
            net.inputs,
            "circuit expects {} inputs, got {}",
            net.inputs,
            inputs.len()
        );
        Self::with_inputs_from(net, server, now, |slot| inputs[slot].clone())
    }

    /// Starts a run at `now` with each input slot sourced from `fill`
    /// rather than cloned out of a slice — the wire-ingest path, where a
    /// packed TRLWE submission sample-extracts each bit in `fill` straight
    /// into the slab. `fill` is called exactly once per input slot, in
    /// node order.
    ///
    /// # Panics
    ///
    /// Panics if `fill` panics (a malformed slot count surfaces there).
    pub(crate) fn with_inputs_from<E: FftEngine, F>(
        net: Arc<CircuitNetlist>,
        server: &ServerKey<E>,
        now: Instant,
        mut fill: F,
    ) -> Self
    where
        F: FnMut(usize) -> LweCiphertext,
    {
        let slab = Arc::new(ValueSlab::new(net));
        let net = slab.net();
        let n = net.len();
        let mut pending = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut remaining = 0;
        for (id, op) in net.ops.iter().enumerate() {
            for operand in op.operands().into_iter().flatten() {
                pending[id] += 1;
                consumers[operand].push(id);
            }
            // A sum also waits for the bootstrap it rides on.
            if let Some(host) = net.host_of(id) {
                pending[id] += 1;
                consumers[host].push(id);
            }
            remaining += usize::from(op.bootstraps() > 0);
        }
        let mut frontier = Self {
            slab,
            pending,
            consumers,
            ready: Vec::new(),
            remaining,
            scheduled_ops: 0,
            waves: 0,
            t0: now,
        };
        for id in 0..n {
            match frontier.slab.net().ops[id] {
                GateOp::Input(slot) => {
                    frontier.slab.set(id, fill(slot));
                    frontier.mark_available(id);
                }
                GateOp::Constant(v) => {
                    frontier.slab.set(id, server.trivial(v));
                    frontier.mark_available(id);
                }
                _ => {}
            }
        }
        frontier
    }

    /// Propagates "node `id`'s value is in the slab" to its consumers:
    /// newly satisfied free `NOT`s resolve inline (cascading), a `Sum` is
    /// satisfied by its host's completion and already stored, newly
    /// satisfied bootstrapped ops join the ready set.
    fn mark_available(&mut self, id: usize) {
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            // Each node resolves exactly once, so its edge list can be
            // consumed rather than borrowed.
            for c in std::mem::take(&mut self.consumers[id]) {
                self.pending[c] -= 1;
                if self.pending[c] == 0 {
                    match self.slab.net().ops[c] {
                        GateOp::Not(a) => {
                            let mut v = self.slab.get(a).clone();
                            v.neg_assign();
                            self.slab.set(c, v);
                        }
                        GateOp::Sum(..) => assert!(
                            self.slab.try_get(c).is_some(),
                            "sum {c}'s host completed without storing it"
                        ),
                        _ => {
                            self.ready.push(c);
                            continue;
                        }
                    }
                    self.scheduled_ops += 1;
                    stack.push(c);
                }
            }
        }
    }

    /// Drains every currently-ready bootstrapped node into `batch` as
    /// faultless tasks over this run's slab, returning how many were taken. Nodes
    /// taken here count as one wave of this circuit; they must each be
    /// [`CircuitFrontier::complete`]d once their worker has stored the
    /// result.
    pub(crate) fn take_ready(&mut self, batch: &mut Vec<SlabTask>) -> usize {
        let taken = self.ready.len();
        if taken > 0 {
            self.waves += 1;
        }
        let slab = &self.slab;
        batch.extend(self.ready.drain(..).map(|node| SlabTask {
            slab: Arc::clone(slab),
            node,
            fault: None,
        }));
        taken
    }

    /// Records that the worker evaluating `node` has stored its result in
    /// the slab, unlocking downstream ops (and resolving any free `NOT`s
    /// that became computable).
    ///
    /// # Panics
    ///
    /// Panics if `node`'s value is not in the slab (completing a task
    /// whose worker failed) or it was never taken from the ready set.
    pub(crate) fn complete(&mut self, node: usize) {
        assert!(
            self.slab.try_get(node).is_some(),
            "completed node {node} has no value in the slab"
        );
        self.remaining -= 1;
        self.scheduled_ops += 1;
        self.mark_available(node);
    }

    /// `true` once every bootstrapped op has completed.
    pub(crate) fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Finishes the run at `now`: collects the marked outputs, timed from
    /// the start the frontier was built with.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not [`CircuitFrontier::is_done`].
    pub(crate) fn finish(self, now: Instant) -> CircuitRun {
        assert!(self.is_done(), "circuit still has unfinished work");
        let net = self.slab.net();
        let outputs = net
            .outputs
            .iter()
            .map(|&id| self.slab.get(id).clone())
            .collect();
        CircuitRun {
            outputs,
            waves: self.waves,
            scheduled_ops: self.scheduled_ops,
            bootstraps: net.bootstraps(),
            elapsed_s: now.saturating_duration_since(self.t0).as_secs_f64(),
        }
    }
}

/// The outcome of one circuit execution.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitRun {
    /// Ciphertexts of the marked outputs, in marking order.
    pub outputs: Vec<LweCiphertext>,
    /// Wave-front levels dispatched (dependency depth).
    pub waves: usize,
    /// Ops evaluated (everything but inputs/constants).
    pub scheduled_ops: usize,
    /// Total gate bootstraps performed.
    pub bootstraps: usize,
    /// Wall-clock seconds for the whole circuit.
    pub elapsed_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterSet;
    use crate::secret::ClientKey;
    use matcha_fft::F64Fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup(seed: u64) -> (ClientKey, Arc<ServerKey<F64Fft>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        (client, server, rng)
    }

    /// sum/carry full adder over three inputs, exercising XOR/AND/OR.
    fn full_adder_netlist() -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let cin = net.input();
        let axb = net.gate(Gate::Xor, a, b);
        let sum = net.gate(Gate::Xor, axb, cin);
        let and_ab = net.gate(Gate::And, a, b);
        let and_cx = net.gate(Gate::And, axb, cin);
        let carry = net.gate(Gate::Or, and_ab, and_cx);
        net.mark_output(sum);
        net.mark_output(carry);
        net
    }

    #[test]
    fn wave_levels_follow_dependencies() {
        let net = full_adder_netlist();
        assert_eq!(net.len(), 8);
        assert_eq!(net.depth(), 3); // axb → {sum, and_cx} → carry
        let waves = net.waves();
        assert_eq!(waves.len(), 3);
        assert_eq!(waves[0], vec![3, 5]); // axb and and_ab are ready at once
        assert_eq!(waves[1], vec![4, 6]);
        assert_eq!(waves[2], vec![7]);
        assert_eq!(net.bootstraps(), 5);
    }

    #[test]
    fn scheduled_matches_sequential_bit_exactly() {
        let (client, server, mut rng) = setup(120);
        let net = full_adder_netlist();
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        for bits in 0u8..8 {
            let inputs: Vec<LweCiphertext> = (0..3)
                .map(|i| client.encrypt_with(bits >> i & 1 == 1, &mut rng))
                .collect();
            let scheduled = net.execute(&pool, &inputs);
            let sequential = net.execute_sequential(server.as_ref(), &inputs);
            assert_eq!(scheduled.outputs, sequential.outputs, "bits={bits:03b}");
            let total = (bits & 1) + (bits >> 1 & 1) + (bits >> 2 & 1);
            assert_eq!(client.decrypt(&scheduled.outputs[0]), total & 1 == 1);
            assert_eq!(client.decrypt(&scheduled.outputs[1]), total >= 2);
        }
    }

    #[test]
    fn constants_not_and_mux_execute() {
        let (client, server, mut rng) = setup(121);
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let t = net.constant(true);
        let na = net.not(a);
        let m = net.mux(na, b, a); // ¬a ? b : a
        let g = net.gate(Gate::Xnor, m, t); // == m
        net.mark_output(m);
        net.mark_output(g);
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let inputs = vec![
                client.encrypt_with(va, &mut rng),
                client.encrypt_with(vb, &mut rng),
            ];
            let run = net.execute(&pool, &inputs);
            let expected = if !va { vb } else { va };
            assert_eq!(client.decrypt(&run.outputs[0]), expected, "a={va} b={vb}");
            assert_eq!(client.decrypt(&run.outputs[1]), expected, "a={va} b={vb}");
            let sequential = net.execute_sequential(server.as_ref(), &inputs);
            assert_eq!(run.outputs, sequential.outputs);
        }
    }

    #[test]
    fn run_stats_are_consistent() {
        let (client, server, mut rng) = setup(122);
        let net = full_adder_netlist();
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let inputs: Vec<LweCiphertext> = (0..3)
            .map(|_| client.encrypt_with(true, &mut rng))
            .collect();
        let run = net.execute(&pool, &inputs);
        assert_eq!(run.waves, 3);
        assert_eq!(run.scheduled_ops, 5);
        assert_eq!(run.bootstraps, 5);
        assert!(run.elapsed_s > 0.0);
    }

    #[test]
    fn skeleton_passes_through_not_and_chains_mux() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g = net.gate(Gate::And, a, b); // unit 0
        let n = net.not(g); // free: transparent
        let h = net.gate(Gate::Or, n, b); // unit 1, depends on unit 0 via NOT
        let m = net.mux(h, a, g); // units 2 and 3 (chained)
        let t = net.ternary(Gate3::Xor3, a, b, g); // unit 4: three inputs, one unit
        let host = net.ternary(Gate3::Maj, a, b, h); // unit 5: the cell's one bootstrap
        let s = net.sum(a, b, h); // rides on unit 5: no unit of its own
        let r = net.gate(Gate::And, s, t); // unit 6, waits for the host
        for out in [m, host, r] {
            net.mark_output(out);
        }
        let skeleton = net.schedule_skeleton();
        assert_eq!(skeleton.len(), 7); // 2 binary + 2 for the mux + 1 + 1 + 1
        assert_eq!(skeleton.len(), net.bootstraps());
        assert!(skeleton[0].is_empty());
        assert_eq!(skeleton[1], vec![0]);
        assert_eq!(skeleton[2], vec![1]); // mux's first bootstrap: sel=h(1), a=input
        assert_eq!(skeleton[3], vec![2, 1, 0]); // second: chained + sel + g
        assert_eq!(skeleton[4], vec![0]);
        assert_eq!(skeleton[5], vec![1]);
        assert_eq!(skeleton[6], vec![5, 4]); // the sum's reader depends on its host
    }

    /// Every op form over nodes `0, 1, 2`, each node free, `false` or
    /// `true`: the restriction computes the op on every assignment of the
    /// free nodes, costs no more bootstraps, reads only free nodes, and is
    /// an op only over two free nodes or more — a mux whose arms are one
    /// free node coming back unchanged.
    #[test]
    fn restriction_law_holds_for_every_op_and_every_partial_assignment() {
        let mut forms: Vec<GateOp> = Gate::ALL.map(|g| GateOp::Binary(g, 0, 1)).to_vec();
        forms.extend(Gate3::ALL.map(|g| GateOp::Ternary(g, 0, 1, 2)));
        forms.push(GateOp::Mux { sel: 0, a: 1, b: 2 });
        forms.push(GateOp::Mux { sel: 0, a: 1, b: 1 });
        forms.push(GateOp::Not(0));
        for op in forms {
            for states in 0..27 {
                // Per node: 0 free, 1 false, 2 true.
                let known = |node: usize| match states / 3usize.pow(node as u32) % 3 {
                    0 => None,
                    state => Some(state == 2),
                };
                let restricted = op.restrict(known);
                let free: Vec<usize> = (0..3)
                    .filter(|&n| op.operands().contains(&Some(n)) && known(n).is_none())
                    .collect();
                for row in 0..8usize {
                    let bit = |n: usize| known(n).unwrap_or(row >> n & 1 == 1);
                    let of = |o: &GateOp| o.operands().map(|x| x.is_some_and(bit));
                    let want = op.eval(of(&op));
                    let got = match restricted {
                        Restricted::Const(v) => Some(v),
                        Restricted::Wire { node, negated } => Some(bit(node) ^ negated),
                        Restricted::Op(o) => o.eval(of(&o)),
                    };
                    assert_eq!(got, want, "{op:?} at states {states}, row {row}");
                }
                let (cost, reads) = match restricted {
                    Restricted::Const(_) => (0, vec![]),
                    Restricted::Wire { node, .. } => (0, vec![node]),
                    Restricted::Op(o) => {
                        (o.bootstraps(), o.operands().into_iter().flatten().collect())
                    }
                };
                assert!(cost <= op.bootstraps(), "{op:?} → {restricted:?}");
                for n in reads {
                    assert!(
                        free.contains(&n),
                        "{op:?} → {restricted:?} reads a constant"
                    );
                }
                if let Restricted::Op(o) = restricted {
                    assert!(free.len() >= 2, "{op:?} → {o:?} over {free:?}");
                }
                if matches!(op, GateOp::Mux { a, b, .. } if a == b) && free.len() == 2 {
                    assert_eq!(
                        restricted,
                        Restricted::Op(op),
                        "the arm's noise reset stays"
                    );
                }
            }
        }
    }

    /// A two-bit adder as admission schedules it: a half-adder cell (its
    /// carry-in the constant `false`), a full-adder cell, and a consumer of
    /// the second sum through a free `NOT`.
    fn cell_adder() -> (CircuitNetlist, [usize; 4]) {
        let mut net = CircuitNetlist::new();
        let [a0, b0, a1, b1] = [0; 4].map(|_| net.input());
        let f = net.constant(false);
        let c1 = net.ternary(Gate3::Maj, a0, b0, f);
        let s0 = net.sum(a0, b0, f);
        let c2 = net.ternary(Gate3::Maj, a1, b1, c1);
        let s1 = net.sum(c1, a1, b1); // any operand order
        let n = net.not(s1);
        let g = net.gate(Gate::Xor, n, c2);
        for out in [s0, s1, c2, g] {
            net.mark_output(out);
        }
        (net, [c1, s0, c2, s1])
    }

    #[test]
    fn sums_ride_on_their_hosts_waves_and_cost_nothing() {
        let (net, [c1, s0, c2, s1]) = cell_adder();
        assert_eq!((net.bootstraps(), net.depth()), (3, 3));
        assert_eq!(net.waves(), vec![vec![c1], vec![c2], vec![net.len() - 1]]);
        assert_eq!(net.levels()[s0], net.levels()[c1]);
        assert_eq!(net.levels()[s1], net.levels()[c2]);
        assert_eq!((net.host_of(s0), net.rider_of(c1)), (Some(c1), Some(s0)));
        assert_eq!((net.host_of(s1), net.rider_of(c2)), (Some(c2), Some(s1)));
        assert_eq!((net.host_of(c1), net.rider_of(s1)), (None, None));
        // The XOR reads the sum through a NOT: it waits for the sum's host.
        assert_eq!(net.schedule_skeleton(), vec![vec![], vec![0], vec![1, 1]]);
    }

    #[test]
    fn cells_execute_and_match_sequential_bit_exactly() {
        let (client, server, mut rng) = setup(125);
        let (net, _) = cell_adder();
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        for bits in 0u8..16 {
            let plain = [0, 1, 2, 3].map(|i| bits >> i & 1 == 1);
            let inputs: Vec<LweCiphertext> = plain
                .iter()
                .map(|&bit| client.encrypt_with(bit, &mut rng))
                .collect();
            let scheduled = net.execute(&pool, &inputs);
            let sequential = net.execute_sequential(server.as_ref(), &inputs);
            assert_eq!(scheduled.outputs, sequential.outputs, "bits={bits:04b}");
            assert_eq!((scheduled.waves, scheduled.bootstraps), (3, 3));
            assert_eq!(scheduled.scheduled_ops, sequential.scheduled_ops);
            let [a0, b0, a1, b1] = plain.map(u8::from);
            let total = a0 + b0 + 2 * (a1 + b1);
            let got: Vec<bool> = scheduled
                .outputs
                .iter()
                .map(|o| client.decrypt(o))
                .collect();
            let (s1, c2) = (total >> 1 & 1 == 1, total >> 2 & 1 == 1);
            assert_eq!(got, [total & 1 == 1, s1, c2, !s1 ^ c2], "bits={bits:04b}");
        }
    }

    #[test]
    fn a_sum_needs_a_free_host() {
        let mut net = CircuitNetlist::new();
        let [a, b, c] = [0; 3].map(|_| net.input());
        let hostless = std::panic::catch_unwind(|| {
            let mut net = CircuitNetlist::new();
            let [a, b, c] = [0; 3].map(|_| net.input());
            net.sum(a, b, c)
        });
        assert!(hostless.is_err(), "no majority to ride on");
        let _parity = net.ternary(Gate3::Xor3, a, b, c);
        let err =
            CircuitNetlist::from_parts([net.ops(), &[GateOp::Sum(a, b, c)]].concat(), Vec::new());
        assert!(
            err.unwrap_err().contains("no majority"),
            "an XOR3 is no host"
        );
        let host = net.ternary(Gate3::Maj, c, a, b);
        let _duplicate = net.ternary(Gate3::Maj, a, b, c);
        let sum = net.sum(b, c, a);
        assert_eq!(net.host_of(sum), Some(host), "the first majority hosts");
        let err =
            CircuitNetlist::from_parts([net.ops(), &[GateOp::Sum(a, b, c)]].concat(), Vec::new());
        assert!(err.unwrap_err().contains("already carries"));
        // What from_parts accepts is what the builder built.
        let rebuilt = CircuitNetlist::from_parts(net.ops().to_vec(), vec![sum]);
        net.mark_output(sum);
        assert_eq!(rebuilt, Ok(net));
    }

    #[test]
    fn empty_netlist_executes_to_nothing() {
        let (_, server, _) = setup(123);
        let net = CircuitNetlist::new();
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        let run = net.execute(&pool, &[]);
        assert!(run.outputs.is_empty());
        assert_eq!(run.waves, 0);
        assert_eq!(run.scheduled_ops, 0);
    }

    #[test]
    #[should_panic(expected = "earlier nodes")]
    fn forward_reference_rejected() {
        let mut net = CircuitNetlist::new();
        let _ = net.gate(Gate::And, 0, 1);
    }

    #[test]
    #[should_panic(expected = "operands must reference earlier nodes")]
    fn not_forward_reference_rejected() {
        let mut net = CircuitNetlist::new();
        let _ = net.not(0);
    }

    #[test]
    #[should_panic(expected = "operands must reference earlier nodes")]
    fn mux_forward_reference_rejected() {
        let mut net = CircuitNetlist::new();
        let sel = net.input();
        let a = net.input();
        let _ = net.mux(sel, a, 7);
    }

    #[test]
    #[should_panic(expected = "output 3 not in netlist")]
    fn mark_output_out_of_range_rejected() {
        let mut net = CircuitNetlist::new();
        let _ = net.input();
        net.mark_output(3);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_input_count_rejected() {
        let (_, server, _) = setup(124);
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g = net.gate(Gate::And, a, b);
        net.mark_output(g);
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        let _ = net.execute(&pool, &[]);
    }
}
