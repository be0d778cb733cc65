//! Batched gate evaluation across OS threads.
//!
//! The paper's throughput metric (Figure 10) assumes many independent
//! gates in flight — MATCHA runs 8 bootstrapping pipelines that share one
//! key stream, the GPU batches ciphertexts, and the CPU baseline uses its 8
//! cores. This module is the software counterpart, in two forms over the
//! one batched gate entry, [`ServerKey::apply_lanes_into`] (a wave of gates
//! key-switched together, then carried through each key group together):
//!
//! * [`run_gate_batch`] shards one batch over scoped workers, each calling
//!   the batched entry on its share with a private
//!   [`BootstrapScratch`];
//! * [`GateBatchPool`] keeps workers (and their warmed scratches) **alive
//!   across batches** — the software analogue of MATCHA's eight
//!   always-resident bootstrapping pipelines.
//!
//! Pool tasks pass operands **by index** into a shared [`ValueSlab`]
//! rather than cloning ciphertexts into every task: a [`SlabTask`] binds a
//! [`GateTask`] (node indices only) to the slab it reads from and the slot
//! it writes to, and one [`GateBatchPool::run_tasks`] dispatch may mix
//! tasks over several circuits' slabs — which is how the circuit server
//! interleaves every in-flight circuit's ready wave into one batch. A
//! dispatch is cut into contiguous **chunks** of at most [`MAX_LANES`]
//! blind rotations, one queued job per chunk: a worker streams the
//! bootstrapping key once per chunk, not once per task.

use crate::faults::{FaultAction, FaultPlan};
use crate::gates::{lane_prefix, Gate, Gate3, LaneGate, ServerKey, Staged};
use crate::lwe::LweCiphertext;
use crate::scratch::{BootstrapScratch, MAX_LANES};
use matcha_fft::FftEngine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A write-once slab of ciphertext values shared between a dispatcher and
/// the pool workers — one slot per circuit node. Operands are passed **by
/// index** into the slab instead of being cloned into every task, so a
/// wave of gates reading the same value shares one ciphertext. Each slot
/// is set exactly once (by the dispatcher for sources and free `NOT`s, by
/// the worker that evaluated the node otherwise) and read only after the
/// dependency order guarantees it is present.
pub struct ValueSlab {
    slots: Box<[OnceLock<LweCiphertext>]>,
    /// Circuit identity for fault scripting: the
    /// [`CircuitServer`](crate::server::CircuitServer) tags each admitted
    /// circuit's slab with its admission sequence number, so a
    /// [`FaultPlan`] can address "node `n` of the `k`-th admitted
    /// circuit" deterministically. Standalone slabs are tag 0.
    tag: u64,
}

impl ValueSlab {
    /// A slab of `len` empty slots, tagged 0.
    pub fn new(len: usize) -> Self {
        Self::tagged(len, 0)
    }

    /// A slab of `len` empty slots carrying a circuit `tag` — the key
    /// [`FaultPlan`] sites match on.
    pub fn tagged(len: usize, tag: u64) -> Self {
        Self {
            slots: (0..len).map(|_| OnceLock::new()).collect(),
            tag,
        }
    }

    /// The circuit tag fault sites are keyed by.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stores the value of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`, or if the slot was already
    /// written — every node's value is computed exactly once.
    pub fn set(&self, index: usize, value: LweCiphertext) {
        assert!(
            self.slots[index].set(value).is_ok(),
            "value slot {index} written twice"
        );
    }

    /// The value of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`, or if the slot has not been
    /// written — an operand referenced before its wave completed.
    pub fn get(&self, index: usize) -> &LweCiphertext {
        self.slots[index]
            .get()
            .unwrap_or_else(|| panic!("value slot {index} not yet computed"))
    }

    /// The value of node `index`, if already computed.
    pub fn try_get(&self, index: usize) -> Option<&LweCiphertext> {
        self.slots[index].get()
    }

    /// Moves the value out of slot `index` (requires unique ownership of
    /// the slab, i.e. after every worker dropped its handle).
    pub fn take(&mut self, index: usize) -> Option<LweCiphertext> {
        self.slots[index].take()
    }
}

/// One heterogeneous unit of pool work: any gate the circuit layer emits,
/// with **by-index operands** — the fields are node indices into the
/// [`ValueSlab`] the task is dispatched against, not owned ciphertexts.
/// A wave of a [`CircuitNetlist`](crate::circuit::CircuitNetlist) is a
/// mixed batch of these, dispatched with [`GateBatchPool::run_tasks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateTask {
    /// A two-input bootstrapped gate (one bootstrap).
    Binary {
        /// The gate to evaluate.
        gate: Gate,
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// Free negation — no bootstrap.
    Not {
        /// The operand node.
        a: usize,
    },
    /// `sel ? a : b` — two bootstraps, their outputs added.
    Mux {
        /// The selector node.
        sel: usize,
        /// Node taken when `sel` is true.
        a: usize,
        /// Node taken when `sel` is false.
        b: usize,
    },
    /// A three-input bootstrapped gate (one bootstrap).
    Ternary {
        /// The gate to evaluate.
        gate: Gate3,
        /// The operand nodes.
        ops: [usize; 3],
    },
    /// An adder cell ([`LaneGate::Cell`]): one bootstrap, two results — the
    /// majority, stored at the task's own node, and the parity.
    Cell {
        /// The operand nodes.
        ops: [usize; 3],
        /// Slot the parity is stored at.
        sum: usize,
    },
}

impl GateTask {
    /// Blind rotations the task runs: the lanes it takes in a chunk.
    pub fn lanes(&self) -> usize {
        match self {
            GateTask::Binary { .. } | GateTask::Ternary { .. } | GateTask::Cell { .. } => 1,
            GateTask::Not { .. } => 0,
            GateTask::Mux { .. } => 2,
        }
    }

    /// Ciphertexts the task produces: one, or a cell's two.
    pub fn outputs(&self) -> usize {
        match self {
            GateTask::Cell { .. } => 2,
            _ => 1,
        }
    }

    /// Evaluates the one task into `outs` ([`GateTask::outputs`] entries: a
    /// cell's carry, then its sum) through `scratch`, reading operands from
    /// `slab` by index — what a pool worker does for every task of a chunk
    /// at once, and the reference the chunked path is tested against.
    /// Allocation-free once the scratch and `outs` are warmed, for every
    /// variant: operands are borrowed from the slab, never cloned.
    ///
    /// # Panics
    ///
    /// Panics if an operand slot has not been computed yet, or `outs` is
    /// not [`GateTask::outputs`] long.
    pub fn apply_into<E: FftEngine>(
        &self,
        server: &ServerKey<E>,
        slab: &ValueSlab,
        outs: &mut [LweCiphertext],
        scratch: &mut BootstrapScratch<E>,
    ) {
        assert_eq!(outs.len(), self.outputs(), "one output, or a cell's two");
        match self.lane_gate(slab) {
            Some(gate) => server.apply_lanes_into(&[gate], outs, scratch),
            None => {
                let GateTask::Not { a } = *self else {
                    unreachable!("every task but a negation bootstraps");
                };
                server.not_into(slab.get(a), &mut outs[0]);
            }
        }
    }

    /// The task as a gate of a wave, operands borrowed from `slab`; `None`
    /// for a free negation.
    fn lane_gate<'a>(&self, slab: &'a ValueSlab) -> Option<LaneGate<'a>> {
        Some(match *self {
            GateTask::Binary { gate, a, b } => LaneGate::Binary {
                gate,
                a: slab.get(a),
                b: slab.get(b),
            },
            GateTask::Mux { sel, a, b } => LaneGate::Mux {
                sel: slab.get(sel),
                a: slab.get(a),
                b: slab.get(b),
            },
            GateTask::Ternary { gate, ops } => LaneGate::Ternary {
                gate,
                ops: ops.map(|i| slab.get(i)),
            },
            GateTask::Cell { ops, .. } => LaneGate::Cell {
                ops: ops.map(|i| slab.get(i)),
            },
            GateTask::Not { .. } => return None,
        })
    }
}

/// One dispatchable task: a by-index [`GateTask`] bound to the slab its
/// indices refer to, plus the node slot its result is stored at. Batches
/// may freely mix tasks over *different* slabs — that is how the server
/// interleaves waves of several in-flight circuits into one dispatch.
#[derive(Clone)]
pub struct SlabTask {
    /// The value slab `task`'s indices point into.
    pub slab: Arc<ValueSlab>,
    /// Slot the result is stored at ([`ValueSlab::set`] by the worker).
    pub node: usize,
    /// The gate work itself.
    pub task: GateTask,
}

/// Per-batch outcome of [`GateBatchPool::run_tasks`]. Successes are not
/// listed — a task that does not appear in `failures` has stored its
/// result in its slab slot.
#[derive(Clone, Debug)]
pub struct DispatchResult {
    /// `(batch index, panic message)` for every task that failed in a
    /// worker, ascending by index. A task that panics on its own — bad
    /// operands, its linear part — fails alone and the rest of the batch
    /// still completes, so a dispatcher interleaving several circuits can
    /// fault only the circuit that owns it; a panic in the loops a chunk
    /// shares fails every task of that chunk, each listed here.
    pub failures: Vec<(usize, String)>,
    /// Wall-clock seconds for the whole batch.
    pub elapsed_s: f64,
    /// Worker threads serving the batch.
    pub threads: usize,
}

/// The result of a batched run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Gate outputs, in input order.
    pub outputs: Vec<LweCiphertext>,
    /// Wall-clock seconds for the whole batch.
    pub elapsed_s: f64,
    /// Achieved throughput in gates per second.
    pub gates_per_second: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchResult {
    /// Throughput of `gates` outputs over `elapsed_s` seconds.
    ///
    /// Well-defined on the whole domain: an empty batch is 0 gates/s, and a
    /// zero (or sub-tick) elapsed time — possible on coarse clocks when the
    /// batch is trivially small — is clamped to one nanosecond, the
    /// resolution of [`Instant`], so the result is finite ("at least this
    /// fast") instead of `f64::INFINITY`.
    pub fn throughput(gates: usize, elapsed_s: f64) -> f64 {
        if gates == 0 {
            0.0
        } else {
            gates as f64 / elapsed_s.max(1e-9)
        }
    }
}

fn finish_batch(outputs: Vec<LweCiphertext>, t0: Instant, threads: usize) -> BatchResult {
    let elapsed_s = t0.elapsed().as_secs_f64();
    let gates_per_second = BatchResult::throughput(outputs.len(), elapsed_s);
    BatchResult {
        outputs,
        elapsed_s,
        gates_per_second,
        threads,
    }
}

/// Renders a worker panic payload for re-raising on the submitter's thread.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates the same two-input gate over a batch of independent operand
/// pairs, sharded across `threads` scoped workers. Each worker owns one
/// bootstrap scratch and runs its share through
/// [`ServerKey::apply_lanes_into`], a wave of [`MAX_LANES`] gates at a time.
///
/// For repeated batches against the same key, prefer [`GateBatchPool`],
/// which keeps workers and warmed scratches alive between calls.
///
/// # Panics
///
/// Panics if `threads` is 0.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{batch, ClientKey, Gate, ParameterSet, ServerKey};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let server = ServerKey::new(&client, F64Fft::new(1024), &mut rng);
/// let pairs: Vec<_> = (0..16)
///     .map(|i| (client.encrypt(i % 2 == 0), client.encrypt(i % 3 == 0)))
///     .collect();
/// let result = batch::run_gate_batch(&server, Gate::Nand, &pairs, 8);
/// println!("{:.0} gates/s", result.gates_per_second);
/// ```
pub fn run_gate_batch<E>(
    server: &ServerKey<E>,
    gate: Gate,
    pairs: &[(LweCiphertext, LweCiphertext)],
    threads: usize,
) -> BatchResult
where
    E: FftEngine + Sync,
    E::Spectrum: Sync,
{
    assert!(threads > 0, "need at least one worker");
    let t0 = Instant::now();
    if pairs.is_empty() {
        // No work: `pairs.chunks(0)` below would panic, and spawning
        // workers for nothing is pointless. Report an empty batch.
        return finish_batch(Vec::new(), t0, 0);
    }
    let threads = threads.min(pairs.len());
    let share = pairs.len().div_ceil(threads);
    let mut outputs = vec![LweCiphertext::default(); pairs.len()];

    std::thread::scope(|scope| {
        let mut remaining: &mut [LweCiphertext] = &mut outputs;
        for work in pairs.chunks(share) {
            let (outs, rest) = remaining.split_at_mut(work.len());
            remaining = rest;
            scope.spawn(move || {
                let gates: Vec<LaneGate<'_>> = work
                    .iter()
                    .map(|(a, b)| LaneGate::Binary { gate, a, b })
                    .collect();
                server.apply_lanes_into(&gates, outs, &mut server.make_scratch());
            });
        }
    });
    finish_batch(outputs, t0, threads)
}

/// One queued unit of pool work: a **chunk** of a dispatch — contiguous
/// tasks, each with its batch index, the slab it reads from and writes to
/// — and the round's reply channel. Every task is answered on its own:
/// `Err(panic message)` when it failed in the worker, so the failure is
/// reported on the dispatching thread instead of killing the worker; on
/// `Ok` the result is already stored in `slab[node]`.
struct Job {
    tasks: Vec<(usize, SlabTask)>,
    reply: mpsc::Sender<Reply>,
}

/// What a worker says about a job on its round's reply channel.
enum Reply {
    /// Task `index` ran — to completion, or to a panic caught by the
    /// worker's isolation.
    Done(usize, Result<(), String>),
    /// The worker in this slot died holding a job (whose unanswered tasks
    /// are thereby lost: they never get a [`Reply::Done`]).
    WorkerDied(usize),
}

/// A worker's hold on the job it is executing. However the worker lets go
/// of it — releasing it answered, returning, unwinding — the job's round
/// hears about it, and hears about a death *before* the job's reply sender
/// is dropped: the dispatcher can therefore never observe "tasks lost"
/// without having been told which worker to respawn.
struct InFlight {
    worker: usize,
    reply: Option<mpsc::Sender<Reply>>,
}

impl InFlight {
    /// Answers one task of the job. The receiver may have given up
    /// (`run()` panicked); dropping the result is then the right behavior.
    fn done(&self, index: usize, result: Result<(), String>) {
        if let Some(reply) = &self.reply {
            let _ = reply.send(Reply::Done(index, result));
        }
    }

    /// Lets go of the job with every task answered.
    fn release(mut self) {
        self.reply = None;
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            let _ = reply.send(Reply::WorkerDied(self.worker));
        }
    }
}

/// A persistent gate-evaluation worker pool sharing one [`ServerKey`].
///
/// Workers are spawned once and hold their warmed
/// [`BootstrapScratch`] across an
/// arbitrary number of [`GateBatchPool::run`] calls; chunks of a dispatch
/// are pulled from a shared queue. Dropping the pool shuts the workers
/// down.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{batch::GateBatchPool, ClientKey, Gate, ParameterSet, ServerKey};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let server = Arc::new(ServerKey::new(&client, F64Fft::new(1024), &mut rng));
/// let pool = GateBatchPool::new(server, 8);
/// let pairs: Vec<_> = (0..16)
///     .map(|i| (client.encrypt(i % 2 == 0), client.encrypt(i % 3 == 0)))
///     .collect();
/// // Both batches reuse the same warmed workers.
/// let nand = pool.run(Gate::Nand, &pairs);
/// let xor = pool.run(Gate::Xor, &pairs);
/// println!("{:.0} / {:.0} gates/s", nand.gates_per_second, xor.gates_per_second);
/// ```
pub struct GateBatchPool<E>
where
    E: FftEngine + Send + Sync + 'static,
{
    tx: Option<mpsc::Sender<Job>>,
    /// The pool keeps its own handle on the job queue's receiving end so
    /// (a) sending never fails even if every worker died, and (b) healed
    /// workers can be attached to the same queue.
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    /// Interior mutability so a dispatcher can respawn a dead worker from
    /// `&self` (dispatchers hold the pool by shared ref).
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
    server: Arc<ServerKey<E>>,
    faults: Option<Arc<FaultPlan>>,
    restarts: AtomicU64,
}

/// One persistent worker, occupying `slot` of the pool: pulls chunks off
/// the shared queue, runs each through its warmed scratch
/// ([`run_chunk`]), stores results in the tasks' slabs and replies per
/// task. Extracted as a free function so the pool can respawn a
/// replacement attached to the same queue.
fn spawn_worker<E>(
    slot: usize,
    server: Arc<ServerKey<E>>,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    faults: Option<Arc<FaultPlan>>,
) -> JoinHandle<()>
where
    E: FftEngine + Send + Sync + 'static,
{
    std::thread::spawn(move || {
        let mut scratch = server.make_scratch();
        let mut outs: Vec<LweCiphertext> = Vec::new();
        loop {
            // Hold the lock only to pull the next job. A
            // poisoned lock is recovered rather than cascaded:
            // the queue itself is never left in a torn state by
            // a panicking worker (jobs are popped whole).
            let job = { rx.lock().unwrap_or_else(PoisonError::into_inner).recv() };
            let Ok(Job { tasks, reply }) = job else { break };
            let in_flight = InFlight {
                worker: slot,
                reply: Some(reply),
            };
            // Scripted fault sites, consumed one-shot per (tag, node) —
            // the whole chunk's before any of it runs, so that a death
            // takes the chunk with nothing stored and nothing answered.
            let injected: Vec<Option<FaultAction>> = tasks
                .iter()
                .map(|(_, st)| faults.as_ref()?.take(st.slab.tag(), st.node))
                .collect();
            // Death *outside* every catch_unwind: the thread exits holding
            // the job, as a panic in this loop itself would make it.
            // `in_flight` reports the death on its way out; run_tasks
            // respawns the slot and retries the chunk, whose sites are all
            // spent, so the retry runs clean.
            if injected.contains(&Some(FaultAction::KillWorker)) {
                return;
            }
            run_chunk(
                &server,
                &tasks,
                &injected,
                &mut scratch,
                &mut outs,
                |i, r| in_flight.done(i, r),
            );
            // Drop our slab handles *before* letting go of the job: once
            // the dispatcher sees the round's reply channel close, its own
            // Arc over each slab is unique again.
            drop(tasks);
            in_flight.release();
        }
    })
}

/// Runs one chunk on the calling worker: every bootstrapped task becomes
/// one or two lanes of a single [`ServerKey`] wave, a `Not` is answered on
/// the spot, and `done` hears about each task exactly once.
///
/// Panic isolation is per task wherever the work is: fetching operands,
/// the dimension checks, the linear part and staging the lane all run
/// under the task's own `catch_unwind`, so a malformed task (e.g. a
/// mismatched-dimension operand, or a scripted [`FaultAction::Panic`])
/// fails only its own index and its lane is dropped from the wave, and so
/// does storing its result. The key switch, blind rotation and extraction
/// are shared loops: a panic there fails every task staged in the chunk,
/// each reported. Either way the worker keeps serving and nothing is
/// poisoned. The scratch stays structurally valid across an unwind —
/// every wave re-sizes its buffers — hence the AssertUnwindSafe; the one
/// cost is that a buffer mem::take'n by the panicking call is left empty,
/// so this worker's next chunk re-warms it (an allocation, correctness
/// unaffected).
fn run_chunk<E: FftEngine>(
    server: &ServerKey<E>,
    tasks: &[(usize, SlabTask)],
    injected: &[Option<FaultAction>],
    scratch: &mut BootstrapScratch<E>,
    outs: &mut Vec<LweCiphertext>,
    mut done: impl FnMut(usize, Result<(), String>),
) {
    let outputs = tasks.iter().map(|(_, st)| st.task.outputs()).sum();
    if outs.len() < outputs {
        outs.resize_with(outputs, LweCiphertext::default);
    }
    // The staged gates, in lane order: (position in `tasks`, how the wave
    // reads it back). Their outputs are switched into `outs` in this order.
    let mut staged: Vec<(usize, Staged)> = Vec::with_capacity(tasks.len());
    let mut lanes = 0;
    for (position, ((index, st), fault)) in tasks.iter().zip(injected).enumerate() {
        if let Some(FaultAction::Delay(d)) = fault {
            std::thread::sleep(*d);
        }
        let SlabTask { slab, node, task } = st;
        let stage = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(FaultAction::Panic)) {
                panic!("injected fault: task for node {node} panicked in its worker");
            }
            let Some(gate) = task.lane_gate(slab) else {
                // A free negation takes no lane: stored on the spot.
                let mut out = LweCiphertext::default();
                task.apply_into(server, slab, std::slice::from_mut(&mut out), scratch);
                slab.set(*node, out);
                return None;
            };
            server.stage_lanes(&gate, lanes, scratch);
            Some(gate.staged())
        }));
        match stage {
            Ok(None) => done(*index, Ok(())),
            Ok(Some(gate)) => {
                staged.push((position, gate));
                lanes += gate.lanes();
            }
            Err(payload) => done(*index, Err(panic_message(payload))),
        }
    }
    let outputs = staged.iter().map(|&(_, gate)| gate.outputs()).sum();
    let outs = &mut outs[..outputs];
    let gates = staged.iter().map(|&(_, gate)| gate);
    let shared = catch_unwind(AssertUnwindSafe(|| {
        server.finish_lanes(gates, outs, scratch)
    }))
    .map_err(panic_message);
    let mut outs = outs.iter();
    for &(position, gate) in &staged {
        let (index, SlabTask { slab, node, task }) = &tasks[position];
        // A cell's second result goes to the slot its task names.
        let nodes = match *task {
            GateTask::Cell { sum, .. } => [Some(*node), Some(sum)],
            _ => [Some(*node), None],
        };
        let results = outs.by_ref().take(gate.outputs());
        let stored = shared.clone().and_then(|()| {
            catch_unwind(AssertUnwindSafe(|| {
                for (node, out) in nodes.into_iter().flatten().zip(results) {
                    slab.set(node, out.clone());
                }
            }))
            .map_err(panic_message)
        });
        done(*index, stored);
    }
}

impl<E> GateBatchPool<E>
where
    E: FftEngine + Send + Sync + 'static,
{
    /// Spawns `threads` persistent workers over a shared server key.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn new(server: Arc<ServerKey<E>>, threads: usize) -> Self {
        Self::build(server, threads, None)
    }

    /// Like [`GateBatchPool::new`], but with a scripted [`FaultPlan`]
    /// wired into every worker — the deterministic fault-injection
    /// harness the robustness tests drive. Production pools use
    /// [`GateBatchPool::new`]; a faultless plan behaves identically
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn with_faults(server: Arc<ServerKey<E>>, threads: usize, faults: Arc<FaultPlan>) -> Self {
        Self::build(server, threads, Some(faults))
    }

    fn build(server: Arc<ServerKey<E>>, threads: usize, faults: Option<Arc<FaultPlan>>) -> Self {
        assert!(threads > 0, "need at least one worker");
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|slot| spawn_worker(slot, Arc::clone(&server), Arc::clone(&rx), faults.clone()))
            .collect();
        Self {
            tx: Some(tx),
            rx,
            workers: Mutex::new(workers),
            threads,
            server,
            faults,
            restarts: AtomicU64::new(0),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers respawned after dying outside the panic isolation.
    /// 0 in healthy operation.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Self-healing: replaces the worker in `slot`, which has announced
    /// its own death (outside every `catch_unwind` — a panic in the
    /// worker loop itself; in tests [`FaultAction::KillWorker`]), with a
    /// fresh one — new scratch, same job queue — so the pool never
    /// silently loses capacity. Bumps [`GateBatchPool::restarts`].
    fn respawn(&self, slot: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        let replacement = spawn_worker(
            slot,
            Arc::clone(&self.server),
            Arc::clone(&self.rx),
            self.faults.clone(),
        );
        // The announcement is the last thing the dying thread does with the
        // job; all that is left of it is unwinding its own stack.
        let _ = std::mem::replace(&mut workers[slot], replacement).join();
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// The shared server key the workers evaluate under.
    pub fn server(&self) -> &ServerKey<E> {
        &self.server
    }

    /// Evaluates `gate` over all pairs on the persistent workers, returning
    /// outputs in input order. A convenience wrapper over
    /// [`GateBatchPool::run_tasks`] for the homogeneous binary-gate case:
    /// operands are staged into a throwaway [`ValueSlab`] and the outputs
    /// moved back out of it.
    ///
    /// # Panics
    ///
    /// Panics (on this thread, with the pool left healthy) if any job
    /// panicked in a worker.
    pub fn run(&self, gate: Gate, pairs: &[(LweCiphertext, LweCiphertext)]) -> BatchResult {
        let t0 = Instant::now();
        if pairs.is_empty() {
            // Same contract as `run_gate_batch`: an empty batch is a valid
            // request that produces an empty result, not a panic.
            return finish_batch(Vec::new(), t0, 0);
        }
        let n = pairs.len();
        // Slots 0..n hold the left operands, n..2n the right, 2n..3n the
        // outputs.
        let slab = ValueSlab::new(3 * n);
        for (i, (a, b)) in pairs.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let slab = Arc::new(slab);
        let batch: Vec<SlabTask> = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                task: GateTask::Binary {
                    gate,
                    a: i,
                    b: n + i,
                },
            })
            .collect();
        let dispatch = self.run_tasks(&batch);
        // The batch has fully drained either way; re-raise the
        // lowest-index failure so the panic is deterministic.
        if let Some((index, msg)) = dispatch.failures.first() {
            panic!("pool task {index} panicked in a worker: {msg}");
        }
        drop(batch);
        let mut slab = Arc::try_unwrap(slab)
            .ok()
            .expect("batch drained: no worker still holds the slab");
        let outputs: Vec<LweCiphertext> = (0..n)
            .map(|i| slab.take(2 * n + i).expect("worker stored every output"))
            .collect();
        finish_batch(outputs, t0, self.threads)
    }

    /// Dispatches a heterogeneous batch — any mix of binary gates, free
    /// negations and muxes, possibly spanning **several circuits' slabs**
    /// — onto the persistent workers, blocking until every task has been
    /// answered. Each task reads its operands from its slab by index and
    /// stores its result at `node`; nothing is cloned per operand. This is
    /// the form circuit waves are dispatched in: the server fills one
    /// `run_tasks` call with the ready frontier of every in-flight
    /// circuit.
    ///
    /// The batch is cut into contiguous **chunks**, one queued job each,
    /// of at most `min(MAX_LANES, ⌈lanes / threads⌉)` blind rotations (a
    /// binary gate is one, a mux two, a `Not` none — for a wave of binary
    /// gates that is so many tasks): every worker gets a share, and a
    /// worker key-switches its chunk together and carries it through each
    /// key group together ([`ServerKey::apply_lanes_into`]), so the
    /// keys stream once per chunk rather than once per task, with each
    /// task's result bit-identical to running it alone.
    ///
    /// Operands must already be present in their slabs when the batch is
    /// dispatched — tasks within one batch must not depend on each other.
    ///
    /// A task that panics in a worker on its own (e.g. mismatched operand
    /// dimensions) is reported in [`DispatchResult::failures`] rather than
    /// raised: workers survive, nothing is poisoned, the rest of its chunk
    /// and of the batch still completes, and the dispatcher decides which
    /// circuit the failure faults. Only a panic inside the loops a chunk
    /// shares fails the whole chunk, one failure per task.
    ///
    /// A worker that *dies* mid-batch (exit outside the panic isolation)
    /// announces it on the reply channel as its last act; the dispatcher
    /// respawns it on the spot and retries the lost chunk's tasks once on
    /// the healed pool; only a task lost twice is reported as a failure.
    /// The batch therefore still completes after any single worker death,
    /// and every death has been counted in [`GateBatchPool::restarts`] by
    /// the time this returns.
    pub fn run_tasks(&self, tasks: &[SlabTask]) -> DispatchResult {
        let t0 = Instant::now();
        if tasks.is_empty() {
            return DispatchResult {
                failures: Vec::new(),
                elapsed_s: t0.elapsed().as_secs_f64(),
                threads: 0,
            };
        }
        let mut done = vec![false; tasks.len()];
        let mut failures: Vec<(usize, String)> = Vec::new();
        let all: Vec<usize> = (0..tasks.len()).collect();
        self.dispatch_round(tasks, &all, &mut done, &mut failures);
        // An index with no reply was lost with its chunk inside a dying
        // worker, which the round has already replaced. Retry those tasks
        // once: a scripted KillWorker was consumed when it fired, so the
        // retry runs clean, and a genuine repeat offender is reported
        // instead of retried forever.
        let missing: Vec<usize> = (0..tasks.len()).filter(|&i| !done[i]).collect();
        if !missing.is_empty() {
            self.dispatch_round(tasks, &missing, &mut done, &mut failures);
            for index in (0..tasks.len()).filter(|&i| !done[i]) {
                failures.push((
                    index,
                    "worker died while executing this task (twice; giving up)".to_string(),
                ));
            }
        }
        failures.sort_unstable_by_key(|&(index, _)| index);
        DispatchResult {
            failures,
            elapsed_s: t0.elapsed().as_secs_f64(),
            threads: self.threads,
        }
    }

    /// Cuts the tasks at `indices` into chunks, queues one job per chunk
    /// and drains the replies until every job of this round is accounted
    /// for: released with its tasks answered, or lost with a dying worker
    /// (each job holds a reply sender, so the reply channel disconnects
    /// exactly when no job of the round is queued or running any more). A
    /// death is a message like any other, so it is acted on even while the
    /// round's other jobs keep the channel open — including the case where
    /// the dead worker was the only one and the rest of the round is still
    /// sitting in the queue, waiting for its replacement.
    fn dispatch_round(
        &self,
        tasks: &[SlabTask],
        indices: &[usize],
        done: &mut [bool],
        failures: &mut Vec<(usize, String)>,
    ) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("pool is live");
        let lanes = |&index: &usize| tasks[index].task.lanes();
        let total: usize = indices.iter().map(lanes).sum();
        let cap = MAX_LANES.min(total.div_ceil(self.threads));
        let mut rest = indices;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(lane_prefix(rest.iter().map(lanes), cap));
            rest = tail;
            tx.send(Job {
                tasks: chunk.iter().map(|&i| (i, tasks[i].clone())).collect(),
                reply: reply_tx.clone(),
            })
            .expect("pool holds the queue receiver, sends cannot fail");
        }
        drop(reply_tx);
        for reply in reply_rx {
            match reply {
                Reply::Done(index, result) => {
                    done[index] = true;
                    if let Err(msg) = result {
                        failures.push((index, msg));
                    }
                }
                Reply::WorkerDied(slot) => self.respawn(slot),
            }
        }
    }
}

impl<E> Drop for GateBatchPool<E>
where
    E: FftEngine + Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.tx.take());
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterSet;
    use crate::secret::ClientKey;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use matcha_math::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    type EncryptedPairs = Vec<(crate::LweCiphertext, crate::LweCiphertext)>;

    fn inputs(
        client: &ClientKey,
        rng: &mut StdRng,
        count: usize,
    ) -> (Vec<(bool, bool)>, EncryptedPairs) {
        let plain: Vec<(bool, bool)> = (0..count).map(|i| (i % 2 == 0, i % 3 == 0)).collect();
        let enc = plain
            .iter()
            .map(|&(a, b)| (client.encrypt_with(a, rng), client.encrypt_with(b, rng)))
            .collect();
        (plain, enc)
    }

    #[test]
    fn batch_outputs_match_sequential() {
        let mut rng = StdRng::seed_from_u64(81);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let (plain, enc) = inputs(&client, &mut rng, 10);
        let result = run_gate_batch(&server, Gate::Nand, &enc, 4);
        assert_eq!(result.outputs.len(), 10);
        for ((a, b), out) in plain.iter().zip(result.outputs.iter()) {
            assert_eq!(client.decrypt(out), !(a & b));
        }
        assert!(result.gates_per_second > 0.0);
    }

    #[test]
    fn single_thread_equals_multi_thread_results() {
        let mut rng = StdRng::seed_from_u64(82);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::with_unrolling(&client, ApproxIntFft::new(256, 40), 2, &mut rng);
        let (_, enc) = inputs(&client, &mut rng, 6);
        let seq = run_gate_batch(&server, Gate::Xor, &enc, 1);
        let par = run_gate_batch(&server, Gate::Xor, &enc, 3);
        for (s, p) in seq.outputs.iter().zip(par.outputs.iter()) {
            assert_eq!(client.decrypt(s), client.decrypt(p));
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let mut rng = StdRng::seed_from_u64(83);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let (_, enc) = inputs(&client, &mut rng, 2);
        let result = run_gate_batch(&server, Gate::And, &enc, 16);
        assert_eq!(result.outputs.len(), 2);
        assert!(result.threads <= 2);
    }

    #[test]
    fn empty_batch_returns_empty_result() {
        let mut rng = StdRng::seed_from_u64(88);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let result = run_gate_batch(&server, Gate::Nand, &[], 4);
        assert!(result.outputs.is_empty());
        assert_eq!(result.threads, 0);
        assert_eq!(result.gates_per_second, 0.0);
    }

    #[test]
    fn pool_handles_empty_batch() {
        let mut rng = StdRng::seed_from_u64(89);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let empty = pool.run(Gate::And, &[]);
        assert!(empty.outputs.is_empty());
        assert_eq!(empty.gates_per_second, 0.0);
        // The pool is still usable for real work afterwards.
        let (plain, enc) = inputs(&client, &mut rng, 2);
        let result = pool.run(Gate::And, &enc);
        for ((a, b), out) in plain.iter().zip(result.outputs.iter()) {
            assert_eq!(client.decrypt(out), a & b);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let mut rng = StdRng::seed_from_u64(84);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let _ = run_gate_batch(&server, Gate::And, &[], 0);
    }

    #[test]
    fn pool_matches_plaintext_and_survives_reuse() {
        let mut rng = StdRng::seed_from_u64(85);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 8);
        let pool = GateBatchPool::new(Arc::clone(&server), 3);
        // Two batches over the same persistent workers.
        let nand = pool.run(Gate::Nand, &enc);
        let or = pool.run(Gate::Or, &enc);
        for ((a, b), (n, o)) in plain.iter().zip(nand.outputs.iter().zip(or.outputs.iter())) {
            assert_eq!(client.decrypt(n), !(a & b), "nand({a},{b})");
            assert_eq!(client.decrypt(o), a | b, "or({a},{b})");
        }
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn pool_matches_spawn_per_batch_outputs() {
        let mut rng = StdRng::seed_from_u64(86);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::with_unrolling(
            &client,
            F64Fft::new(256),
            2,
            &mut rng,
        ));
        let (_, enc) = inputs(&client, &mut rng, 5);
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let pooled = pool.run(Gate::Xor, &enc);
        let scoped = run_gate_batch(server.as_ref(), Gate::Xor, &enc, 2);
        // Bootstrapping is deterministic given the same keys, so the two
        // paths must agree exactly.
        assert_eq!(pooled.outputs, scoped.outputs);
    }

    #[test]
    fn throughput_zero_elapsed_is_finite() {
        // Sub-tick batches clamp to the 1 ns Instant resolution instead of
        // reporting f64::INFINITY.
        let r = BatchResult::throughput(5, 0.0);
        assert!(r.is_finite(), "zero-elapsed throughput must be finite");
        assert_eq!(r, 5.0e9);
        // Empty batches are 0 gates/s whatever the clock says.
        assert_eq!(BatchResult::throughput(0, 0.0), 0.0);
        assert_eq!(BatchResult::throughput(0, 1.0), 0.0);
        // The ordinary case is untouched.
        assert_eq!(BatchResult::throughput(10, 2.0), 5.0);
        // Clamping is monotone: a faster batch never reports lower.
        assert!(BatchResult::throughput(5, 1e-12) >= BatchResult::throughput(5, 1e-3));
    }

    #[test]
    fn dropping_pool_joins_all_workers() {
        let mut rng = StdRng::seed_from_u64(90);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (_, enc) = inputs(&client, &mut rng, 3);
        let pool = GateBatchPool::new(Arc::clone(&server), 3);
        let _ = pool.run(Gate::Or, &enc);
        drop(pool);
        // Every worker held a clone of the Arc; all of them having exited
        // (joined, not leaked or detached) leaves ours as the only one.
        assert_eq!(Arc::strong_count(&server), 1, "drop must join every worker");
    }

    #[test]
    fn panicking_job_poisons_nothing_and_pool_survives() {
        let mut rng = StdRng::seed_from_u64(91);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let (plain, enc) = inputs(&client, &mut rng, 4);

        // One malformed operand (wrong LWE dimension) makes its task panic
        // inside a worker; the panic must be re-raised on this thread…
        let mut bad = enc.clone();
        bad[1].0 = crate::LweCiphertext::trivial(Torus32::ZERO, 3);
        let raised = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(Gate::And, &bad)));
        let msg = panic_message(raised.expect_err("malformed batch must panic"));
        assert!(
            msg.contains("panicked in a worker"),
            "panic must identify the failing task: {msg}"
        );

        // …while the workers stay alive and unpoisoned: the same pool runs
        // the healthy batch to completion, twice, with correct outputs.
        for _ in 0..2 {
            let result = pool.run(Gate::And, &enc);
            assert_eq!(result.outputs.len(), enc.len());
            for ((a, b), out) in plain.iter().zip(result.outputs.iter()) {
                assert_eq!(client.decrypt(out), a & b);
            }
        }
        drop(pool);
        assert_eq!(
            Arc::strong_count(&server),
            1,
            "all workers must still be joinable after a job panic"
        );
    }

    #[test]
    fn mixed_task_batch_evaluates_every_kind() {
        let mut rng = StdRng::seed_from_u64(92);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        // Slots 0/1 hold the shared operands; 2..7 receive the outputs.
        // Every task reads the *same* two ciphertexts by index — nothing
        // is cloned per task.
        let slab = Arc::new(ValueSlab::new(7));
        slab.set(0, client.encrypt_with(true, &mut rng));
        slab.set(1, client.encrypt_with(false, &mut rng));
        let tasks = [
            GateTask::Binary {
                gate: Gate::Nand,
                a: 0,
                b: 0,
            },
            GateTask::Not { a: 1 },
            GateTask::Mux { sel: 0, a: 1, b: 0 },
            GateTask::Binary {
                gate: Gate::Xor,
                a: 0,
                b: 1,
            },
            GateTask::Mux { sel: 1, a: 1, b: 0 },
        ];
        let batch: Vec<SlabTask> = tasks
            .iter()
            .enumerate()
            .map(|(i, &task)| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 + i,
                task,
            })
            .collect();
        let expected = [false, true, false, true, true];
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty());
        for (i, want) in expected.into_iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 + i)), want, "task {i}");
        }
    }

    #[test]
    fn dispatch_reports_per_task_failures_and_finishes_the_rest() {
        // A failing task must not take the batch down with it: the other
        // tasks' slots are still filled, and only the failure is reported
        // — the property the interleaving scheduler's per-circuit fault
        // isolation is built on.
        let mut rng = StdRng::seed_from_u64(94);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let slab = Arc::new(ValueSlab::new(6));
        slab.set(0, client.encrypt_with(true, &mut rng));
        slab.set(1, client.encrypt_with(false, &mut rng));
        // Slot 2: right count of coefficients for nothing — wrong LWE
        // dimension, so any gate reading it panics in its worker.
        slab.set(2, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        let batch: Vec<SlabTask> = [
            (
                3,
                GateTask::Binary {
                    gate: Gate::And,
                    a: 0,
                    b: 1,
                },
            ),
            (
                4,
                GateTask::Binary {
                    gate: Gate::Or,
                    a: 0,
                    b: 2,
                },
            ),
            (
                5,
                GateTask::Binary {
                    gate: Gate::Xor,
                    a: 0,
                    b: 1,
                },
            ),
        ]
        .into_iter()
        .map(|(node, task)| SlabTask {
            slab: Arc::clone(&slab),
            node,
            task,
        })
        .collect();
        let result = pool.run_tasks(&batch);
        assert_eq!(result.failures.len(), 1, "exactly the bad task fails");
        assert_eq!(result.failures[0].0, 1, "failure carries its batch index");
        assert!(!client.decrypt(slab.get(3)), "true AND false");
        assert!(slab.try_get(4).is_none(), "failed task stores nothing");
        assert!(client.decrypt(slab.get(5)), "true XOR false");
        // The pool survives for the next dispatch.
        let healthy = pool.run(
            Gate::And,
            &[(
                client.encrypt_with(true, &mut rng),
                client.encrypt_with(true, &mut rng),
            )],
        );
        assert!(client.decrypt(&healthy.outputs[0]));
    }

    #[test]
    fn slab_set_twice_is_rejected() {
        let slab = ValueSlab::new(2);
        assert_eq!(slab.len(), 2);
        assert!(!slab.is_empty());
        slab.set(0, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        assert!(slab.try_get(0).is_some());
        assert!(slab.try_get(1).is_none());
        let raised = std::panic::catch_unwind(AssertUnwindSafe(|| {
            slab.set(0, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        }));
        assert!(raised.is_err(), "double write must be rejected");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn slab_set_out_of_range_rejected() {
        let slab = ValueSlab::new(2);
        slab.set(2, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn slab_get_out_of_range_rejected() {
        let slab = ValueSlab::new(1);
        let _ = slab.get(5);
    }

    #[test]
    fn run_delegates_to_tasks_identically() {
        let mut rng = StdRng::seed_from_u64(93);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let (_, enc) = inputs(&client, &mut rng, 5);
        let via_run = pool.run(Gate::Xnor, &enc);
        // The same batch staged by hand on an explicit slab.
        let n = enc.len();
        let slab = Arc::new(ValueSlab::new(3 * n));
        for (i, (a, b)) in enc.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let batch: Vec<SlabTask> = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                task: GateTask::Binary {
                    gate: Gate::Xnor,
                    a: i,
                    b: n + i,
                },
            })
            .collect();
        let dispatch = pool.run_tasks(&batch);
        assert!(dispatch.failures.is_empty());
        // Bootstrapping is deterministic given the keys: exact equality.
        for (i, out) in via_run.outputs.iter().enumerate() {
            assert_eq!(out, slab.get(2 * n + i), "task {i}");
        }
    }

    /// Stages `pairs` as a manual `Gate::And` batch on a tag-0 slab and
    /// returns `(slab, tasks)`; output for pair `i` lands at node
    /// `2 * len + i` — the node fault sites target.
    fn staged_and_batch(enc: &EncryptedPairs) -> (Arc<ValueSlab>, Vec<SlabTask>) {
        let n = enc.len();
        let slab = Arc::new(ValueSlab::new(3 * n));
        for (i, (a, b)) in enc.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let batch = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                task: GateTask::Binary {
                    gate: Gate::And,
                    a: i,
                    b: n + i,
                },
            })
            .collect();
        (slab, batch)
    }

    #[test]
    fn worker_death_heals_and_batch_completes() {
        // A scripted worker death mid-batch: the pool must notice the
        // lost reply, respawn the worker, retry the lost task, and still
        // deliver the whole batch — the tentpole self-healing guarantee.
        let mut rng = StdRng::seed_from_u64(95);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 4);
        let (slab, batch) = staged_and_batch(&enc);
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len() + 1, FaultAction::KillWorker));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, Arc::clone(&plan));
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 1, "exactly the killed worker respawned");
        assert!(plan.is_spent(), "the death fired");
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
        // The healed pool keeps serving.
        let again = pool.run(Gate::Or, &enc);
        for ((a, b), out) in plain.iter().zip(again.outputs.iter()) {
            assert_eq!(client.decrypt(out), a | b);
        }
        drop(pool);
        assert_eq!(Arc::strong_count(&server), 1, "healed workers join too");
    }

    #[test]
    fn sole_worker_death_with_queued_jobs_still_completes() {
        // The nastiest liveness case: one worker, killed while the rest
        // of the batch is still *queued*. Those queued jobs hold reply
        // senders, so the reply channel never disconnects on its own —
        // the death notice must arrive as a message on the open channel
        // for the respawn to get the queue moving again.
        let mut rng = StdRng::seed_from_u64(96);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        // One worker: chunks of MAX_LANES, MAX_LANES and 2 tasks.
        let (plain, enc) = inputs(&client, &mut rng, 2 * MAX_LANES + 2);
        let (slab, batch) = staged_and_batch(&enc);
        // Kill in the *first* chunk so the other two are still queued.
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len(), FaultAction::KillWorker));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 1, plan);
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 1);
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
    }

    /// One full chunk on a one-worker pool with `action` scripted at task
    /// 7, in the middle of it. Returns the pool, the dispatch result and
    /// each output slot as the dispatch left it; the references are the
    /// one-at-a-time results.
    fn mid_chunk_fault(
        seed: u64,
        action: FaultAction,
    ) -> (
        GateBatchPool<F64Fft>,
        DispatchResult,
        Vec<Option<LweCiphertext>>,
        Vec<LweCiphertext>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (_, enc) = inputs(&client, &mut rng, MAX_LANES);
        let (slab, batch) = staged_and_batch(&enc);
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * MAX_LANES + 7, action));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 1, Arc::clone(&plan));
        let result = pool.run_tasks(&batch);
        assert!(plan.is_spent(), "the fault fired");
        let outputs = (0..MAX_LANES)
            .map(|i| slab.try_get(2 * MAX_LANES + i).cloned())
            .collect();
        let alone = enc.iter().map(|(a, b)| server.apply(Gate::And, a, b));
        (pool, result, outputs, alone.collect())
    }

    #[test]
    fn panic_mid_chunk_fails_its_task_and_spares_its_fifteen_chunk_mates() {
        let (pool, result, outputs, alone) = mid_chunk_fault(99, FaultAction::Panic);
        assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
        assert_eq!(result.failures[0].0, 7);
        assert!(result.failures[0].1.contains("injected fault"));
        assert_eq!(pool.restarts(), 0, "a caught panic is not a death");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            if i == 7 {
                assert!(out.is_none(), "failed task stores nothing");
            } else {
                // Its lane was dropped from the wave; the survivors' lanes
                // closed up and still compute what they compute alone.
                assert_eq!(out.as_ref(), Some(want), "task {i}");
            }
        }
    }

    #[test]
    fn kill_mid_chunk_loses_the_chunk_once_and_the_retry_completes_it() {
        let (pool, result, outputs, alone) = mid_chunk_fault(100, FaultAction::KillWorker);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 1, "one death, one respawn");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "task {i}");
        }
    }

    #[test]
    fn delay_mid_chunk_completes_the_chunk() {
        let delay = FaultAction::Delay(Duration::from_millis(40));
        let (pool, result, outputs, alone) = mid_chunk_fault(101, delay);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 0, "slow is not dead");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "task {i}");
        }
    }

    #[test]
    fn malformed_task_mid_chunk_fails_alone() {
        // Not a scripted panic but a real one, in the task's own linear
        // part: a wrong-dimension operand in the middle of a chunk.
        let mut rng = StdRng::seed_from_u64(102);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, mut enc) = inputs(&client, &mut rng, 5);
        enc[2].1 = LweCiphertext::trivial(Torus32::ZERO, 3);
        let (slab, batch) = staged_and_batch(&enc);
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        let result = pool.run_tasks(&batch);
        assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
        assert_eq!(result.failures[0].0, 2);
        for (i, (a, b)) in plain.iter().enumerate() {
            match slab.try_get(2 * enc.len() + i) {
                Some(out) => assert_eq!(client.decrypt(out), a & b, "task {i}"),
                None => assert_eq!(i, 2, "only the malformed task stores nothing"),
            }
        }
    }

    /// A chunk of three on one worker — an AND, an adder cell, an XOR —
    /// with `fault` scripted at the cell, or one of its operands malformed.
    /// Returns the dispatch result, each of the four result slots as the
    /// dispatch left it, and what the tasks give alone.
    fn cell_mid_chunk(
        seed: u64,
        fault: Option<FaultAction>,
        malformed: bool,
    ) -> (
        DispatchResult,
        Vec<Option<LweCiphertext>>,
        Vec<LweCiphertext>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        // Slots 0..3 hold the operands; 3, 4, 6 the tasks' nodes, 5 the sum.
        let slab = Arc::new(ValueSlab::new(7));
        for slot in 0..3 {
            slab.set(slot, client.encrypt_with(slot != 1, &mut rng));
        }
        let reference = [
            server.and(slab.get(0), slab.get(1)),
            server.cell(slab.get(0), slab.get(1), slab.get(2))[0].clone(),
            server.cell(slab.get(0), slab.get(1), slab.get(2))[1].clone(),
            server.xor(slab.get(1), slab.get(2)),
        ];
        let cell_slab = if malformed {
            // The same slab, but for a second operand of the wrong dimension.
            let bad = ValueSlab::new(7);
            bad.set(0, slab.get(0).clone());
            bad.set(1, LweCiphertext::trivial(Torus32::ZERO, 3));
            bad.set(2, slab.get(2).clone());
            Arc::new(bad)
        } else {
            Arc::clone(&slab)
        };
        let and = GateTask::Binary {
            gate: Gate::And,
            a: 0,
            b: 1,
        };
        let cell = GateTask::Cell {
            ops: [0, 1, 2],
            sum: 5,
        };
        let xor = GateTask::Binary {
            gate: Gate::Xor,
            a: 1,
            b: 2,
        };
        let batch: Vec<SlabTask> = [(&slab, 3, and), (&cell_slab, 4, cell), (&slab, 6, xor)]
            .into_iter()
            .map(|(slab, node, task)| SlabTask {
                slab: Arc::clone(slab),
                node,
                task,
            })
            .collect();
        let plan = FaultPlan::new();
        let plan = Arc::new(match fault {
            Some(action) => plan.inject(0, 4, action),
            None => plan,
        });
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 1, Arc::clone(&plan));
        let result = pool.run_tasks(&batch);
        assert!(plan.is_spent());
        let outputs = [(&slab, 3), (&cell_slab, 4), (&cell_slab, 5), (&slab, 6)]
            .map(|(slab, node)| slab.try_get(node).cloned());
        (result, outputs.to_vec(), reference.to_vec())
    }

    #[test]
    fn a_cell_task_stores_both_its_results() {
        let (result, outputs, alone) = cell_mid_chunk(104, None, false);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "result {i}");
        }
    }

    #[test]
    fn a_cell_that_fails_in_staging_stores_neither_result_and_spares_its_wave_mates() {
        for (fault, malformed) in [(Some(FaultAction::Panic), false), (None, true)] {
            let (result, outputs, alone) = cell_mid_chunk(105, fault, malformed);
            assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
            assert_eq!(result.failures[0].0, 1, "the cell's batch index");
            for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
                if i == 1 || i == 2 {
                    assert!(out.is_none(), "neither the carry nor the sum is stored");
                } else {
                    assert_eq!(out.as_ref(), Some(want), "wave-mate {i}");
                }
            }
        }
    }

    #[test]
    fn panic_in_the_shared_loops_fails_every_task_of_the_chunk() {
        // A scratch built for another ring degree stages fine (lanes are
        // sized from it) and breaks inside the blind rotation, the part of
        // a chunk its tasks share.
        let mut rng = StdRng::seed_from_u64(103);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let small = ParameterSet {
            ring_degree: 128,
            ..ParameterSet::TEST_FAST
        };
        let other_client = ClientKey::generate(small, &mut rng);
        let other = ServerKey::new(&other_client, F64Fft::new(128), &mut rng);
        let (_, enc) = inputs(&client, &mut rng, 3);
        let (slab, batch) = staged_and_batch(&enc);
        let tasks: Vec<(usize, SlabTask)> = batch.into_iter().enumerate().collect();
        let mut replies = Vec::new();
        run_chunk(
            &server,
            &tasks,
            &[None; 3],
            &mut other.make_scratch(),
            &mut Vec::new(),
            |index, result| replies.push((index, result)),
        );
        assert_eq!(replies.len(), 3, "each task reported");
        for (position, (index, result)) in replies.iter().enumerate() {
            assert_eq!(*index, position);
            assert!(result.is_err(), "task {index} shares the failed loops");
            assert_eq!(*result, replies[0].1, "one panic, reported per task");
            assert!(slab.try_get(2 * enc.len() + index).is_none());
        }
    }

    #[test]
    fn injected_panic_fails_only_its_task() {
        let mut rng = StdRng::seed_from_u64(97);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 3);
        let (slab, batch) = staged_and_batch(&enc);
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len() + 2, FaultAction::Panic));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, plan);
        let result = pool.run_tasks(&batch);
        assert_eq!(result.failures.len(), 1);
        assert_eq!(result.failures[0].0, 2);
        assert!(
            result.failures[0].1.contains("injected fault"),
            "{}",
            result.failures[0].1
        );
        assert_eq!(pool.restarts(), 0, "a caught panic is not a death");
        for (i, (a, b)) in plain.iter().enumerate().take(2) {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
        assert!(slab.try_get(2 * enc.len() + 2).is_none());
    }

    #[test]
    fn injected_delay_completes_normally() {
        let mut rng = StdRng::seed_from_u64(98);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 2);
        let (slab, batch) = staged_and_batch(&enc);
        // A slow task is not mistaken for a dead worker: however long the
        // drain waits, only a death notice triggers a respawn.
        let plan = Arc::new(FaultPlan::new().inject(
            0,
            2 * enc.len(),
            FaultAction::Delay(Duration::from_millis(80)),
        ));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, plan);
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty());
        assert_eq!(pool.restarts(), 0, "slow is not dead");
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
    }

    #[test]
    fn pool_shuts_down_cleanly() {
        let mut rng = StdRng::seed_from_u64(87);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (_, enc) = inputs(&client, &mut rng, 2);
        {
            let pool = GateBatchPool::new(Arc::clone(&server), 2);
            let _ = pool.run(Gate::And, &enc);
        } // drop joins workers; reaching here without hanging is the test
    }
}
