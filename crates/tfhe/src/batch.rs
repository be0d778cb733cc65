//! Batched gate evaluation across OS threads.
//!
//! The paper's throughput metric (Figure 10) assumes many independent
//! gates in flight — MATCHA runs 8 bootstrapping pipelines that share one
//! key stream, the GPU batches ciphertexts, and the CPU baseline uses its 8
//! cores. The software counterpart is [`GateBatchPool`]: workers that keep
//! their warmed [`BootstrapScratch`] **alive across dispatches** — the
//! analogue of MATCHA's eight always-resident bootstrapping pipelines —
//! each running its share through the one batched gate entry,
//! [`ServerKey::apply_lanes_into`] (a wave of gates key-switched together,
//! then carried through each key group together).
//!
//! A task is a **node of a netlist**: a [`SlabTask`] names a bootstrapped
//! node of the [`CircuitNetlist`] its [`ValueSlab`] holds, and the worker
//! reads the node's op and its operands from the slab and stores the
//! result there — nothing is cloned per operand. One
//! [`GateBatchPool::run_tasks`] dispatch may mix tasks over several
//! circuits' slabs, which is how the circuit server interleaves every
//! in-flight circuit's ready wave into one batch. A dispatch is cut into
//! contiguous **chunks** of at most [`MAX_LANES`] blind rotations, one
//! queued job per chunk: a worker streams the bootstrapping key once per
//! chunk, not once per task.

use crate::circuit::{CircuitNetlist, GateOp};
use crate::faults::FaultAction;
use crate::gates::{lane_prefix, LaneGate, ServerKey};
use crate::lwe::LweCiphertext;
use crate::scratch::{BootstrapScratch, MAX_LANES};
use matcha_fft::FftEngine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A write-once slab of ciphertext values shared between a dispatcher and
/// the pool workers — one slot per node of the netlist it holds. Operands
/// are passed **by index** into the slab instead of being cloned into
/// every task, so a wave of gates reading the same value shares one
/// ciphertext. Each slot is set exactly once (by the dispatcher for
/// sources and free `NOT`s, by the worker that evaluated the node
/// otherwise) and read only after the dependency order guarantees it is
/// present.
pub struct ValueSlab {
    /// The netlist the slots are numbered by.
    net: Arc<CircuitNetlist>,
    slots: Box<[OnceLock<LweCiphertext>]>,
}

impl ValueSlab {
    /// An empty slot per node of `net`.
    pub fn new(net: Arc<CircuitNetlist>) -> Self {
        Self {
            slots: (0..net.len()).map(|_| OnceLock::new()).collect(),
            net,
        }
    }

    /// The netlist the slots are numbered by.
    pub(crate) fn net(&self) -> &CircuitNetlist {
        &self.net
    }

    /// Stores the value of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a node of the netlist, or if the slot was
    /// already written — every node's value is computed exactly once.
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
    /// Panics if `index` is not a node of the netlist, or if the slot has
    /// not been written — an operand referenced before its wave completed.
    pub fn get(&self, index: usize) -> &LweCiphertext {
        self.slots[index]
            .get()
            .unwrap_or_else(|| panic!("value slot {index} not yet computed"))
    }

    /// The value of node `index`, if already computed.
    pub(crate) fn try_get(&self, index: usize) -> Option<&LweCiphertext> {
        self.slots[index].get()
    }

    /// Node `node` as a gate of a wave, operands borrowed from the slab: a
    /// majority that hosts a riding `Sum` is an adder cell.
    ///
    /// # Panics
    ///
    /// Panics, naming the node, if it is past the netlist or bootstraps
    /// nothing; panics if an operand has not been computed.
    fn lane_gate(&self, node: usize) -> LaneGate<'_> {
        let Some(&op) = self.net.ops().get(node) else {
            panic!("node {node} is past its {}-node netlist", self.net.len());
        };
        let v = |i| self.get(i);
        match op {
            GateOp::Binary(gate, a, b) => LaneGate::Binary {
                gate,
                a: v(a),
                b: v(b),
            },
            GateOp::Mux { sel, a, b } => LaneGate::Mux {
                sel: v(sel),
                a: v(a),
                b: v(b),
            },
            GateOp::Ternary(gate, a, b, c) => {
                let ops = [a, b, c].map(v);
                match self.net.rider_of(node) {
                    Some(_) => LaneGate::Cell { ops },
                    None => LaneGate::Ternary { gate, ops },
                }
            }
            _ => panic!("node {node} ({op:?}) is not a bootstrapped gate"),
        }
    }

    /// Lanes node `node` takes in a chunk: its bootstraps, and one for a
    /// node that is no bootstrapped gate — its task fails in the worker,
    /// not while the dispatcher cuts chunks.
    fn lanes(&self, node: usize) -> usize {
        self.net
            .ops()
            .get(node)
            .map_or(1, |op| op.bootstraps().max(1))
    }
}

/// One dispatchable task: a bootstrapped node of the netlist its slab
/// holds. The worker reads the node's op and operands from the slab and
/// stores the result at `node` (an adder cell's sum at its riding `Sum`).
/// Batches may freely mix tasks over *different* slabs — that is how the
/// server interleaves waves of several in-flight circuits into one
/// dispatch.
#[derive(Clone)]
pub struct SlabTask {
    /// The value slab holding the node's netlist and values.
    pub slab: Arc<ValueSlab>,
    /// The node to evaluate; its result is stored at this slot.
    pub node: usize,
    /// The scripted fault the worker acts out on this task: `None` except
    /// under a [`FaultPlan`](crate::faults::FaultPlan) or in a pool test.
    pub fault: Option<FaultAction>,
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
    /// (`run_tasks` panicked); dropping the result is then the right
    /// behavior.
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
/// arbitrary number of [`GateBatchPool::run_tasks`] calls; chunks of a
/// dispatch are pulled from a shared queue. Dropping the pool shuts the
/// workers down.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{CircuitNetlist, ClientKey, Gate, GateBatchPool, ParameterSet, ServerKey};
/// use matcha_tfhe::{SlabTask, ValueSlab};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let server = Arc::new(ServerKey::new(&client, F64Fft::new(1024), &mut rng));
/// let pool = GateBatchPool::new(server, 8);
/// // Nodes 0 and 1 are the inputs, 2 and 3 a NAND and an XOR of them.
/// let mut net = CircuitNetlist::new();
/// let (a, b) = (net.input(), net.input());
/// let nodes = [net.gate(Gate::Nand, a, b), net.gate(Gate::Xor, a, b)];
/// let slab = Arc::new(ValueSlab::new(Arc::new(net)));
/// slab.set(a, client.encrypt_with(true, &mut rng));
/// slab.set(b, client.encrypt_with(false, &mut rng));
/// let tasks = nodes.map(|node| SlabTask {
///     slab: Arc::clone(&slab),
///     node,
///     fault: None,
/// });
/// assert!(pool.run_tasks(&tasks).is_empty(), "no task failed");
/// assert!(client.decrypt(slab.get(2)) && client.decrypt(slab.get(3)));
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
            // A scripted death anywhere in the chunk exits the thread before
            // any of the chunk runs, *outside* every catch_unwind, as a panic
            // in this loop itself would: nothing stored, nothing answered.
            // `in_flight` reports the death on its way out; run_tasks
            // respawns the slot and retries the chunk without its faults.
            if tasks
                .iter()
                .any(|(_, st)| st.fault == Some(FaultAction::KillWorker))
            {
                return;
            }
            run_chunk(&server, &tasks, &mut scratch, &mut outs, |i, r| {
                in_flight.done(i, r)
            });
            // Drop our slab handles *before* letting go of the job: once
            // the dispatcher sees the round's reply channel close, its own
            // Arc over each slab is unique again.
            drop(tasks);
            in_flight.release();
        }
    })
}

/// Runs one chunk on the calling worker: every task's node becomes one or
/// two lanes of a single [`ServerKey`] wave, and `done` hears about each
/// task exactly once.
///
/// Panic isolation is per task wherever the work is: reading the node and
/// its operands, the dimension checks, the linear part and staging the
/// lane all run under the task's own `catch_unwind`, so a malformed task
/// (e.g. a mismatched-dimension operand, a node that bootstraps nothing,
/// or a scripted [`FaultAction::Panic`]) fails only its own index and its
/// lane is dropped from the wave, and so does storing its result. The key
/// switch, blind rotation and extraction are shared loops: a panic there
/// fails every task staged in the chunk, each reported. Either way the
/// worker keeps serving and nothing is poisoned. The scratch stays
/// structurally valid across an unwind — every wave re-sizes its buffers —
/// hence the AssertUnwindSafe; the one cost is that a buffer mem::take'n by
/// the panicking call is left empty, so this worker's next chunk re-warms
/// it (an allocation, correctness unaffected).
fn run_chunk<E: FftEngine>(
    server: &ServerKey<E>,
    tasks: &[(usize, SlabTask)],
    scratch: &mut BootstrapScratch<E>,
    outs: &mut Vec<LweCiphertext>,
    mut done: impl FnMut(usize, Result<(), String>),
) {
    // The staged gates in lane order, and where in `tasks` each came from.
    // Their outputs are switched into `outs` in this order.
    let mut gates: Vec<LaneGate<'_>> = Vec::with_capacity(tasks.len());
    let mut positions: Vec<usize> = Vec::with_capacity(tasks.len());
    let mut lanes = 0;
    for (position, (index, SlabTask { slab, node, fault })) in tasks.iter().enumerate() {
        if let Some(FaultAction::Delay(d)) = fault {
            std::thread::sleep(*d);
        }
        let stage = catch_unwind(AssertUnwindSafe(|| {
            if *fault == Some(FaultAction::Panic) {
                panic!("injected fault: task for node {node} panicked in its worker");
            }
            let gate = slab.lane_gate(*node);
            server.stage_lanes(&gate, lanes, scratch);
            gate
        }));
        match stage {
            Ok(gate) => {
                lanes += gate.lanes();
                gates.push(gate);
                positions.push(position);
            }
            Err(payload) => done(*index, Err(panic_message(payload))),
        }
    }
    let outputs = gates.iter().map(LaneGate::outputs).sum();
    if outs.len() < outputs {
        outs.resize_with(outputs, LweCiphertext::default);
    }
    let outs = &mut outs[..outputs];
    let shared = catch_unwind(AssertUnwindSafe(|| {
        server.finish_lanes(&gates, outs, scratch)
    }))
    .map_err(panic_message);
    let mut outs = outs.iter();
    for (gate, &position) in gates.iter().zip(&positions) {
        let (index, SlabTask { slab, node, .. }) = &tasks[position];
        // A cell's second result goes to the sum riding on its node.
        let nodes = [Some(*node), slab.net().rider_of(*node)];
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
        assert!(threads > 0, "need at least one worker");
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|slot| spawn_worker(slot, Arc::clone(&server), Arc::clone(&rx)))
            .collect();
        Self {
            tx: Some(tx),
            rx,
            workers: Mutex::new(workers),
            threads,
            server,
            restarts: AtomicU64::new(0),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers respawned after dying outside the panic isolation.
    /// 0 in healthy operation.
    pub(crate) fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Self-healing: replaces the worker in `slot`, which has announced
    /// its own death (outside every `catch_unwind` — a panic in the
    /// worker loop itself; in tests [`FaultAction::KillWorker`]), with a
    /// fresh one — new scratch, same job queue — so the pool never
    /// silently loses capacity. Bumps [`GateBatchPool::restarts`].
    fn respawn(&self, slot: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        let replacement = spawn_worker(slot, Arc::clone(&self.server), Arc::clone(&self.rx));
        // The announcement is the last thing the dying thread does with the
        // job; all that is left of it is unwinding its own stack.
        let _ = std::mem::replace(&mut workers[slot], replacement).join();
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// The shared server key the workers evaluate under.
    pub(crate) fn server(&self) -> &ServerKey<E> {
        &self.server
    }

    /// Dispatches a batch of netlist nodes — any mix of bootstrapped ops
    /// (binary and three-input gates, muxes, adder cells), possibly
    /// spanning **several circuits' slabs** — onto the persistent workers,
    /// blocking until every task has been answered. Each task reads its
    /// node's operands from its slab by index and stores its result at
    /// `node`; nothing is cloned per operand. This is the form circuit
    /// waves are dispatched in: the server fills one `run_tasks` call with
    /// the ready frontier of every in-flight circuit.
    ///
    /// The batch is cut into contiguous **chunks**, one queued job each,
    /// of at most `min(MAX_LANES, ⌈lanes / threads⌉)` blind rotations
    /// ([`GateOp::bootstraps`]: a mux is two, every other gate one — for a
    /// wave of binary gates that is so many tasks): every worker gets a share, and a
    /// worker key-switches its chunk together and carries it through each
    /// key group together ([`ServerKey::apply_lanes_into`]), so the
    /// keys stream once per chunk rather than once per task, with each
    /// task's result bit-identical to running it alone.
    ///
    /// Operands must already be present in their slabs when the batch is
    /// dispatched — tasks within one batch must not depend on each other.
    ///
    /// Returns `(batch index, panic message)` for every task that failed in
    /// a worker, ascending by index; a task not listed has stored its
    /// result in its slab slot. A task that panics in a worker on its own
    /// (e.g. mismatched operand dimensions, or a node that is past its
    /// netlist or bootstraps nothing) is reported there rather than
    /// raised: workers survive, nothing is poisoned, the rest of its chunk
    /// and of the batch still completes, and the dispatcher decides which
    /// circuit the failure faults. Only a panic inside the loops a chunk
    /// shares fails the whole chunk, one failure per task.
    ///
    /// A worker that *dies* mid-batch (exit outside the panic isolation)
    /// announces it on the reply channel as its last act; the dispatcher
    /// respawns it on the spot and retries the lost chunk's tasks once on
    /// the healed pool, each with its [`SlabTask::fault`] cleared; only a
    /// task lost twice is reported as a failure.
    /// The batch therefore still completes after any single worker death,
    /// and every death has been counted in the pool's restart tally (what
    /// [`SchedulerStats::restarts`](crate::server::SchedulerStats::restarts)
    /// reports) by the time this returns.
    pub fn run_tasks(&self, tasks: &[SlabTask]) -> Vec<(usize, String)> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut done = vec![false; tasks.len()];
        let mut failures: Vec<(usize, String)> = Vec::new();
        let all: Vec<usize> = (0..tasks.len()).collect();
        self.dispatch_round(tasks, &all, &mut done, &mut failures);
        // An index with no reply was lost with its chunk inside a dying
        // worker, which the round has already replaced. Retry those tasks
        // once and without their scripted faults, so the retry of a
        // scripted death runs clean; a genuine repeat offender is reported
        // instead of retried forever.
        let missing: Vec<usize> = (0..tasks.len()).filter(|&i| !done[i]).collect();
        if !missing.is_empty() {
            let mut clean = tasks.to_vec();
            clean.iter_mut().for_each(|st| st.fault = None);
            self.dispatch_round(&clean, &missing, &mut done, &mut failures);
            for index in (0..tasks.len()).filter(|&i| !done[i]) {
                failures.push((
                    index,
                    "worker died while executing this task (twice; giving up)".to_string(),
                ));
            }
        }
        failures.sort_unstable_by_key(|&(index, _)| index);
        failures
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
        let lanes = |&index: &usize| tasks[index].slab.lanes(tasks[index].node);
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
    use crate::gates::{Gate, Gate3};
    use crate::params::ParameterSet;
    use crate::secret::ClientKey;
    use matcha_fft::F64Fft;
    use matcha_math::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    type EncryptedPairs = Vec<(crate::LweCiphertext, crate::LweCiphertext)>;
    /// What [`GateBatchPool::run_tasks`] returns.
    type Failures = Vec<(usize, String)>;

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

    /// A netlist of `n` pairs: nodes `0..n` and `n..2 * n` are inputs,
    /// node `2 * n + i` is `gate` of inputs `i` and `n + i`.
    fn pairs_net(gate: Gate, n: usize) -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        for _ in 0..2 * n {
            net.input();
        }
        for i in 0..n {
            net.gate(gate, i, n + i);
        }
        net
    }

    /// A slab over `net` holding `enc` at the [`pairs_net`] inputs, and a
    /// faultless task per pair: pair `i`'s output lands at node
    /// `2 * len + i`.
    fn pairs_batch(net: CircuitNetlist, enc: &EncryptedPairs) -> (Arc<ValueSlab>, Vec<SlabTask>) {
        let n = enc.len();
        let slab = Arc::new(ValueSlab::new(Arc::new(net)));
        for (i, (a, b)) in enc.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let batch = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                fault: None,
            })
            .collect();
        (slab, batch)
    }

    /// Stages `pairs` as a batch of `gate` ([`pairs_net`], [`pairs_batch`])
    /// and returns `(slab, tasks)`.
    fn staged_and_batch(gate: Gate, enc: &EncryptedPairs) -> (Arc<ValueSlab>, Vec<SlabTask>) {
        pairs_batch(pairs_net(gate, enc.len()), enc)
    }

    /// A slab over a netlist of `n` inputs.
    fn input_slab(n: usize) -> ValueSlab {
        let mut net = CircuitNetlist::new();
        for _ in 0..n {
            net.input();
        }
        ValueSlab::new(Arc::new(net))
    }

    /// A faultless task per node, all on `slab`.
    fn tasks_on(slab: &Arc<ValueSlab>, nodes: impl IntoIterator<Item = usize>) -> Vec<SlabTask> {
        let task = |node| SlabTask {
            slab: Arc::clone(slab),
            node,
            fault: None,
        };
        nodes.into_iter().map(task).collect()
    }

    /// Dispatches `gate` over `enc` on `pool` and checks every output
    /// against `want` on the plaintexts.
    fn dispatch_and_check(
        pool: &GateBatchPool<F64Fft>,
        client: &ClientKey,
        gate: Gate,
        plain: &[(bool, bool)],
        enc: &EncryptedPairs,
    ) {
        let (slab, batch) = staged_and_batch(gate, enc);
        let failures = pool.run_tasks(&batch);
        assert!(failures.is_empty(), "{failures:?}");
        for (i, &(a, b)) in plain.iter().enumerate() {
            let out = client.decrypt(slab.get(2 * enc.len() + i));
            assert_eq!(out, gate.eval(a, b), "{gate:?}({a},{b})");
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let mut rng = StdRng::seed_from_u64(83);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 2);
        let pool = GateBatchPool::new(Arc::clone(&server), 8);
        dispatch_and_check(&pool, &client, Gate::And, &plain, &enc);
        assert_eq!(pool.threads(), 8);
    }

    #[test]
    fn empty_batch_returns_empty_result() {
        let mut rng = StdRng::seed_from_u64(88);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(server, 2);
        assert!(pool.run_tasks(&[]).is_empty());
        assert_eq!(pool.restarts(), 0);
    }

    #[test]
    fn pool_handles_empty_batch() {
        let mut rng = StdRng::seed_from_u64(89);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        assert!(pool.run_tasks(&[]).is_empty());
        // The pool is still usable for real work afterwards.
        let (plain, enc) = inputs(&client, &mut rng, 2);
        dispatch_and_check(&pool, &client, Gate::And, &plain, &enc);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let mut rng = StdRng::seed_from_u64(84);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let _ = GateBatchPool::new(server, 0);
    }

    #[test]
    fn pool_matches_plaintext_and_survives_reuse() {
        let mut rng = StdRng::seed_from_u64(85);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 8);
        let pool = GateBatchPool::new(Arc::clone(&server), 3);
        // Two dispatches over the same persistent workers.
        dispatch_and_check(&pool, &client, Gate::Nand, &plain, &enc);
        dispatch_and_check(&pool, &client, Gate::Or, &plain, &enc);
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn dropping_pool_joins_all_workers() {
        let mut rng = StdRng::seed_from_u64(90);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 3);
        let pool = GateBatchPool::new(Arc::clone(&server), 3);
        dispatch_and_check(&pool, &client, Gate::Or, &plain, &enc);
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
        // inside a worker; the panic comes back as that task's failure…
        let mut bad = enc.clone();
        bad[1].0 = crate::LweCiphertext::trivial(Torus32::ZERO, 3);
        let (_, batch) = staged_and_batch(Gate::And, &bad);
        let failures = pool.run_tasks(&batch);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].0, 1, "the failure names the malformed task");

        // …while the workers stay alive and unpoisoned: the same pool runs
        // the healthy batch to completion, twice, with correct outputs.
        for _ in 0..2 {
            dispatch_and_check(&pool, &client, Gate::And, &plain, &enc);
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
        // Nodes 0/1 are the shared operands; 2..8 the bootstrapped nodes.
        // Every task reads the *same* two ciphertexts by index — nothing
        // is cloned per task.
        let mut net = CircuitNetlist::new();
        let (t, f) = (net.input(), net.input());
        net.gate(Gate::Nand, t, t);
        net.mux(t, f, t);
        net.gate(Gate::Xor, t, f);
        net.mux(f, f, t);
        net.ternary(Gate3::Xor3, t, f, t);
        net.ternary(Gate3::Maj, t, f, f);
        let sum = net.sum(t, f, f);
        let slab = Arc::new(ValueSlab::new(Arc::new(net)));
        slab.set(t, client.encrypt_with(true, &mut rng));
        slab.set(f, client.encrypt_with(false, &mut rng));
        let batch = tasks_on(&slab, 2..8);
        let expected = [false, false, true, true, false, false];
        let failures = pool.run_tasks(&batch);
        assert!(failures.is_empty());
        for (i, want) in expected.into_iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 + i)), want, "task {i}");
        }
        assert!(client.decrypt(slab.get(sum)), "the cell's sum: 1 ^ 0 ^ 0");
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
        let mut net = CircuitNetlist::new();
        let [a, b, bad] = [(); 3].map(|()| net.input());
        net.gate(Gate::And, a, b);
        net.gate(Gate::Or, a, bad);
        net.gate(Gate::Xor, a, b);
        let slab = Arc::new(ValueSlab::new(Arc::new(net)));
        slab.set(a, client.encrypt_with(true, &mut rng));
        slab.set(b, client.encrypt_with(false, &mut rng));
        // Slot 2: right count of coefficients for nothing — wrong LWE
        // dimension, so any gate reading it panics in its worker.
        slab.set(bad, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        let batch = tasks_on(&slab, 3..6);
        let failures = pool.run_tasks(&batch);
        assert_eq!(failures.len(), 1, "exactly the bad task fails");
        assert_eq!(failures[0].0, 1, "failure carries its batch index");
        assert!(!client.decrypt(slab.get(3)), "true AND false");
        assert!(slab.try_get(4).is_none(), "failed task stores nothing");
        assert!(client.decrypt(slab.get(5)), "true XOR false");
        // The pool survives for the next dispatch.
        let (plain, enc) = inputs(&client, &mut rng, 2);
        dispatch_and_check(&pool, &client, Gate::And, &plain, &enc);
    }

    #[test]
    fn slab_set_twice_is_rejected() {
        let slab = input_slab(2);
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
        let slab = input_slab(2);
        slab.set(2, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn slab_get_out_of_range_rejected() {
        let slab = input_slab(1);
        let _ = slab.get(5);
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
        let (slab, mut batch) = staged_and_batch(Gate::And, &enc);
        batch[1].fault = Some(FaultAction::KillWorker);
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let failures = pool.run_tasks(&batch);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(pool.restarts(), 1, "exactly the killed worker respawned");
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
        // The healed pool keeps serving.
        dispatch_and_check(&pool, &client, Gate::Or, &plain, &enc);
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
        let (slab, mut batch) = staged_and_batch(Gate::And, &enc);
        // Kill in the *first* chunk so the other two are still queued.
        batch[0].fault = Some(FaultAction::KillWorker);
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        let failures = pool.run_tasks(&batch);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(pool.restarts(), 1);
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
    }

    /// One full chunk on a one-worker pool with each `(task, action)` of
    /// `faults` scripted on its task. Returns the pool, the dispatch result
    /// and each output slot as the dispatch left it; the references are
    /// the one-at-a-time results.
    fn mid_chunk_fault(
        seed: u64,
        faults: &[(usize, FaultAction)],
    ) -> (
        GateBatchPool<F64Fft>,
        Failures,
        Vec<Option<LweCiphertext>>,
        Vec<LweCiphertext>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (_, enc) = inputs(&client, &mut rng, MAX_LANES);
        let (slab, mut batch) = staged_and_batch(Gate::And, &enc);
        for &(task, action) in faults {
            batch[task].fault = Some(action);
        }
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        let failures = pool.run_tasks(&batch);
        let outputs = (0..MAX_LANES)
            .map(|i| slab.try_get(2 * MAX_LANES + i).cloned())
            .collect();
        let alone = enc.iter().map(|(a, b)| server.apply(Gate::And, a, b));
        (pool, failures, outputs, alone.collect())
    }

    #[test]
    fn panic_mid_chunk_fails_its_task_and_spares_its_fifteen_chunk_mates() {
        let (pool, failures, outputs, alone) = mid_chunk_fault(99, &[(7, FaultAction::Panic)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].0, 7);
        assert!(failures[0].1.contains("injected fault"));
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
        let (pool, failures, outputs, alone) =
            mid_chunk_fault(100, &[(7, FaultAction::KillWorker)]);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(pool.restarts(), 1, "one death, one respawn");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "task {i}");
        }
    }

    #[test]
    fn a_retried_chunk_runs_without_its_faults() {
        // The death takes the chunk before the panic can fire; the retry
        // carries neither, so the task scripted to panic completes too.
        let faults = [(3, FaultAction::KillWorker), (9, FaultAction::Panic)];
        let (pool, failures, outputs, alone) = mid_chunk_fault(106, &faults);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(pool.restarts(), 1, "one death, one respawn");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "task {i}");
        }
    }

    #[test]
    fn delay_mid_chunk_completes_the_chunk() {
        let delay = FaultAction::Delay(Duration::from_millis(40));
        let (pool, failures, outputs, alone) = mid_chunk_fault(101, &[(7, delay)]);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(pool.restarts(), 0, "slow is not dead");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "task {i}");
        }
    }

    #[test]
    fn malformed_task_mid_chunk_fails_alone() {
        // Not a scripted panic but a real one, in the middle of a chunk:
        // in the task's own linear part (a wrong-dimension operand), or in
        // reading its node (one past the netlist, or one that bootstraps
        // nothing: an input, a constant, a free NOT, a riding sum).
        let mut rng = StdRng::seed_from_u64(102);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 5);
        let mut net = pairs_net(Gate::And, enc.len());
        let constant = net.constant(true);
        let not = net.not(0);
        net.ternary(Gate3::Maj, 0, 1, 2);
        let sum = net.sum(0, 1, 2);
        let past = net.len() + 7;
        let mut wrong_dimension = enc.clone();
        wrong_dimension[2].1 = LweCiphertext::trivial(Torus32::ZERO, 3);
        let cases = [(&wrong_dimension, None)]
            .into_iter()
            .chain([past, 0, constant, not, sum].map(|node| (&enc, Some(node))));
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        for (enc, bad_node) in cases {
            let (slab, mut batch) = pairs_batch(net.clone(), enc);
            if let Some(node) = bad_node {
                batch[2].node = node;
            }
            let failures = pool.run_tasks(&batch);
            assert_eq!(failures.len(), 1, "{bad_node:?}: {failures:?}");
            assert_eq!(failures[0].0, 2);
            if let Some(node) = bad_node {
                let msg = &failures[0].1;
                assert!(msg.contains(&format!("node {node} ")), "{msg}");
            }
            for (i, (a, b)) in plain.iter().enumerate() {
                match slab.try_get(2 * enc.len() + i) {
                    Some(out) => assert_eq!(client.decrypt(out), a & b, "task {i}"),
                    None => assert_eq!(i, 2, "only the malformed task stores nothing"),
                }
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
    ) -> (Failures, Vec<Option<LweCiphertext>>, Vec<LweCiphertext>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        // Nodes 0..3 are the operands; 3, 4, 6 the tasks' nodes, 5 the sum.
        let mut net = CircuitNetlist::new();
        let [a, b, c] = [(); 3].map(|()| net.input());
        net.gate(Gate::And, a, b);
        net.ternary(Gate3::Maj, a, b, c);
        net.sum(a, b, c);
        net.gate(Gate::Xor, b, c);
        let net = Arc::new(net);
        let slab = Arc::new(ValueSlab::new(Arc::clone(&net)));
        for slot in 0..3 {
            slab.set(slot, client.encrypt_with(slot != 1, &mut rng));
        }
        let reference = [
            server.apply(Gate::And, slab.get(0), slab.get(1)),
            server.cell(slab.get(0), slab.get(1), slab.get(2))[0].clone(),
            server.cell(slab.get(0), slab.get(1), slab.get(2))[1].clone(),
            server.xor(slab.get(1), slab.get(2)),
        ];
        let cell_slab = if malformed {
            // The same slab, but for a second operand of the wrong dimension.
            let bad = ValueSlab::new(net);
            bad.set(0, slab.get(0).clone());
            bad.set(1, LweCiphertext::trivial(Torus32::ZERO, 3));
            bad.set(2, slab.get(2).clone());
            Arc::new(bad)
        } else {
            Arc::clone(&slab)
        };
        let mut batch: Vec<SlabTask> = [(&slab, 3), (&cell_slab, 4), (&slab, 6)]
            .into_iter()
            .map(|(slab, node)| SlabTask {
                slab: Arc::clone(slab),
                node,
                fault: None,
            })
            .collect();
        batch[1].fault = fault;
        let pool = GateBatchPool::new(Arc::clone(&server), 1);
        let failures = pool.run_tasks(&batch);
        let outputs = [(&slab, 3), (&cell_slab, 4), (&cell_slab, 5), (&slab, 6)]
            .map(|(slab, node)| slab.try_get(node).cloned());
        (failures, outputs.to_vec(), reference.to_vec())
    }

    #[test]
    fn a_cell_task_stores_both_its_results() {
        let (failures, outputs, alone) = cell_mid_chunk(104, None, false);
        assert!(failures.is_empty(), "{failures:?}");
        for (i, (out, want)) in outputs.iter().zip(&alone).enumerate() {
            assert_eq!(out.as_ref(), Some(want), "result {i}");
        }
    }

    #[test]
    fn a_cell_that_fails_in_staging_stores_neither_result_and_spares_its_wave_mates() {
        for (fault, malformed) in [(Some(FaultAction::Panic), false), (None, true)] {
            let (failures, outputs, alone) = cell_mid_chunk(105, fault, malformed);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert_eq!(failures[0].0, 1, "the cell's batch index");
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
        let (slab, batch) = staged_and_batch(Gate::And, &enc);
        let tasks: Vec<(usize, SlabTask)> = batch.into_iter().enumerate().collect();
        let mut replies = Vec::new();
        run_chunk(
            &server,
            &tasks,
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
        let (slab, mut batch) = staged_and_batch(Gate::And, &enc);
        batch[2].fault = Some(FaultAction::Panic);
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let failures = pool.run_tasks(&batch);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 2);
        assert!(
            failures[0].1.contains("injected fault"),
            "{}",
            failures[0].1
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
        let (slab, mut batch) = staged_and_batch(Gate::And, &enc);
        // A slow task is not mistaken for a dead worker: however long the
        // drain waits, only a death notice triggers a respawn.
        batch[0].fault = Some(FaultAction::Delay(Duration::from_millis(80)));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let failures = pool.run_tasks(&batch);
        assert!(failures.is_empty());
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
        let (plain, enc) = inputs(&client, &mut rng, 2);
        {
            let pool = GateBatchPool::new(Arc::clone(&server), 2);
            dispatch_and_check(&pool, &client, Gate::And, &plain, &enc);
        } // drop joins workers; reaching here without hanging is the test
    }
}
