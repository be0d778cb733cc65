//! Batched gate evaluation across OS threads.
//!
//! The paper's throughput metric (Figure 10) assumes many independent
//! gates in flight — MATCHA runs 8 bootstrapping pipelines, the GPU
//! batches ciphertexts, and the CPU baseline uses its 8 cores. This module
//! is the software counterpart, in two forms:
//!
//! * [`run_gate_batch`] shards one batch over scoped workers, each holding
//!   a private [`BootstrapScratch`](crate::scratch::BootstrapScratch) so
//!   every gate after its first runs allocation-free;
//! * [`GateBatchPool`] keeps those workers (and their warmed scratches)
//!   **alive across batches** — the software analogue of MATCHA's eight
//!   always-resident bootstrapping pipelines, and the fix for the seed
//!   implementation's spawn-per-call sharding.
//!
//! Pool tasks pass operands **by index** into a shared [`ValueSlab`]
//! rather than cloning ciphertexts into every task: a [`SlabTask`] binds a
//! [`GateTask`] (node indices only) to the slab it reads from and the slot
//! it writes to, and one [`GateBatchPool::run_tasks`] dispatch may mix
//! tasks over several circuits' slabs — which is how the circuit server
//! interleaves every in-flight circuit's ready wave into one batch.

use crate::faults::{FaultAction, FaultPlan};
use crate::gates::{Gate, ServerKey};
use crate::lwe::LweCiphertext;
use crate::scratch::BootstrapScratch;
use matcha_fft::FftEngine;
use matcha_math::Torus32;
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
    /// A two-input bootstrapped gate (one bootstrap + key switch).
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
    /// `sel ? a : b` — two bootstraps + one key switch.
    Mux {
        /// The selector node.
        sel: usize,
        /// Node taken when `sel` is true.
        a: usize,
        /// Node taken when `sel` is false.
        b: usize,
    },
}

impl GateTask {
    /// Evaluates the task into `out` through `scratch`, reading operands
    /// from `slab` by index — the worker inner loop of the pool.
    /// Allocation-free once the scratch and `out` are warmed, for every
    /// variant: operands are borrowed from the slab, never cloned.
    ///
    /// # Panics
    ///
    /// Panics if an operand slot has not been computed yet.
    pub fn apply_into<E: FftEngine>(
        &self,
        server: &ServerKey<E>,
        slab: &ValueSlab,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        match *self {
            GateTask::Binary { gate, a, b } => {
                server.apply_into(gate, slab.get(a), slab.get(b), out, scratch)
            }
            GateTask::Not { a } => server.not_into(slab.get(a), out),
            GateTask::Mux { sel, a, b } => {
                server.mux_into(slab.get(sel), slab.get(a), slab.get(b), out, scratch)
            }
        }
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
    /// `(batch index, panic message)` for every task that panicked in a
    /// worker, ascending by index. Failures are *per task*: the rest of
    /// the batch still completes, so a dispatcher interleaving several
    /// circuits can fault only the circuit that owns the failing task.
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
/// bootstrap scratch for the whole batch, so per-gate heap traffic is
/// limited to the output ciphertexts.
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
    let chunk = pairs.len().div_ceil(threads);
    let mut outputs: Vec<Option<LweCiphertext>> = vec![None; pairs.len()];

    std::thread::scope(|scope| {
        let mut remaining: &mut [Option<LweCiphertext>] = &mut outputs;
        for work in pairs.chunks(chunk) {
            let (slot, rest) = remaining.split_at_mut(work.len());
            remaining = rest;
            scope.spawn(move || {
                // One scratch and one output buffer per worker: the first
                // gate warms them, the rest of the chunk reuses them.
                let mut scratch = server.make_scratch();
                let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dimension);
                for ((a, b), out_slot) in work.iter().zip(slot.iter_mut()) {
                    server.apply_into(gate, a, b, &mut out, &mut scratch);
                    *out_slot = Some(out.clone());
                }
            });
        }
    });

    let outputs: Vec<LweCiphertext> = outputs
        .into_iter()
        .map(|o| o.expect("worker filled every slot"))
        .collect();
    finish_batch(outputs, t0, threads)
}

/// One queued unit of pool work: a by-index task, the slab it reads from
/// and writes to, and a reply channel. The reply carries `Err(panic
/// message)` when the task panicked in the worker, so the failure is
/// reported on the dispatching thread instead of killing the worker; on
/// `Ok` the result is already stored in `slab[node]`.
struct Job {
    slab: Arc<ValueSlab>,
    node: usize,
    task: GateTask,
    index: usize,
    reply: mpsc::Sender<Reply>,
}

/// What a worker says about a job on its round's reply channel.
enum Reply {
    /// Task `index` ran — to completion, or to a panic caught by the
    /// per-task isolation.
    Done(usize, Result<(), String>),
    /// The worker in this slot died holding a job (which is thereby lost:
    /// it is never answered with [`Reply::Done`]).
    WorkerDied(usize),
}

/// A worker's hold on the job it is executing. However the worker lets go
/// of it — answering, returning, unwinding — the job's round hears about
/// it, and hears about a death *before* the job's reply sender is dropped:
/// the dispatcher can therefore never observe "job lost" without having
/// been told which worker to respawn.
struct InFlight {
    worker: usize,
    reply: Option<mpsc::Sender<Reply>>,
}

impl InFlight {
    /// Answers the job. The receiver may have given up (`run()` panicked);
    /// dropping the result is then the right behavior.
    fn done(mut self, index: usize, result: Result<(), String>) {
        if let Some(reply) = self.reply.take() {
            let _ = reply.send(Reply::Done(index, result));
        }
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
/// [`BootstrapScratch`](crate::scratch::BootstrapScratch) across an
/// arbitrary number of [`GateBatchPool::run`] calls; jobs are pulled from a
/// shared queue, so uneven gate latencies balance automatically. Dropping
/// the pool shuts the workers down.
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

/// One persistent worker, occupying `slot` of the pool: pulls jobs off the
/// shared queue, evaluates them into its warmed scratch, stores results in
/// the job's slab and replies. Extracted as a free function so the pool can
/// respawn a replacement attached to the same queue.
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
        let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dimension);
        loop {
            // Hold the lock only to pull the next job. A
            // poisoned lock is recovered rather than cascaded:
            // the queue itself is never left in a torn state by
            // a panicking worker (jobs are popped whole).
            let job = { rx.lock().unwrap_or_else(PoisonError::into_inner).recv() };
            let Ok(job) = job else { break };
            let Job {
                slab,
                node,
                task,
                index,
                reply,
            } = job;
            let in_flight = InFlight {
                worker: slot,
                reply: Some(reply),
            };
            // Scripted fault sites, consumed one-shot per (tag, node).
            let injected = faults.as_ref().and_then(|plan| plan.take(slab.tag(), node));
            match injected {
                // Death *outside* the per-task catch_unwind: the thread
                // exits holding the job, as a panic in this loop itself
                // would make it. `in_flight` reports the death on its way
                // out; run_tasks respawns the slot and retries the job.
                Some(FaultAction::KillWorker) => return,
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(FaultAction::Panic) | None => {}
            }
            // Panic isolation: a malformed job (e.g. a
            // mismatched-dimension operand) must not kill the
            // worker or poison anything — the error is shipped
            // back and reported on the dispatcher's thread,
            // and this worker keeps serving. The scratch stays
            // structurally valid across an unwind — every
            // apply re-sizes its buffers — hence the
            // AssertUnwindSafe; the one cost is that buffers
            // mem::take'n by the panicking apply are left
            // empty, so this worker's next task re-warms them
            // (a few allocations, correctness unaffected).
            let result = catch_unwind(AssertUnwindSafe(|| {
                if matches!(injected, Some(FaultAction::Panic)) {
                    panic!("injected fault: task for node {node} panicked in its worker");
                }
                task.apply_into(&server, &slab, &mut out, &mut scratch);
                slab.set(node, out.clone());
            }))
            .map_err(panic_message);
            // Drop our slab handle *before* replying: once the
            // dispatcher has received every reply of a batch,
            // its own Arc over each slab is unique again.
            drop(slab);
            in_flight.done(index, result);
        }
    })
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

    /// Workers respawned after dying outside the per-task panic isolation.
    /// 0 in healthy operation.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Self-healing: replaces the worker in `slot`, which has announced
    /// its own death (outside the per-task `catch_unwind` — a panic in the
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
    /// circuit, and the warmed per-worker scratches keep each task
    /// allocation-free.
    ///
    /// Operands must already be present in their slabs when the batch is
    /// dispatched — tasks within one batch must not depend on each other.
    ///
    /// A task that panics in a worker (e.g. mismatched operand dimensions)
    /// is reported in [`DispatchResult::failures`] rather than raised:
    /// workers survive, nothing is poisoned, the rest of the batch still
    /// completes, and the dispatcher decides which circuit the failure
    /// faults.
    ///
    /// A worker that *dies* mid-batch (exit outside the per-task panic
    /// isolation) announces it on the reply channel as its last act; the
    /// dispatcher respawns it on the spot and retries the lost task once
    /// on the healed pool; only a task lost twice is reported as a failure.
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
        self.dispatch_round(tasks, 0..tasks.len(), &mut done, &mut failures);
        // An index with no reply lost its job inside a dying worker, which
        // the round has already replaced. Retry those tasks once: a
        // scripted KillWorker was consumed when it fired, so the retry
        // runs clean, and a genuine repeat offender is reported instead of
        // retried forever.
        let missing: Vec<usize> = (0..tasks.len()).filter(|&i| !done[i]).collect();
        if !missing.is_empty() {
            self.dispatch_round(tasks, missing.into_iter(), &mut done, &mut failures);
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

    /// Sends the tasks at `indices` and drains their replies until every
    /// job of this round is accounted for: answered, or lost with a dying
    /// worker (each job holds a reply sender, so the reply channel
    /// disconnects exactly when no job of the round is queued or running
    /// any more). A death is a message like any other, so it is acted on
    /// even while the round's other jobs keep the channel open — including
    /// the case where the dead worker was the only one and the rest of the
    /// round is still sitting in the queue, waiting for its replacement.
    fn dispatch_round(
        &self,
        tasks: &[SlabTask],
        indices: impl Iterator<Item = usize>,
        done: &mut [bool],
        failures: &mut Vec<(usize, String)>,
    ) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("pool is live");
        for index in indices {
            let st = &tasks[index];
            tx.send(Job {
                slab: Arc::clone(&st.slab),
                node: st.node,
                task: st.task,
                index,
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
        let (plain, enc) = inputs(&client, &mut rng, 3);
        let (slab, batch) = staged_and_batch(&enc);
        // Kill on the *first* task so jobs 1 and 2 are still queued.
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len(), FaultAction::KillWorker));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 1, plan);
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 1);
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
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
