//! A std-only circuit-serving front end over the persistent batch pool,
//! with **cross-circuit wave interleaving** and production-grade
//! admission control.
//!
//! The north-star serving story: many clients submit whole encrypted
//! circuits, and one scheduler keeps every resident bootstrapping worker
//! busy on the dependent gate workload — MATCHA's scheduler feeding its
//! eight pipelines, in software. [`CircuitServer`] owns a scheduler
//! thread; the scheduler owns a [`GateBatchPool`] and keeps **every
//! admitted circuit in flight at once**: each pool dispatch is filled
//! with the ready frontier of *all* in-flight circuits (oldest admission
//! first), so a deep, narrow circuit no longer leaves workers idle while
//! other clients queue behind it — the utilization gap the paper's
//! 8-pipeline scheduler closes with dependent-gate interleaving.
//!
//! The scheduler thread only moves messages: it receives, reads the clock,
//! hands that time to one step of a state machine that owns no thread,
//! channel or clock, and sends the outcomes the step resolved. The steps
//! are **admit** (per submission: reap the dead, check the bounds, build
//! the frontier), **fill** (per dispatch: reap the dead, take every ready
//! frontier, oldest admission first) and **complete** (after the pool ran
//! the batch: route failures, complete tasks, resolve the finished).
//!
//! Any number of [`CircuitClient`] handles (cheaply cloneable, `Send`)
//! can submit concurrently over the mpsc job queue; each submission
//! yields a [`PendingCircuit`] ticket resolving to a [`CircuitOutcome`].
//! Fairness, isolation and robustness guarantees:
//!
//! * **FIFO-fair**: circuits are admitted in queue order and each
//!   dispatch takes ready tasks oldest-circuit-first; every in-flight
//!   circuit contributes its whole ready frontier to every dispatch, so
//!   no circuit can starve another.
//! * **Bounded admission**: a [`ServerConfig`] caps the in-flight set
//!   ([`ServerConfig::queue_depth`]) and each client's share of it
//!   ([`ServerConfig::per_client_quota`]); overflow resolves to a
//!   structured [`CircuitOutcome::Rejected`] with a [`RejectReason`]
//!   instead of unbounded queueing behind a heavy client.
//! * **Deadlines and cancellation**: [`CircuitClient::submit_with_deadline`]
//!   bounds a circuit's wall-clock; the scheduler checks deadlines and
//!   [`PendingCircuit::cancel`] flags at every step, resolves the
//!   circuit to [`CircuitOutcome::Expired`] / [`CircuitOutcome::Cancelled`]
//!   and abandons its remaining frontier so dead work stops consuming
//!   bootstrap slots.
//! * **Per-client order**: a client's tickets resolve through their own
//!   channels, so waiting on them in submission order always observes
//!   that order, even though a short circuit may *finish* before a long
//!   one submitted earlier.
//! * **Per-circuit fault isolation**: a task that panics in a worker
//!   (e.g. a wrong-dimension operand smuggled past validation) faults
//!   only the circuit that owns it — its ticket resolves to
//!   [`CircuitOutcome::Faulted`] while every other in-flight circuit,
//!   the scheduler, and the pool keep going. A worker that *dies* is
//!   respawned by the pool inside the dispatch that lost it (see
//!   [`GateBatchPool::run_tasks`]) and surfaced in
//!   [`SchedulerStats::restarts`].
//!
//! The guarantees above are pinned by tests that drive the state machine
//! with a scripted clock, and by tests driving the
//! [`faults`](crate::faults) module through
//! [`CircuitServer::start_with_faults`]: the scheduler keeps each admitted
//! circuit's admission number (0, 1, 2, …) and, as it fills a dispatch,
//! hands the panic, delay or worker death a [`FaultPlan`] scripts at
//! `(circuit, node)` to that node's task, for its worker to act out.
//!
//! Shutdown is graceful: circuits admitted before [`CircuitServer::shutdown`]
//! still run to completion, later submissions resolve to
//! [`CircuitOutcome::Rejected`] with [`RejectReason::Shutdown`].
//!
//! Under a [`ServerConfig::analysis`] policy, admission's analysis is the
//! pure [`admit`] over the [`NoiseModel`] built once from the server's key.
//! Its rewrite is [`analyze::simplify`]; there is no pluggable pass.

use crate::analyze::equiv::{self, Counterexample, Verdict};
use crate::analyze::{self, AnalysisPolicy, LintKind, NoiseModel};
use crate::batch::{panic_message, GateBatchPool, SlabTask};
use crate::circuit::{CircuitFrontier, CircuitNetlist, CircuitRun};
use crate::faults::FaultPlan;
use crate::gates::ServerKey;
use crate::lwe::LweCiphertext;
use crate::packing;
use crate::params::ParameterSet;
use crate::session::SessionInputs;
use crate::tlwe::TrlweCiphertext;
use matcha_fft::FftEngine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control knobs for a [`CircuitServer`]. The default admits
/// everything: unbounded in-flight set, unbounded per-client share, no
/// deadline, no analysis.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum circuits admitted (in flight) at once; an admission past
    /// this resolves to [`RejectReason::QueueFull`].
    pub queue_depth: usize,
    /// Maximum in-flight circuits per client handle; an admission past
    /// this resolves to [`RejectReason::QuotaExceeded`] while other
    /// clients keep being admitted — one heavy client cannot monopolize
    /// the pool.
    pub per_client_quota: usize,
    /// Deadline applied by [`CircuitClient::submit`] when the caller does
    /// not pick one; `None` means submissions run unbounded.
    pub default_deadline: Option<Duration>,
    /// Static-analysis admission policy: when set, every submission goes
    /// through [`admit`], which may turn it away with a [`RejectReason`].
    /// `None` (the default) admits without analysis.
    pub analysis: Option<AnalysisPolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_depth: usize::MAX,
            per_client_quota: usize::MAX,
            default_deadline: None,
            analysis: None,
        }
    }
}

/// Why a circuit was turned away without running.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// The in-flight set was at [`ServerConfig::queue_depth`].
    QueueFull,
    /// The submitting client was at [`ServerConfig::per_client_quota`].
    QuotaExceeded,
    /// The deadline had already passed when the circuit reached
    /// admission — running it could only waste bootstraps.
    DeadlineUnmeetable,
    /// The submission failed validation (input count or LWE dimension)
    /// at the client API boundary; it was never queued.
    InvalidInput,
    /// Admission analysis found a structural lint at or above the
    /// [`AnalysisPolicy::deny`] severity — the circuit would waste
    /// bootstraps on malformed structure.
    Lint {
        /// The lint that fired.
        kind: LintKind,
        /// The offending netlist node.
        node: usize,
    },
    /// Admission analysis certified an output's worst-case decryption
    /// failure probability above the policy budget — running the circuit
    /// could silently decrypt wrong.
    NoiseBudget {
        /// Index into the netlist's output list (marking order).
        output: usize,
        /// The analytic failure-probability bound for that output.
        bound: f64,
        /// The [`AnalysisPolicy::max_failure_prob`] budget it exceeded.
        budget: f64,
    },
    /// The admission-time equivalence proof **refuted** the rewrite of
    /// this circuit: the rewrite and the submission disagree on an output,
    /// and the counterexample is an input assignment on which they differ.
    /// Scheduling either would be gambling, so the circuit is turned away
    /// with the evidence.
    NotEquivalent {
        /// Index into the netlist's output list (marking order) of the
        /// first output the BDD diff refuted.
        output: usize,
        /// A concrete distinguishing input assignment.
        counterexample: Counterexample,
    },
    /// The server shut down before admitting the circuit.
    Shutdown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("admission queue full"),
            RejectReason::QuotaExceeded => f.write_str("per-client quota exceeded"),
            RejectReason::DeadlineUnmeetable => f.write_str("deadline already passed"),
            RejectReason::InvalidInput => f.write_str("invalid input payload"),
            RejectReason::Lint { kind, node } => write!(f, "lint {kind} at node {node}"),
            RejectReason::NoiseBudget {
                output,
                bound,
                budget,
            } => write!(
                f,
                "output {output} failure bound {bound:.3e} exceeds budget {budget:.3e}"
            ),
            RejectReason::NotEquivalent {
                output,
                counterexample,
            } => write!(
                f,
                "rewrite not equivalent: output {output} differs on {counterexample}"
            ),
            RejectReason::Shutdown => f.write_str("server shut down"),
        }
    }
}

/// The rung of admission's ladder an [`Admitted`] netlist came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The submission: no proof was asked, or a lenient `Unknown` came back.
    Submitted,
    /// The rewrite, proven equivalent and certified within the budget.
    Rewritten,
    /// The proven rewrite with its sums demoted ([`analyze::demote_sums`]):
    /// with them riding it missed the budget.
    SumsDemoted,
    /// The submission: the proven rewrite missed the budget.
    Refused {
        /// Whether it had sums, so that their demotion missed it too.
        demoted: bool,
    },
}

/// A netlist [`admit`] cleared to run.
#[derive(Clone, Debug, PartialEq)]
pub struct Admitted {
    /// What to schedule: the submission or its proven rewrite.
    pub netlist: CircuitNetlist,
    /// The rung of the ladder it came from.
    pub rung: Rung,
}

/// Admission's analysis: the netlist to run for `net` under `policy` and
/// the server's noise `model`, or why not. It reads no lock, clock or
/// stats. The severest lint at or above `deny` rejects, then the first
/// output over `max_failure_prob`. Without `require_equivalence` the
/// submission runs; with it `rewrite(net)` is proven equivalent first: a
/// refutation rejects with its counterexample, and an `Unknown` verdict
/// rejects as a [`LintKind::EquivUnknown`] lint if `deny` reaches it, else
/// the submission runs. A proven rewrite must certify in turn — a fused gate
/// decides on three operands' noise, a riding sum keeps its operands' —
/// else its sums are demoted (the same functions node for node, so the
/// proof stands), else the submission runs.
pub fn admit(
    net: CircuitNetlist,
    model: &NoiseModel,
    policy: &AnalysisPolicy,
    rewrite: fn(&CircuitNetlist) -> CircuitNetlist,
) -> Result<Admitted, RejectReason> {
    let report = analyze::report(&net, model);
    if let Some(l) = report.worst_lint_at_least(policy.deny) {
        return Err(RejectReason::Lint {
            kind: l.kind,
            node: l.node,
        });
    }
    let budget = policy.max_failure_prob;
    let mut outputs = report.noise.outputs.iter().enumerate();
    if let Some((output, o)) = outputs.find(|(_, o)| o.failure_prob > budget) {
        return Err(RejectReason::NoiseBudget {
            output,
            bound: o.failure_prob,
            budget,
        });
    }
    let run = |netlist, rung| Ok(Admitted { netlist, rung });
    let Some(proof_budget) = policy.require_equivalence else {
        return run(net, Rung::Submitted);
    };
    let rewritten = rewrite(&net);
    match equiv::check(&net, &rewritten, proof_budget).verdict {
        Verdict::Equivalent => {
            let within =
                |n: &CircuitNetlist| analyze::report(n, model).max_failure_prob() <= budget;
            if within(&rewritten) {
                return run(rewritten, Rung::Rewritten);
            }
            let fused = analyze::demote_sums(&rewritten);
            let demoted = fused != rewritten;
            if demoted && within(&fused) {
                return run(fused, Rung::SumsDemoted);
            }
            run(net, Rung::Refused { demoted })
        }
        Verdict::NotEquivalent {
            output,
            counterexample,
        } => Err(RejectReason::NotEquivalent {
            output,
            counterexample,
        }),
        Verdict::Unknown { .. } if LintKind::EquivUnknown.severity() >= policy.deny => {
            Err(RejectReason::Lint {
                kind: LintKind::EquivUnknown,
                node: 0,
            })
        }
        Verdict::Unknown { .. } => run(net, Rung::Submitted),
    }
}

/// What a submission carries from its queueing to its outcome: where the
/// outcome goes, whose it is, and what may end it early.
struct Ticket {
    reply: mpsc::Sender<CircuitOutcome>,
    /// Submitting client handle's identity, for quotas and tallies.
    client: u64,
    /// Absolute wall-clock bound, if any.
    deadline: Option<Instant>,
    /// Set by [`PendingCircuit::cancel`]; checked at admission and
    /// between dispatches.
    cancel: Arc<AtomicBool>,
}

/// One queued circuit execution request.
struct CircuitJob {
    netlist: CircuitNetlist,
    inputs: SessionInputs,
    ticket: Ticket,
}

enum Msg {
    Job(Box<CircuitJob>),
    Shutdown,
}

/// How one submitted circuit ended. Every ticket resolves to exactly one
/// of these.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitOutcome {
    /// The circuit ran to completion.
    Completed(CircuitRun),
    /// The circuit panicked during execution (the message is the panic
    /// payload, e.g. a dimension-mismatch assertion). The server and
    /// every other in-flight circuit keep running.
    Faulted(String),
    /// The circuit was turned away without running — see the
    /// [`RejectReason`] for which admission bound it hit.
    Rejected(RejectReason),
    /// The circuit's deadline passed before it finished; its remaining
    /// work was abandoned mid-flight.
    Expired,
    /// [`PendingCircuit::cancel`] was observed before the circuit
    /// finished; its remaining work was abandoned.
    Cancelled,
}

impl CircuitOutcome {
    /// The completed run, if any — `None` for every other variant.
    pub fn completed(self) -> Option<CircuitRun> {
        match self {
            CircuitOutcome::Completed(run) => Some(run),
            _ => None,
        }
    }

    /// `true` when the circuit ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, CircuitOutcome::Completed(_))
    }

    /// `true` when the circuit panicked during execution.
    pub fn is_faulted(&self) -> bool {
        matches!(self, CircuitOutcome::Faulted(_))
    }

    /// The structured rejection reason, if the circuit was rejected.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            CircuitOutcome::Rejected(reason) => Some(reason.clone()),
            _ => None,
        }
    }
}

/// Per-client outcome tallies, reported in [`SchedulerStats::per_client`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientTally {
    /// Circuits of this client that resolved [`CircuitOutcome::Completed`].
    pub completed: u64,
    /// Circuits of this client that resolved [`CircuitOutcome::Rejected`]
    /// (any reason, including client-side `InvalidInput`).
    pub rejected: u64,
}

/// A snapshot of the scheduler's monotone counters.
///
/// `slots` models each non-empty dispatch of `t` tasks on `P` workers as
/// `ceil(t / P)` rounds of `P` task-slots, so
/// [`SchedulerStats::utilization`] — busy task-slots over offered
/// wave-slots — is a *structural* measure of how full the pool's waves
/// run, independent of clock noise: interleaving several circuits fills
/// the narrow tail waves of each with the other circuits' work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Non-empty pool dispatches (interleaved super-waves).
    pub dispatches: u64,
    /// Tasks dispatched across all circuits.
    pub tasks: u64,
    /// Task-slots offered: `Σ ceil(tasks / threads) · threads`.
    pub slots: u64,
    /// High-water mark of circuits simultaneously in flight.
    pub max_in_flight: u64,
    /// Circuits that resolved [`CircuitOutcome::Completed`].
    pub completed: u64,
    /// Circuits that resolved [`CircuitOutcome::Faulted`].
    pub faulted: u64,
    /// Circuits that resolved [`CircuitOutcome::Rejected`] (any reason).
    pub rejected: u64,
    /// Circuits that resolved [`CircuitOutcome::Expired`].
    pub expired: u64,
    /// Circuits that resolved [`CircuitOutcome::Cancelled`].
    pub cancelled: u64,
    /// Pool workers respawned after dying outside the per-task panic
    /// isolation (the pool's own tally).
    pub restarts: u64,
    /// Circuits whose rewrite was proven equivalent but missed
    /// [`AnalysisPolicy::max_failure_prob`] even with its sums demoted,
    /// and ran as submitted.
    pub rewrites_refused: u64,
    /// Circuits whose rewrite missed [`AnalysisPolicy::max_failure_prob`]
    /// with its sums riding and was certified again with each on a
    /// bootstrap of its own ([`analyze::demote_sums`]) — whether that form
    /// then ran or was refused too.
    pub sums_demoted: u64,
    /// Per-client completed/rejected tallies, ascending by client id.
    pub per_client: Vec<(u64, ClientTally)>,
}

impl SchedulerStats {
    /// Busy task-slots over offered wave-slots, in `(0, 1]` once any
    /// dispatch ran (0.0 before).
    pub fn utilization(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.tasks as f64 / self.slots as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot, for measuring one
    /// phase of traffic. `max_in_flight` is a high-water mark, not a
    /// counter: the later snapshot's value is kept as-is. A snapshot is
    /// read under the lock the scheduler counts under, so its counters
    /// never mix two dispatches; every field saturates at zero, so feeding
    /// snapshots in the wrong order yields zeros, never an underflow
    /// panic.
    pub fn since(&self, earlier: &SchedulerStats) -> SchedulerStats {
        let per_client = self
            .per_client
            .iter()
            .map(|&(id, tally)| {
                let before = earlier
                    .per_client
                    .iter()
                    .find(|&&(eid, _)| eid == id)
                    .map(|&(_, t)| t)
                    .unwrap_or_default();
                (
                    id,
                    ClientTally {
                        completed: tally.completed.saturating_sub(before.completed),
                        rejected: tally.rejected.saturating_sub(before.rejected),
                    },
                )
            })
            .collect();
        SchedulerStats {
            dispatches: self.dispatches.saturating_sub(earlier.dispatches),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            slots: self.slots.saturating_sub(earlier.slots),
            max_in_flight: self.max_in_flight,
            completed: self.completed.saturating_sub(earlier.completed),
            faulted: self.faulted.saturating_sub(earlier.faulted),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            expired: self.expired.saturating_sub(earlier.expired),
            cancelled: self.cancelled.saturating_sub(earlier.cancelled),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            rewrites_refused: self
                .rewrites_refused
                .saturating_sub(earlier.rewrites_refused),
            sums_demoted: self.sums_demoted.saturating_sub(earlier.sums_demoted),
            per_client,
        }
    }

    /// Counts one resolved ticket of `client`.
    fn record(&mut self, client: u64, outcome: &CircuitOutcome) {
        let (completed, rejected) = match outcome {
            CircuitOutcome::Completed(_) => (1, 0),
            CircuitOutcome::Rejected(_) => (0, 1),
            CircuitOutcome::Faulted(_) => return self.faulted += 1,
            CircuitOutcome::Expired => return self.expired += 1,
            CircuitOutcome::Cancelled => return self.cancelled += 1,
        };
        self.completed += completed;
        self.rejected += rejected;
        let at = self.per_client.partition_point(|&(id, _)| id < client);
        if self.per_client.get(at).is_none_or(|&(id, _)| id != client) {
            self.per_client.insert(at, (client, ClientTally::default()));
        }
        let tally = &mut self.per_client[at].1;
        tally.completed += completed;
        tally.rejected += rejected;
    }
}

/// Locks the live stats. Each update leaves them valid, so a lock a
/// panicking holder poisoned is read through.
fn lock(stats: &Mutex<SchedulerStats>) -> MutexGuard<'_, SchedulerStats> {
    stats.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A request server executing encrypted circuits on a persistent worker
/// pool, interleaving every in-flight circuit's ready wave into each
/// dispatch. Non-generic: the FFT engine lives entirely inside the
/// scheduler thread.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::circuit::CircuitNetlist;
/// use matcha_tfhe::server::CircuitServer;
/// use matcha_tfhe::{ClientKey, Gate, ParameterSet, ServerKey};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let key = Arc::new(ServerKey::new(&client, F64Fft::new(1024), &mut rng));
/// let server = CircuitServer::start(key, 8);
///
/// let mut net = CircuitNetlist::new();
/// let (a, b) = (net.input(), net.input());
/// let nand = net.gate(Gate::Nand, a, b);
/// net.mark_output(nand);
///
/// let handle = server.client();
/// let pending = handle.submit(net, vec![client.encrypt(true), client.encrypt(true)]);
/// let run = pending.wait().completed().expect("server is live");
/// assert!(!client.decrypt(&run.outputs[0]));
/// server.shutdown();
/// ```
pub struct CircuitServer {
    tx: mpsc::Sender<Msg>,
    scheduler: Option<JoinHandle<()>>,
    stats: Arc<Mutex<SchedulerStats>>,
    params: ParameterSet,
    default_deadline: Option<Duration>,
    next_client: AtomicU64,
}

/// One circuit in flight on the scheduler.
struct InFlight {
    frontier: CircuitFrontier,
    ticket: Ticket,
    /// Admission number, the `circuit` of the fault sites its tasks take.
    tag: u64,
}

/// The tickets one [`Scheduler`] step resolved, as `(reply, outcome)`
/// pairs for the scheduler thread to send.
type Resolved = Vec<(mpsc::Sender<CircuitOutcome>, CircuitOutcome)>;

/// The scheduling policy as a state machine over every circuit in flight:
/// admission, the fill of each dispatch, its completion, and the reaping of
/// dead circuits. It owns no thread, channel, pool or clock: each step
/// takes `now` from its caller and returns the tickets it resolved instead
/// of sending them.
struct Scheduler {
    config: ServerConfig,
    /// The served key's noise model, what [`admit`] certifies under.
    model: NoiseModel,
    /// Pool workers, for the task-slots each dispatch offers.
    threads: u64,
    /// In admission order.
    in_flight: Vec<InFlight>,
    /// Parallel to the last filled batch: index into `in_flight` owning
    /// each task.
    owners: Vec<usize>,
    /// The next admission number.
    next_tag: u64,
    /// Scripted faults, attached to their tasks as [`Scheduler::fill`]
    /// takes them; empty outside fault-injection tests.
    faults: FaultPlan,
    stats: Arc<Mutex<SchedulerStats>>,
}

impl Scheduler {
    fn new(config: ServerConfig, model: NoiseModel, threads: usize, faults: FaultPlan) -> Self {
        Self {
            config,
            model,
            threads: threads as u64,
            in_flight: Vec::new(),
            owners: Vec::new(),
            next_tag: 0,
            faults,
            stats: Arc::default(),
        }
    }

    fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Admission at `now`: resolves the dead first, so they hold no slot
    /// against the bounds, then [vets](Scheduler::vet) the job and builds
    /// its frontier. An admission-time panic (a malformed netlist or inputs
    /// that slipped past submit-side validation) faults only this circuit.
    fn admit<E: FftEngine>(
        &mut self,
        job: CircuitJob,
        server: &ServerKey<E>,
        now: Instant,
    ) -> Resolved {
        let mut resolved = self.resolve(Vec::new(), now);
        let ticket = job.ticket;
        let outcome = match self.vet(job.netlist, &ticket, now) {
            Ok(netlist) => {
                match catch_unwind(AssertUnwindSafe(|| {
                    build_frontier(netlist, job.inputs, server, now)
                })) {
                    Ok(frontier) => {
                        let tag = self.next_tag;
                        self.next_tag += 1;
                        self.in_flight.push(InFlight {
                            frontier,
                            ticket,
                            tag,
                        });
                        let mut stats = lock(&self.stats);
                        stats.max_in_flight = stats.max_in_flight.max(self.in_flight.len() as u64);
                        return resolved;
                    }
                    Err(payload) => CircuitOutcome::Faulted(panic_message(payload)),
                }
            }
            Err(outcome) => outcome,
        };
        lock(&self.stats).record(ticket.client, &outcome);
        resolved.push((ticket.reply, outcome));
        resolved
    }

    /// The admission checks, in order: a cancel that raced ahead of
    /// admission, the [`ServerConfig`] bounds, the deadline, then the
    /// analysis policy through [`admit`], whose rung is counted. Returns
    /// the netlist to schedule, or the outcome that turns the job away.
    fn vet(
        &self,
        netlist: CircuitNetlist,
        ticket: &Ticket,
        now: Instant,
    ) -> Result<CircuitNetlist, CircuitOutcome> {
        use CircuitOutcome::Rejected;
        if ticket.cancel.load(Ordering::Relaxed) {
            return Err(CircuitOutcome::Cancelled);
        }
        if self.in_flight.len() >= self.config.queue_depth {
            return Err(Rejected(RejectReason::QueueFull));
        }
        let held = |fl: &&InFlight| fl.ticket.client == ticket.client;
        if self.in_flight.iter().filter(held).count() >= self.config.per_client_quota {
            return Err(Rejected(RejectReason::QuotaExceeded));
        }
        if ticket.deadline.is_some_and(|d| now >= d) {
            return Err(Rejected(RejectReason::DeadlineUnmeetable));
        }
        let Some(policy) = &self.config.analysis else {
            return Ok(netlist);
        };
        let admitted =
            admit(netlist, &self.model, policy, |n| analyze::simplify(n).0).map_err(Rejected)?;
        let (demoted, refused) = match admitted.rung {
            Rung::Submitted | Rung::Rewritten => (false, false),
            Rung::SumsDemoted => (true, false),
            Rung::Refused { demoted } => (demoted, true),
        };
        let mut stats = lock(&self.stats);
        stats.sums_demoted += u64::from(demoted);
        stats.rewrites_refused += u64::from(refused);
        Ok(admitted.netlist)
    }

    /// Fills `batch` with one interleaved super-wave at `now`: resolves
    /// the dead, so dead work stops consuming bootstrap slots, then takes
    /// every survivor's ready frontier, oldest admission first — FIFO-fair,
    /// and no circuit can monopolize the dispatch because every other
    /// circuit's ready tasks ride along. Each task taken carries the fault
    /// scripted at its `(admission number, node)`, if any.
    fn fill(&mut self, batch: &mut Vec<SlabTask>, now: Instant) -> Resolved {
        let resolved = self.resolve(Vec::new(), now);
        batch.clear();
        self.owners.clear();
        for (ci, fl) in self.in_flight.iter_mut().enumerate() {
            fl.frontier.take_ready(batch);
            self.owners.resize(batch.len(), ci);
        }
        for (task, &ci) in batch.iter_mut().zip(&self.owners) {
            task.fault = self.faults.take(self.in_flight[ci].tag, task.node);
        }
        resolved
    }

    /// Completes the dispatch of the last [`Scheduler::fill`]'s `batch`
    /// at `now`, given the per-task `failures` it returned and the pool's
    /// worker `restarts` so far: counts the dispatch, routes each failure
    /// to the circuit owning the task (first message wins), completes the
    /// tasks of every healthy circuit, and resolves.
    fn complete(
        &mut self,
        batch: &[SlabTask],
        failures: Vec<(usize, String)>,
        restarts: u64,
        now: Instant,
    ) -> Resolved {
        let mut stats = lock(&self.stats);
        if !batch.is_empty() {
            let (tasks, p) = (batch.len() as u64, self.threads);
            stats.dispatches += 1;
            stats.tasks += tasks;
            stats.slots += tasks.div_ceil(p) * p;
        }
        stats.restarts = restarts;
        drop(stats);
        let mut faults: Vec<Option<String>> = vec![None; self.in_flight.len()];
        for (index, msg) in failures {
            faults[self.owners[index]].get_or_insert(msg);
        }
        for (st, &ci) in batch.iter().zip(&self.owners) {
            if faults[ci].is_none() {
                self.in_flight[ci].frontier.complete(st.node);
            }
        }
        self.resolve(faults, now)
    }

    /// The one resolution pass: resolves every in-flight circuit that ends
    /// at `now` — Faulted (its entry of `faults`, indexed like `in_flight`;
    /// a short list faults nothing past its end) over Completed over
    /// Cancelled over Expired — dropping each resolved frontier, and keeps
    /// the rest in admission order.
    fn resolve(&mut self, faults: Vec<Option<String>>, now: Instant) -> Resolved {
        let mut stats = lock(&self.stats);
        let mut faults = faults.into_iter();
        let mut resolved = Vec::new();
        let mut keep = Vec::with_capacity(self.in_flight.len());
        for fl in self.in_flight.drain(..) {
            let outcome = match faults.next().flatten() {
                Some(msg) => CircuitOutcome::Faulted(msg),
                None if fl.frontier.is_done() => CircuitOutcome::Completed(fl.frontier.finish(now)),
                None if fl.ticket.cancel.load(Ordering::Relaxed) => CircuitOutcome::Cancelled,
                None if fl.ticket.deadline.is_some_and(|d| now >= d) => CircuitOutcome::Expired,
                None => {
                    keep.push(fl);
                    continue;
                }
            };
            stats.record(fl.ticket.client, &outcome);
            resolved.push((fl.ticket.reply, outcome));
        }
        self.in_flight = keep;
        resolved
    }

    /// Turns away a job still queued when the server shut down.
    fn refuse(&self, job: CircuitJob) -> (mpsc::Sender<CircuitOutcome>, CircuitOutcome) {
        let outcome = CircuitOutcome::Rejected(RejectReason::Shutdown);
        lock(&self.stats).record(job.ticket.client, &outcome);
        (job.ticket.reply, outcome)
    }
}

/// Builds the frontier for an admitted job, started at `now`, moving or
/// unpacking its inputs straight into the run's [`ValueSlab`](crate::batch::ValueSlab):
/// per-LWE inputs are *moved* out of the submission (no clone), and
/// packed TRLWE inputs are unpacked ([`packing::extract_bits`]: slot `s` is
/// coefficient `s % N` of sample `s / N`, sample-extracted and nothing
/// else) and moved into their slab cells. Dimension mismatches panic (with the
/// [`packing::extract_bit`] boundary messages) and surface as
/// [`CircuitOutcome::Faulted`] through the caller's `catch_unwind`;
/// validated submissions never hit them.
fn build_frontier<E: FftEngine>(
    netlist: CircuitNetlist,
    inputs: SessionInputs,
    server: &ServerKey<E>,
    now: Instant,
) -> CircuitFrontier {
    let net = Arc::new(netlist);
    match inputs {
        SessionInputs::Lwe(inputs) => {
            assert_eq!(
                inputs.len(),
                net.num_inputs(),
                "circuit expects {} inputs, got {}",
                net.num_inputs(),
                inputs.len()
            );
            let mut inputs: Vec<Option<LweCiphertext>> = inputs.into_iter().map(Some).collect();
            CircuitFrontier::with_inputs_from(net, server, now, |slot| {
                inputs[slot].take().expect("input slots fill exactly once")
            })
        }
        SessionInputs::Packed(samples) => {
            let params = *server.params();
            let n = params.ring_degree;
            assert_eq!(
                samples.len(),
                net.num_inputs().div_ceil(n),
                "{} packed samples carry {} input slots, circuit expects {}",
                samples.len(),
                samples.len() * n,
                net.num_inputs()
            );
            let mut bits = packing::extract_bits(&samples, net.num_inputs(), &params);
            CircuitFrontier::with_inputs_from(net, server, now, |slot| {
                std::mem::take(&mut bits[slot])
            })
        }
    }
}

/// Sends each resolved ticket's outcome. A client that dropped its
/// ticket no longer listens; that is not an error.
fn send(resolved: impl IntoIterator<Item = (mpsc::Sender<CircuitOutcome>, CircuitOutcome)>) {
    for (reply, outcome) in resolved {
        let _ = reply.send(outcome);
    }
}

/// The scheduler thread: receive → step → send. It keeps the pool (and
/// through it the key), and it is the only code that reads the clock (once
/// per [`Scheduler`] step) and the only code that sends a scheduled
/// ticket's outcome; every decision is the [`Scheduler`]'s.
fn scheduler_loop<E>(pool: GateBatchPool<E>, rx: mpsc::Receiver<Msg>, mut scheduler: Scheduler)
where
    E: FftEngine + Send + Sync + 'static,
{
    // Saw Shutdown: finish what is admitted, admit nothing more.
    let mut draining = false;
    let mut batch: Vec<SlabTask> = Vec::new();
    loop {
        // Receive. Block only when idle; with work in flight, drain
        // whatever has queued up between dispatches so new circuits join
        // the very next super-wave.
        while !draining {
            let msg = if scheduler.is_idle() {
                rx.recv().ok()
            } else {
                match rx.try_recv() {
                    Ok(msg) => Some(msg),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => None,
                }
            };
            match msg {
                Some(Msg::Job(job)) => send(scheduler.admit(*job, pool.server(), Instant::now())),
                // Graceful by FIFO: every job submitted before the
                // Shutdown message was enqueued ahead of it and already
                // admitted; anything racing in after it is explicitly
                // rejected below.
                Some(Msg::Shutdown) | None => draining = true,
            }
        }
        send(scheduler.fill(&mut batch, Instant::now()));
        if draining && scheduler.is_idle() {
            break;
        }
        let failures = pool.run_tasks(&batch);
        send(scheduler.complete(&batch, failures, pool.restarts(), Instant::now()));
    }
    // Explicitly reject everything still queued so those tickets resolve
    // with a structured reason (the dropped-sender fallback in `wait` is
    // only a backstop for abrupt scheduler death).
    while let Ok(Msg::Job(job)) = rx.try_recv() {
        send([scheduler.refuse(*job)]);
    }
}

impl CircuitServer {
    /// Starts the scheduler thread with a fresh `threads`-worker
    /// [`GateBatchPool`] over `key` and the default (unbounded)
    /// [`ServerConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn start<E>(key: Arc<ServerKey<E>>, threads: usize) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        Self::start_with(key, threads, ServerConfig::default())
    }

    /// Starts the scheduler with explicit admission bounds.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn start_with<E>(key: Arc<ServerKey<E>>, threads: usize, config: ServerConfig) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        Self::launch(key, threads, config, FaultPlan::new())
    }

    /// Starts the scheduler with a scripted [`FaultPlan`] — the
    /// deterministic fault-injection harness. Fault sites are keyed
    /// `(admission number, node)`; admission numbers are assigned 0, 1,
    /// 2, … in admission order (a circuit rejected or faulted at admission
    /// takes none), and each site rides to its worker on the task it names
    /// ([`SlabTask::fault`]). Intended for
    /// robustness tests; a production server uses
    /// [`CircuitServer::start`] / [`CircuitServer::start_with`].
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn start_with_faults<E>(
        key: Arc<ServerKey<E>>,
        threads: usize,
        config: ServerConfig,
        faults: FaultPlan,
    ) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        Self::launch(key, threads, config, faults)
    }

    fn launch<E>(
        key: Arc<ServerKey<E>>,
        threads: usize,
        config: ServerConfig,
        faults: FaultPlan,
    ) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        assert!(threads > 0, "need at least one worker");
        let params = *key.params();
        let model = NoiseModel::new(&params, key.unroll());
        let default_deadline = config.default_deadline;
        let (tx, rx) = mpsc::channel::<Msg>();
        let pool = GateBatchPool::new(key, threads);
        let state = Scheduler::new(config, model, threads, faults);
        let stats = Arc::clone(&state.stats);
        let scheduler = std::thread::spawn(move || scheduler_loop(pool, rx, state));
        Self {
            tx,
            scheduler: Some(scheduler),
            stats,
            params,
            default_deadline,
            next_client: AtomicU64::new(0),
        }
    }

    /// The parameter set the server key was generated under — what a
    /// wire session advertises in its handshake, and what client-side
    /// encryption must match.
    pub fn params(&self) -> &ParameterSet {
        &self.params
    }

    /// A new client handle with a fresh client identity (used for quotas
    /// and per-client tallies). Handles are independent and `Send`;
    /// *clone* a handle to submit from several threads as one client, or
    /// call this again for a distinct client.
    pub fn client(&self) -> CircuitClient {
        CircuitClient {
            tx: self.tx.clone(),
            params: self.params,
            id: self.next_client.fetch_add(1, Ordering::Relaxed),
            stats: Arc::clone(&self.stats),
            default_deadline: self.default_deadline,
        }
    }

    /// A snapshot of the scheduler counters: dispatches, tasks, offered
    /// task-slots (the structural utilization measure), the in-flight
    /// high-water mark, outcome counts (completed/faulted/rejected/
    /// expired/cancelled), pool worker restarts, and per-client tallies.
    /// Counters are monotone; use [`SchedulerStats::since`] to measure
    /// one phase of traffic.
    pub fn stats(&self) -> SchedulerStats {
        lock(&self.stats).clone()
    }

    /// Graceful shutdown: circuits admitted before this call run to
    /// completion and their tickets resolve; submissions racing past it
    /// resolve to [`CircuitOutcome::Rejected`] with
    /// [`RejectReason::Shutdown`]. Blocks until the scheduler (and its
    /// pool workers) have exited.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(scheduler) = self.scheduler.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = scheduler.join();
        }
    }
}

impl Drop for CircuitServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A cloneable submission handle for one [`CircuitServer`]. Each handle
/// from [`CircuitServer::client`] is a distinct client for quota and
/// tally purposes; clones share the identity.
#[derive(Clone)]
pub struct CircuitClient {
    tx: mpsc::Sender<Msg>,
    params: ParameterSet,
    id: u64,
    stats: Arc<Mutex<SchedulerStats>>,
    default_deadline: Option<Duration>,
}

impl CircuitClient {
    /// Submits a circuit with its encrypted inputs. Returns immediately
    /// with a ticket; the circuit joins the in-flight set at the
    /// scheduler's next dispatch boundary (subject to the server's
    /// admission bounds) and runs interleaved with everything else in
    /// flight. Malformed submissions — wrong input *count* or a wrong
    /// LWE *dimension* on any input — resolve to
    /// [`CircuitOutcome::Rejected`] with [`RejectReason::InvalidInput`]
    /// without ever being queued: a misbehaving remote client must not be
    /// able to panic a library caller. The server's
    /// [`ServerConfig::default_deadline`], if any, applies.
    pub fn submit(&self, netlist: CircuitNetlist, inputs: Vec<LweCiphertext>) -> PendingCircuit {
        self.submit_inputs(netlist, SessionInputs::Lwe(inputs), None)
    }

    /// Submits a circuit whose inputs arrive as packed TRLWE transport
    /// samples ([`packing::pack_bits`] on the client side): sample `k`
    /// carries input slots `k·N .. (k+1)·N` in its coefficients, at 2
    /// torus words per bit on the wire instead of `N + 1`. The scheduler
    /// unpacks each slot at admission — one sample extraction, straight
    /// into the run's slab — after which the circuit runs
    /// exactly as a per-LWE submission. Malformed submissions — a sample
    /// count other than `ceil(num_inputs / N)` or a wrong ring degree on
    /// any sample — resolve to [`CircuitOutcome::Rejected`] with
    /// [`RejectReason::InvalidInput`] without being queued. The server's
    /// [`ServerConfig::default_deadline`], if any, applies.
    pub fn submit_packed(
        &self,
        netlist: CircuitNetlist,
        samples: Vec<TrlweCiphertext>,
    ) -> PendingCircuit {
        self.submit_inputs(netlist, SessionInputs::Packed(samples), None)
    }

    /// Like [`CircuitClient::submit`], but bounding the circuit's
    /// wall-clock: if `deadline` elapses before the circuit completes —
    /// while queued or mid-flight — the scheduler abandons its remaining
    /// work and the ticket resolves to [`CircuitOutcome::Expired`] (or
    /// [`RejectReason::DeadlineUnmeetable`] if the deadline had already
    /// passed at admission). Overrides the server's default deadline.
    pub fn submit_with_deadline(
        &self,
        netlist: CircuitNetlist,
        inputs: Vec<LweCiphertext>,
        deadline: Duration,
    ) -> PendingCircuit {
        self.submit_inputs(netlist, SessionInputs::Lwe(inputs), Some(deadline))
    }

    /// Every submission's path: a malformed payload is rejected at once,
    /// a valid one queued due `deadline`, or the server's default deadline
    /// when that is `None`.
    pub(crate) fn submit_inputs(
        &self,
        netlist: CircuitNetlist,
        inputs: SessionInputs,
        deadline: Option<Duration>,
    ) -> PendingCircuit {
        if !self.valid(&netlist, &inputs) {
            return self.reject_invalid();
        }
        self.enqueue(netlist, inputs, deadline.or(self.default_deadline))
    }

    /// One LWE sample of the extracted key's dimension per input slot, or
    /// `ceil(num_inputs / N)` packed samples of ring degree `N`.
    fn valid(&self, netlist: &CircuitNetlist, inputs: &SessionInputs) -> bool {
        let n = self.params.ring_degree;
        match inputs {
            SessionInputs::Lwe(inputs) => {
                inputs.len() == netlist.num_inputs() && inputs.iter().all(|i| i.dimension() == n)
            }
            SessionInputs::Packed(samples) => {
                samples.len() == netlist.num_inputs().div_ceil(n)
                    && samples.iter().all(|s| s.ring_degree() == n)
            }
        }
    }

    /// Resolves an `InvalidInput` rejection immediately, tallying it
    /// against this client without touching the scheduler queue.
    fn reject_invalid(&self) -> PendingCircuit {
        let outcome = CircuitOutcome::Rejected(RejectReason::InvalidInput);
        lock(&self.stats).record(self.id, &outcome);
        PendingCircuit {
            rx: mpsc::channel().1,
            cancel: Arc::new(AtomicBool::new(false)),
            outcome: Some(outcome),
        }
    }

    /// Queues a job due `deadline` from now; one past the last
    /// representable instant bounds nothing and is dropped.
    fn enqueue(
        &self,
        netlist: CircuitNetlist,
        inputs: SessionInputs,
        deadline: Option<Duration>,
    ) -> PendingCircuit {
        let (reply, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let ticket = Ticket {
            reply,
            client: self.id,
            deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            cancel: Arc::clone(&cancel),
        };
        // A send to a shut-down server is not an error here; the ticket
        // resolves through the dropped-sender backstop in `wait`.
        let _ = self.tx.send(Msg::Job(Box::new(CircuitJob {
            netlist,
            inputs,
            ticket,
        })));
        PendingCircuit {
            rx,
            cancel,
            outcome: None,
        }
    }
}

/// What a ticket whose reply sender was dropped resolves to.
const SHUTDOWN: CircuitOutcome = CircuitOutcome::Rejected(RejectReason::Shutdown);

/// A ticket for one submitted circuit. Every ticket resolves to exactly
/// one [`CircuitOutcome`].
pub struct PendingCircuit {
    rx: mpsc::Receiver<CircuitOutcome>,
    cancel: Arc<AtomicBool>,
    /// The outcome, once received: a resolved ticket stays resolved.
    outcome: Option<CircuitOutcome>,
}

impl PendingCircuit {
    /// Blocks until the circuit has resolved to its [`CircuitOutcome`].
    ///
    /// A reply sender dropped without an outcome — the scheduler died
    /// abruptly or the submission never reached a live server — resolves
    /// to [`CircuitOutcome::Rejected`] with [`RejectReason::Shutdown`];
    /// a graceful [`CircuitServer::shutdown`] sends that same outcome
    /// explicitly for every queued-but-unadmitted circuit, so `Shutdown`
    /// always means "the server went away", never "the queue was full"
    /// (that is [`RejectReason::QueueFull`]).
    pub fn wait(self) -> CircuitOutcome {
        let Self { rx, outcome, .. } = self;
        outcome.unwrap_or_else(|| rx.recv().unwrap_or(SHUTDOWN))
    }

    /// Non-blocking probe: `None` while the circuit is still queued or
    /// in flight, `Some` once it has resolved — the same outcome on every
    /// probe after that, and from [`PendingCircuit::wait`]. A disconnected
    /// reply channel maps to [`RejectReason::Shutdown`] exactly as in
    /// [`PendingCircuit::wait`].
    pub fn try_wait(&mut self) -> Option<CircuitOutcome> {
        if self.outcome.is_none() {
            self.outcome = match self.rx.try_recv() {
                Err(TryRecvError::Empty) => None,
                received => Some(received.unwrap_or(SHUTDOWN)),
            };
        }
        self.outcome.clone()
    }

    /// Requests cancellation: the scheduler checks the flag at admission
    /// and between dispatches, abandons the circuit's remaining work and
    /// resolves the ticket to [`CircuitOutcome::Cancelled`]. Best-effort
    /// — a circuit that completes (or faults) before the flag is
    /// observed resolves with that outcome instead; either way the
    /// ticket resolves exactly once.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitNetlist;
    use crate::faults::FaultAction;
    use crate::gates::Gate;
    use crate::params::ParameterSet;
    use crate::secret::ClientKey;
    use matcha_fft::F64Fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl CircuitClient {
        /// [`CircuitClient::submit`] without the boundary validation — the
        /// hot path for trusted in-process callers that constructed their
        /// inputs against the server key. A malformed submission here is not
        /// rejected: it faults its own circuit at admission or in a worker
        /// ([`CircuitOutcome::Faulted`]), with the server unaffected.
        fn submit_unchecked(
            &self,
            netlist: CircuitNetlist,
            inputs: Vec<LweCiphertext>,
        ) -> PendingCircuit {
            self.enqueue(netlist, SessionInputs::Lwe(inputs), self.default_deadline)
        }
    }

    fn setup(seed: u64) -> (ClientKey, Arc<ServerKey<F64Fft>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        (client, server, rng)
    }

    /// `len`-gate XOR chain over `len + 1` inputs; gate nodes are
    /// `2, 4, 6, …` (odd-indexed nodes are the later inputs), which is
    /// what fault sites target.
    fn xor_chain(len: usize) -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        let mut acc = net.input();
        for _ in 0..len {
            let next = net.input();
            acc = net.gate(Gate::Xor, acc, next);
        }
        net.mark_output(acc);
        net
    }

    fn encrypt_bits(client: &ClientKey, bits: &[bool], rng: &mut StdRng) -> Vec<LweCiphertext> {
        bits.iter().map(|&b| client.encrypt_with(b, rng)).collect()
    }

    fn xor_all(bits: &[bool]) -> bool {
        bits.iter().fold(false, |a, &b| a ^ b)
    }

    #[test]
    fn serves_a_single_circuit() {
        let (client, key, mut rng) = setup(140);
        let server = CircuitServer::start(Arc::clone(&key), 2);
        let net = xor_chain(3);
        let bits = [true, false, true, true];
        let run = server
            .client()
            .submit(net, encrypt_bits(&client, &bits, &mut rng))
            .wait()
            .completed()
            .expect("server live");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.tasks, 3, "three XOR gates dispatched");
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
        assert_eq!(stats.restarts, 0);
        server.shutdown();
    }

    #[test]
    fn a_resolved_ticket_stays_resolved() {
        let (client, key, mut rng) = setup(158);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        let bits = [true, false, true];
        let mut ticket = server
            .client()
            .submit(xor_chain(2), encrypt_bits(&client, &bits, &mut rng));
        let first = loop {
            match ticket.try_wait() {
                Some(outcome) => break outcome,
                None => std::thread::sleep(MS),
            }
        };
        assert!(first.is_completed(), "{first:?}");
        let second = ticket.try_wait();
        assert_eq!(second.as_ref(), Some(&first), "a second probe");
        assert_eq!(ticket.wait(), first, "wait after the probes");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_get_ordered_results() {
        let (client, key, mut rng) = setup(141);
        let server = CircuitServer::start(Arc::clone(&key), 2);
        // Two client threads, each submitting 3 circuits with distinct
        // expected answers; each must observe its own results in
        // submission order.
        let jobs_per_client = 3;
        let mut expected: Vec<Vec<bool>> = Vec::new();
        let mut encrypted: Vec<Vec<Vec<LweCiphertext>>> = Vec::new();
        for c in 0..2 {
            let mut per_client_expected = Vec::new();
            let mut per_client_inputs = Vec::new();
            for j in 0..jobs_per_client {
                let bits = [c == 0, j % 2 == 0, j == 1];
                per_client_expected.push(xor_all(&bits));
                per_client_inputs.push(encrypt_bits(&client, &bits, &mut rng));
            }
            expected.push(per_client_expected);
            encrypted.push(per_client_inputs);
        }
        let results: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = encrypted
                .into_iter()
                .map(|inputs| {
                    let handle = server.client();
                    scope.spawn(move || {
                        let tickets: Vec<PendingCircuit> = inputs
                            .into_iter()
                            .map(|i| handle.submit(xor_chain(2), i))
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().completed().expect("server live"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .map(|runs| runs.iter().map(|r| client.decrypt(&r.outputs[0])).collect())
                .collect()
        });
        assert_eq!(results, expected);
        server.shutdown();
    }

    #[test]
    fn interleaves_circuits_and_reports_in_flight_high_water() {
        let (client, key, mut rng) = setup(147);
        // Hold the deep circuit's first gate (tag 0, node 2) on a scripted
        // delay so the short submissions are guaranteed to be admitted
        // while it is still in flight — without the delay this races the
        // scheduler under a loaded test host.
        let faults = FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(100)));
        let server =
            CircuitServer::start_with_faults(Arc::clone(&key), 2, ServerConfig::default(), faults);
        let handle = server.client();
        // A deep chain first: while its first wave runs, the two short
        // circuits are admitted and ride the subsequent super-waves.
        let deep_bits = [true, false, true, true, false, true, false];
        let deep = handle.submit(xor_chain(6), encrypt_bits(&client, &deep_bits, &mut rng));
        let shorts: Vec<PendingCircuit> = (0..2)
            .map(|i| {
                let bits = [i == 0, true];
                handle.submit(xor_chain(1), encrypt_bits(&client, &bits, &mut rng))
            })
            .collect();
        for (i, short) in shorts.into_iter().enumerate() {
            let run = short.wait().completed().expect("short circuit completes");
            assert_eq!(client.decrypt(&run.outputs[0]), i != 0);
        }
        let run = deep.wait().completed().expect("deep circuit completes");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&deep_bits));
        let stats = server.stats();
        assert!(
            stats.max_in_flight >= 2,
            "short circuits must have been in flight with the deep one (high water {})",
            stats.max_in_flight
        );
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.tasks, 6 + 1 + 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_completes_queued_jobs_and_rejects_later_ones() {
        let (client, key, mut rng) = setup(142);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        let handle = server.client();
        let pending: Vec<PendingCircuit> = (0..3)
            .map(|i| {
                let bits = [i == 0, i == 1, i == 2];
                handle.submit(xor_chain(2), encrypt_bits(&client, &bits, &mut rng))
            })
            .collect();
        server.shutdown(); // blocks until every admitted circuit resolved
        for (i, ticket) in pending.into_iter().enumerate() {
            let run = ticket
                .wait()
                .completed()
                .unwrap_or_else(|| panic!("job {i} was queued before shutdown and must complete"));
            assert!(client.decrypt(&run.outputs[0]), "job {i}");
        }
        // Submissions after shutdown resolve to a structured Shutdown
        // rejection instead of hanging — distinct from QueueFull.
        let late = handle.submit(
            xor_chain(1),
            encrypt_bits(&client, &[true, false], &mut rng),
        );
        let outcome = late.wait();
        assert!(matches!(outcome, CircuitOutcome::Rejected(_)));
        assert_eq!(outcome.reject_reason(), Some(RejectReason::Shutdown));
    }

    #[test]
    fn faulted_circuit_resolves_faulted_and_server_survives() {
        let (client, key, mut rng) = setup(145);
        let server = CircuitServer::start(Arc::clone(&key), 2);
        let handle = server.client();
        // `submit` validates dimensions now, so smuggle the malformed
        // input past it with `submit_unchecked`, as a buggy trusted
        // caller would: the task panics inside a pool worker and must
        // fault only its own circuit.
        let bad = handle.submit_unchecked(
            xor_chain(1),
            vec![
                client.encrypt_with(true, &mut rng),
                LweCiphertext::trivial(matcha_math::Torus32::ZERO, 3),
            ],
        );
        let outcome = bad.wait();
        let CircuitOutcome::Faulted(msg) = outcome else {
            panic!("wrong-dimension circuit must fault, got {outcome:?}");
        };
        assert!(!msg.is_empty(), "fault carries the panic message");
        // …while the server keeps serving everyone else.
        let good = handle.submit(
            xor_chain(1),
            encrypt_bits(&client, &[true, false], &mut rng),
        );
        let run = good
            .wait()
            .completed()
            .expect("server must survive a faulted circuit");
        assert!(client.decrypt(&run.outputs[0]));
        assert_eq!(server.stats().faulted, 1);
        server.shutdown();
    }

    #[test]
    fn fault_spares_interleaved_neighbors() {
        let (client, key, mut rng) = setup(148);
        let server = CircuitServer::start(Arc::clone(&key), 2);
        let handle = server.client();
        // A healthy deep circuit is in flight when a malformed one joins
        // the same super-waves; the fault must not touch it.
        let bits = [true, true, false, true, false];
        let healthy = handle.submit(xor_chain(4), encrypt_bits(&client, &bits, &mut rng));
        let bad = handle.submit_unchecked(
            xor_chain(1),
            vec![
                client.encrypt_with(true, &mut rng),
                LweCiphertext::trivial(matcha_math::Torus32::ZERO, 3),
            ],
        );
        assert!(bad.wait().is_faulted());
        let run = healthy
            .wait()
            .completed()
            .expect("healthy neighbor completes");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn start_rejects_zero_threads() {
        let (_, key, _) = setup(146);
        let _ = CircuitServer::start(key, 0);
    }

    #[test]
    fn submit_rejects_wrong_input_count() {
        let (client, key, mut rng) = setup(143);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        // Wrong count: a structured client-side rejection, not a panic —
        // a misbehaving remote client must not crash a library caller.
        let pending = server
            .client()
            .submit(xor_chain(2), vec![client.encrypt_with(true, &mut rng)]);
        assert_eq!(
            pending.wait().reject_reason(),
            Some(RejectReason::InvalidInput)
        );
        assert_eq!(server.stats().rejected, 1);
        server.shutdown();
    }

    #[test]
    fn submit_rejects_wrong_input_dimension() {
        let (client, key, mut rng) = setup(149);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        // Right count, wrong dimension: rejected at the API boundary,
        // before the circuit ever reaches a worker.
        let pending = server.client().submit(
            xor_chain(1),
            vec![
                client.encrypt_with(true, &mut rng),
                LweCiphertext::trivial(matcha_math::Torus32::ZERO, 3),
            ],
        );
        assert_eq!(
            pending.wait().reject_reason(),
            Some(RejectReason::InvalidInput)
        );
        assert_eq!(server.stats().faulted, 0, "never reached a worker");
        server.shutdown();
    }

    #[test]
    fn dropping_server_joins_scheduler_and_pool() {
        let (client, key, mut rng) = setup(144);
        {
            let server = CircuitServer::start(Arc::clone(&key), 2);
            let run = server
                .client()
                .submit(xor_chain(1), encrypt_bits(&client, &[true, true], &mut rng))
                .wait()
                .completed()
                .expect("server live");
            assert!(!client.decrypt(&run.outputs[0]));
        } // drop == graceful shutdown
        assert_eq!(
            Arc::strong_count(&key),
            1,
            "scheduler and pool workers must all have exited"
        );
    }

    #[test]
    fn empty_netlist_completes_immediately() {
        let (_, key, _) = setup(150);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        let net = CircuitNetlist::new();
        let run = server
            .client()
            .submit(net, Vec::new())
            .wait()
            .completed()
            .expect("empty circuit completes");
        assert!(run.outputs.is_empty());
        assert_eq!(run.scheduled_ops, 0);
        server.shutdown();
    }

    #[test]
    fn queue_overflow_rejects_with_queue_full() {
        let (client, key, mut rng) = setup(151);
        // Hold the first circuit in flight across several admission
        // drains by delaying its first gate (tag 0, node 2): any circuit
        // admitted meanwhile sees a full queue.
        let plan = FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(150)));
        let config = ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with_faults(Arc::clone(&key), 1, config, plan);
        let handle = server.client();
        let first_bits = [true, false, true];
        let first = handle.submit(xor_chain(2), encrypt_bits(&client, &first_bits, &mut rng));
        let overflow = handle.submit(
            xor_chain(2),
            encrypt_bits(&client, &[true, true, false], &mut rng),
        );
        assert_eq!(
            overflow.wait().reject_reason(),
            Some(RejectReason::QueueFull)
        );
        let run = first.wait().completed().expect("first circuit unaffected");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&first_bits));
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn quota_breach_rejects_heavy_client_and_spares_light_one() {
        let (client, key, mut rng) = setup(152);
        let plan = FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(150)));
        let config = ServerConfig {
            per_client_quota: 1,
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with_faults(Arc::clone(&key), 1, config, plan);
        let heavy = server.client();
        let light = server.client();
        let first_bits = [true, false, true];
        let light_bits = [false, true];
        // The heavy client's first circuit is held in flight by the
        // delayed gate; its second breaches the quota, while the light
        // client's submission is admitted and completes.
        let first = heavy.submit(xor_chain(2), encrypt_bits(&client, &first_bits, &mut rng));
        let second = heavy.submit(
            xor_chain(2),
            encrypt_bits(&client, &[false, false, true], &mut rng),
        );
        let light_ticket = light.submit(xor_chain(1), encrypt_bits(&client, &light_bits, &mut rng));
        assert_eq!(
            second.wait().reject_reason(),
            Some(RejectReason::QuotaExceeded)
        );
        let light_run = light_ticket
            .wait()
            .completed()
            .expect("light client is not starved by the heavy one");
        assert_eq!(client.decrypt(&light_run.outputs[0]), xor_all(&light_bits));
        let run = first.wait().completed().expect("first circuit unaffected");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&first_bits));
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
        server.shutdown();
    }

    #[test]
    fn already_passed_deadline_is_unmeetable() {
        let (client, key, mut rng) = setup(153);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        let pending = server.client().submit_with_deadline(
            xor_chain(1),
            encrypt_bits(&client, &[true, false], &mut rng),
            Duration::ZERO,
        );
        assert_eq!(
            pending.wait().reject_reason(),
            Some(RejectReason::DeadlineUnmeetable)
        );
        assert_eq!(server.stats().rejected, 1);
        server.shutdown();
    }

    #[test]
    fn deadline_expiry_mid_flight_spares_concurrent_circuits() {
        let (client, key, mut rng) = setup(154);
        // The victim's first gate (tag 0, node 2) takes 400 ms against a
        // 120 ms deadline, so it *cannot* finish in time; the reap after
        // that wave resolves it Expired. The bystander shares the
        // super-waves and must complete bit-identical to the eager
        // sequential execution.
        let plan = FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(400)));
        let server =
            CircuitServer::start_with_faults(Arc::clone(&key), 2, ServerConfig::default(), plan);
        let victim_client = server.client();
        let bystander_client = server.client();
        let victim = victim_client.submit_with_deadline(
            xor_chain(2),
            encrypt_bits(&client, &[true, true, false], &mut rng),
            Duration::from_millis(120),
        );
        let net = xor_chain(2);
        let bystander_inputs = encrypt_bits(&client, &[true, false, true], &mut rng);
        let bystander = bystander_client.submit(net.clone(), bystander_inputs.clone());
        assert!(
            matches!(victim.wait(), CircuitOutcome::Expired),
            "the delayed circuit expires"
        );
        let run = bystander
            .wait()
            .completed()
            .expect("bystander survives its neighbor's expiry");
        let sequential = net.execute_sequential(key.as_ref(), &bystander_inputs);
        assert_eq!(
            run.outputs, sequential.outputs,
            "bystander is bit-identical to eager execution"
        );
        let stats = server.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn cancel_resolves_cancelled_and_server_keeps_serving() {
        let (client, key, mut rng) = setup(155);
        let plan = FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(250)));
        let server =
            CircuitServer::start_with_faults(Arc::clone(&key), 1, ServerConfig::default(), plan);
        let handle = server.client();
        let victim = handle.submit(
            xor_chain(2),
            encrypt_bits(&client, &[true, false, true], &mut rng),
        );
        // The flag is set while the victim is queued or inside its
        // delayed first wave; the scheduler observes it at admission or
        // at the next reap — both resolve Cancelled before wave two.
        victim.cancel();
        assert!(matches!(victim.wait(), CircuitOutcome::Cancelled));
        assert_eq!(server.stats().cancelled, 1);
        // The scheduler keeps serving afterwards.
        let bits = [true, true];
        let run = handle
            .submit(xor_chain(1), encrypt_bits(&client, &bits, &mut rng))
            .wait()
            .completed()
            .expect("server live after a cancellation");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        server.shutdown();
    }

    #[test]
    fn worker_death_heals_and_circuit_completes() {
        let (client, key, mut rng) = setup(156);
        // Kill the worker picking up the first gate: the pool must
        // respawn it, retry the task, and the circuit still completes —
        // with the restart surfaced in the scheduler stats.
        let plan = FaultPlan::new().inject(0, 2, FaultAction::KillWorker);
        let server =
            CircuitServer::start_with_faults(Arc::clone(&key), 2, ServerConfig::default(), plan);
        let bits = [true, false, true];
        let run = server
            .client()
            .submit(xor_chain(2), encrypt_bits(&client, &bits, &mut rng))
            .wait()
            .completed()
            .expect("circuit completes despite the worker death");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        let stats = server.stats();
        assert!(
            stats.restarts >= 1,
            "the respawn is surfaced (restarts = {})",
            stats.restarts
        );
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.faulted, 0, "a healed death is not a fault");
        server.shutdown();
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let newer = SchedulerStats {
            dispatches: 10,
            tasks: 40,
            slots: 48,
            max_in_flight: 3,
            completed: 5,
            faulted: 1,
            rejected: 2,
            expired: 1,
            cancelled: 1,
            restarts: 1,
            rewrites_refused: 1,
            sums_demoted: 2,
            per_client: vec![(
                0,
                ClientTally {
                    completed: 5,
                    rejected: 2,
                },
            )],
        };
        let older = SchedulerStats {
            dispatches: 4,
            tasks: 16,
            slots: 20,
            max_in_flight: 2,
            completed: 2,
            faulted: 0,
            rejected: 1,
            expired: 0,
            cancelled: 0,
            restarts: 0,
            rewrites_refused: 0,
            sums_demoted: 1,
            per_client: vec![(
                0,
                ClientTally {
                    completed: 2,
                    rejected: 1,
                },
            )],
        };
        let delta = newer.since(&older);
        assert_eq!(delta.dispatches, 6);
        assert_eq!(delta.completed, 3);
        assert_eq!(delta.per_client[0].1.completed, 3);
        // Feeding the snapshots in the wrong order must yield zeros, not
        // a debug-build underflow panic (racy snapshots can look exactly
        // like this).
        let reversed = older.since(&newer);
        assert_eq!(reversed.dispatches, 0);
        assert_eq!(reversed.tasks, 0);
        assert_eq!(reversed.slots, 0);
        assert_eq!(reversed.completed, 0);
        assert_eq!(reversed.faulted, 0);
        assert_eq!(reversed.rejected, 0);
        assert_eq!(reversed.expired, 0);
        assert_eq!(reversed.cancelled, 0);
        assert_eq!(reversed.restarts, 0);
        assert_eq!(reversed.rewrites_refused, 0);
        assert_eq!((delta.sums_demoted, reversed.sums_demoted), (1, 0));
        assert_eq!(reversed.per_client[0].1, ClientTally::default());
    }

    #[test]
    fn per_client_tallies_track_completed_and_rejected() {
        let (client, key, mut rng) = setup(157);
        let server = CircuitServer::start(Arc::clone(&key), 1);
        let a = server.client();
        let b = server.client();
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
        for _ in 0..2 {
            let bits = [true, false];
            let run = a
                .submit(xor_chain(1), encrypt_bits(&client, &bits, &mut rng))
                .wait()
                .completed()
                .expect("server live");
            assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        }
        let bad = b.submit(xor_chain(2), vec![client.encrypt_with(true, &mut rng)]);
        assert_eq!(bad.wait().reject_reason(), Some(RejectReason::InvalidInput));
        let stats = server.stats();
        assert_eq!(
            stats.per_client,
            vec![
                (
                    0,
                    ClientTally {
                        completed: 2,
                        rejected: 0
                    }
                ),
                (
                    1,
                    ClientTally {
                        completed: 0,
                        rejected: 1
                    }
                ),
            ]
        );
        server.shutdown();
    }

    #[test]
    fn analysis_policy_rejects_malformed_netlist_with_lint_reason() {
        let (client, key, mut rng) = setup(170);
        let config = ServerConfig {
            analysis: Some(AnalysisPolicy::default()),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(Arc::clone(&key), 1, config);
        let handle = server.client();
        // A netlist burning a bootstrap on a node no output depends on.
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let live = net.gate(Gate::Xor, a, b);
        let dead = net.gate(Gate::And, a, b);
        net.mark_output(live);
        let ticket = handle.submit(net, encrypt_bits(&client, &[true, false], &mut rng));
        assert_eq!(
            ticket.wait().reject_reason(),
            Some(RejectReason::Lint {
                kind: LintKind::DeadNode,
                node: dead
            })
        );
        assert_eq!(server.stats().rejected, 1);
        server.shutdown();
    }

    #[test]
    fn analysis_policy_rejects_over_budget_circuit_with_noise_bound() {
        // Deliberately noisy gate-level samples: the key-switching key's
        // N·t fresh-noise contributions push the analytic per-output
        // failure bound far past any sane budget.
        let params = ParameterSet {
            lwe_noise_stdev: 5e-3,
            ..ParameterSet::TEST_FAST
        };
        let model = NoiseModel::new(&params, 1);
        let policy = AnalysisPolicy::default();
        match admit(xor_chain(2), &model, &policy, |n| analyze::simplify(n).0) {
            Err(RejectReason::NoiseBudget {
                output,
                bound,
                budget,
            }) => {
                assert_eq!(output, 0);
                assert!(bound > budget, "bound {bound} must exceed budget {budget}");
                assert_eq!(budget, crate::analyze::DEFAULT_FAILURE_BUDGET);
            }
            other => panic!("expected a noise-budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn analysis_policy_admits_clean_circuits_and_denies_warnings_when_strict() {
        let (client, key, mut rng) = setup(172);
        // Default policy: a clean circuit runs to completion.
        let config = ServerConfig {
            analysis: Some(AnalysisPolicy::default()),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(Arc::clone(&key), 1, config);
        let handle = server.client();
        let bits = [true, false, true];
        let run = handle
            .submit(xor_chain(2), encrypt_bits(&client, &bits, &mut rng))
            .wait()
            .completed()
            .expect("clean circuit admitted and completed");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        server.shutdown();

        // Strict policy: a warning-level (constant-foldable) circuit is
        // turned away with the structured lint.
        let strict = ServerConfig {
            analysis: Some(AnalysisPolicy {
                deny: crate::analyze::Severity::Warning,
                ..AnalysisPolicy::default()
            }),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(Arc::clone(&key), 1, strict);
        let handle = server.client();
        let mut net = CircuitNetlist::new();
        let x = net.input();
        let t = net.constant(true);
        let g = net.gate(Gate::And, x, t);
        net.mark_output(g);
        let ticket = handle.submit(net, encrypt_bits(&client, &[true], &mut rng));
        assert_eq!(
            ticket.wait().reject_reason(),
            Some(RejectReason::Lint {
                kind: LintKind::ConstantFoldable,
                node: g
            })
        );
        server.shutdown();
    }

    /// A rewrite that runs the real [`analyze::simplify`] and then turns
    /// the first XOR it finds into something else (XNOR, or a majority
    /// where the XORs were fused) — a deliberately unsound rewrite the
    /// equivalence gate must refute.
    fn broken_pass(net: &CircuitNetlist) -> CircuitNetlist {
        use crate::circuit::GateOp;
        use crate::gates::Gate3;
        let (simplified, _) = analyze::simplify(net);
        let mut ops = simplified.ops().to_vec();
        for op in ops.iter_mut() {
            *op = match *op {
                GateOp::Binary(Gate::Xor, a, b) => GateOp::Binary(Gate::Xnor, a, b),
                GateOp::Ternary(Gate3::Xor3, a, b, c) => GateOp::Ternary(Gate3::Maj, a, b, c),
                _ => continue,
            };
            break;
        }
        CircuitNetlist::from_parts(ops, simplified.outputs().to_vec())
            .expect("mutated netlist keeps the canonical shape")
    }

    fn equiv_policy(deny: crate::analyze::Severity, budget: equiv::EquivBudget) -> ServerConfig {
        ServerConfig {
            analysis: Some(AnalysisPolicy {
                deny,
                require_equivalence: Some(budget),
                ..AnalysisPolicy::default()
            }),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn equiv_policy_schedules_the_proven_simplification() {
        let (client, key, mut rng) = setup(180);
        // Submission: x AND true — one bootstrap as submitted, zero after
        // the (proven) constant fold.
        let mut net = CircuitNetlist::new();
        let x = net.input();
        let t = net.constant(true);
        let g = net.gate(Gate::And, x, t);
        net.mark_output(g);
        let config = equiv_policy(
            crate::analyze::Severity::Error,
            equiv::EquivBudget::default(),
        );
        let server = CircuitServer::start_with(Arc::clone(&key), 1, config);
        let handle = server.client();
        let run = handle
            .submit(net, encrypt_bits(&client, &[true], &mut rng))
            .wait()
            .completed()
            .expect("proven rewrite admitted and completed");
        assert!(client.decrypt(&run.outputs[0]));
        assert_eq!(
            run.bootstraps, 0,
            "the scheduled netlist must be the simplified one"
        );
        server.shutdown();
    }

    #[test]
    fn rewrite_over_the_noise_budget_is_refused_and_the_submission_runs() {
        // One cell of a multiplier: a full adder over three products. As
        // submitted every decision reads two bootstrapped operands; fused,
        // its XOR3 and MAJ read three, and the failure bound is larger;
        // riding, its sum leaves with all three's noise, and larger still.
        let mut net = CircuitNetlist::new();
        let ins: Vec<usize> = (0..6).map(|_| net.input()).collect();
        let [x, y, z] = [0, 2, 4].map(|i| net.gate(Gate::And, ins[i], ins[i + 1]));
        let xy = net.gate(Gate::Xor, x, y);
        let sum = net.gate(Gate::Xor, xy, z);
        let generate = net.gate(Gate::And, x, y);
        let propagate = net.gate(Gate::And, xy, z);
        let carry = net.gate(Gate::Or, generate, propagate);
        net.mark_output(sum);
        net.mark_output(carry);
        // Ring noise large enough for a bootstrapped value's variance to
        // tell the forms apart (`TEST_FAST`'s bounds underflow to zero),
        // small enough to decrypt.
        let params = ParameterSet {
            ring_noise_stdev: 2.5e-7,
            ..ParameterSet::TEST_FAST
        };
        let mut rng = StdRng::seed_from_u64(183);
        let client = ClientKey::generate(params, &mut rng);
        let key = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let bound = |n: &CircuitNetlist| analyze::analyze(n, &params, 1).max_failure_prob();
        let (riding, _) = analyze::simplify(&net);
        let fused = analyze::demote_sums(&riding);
        let (as_submitted, as_fused, as_riding) = (bound(&net), bound(&fused), bound(&riding));
        assert!(as_submitted > 0.0 && as_submitted * 1e3 < as_fused);
        assert!(as_fused * 1e3 < as_riding && as_riding < crate::analyze::DEFAULT_FAILURE_BUDGET);
        let ran = [net.bootstraps(), fused.bootstraps(), riding.bootstraps()];
        assert_eq!(ran, [8, 5, 4]);

        // The ladder, one rung a budget — (budget, bootstraps that ran, sums
        // demoted, rewrites refused): below the fused netlist's bound the
        // submission runs, between it and the riding one's the sum is back
        // on a bootstrap of its own, and the default takes the cell.
        let tight = (as_submitted * as_fused).sqrt();
        let middle = (as_fused * as_riding).sqrt();
        let loose = crate::analyze::DEFAULT_FAILURE_BUDGET;
        for (budget, ran, demoted, refused) in
            [(tight, 8, 1, 1), (middle, 5, 1, 0), (loose, 4, 0, 0)]
        {
            let config = ServerConfig {
                analysis: Some(AnalysisPolicy {
                    max_failure_prob: budget,
                    require_equivalence: Some(equiv::EquivBudget::default()),
                    ..AnalysisPolicy::default()
                }),
                ..ServerConfig::default()
            };
            let server = CircuitServer::start_with(Arc::clone(&key), 1, config);
            let handle = server.client();
            for row in [0b111111u8, 0b011110, 0b110011] {
                let bits: Vec<bool> = (0..6).map(|i| row >> i & 1 == 1).collect();
                let run = handle
                    .submit(net.clone(), encrypt_bits(&client, &bits, &mut rng))
                    .wait()
                    .completed()
                    .expect("every rung is inside its budget");
                assert_eq!(run.bootstraps, ran, "budget {budget:e}");
                let ones = (0..3).filter(|i| bits[2 * i] && bits[2 * i + 1]).count();
                assert_eq!(client.decrypt(&run.outputs[0]), ones % 2 == 1);
                assert_eq!(client.decrypt(&run.outputs[1]), ones >= 2);
            }
            let stats = server.stats();
            assert_eq!(
                (stats.completed, stats.sums_demoted, stats.rewrites_refused),
                (3, 3 * demoted, 3 * refused),
                "budget {budget:e}"
            );
            server.shutdown();
        }
    }

    #[test]
    fn admit_walks_the_ladder_by_budget() {
        // `rewrite_over_the_noise_budget…`'s multiplier cell and model,
        // without its keys or a server.
        let mut net = CircuitNetlist::new();
        let ins: Vec<usize> = (0..6).map(|_| net.input()).collect();
        let [x, y, z] = [0, 2, 4].map(|i| net.gate(Gate::And, ins[i], ins[i + 1]));
        let xy = net.gate(Gate::Xor, x, y);
        let sum = net.gate(Gate::Xor, xy, z);
        let generate = net.gate(Gate::And, x, y);
        let propagate = net.gate(Gate::And, xy, z);
        let carry = net.gate(Gate::Or, generate, propagate);
        net.mark_output(sum);
        net.mark_output(carry);
        let params = ParameterSet {
            ring_noise_stdev: 2.5e-7,
            ..ParameterSet::TEST_FAST
        };
        let model = NoiseModel::new(&params, 1);
        let bound = |n: &CircuitNetlist| analyze::report(n, &model).max_failure_prob();
        let (riding, _) = analyze::simplify(&net);
        let fused = analyze::demote_sums(&riding);
        let (as_submitted, as_fused, as_riding) = (bound(&net), bound(&fused), bound(&riding));
        let admit_within = |max_failure_prob| {
            let policy = AnalysisPolicy {
                max_failure_prob,
                require_equivalence: Some(equiv::EquivBudget::default()),
                ..AnalysisPolicy::default()
            };
            admit(net.clone(), &model, &policy, |n| analyze::simplify(n).0)
        };
        let refused = Rung::Refused { demoted: true };
        for (budget, rung, ran) in [
            ((as_submitted * as_fused).sqrt(), refused, 8),
            ((as_fused * as_riding).sqrt(), Rung::SumsDemoted, 5),
            (crate::analyze::DEFAULT_FAILURE_BUDGET, Rung::Rewritten, 4),
        ] {
            let admitted = admit_within(budget).expect("every rung is inside its budget");
            assert_eq!((admitted.rung, admitted.netlist.bootstraps()), (rung, ran));
        }
        // Below the submission's own bound no rewrite is tried.
        let below = as_submitted / 2.0;
        assert!(matches!(
            admit_within(below),
            Err(RejectReason::NoiseBudget { bound, budget, .. }) if bound > budget && budget == below
        ));
    }

    #[test]
    fn broken_rewrite_pass_is_refuted_with_a_replayable_counterexample() {
        let policy = AnalysisPolicy {
            require_equivalence: Some(equiv::EquivBudget::default()),
            ..AnalysisPolicy::default()
        };
        let model = NoiseModel::new(&ParameterSet::TEST_FAST, 1);
        let submitted = xor_chain(2);
        match admit(submitted.clone(), &model, &policy, broken_pass) {
            Err(RejectReason::NotEquivalent {
                output,
                counterexample,
            }) => {
                assert_eq!(output, 0);
                // Replay the counterexample through eager evaluation: it
                // must actually distinguish the submission from what the
                // broken pass produced.
                let broken = broken_pass(&submitted);
                let want = equiv::eval_netlist(&submitted, &counterexample.bits);
                let got = equiv::eval_netlist(&broken, &counterexample.bits);
                assert_ne!(
                    want[output], got[output],
                    "counterexample on {counterexample}"
                );
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn equiv_unknown_rejects_strict_policies_and_admits_lenient_ones() {
        // An input budget of 1 makes every 3-input check come back
        // Unknown without spending any BDD work.
        let tiny = equiv::EquivBudget {
            max_nodes: 1 << 20,
            max_inputs: 1,
        };
        let model = NoiseModel::new(&ParameterSet::TEST_FAST, 1);
        let admit_under = |deny| {
            let policy = equiv_policy(deny, tiny).analysis.expect("a policy");
            admit(xor_chain(2), &model, &policy, |n| analyze::simplify(n).0)
        };
        // Strict (deny: Warning): the unproven rewrite is fatal.
        assert_eq!(
            admit_under(crate::analyze::Severity::Warning),
            Err(RejectReason::Lint {
                kind: LintKind::EquivUnknown,
                node: 0
            })
        );
        // Lenient (deny: Error): the submission runs unrewritten.
        let lenient = admit_under(crate::analyze::Severity::Error);
        assert_eq!(
            lenient,
            Ok(Admitted {
                netlist: xor_chain(2),
                rung: Rung::Submitted
            })
        );
    }

    /// A job of `client` on `net`, with its ticket's receiving end and
    /// cancel flag — what a [`CircuitClient`] would queue.
    fn job(
        net: CircuitNetlist,
        inputs: Vec<LweCiphertext>,
        client: u64,
        deadline: Option<Instant>,
    ) -> (CircuitJob, mpsc::Receiver<CircuitOutcome>, Arc<AtomicBool>) {
        let (reply, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let ticket = Ticket {
            reply,
            client,
            deadline,
            cancel: Arc::clone(&cancel),
        };
        let inputs = SessionInputs::Lwe(inputs);
        let job = CircuitJob {
            netlist: net,
            inputs,
            ticket,
        };
        (job, rx, cancel)
    }

    fn scheduler(config: ServerConfig) -> Scheduler {
        Scheduler::new(
            config,
            NoiseModel::new(&ParameterSet::TEST_FAST, 1),
            1,
            FaultPlan::new(),
        )
    }

    /// One dispatch as the scheduler thread runs it, with the clock read
    /// as `filled` before the pool runs and as `done` after; returns the
    /// batch.
    fn dispatch(
        s: &mut Scheduler,
        pool: &GateBatchPool<F64Fft>,
        filled: Instant,
        done: Instant,
    ) -> Vec<SlabTask> {
        let mut batch = Vec::new();
        send(s.fill(&mut batch, filled));
        let failures = pool.run_tasks(&batch);
        send(s.complete(&batch, failures, pool.restarts(), done));
        batch
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn scheduler_dead_circuits_free_their_admission_slots() {
        let (client, key, mut rng) = setup(190);
        let pool = GateBatchPool::new(Arc::clone(&key), 1);
        let config = ServerConfig {
            per_client_quota: 1,
            ..ServerConfig::default()
        };
        let mut s = scheduler(config);
        let t0 = Instant::now();
        // A needs two waves by t0 + 10 ms, and the clock passes its
        // deadline during wave one; A2 arrives after that wave.
        let (a, a_rx, _) = job(
            xor_chain(2),
            encrypt_bits(&client, &[true; 3], &mut rng),
            0,
            Some(t0 + 10 * MS),
        );
        send(s.admit(a, pool.server(), t0));
        dispatch(&mut s, &pool, t0, t0 + 20 * MS);
        let bits = [true, false];
        let (a2, a2_rx, _) = job(
            xor_chain(1),
            encrypt_bits(&client, &bits, &mut rng),
            0,
            None,
        );
        send(s.admit(a2, pool.server(), t0 + 21 * MS));
        assert_eq!(a_rx.try_recv().ok(), Some(CircuitOutcome::Expired));
        assert!(a2_rx.try_recv().is_err(), "A2 holds the slot A gave up");
        // B's wave one ends just inside its deadline, which has passed by
        // the time B2 arrives: admitting B2 reaps B first.
        let (b, b_rx, _) = job(
            xor_chain(2),
            encrypt_bits(&client, &[true; 3], &mut rng),
            1,
            Some(t0 + 40 * MS),
        );
        send(s.admit(b, pool.server(), t0 + 30 * MS));
        dispatch(&mut s, &pool, t0 + 30 * MS, t0 + 39 * MS);
        let run = a2_rx
            .try_recv()
            .ok()
            .and_then(CircuitOutcome::completed)
            .expect("A2 ran");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        assert!(b_rx.try_recv().is_err(), "B is alive after wave one");
        let (b2, b2_rx, _) = job(
            xor_chain(1),
            encrypt_bits(&client, &bits, &mut rng),
            1,
            None,
        );
        send(s.admit(b2, pool.server(), t0 + 40 * MS));
        assert_eq!(b_rx.try_recv().ok(), Some(CircuitOutcome::Expired));
        dispatch(&mut s, &pool, t0 + 40 * MS, t0 + 50 * MS);
        assert!(b2_rx.try_recv().is_ok_and(|o| o.is_completed()));
        let stats = lock(&s.stats).clone();
        assert_eq!((stats.expired, stats.completed, stats.rejected), (2, 2, 0));
    }

    #[test]
    fn scheduler_admits_until_the_deadline_instant() {
        let (client, key, mut rng) = setup(191);
        let mut s = scheduler(ServerConfig::default());
        let deadline = Instant::now() + 10 * MS;
        let inputs = encrypt_bits(&client, &[true, false], &mut rng);
        let (at, at_rx, _) = job(xor_chain(1), inputs.clone(), 0, Some(deadline));
        send(s.admit(at, &key, deadline));
        assert_eq!(
            at_rx.try_recv().ok().and_then(|o| o.reject_reason()),
            Some(RejectReason::DeadlineUnmeetable)
        );
        assert!(s.is_idle());
        let (before, before_rx, _) = job(xor_chain(1), inputs, 0, Some(deadline));
        send(s.admit(before, &key, deadline - Duration::from_nanos(1)));
        assert!(before_rx.try_recv().is_err(), "admitted, not resolved");
        assert!(!s.is_idle());
    }

    #[test]
    fn scheduler_last_wave_at_the_deadline_completes() {
        let (client, key, mut rng) = setup(192);
        let pool = GateBatchPool::new(Arc::clone(&key), 1);
        let mut s = scheduler(ServerConfig::default());
        let t0 = Instant::now();
        let deadline = t0 + 10 * MS;
        let bits = [false, true, true];
        let (j, rx, _) = job(
            xor_chain(2),
            encrypt_bits(&client, &bits, &mut rng),
            0,
            Some(deadline),
        );
        send(s.admit(j, pool.server(), t0));
        dispatch(&mut s, &pool, t0, t0 + 5 * MS);
        // The last wave lands in the step where the deadline passes.
        dispatch(&mut s, &pool, t0 + 5 * MS, deadline);
        let run = rx
            .try_recv()
            .ok()
            .and_then(CircuitOutcome::completed)
            .expect("completed");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        assert_eq!(
            run.elapsed_s,
            (deadline - t0).as_secs_f64(),
            "timed by the scripted clock"
        );
        assert!(s.is_idle());
        let stats = lock(&s.stats).clone();
        assert_eq!(
            (stats.completed, stats.expired, stats.dispatches),
            (1, 0, 2)
        );
    }

    #[test]
    fn scheduler_cancel_outranks_expiry() {
        let (client, key, mut rng) = setup(193);
        let pool = GateBatchPool::new(Arc::clone(&key), 1);
        let mut s = scheduler(ServerConfig::default());
        let t0 = Instant::now();
        let inputs = encrypt_bits(&client, &[true, false, true], &mut rng);
        let (j, rx, cancel) = job(xor_chain(2), inputs, 0, Some(t0 + 10 * MS));
        send(s.admit(j, pool.server(), t0));
        dispatch(&mut s, &pool, t0, t0 + 5 * MS);
        cancel.store(true, Ordering::Relaxed);
        let mut batch = Vec::new();
        send(s.fill(&mut batch, t0 + 20 * MS));
        assert_eq!(rx.try_recv().ok(), Some(CircuitOutcome::Cancelled));
        assert!(
            batch.is_empty() && s.is_idle(),
            "its second wave never runs"
        );
        let stats = lock(&s.stats).clone();
        assert_eq!((stats.cancelled, stats.expired, stats.tasks), (1, 0, 1));
    }

    #[test]
    fn scheduler_fill_takes_oldest_circuit_first() {
        let (client, key, mut rng) = setup(194);
        let mut s = scheduler(ServerConfig::default());
        let t0 = Instant::now();
        // Two independent gates: a wave of two.
        let mut pair = CircuitNetlist::new();
        let (a, b) = (pair.input(), pair.input());
        for gate in [Gate::And, Gate::Or] {
            let g = pair.gate(gate, a, b);
            pair.mark_output(g);
        }
        for net in [xor_chain(1), pair, xor_chain(3)] {
            let inputs = encrypt_bits(&client, &vec![true; net.num_inputs()], &mut rng);
            send(s.admit(job(net, inputs, 0, None).0, &key, t0));
        }
        let mut batch = Vec::new();
        send(s.fill(&mut batch, t0));
        let taken: Vec<(u64, usize)> = (s.owners.iter().zip(&batch))
            .map(|(&ci, t)| (s.in_flight[ci].tag, t.node))
            .collect();
        assert_eq!(taken, [(0, 2), (1, 2), (1, 3), (2, 2)]);
    }

    #[test]
    fn scheduler_tags_only_admitted_circuits() {
        let (client, key, mut rng) = setup(195);
        let config = ServerConfig {
            per_client_quota: 1,
            ..ServerConfig::default()
        };
        let mut s = scheduler(config);
        let t0 = Instant::now();
        let inputs = encrypt_bits(&client, &[true, false], &mut rng);
        let mut submit = |client: u64, inputs: Vec<LweCiphertext>, deadline, cancelled: bool| {
            let (j, rx, cancel) = job(xor_chain(1), inputs, client, deadline);
            cancel.store(cancelled, Ordering::Relaxed);
            send(s.admit(j, &key, t0));
            rx.try_recv().ok()
        };
        // Cancelled before admission, deadline already passed, one input
        // short (faults at admission): none is admitted, none takes a tag.
        assert_eq!(
            submit(0, inputs.clone(), None, true),
            Some(CircuitOutcome::Cancelled)
        );
        let unmeetable = Some(RejectReason::DeadlineUnmeetable);
        assert_eq!(
            submit(0, inputs.clone(), Some(t0), false).and_then(|o| o.reject_reason()),
            unmeetable
        );
        assert!(submit(0, inputs[..1].to_vec(), None, false).is_some_and(|o| o.is_faulted()));
        assert_eq!(submit(0, inputs.clone(), None, false), None);
        let quota = Some(RejectReason::QuotaExceeded);
        assert_eq!(
            submit(0, inputs.clone(), None, false).and_then(|o| o.reject_reason()),
            quota
        );
        assert_eq!(submit(1, inputs, None, false), None);
        let mut batch = Vec::new();
        send(s.fill(&mut batch, t0));
        let tags: Vec<u64> = s.owners.iter().map(|&ci| s.in_flight[ci].tag).collect();
        assert_eq!(tags, [0, 1], "the two admitted circuits are 0 and 1");
    }

    #[test]
    fn scheduler_attaches_each_site_to_its_task_at_fill() {
        let (client, key, mut rng) = setup(197);
        let pool = GateBatchPool::new(Arc::clone(&key), 1);
        // Node 4 is a chain's second XOR: the site waits for the second
        // wave of the second admitted circuit.
        let plan = FaultPlan::new().inject(1, 4, FaultAction::Panic);
        let model = NoiseModel::new(&ParameterSet::TEST_FAST, 1);
        let mut s = Scheduler::new(ServerConfig::default(), model, 1, plan);
        let t0 = Instant::now();
        let bits = [true, false, true];
        let mut submit = |s: &mut Scheduler, deadline| {
            let inputs = encrypt_bits(&client, &bits, &mut rng);
            let (j, rx, _) = job(xor_chain(2), inputs, 0, deadline);
            send(s.admit(j, &key, t0));
            rx
        };
        let a = submit(&mut s, None);
        // Turned away at admission, so it takes no admission number: the
        // next circuit is still the second admitted.
        let turned_away = submit(&mut s, Some(t0));
        let b = submit(&mut s, None);
        let unmeetable = Some(RejectReason::DeadlineUnmeetable);
        assert!(turned_away
            .try_recv()
            .is_ok_and(|o| o.reject_reason() == unmeetable));
        let sites = |batch: &[SlabTask]| -> Vec<(usize, Option<FaultAction>)> {
            batch.iter().map(|t| (t.node, t.fault)).collect()
        };
        let wave = dispatch(&mut s, &pool, t0, t0);
        assert_eq!(sites(&wave), [(2, None), (2, None)]);
        let wave = dispatch(&mut s, &pool, t0, t0);
        assert_eq!(sites(&wave), [(4, None), (4, Some(FaultAction::Panic))]);
        assert!(a.try_recv().is_ok_and(|o| o.is_completed()));
        let faulted = b.try_recv().ok();
        assert!(
            matches!(&faulted, Some(CircuitOutcome::Faulted(msg)) if msg.contains("injected fault")),
            "{faulted:?}"
        );
        // The site is spent: the next fill attaches nothing.
        let c = submit(&mut s, None);
        let wave = dispatch(&mut s, &pool, t0, t0);
        let wave = [wave, dispatch(&mut s, &pool, t0, t0)].concat();
        assert_eq!(sites(&wave), [(2, None), (4, None)]);
        assert!(c.try_recv().is_ok_and(|o| o.is_completed()));
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let (client, key, mut rng) = setup(196);
        let config = ServerConfig {
            default_deadline: Some(Duration::MAX),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(Arc::clone(&key), 1, config);
        let handle = server.client();
        let bits = [true, false];
        let by_default = handle.submit(xor_chain(1), encrypt_bits(&client, &bits, &mut rng));
        let explicit = handle.submit_with_deadline(
            xor_chain(1),
            encrypt_bits(&client, &bits, &mut rng),
            Duration::MAX,
        );
        for ticket in [by_default, explicit] {
            let run = ticket.wait().completed().expect("runs unbounded");
            assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        }
        server.shutdown();
    }
}
