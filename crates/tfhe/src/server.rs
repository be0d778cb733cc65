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
//!   [`PendingCircuit::cancel`] flags between dispatches, resolves the
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
//! Every guarantee above is pinned by deterministic tests driving the
//! [`faults`](crate::faults) module through
//! [`CircuitServer::start_with_faults`]: each admitted circuit's slab is
//! tagged with its admission sequence number (0, 1, 2, … in queue
//! order), so a [`FaultPlan`] can script a
//! panic, delay, or worker death at an exact `(circuit, node)` point.
//!
//! Shutdown is graceful: circuits admitted before [`CircuitServer::shutdown`]
//! still run to completion, later submissions resolve to
//! [`CircuitOutcome::Rejected`] with [`RejectReason::Shutdown`].

use crate::analyze::equiv::{self, Counterexample, Verdict};
use crate::analyze::{self, AnalysisPolicy, LintKind, SimplifyReport};
use crate::batch::{panic_message, GateBatchPool, SlabTask};
use crate::circuit::{CircuitFrontier, CircuitNetlist, CircuitRun, GateOp};
use crate::faults::FaultPlan;
use crate::gates::ServerKey;
use crate::lwe::LweCiphertext;
use crate::packing;
use crate::params::ParameterSet;
use crate::tlwe::TrlweCiphertext;
use matcha_fft::FftEngine;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control knobs for a [`CircuitServer`]. The default is the
/// pre-robustness behavior: unbounded in-flight set, unbounded per-client
/// share, no deadline.
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
    /// Static-analysis admission policy: when set, every submission is
    /// [`analyze`](crate::analyze::analyze)d before admission and rejected
    /// with [`RejectReason::Lint`] or [`RejectReason::NoiseBudget`] when it
    /// trips the policy's lint-severity or failure-probability knob.
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

/// A netlist rewrite pass the scheduler may substitute for a submission
/// at admission, returning the rewritten netlist and what it changed.
/// The default pass is [`analyze::simplify`], gate fusion and riding sums
/// included; the point of the type is that **any** pass plugged in here is
/// automatically subject to the [`AnalysisPolicy::require_equivalence`]
/// BDD proof and to the policy's noise budget: the server only schedules a
/// rewrite it has proven function-identical to the submission and
/// certified within [`AnalysisPolicy::max_failure_prob`] *as it runs*; an
/// unproven one is either rejected (strict policies) or ignored in favor
/// of the submitted netlist, and one over budget steps down a ladder, each
/// step counted: its sums back on bootstraps of their own
/// ([`analyze::demote_sums`], [`SchedulerStats::sums_demoted`]), then the
/// submission ([`SchedulerStats::rewrites_refused`]).
pub type RewritePass = fn(&CircuitNetlist) -> (CircuitNetlist, SimplifyReport);

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
    /// The admission-time equivalence proof **refuted** the server's
    /// rewrite pass on this circuit: the rewrite and the submission
    /// disagree on an output, and the counterexample is an input
    /// assignment on which they differ. Scheduling either would be
    /// gambling, so the circuit is turned away with the evidence.
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

/// The input payload of one queued circuit: extracted-key samples per
/// slot, or packed TRLWE transport samples the scheduler unpacks at
/// admission (sample-extracted straight into the run's slab).
enum CircuitInputs {
    Lwe(Vec<LweCiphertext>),
    Packed(Vec<TrlweCiphertext>),
}

/// One queued circuit execution request.
struct CircuitJob {
    netlist: CircuitNetlist,
    inputs: CircuitInputs,
    reply: mpsc::Sender<CircuitOutcome>,
    /// Submitting client handle's identity, for quotas and tallies.
    client: u64,
    /// Absolute wall-clock bound, if any.
    deadline: Option<Instant>,
    /// Set by [`PendingCircuit::cancel`]; checked at admission and
    /// between dispatches.
    cancel: Arc<AtomicBool>,
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

/// Live scheduler counters, shared with [`CircuitServer::stats`] readers.
#[derive(Default)]
struct StatsCells {
    dispatches: AtomicU64,
    tasks: AtomicU64,
    slots: AtomicU64,
    max_in_flight: AtomicU64,
    completed: AtomicU64,
    faulted: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    restarts: AtomicU64,
    rewrites_refused: AtomicU64,
    sums_demoted: AtomicU64,
    per_client: Mutex<BTreeMap<u64, ClientTally>>,
}

impl StatsCells {
    fn tally_completed(&self, client: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.per_client
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(client)
            .or_default()
            .completed += 1;
    }

    /// Counts a structured rejection against `client` and resolves the
    /// ticket. Used by the scheduler at admission and by the client
    /// handle for boundary (`InvalidInput`) rejections.
    fn reject(&self, client: u64, reason: RejectReason, reply: &mpsc::Sender<CircuitOutcome>) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.per_client
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(client)
            .or_default()
            .rejected += 1;
        let _ = reply.send(CircuitOutcome::Rejected(reason));
    }
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
    /// counter: the later snapshot's value is kept as-is. Every field
    /// saturates at zero, so feeding snapshots in the wrong order (or
    /// racing a snapshot against a concurrent update) yields zeros, never
    /// an underflow panic.
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
    stats: Arc<StatsCells>,
    params: ParameterSet,
    default_deadline: Option<Duration>,
    next_client: AtomicU64,
}

/// One circuit in flight on the scheduler.
struct InFlight {
    frontier: CircuitFrontier,
    reply: mpsc::Sender<CircuitOutcome>,
    client: u64,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

/// Admission: applies the [`ServerConfig`] bounds, then builds a frontier
/// for the job, tagging its slab with the admission sequence number
/// (`next_tag`) fault plans key on. Admission-time panics (malformed
/// netlists or inputs that slipped past submit-side validation) fault
/// only this circuit, not the scheduler.
fn admit<E>(
    in_flight: &mut Vec<InFlight>,
    job: CircuitJob,
    pool: &GateBatchPool<E>,
    stats: &StatsCells,
    config: &ServerConfig,
    rewrite: RewritePass,
    next_tag: &mut u64,
) where
    E: FftEngine + Send + Sync + 'static,
{
    let CircuitJob {
        mut netlist,
        inputs,
        reply,
        client,
        deadline,
        cancel,
    } = job;
    // A cancel that raced ahead of admission: honor it without running.
    if cancel.load(Ordering::Relaxed) {
        stats.cancelled.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(CircuitOutcome::Cancelled);
        return;
    }
    if in_flight.len() >= config.queue_depth {
        stats.reject(client, RejectReason::QueueFull, &reply);
        return;
    }
    if in_flight.iter().filter(|fl| fl.client == client).count() >= config.per_client_quota {
        stats.reject(client, RejectReason::QuotaExceeded, &reply);
        return;
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        stats.reject(client, RejectReason::DeadlineUnmeetable, &reply);
        return;
    }
    // Static-analysis admission: certify structure and noise budget
    // before a single bootstrap is spent on this circuit.
    if let Some(policy) = config.analysis {
        let certify = |net: &CircuitNetlist| {
            analyze::analyze(net, pool.server().params(), pool.server().unroll())
        };
        let report = certify(&netlist);
        if let Some(l) = report.worst_lint_at_least(policy.deny) {
            let reason = RejectReason::Lint {
                kind: l.kind,
                node: l.node,
            };
            stats.reject(client, reason, &reply);
            return;
        }
        if let Some((output, o)) = report
            .noise
            .outputs
            .iter()
            .enumerate()
            .find(|(_, o)| o.failure_prob > policy.max_failure_prob)
        {
            let reason = RejectReason::NoiseBudget {
                output,
                bound: o.failure_prob,
                budget: policy.max_failure_prob,
            };
            stats.reject(client, reason, &reply);
            return;
        }
        // Formal-equivalence gate: run the rewrite pass and schedule its
        // output only under a BDD proof that it computes the submitted
        // function, and only if it too is inside the noise budget — a
        // rewrite may trade noise resets for bootstraps (a fused
        // three-input gate decides on three operands' noise, a riding sum
        // keeps its operands'), so the certificate above does not carry
        // over. A refuted rewrite is rejected with the distinguishing
        // input; one over budget steps down — its sums demoted to gates
        // (the same functions node for node, so the proof stands), then the
        // submission — and an unprovable one (`EquivUnknown`, fatal under a
        // strict `deny`) leaves the submission to run unrewritten.
        if let Some(budget) = policy.require_equivalence {
            let (rewritten, _) = rewrite(&netlist);
            match equiv::check(&netlist, &rewritten, budget).verdict {
                Verdict::Equivalent => {
                    let within = |net: &CircuitNetlist| {
                        certify(net).max_failure_prob() <= policy.max_failure_prob
                    };
                    if within(&rewritten) {
                        netlist = rewritten;
                    } else {
                        let riders = |op: &GateOp| matches!(op, GateOp::Sum(..));
                        let demoted = rewritten.ops().iter().any(riders).then(|| {
                            stats.sums_demoted.fetch_add(1, Ordering::Relaxed);
                            analyze::demote_sums(&rewritten)
                        });
                        match demoted.filter(within) {
                            Some(demoted) => netlist = demoted,
                            None => {
                                stats.rewrites_refused.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Verdict::NotEquivalent {
                    output,
                    counterexample,
                } => {
                    let reason = RejectReason::NotEquivalent {
                        output,
                        counterexample,
                    };
                    stats.reject(client, reason, &reply);
                    return;
                }
                Verdict::Unknown { .. } => {
                    if LintKind::EquivUnknown.severity() >= policy.deny {
                        let reason = RejectReason::Lint {
                            kind: LintKind::EquivUnknown,
                            node: 0,
                        };
                        stats.reject(client, reason, &reply);
                        return;
                    }
                }
            }
        }
    }
    match catch_unwind(AssertUnwindSafe(|| {
        build_frontier(netlist, inputs, pool.server(), *next_tag)
    })) {
        Ok(frontier) => {
            *next_tag += 1;
            in_flight.push(InFlight {
                frontier,
                reply,
                client,
                deadline,
                cancel,
            });
            stats
                .max_in_flight
                .fetch_max(in_flight.len() as u64, Ordering::Relaxed);
        }
        Err(payload) => {
            stats.faulted.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(CircuitOutcome::Faulted(panic_message(payload)));
        }
    }
}

/// Builds the frontier for an admitted job, moving or unpacking its
/// inputs straight into the run's [`ValueSlab`](crate::batch::ValueSlab):
/// per-LWE inputs are *moved* out of the submission (no clone), and
/// packed TRLWE inputs are unpacked ([`packing::extract_bits`]: slot `s` is
/// coefficient `s % N` of sample `s / N`, sample-extracted and nothing
/// else) and moved into their slab cells. Dimension mismatches panic (with the
/// [`packing::extract_bit`] boundary messages) and surface as
/// [`CircuitOutcome::Faulted`] through the caller's `catch_unwind`;
/// validated submissions never hit them.
fn build_frontier<E: FftEngine>(
    netlist: CircuitNetlist,
    inputs: CircuitInputs,
    server: &ServerKey<E>,
    tag: u64,
) -> CircuitFrontier {
    let net = Arc::new(netlist);
    match inputs {
        CircuitInputs::Lwe(inputs) => {
            assert_eq!(
                inputs.len(),
                net.num_inputs(),
                "circuit expects {} inputs, got {}",
                net.num_inputs(),
                inputs.len()
            );
            let mut inputs: Vec<Option<LweCiphertext>> = inputs.into_iter().map(Some).collect();
            CircuitFrontier::with_tag_from(net, server, tag, |slot| {
                inputs[slot].take().expect("input slots fill exactly once")
            })
        }
        CircuitInputs::Packed(samples) => {
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
            CircuitFrontier::with_tag_from(net, server, tag, |slot| std::mem::take(&mut bits[slot]))
        }
    }
}

/// The between-dispatches reap: resolves every in-flight circuit whose
/// cancel flag is set or whose deadline has passed, abandoning its
/// remaining frontier so dead work stops consuming bootstrap slots.
/// Order of the survivors is preserved (admission order).
fn reap(in_flight: &mut Vec<InFlight>, stats: &StatsCells) {
    let now = Instant::now();
    let doomed =
        |fl: &InFlight| fl.cancel.load(Ordering::Relaxed) || fl.deadline.is_some_and(|d| now >= d);
    if !in_flight.iter().any(doomed) {
        return;
    }
    let mut keep = Vec::with_capacity(in_flight.len());
    for fl in in_flight.drain(..) {
        if fl.cancel.load(Ordering::Relaxed) {
            stats.cancelled.fetch_add(1, Ordering::Relaxed);
            fl.frontier.abandon();
            let _ = fl.reply.send(CircuitOutcome::Cancelled);
        } else if fl.deadline.is_some_and(|d| now >= d) {
            stats.expired.fetch_add(1, Ordering::Relaxed);
            fl.frontier.abandon();
            let _ = fl.reply.send(CircuitOutcome::Expired);
        } else {
            keep.push(fl);
        }
    }
    *in_flight = keep;
}

/// The scheduler: admits circuits from the queue (applying the admission
/// bounds), reaps expired/cancelled circuits between dispatches, fills
/// every pool dispatch with the ready frontier of all in-flight circuits
/// (oldest first), routes per-task failures to the owning circuit, and
/// resolves tickets as circuits complete, fault, expire or are cancelled.
fn scheduler_loop<E>(
    key: Arc<ServerKey<E>>,
    threads: usize,
    rx: mpsc::Receiver<Msg>,
    stats: Arc<StatsCells>,
    config: ServerConfig,
    rewrite: RewritePass,
    faults: Option<Arc<FaultPlan>>,
) where
    E: FftEngine + Send + Sync + 'static,
{
    let pool = match faults {
        Some(plan) => GateBatchPool::with_faults(key, threads, plan),
        None => GateBatchPool::new(key, threads),
    };
    let mut in_flight: Vec<InFlight> = Vec::new();
    // Saw Shutdown: finish what is admitted, admit nothing more.
    let mut draining = false;
    // Admission sequence number — the slab tag fault plans key on.
    let mut next_tag: u64 = 0;
    let mut batch: Vec<SlabTask> = Vec::new();
    // Parallel to `batch`: index into `in_flight` owning each task.
    let mut owners: Vec<usize> = Vec::new();
    loop {
        // Admission. Block only when idle; with work in flight, drain
        // whatever has queued up between dispatches so new circuits join
        // the very next super-wave.
        if in_flight.is_empty() && !draining {
            match rx.recv() {
                Ok(Msg::Job(job)) => admit(
                    &mut in_flight,
                    *job,
                    &pool,
                    &stats,
                    &config,
                    rewrite,
                    &mut next_tag,
                ),
                // Graceful by FIFO: every job submitted before the
                // Shutdown message was enqueued ahead of it and already
                // admitted; anything racing in after it is explicitly
                // rejected below.
                Ok(Msg::Shutdown) | Err(_) => draining = true,
            }
        }
        while !draining {
            match rx.try_recv() {
                Ok(Msg::Job(job)) => admit(
                    &mut in_flight,
                    *job,
                    &pool,
                    &stats,
                    &config,
                    rewrite,
                    &mut next_tag,
                ),
                Ok(Msg::Shutdown) | Err(TryRecvError::Disconnected) => draining = true,
                Err(TryRecvError::Empty) => break,
            }
        }
        // Deadlines and cancellations are honored between dispatches —
        // including for circuits that expired while queued.
        reap(&mut in_flight, &stats);
        if in_flight.is_empty() {
            if draining {
                break;
            }
            continue;
        }

        // One interleaved super-wave: every in-flight circuit's ready
        // frontier, admission order first — FIFO-fair, and no circuit
        // can monopolize the dispatch because every other circuit's
        // ready tasks ride along.
        batch.clear();
        owners.clear();
        for (ci, fl) in in_flight.iter_mut().enumerate() {
            fl.frontier.take_ready(&mut batch);
            owners.resize(batch.len(), ci);
        }
        let failures = pool.run_tasks(&batch);
        if !batch.is_empty() {
            let p = pool.threads() as u64;
            stats.dispatches.fetch_add(1, Ordering::Relaxed);
            stats.tasks.fetch_add(batch.len() as u64, Ordering::Relaxed);
            stats
                .slots
                .fetch_add((batch.len() as u64).div_ceil(p) * p, Ordering::Relaxed);
        }
        stats.restarts.store(pool.restarts(), Ordering::Relaxed);

        // Route failures to their owning circuits (first message wins);
        // propagate completions for everyone still healthy.
        let mut faulted: Vec<Option<String>> = vec![None; in_flight.len()];
        for (index, msg) in failures {
            let fault = &mut faulted[owners[index]];
            if fault.is_none() {
                *fault = Some(msg);
            }
        }
        for (index, st) in batch.iter().enumerate() {
            let ci = owners[index];
            if faulted[ci].is_none() {
                in_flight[ci].frontier.complete(st.node);
            }
        }

        // Resolve tickets; keep the rest in flight, order preserved.
        let mut keep: Vec<InFlight> = Vec::with_capacity(in_flight.len());
        for (fl, fault) in in_flight.drain(..).zip(faulted) {
            if let Some(msg) = fault {
                stats.faulted.fetch_add(1, Ordering::Relaxed);
                let _ = fl.reply.send(CircuitOutcome::Faulted(msg));
            } else if fl.frontier.is_done() {
                stats.tally_completed(fl.client);
                let _ = fl
                    .reply
                    .send(CircuitOutcome::Completed(fl.frontier.finish()));
            } else {
                keep.push(fl);
            }
        }
        in_flight = keep;
    }
    // Explicitly reject everything still queued so those tickets resolve
    // with a structured reason (the dropped-sender fallback in `wait` is
    // only a backstop for abrupt scheduler death).
    while let Ok(Msg::Job(job)) = rx.try_recv() {
        stats.reject(job.client, RejectReason::Shutdown, &job.reply);
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
        Self::launch(key, threads, config, analyze::simplify, None)
    }

    /// Starts the scheduler with a custom [`RewritePass`] in place of the
    /// default [`analyze::simplify`]. Under
    /// [`AnalysisPolicy::require_equivalence`] the pass's output is only
    /// ever scheduled behind a BDD proof of function identity with the
    /// submission — this is the hook a future optimization pass (e.g.
    /// multi-input gate fusion) plugs into, and the hook the equivalence
    /// tests drive with a deliberately broken pass.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn start_with_rewrite<E>(
        key: Arc<ServerKey<E>>,
        threads: usize,
        config: ServerConfig,
        rewrite: RewritePass,
    ) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        Self::launch(key, threads, config, rewrite, None)
    }

    /// Starts the scheduler with a scripted [`FaultPlan`] wired into the
    /// pool workers — the deterministic fault-injection harness. Fault
    /// sites are keyed `(admission sequence number, node)`; admission
    /// numbers are assigned 0, 1, 2, … in queue order. Intended for
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
        faults: Arc<FaultPlan>,
    ) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        Self::launch(key, threads, config, analyze::simplify, Some(faults))
    }

    fn launch<E>(
        key: Arc<ServerKey<E>>,
        threads: usize,
        config: ServerConfig,
        rewrite: RewritePass,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self
    where
        E: FftEngine + Send + Sync + 'static,
    {
        assert!(threads > 0, "need at least one worker");
        let params = *key.params();
        let default_deadline = config.default_deadline;
        let (tx, rx) = mpsc::channel::<Msg>();
        let stats = Arc::new(StatsCells::default());
        let cells = Arc::clone(&stats);
        let scheduler = std::thread::spawn(move || {
            scheduler_loop(key, threads, rx, cells, config, rewrite, faults)
        });
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
        SchedulerStats {
            dispatches: self.stats.dispatches.load(Ordering::Relaxed),
            tasks: self.stats.tasks.load(Ordering::Relaxed),
            slots: self.stats.slots.load(Ordering::Relaxed),
            max_in_flight: self.stats.max_in_flight.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            faulted: self.stats.faulted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            expired: self.stats.expired.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            restarts: self.stats.restarts.load(Ordering::Relaxed),
            rewrites_refused: self.stats.rewrites_refused.load(Ordering::Relaxed),
            sums_demoted: self.stats.sums_demoted.load(Ordering::Relaxed),
            per_client: self
                .stats
                .per_client
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&id, &tally)| (id, tally))
                .collect(),
        }
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
    stats: Arc<StatsCells>,
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
        if !self.valid(&netlist, &inputs) {
            return self.reject_invalid();
        }
        let deadline = self.default_deadline.map(|d| Instant::now() + d);
        self.enqueue(netlist, CircuitInputs::Lwe(inputs), deadline)
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
        if !self.valid_packed(&netlist, &samples) {
            return self.reject_invalid();
        }
        let deadline = self.default_deadline.map(|d| Instant::now() + d);
        self.enqueue(netlist, CircuitInputs::Packed(samples), deadline)
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
        if !self.valid(&netlist, &inputs) {
            return self.reject_invalid();
        }
        self.enqueue(
            netlist,
            CircuitInputs::Lwe(inputs),
            Some(Instant::now() + deadline),
        )
    }

    /// [`CircuitClient::submit`] without the boundary validation — the
    /// hot path for trusted in-process callers that constructed their
    /// inputs against the server key. A malformed submission here is not
    /// rejected: it faults its own circuit at admission or in a worker
    /// ([`CircuitOutcome::Faulted`]), with the server unaffected.
    #[cfg(test)]
    fn submit_unchecked(
        &self,
        netlist: CircuitNetlist,
        inputs: Vec<LweCiphertext>,
    ) -> PendingCircuit {
        let deadline = self.default_deadline.map(|d| Instant::now() + d);
        self.enqueue(netlist, CircuitInputs::Lwe(inputs), deadline)
    }

    fn valid(&self, netlist: &CircuitNetlist, inputs: &[LweCiphertext]) -> bool {
        inputs.len() == netlist.num_inputs()
            && inputs
                .iter()
                .all(|i| i.dimension() == self.params.ring_degree)
    }

    fn valid_packed(&self, netlist: &CircuitNetlist, samples: &[TrlweCiphertext]) -> bool {
        let n = self.params.ring_degree;
        samples.len() == netlist.num_inputs().div_ceil(n)
            && samples.iter().all(|s| s.ring_degree() == n)
    }

    /// Resolves an `InvalidInput` rejection immediately, tallying it
    /// against this client without touching the scheduler queue.
    fn reject_invalid(&self) -> PendingCircuit {
        let (reply, rx) = mpsc::channel();
        self.stats
            .reject(self.id, RejectReason::InvalidInput, &reply);
        PendingCircuit {
            rx,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    fn enqueue(
        &self,
        netlist: CircuitNetlist,
        inputs: CircuitInputs,
        deadline: Option<Instant>,
    ) -> PendingCircuit {
        let (reply, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        // A send to a shut-down server is not an error here; the ticket
        // resolves through the dropped-sender backstop in `wait`.
        let _ = self.tx.send(Msg::Job(Box::new(CircuitJob {
            netlist,
            inputs,
            reply,
            client: self.id,
            deadline,
            cancel: Arc::clone(&cancel),
        })));
        PendingCircuit { rx, cancel }
    }
}

/// A ticket for one submitted circuit. Every ticket resolves to exactly
/// one [`CircuitOutcome`].
pub struct PendingCircuit {
    rx: mpsc::Receiver<CircuitOutcome>,
    cancel: Arc<AtomicBool>,
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
        self.rx
            .recv()
            .unwrap_or(CircuitOutcome::Rejected(RejectReason::Shutdown))
    }

    /// Non-blocking probe: `None` while the circuit is still queued or
    /// in flight, `Some` once it has resolved. A disconnected reply
    /// channel maps to [`RejectReason::Shutdown`] exactly as in
    /// [`PendingCircuit::wait`].
    pub fn try_wait(&self) -> Option<CircuitOutcome> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                Some(CircuitOutcome::Rejected(RejectReason::Shutdown))
            }
        }
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
        let server = CircuitServer::start_with_faults(
            Arc::clone(&key),
            2,
            ServerConfig::default(),
            Arc::new(faults),
        );
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
        let plan =
            Arc::new(FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(150))));
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
        let plan =
            Arc::new(FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(150))));
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
        let plan =
            Arc::new(FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(400))));
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
        let plan =
            Arc::new(FaultPlan::new().inject(0, 2, FaultAction::Delay(Duration::from_millis(250))));
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
        let plan = Arc::new(FaultPlan::new().inject(0, 2, FaultAction::KillWorker));
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
        // failure bound far past any sane budget. Keys still generate —
        // the point is that admission rejects before a bootstrap runs.
        let params = ParameterSet {
            lwe_noise_stdev: 5e-3,
            ..ParameterSet::TEST_FAST
        };
        let mut rng = StdRng::seed_from_u64(171);
        let client = ClientKey::generate(params, &mut rng);
        let key = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let config = ServerConfig {
            analysis: Some(AnalysisPolicy::default()),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(Arc::clone(&key), 1, config);
        let handle = server.client();
        let ticket = handle.submit(
            xor_chain(2),
            encrypt_bits(&client, &[true, false, true], &mut rng),
        );
        match ticket.wait().reject_reason() {
            Some(RejectReason::NoiseBudget {
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
        server.shutdown();
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

    /// A [`RewritePass`] that runs the real [`analyze::simplify`] and then
    /// turns the first XOR it finds into something else (XNOR, or a
    /// majority where the XORs were fused) — a deliberately unsound rewrite
    /// the equivalence gate must refute.
    fn broken_pass(net: &CircuitNetlist) -> (CircuitNetlist, SimplifyReport) {
        use crate::circuit::GateOp;
        use crate::gates::Gate3;
        let (simplified, report) = analyze::simplify(net);
        let mut ops = simplified.ops().to_vec();
        for op in ops.iter_mut() {
            *op = match *op {
                GateOp::Binary(Gate::Xor, a, b) => GateOp::Binary(Gate::Xnor, a, b),
                GateOp::Ternary(Gate3::Xor3, a, b, c) => GateOp::Ternary(Gate3::Maj, a, b, c),
                _ => continue,
            };
            break;
        }
        let broken = CircuitNetlist::from_parts(ops, simplified.outputs().to_vec())
            .expect("mutated netlist keeps the canonical shape");
        (broken, report)
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
    fn broken_rewrite_pass_is_refuted_with_a_replayable_counterexample() {
        let (client, key, mut rng) = setup(181);
        let config = equiv_policy(
            crate::analyze::Severity::Error,
            equiv::EquivBudget::default(),
        );
        let server = CircuitServer::start_with_rewrite(Arc::clone(&key), 1, config, broken_pass);
        let handle = server.client();
        let submitted = xor_chain(2);
        let ticket = handle.submit(
            submitted.clone(),
            encrypt_bits(&client, &[true, false, true], &mut rng),
        );
        match ticket.wait().reject_reason() {
            Some(RejectReason::NotEquivalent {
                output,
                counterexample,
            }) => {
                assert_eq!(output, 0);
                // Replay the counterexample through eager evaluation: it
                // must actually distinguish the submission from what the
                // broken pass produced.
                let (broken, _) = broken_pass(&submitted);
                let want = equiv::eval_netlist(&submitted, &counterexample.bits);
                let got = equiv::eval_netlist(&broken, &counterexample.bits);
                assert_ne!(
                    want[output], got[output],
                    "counterexample on {counterexample}"
                );
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
        assert_eq!(server.stats().rejected, 1);
        server.shutdown();
    }

    #[test]
    fn equiv_unknown_rejects_strict_policies_and_admits_lenient_ones() {
        let (client, key, mut rng) = setup(182);
        // An input budget of 1 makes every 3-input check come back
        // Unknown without spending any BDD work.
        let tiny = equiv::EquivBudget {
            max_nodes: 1 << 20,
            max_inputs: 1,
        };
        // Strict (deny: Warning): the unproven rewrite is fatal.
        let server = CircuitServer::start_with(
            Arc::clone(&key),
            1,
            equiv_policy(crate::analyze::Severity::Warning, tiny),
        );
        let handle = server.client();
        let ticket = handle.submit(
            xor_chain(2),
            encrypt_bits(&client, &[true, false, true], &mut rng),
        );
        assert_eq!(
            ticket.wait().reject_reason(),
            Some(RejectReason::Lint {
                kind: LintKind::EquivUnknown,
                node: 0
            })
        );
        server.shutdown();

        // Lenient (deny: Error): the submission runs unrewritten.
        let server = CircuitServer::start_with(
            Arc::clone(&key),
            1,
            equiv_policy(crate::analyze::Severity::Error, tiny),
        );
        let handle = server.client();
        let bits = [true, false, true];
        let run = handle
            .submit(xor_chain(2), encrypt_bits(&client, &bits, &mut rng))
            .wait()
            .completed()
            .expect("unknown equivalence is only a warning by default");
        assert_eq!(client.decrypt(&run.outputs[0]), xor_all(&bits));
        assert_eq!(run.bootstraps, 2, "the submitted netlist ran unrewritten");
        server.shutdown();
    }
}
