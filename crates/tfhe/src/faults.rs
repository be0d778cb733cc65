//! Deterministic fault injection for the serving stack.
//!
//! The robustness guarantees of [`GateBatchPool`](crate::batch::GateBatchPool)
//! and [`CircuitServer`](crate::server::CircuitServer) — per-task panic
//! isolation, worker self-healing, deadline expiry mid-flight — are only
//! worth claiming if they are *pinned by deterministic tests*, not by
//! hoping a timing-dependent stress run happens to hit the failure path.
//! A [`FaultPlan`] scripts faults at exact `(circuit, node)` points, where
//! `circuit` is the admission number the server's scheduler gives each
//! circuit it admits (0, 1, 2, … in admission order). The scheduler owns
//! the plan: when it fills a dispatch it moves the planned
//! [`FaultAction`] of each task it takes onto the task itself
//! ([`SlabTask::fault`](crate::batch::SlabTask::fault)), and the worker
//! that gets the task acts it out — regardless of which worker that is or
//! how the batch was chunked. That makes "the worker died mid-batch" or
//! "this wave took 500 ms" reproducible statements a test can schedule
//! around. Code that drives the pool directly sets `fault` itself.
//!
//! The module is compiled unconditionally (no test-only `cfg` — the types
//! appear in the public constructor
//! [`CircuitServer::start_with_faults`](crate::server::CircuitServer::start_with_faults)),
//! and a task without a fault costs its worker one `Option` check.

use std::collections::HashMap;
use std::time::Duration;

/// What a worker does with a task that carries a scripted fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The task panics inside the worker's per-task `catch_unwind` — the
    /// shape of a malformed operand or a bug in a gate kernel. The worker
    /// survives; the task is reported failed and faults its circuit.
    Panic,
    /// The task takes an extra `Duration` of wall-clock before executing
    /// (and then completes normally) — the shape of a wedged allocator,
    /// page-fault storm or noisy neighbor. Used to make deadline and
    /// cancellation windows deterministic.
    Delay(Duration),
    /// The worker thread exits *without* executing or answering the task —
    /// death outside the per-task `catch_unwind` (a stack overflow, an
    /// abort in foreign code, an OS kill) — and with it the rest of the
    /// chunk the task was dispatched in: the worker exits before running
    /// any of it, so none of it is stored or answered. The pool must
    /// detect the lost replies, respawn the worker, and retry the chunk's
    /// tasks, which it sends without their faults: the retry runs clean.
    KillWorker,
}

/// A scripted set of one-shot fault sites, keyed by `(circuit, node)`.
///
/// `circuit` is the admission number the
/// [`CircuitServer`](crate::server::CircuitServer)'s scheduler keeps for
/// each admitted circuit (0, 1, 2, … in admission order; a circuit turned
/// away at admission takes none), and `node` is the slot the task writes.
/// The scheduler takes a site off the plan as it fills the site's task
/// into a dispatch, so each site fires at most once.
///
/// # Examples
///
/// ```
/// use matcha_tfhe::faults::{FaultAction, FaultPlan};
/// use matcha_tfhe::{CircuitServer, ServerConfig, ServerKey};
/// use std::time::Duration;
/// # fn serve(key: std::sync::Arc<ServerKey<matcha_fft::F64Fft>>) -> CircuitServer {
///
/// // Node 2 of the first admitted circuit runs 50 ms late; the worker
/// // that takes node 4 of the second dies before running its chunk.
/// let plan = FaultPlan::new()
///     .inject(0, 2, FaultAction::Delay(Duration::from_millis(50)))
///     .inject(1, 4, FaultAction::KillWorker);
/// CircuitServer::start_with_faults(key, 2, ServerConfig::default(), plan)
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    sites: HashMap<(u64, usize), FaultAction>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault site: the task computing `node` of the circuit
    /// admitted `circuit`-th carries `action` to its worker. Builder style;
    /// later injections at the same site replace earlier ones.
    pub fn inject(mut self, circuit: u64, node: usize, action: FaultAction) -> Self {
        self.sites.insert((circuit, node), action);
        self
    }

    /// Consumes and returns the action scripted for `(circuit, node)`, if
    /// any. Called by the scheduler as it fills each task into a dispatch;
    /// the site is removed so it fires exactly once.
    pub(crate) fn take(&mut self, circuit: u64, node: usize) -> Option<FaultAction> {
        self.sites.remove(&(circuit, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_fire_exactly_once_and_by_key() {
        let mut plan = FaultPlan::new().inject(3, 7, FaultAction::Panic).inject(
            3,
            8,
            FaultAction::Delay(Duration::from_millis(1)),
        );
        assert_eq!(plan.sites.len(), 2);
        assert_eq!(plan.take(3, 9), None, "unscripted site");
        assert_eq!(plan.take(4, 7), None, "wrong circuit");
        assert_eq!(plan.take(3, 7), Some(FaultAction::Panic));
        assert_eq!(plan.take(3, 7), None, "consumed");
        assert_eq!(
            plan.take(3, 8),
            Some(FaultAction::Delay(Duration::from_millis(1)))
        );
        assert!(plan.sites.is_empty());
    }

    #[test]
    fn later_injections_replace_earlier_ones() {
        let mut plan =
            FaultPlan::new()
                .inject(0, 0, FaultAction::Panic)
                .inject(0, 0, FaultAction::KillWorker);
        assert_eq!(plan.sites.len(), 1);
        assert_eq!(plan.take(0, 0), Some(FaultAction::KillWorker));
    }
}
