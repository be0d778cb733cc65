//! Deterministic fault injection for the serving stack.
//!
//! The robustness guarantees of [`GateBatchPool`](crate::batch::GateBatchPool)
//! and [`CircuitServer`](crate::server::CircuitServer) — per-task panic
//! isolation, worker self-healing, deadline expiry mid-flight — are only
//! worth claiming if they are *pinned by deterministic tests*, not by
//! hoping a timing-dependent stress run happens to hit the failure path.
//! A [`FaultPlan`] scripts faults at exact `(circuit, node)` points: when
//! a pool worker picks up the task computing node `node` of the circuit
//! tagged `circuit` (the server tags each admitted circuit with its
//! admission sequence number), the planned [`FaultAction`] fires — once —
//! regardless of which worker got the task or how the batch was
//! interleaved. That makes "the worker died mid-batch" or "this wave took
//! 500 ms" reproducible statements a test can schedule around.
//!
//! The module is compiled unconditionally (no test-only `cfg` — the types
//! appear in the public constructor
//! [`CircuitServer::start_with_faults`](crate::server::CircuitServer::start_with_faults)),
//! but a pool built without a plan pays a single `Option` check per task.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// What happens when a scripted fault site is reached.
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
    /// chunk the task was dispatched in, none of it stored or answered.
    /// The pool must detect the lost replies, respawn the worker, and
    /// retry the chunk's tasks. A worker takes a chunk's sites together
    /// before running any of it, so the retry finds them all spent and
    /// runs clean.
    KillWorker,
}

/// A scripted set of one-shot fault sites, keyed by `(circuit, node)`.
///
/// `circuit` is the tag of the [`ValueSlab`](crate::batch::ValueSlab) the
/// task reads from — the [`CircuitServer`](crate::server::CircuitServer)
/// tags each admitted circuit with its admission sequence number (0, 1,
/// 2, … in admission order), and standalone slabs default to tag 0.
/// `node` is the slot the task writes. Each site fires at most once: the
/// action is *consumed* when triggered, so a task retried after a
/// [`FaultAction::KillWorker`] runs clean.
///
/// # Examples
///
/// ```
/// use matcha_tfhe::faults::{FaultAction, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .inject(0, 2, FaultAction::Delay(Duration::from_millis(50)))
///     .inject(1, 4, FaultAction::KillWorker);
/// assert!(!plan.is_spent(), "no site has fired yet");
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    sites: Mutex<HashMap<(u64, usize), FaultAction>>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault site: when the task computing `node` of the circuit
    /// tagged `circuit` is picked up by a worker, `action` fires. Builder
    /// style; later injections at the same site replace earlier ones.
    pub fn inject(self, circuit: u64, node: usize, action: FaultAction) -> Self {
        self.sites
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((circuit, node), action);
        self
    }

    /// Consumes and returns the action scripted for `(circuit, node)`, if
    /// any. Called by pool workers as they pick up each task; the site is
    /// removed so it fires exactly once.
    pub(crate) fn take(&self, circuit: u64, node: usize) -> Option<FaultAction> {
        self.sites
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&(circuit, node))
    }

    /// Number of sites that have not fired yet.
    pub(crate) fn remaining(&self) -> usize {
        self.sites
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when every scripted site has fired (or none was scripted).
    pub fn is_spent(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_fire_exactly_once_and_by_key() {
        let plan = FaultPlan::new().inject(3, 7, FaultAction::Panic).inject(
            3,
            8,
            FaultAction::Delay(Duration::from_millis(1)),
        );
        assert_eq!(plan.remaining(), 2);
        assert!(!plan.is_spent());
        assert_eq!(plan.take(3, 9), None, "unscripted site");
        assert_eq!(plan.take(4, 7), None, "wrong circuit");
        assert_eq!(plan.take(3, 7), Some(FaultAction::Panic));
        assert_eq!(plan.take(3, 7), None, "consumed");
        assert_eq!(
            plan.take(3, 8),
            Some(FaultAction::Delay(Duration::from_millis(1)))
        );
        assert!(plan.is_spent());
    }

    #[test]
    fn later_injections_replace_earlier_ones() {
        let plan =
            FaultPlan::new()
                .inject(0, 0, FaultAction::Panic)
                .inject(0, 0, FaultAction::KillWorker);
        assert_eq!(plan.remaining(), 1);
        assert_eq!(plan.take(0, 0), Some(FaultAction::KillWorker));
    }
}
