//! Gate-netlist scheduling on parallel bootstrapping pipelines.
//!
//! The paper motivates MATCHA with whole circuits (a TFHE RISC-V CPU at
//! 1.25 Hz, §1). A circuit is a DAG of bootstrapped gates; with `P`
//! pipelines the achievable latency is bounded below by both the critical
//! path (`depth × gate latency`) and the total work (`gates/P × gate
//! latency`). This module takes the gate DAG of a real lowering — the
//! `CircuitNetlist::schedule_skeleton()` of a `matcha-circuits` netlist,
//! through [`Netlist::from_deps`] — list-schedules it onto a platform's
//! pipelines, and reports circuit-level latency: the per-gate numbers of
//! Figures 9/10 turned into end-to-end application estimates. Its
//! [`Netlist::critical_path`] over the skeleton is the circuit's critical
//! path in bootstrap units; nothing else in the workspace recomputes it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A dependency DAG of equal-cost bootstrapped gates.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// `deps[i]` lists the gate indices gate `i` consumes.
    deps: Vec<Vec<usize>>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a gate depending on `deps` (indices of earlier gates) and
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any dependency references a not-yet-added gate.
    pub fn add_gate(&mut self, deps: &[usize]) -> usize {
        let id = self.deps.len();
        assert!(
            deps.iter().all(|&d| d < id),
            "dependencies must reference earlier gates"
        );
        self.deps.push(deps.to_vec());
        id
    }

    /// Builds a netlist from an externally produced dependency skeleton —
    /// the bridge from executable circuits: pass
    /// `CircuitNetlist::schedule_skeleton()` (in `matcha-tfhe`) here and
    /// [`schedule`] predicts the makespan/utilization the batch pool
    /// should achieve, for cross-checking against measured wall-clock.
    ///
    /// # Panics
    ///
    /// Panics if any entry references a not-yet-listed gate (the skeleton
    /// must be topologically ordered).
    pub fn from_deps(deps: &[Vec<usize>]) -> Self {
        let mut net = Self::new();
        for gate_deps in deps {
            net.add_gate(gate_deps);
        }
        net
    }

    /// The dependency list of gate `i`.
    pub fn dependencies(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Returns `true` when the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Length (in gates) of the longest dependency chain.
    pub fn critical_path(&self) -> usize {
        let mut depth = vec![0usize; self.deps.len()];
        let mut best = 0;
        for (i, deps) in self.deps.iter().enumerate() {
            depth[i] = deps.iter().map(|&d| depth[d]).max().map_or(1, |m| m + 1);
            best = best.max(depth[i]);
        }
        best
    }
}

/// The outcome of scheduling a netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleResult {
    /// End-to-end circuit latency in seconds.
    pub makespan_s: f64,
    /// Total gates executed.
    pub gates: usize,
    /// Depth of the critical path in gates.
    pub critical_path: usize,
    /// Mean pipeline utilization (0–1).
    pub utilization: f64,
}

/// List-schedules `netlist` on `pipelines` identical units with a fixed
/// per-gate latency.
///
/// # Panics
///
/// Panics if `pipelines == 0` or `gate_latency_s <= 0`.
pub fn schedule(netlist: &Netlist, pipelines: usize, gate_latency_s: f64) -> ScheduleResult {
    assert!(pipelines > 0, "need at least one pipeline");
    assert!(gate_latency_s > 0.0, "gate latency must be positive");
    let n = netlist.len();
    if n == 0 {
        return ScheduleResult {
            makespan_s: 0.0,
            gates: 0,
            critical_path: 0,
            utilization: 0.0,
        };
    }
    let mut finish = vec![0.0f64; n];
    // Pipelines as a min-heap of free times (f64 bits as ordered ints —
    // all values are non-negative, so the bit pattern orders correctly).
    let mut free: BinaryHeap<Reverse<u64>> = (0..pipelines).map(|_| Reverse(0u64)).collect();
    for i in 0..n {
        let ready = netlist.deps[i]
            .iter()
            .map(|&d| finish[d])
            .fold(0.0f64, f64::max);
        let Reverse(free_bits) = free.pop().expect("heap has `pipelines` entries");
        let start = ready.max(f64::from_bits(free_bits));
        let done = start + gate_latency_s;
        finish[i] = done;
        free.push(Reverse(done.to_bits()));
    }
    let makespan_s = finish.iter().fold(0.0f64, |a, &b| a.max(b));
    let busy = n as f64 * gate_latency_s;
    ScheduleResult {
        makespan_s,
        gates: n,
        critical_path: netlist.critical_path(),
        utilization: busy / (makespan_s * pipelines as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_netlist() {
        let r = schedule(&Netlist::new(), 4, 1.0);
        assert_eq!(r.gates, 0);
        assert_eq!(r.makespan_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "earlier gates")]
    fn from_deps_rejects_forward_references() {
        let _ = Netlist::from_deps(&[vec![], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "earlier gates")]
    fn forward_dependency_rejected() {
        let mut net = Netlist::new();
        let _ = net.add_gate(&[3]);
    }
}
