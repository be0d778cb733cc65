//! Robustness of the serving stack under scripted faults.
//!
//! The `CircuitServer` claims per-circuit fault isolation, worker
//! self-healing, and a total outcome taxonomy (every ticket resolves to
//! exactly one `CircuitOutcome`). These tests drive those claims with the
//! deterministic `FaultPlan` harness over *lowered* netlists — the same
//! adder/comparator/mux-tree mix the interleaving equivalence suite uses
//! — rather than hand-built chains:
//!
//! * **Property (random plans)** — under random fault plans mixing
//!   panics, delays and worker deaths over a 3-client mixed workload,
//!   every ticket resolves, nothing hangs, and every `Completed` result
//!   is bit-identical to the eager sequential oracle.
//! * **Worker death** — a scripted kill at a real netlist's first gate
//!   heals, retries, and completes bit-identical, with the restart
//!   surfaced in the scheduler stats.
//! * **Injected panic** — faults exactly the circuit owning the site;
//!   neighbors sharing the super-waves complete bit-identical.

use matcha_circuits::{netlist, word};
use matcha_fft::F64Fft;
use matcha_tfhe::{
    CircuitNetlist, CircuitOutcome, CircuitServer, ClientKey, FaultAction, FaultPlan, GateOp,
    LweCiphertext, ParameterSet, ServerConfig, ServerKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey<F64Fft>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xFA17);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = Arc::new(ServerKey::with_unrolling(&client, engine, 2, &mut rng));
        Fixture { client, server }
    })
}

/// One workload: a lowered netlist with its encrypted inputs.
struct Workload {
    net: CircuitNetlist,
    inputs: Vec<LweCiphertext>,
}

/// The 3-client mix: adder, comparator, mux tree.
fn mixed_workloads(f: &Fixture, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    {
        let a = word::encrypt(&f.client, seed % 16, 4, &mut rng);
        let b = word::encrypt(&f.client, (seed / 16) % 16, 4, &mut rng);
        jobs.push(Workload {
            net: netlist::ripple_adder(4),
            inputs: a.into_iter().chain(b).collect(),
        });
    }
    {
        let a = word::encrypt(&f.client, 19, 5, &mut rng);
        let b = word::encrypt(&f.client, (seed % 2) * 19 + 3, 5, &mut rng);
        jobs.push(Workload {
            net: netlist::eq_comparator(5),
            inputs: a.into_iter().chain(b).collect(),
        });
    }
    {
        let index = word::encrypt(&f.client, seed % 4, 2, &mut rng);
        let words = (0..4u64).flat_map(|v| word::encrypt(&f.client, v ^ 0b01, 2, &mut rng));
        jobs.push(Workload {
            net: netlist::mux_tree(2, 2),
            inputs: index.into_iter().chain(words).collect(),
        });
    }
    jobs
}

/// Node indices of the bootstrapped (dispatchable) ops — the sites a
/// fault plan can actually hit.
fn gate_nodes(net: &CircuitNetlist) -> Vec<usize> {
    net.ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, GateOp::Binary(..) | GateOp::Mux { .. }))
        .map(|(id, _)| id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random fault plans over the 3-client mix: panics, small delays and
    /// worker deaths at arbitrary (circuit, node) points. Whatever fires,
    /// every ticket must resolve to exactly one outcome — Completed
    /// (bit-identical to the eager oracle, since only panics may fault a
    /// circuit) or Faulted — and the server must survive to serve a
    /// final clean circuit.
    #[test]
    fn random_fault_plans_leave_every_ticket_resolved(
        seed in any::<u64>(),
        sites in proptest::collection::vec((0u64..3, 0usize..40, 0usize..3), 0..6),
    ) {
        let f = fixture();
        let mut plan = FaultPlan::new();
        for &(circuit, node, kind) in &sites {
            let action = match kind {
                0 => FaultAction::Panic,
                1 => FaultAction::Delay(Duration::from_millis(5)),
                _ => FaultAction::KillWorker,
            };
            plan = plan.inject(circuit, node, action);
        }
        let server =
            CircuitServer::start_with_faults(Arc::clone(&f.server), 2, ServerConfig::default(), plan);
        let workloads = mixed_workloads(f, seed);
        let expected: Vec<Vec<LweCiphertext>> = workloads
            .iter()
            .map(|w| w.net.execute_sequential(f.server.as_ref(), &w.inputs).outputs)
            .collect();
        // One distinct client per workload, submitted from one thread so
        // the admission tags are 0, 1, 2 in workload order.
        let tickets: Vec<_> = workloads
            .iter()
            .map(|w| server.client().submit(w.net.clone(), w.inputs.clone()))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            // `wait` returning at all is the no-hang property; the
            // outcome taxonomy is total.
            match ticket.wait() {
                CircuitOutcome::Completed(run) => {
                    prop_assert_eq!(
                        &run.outputs,
                        &expected[i],
                        "workload {} must be bit-identical to the eager oracle",
                        i
                    );
                }
                CircuitOutcome::Faulted(msg) => {
                    // Only an injected panic can fault a circuit: kills
                    // are healed and delays are benign.
                    prop_assert!(
                        sites.iter().any(|&(c, _, kind)| c == i as u64 && kind == 0),
                        "workload {} faulted ({}) without a panic site",
                        i,
                        msg
                    );
                }
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }
        // The server outlives whatever the plan did to it.
        let w = &mixed_workloads(f, seed.wrapping_add(1))[0];
        let run = server
            .client()
            .submit(w.net.clone(), w.inputs.clone())
            .wait()
            .completed()
            .expect("server survives the fault plan");
        let oracle = w.net.execute_sequential(f.server.as_ref(), &w.inputs);
        prop_assert_eq!(&run.outputs, &oracle.outputs);
        server.shutdown();
    }
}

#[test]
fn worker_death_on_lowered_netlist_heals_and_matches_oracle() {
    let f = fixture();
    let net = netlist::ripple_adder(4);
    let first_gate = gate_nodes(&net)[0];
    let plan = FaultPlan::new().inject(0, first_gate, FaultAction::KillWorker);
    let server =
        CircuitServer::start_with_faults(Arc::clone(&f.server), 2, ServerConfig::default(), plan);
    let mut rng = StdRng::seed_from_u64(61);
    let a = word::encrypt(&f.client, 9, 4, &mut rng);
    let b = word::encrypt(&f.client, 13, 4, &mut rng);
    let inputs: Vec<LweCiphertext> = a.into_iter().chain(b).collect();
    let run = server
        .client()
        .submit(net.clone(), inputs.clone())
        .wait()
        .completed()
        .expect("adder completes despite the worker death");
    let oracle = net.execute_sequential(f.server.as_ref(), &inputs);
    assert_eq!(run.outputs, oracle.outputs, "healed run is bit-identical");
    assert_eq!(word::decrypt(&f.client, &run.outputs[..4]), (9 + 13) & 0xF);
    let stats = server.stats();
    assert!(stats.restarts >= 1, "restart surfaced: {}", stats.restarts);
    assert_eq!(stats.faulted, 0);
    server.shutdown();
}

#[test]
fn injected_panic_faults_one_circuit_and_spares_the_mix() {
    let f = fixture();
    let workloads = mixed_workloads(f, 7);
    // Panic the comparator (admission tag 1) at its first gate; the
    // adder and mux tree share its super-waves and must be untouched.
    let comparator_gate = gate_nodes(&workloads[1].net)[0];
    let plan = FaultPlan::new().inject(1, comparator_gate, FaultAction::Panic);
    let server =
        CircuitServer::start_with_faults(Arc::clone(&f.server), 2, ServerConfig::default(), plan);
    let expected: Vec<Vec<LweCiphertext>> = workloads
        .iter()
        .map(|w| {
            w.net
                .execute_sequential(f.server.as_ref(), &w.inputs)
                .outputs
        })
        .collect();
    let tickets: Vec<_> = workloads
        .iter()
        .map(|w| server.client().submit(w.net.clone(), w.inputs.clone()))
        .collect();
    let outcomes: Vec<CircuitOutcome> = tickets.into_iter().map(|t| t.wait()).collect();
    assert!(outcomes[1].is_faulted(), "the panic site faults its owner");
    for i in [0usize, 2] {
        let run = outcomes[i]
            .clone()
            .completed()
            .unwrap_or_else(|| panic!("workload {i} must complete"));
        assert_eq!(run.outputs, expected[i], "workload {i} bit-identical");
    }
    assert_eq!(server.stats().faulted, 1);
    server.shutdown();
}
