//! Cross-circuit interleaving: correctness, fairness and utilization.
//!
//! The `CircuitServer` fills every pool dispatch with the ready frontier
//! of *all* in-flight circuits. These tests pin the three properties that
//! make that safe and worthwhile:
//!
//! * **Equivalence** — K concurrent clients submitting a mix of lowered
//!   netlists (adder / comparator / mux tree) get results bit-identical
//!   to the eager sequential oracle, across pool thread counts 1/2/4 and
//!   seeds (bootstrapping is deterministic given the keys).
//! * **No starvation** — a short circuit submitted behind a long one
//!   completes while the long one is still in flight.
//! * **Utilization** — interleaving ≥ 2 circuits on ≥ 2 workers fills
//!   strictly more of the offered wave-slots than running the same mix
//!   one circuit at a time (the PR 4 behavior), measured structurally
//!   via the scheduler's task/slot counters.

use matcha_circuits::netlist::CycleInstruction;
use matcha_circuits::processor::{EncryptedOpcode, Instruction, Processor};
use matcha_circuits::{alu, netlist, word};
use matcha_fft::F64Fft;
use matcha_tfhe::{
    CircuitNetlist, CircuitServer, ClientKey, LweCiphertext, ParameterSet, PendingCircuit,
    ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey<F64Fft>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = Arc::new(ServerKey::with_unrolling(&client, engine, 2, &mut rng));
        Fixture { client, server }
    })
}

/// One mixed workload: an adder, a comparator and a mux tree with their
/// encrypted inputs and expected plaintext outputs.
struct Workload {
    net: CircuitNetlist,
    inputs: Vec<LweCiphertext>,
}

fn mixed_workloads(f: &Fixture, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    {
        let a = word::encrypt(&f.client, 11, 4, &mut rng);
        let b = word::encrypt(&f.client, 6, 4, &mut rng);
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
        let words = (0..4u64).flat_map(|v| word::encrypt(&f.client, v ^ 0b10, 2, &mut rng));
        jobs.push(Workload {
            net: netlist::mux_tree(2, 2),
            inputs: index.into_iter().chain(words).collect(),
        });
    }
    jobs
}

#[test]
fn interleaved_matches_sequential_across_clients_and_threads() {
    let f = fixture();
    for (threads, seed) in [(1usize, 21u64), (2, 22), (2, 23), (4, 24)] {
        let server = CircuitServer::start(Arc::clone(&f.server), threads);
        let workloads = mixed_workloads(f, seed);
        // The eager oracle, from the same ciphertexts.
        let expected: Vec<Vec<LweCiphertext>> = workloads
            .iter()
            .map(|w| {
                w.net
                    .execute_sequential(f.server.as_ref(), &w.inputs)
                    .outputs
            })
            .collect();
        // One client thread per workload, all submitting at once so the
        // circuits genuinely share super-waves.
        let outputs: Vec<Vec<LweCiphertext>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workloads
                .iter()
                .map(|w| {
                    let handle = server.client();
                    scope.spawn(move || {
                        handle
                            .submit(w.net.clone(), w.inputs.clone())
                            .wait()
                            .completed()
                            .expect("server live")
                            .outputs
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        assert_eq!(
            outputs, expected,
            "threads={threads} seed={seed}: interleaved must be bit-identical to sequential"
        );
        server.shutdown();
    }
}

#[test]
fn long_circuit_does_not_starve_a_short_one() {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(31);
    // One worker: without interleaving the long chain would hold the
    // pool for its entire 24-wave critical path before the short circuit
    // ran at all.
    let server = CircuitServer::start(Arc::clone(&f.server), 1);
    let handle = server.client();
    let long_bits: Vec<bool> = (0..25).map(|i| i % 3 == 0).collect();
    let mut long = {
        let mut net = CircuitNetlist::new();
        let mut acc = net.input();
        for _ in 0..24 {
            let next = net.input();
            acc = net.gate(matcha_tfhe::Gate::Xor, acc, next);
        }
        net.mark_output(acc);
        handle.submit(
            net,
            long_bits
                .iter()
                .map(|&b| f.client.encrypt_with(b, &mut rng))
                .collect(),
        )
    };
    let short = {
        let mut net = CircuitNetlist::new();
        let (a, b) = (net.input(), net.input());
        let g = net.gate(matcha_tfhe::Gate::And, a, b);
        net.mark_output(g);
        handle.submit(
            net,
            vec![
                f.client.encrypt_with(true, &mut rng),
                f.client.encrypt_with(true, &mut rng),
            ],
        )
    };
    let run = short.wait().completed().expect("short circuit completes");
    assert!(f.client.decrypt(&run.outputs[0]), "true AND true");
    assert!(
        long.try_wait().is_none(),
        "the long circuit must still be in flight when the short one resolves"
    );
    let run = long.wait().completed().expect("long circuit completes");
    assert_eq!(
        f.client.decrypt(&run.outputs[0]),
        long_bits.iter().fold(false, |a, &b| a ^ b)
    );
    server.shutdown();
}

#[test]
fn mul8_interleaves_without_starving_short_circuits() {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(51);
    // An 8×8 multiplier is the deepest, widest DAG the scheduler serves:
    // 320 bootstraps over a ~70-wave critical path. Short circuits from
    // other clients submitted behind it must complete while it is still
    // in flight, even on a single worker.
    let server = CircuitServer::start(Arc::clone(&f.server), 1);
    let (x, y) = (201u64, 174u64);
    let a = word::encrypt(&f.client, x, 8, &mut rng);
    let b = word::encrypt(&f.client, y, 8, &mut rng);
    let mul_net = netlist::mul(8);
    let mul_inputs: Vec<LweCiphertext> = a.iter().chain(b.iter()).cloned().collect();
    let expected = mul_net
        .execute_sequential(f.server.as_ref(), &mul_inputs)
        .outputs;

    let heavy_client = server.client();
    let mut mul_ticket = heavy_client.submit(mul_net, mul_inputs);

    // Two other clients with short circuits behind the deep DAG.
    let light_client = server.client();
    let short_and = {
        let mut net = CircuitNetlist::new();
        let (p, q) = (net.input(), net.input());
        let g = net.gate(matcha_tfhe::Gate::And, p, q);
        net.mark_output(g);
        light_client.submit(
            net,
            vec![
                f.client.encrypt_with(true, &mut rng),
                f.client.encrypt_with(false, &mut rng),
            ],
        )
    };
    let cmp_client = server.client();
    let cmp_ticket = {
        let u = word::encrypt(&f.client, 9, 4, &mut rng);
        let v = word::encrypt(&f.client, 9, 4, &mut rng);
        cmp_client.submit(
            netlist::eq_comparator(4),
            u.into_iter().chain(v).collect::<Vec<LweCiphertext>>(),
        )
    };

    let run = short_and.wait().completed().expect("short AND completes");
    assert!(!f.client.decrypt(&run.outputs[0]));
    assert!(
        mul_ticket.try_wait().is_none(),
        "the multiplier must still be in flight when the 1-gate circuit resolves"
    );
    let run = cmp_ticket.wait().completed().expect("comparator completes");
    assert!(f.client.decrypt(&run.outputs[0]), "9 == 9");

    let run = mul_ticket.wait().completed().expect("multiplier completes");
    assert_eq!(
        run.outputs, expected,
        "interleaved mul8 must be bit-identical to sequential"
    );
    assert_eq!(word::decrypt(&f.client, &run.outputs), x * y);
    server.shutdown();
}

#[test]
fn encrypted_cpu_program_on_the_server_matches_processor_run() {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(61);
    // A 3-instruction straight-line program on a 3-register, 4-bit
    // machine: r2 ← r0 + r1; r0 ← flag ? r2 : r0; r1 ← r2 XOR r0. Each
    // cycle is one submitted circuit whose register-file outputs feed the
    // next cycle's inputs — the encrypted-CPU serving story.
    let width = 4;
    let (v0, v1) = (9u64, 5u64);
    let r0 = word::encrypt(&f.client, v0, width, &mut rng);
    let r1 = word::encrypt(&f.client, v1, width, &mut rng);
    let r2 = word::encrypt(&f.client, 0, width, &mut rng);

    let add_op = EncryptedOpcode::encrypt(&f.client, alu::AluOp::Add, &mut rng);
    let xor_op = EncryptedOpcode::encrypt(&f.client, alu::AluOp::Xor, &mut rng);
    let flag = f.client.encrypt_with(true, &mut rng);

    // The eager oracle: the same program through Processor::run.
    let mut cpu = Processor::new(vec![r0.clone(), r1.clone(), r2.clone()]);
    cpu.run(
        f.server.as_ref(),
        &[
            Instruction::Alu {
                op: add_op.clone(),
                dst: 2,
                src1: 0,
                src2: 1,
            },
            Instruction::CMov {
                flag: flag.clone(),
                dst: 0,
                src_true: 2,
                src_false: 0,
            },
            Instruction::Alu {
                op: xor_op.clone(),
                dst: 1,
                src1: 2,
                src2: 0,
            },
        ],
    );

    // The served version: consecutive processor-cycle netlists, the
    // register file threading through as ciphertext.
    let server = CircuitServer::start(Arc::clone(&f.server), 2);
    let handle = server.client();
    let mut regs: Vec<LweCiphertext> = r0
        .iter()
        .chain(r1.iter())
        .chain(r2.iter())
        .cloned()
        .collect();
    let program = [
        (
            CycleInstruction::Alu {
                dst: 2,
                src1: 0,
                src2: 1,
            },
            add_op.bits().to_vec(),
        ),
        (
            CycleInstruction::CMov {
                dst: 0,
                src_true: 2,
                src_false: 0,
            },
            vec![flag.clone()],
        ),
        (
            CycleInstruction::Alu {
                dst: 1,
                src1: 2,
                src2: 0,
            },
            xor_op.bits().to_vec(),
        ),
    ];
    for (instr, control) in program {
        let net = netlist::processor_cycle(3, width, instr);
        let inputs: Vec<LweCiphertext> = regs.iter().cloned().chain(control).collect();
        let run = handle
            .submit(net, inputs)
            .wait()
            .completed()
            .expect("cycle completes");
        regs = run.outputs;
    }
    server.shutdown();

    // Register state bit-identical to the eager machine, and
    // decrypt-equal to the plaintext semantics.
    for (i, reg) in (0..3).map(|i| (i, &regs[i * width..(i + 1) * width])) {
        assert_eq!(reg, &cpu.register(i)[..], "r{i} bitwise");
    }
    let sum = (v0 + v1) & 0xF;
    assert_eq!(word::decrypt(&f.client, &regs[..width]), sum); // r0 ← CMov picked r2
    assert_eq!(word::decrypt(&f.client, &regs[width..2 * width]), sum ^ sum); // r1 ← r2^r0
    assert_eq!(word::decrypt(&f.client, &regs[2 * width..]), sum); // r2 ← v0+v1
}

#[test]
fn interleaving_beats_solo_utilization_on_adder_comparator_mix() {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(41);
    let server = CircuitServer::start(Arc::clone(&f.server), 2);
    let handle = server.client();
    // Two adders and two comparators: the adders' narrow tail waves (a
    // ripple carry chain alternates 2-wide and 1-wide levels) interleave
    // with *each other*, which is where the wasted wave-slots of the
    // solo baseline go — a 1-wide wave on 2 workers idles half the pool.
    let make_jobs = |rng: &mut StdRng| {
        let mut jobs = Vec::new();
        for (x, y) in [(173u64, 91u64), (4, 250)] {
            let a = word::encrypt(&f.client, x, 8, rng);
            let b = word::encrypt(&f.client, y, 8, rng);
            jobs.push((
                netlist::ripple_adder(8),
                a.into_iter().chain(b).collect::<Vec<LweCiphertext>>(),
            ));
        }
        for (x, y) in [(200u64, 200u64), (17, 18)] {
            let a = word::encrypt(&f.client, x, 8, rng);
            let b = word::encrypt(&f.client, y, 8, rng);
            jobs.push((
                netlist::eq_comparator(8),
                a.into_iter().chain(b).collect::<Vec<LweCiphertext>>(),
            ));
        }
        jobs
    };

    // PR 4 baseline: one circuit at a time occupies the pool.
    let s0 = server.stats();
    for (net, inputs) in make_jobs(&mut rng) {
        let run = handle.submit(net, inputs).wait().completed().expect("solo");
        assert!(run.waves > 0);
    }
    let s1 = server.stats();

    // Interleaved: a short chain barrier keeps the scheduler busy for a
    // couple of dispatches (two bootstraps) while the real circuits join
    // the queue, so they are admitted together and share every
    // subsequent super-wave even if this thread gets descheduled
    // mid-submission.
    let barrier = {
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let g = net.gate(matcha_tfhe::Gate::Or, a, b);
        let h = net.gate(matcha_tfhe::Gate::Xor, g, c);
        net.mark_output(h);
        handle.submit(
            net,
            vec![
                f.client.encrypt_with(false, &mut rng),
                f.client.encrypt_with(true, &mut rng),
                f.client.encrypt_with(false, &mut rng),
            ],
        )
    };
    let tickets: Vec<PendingCircuit> = make_jobs(&mut rng)
        .into_iter()
        .map(|(net, inputs)| handle.submit(net, inputs))
        .collect();
    assert!(barrier.wait().is_completed());
    for ticket in tickets {
        assert!(ticket.wait().is_completed());
    }
    let s2 = server.stats();

    let solo = s1.since(&s0);
    let interleaved = s2.since(&s1);
    assert_eq!(solo.completed, 4);
    assert_eq!(interleaved.completed, 5);
    assert!(
        s2.max_in_flight >= 2,
        "adder and comparator must have been in flight together (high water {})",
        s2.max_in_flight
    );
    assert!(
        interleaved.utilization() > solo.utilization(),
        "interleaving must fill strictly more wave-slots: solo {:.3} vs interleaved {:.3}",
        solo.utilization(),
        interleaved.utilization()
    );
    server.shutdown();
}
