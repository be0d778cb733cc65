//! A wave is its gates, one at a time: key-switching B linear parts
//! coefficient-major and carrying them through each key group together
//! must give, for every netlist node, the bits the sequential executor's
//! one-gate calls give it alone — an adder cell's carry *and* sum, the
//! carry being the `MAJ3` gate's — whatever B is against the lane cap,
//! whichever engine and unroll factor, however a dispatch mixes gate kinds
//! and slabs, on one worker or two.

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine, Leg};
use matcha_math::{Torus32, TorusSampler};
use matcha_tfhe::{
    CircuitNetlist, ClientKey, Gate, Gate3, GateBatchPool, GateOp, KeySwitchKey, LweCiphertext,
    LweSecretKey, ParameterSet, ServerKey, SlabTask, ValueSlab, MAX_LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Below, at, just past and twice past the lane cap, the last two with a
/// one-gate tail.
const BATCHES: [usize; 6] = [1, 2, 3, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 1];

/// Input nodes per netlist; its bootstrapped nodes follow them.
const INPUTS: usize = 4;
const SLABS: usize = 3;

/// Adds node `i` of a dispatch to `net`: every seventh an adder cell (a
/// `MAJ3` and the `Sum` riding on it), every fourth a mux, every fifth a
/// three-input gate — plain `MAJ3`s among them — and the rest walking
/// `Gate::ALL`, a place further on each round so that every gate comes up;
/// operands walk the netlist's inputs.
fn add_node(net: &mut CircuitNetlist, i: usize) {
    let (a, b, sel) = (i % INPUTS, (i / 2 + 1) % INPUTS, (i + 2) % INPUTS);
    if i % 7 == 5 {
        let carry = net.ternary(Gate3::Maj, a, sel, b);
        let sum = net.sum(a, sel, b);
        assert_eq!(net.rider_of(carry), Some(sum), "a cell, not a plain MAJ3");
    } else if i % 4 == 3 {
        net.mux(sel, a, b);
    } else if i % 5 == 1 {
        net.ternary(Gate3::ALL[i / 5 % Gate3::ALL.len()], sel, a, b);
    } else {
        let g = Gate::ALL.len();
        net.gate(Gate::ALL[(i + i / g) % g], a, b);
    }
}

/// `count` nodes of a dispatch dealt round-robin over `SLABS` netlists:
/// netlist `s` holds node `i` of the dispatch for every `i ≡ s` below
/// `count`. Every node is an output, so a run's outputs are its slots.
fn netlists(count: usize) -> Vec<Arc<CircuitNetlist>> {
    (0..SLABS)
        .map(|s| {
            let mut net = CircuitNetlist::new();
            for _ in 0..INPUTS {
                net.input();
            }
            for i in (s..count).step_by(SLABS) {
                add_node(&mut net, i);
            }
            for node in 0..net.len() {
                net.mark_output(node);
            }
            Arc::new(net)
        })
        .collect()
}

/// The bootstrapped nodes of `net`, in node order.
fn bootstrapped(net: &CircuitNetlist) -> Vec<usize> {
    (0..net.len())
        .filter(|&node| net.ops()[node].bootstraps() > 0)
        .collect()
}

/// Fresh slabs over `nets` holding `inputs`, and the dispatch's tasks in
/// order: task `i` is bootstrapped node `i / SLABS` of slab `i % SLABS`.
fn deal(
    nets: &[Arc<CircuitNetlist>],
    inputs: &[Vec<LweCiphertext>],
) -> (Vec<Arc<ValueSlab>>, Vec<SlabTask>) {
    let slabs: Vec<Arc<ValueSlab>> = nets
        .iter()
        .zip(inputs)
        .map(|(net, values)| {
            let slab = ValueSlab::new(Arc::clone(net));
            for (slot, v) in values.iter().enumerate() {
                slab.set(slot, v.clone());
            }
            Arc::new(slab)
        })
        .collect();
    let nodes: Vec<Vec<usize>> = nets.iter().map(|net| bootstrapped(net)).collect();
    let count: usize = nodes.iter().map(Vec::len).sum();
    let tasks = (0..count)
        .map(|i| SlabTask {
            slab: Arc::clone(&slabs[i % SLABS]),
            node: nodes[i % SLABS][i / SLABS],
            fault: None,
        })
        .collect();
    (slabs, tasks)
}

/// The plaintext value of `node`, its operands read through `bit`.
fn eval(net: &CircuitNetlist, node: usize, bit: impl Fn(usize) -> bool) -> bool {
    match net.ops()[node] {
        GateOp::Binary(gate, a, b) => gate.eval(bit(a), bit(b)),
        GateOp::Mux { sel, a, b } => bit(if bit(sel) { a } else { b }),
        GateOp::Ternary(gate, a, b, c) => gate.eval(bit(a), bit(b), bit(c)),
        GateOp::Sum(a, b, c) => Gate3::Xor3.eval(bit(a), bit(b), bit(c)),
        op => unreachable!("{op:?} is not built here"),
    }
}

fn check_waves<E>(engine: E, unroll: usize, seed: u64)
where
    E: FftEngine + Send + Sync + 'static,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let server = Arc::new(ServerKey::with_unrolling(&client, engine, unroll, &mut rng));
    let groups = server.kit().bootstrapping_key().groups();
    assert_eq!(
        groups.last().map(|g| g.len() < unroll),
        Some(!client.params().lwe_dimension.is_multiple_of(unroll)),
        "the short last key group is part of the m = 3 case"
    );
    let inputs: Vec<Vec<LweCiphertext>> = (0..SLABS)
        .map(|s| {
            (0..INPUTS)
                .map(|i| client.encrypt_with((s + i) % 3 != 0, &mut rng))
                .collect()
        })
        .collect();
    let pools = [
        GateBatchPool::new(Arc::clone(&server), 1),
        GateBatchPool::new(Arc::clone(&server), 2),
    ];
    let mut scratch = server.make_scratch();

    for count in BATCHES {
        // One gate at a time, each through a scratch of its own.
        let nets = netlists(count);
        let alone: Vec<Vec<LweCiphertext>> = nets
            .iter()
            .zip(&inputs)
            .map(|(net, inputs)| net.execute_sequential(&server, inputs).outputs)
            .collect();
        for (net, values) in nets.iter().zip(&alone) {
            for node in 0..net.len() {
                let (GateOp::Ternary(_, a, b, c), Some(_)) = (net.ops()[node], net.rider_of(node))
                else {
                    continue;
                };
                let mut majority = LweCiphertext::default();
                let ops = [a, b, c].map(|operand| &values[operand]);
                server.apply3_into(Gate3::Maj, ops, &mut majority, &mut scratch);
                assert_eq!(values[node], majority, "a cell's carry is the MAJ3 gate's");
            }
        }

        // Chunked onto pool workers: every slot bit for bit.
        for pool in &pools {
            let (slabs, batch) = deal(&nets, &inputs);
            assert_eq!(batch.len(), count);
            let failures = pool.run_tasks(&batch);
            assert!(failures.is_empty(), "{failures:?}");
            for (s, (net, (slab, want))) in nets.iter().zip(slabs.iter().zip(&alone)).enumerate() {
                for (node, want) in want.iter().enumerate() {
                    assert_eq!(
                        slab.get(node),
                        want,
                        "unroll={unroll} count={count} threads={} slab {s} node {node} ({:?})",
                        pool.threads(),
                        net.ops()[node]
                    );
                }
            }
        }

        // The waves computed the right thing, not just the same thing.
        for (net, values) in nets.iter().zip(&alone) {
            let bit = |node: usize| client.decrypt(&values[node]);
            for node in INPUTS..net.len() {
                let op = net.ops()[node];
                assert_eq!(bit(node), eval(net, node, bit), "count={count} {op:?}");
            }
        }
    }
}

#[test]
fn waves_match_single_gates_f64_m2() {
    check_waves(F64Fft::new(256), 2, 0x1A4E5);
}

#[test]
fn waves_match_single_gates_approx38_m3_short_last_group() {
    check_waves(ApproxIntFft::new(256, 38), 3, 0x1A4E6);
}

#[test]
fn key_switch_slice_matches_single_switches() {
    let params = ParameterSet::TEST_FAST;
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(0x5117CE));
    let from = LweSecretKey::generate(params.ring_degree, &mut sampler);
    let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
    let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
    let n = ksk.from_dimension();
    // Random samples, and around them masks whose coefficients decompose
    // to no digit at all: everywhere, on the even coefficients (so a
    // coefficient that selects nothing sits before one that does, and the
    // other way round), and as the last coefficient only.
    let mut samples: Vec<LweCiphertext> = (0..2 * MAX_LANES + 1)
        .map(|_| {
            let mask = (0..n).map(|_| sampler.uniform()).collect();
            LweCiphertext::from_parts(mask, sampler.uniform())
        })
        .collect();
    samples[0] = LweCiphertext::trivial(Torus32::from_f64(0.125), n);
    let (mask, _) = samples[2].parts_mut();
    mask.iter_mut().step_by(2).for_each(|a| *a = Torus32::ZERO);
    let (mask, _) = samples[MAX_LANES].parts_mut();
    mask[n - 1] = Torus32::ZERO;

    for count in [0, 1, 2, 3, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 1] {
        let inputs = &samples[..count];
        // Outputs arrive with whatever shape they had: empty, the right
        // dimension, a wrong one.
        let mut outs: Vec<LweCiphertext> = (0..count)
            .map(|i| LweCiphertext::trivial(Torus32::from_f64(0.25), (i % 3) * 8))
            .collect();
        ksk.switch_slice_into(inputs, &mut outs);
        for (i, (c, out)) in inputs.iter().zip(&outs).enumerate() {
            let mut single = LweCiphertext::default();
            ksk.switch_into(c, &mut single);
            assert_eq!(*out, single, "count={count} sample {i}");
        }
    }
    // A trivial sample with an all-zero mask selects no entry: it comes
    // out trivial, untouched by the key.
    let mut out = [LweCiphertext::default()];
    ksk.switch_slice_into(&samples[..1], &mut out);
    assert_eq!(
        out[0],
        LweCiphertext::trivial(Torus32::from_f64(0.125), ksk.to_dimension())
    );
}

#[test]
#[should_panic(expected = "one output per input")]
fn key_switch_slice_rejects_mismatched_lengths() {
    let params = ParameterSet::TEST_FAST;
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(3));
    let from = LweSecretKey::generate(16, &mut sampler);
    let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
    let ksk = KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler);
    let inputs = [LweCiphertext::trivial(Torus32::ZERO, 16)];
    ksk.switch_slice_into(&inputs, &mut []);
}
