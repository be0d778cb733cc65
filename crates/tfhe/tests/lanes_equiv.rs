//! A wave is its gates, one at a time: key-switching B linear parts
//! coefficient-major and carrying them through each key group together
//! must give, for every gate, the bits `apply_into` / `mux_into` /
//! `apply3_into` / `cell_into` give it alone — an adder cell's carry *and*
//! sum, the carry being the `MAJ3` gate's — whatever B is against the lane
//! cap, whichever engine and unroll factor, however a dispatch mixes task
//! kinds and slabs, on one worker or two.

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine};
use matcha_math::{Torus32, TorusSampler};
use matcha_tfhe::{
    ClientKey, Gate, Gate3, GateBatchPool, GateTask, KeySwitchKey, LaneGate, LweCiphertext,
    LweSecretKey, ParameterSet, ServerKey, SlabTask, ValueSlab, MAX_LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Below, at, just past and twice past the lane cap, the last two with a
/// one-gate tail.
const BATCHES: [usize; 6] = [1, 2, 3, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 1];

/// Input slots per slab; a slab's outputs follow them.
const INPUTS: usize = 4;
const SLABS: usize = 3;

/// Task `i` of a batch: every gate of `Gate::ALL` in turn, every fourth
/// task a mux, every fifth a three-input gate, every seventh a free
/// negation, every ninth an adder cell (its sum stored at `sum`), operands
/// walking the slab's inputs.
fn task(i: usize, sum: usize) -> GateTask {
    let (a, b, sel) = (i % INPUTS, (i / 2 + 1) % INPUTS, (i + 2) % INPUTS);
    if i % 7 == 5 {
        GateTask::Not { a }
    } else if i % 9 == 2 {
        GateTask::Cell {
            ops: [a, sel, b],
            sum,
        }
    } else if i % 4 == 3 {
        GateTask::Mux { sel, a, b }
    } else if i % 5 == 1 {
        GateTask::Ternary {
            gate: Gate3::ALL[i / 5 % Gate3::ALL.len()],
            ops: [sel, a, b],
        }
    } else {
        GateTask::Binary {
            gate: Gate::ALL[i % Gate::ALL.len()],
            a,
            b,
        }
    }
}

/// `count` tasks dealt round-robin over `SLABS` fresh slabs holding
/// `inputs`; task `i` writes node `INPUTS + i / SLABS` of slab `i % SLABS`,
/// and a cell its sum as far again past the slab's last task.
fn deal(inputs: &[Vec<LweCiphertext>], count: usize) -> Vec<SlabTask> {
    let per_slab = count.div_ceil(SLABS);
    let slabs: Vec<Arc<ValueSlab>> = inputs
        .iter()
        .map(|values| {
            let slab = ValueSlab::new(INPUTS + 2 * per_slab);
            for (slot, v) in values.iter().enumerate() {
                slab.set(slot, v.clone());
            }
            Arc::new(slab)
        })
        .collect();
    (0..count)
        .map(|i| SlabTask {
            slab: Arc::clone(&slabs[i % SLABS]),
            node: INPUTS + i / SLABS,
            task: task(i, INPUTS + per_slab + i / SLABS),
        })
        .collect()
}

/// Where a dispatched task left its results: its node, and a cell's sum.
fn stored(st: &SlabTask) -> Vec<&LweCiphertext> {
    let sum = match st.task {
        GateTask::Cell { sum, .. } => Some(sum),
        _ => None,
    };
    [Some(st.node), sum]
        .into_iter()
        .flatten()
        .map(|node| st.slab.get(node))
        .collect()
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
    let mut wave_scratch = server.make_scratch();

    for count in BATCHES {
        // One at a time, through a scratch that never sees a second lane
        // (but for the mux's own two).
        let reference = deal(&inputs, count);
        let alone: Vec<Vec<LweCiphertext>> = reference
            .iter()
            .map(|st| {
                let mut outs = vec![LweCiphertext::default(); st.task.outputs()];
                st.task
                    .apply_into(&server, &st.slab, &mut outs, &mut scratch);
                if let GateTask::Cell { ops, .. } = st.task {
                    let mut majority = LweCiphertext::default();
                    let ops = ops.map(|node| st.slab.get(node));
                    server.apply3_into(Gate3::Maj, ops, &mut majority, &mut scratch);
                    assert_eq!(outs[0], majority, "a cell's carry is the MAJ3 gate's");
                }
                outs
            })
            .collect();

        // Chunked onto pool workers.
        for pool in &pools {
            let batch = deal(&inputs, count);
            let failures = pool.run_tasks(&batch);
            assert!(failures.is_empty(), "{failures:?}");
            for (i, (st, want)) in batch.iter().zip(&alone).enumerate() {
                assert_eq!(
                    stored(st),
                    want.iter().collect::<Vec<_>>(),
                    "unroll={unroll} count={count} threads={} task {i} ({:?})",
                    pool.threads(),
                    st.task
                );
            }
        }

        // The batched entry itself, on the bootstrapped tasks.
        let (gates, wanted): (Vec<LaneGate<'_>>, Vec<&Vec<LweCiphertext>>) = reference
            .iter()
            .zip(&alone)
            .filter_map(|(st, want)| {
                let v = |node| st.slab.get(node);
                let gate = match st.task {
                    GateTask::Binary { gate, a, b } => LaneGate::Binary {
                        gate,
                        a: v(a),
                        b: v(b),
                    },
                    GateTask::Mux { sel, a, b } => LaneGate::Mux {
                        sel: v(sel),
                        a: v(a),
                        b: v(b),
                    },
                    GateTask::Ternary { gate, ops } => LaneGate::Ternary {
                        gate,
                        ops: ops.map(v),
                    },
                    GateTask::Cell { ops, .. } => LaneGate::Cell { ops: ops.map(v) },
                    GateTask::Not { .. } => return None,
                };
                Some((gate, want))
            })
            .unzip();
        let wanted: Vec<&LweCiphertext> = wanted.into_iter().flatten().collect();
        let mut outs = vec![LweCiphertext::default(); wanted.len()];
        server.apply_lanes_into(&gates, &mut outs, &mut wave_scratch);
        for (i, (out, want)) in outs.iter().zip(wanted).enumerate() {
            assert_eq!(out, want, "unroll={unroll} count={count} output {i}");
        }
    }
    // The waves computed the right thing, not just the same thing.
    let batch = deal(&inputs, MAX_LANES);
    assert!(pools[0].run_tasks(&batch).is_empty());
    for st in &batch {
        let bit = |node| client.decrypt(st.slab.get(node));
        let want = match st.task {
            GateTask::Binary { gate, a, b } => gate.eval(bit(a), bit(b)),
            GateTask::Not { a } => !bit(a),
            GateTask::Mux { sel, a, b } => {
                if bit(sel) {
                    bit(a)
                } else {
                    bit(b)
                }
            }
            GateTask::Ternary { gate, ops } => gate.eval(bit(ops[0]), bit(ops[1]), bit(ops[2])),
            GateTask::Cell { ops, sum } => {
                let [a, b, c] = ops.map(bit);
                assert_eq!(bit(sum), a ^ b ^ c, "{:?}", st.task);
                Gate3::Maj.eval(a, b, c)
            }
        };
        assert_eq!(bit(st.node), want, "{:?}", st.task);
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
    let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
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
    let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
    let inputs = [LweCiphertext::trivial(Torus32::ZERO, 16)];
    ksk.switch_slice_into(&inputs, &mut []);
}
