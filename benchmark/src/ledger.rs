//! The per-layer ledger of a traced run. Every row is the median of warmed
//! calls into one layer's public function, timed from outside; each sample
//! is also a span. Rows are sampled round-robin — every round touches
//! every row — so host drift during the ledger hits all rows alike and the
//! `*_share` rows (each a ratio of two rows, base stated in the README)
//! are not a comparison across minutes.
//!
//! The serving half also *replays*, stage by stage, the server-side work
//! of a wire request that cannot be seen from the client (frame decode,
//! analysis, equivalence proof, unpacking, execution, outcome encode), so
//! `session.unattributed_share` can say how much of the client's wait the
//! stages do not explain: thread hops and queueing.

use crate::metrics::{median, Report, PER_LAYER};
use crate::trace::Recorder;
use crate::workloads::{
    bits_of, bitwise16, keygen, Approx38M3, BitwiseClient, Checker, GateConfig, Probes,
    ServingKeys, WireSession, ADDER_WIDTH, BITWISE_WIDTH, F64M2,
};
use matcha::accel::platforms::Platform;
use matcha::circuits::netlist;
use matcha::circuits::word;
use matcha::fft::{simd_detected, FftEngine, Spectrum};
use matcha::math::{Torus32, TorusPolynomial, TorusSampler};
use matcha::tfhe::analyze::equiv;
use matcha::tfhe::session::{
    OutcomeFrame, SessionInputs, SessionOutcome, SessionRun, SubmitCircuit,
};
use matcha::tfhe::{
    analyze, packing, simplify, BootstrapScratch, CircuitClient, CircuitNetlist, CircuitServer,
    ClientKey, Codec, EquivBudget, Gate, GateBatchPool, LweCiphertext, ParameterSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds every ledger run completes whatever its time budget, so each
/// row's median rests on at least this many samples.
const MIN_ROUNDS: usize = 3;
/// Crypto-row passes per round: they are ~50× cheaper than the serving
/// rows, so they can afford more samples.
const CRYPTO_PASSES: usize = 3;
/// Calls per sample for rows far shorter than the clock's overhead.
const TRANSFORM_BATCH: u32 = 64;
const STEP_BATCH: u32 = 8;

/// Samples by row name: nanoseconds per call for timed rows, the raw
/// value for counts.
struct Ledger<'a> {
    rec: &'a mut Recorder,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger<'_> {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Times one call of `f` as a sample of `name` and a span.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.rec.enter(name);
        let t0 = Instant::now();
        let value = f();
        let ns = t0.elapsed().as_nanos() as f64;
        self.rec.exit(span);
        self.push(name, ns);
        value
    }

    /// Times `calls` back-to-back calls of `f` as one sample (and one
    /// span) of `name`, in nanoseconds per call.
    fn time_batch<T>(&mut self, name: &'static str, calls: u32, mut f: impl FnMut(u32) -> T) {
        let span = self.rec.enter(name);
        let t0 = Instant::now();
        for i in 0..calls {
            black_box(f(i));
        }
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(calls);
        self.rec.exit(span);
        self.push(name, ns);
    }

    /// Turns the spans recorded since `from` into samples: `(span name,
    /// row name)` pairs. This is how rows of a real client-side request
    /// are read off its own spans.
    fn harvest(&mut self, from: usize, rows: &[(&'static str, &'static str)]) {
        let found: Vec<(&'static str, f64)> = self.rec.spans()[from..]
            .iter()
            .filter_map(|s| {
                let row = rows.iter().find(|(span, _)| *span == s.name)?.1;
                Some((row, (s.end_ns - s.start_ns) as f64))
            })
            .collect();
        for (row, ns) in found {
            self.push(row, ns);
        }
    }

    fn p50(&self, name: &str) -> f64 {
        median(
            self.samples
                .get(name)
                .unwrap_or_else(|| panic!("ledger row {name} was never sampled")),
        )
    }
}

/// The row names of one engine/unroll pairing.
struct CryptoRows {
    forward: &'static str,
    backward: &'static str,
    transforms_per_gate: &'static str,
    extprod: &'static str,
    nonfft_share: &'static str,
    bundle: &'static str,
    steps: &'static str,
    key_mb: &'static str,
    keygen: &'static str,
    blind_rotate: &'static str,
    bootstrap_unattributed: &'static str,
    apply: &'static str,
    gates_unattributed: &'static str,
}

trait LedgerConfig: GateConfig {
    const ROWS: CryptoRows;
}

impl LedgerConfig for F64M2 {
    const ROWS: CryptoRows = CryptoRows {
        forward: "fft.f64.forward_us",
        backward: "fft.f64.backward_us",
        transforms_per_gate: "fft.transforms_per_gate.m2",
        extprod: "tgsw.extprod_us.f64_m2",
        nonfft_share: "tgsw.nonfft_share.f64_m2",
        bundle: "bku.bundle_us.f64_m2",
        steps: "bku.steps.m2",
        key_mb: "bku.key_mb.m2",
        keygen: "bku.keygen_s.f64_m2",
        blind_rotate: "bootstrap.blind_rotate_ms.f64_m2",
        bootstrap_unattributed: "bootstrap.unattributed_share.f64_m2",
        apply: "gates.apply_ms.f64_m2",
        gates_unattributed: "gates.unattributed_share.f64_m2",
    };
}

impl LedgerConfig for Approx38M3 {
    const ROWS: CryptoRows = CryptoRows {
        forward: "fft.approx38.forward_us",
        backward: "fft.approx38.backward_us",
        transforms_per_gate: "fft.transforms_per_gate.m3",
        extprod: "tgsw.extprod_us.approx38_m3",
        nonfft_share: "tgsw.nonfft_share.approx38_m3",
        bundle: "bku.bundle_us.approx38_m3",
        steps: "bku.steps.m3",
        key_mb: "bku.key_mb.m3",
        keygen: "bku.keygen_s.approx38_m3",
        blind_rotate: "bootstrap.blind_rotate_ms.approx38_m3",
        bootstrap_unattributed: "bootstrap.unattributed_share.approx38_m3",
        apply: "gates.apply_ms.approx38_m3",
        gates_unattributed: "gates.unattributed_share.approx38_m3",
    };
}

const MB: f64 = (1 << 20) as f64;

/// Operands and warmed buffers for the crypto rows of one pairing: FFT,
/// external product, bundle build, blind rotation, key switch, gate.
struct CryptoBench<C: LedgerConfig> {
    client: ClientKey,
    key: Arc<ServerKey<C::Engine>>,
    poly: TorusPolynomial,
    spectrum: <C::Engine as FftEngine>::Spectrum,
    fft_scratch: <C::Engine as FftEngine>::Scratch,
    /// The bundle and external-product rows are the two halves of the
    /// workloads' own blind-rotation-step probe.
    probes: Probes<C::Engine>,
    scratch: BootstrapScratch<C::Engine>,
    inputs: [(bool, LweCiphertext); 2],
    extracted: LweCiphertext,
    out: LweCiphertext,
}

impl<C: LedgerConfig> CryptoBench<C> {
    fn new(params: ParameterSet, seed: u64, rng: &mut StdRng, ledger: &mut Ledger) -> Self {
        let (client, key) = ledger.time(C::ROWS.keygen, || keygen::<C>(params, rng));
        let engine = key.engine();
        let poly = TorusSampler::new(&mut *rng).uniform_poly(params.ring_degree);
        let inputs = [true, false].map(|bit| (bit, client.encrypt_with(bit, rng)));
        let mut scratch = key.make_scratch();
        scratch
            .test_vector_mut()
            .coeffs_mut()
            .fill(Torus32::from_dyadic(1, 3));
        Self {
            poly,
            spectrum: engine.zero_spectrum(),
            fft_scratch: engine.make_scratch(),
            probes: Probes::new(&client, &key, seed),
            scratch,
            inputs,
            extracted: LweCiphertext::default(),
            out: LweCiphertext::default(),
            client,
            key: Arc::new(key),
        }
    }

    /// One sample of every timed row, innermost layer first.
    fn pass(&mut self, ledger: &mut Ledger, check: &mut Checker) {
        let rows = &C::ROWS;
        let engine = self.key.engine();
        let kit = self.key.kit();

        ledger.time_batch(rows.forward, TRANSFORM_BATCH, |_| {
            engine.forward_torus_into(&self.poly, &mut self.spectrum, &mut self.fft_scratch)
        });
        ledger.time_batch(rows.backward, TRANSFORM_BATCH, |_| {
            engine.backward_torus_into(&self.spectrum, &mut self.poly, &mut self.fft_scratch)
        });
        ledger.time_batch(rows.bundle, STEP_BATCH, |_| {
            self.probes.build_bundle(&self.key)
        });
        ledger.time_batch(rows.extprod, STEP_BATCH, |_| {
            self.probes.external_product(&self.key)
        });
        ledger.time(rows.blind_rotate, || {
            kit.blind_rotate_assign(engine, &self.inputs[0].1, &mut self.scratch)
        });
        self.scratch
            .accumulator()
            .sample_extract_into(&mut self.extracted);
        ledger.time("keyswitch.switch_ms", || {
            kit.key_switch_key()
                .switch_into(&self.extracted, &mut self.out)
        });
        let [(a, ca), (b, cb)] = &self.inputs;
        ledger.time(rows.apply, || {
            self.key
                .apply_into(Gate::Nand, ca, cb, &mut self.out, &mut self.scratch)
        });
        check.record(
            Some(&[self.client.decrypt(&self.out)]),
            &[Gate::Nand.eval(*a, *b)],
        );
    }

    /// The computed rows and the shares, each from the medians above.
    fn publish(&self, ledger: &Ledger, report: &mut Report) {
        let rows = &C::ROWS;
        let params = self.key.params();
        let bk = self.key.kit().bootstrapping_key();
        let steps = bk.groups().len() as f64;
        let forwards = 2 * params.decomp_levels;
        report.set(rows.steps, steps);
        report.set(rows.transforms_per_gate, steps * (forwards + 2) as f64);
        // Both engines store a spectrum as split re/im vectors of 8-byte
        // words, N/2 points each; a TGSW sample is 2ℓ rows of two spectra.
        let tgsw_bytes = forwards * 2 * self.spectrum.len() * 16;
        report.set(rows.key_mb, (bk.key_count() * tgsw_bytes) as f64 / MB);

        let extprod = ledger.p50(rows.extprod);
        let transforms =
            forwards as f64 * ledger.p50(rows.forward) + 2.0 * ledger.p50(rows.backward);
        report.set(rows.nonfft_share, 1.0 - transforms / extprod);
        let blind_rotate = ledger.p50(rows.blind_rotate);
        report.set(
            rows.bootstrap_unattributed,
            1.0 - steps * (ledger.p50(rows.bundle) + extprod) / blind_rotate,
        );
        report.set(
            rows.gates_unattributed,
            1.0 - (blind_rotate + ledger.p50("keyswitch.switch_ms")) / ledger.p50(rows.apply),
        );
    }
}

/// The serving rows: one pool per worker count, one server with the
/// workloads' admission policy, one wire session on it.
struct ServingBench {
    // Declared before the server so the session closes first.
    session: WireSession,
    bitwise: BitwiseClient,
    handle: CircuitClient,
    server: CircuitServer,
    pool1: GateBatchPool<matcha::fft::F64Fft>,
    pool2: GateBatchPool<matcha::fft::F64Fft>,
    keys: ServingKeys,
    adder: CircuitNetlist,
    /// What admission schedules for `adder`: its proven `simplify` rewrite.
    admitted: CircuitNetlist,
    bitwise_net: CircuitNetlist,
}

impl ServingBench {
    fn new(keys: ServingKeys) -> Self {
        let server = keys.start_server();
        let adder = netlist::ripple_adder(ADDER_WIDTH);
        Self {
            session: WireSession::connect(&server),
            bitwise: BitwiseClient::new(server.client()),
            handle: server.client(),
            server,
            pool1: GateBatchPool::new(Arc::clone(&keys.server), 1),
            pool2: GateBatchPool::new(Arc::clone(&keys.server), 2),
            keys,
            admitted: simplify(&adder).0,
            adder,
            bitwise_net: bitwise16(Gate::Xor),
        }
    }

    fn round(&mut self, rng: &mut StdRng, ledger: &mut Ledger, check: &mut Checker) {
        let key = &self.keys.client;
        let decrypt = |outputs: &[LweCiphertext]| -> Vec<bool> {
            outputs.iter().map(|c| key.decrypt(c)).collect()
        };

        // circuit + batch: the one-wave circuit on one worker, then two.
        let mask = word::max_value(BITWISE_WIDTH);
        let (x, y) = (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask);
        let mut inputs = word::encrypt(key, x, BITWISE_WIDTH, rng);
        inputs.extend(word::encrypt(key, y, BITWISE_WIDTH, rng));
        let want = bits_of(x ^ y, BITWISE_WIDTH);
        let run = ledger.time("circuit.execute_ms.bitwise16", || {
            self.bitwise_net.execute(&self.pool1, &inputs)
        });
        check.record(Some(&decrypt(&run.outputs)), &want);
        ledger.push("circuit.bootstraps.bitwise16", run.bootstraps as f64);
        ledger.push("circuit.waves.bitwise16", run.waves as f64);
        let run = ledger.time("batch.execute_w2", || {
            self.bitwise_net.execute(&self.pool2, &inputs)
        });
        check.record(Some(&decrypt(&run.outputs)), &want);

        // server: in-process ops, scheduler counters read around each.
        let before = self.server.stats();
        let ms = self.bitwise.op(key, rng, ledger.rec, check);
        ledger.push("server.op_ms.bitwise16", ms * 1e6);
        let middle = self.server.stats();
        let mask = word::max_value(ADDER_WIDTH);
        let (x, y) = (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask);
        let mut inputs = word::encrypt(key, x, ADDER_WIDTH, rng);
        inputs.extend(word::encrypt(key, y, ADDER_WIDTH, rng));
        let want = bits_of(x + y, ADDER_WIDTH + 1);
        let outcome = ledger.time("server.submit_wait_ms.adder4", || {
            self.handle.submit(self.adder.clone(), inputs).wait()
        });
        let got = outcome.completed().map(|run| decrypt(&run.outputs));
        check.record(got.as_deref(), &want);
        let after = self.server.stats();
        let bitwise_stats = middle.since(&before);
        let adder_stats = after.since(&middle);
        ledger.push(
            "server.dispatches_per_op.bitwise16",
            bitwise_stats.dispatches as f64,
        );
        ledger.push(
            "server.dispatches_per_op.adder4",
            adder_stats.dispatches as f64,
        );

        // session: one real wire request; its client-side spans are rows.
        let from = ledger.rec.spans().len();
        let ms = self.session.op(key, rng, ledger.rec, check);
        ledger.push("session.op_ms", ms * 1e6);
        ledger.harvest(
            from,
            &[
                ("session.submit", "session.submit_ms"),
                ("session.wait", "session.wait_ms"),
                ("session.decrypt", "session.decrypt_us"),
            ],
        );

        self.replay_wire_request(x, y, rng, ledger, check);
    }

    /// The server-side stages of a wire request, replayed one at a time
    /// on the calling thread (execution on the one-worker pool).
    fn replay_wire_request(
        &mut self,
        x: u64,
        y: u64,
        rng: &mut StdRng,
        ledger: &mut Ledger,
        check: &mut Checker,
    ) {
        let key = &self.keys.client;
        let server_key = &self.keys.server;
        let params = *server_key.params();
        let engine = server_key.engine();
        let mut bits = bits_of(x, ADDER_WIDTH);
        bits.extend(bits_of(y, ADDER_WIDTH));
        let request = ledger.rec.enter_request("replay.wire_adder4");

        let packed = ledger.time("packing.pack_bits", || {
            packing::pack_bits(key, &bits, engine, rng)
        });
        let submit = SubmitCircuit {
            netlist: self.adder.clone(),
            inputs: SessionInputs::Packed(vec![packed]),
        };
        let bytes = submit.to_bytes();
        ledger.push("codec.submit_bytes.adder4", bytes.len() as f64);
        let submit = ledger
            .time("codec.submit_decode_us", || {
                SubmitCircuit::from_bytes(&bytes)
            })
            .expect("a frame this process just encoded");
        let SessionInputs::Packed(samples) = submit.inputs else {
            unreachable!("encoded as packed");
        };

        ledger.time("analyze.analyze_us.adder4", || {
            analyze(&submit.netlist, &params, server_key.unroll())
        });
        let proof = ledger.time("analyze.equiv_proof_us.adder4", || {
            let (rewritten, _) = simplify(&submit.netlist);
            equiv::check(&submit.netlist, &rewritten, EquivBudget::default())
        });
        ledger.push("analyze.equiv_nodes.adder4", proof.nodes as f64);

        let ksk = server_key.kit().key_switch_key();
        let mut inputs = Vec::with_capacity(bits.len());
        ledger.time_batch("packing.extract_bit_ms", bits.len() as u32, |i| {
            inputs.push(packing::extract_bit(&samples[0], i as usize, ksk, &params))
        });

        let run = ledger.time("circuit.execute_ms.adder4", || {
            self.admitted.execute(&self.pool1, &inputs)
        });
        let got: Vec<bool> = run.outputs.iter().map(|c| key.decrypt(c)).collect();
        check.record(Some(&got), &bits_of(x + y, ADDER_WIDTH + 1));
        ledger.push("circuit.bootstraps.adder4", run.bootstraps as f64);
        ledger.push("circuit.waves.adder4", run.waves as f64);

        let frame = OutcomeFrame {
            id: 0,
            outcome: SessionOutcome::Completed(SessionRun {
                outputs: run.outputs,
                waves: run.waves,
                scheduled_ops: run.scheduled_ops,
                bootstraps: run.bootstraps,
                elapsed_s: run.elapsed_s,
            }),
        };
        let bytes = ledger.time("codec.outcome_encode_us", || frame.to_bytes());
        ledger.push("codec.outcome_bytes.adder4", bytes.len() as f64);
        ledger.rec.exit(request);
    }

    fn publish(&self, ledger: &Ledger, report: &mut Report) {
        let floor = ledger.p50("gates.apply_ms.f64_m2");
        let share =
            |bootstraps: &str, op: &str| 1.0 - ledger.p50(bootstraps) * floor / ledger.p50(op);
        report.set(
            "server.overhead_share.bitwise16",
            share("circuit.bootstraps.bitwise16", "server.op_ms.bitwise16"),
        );
        report.set(
            "server.overhead_share.adder4",
            share("circuit.bootstraps.adder4", "server.submit_wait_ms.adder4"),
        );
        let one_worker = ledger.p50("circuit.execute_ms.bitwise16");
        let tasks = ledger.p50("circuit.bootstraps.bitwise16");
        report.set(
            "batch.task_overhead_us",
            (one_worker - tasks * floor) / tasks / 1e3,
        );
        report.set(
            "batch.scaling_w2",
            one_worker / ledger.p50("batch.execute_w2"),
        );
        let stats = self.server.stats();
        report.set("server.slot_utilization", stats.utilization());
        report.set(
            "server.not_completed",
            (stats.faulted + stats.rejected + stats.expired + stats.cancelled) as f64,
        );
        report.set(
            "session.wire_overhead_ms",
            (ledger.p50("session.op_ms") - ledger.p50("server.submit_wait_ms.adder4")) / 1e6,
        );
        let inputs = (2 * ADDER_WIDTH) as f64;
        report.set(
            "packing.pack_us_per_bit",
            ledger.p50("packing.pack_bits") / inputs / 1e3,
        );
        let staged = ledger.p50("codec.submit_decode_us")
            + ledger.p50("analyze.analyze_us.adder4")
            + ledger.p50("analyze.equiv_proof_us.adder4")
            + inputs * ledger.p50("packing.extract_bit_ms")
            + ledger.p50("circuit.execute_ms.adder4")
            + ledger.p50("codec.outcome_encode_us");
        report.set(
            "session.unattributed_share",
            1.0 - staged / ledger.p50("session.wait_ms"),
        );
    }
}

/// Simulated time from the accelerator model, not host time: these rows
/// repeat exactly, and a move here is a model change.
fn publish_accel(report: &mut Report) {
    let matcha = Platform::matcha_paper();
    let m3 = |value: Option<f64>| value.expect("the model supports m = 3");
    report.set(
        "accel.sim_gate_latency_us.m3",
        m3(matcha.latency_s(3)) * 1e6,
    );
    report.set("accel.sim_gates_per_s.m3", m3(matcha.throughput(3)));
    report.set(
        "accel.sim_gates_per_s_per_w.m3",
        m3(matcha.throughput_per_watt(3)),
    );
}

/// Runs the ledger for about `budget` (at least [`MIN_ROUNDS`] rounds) and
/// adds its rows to `report`. Verified ops are counted in `check`.
pub fn run(
    params: ParameterSet,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    check: &mut Checker,
    report: &mut Report,
) {
    // Its own stream of the seed: the ledger's inputs do not depend on
    // how many ops the workload phase got through.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c65_6467_6572);
    let mut ledger = Ledger {
        rec,
        samples: BTreeMap::new(),
    };
    let mut f64_m2 = CryptoBench::<F64M2>::new(params, seed, &mut rng, &mut ledger);
    let mut approx38_m3 = CryptoBench::<Approx38M3>::new(params, seed, &mut rng, &mut ledger);
    let mut serving = ServingBench::new(ServingKeys::new(
        f64_m2.client.clone(),
        Arc::clone(&f64_m2.key),
        seed,
    ));

    // One pass into a throw-away ledger sizes every scratch buffer; the
    // serving rows run on pools whose workers warm theirs when they start.
    let mut warm_up = Ledger {
        rec: &mut Recorder::new(false),
        samples: BTreeMap::new(),
    };
    f64_m2.pass(&mut warm_up, check);
    approx38_m3.pass(&mut warm_up, check);

    let deadline = Instant::now() + budget;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for _ in 0..CRYPTO_PASSES {
            f64_m2.pass(&mut ledger, check);
            approx38_m3.pass(&mut ledger, check);
        }
        serving.round(&mut rng, &mut ledger, check);
        rounds += 1;
    }

    // Every sampled row that is a declared metric, in the metric's unit.
    for def in &PER_LAYER {
        if ledger.samples.contains_key(def.name) {
            let per = match def.unit {
                "us" => 1e3,
                "ms" => 1e6,
                "s" => 1e9,
                _ => 1.0,
            };
            report.set(def.name, ledger.p50(def.name) / per);
        }
    }
    f64_m2.publish(&ledger, report);
    approx38_m3.publish(&ledger, report);
    serving.publish(&ledger, report);
    let ksk = f64_m2.key.kit().key_switch_key();
    report.set(
        "keyswitch.key_mb",
        (ksk.entry_count() * (ksk.to_dimension() + 1) * 4) as f64 / MB,
    );
    report.set("host.simd", f64::from(u8::from(simd_detected())));
    publish_accel(report);
}
