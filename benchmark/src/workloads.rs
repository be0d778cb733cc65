//! The four workloads. Each is a closed loop with one client and exactly
//! one compute thread busy at any time (pool and server `threads = 1`):
//! the next op is issued only after the previous one was answered. Inputs
//! come from the seeded generator; the library only ever sees them. Every
//! op's decrypted output is checked against the plaintext spec, outside
//! the timed region.

use crate::trace::Recorder;
use matcha::circuits::netlist::{self, WordNetlist};
use matcha::circuits::word;
use matcha::fft::{ApproxIntFft, F64Fft, FftEngine};
use matcha::math::{
    mod_switch_from_torus, GadgetDecomposer, Torus32, TorusPolynomial, TorusSampler,
};
use matcha::tfhe::session::{self, PipeEnd, SessionClient, SessionOutcome, SessionServer};
use matcha::tfhe::{
    AnalysisPolicy, BootstrapScratch, CircuitClient, CircuitNetlist, CircuitServer, ClientKey,
    EpScratch, EquivBudget, Gate, LweCiphertext, ParameterSet, ServerConfig, ServerKey,
    TgswCiphertext, TgswSpectrum, TrlweCiphertext,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Twiddle precision of the approximate integer FFT (the paper's 38 bits).
const APPROX_BITS: u32 = 38;

/// Counts verified ops. An op fails if its outcome is not `Completed` or
/// any decrypted bit differs from the plaintext spec.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Test-only: flip one bit of the next expectation, to show that a
    /// wrong answer is counted as a failed op rather than passed.
    #[cfg(test)]
    pub flip_next: bool,
}

impl Checker {
    /// `got` is `None` when the op produced no output to decrypt.
    pub fn record(&mut self, got: Option<&[bool]>, want: &[bool]) {
        #[cfg(test)]
        let flipped: Vec<bool>;
        #[cfg(test)]
        let want = if std::mem::take(&mut self.flip_next) {
            flipped = want
                .iter()
                .enumerate()
                .map(|(i, &b)| b ^ (i == 0))
                .collect();
            &flipped[..]
        } else {
            want
        };
        self.attempted += 1;
        if got != Some(want) {
            self.failed += 1;
        }
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One benchmark workload: `setup` builds keys and servers from the seed,
/// `op` runs one closed-loop request and returns its wall time in ms.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Gate bootstraps one op costs as submitted (sizes trace blocks and
    /// the host-probe cadence).
    const BOOTSTRAPS_PER_OP: usize;

    fn setup(params: ParameterSet, seed: u64) -> Self;

    fn op(&mut self, rec: &mut Recorder, check: &mut Checker) -> f64;

    /// One unit of the work an op is made of ([`Probes::step`] on this
    /// workload's own key): what the host's slow-down of ops is read from.
    fn probe_op(&mut self);

    /// One unit of the work set-up is made of ([`Probes::key_element`]).
    fn probe_setup(&mut self);
}

/// An FFT engine + unroll factor pairing the gate loop and the ledger run.
pub trait GateConfig {
    type Engine: FftEngine + Send + Sync + 'static;
    const NAME: &'static str;
    const UNROLL: usize;
    fn engine(params: &ParameterSet) -> Self::Engine;
}

/// The software best path: double-precision SIMD FFT, unroll `m = 2`.
pub struct F64M2;

impl GateConfig for F64M2 {
    type Engine = F64Fft;
    const NAME: &'static str = "gate_f64_m2";
    const UNROLL: usize = 2;
    fn engine(params: &ParameterSet) -> F64Fft {
        F64Fft::new(params.ring_degree)
    }
}

/// The paper's contribution: multiplication-less integer FFT with 38-bit
/// twiddles and aggressive unrolling, `m = 3`.
pub struct Approx38M3;

impl GateConfig for Approx38M3 {
    type Engine = ApproxIntFft;
    const NAME: &'static str = "gate_approx38_m3";
    const UNROLL: usize = 3;
    fn engine(params: &ParameterSet) -> ApproxIntFft {
        ApproxIntFft::new(params.ring_degree, APPROX_BITS)
    }
}

/// The units of work a workload's time is made of, callable one at a time.
/// A bootstrap is `n/m` blind-rotation steps and a key generation is
/// thousands of key elements, each well under a millisecond — short enough
/// that some of a run's samples fall between a neighbour's bursts. So the
/// mean of such samples over their fastest says how much the host slowed
/// this very code during the run, whatever the code's instruction mix is
/// (`host::SlowDown`).
pub struct Probes<E: FftEngine> {
    decomp: GadgetDecomposer,
    bundle: TgswSpectrum<E>,
    factors: E::MonomialFactors,
    exponents: Vec<u32>,
    /// Next key group to bundle; see `build_bundle`.
    group: usize,
    acc: TrlweCiphertext,
    ep: EpScratch<E>,
    rng: StdRng,
}

impl<E: FftEngine> Probes<E> {
    /// Buffers for `server`'s shape. `seed` feeds a generator of the
    /// probes' own, so probing never shifts a workload's inputs.
    pub fn new(client: &ClientKey, server: &ServerKey<E>, seed: u64) -> Self {
        let params = *server.params();
        let engine = server.engine();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70_726f_6265);
        let operand = client.encrypt_with(true, &mut rng);
        let exponents = operand.mask()[..server.unroll()]
            .iter()
            .map(|&a| mod_switch_from_torus(a, params.two_n()))
            .collect();
        let eighth = TorusPolynomial::constant(Torus32::from_dyadic(1, 3), params.ring_degree);
        let acc = TrlweCiphertext::encrypt(
            &eighth,
            client.ring_key(),
            params.ring_noise_stdev,
            engine,
            &mut TorusSampler::new(&mut rng),
        );
        Self {
            decomp: GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels),
            // Any TGSW of the right shape serves as the bundle buffer.
            bundle: TgswCiphertext::trivial_one(&params).to_spectrum(engine),
            factors: Default::default(),
            exponents,
            group: 0,
            acc,
            ep: EpScratch::new(engine, &params),
            rng,
        }
    }

    /// `build_bundle_into` on the next key group. Walks the key group by
    /// group, as blind rotation does: bundling one group over and over
    /// would read its keys from cache, while a real step streams them from
    /// memory. Skips the short group a key ends in when the unroll factor
    /// does not divide its bit count (one of 167 at `m = 3`): its bundle
    /// has fewer patterns, and the fastest samples must be fast because
    /// the host was quiet, not because the unit was smaller.
    pub fn build_bundle(&mut self, server: &ServerKey<E>) {
        let bk = server.kit().bootstrapping_key();
        if bk.groups()[self.group].len() < server.unroll() {
            self.group = (self.group + 1) % bk.groups().len();
        }
        let group = &bk.groups()[self.group];
        self.group = (self.group + 1) % bk.groups().len();
        bk.build_bundle_into(
            server.engine(),
            group,
            &self.exponents[..group.len()],
            server.params().two_n(),
            &mut self.bundle,
            &mut self.factors,
        );
    }

    /// `external_product_assign` of the last bundle onto the accumulator.
    pub fn external_product(&mut self, server: &ServerKey<E>) {
        self.bundle.external_product_assign(
            server.engine(),
            &mut self.acc,
            &self.decomp,
            &mut self.ep,
        );
    }

    /// One blind-rotation step, the unit an op's time is made of.
    pub fn step(&mut self, server: &ServerKey<E>) {
        self.build_bundle(server);
        self.external_product(server);
    }

    /// One bootstrapping-key element (TGSW-encrypt a constant, transform
    /// it), the unit key generation's time is made of.
    pub fn key_element(&mut self, client: &ClientKey, server: &ServerKey<E>) {
        let engine = server.engine();
        let element = TgswCiphertext::encrypt_constant(
            1,
            client.ring_key(),
            server.params(),
            engine,
            &mut TorusSampler::new(&mut self.rng),
        );
        std::hint::black_box(element.to_spectrum(engine));
    }
}

pub fn keygen<C: GateConfig>(
    params: ParameterSet,
    rng: &mut StdRng,
) -> (ClientKey, ServerKey<C::Engine>) {
    let client = ClientKey::generate(params, rng);
    let server = ServerKey::with_unrolling(&client, C::engine(&params), C::UNROLL, rng);
    (client, server)
}

/// `gate_f64_m2` / `gate_approx38_m3`: one binary gate per op through the
/// zero-allocation `ServerKey::apply_into`. Gates cycle `Gate::ALL`;
/// operands are two distinct members of a pool of eight ciphertexts and
/// the output replaces a pool slot, so inputs are bootstrapped outputs as
/// they are inside a circuit.
pub struct GateLoop<C: GateConfig> {
    client: ClientKey,
    server: ServerKey<C::Engine>,
    scratch: BootstrapScratch<C::Engine>,
    probes: Probes<C::Engine>,
    pool: Vec<LweCiphertext>,
    plain: Vec<bool>,
    out: LweCiphertext,
    rng: StdRng,
    step: usize,
}

const POOL: u64 = 8;

impl<C: GateConfig> Workload for GateLoop<C> {
    const NAME: &'static str = C::NAME;
    const BOOTSTRAPS_PER_OP: usize = 1;

    fn setup(params: ParameterSet, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (client, server) = keygen::<C>(params, &mut rng);
        let plain: Vec<bool> = (0..POOL).map(|_| rng.gen()).collect();
        let pool = plain
            .iter()
            .map(|&bit| client.encrypt_with(bit, &mut rng))
            .collect();
        Self {
            scratch: server.make_scratch(),
            probes: Probes::new(&client, &server, seed),
            client,
            server,
            pool,
            plain,
            out: LweCiphertext::default(),
            rng,
            step: 0,
        }
    }

    fn op(&mut self, rec: &mut Recorder, check: &mut Checker) -> f64 {
        let gate = Gate::ALL[self.step % Gate::ALL.len()];
        self.step += 1;
        let a = self.rng.gen::<u64>() % POOL;
        let b = (a + 1 + self.rng.gen::<u64>() % (POOL - 1)) % POOL;
        let dst = (self.rng.gen::<u64>() % POOL) as usize;
        let (a, b) = (a as usize, b as usize);

        let t0 = Instant::now();
        let request = rec.enter_request("request");
        let call = rec.enter("gates.apply_into");
        self.server.apply_into(
            gate,
            &self.pool[a],
            &self.pool[b],
            &mut self.out,
            &mut self.scratch,
        );
        rec.exit(call);
        rec.exit(request);
        let ms = elapsed_ms(t0);

        let want = gate.eval(self.plain[a], self.plain[b]);
        std::mem::swap(&mut self.out, &mut self.pool[dst]);
        let got = self.client.decrypt(&self.pool[dst]);
        check.record(Some(&[got]), &[want]);
        // Track what the slot really holds, so one wrong gate is one
        // failed op and not a cascade.
        self.plain[dst] = got;
        ms
    }

    fn probe_op(&mut self) {
        self.probes.step(&self.server);
    }

    fn probe_setup(&mut self) {
        self.probes.key_element(&self.client, &self.server);
    }
}

/// The software-best-path keys every serving workload and the serving
/// half of the ledger share.
pub struct ServingKeys {
    pub client: ClientKey,
    pub server: Arc<ServerKey<F64Fft>>,
    probes: Probes<F64Fft>,
}

impl ServingKeys {
    pub fn new(client: ClientKey, server: Arc<ServerKey<F64Fft>>, seed: u64) -> Self {
        Self {
            probes: Probes::new(&client, &server, seed),
            client,
            server,
        }
    }

    pub fn generate(params: ParameterSet, seed: u64, rng: &mut StdRng) -> Self {
        let (client, server) = keygen::<F64M2>(params, rng);
        Self::new(client, Arc::new(server), seed)
    }

    fn probe_op(&mut self) {
        self.probes.step(&self.server);
    }

    fn probe_setup(&mut self) {
        self.probes.key_element(&self.client, &self.server);
    }

    /// One-worker `CircuitServer` whose admission analyzes every netlist
    /// and schedules its rewrite only under a BDD proof of equivalence.
    pub fn start_server(&self) -> CircuitServer {
        let config = ServerConfig {
            analysis: Some(AnalysisPolicy {
                require_equivalence: Some(EquivBudget::default()),
                ..AnalysisPolicy::default()
            }),
            ..ServerConfig::default()
        };
        CircuitServer::start_with(Arc::clone(&self.server), 1, config)
    }
}

const BITWISE_GATES: [Gate; 4] = [Gate::And, Gate::Xor, Gate::Or, Gate::Nand];
pub const BITWISE_WIDTH: usize = 16;
pub const ADDER_WIDTH: usize = 4;

/// The one-wave circuit of `serve_bitwise16`: 16 independent `gate`s.
pub fn bitwise16(gate: Gate) -> CircuitNetlist {
    let mut w = WordNetlist::new();
    let a = w.input_word(BITWISE_WIDTH);
    let b = w.input_word(BITWISE_WIDTH);
    let out = w.bitwise(gate, &a, &b);
    w.mark_output_word(&out);
    w.finish()
}

/// The low `width` bits of `value`, least significant first.
pub fn bits_of(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// In-process client of a `CircuitServer` submitting bit-wise circuits
/// with per-LWE inputs: the throughput shape, no wire or packing code.
pub struct BitwiseClient {
    handle: CircuitClient,
    nets: Vec<CircuitNetlist>,
    step: usize,
}

impl BitwiseClient {
    pub fn new(handle: CircuitClient) -> Self {
        Self {
            handle,
            nets: BITWISE_GATES.into_iter().map(bitwise16).collect(),
            step: 0,
        }
    }

    /// encrypt two words → `submit` → `wait` → decrypt, timed; then check.
    pub fn op(
        &mut self,
        key: &ClientKey,
        rng: &mut StdRng,
        rec: &mut Recorder,
        check: &mut Checker,
    ) -> f64 {
        let which = self.step % BITWISE_GATES.len();
        self.step += 1;
        let mask = word::max_value(BITWISE_WIDTH);
        let (x, y) = (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask);

        let t0 = Instant::now();
        let request = rec.enter_request("request");
        let span = rec.enter("client.encrypt");
        let mut inputs = word::encrypt(key, x, BITWISE_WIDTH, rng);
        inputs.extend(word::encrypt(key, y, BITWISE_WIDTH, rng));
        rec.exit(span);
        let span = rec.enter("server.submit");
        let pending = self.handle.submit(self.nets[which].clone(), inputs);
        rec.exit(span);
        let span = rec.enter("server.wait");
        let outcome = pending.wait();
        rec.exit(span);
        let span = rec.enter("client.decrypt");
        let got: Option<Vec<bool>> = outcome
            .completed()
            .map(|run| run.outputs.iter().map(|c| key.decrypt(c)).collect());
        rec.exit(span);
        rec.exit(request);
        let ms = elapsed_ms(t0);

        let gate = BITWISE_GATES[which];
        let want: Vec<bool> = bits_of(x, BITWISE_WIDTH)
            .into_iter()
            .zip(bits_of(y, BITWISE_WIDTH))
            .map(|(a, b)| gate.eval(a, b))
            .collect();
        check.record(got.as_deref(), &want);
        ms
    }
}

/// `serve_bitwise16`: the scheduler hands the pool 16 ready tasks per
/// dispatch, so wave-level work shows here and nowhere on `gate_*`.
pub struct ServeBitwise16 {
    client: BitwiseClient,
    keys: ServingKeys,
    rng: StdRng,
    _server: CircuitServer,
}

impl Workload for ServeBitwise16 {
    const NAME: &'static str = "serve_bitwise16";
    const BOOTSTRAPS_PER_OP: usize = BITWISE_WIDTH;

    fn setup(params: ParameterSet, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ServingKeys::generate(params, seed, &mut rng);
        let server = keys.start_server();
        Self {
            client: BitwiseClient::new(server.client()),
            keys,
            rng,
            _server: server,
        }
    }

    fn op(&mut self, rec: &mut Recorder, check: &mut Checker) -> f64 {
        self.client.op(&self.keys.client, &mut self.rng, rec, check)
    }

    fn probe_op(&mut self) {
        self.keys.probe_op();
    }

    fn probe_setup(&mut self) {
        self.keys.probe_setup();
    }
}

/// A framed session over the in-memory duplex pipe: the client's-eye path
/// through every layer. The server half runs on its own thread, blocked
/// while the pool worker computes.
pub struct WireSession {
    wire: Option<SessionClient<PipeEnd>>,
    serve: Option<JoinHandle<io::Result<u64>>>,
    net: CircuitNetlist,
    engine: F64Fft,
}

impl WireSession {
    pub fn connect(server: &CircuitServer) -> Self {
        let (near, far) = session::duplex();
        let endpoint = SessionServer::new(server.client(), *server.params());
        let serve = std::thread::spawn(move || endpoint.serve(far));
        let wire = SessionClient::connect(near).expect("handshake over the in-memory pipe");
        Self {
            wire: Some(wire),
            serve: Some(serve),
            net: netlist::ripple_adder(ADDER_WIDTH),
            engine: F64Fft::new(server.params().ring_degree),
        }
    }

    /// pack 8 bits → frame → admit (analyze + proof) → unpack → ripple
    /// waves → outcome frame → decrypt 5 bits, timed; then check the sum.
    pub fn op(
        &mut self,
        key: &ClientKey,
        rng: &mut StdRng,
        rec: &mut Recorder,
        check: &mut Checker,
    ) -> f64 {
        let wire = self.wire.as_mut().expect("session is open until dropped");
        let mask = word::max_value(ADDER_WIDTH);
        let (x, y) = (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask);
        let mut bits = bits_of(x, ADDER_WIDTH);
        bits.extend(bits_of(y, ADDER_WIDTH));

        let t0 = Instant::now();
        let request = rec.enter_request("request");
        let span = rec.enter("session.submit");
        let ticket = wire.submit_bits(key, &self.net, &bits, &self.engine, rng);
        rec.exit(span);
        let span = rec.enter("session.wait");
        let outcome = ticket.and_then(|_| wire.wait());
        rec.exit(span);
        let span = rec.enter("session.decrypt");
        let got: Option<Vec<bool>> = match outcome {
            Ok((_, SessionOutcome::Completed(run))) => {
                Some(run.outputs.iter().map(|c| key.decrypt(c)).collect())
            }
            _ => None,
        };
        rec.exit(span);
        rec.exit(request);
        let ms = elapsed_ms(t0);

        check.record(got.as_deref(), &bits_of(x + y, ADDER_WIDTH + 1));
        ms
    }
}

impl Drop for WireSession {
    fn drop(&mut self) {
        // Closing the client end is a clean end of session: `serve` returns.
        drop(self.wire.take());
        if let Some(serve) = self.serve.take() {
            let _ = serve.join();
        }
    }
}

/// `wire_adder4`: the latency shape. Wire and admission work runs only
/// here, and the ripple carry keeps waves narrow.
pub struct WireAdder4 {
    // Declared before the server so the session closes first.
    session: WireSession,
    keys: ServingKeys,
    rng: StdRng,
    _server: CircuitServer,
}

impl Workload for WireAdder4 {
    const NAME: &'static str = "wire_adder4";
    const BOOTSTRAPS_PER_OP: usize = 5 * ADDER_WIDTH;

    fn setup(params: ParameterSet, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ServingKeys::generate(params, seed, &mut rng);
        let server = keys.start_server();
        Self {
            session: WireSession::connect(&server),
            keys,
            rng,
            _server: server,
        }
    }

    fn op(&mut self, rec: &mut Recorder, check: &mut Checker) -> f64 {
        self.session
            .op(&self.keys.client, &mut self.rng, rec, check)
    }

    fn probe_op(&mut self) {
        self.keys.probe_op();
    }

    fn probe_setup(&mut self) {
        self.keys.probe_setup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_mismatch_missing_output_and_flipped_expectation() {
        let mut check = Checker::default();
        check.record(Some(&[true, false]), &[true, false]);
        assert_eq!((check.attempted, check.failed), (1, 0));
        check.record(Some(&[true, true]), &[true, false]);
        check.record(None, &[true, false]);
        assert_eq!((check.attempted, check.failed), (3, 2));
        check.flip_next = true;
        check.record(Some(&[true, false]), &[true, false]);
        assert_eq!((check.attempted, check.failed), (4, 3));
        // The flip is one-shot.
        check.record(Some(&[true, false]), &[true, false]);
        assert_eq!((check.attempted, check.failed), (5, 3));
    }

    #[test]
    fn word_helpers_are_lsb_first() {
        assert_eq!(bits_of(0b0110, 4), [false, true, true, false]);
        assert_eq!(bits_of(9 + 15, 5), [false, false, false, true, true]);
        assert_eq!(bitwise16(Gate::And).bootstraps(), 16);
    }
}
