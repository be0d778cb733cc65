//! The headline property of this optimization: a **warmed** scratch
//! bootstrap performs zero heap allocations. Measured directly with a
//! counting global allocator (this integration test is its own binary, so
//! the allocator hook is isolated from the rest of the suite). The same
//! allocator keeps the bytes a thread has live, which is how key
//! generation is held to "the key and one sample".

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine, Leg};
use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial, TorusSampler};
use matcha_tfhe::{
    BootstrapKit, ClientKey, EpScratch, Gate, KeySwitchKey, LaneGate, LweCiphertext, LweSecretKey,
    ParameterSet, RingSecretKey, ServerKey, TgswCiphertext, TrlweCiphertext,
    UnrolledBootstrappingKey, MAX_LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation **per thread**, so
/// the measured windows below stay correct when libtest runs the other
/// tests of this binary concurrently (their allocations land on their own
/// threads' counters).
struct CountingAlloc;

thread_local! {
    // const-initialized: accessing it inside the allocator cannot itself
    // allocate (no lazy TLS initialization).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (signed: a thread may
    /// free what another allocated), and the highest that has stood since
    /// [`live_bytes_peak_of`] last reset it.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<i64> = const { Cell::new(0) };
}

fn bump() {
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

fn live(delta: i64) {
    let now = THREAD_LIVE.with(|c| {
        c.set(c.get() + delta);
        c.get()
    });
    THREAD_PEAK.with(|c| c.set(c.get().max(now)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by the calling thread so far.
fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

/// The most bytes the calling thread had live at any moment of `f`, over
/// what it had live when `f` began.
fn live_bytes_peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = THREAD_LIVE.with(|c| c.get());
    THREAD_PEAK.with(|c| c.set(before));
    let out = f();
    let peak = THREAD_PEAK.with(|c| c.get());
    (out, (peak - before) as usize)
}

/// Generating a bootstrapping key writes each row into the key's slab as
/// it is produced: beside the key itself no more than one TGSW sample (in
/// coefficients, `2ℓ` rows of two polynomials) and a few spectra of
/// working space are ever live — never a second copy of the key, which at
/// the paper's parameters would be the process's peak.
fn assert_generation_holds_one_sample_beside_the_key<E: FftEngine>(engine: &E, seed: u64) {
    // The paper's ring and gadget; 48 key bits make 24 groups, 3.4 MB.
    let params = ParameterSet {
        lwe_dimension: 48,
        ..ParameterSet::MATCHA
    };
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(seed));
    let lwe_key = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
    let ring_key = RingSecretKey::generate(params.ring_degree, &mut sampler);
    let (bk, peak) = live_bytes_peak_of(|| {
        UnrolledBootstrappingKey::generate(&lwe_key, &ring_key, &params, engine, 2, &mut sampler)
    });
    let sample = 2 * params.decomp_levels * 2 * params.ring_degree * 4;
    let allowance = bk.stored_bytes() + sample + (64 << 10);
    assert!(
        peak <= allowance,
        "generation had {peak} bytes live; the key is {} and a sample {sample}",
        bk.stored_bytes()
    );
    // The meter sees a second copy when there is one.
    let (_copy, with_copy) = live_bytes_peak_of(|| vec![0u8; bk.stored_bytes()]);
    assert!(with_copy >= bk.stored_bytes());
}

#[test]
fn key_generation_holds_one_sample_beside_the_key() {
    assert_generation_holds_one_sample_beside_the_key(&F64Fft::new(1024), 31);
    assert_generation_holds_one_sample_beside_the_key(&ApproxIntFft::new(1024, 38), 32);
}

/// The key-switching key is written into one allocation of its final size:
/// at the paper's `N = 1024 → n = 500` generation never has more live than
/// the key and one sample's mask — no `Vec` doubling, no second copy — and
/// the key stores 1 504 B an entry (three-byte mask words, a four-byte
/// body).
#[test]
fn key_switching_key_generation_holds_only_the_key() {
    let params = ParameterSet::MATCHA;
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(33));
    let from = LweSecretKey::generate(params.ring_degree, &mut sampler);
    let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
    let (ksk, peak) = live_bytes_peak_of(|| {
        KeySwitchKey::generate(&from, &to, &params, Leg::host(), &mut sampler)
    });
    assert_eq!(ksk.entry_count(), 16_384);
    let entries = ksk.entry_count() * 1_504;
    assert!(
        (entries..=entries + 32).contains(&ksk.stored_bytes()),
        "the key stores {} bytes",
        ksk.stored_bytes()
    );
    assert!(
        peak <= ksk.stored_bytes() + (64 << 10),
        "generation had {peak} bytes live; the key is {}",
        ksk.stored_bytes()
    );
}

/// The fused decompose→twist external product stays allocation-free once
/// its scratch is warmed, on any engine.
fn assert_zero_alloc_external_product<E: FftEngine>(engine: &E, seed: u64) {
    let p = ParameterSet {
        ring_degree: 256,
        ..ParameterSet::TEST_FAST
    };
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(seed));
    let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
    let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
    let tgsw =
        TgswCiphertext::encrypt_constant(1, &key, &p, engine, &mut sampler).to_spectrum(engine);
    let mu = TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree);
    let mut acc = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, engine, &mut sampler);

    let mut scratch = EpScratch::new(engine, &p);
    // Warm-up: sizes every buffer in the scratch.
    tgsw.external_product_assign(engine, &mut acc, &decomp, &mut scratch);
    tgsw.external_product_assign(engine, &mut acc, &decomp, &mut scratch);

    let before = allocations();
    for _ in 0..4 {
        tgsw.external_product_assign(engine, &mut acc, &decomp, &mut scratch);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warmed external product allocated {delta} times");
}

#[test]
fn warmed_external_product_allocates_nothing() {
    assert_zero_alloc_external_product(&F64Fft::new(256), 7);
}

#[test]
fn warmed_external_product_allocates_nothing_approx() {
    assert_zero_alloc_external_product(&ApproxIntFft::new(256, 45), 8);
}

#[test]
fn warmed_external_product_allocates_nothing_with_simd_forced() {
    // The vector legs must stay allocation-free too: the dispatch reads
    // the engine's leg, and the split-complex spectra reuse the same
    // warmed buffers as the scalar leg. An engine built for a leg the CPU
    // lacks runs the widest one it has, so this test is meaningful exactly
    // where the vector legs actually run.
    for leg in [Leg::Avx2, Leg::Avx512] {
        assert_zero_alloc_external_product(&F64Fft::with_leg(256, leg), 9);
        assert_zero_alloc_external_product(&ApproxIntFft::with_leg(256, 45, leg), 10);
    }
}

#[test]
fn streaming_error_db_allocates_nothing() {
    // `stats::error_db` sits inside noise-measurement loops; it must not
    // allocate a difference vector per call.
    let reference: Vec<f64> = (0..1024).map(|i| (i as f64).sin()).collect();
    let approx: Vec<f64> = reference.iter().map(|x| x + 1e-9).collect();
    let _warm = matcha_math::stats::error_db(&reference, &approx);
    let before = allocations();
    let db = matcha_math::stats::error_db(&reference, &approx);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "error_db allocated {delta} times");
    assert!(
        db < -150.0,
        "1e-9 error on O(1) signal is ≈ -180 dB, got {db}"
    );
}

/// The bit-reversal table is plan state, built with the engine: the very
/// first transforms through a fresh scratch allocate the buffers they fill
/// — the backward working copy's two components — and nothing
/// table-shaped; from the second round on, nothing at all.
fn assert_first_transform_allocates_only_buffers<E: FftEngine>(engine: &E) {
    let n = engine.ring_degree();
    let p = TorusPolynomial::constant(Torus32::from_f64(0.25), n);
    let mut spectrum = engine.zero_spectrum();
    let mut out = TorusPolynomial::zero(n);
    let mut scratch = engine.make_scratch();
    for (round, expected) in [(1, 2), (2, 0)] {
        let before = allocations();
        engine.forward_torus_into(&p, &mut spectrum, &mut scratch);
        engine.backward_torus_into(&spectrum, &mut out, &mut scratch);
        let delta = allocations() - before;
        assert_eq!(delta, expected, "round {round} allocated {delta} times");
    }
    assert!(out.max_distance(&p) < 1e-6);
}

#[test]
fn first_transform_allocates_buffers_not_tables() {
    for leg in Leg::ALL {
        assert_first_transform_allocates_only_buffers(&F64Fft::with_leg(1024, leg));
        assert_first_transform_allocates_only_buffers(&ApproxIntFft::with_leg(1024, 38, leg));
    }
}

fn assert_zero_alloc_bootstrap<E>(engine: &E, unroll: usize, seed: u64)
where
    E: matcha_fft::FftEngine,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let kit = BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let mu = Torus32::from_f64(0.125);
    let c = client.encrypt_with(true, &mut rng);
    let mut out = matcha_tfhe::LweCiphertext::trivial(Torus32::ZERO, 1);
    let mut scratch = kit.make_scratch(engine);

    // Warm-up: two full bootstraps size every buffer.
    kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);
    kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);

    let before = allocations();
    kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warmed bootstrap (unroll={unroll}) allocated {delta} times"
    );
    assert!(client.decrypt(&out), "bootstrap still decrypts");
}

#[test]
fn warmed_bootstrap_allocates_nothing_f64_m1() {
    assert_zero_alloc_bootstrap(&F64Fft::new(256), 1, 71);
}

#[test]
fn warmed_bootstrap_allocates_nothing_f64_m3() {
    assert_zero_alloc_bootstrap(&F64Fft::new(256), 3, 73);
}

#[test]
fn warmed_bootstrap_allocates_nothing_approx_m2() {
    assert_zero_alloc_bootstrap(&ApproxIntFft::new(256, 45), 2, 75);
}

#[test]
fn warmed_approx_m3_allocates_nothing_on_either_leg() {
    // The shape of the benchmark's `gate_approx38_m3`: the integer engine
    // with 38-bit twiddles at unroll 3 — seven patterns a group, their
    // factor chains advanced side by side, and a short last group
    // (16 = 5·3 + 1). The vector leg's tables, splits and constants live in
    // the engine and in registers; neither leg may touch the heap.
    for leg in Leg::ALL {
        let engine = ApproxIntFft::with_leg(256, 38, leg);
        assert_zero_alloc_bootstrap(&engine, 3, 85);
        assert_zero_alloc_bundle(&engine, 3, 86);
    }
}

/// Bundle construction on its own: once the factor buffer has held a full
/// group's tables (`2^m − 1` of them, concatenated) and the bundle buffer
/// has its shape, walking every group — the short last one included —
/// allocates nothing.
fn assert_zero_alloc_bundle<E: FftEngine>(engine: &E, unroll: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let kit = BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let params = *kit.params();
    let bk = kit.bootstrapping_key();
    let mut bundle = TgswCiphertext::trivial_one(&params).to_spectrum(engine);
    let mut factors = E::MonomialFactors::default();
    let exponents = [3u32, 41, 170];
    let walk = |bundle: &mut _, factors: &mut _| {
        for group in bk.groups() {
            let e = &exponents[..group.len()];
            bk.build_bundle_into(engine, group, e, params.two_n(), bundle, factors);
        }
    };
    walk(&mut bundle, &mut factors);
    let before = allocations();
    walk(&mut bundle, &mut factors);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warmed bundle build (unroll={unroll}) allocated {delta} times"
    );
}

#[test]
fn warmed_bundle_build_allocates_nothing() {
    assert_zero_alloc_bundle(&F64Fft::new(256), 3, 81);
    assert_zero_alloc_bundle(&ApproxIntFft::new(256, 45), 2, 82);
    assert_zero_alloc_bundle(&ApproxIntFft::new(256, 45), 3, 84);
}

#[test]
fn warmed_key_switch_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(83);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let engine = F64Fft::new(256);
    let kit = BootstrapKit::generate(&client, &engine, 1, &mut rng);
    let ksk = kit.key_switch_key();
    let mut sampler = TorusSampler::new(&mut rng);
    let mask = (0..ksk.from_dimension())
        .map(|_| sampler.uniform())
        .collect();
    let extracted = matcha_tfhe::LweCiphertext::from_parts(mask, Torus32::from_f64(0.125));
    let mut out = matcha_tfhe::LweCiphertext::default();
    ksk.switch_into(&extracted, &mut out);
    let before = allocations();
    for _ in 0..4 {
        ksk.switch_into(&extracted, &mut out);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warmed key switch allocated {delta} times");
    assert_eq!(out.dimension(), ksk.to_dimension());
}

/// A wave through the batched entry: once a scratch has held
/// `MAX_LANES` lanes it keeps them, so full waves, a narrower wave in
/// between, a mux's two lanes, a three-input gate's one and an adder
/// cell's one lane with two outputs all run without touching the heap.
fn assert_zero_alloc_wave<E: FftEngine>(engine: E, unroll: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
    let bits: Vec<LweCiphertext> = (0..MAX_LANES + 1)
        .map(|i| client.encrypt_with(i % 3 == 0, &mut rng))
        .collect();
    let mut gates: Vec<LaneGate<'_>> = (0..MAX_LANES)
        .map(|i| LaneGate::Binary {
            gate: Gate::ALL[i % Gate::ALL.len()],
            a: &bits[i],
            b: &bits[i + 1],
        })
        .collect();
    gates[1] = LaneGate::Mux {
        sel: &bits[0],
        a: &bits[1],
        b: &bits[2],
    };
    gates[2] = LaneGate::Ternary {
        gate: matcha_tfhe::Gate3::Maj,
        ops: [&bits[2], &bits[3], &bits[4]],
    };
    gates[0] = LaneGate::Cell {
        ops: [&bits[0], &bits[1], &bits[2]],
    };
    // 13 gates, a cell and a mux: MAX_LANES lanes, one output more.
    let full = &gates[..MAX_LANES - 1];
    let mut outs = vec![LweCiphertext::default(); MAX_LANES + 1];
    let mut scratch = server.make_scratch();

    // Warm-up: the first call grows the lanes and sizes every output, the
    // second finds every buffer at its size.
    for _ in 0..2 {
        server.apply_lanes_into(&gates, &mut outs, &mut scratch);
    }

    let before = allocations();
    server.apply_lanes_into(full, &mut outs[..full.len() + 1], &mut scratch);
    server.apply_lanes_into(&gates[..3], &mut outs[..4], &mut scratch);
    server.apply_lanes_into(full, &mut outs[..full.len() + 1], &mut scratch);
    // Past the cap: a second pass inside the one call.
    server.apply_lanes_into(&gates, &mut outs, &mut scratch);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warmed waves (unroll={unroll}) allocated {delta} times"
    );
    assert_eq!(
        [&outs[0], &outs[1]].map(|out| client.decrypt(out)),
        [false, true],
        "carry and sum of 1 + 0 + 0"
    );
    assert_eq!(
        client.decrypt(&outs[2]),
        client.decrypt(&bits[1]),
        "mux(true, b1, b2) = b1"
    );
}

#[test]
fn warmed_wave_allocates_nothing_on_either_leg() {
    for leg in Leg::ALL {
        assert_zero_alloc_wave(F64Fft::with_leg(256, leg), 2, 87);
        assert_zero_alloc_wave(ApproxIntFft::with_leg(256, 38, leg), 3, 88);
    }
}

#[test]
fn warmed_full_gate_allocates_only_for_outputs() {
    // The whole gate path (linear part + key switch + bootstrap) through
    // `apply_into` is allocation-free once warmed.
    let mut rng = StdRng::seed_from_u64(77);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let server = ServerKey::with_unrolling(&client, F64Fft::new(256), 2, &mut rng);
    let a = client.encrypt_with(true, &mut rng);
    let b = client.encrypt_with(false, &mut rng);
    let mut out = matcha_tfhe::LweCiphertext::trivial(Torus32::ZERO, 1);
    let mut scratch = server.make_scratch();

    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);

    let before = allocations();
    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
    server.apply_into(Gate::Xor, &a, &b, &mut out, &mut scratch);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warmed gate evaluation allocated {delta} times");
}

#[test]
fn allocating_gates_cost_one_scratch_whatever_the_group_count() {
    // `apply` and `mux` are the `_into` forms through a scratch built for
    // the call: what they allocate is that scratch and the output, so the
    // count is the same over four key groups and over eight, and the
    // transforms they run are the ones a warmed `apply_into` runs.
    use matcha_tfhe::profile;
    let counts = [8usize, 16].map(|lwe_dimension| {
        let params = ParameterSet {
            lwe_dimension,
            ..ParameterSet::TEST_FAST
        };
        let mut rng = StdRng::seed_from_u64(89);
        let client = ClientKey::generate(params, &mut rng);
        let server = ServerKey::with_unrolling(&client, F64Fft::new(256), 2, &mut rng);
        let bits = [true, false, true].map(|b| client.encrypt_with(b, &mut rng));

        let before = allocations();
        let nand = server.apply(Gate::Nand, &bits[0], &bits[1]);
        let apply_allocations = allocations() - before;
        let before = allocations();
        let mux = server.mux(&bits[0], &bits[1], &bits[2]);
        let mux_allocations = allocations() - before;
        assert!(client.decrypt(&nand) && !client.decrypt(&mux));

        let groups = server.kit().bootstrapping_key().groups().len() as u64;
        let transforms = (
            groups * 2 * server.params().decomp_levels as u64,
            groups * 2,
        );
        let mut out = LweCiphertext::default();
        let mut scratch = server.make_scratch();
        server.apply_into(Gate::Nand, &bits[0], &bits[1], &mut out, &mut scratch);
        profile::start();
        server.apply_into(Gate::Nand, &bits[0], &bits[1], &mut out, &mut scratch);
        let warmed = profile::snapshot();
        profile::start();
        let _ = server.apply(Gate::Nand, &bits[0], &bits[1]);
        let cold = profile::snapshot();
        profile::stop();
        for snap in [warmed, cold] {
            assert_eq!(
                (snap.ifft_calls, snap.fft_calls),
                transforms,
                "n={lwe_dimension}"
            );
        }
        (apply_allocations, mux_allocations)
    });
    assert_eq!(
        counts[0], counts[1],
        "(apply, mux) allocations at n = 8 and 16"
    );
}
