//! The accelerator model against the paper's headline evaluation claims
//! (§6 and Table 2).

use matcha::accel::schedule::{schedule, Netlist};
use matcha::accel::{area_power, kernels, pipeline, platforms::Platform, report};
use matcha::circuits::netlist;
use matcha::fft::Counting;
use matcha::tfhe::{LaneGate, MAX_LANES};
use matcha::{
    ApproxIntFft, ClientKey, F64Fft, FftEngine, Gate, LweCiphertext, MatchaConfig, ParameterSet,
    ServerKey, Torus32, WorkloadParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn table2_budget_matches_paper_totals() {
    let b = area_power::design_budget(&MatchaConfig::paper());
    assert!(
        (b.total_power_w() - 39.98).abs() < 0.2,
        "power {}",
        b.total_power_w()
    );
    assert!(
        (b.total_area_mm2() - 36.96).abs() < 0.2,
        "area {}",
        b.total_area_mm2()
    );
}

#[test]
fn figure9_shapes_hold() {
    // CPU: m = 2 optimal, m > 2 regresses. GPU: monotone to m = 4.
    // FPGA/ASIC: m = 1 only, > 6.8 ms. MATCHA: m = 3 optimal, sub-ms.
    let cpu = Platform::cpu();
    assert_eq!(cpu.best_unroll(), 2);
    let gpu = Platform::gpu();
    assert_eq!(gpu.best_unroll(), 4);
    let matcha = Platform::matcha_paper();
    assert_eq!(matcha.best_unroll(), 3);
    assert!(matcha.latency_s(3).unwrap() < 1e-3);
    for p in [Platform::fpga(), Platform::asic()] {
        assert!(p.latency_s(1).unwrap() > 6.5e-3);
        assert!(p.latency_s(2).is_none());
    }
}

#[test]
fn headline_speedups_roughly_hold() {
    // Paper abstract: 2.3× gate throughput over the best prior accelerator
    // (the GPU) and 6.3× throughput/Watt over the ASIC baseline.
    let matcha = Platform::matcha_paper();
    let gpu = Platform::gpu();
    let asic = Platform::asic();

    let tput_ratio = matcha.throughput(3).unwrap() / gpu.throughput(gpu.best_unroll()).unwrap();
    assert!(
        tput_ratio > 1.5,
        "MATCHA should clearly out-throughput the GPU, got {tput_ratio:.2}×"
    );

    let eff_ratio = matcha.throughput_per_watt(3).unwrap() / asic.throughput_per_watt(1).unwrap();
    assert!(
        eff_ratio > 4.0,
        "MATCHA should clearly beat the ASIC on throughput/Watt, got {eff_ratio:.2}×"
    );
}

#[test]
fn bottleneck_migrates_with_m() {
    // m small ⇒ EP-bound; m large ⇒ key streaming / TGSW-bound, which is
    // why aggressive BKU stops paying off (§6).
    let cfg = MatchaConfig::paper();
    let w = WorkloadParams::MATCHA;
    let r1 = pipeline::simulate_gate(&cfg, &w, 1);
    let r4 = pipeline::simulate_gate(&cfg, &w, 4);
    assert_eq!(r1.bottleneck, pipeline::Bottleneck::EpCore);
    assert_ne!(r4.bottleneck, pipeline::Bottleneck::EpCore);
    assert!(r4.hbm_bytes > r1.hbm_bytes);
}

#[test]
fn ablation_halving_pipelines_halves_throughput() {
    let mut cfg = MatchaConfig::paper();
    let w = WorkloadParams::MATCHA;
    let full = pipeline::simulate_gate(&cfg, &w, 3).throughput;
    cfg.tgsw_clusters = 4;
    cfg.ep_cores = 4;
    let half = pipeline::simulate_gate(&cfg, &w, 3).throughput;
    let ratio = full / half;
    assert!((1.6..=2.4).contains(&ratio), "throughput ratio {ratio}");
}

#[test]
fn reports_render_every_series() {
    let plats = matcha::accel::evaluation_platforms();
    for text in [
        report::figure9(&plats),
        report::figure10(&plats),
        report::figure11(&plats),
    ] {
        assert!(text.lines().count() >= 7, "short report:\n{text}");
        assert!(text.contains("MATCHA"));
    }
    let t2 = report::table2(&area_power::design_budget(&MatchaConfig::paper()));
    assert!(t2.contains("EP cores") && t2.contains("SPM"));
}

/// Runs `work` and asserts that it counted `lanes` times `per_lane`
/// (`[forward, backward, MAC rows, bundle rows]`), to the call.
fn assert_counted<E: FftEngine>(
    engine: &Counting<E>,
    per_lane: [u64; 4],
    lanes: u64,
    what: &str,
    work: impl FnOnce(),
) {
    let before = engine.counts();
    work();
    let c = engine.counts() - before;
    assert_eq!(
        [c.forward, c.backward, c.mac_rows, c.bundle_rows],
        per_lane.map(|calls| calls * lanes),
        "{what}: [forward, backward, MAC rows, bundle rows]"
    );
}

/// At each unroll factor, counts one `apply_into` gate through a server
/// key over a [`Counting`] engine against what the cycle model charges a
/// lane, `kernels::step_work` × ⌈n/m⌉. On `every_path` it also counts one
/// bootstrap and one 16-lane wave, and holds the gate's bits to a key
/// built over the bare engine from the same draws (at the paper's
/// parameters the extra keys would cost more than the rest of the test).
fn assert_counts_match_the_model<E: FftEngine>(
    params: ParameterSet,
    engine: impl Fn() -> E,
    unrolls: &[usize],
    every_path: bool,
) {
    let w = WorkloadParams {
        lwe_dimension: params.lwe_dimension,
        ring_degree: params.ring_degree,
        decomp_levels: params.decomp_levels,
        ks_levels: params.ks_levels,
    };
    let step = kernels::step_work(&w);
    for &m in unrolls {
        let per_lane = [step.forward, step.backward, step.mac_rows, step.bundle_rows]
            .map(|calls| (calls * w.steps(m)) as u64);
        let mut rng = StdRng::seed_from_u64(73 + m as u64);
        let client = ClientKey::generate(params, &mut rng);
        let mut draws = rng.clone();
        let server = ServerKey::with_unrolling(&client, Counting::new(engine()), m, &mut rng);
        let counting = server.engine();
        let bits = [true, false].map(|b| client.encrypt_with(b, &mut rng));
        let mut out = LweCiphertext::default();
        let mut scratch = server.make_scratch();
        assert_counted(counting, per_lane, 1, &format!("gate, m={m}"), || {
            server.apply_into(Gate::Nand, &bits[0], &bits[1], &mut out, &mut scratch);
        });
        assert!(client.decrypt(&out));
        if !every_path {
            continue;
        }
        let bare = ServerKey::with_unrolling(&client, engine(), m, &mut draws);
        assert_eq!(out, bare.apply(Gate::Nand, &bits[0], &bits[1]), "m={m}");
        let mu = Torus32::from_dyadic(1, 3);
        assert_counted(counting, per_lane, 1, &format!("bootstrap, m={m}"), || {
            out = server.kit().bootstrap(counting, &bits[0], mu);
        });
        assert!(client.decrypt(&out));
        let gates = [Gate::And, Gate::Or, Gate::Xor, Gate::Nand].map(|gate| LaneGate::Binary {
            gate,
            a: &bits[0],
            b: &bits[1],
        });
        let wave: Vec<_> = gates.iter().copied().cycle().take(MAX_LANES).collect();
        let mut outs = vec![LweCiphertext::default(); MAX_LANES];
        let lanes = MAX_LANES as u64;
        assert_counted(counting, per_lane, lanes, &format!("wave, m={m}"), || {
            server.apply_lanes_into(&wave, &mut outs, &mut scratch);
        });
        for (gate, out) in gates.iter().cycle().zip(&outs) {
            let LaneGate::Binary { gate, .. } = gate else {
                unreachable!("the wave holds binary gates")
            };
            assert_eq!(client.decrypt(out), gate.eval(true, false), "{gate}, m={m}");
        }
    }
}

#[test]
fn model_transform_counts_match_software_instrumentation() {
    // The cycle model charges every blind-rotation step 2ℓ forward and 2
    // backward transforms, 4ℓ MAC rows and 4ℓ bundle rows. The software
    // must run exactly that, per lane, on every path — this pins the
    // performance model to the functional implementation.
    let params = ParameterSet::TEST_FAST;
    let engine = || F64Fft::new(params.ring_degree);
    assert_counts_match_the_model(params, engine, &[1, 2, 3, 4], true);
}

#[test]
fn model_counts_match_the_integer_engine() {
    let params = ParameterSet::TEST_FAST;
    let engine = || ApproxIntFft::new(params.ring_degree, 38);
    assert_counts_match_the_model(params, engine, &[1, 2, 3, 4], true);
}

#[test]
fn model_counts_match_paper_parameters_on_f64_at_m2() {
    let params = ParameterSet::MATCHA;
    assert_counts_match_the_model(params, || F64Fft::new(params.ring_degree), &[2], false);
}

#[test]
fn model_counts_match_paper_parameters_on_approx38_at_m3() {
    let params = ParameterSet::MATCHA;
    let engine = || ApproxIntFft::new(params.ring_degree, 38);
    assert_counts_match_the_model(params, engine, &[3], false);
}

#[test]
fn workload_matches_tfhe_parameters() {
    // The model's workload constants must agree with the actual scheme
    // parameters used by the software implementation.
    let w = WorkloadParams::MATCHA;
    let p = matcha::ParameterSet::MATCHA;
    assert_eq!(w.lwe_dimension, p.lwe_dimension);
    assert_eq!(w.ring_degree, p.ring_degree);
    assert_eq!(w.decomp_levels, p.decomp_levels);
    assert_eq!(w.ks_levels, p.ks_levels);
}

/// The scheduler's DAG of a real lowering: its bootstrapped work as
/// `CircuitNetlist::schedule_skeleton` exports it.
fn dag(net: &matcha::CircuitNetlist) -> Netlist {
    Netlist::from_deps(&net.schedule_skeleton())
}

/// The three lowerings the scheduler invariants run over: an 8-bit ripple
/// adder, a 16-bit equality comparator and a 4×4 multiplier.
fn lowerings() -> [Netlist; 3] {
    [
        dag(&netlist::ripple_adder(8)),
        dag(&netlist::eq_comparator(16)),
        dag(&netlist::mul(4)),
    ]
}

#[test]
fn ripple_adder_counts() {
    // XOR(a, b) for every bit, then an AND and an OR per bit of the carry
    // chain; the constant-false carry-in leaves the first bit its XOR and
    // its AND.
    let net = dag(&netlist::ripple_adder(8));
    assert_eq!((net.len(), net.critical_path()), (37, 15));
}

#[test]
fn comparator_tree_depth_is_logarithmic() {
    // 1 XNOR level + 4 AND-tree levels.
    let net = dag(&netlist::eq_comparator(16));
    assert_eq!((net.len(), net.critical_path()), (16 + 15, 5));
}

#[test]
fn multiplier_counts() {
    let net = dag(&netlist::mul(4));
    assert_eq!((net.len(), net.critical_path()), (64, 16));
}

#[test]
fn schedule_respects_bounds() {
    for net in lowerings() {
        for pipelines in [1usize, 2, 8, 64] {
            let r = schedule(&net, pipelines, 1.0);
            let cp_bound = net.critical_path() as f64;
            let work_bound = net.len() as f64 / pipelines as f64;
            assert!(r.makespan_s >= cp_bound - 1e-9, "p={pipelines}");
            assert!(r.makespan_s >= work_bound - 1e-9, "p={pipelines}");
            assert!(r.makespan_s <= net.len() as f64 + 1e-9);
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        }
    }
}

#[test]
fn single_pipeline_serializes_everything() {
    for net in lowerings() {
        let r = schedule(&net, 1, 2.0);
        assert!((r.makespan_s - net.len() as f64 * 2.0).abs() < 1e-9);
        assert!((r.utilization - 1.0).abs() < 1e-9);
    }
}

#[test]
fn more_pipelines_never_slower() {
    for net in lowerings() {
        let mut prev = f64::INFINITY;
        for pipelines in [1usize, 2, 4, 8, 16] {
            let r = schedule(&net, pipelines, 1.0);
            assert!(r.makespan_s <= prev + 1e-9, "p={pipelines}");
            prev = r.makespan_s;
        }
    }
}

#[test]
fn saturating_pipelines_hits_critical_path() {
    for net in lowerings() {
        let r = schedule(&net, 1000, 1.0);
        assert!((r.makespan_s - net.critical_path() as f64).abs() < 1e-9);
    }
}

#[test]
fn from_deps_roundtrips() {
    for orig in lowerings() {
        let deps: Vec<Vec<usize>> = (0..orig.len())
            .map(|i| orig.dependencies(i).to_vec())
            .collect();
        let rebuilt = Netlist::from_deps(&deps);
        assert_eq!(rebuilt.len(), orig.len());
        assert_eq!(rebuilt.critical_path(), orig.critical_path());
        assert_eq!(schedule(&orig, 4, 1.0), schedule(&rebuilt, 4, 1.0));
    }
}
