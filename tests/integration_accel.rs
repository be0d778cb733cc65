//! The accelerator model against the paper's headline evaluation claims
//! (§6 and Table 2).

use matcha::accel::schedule::{schedule, Netlist};
use matcha::accel::{area_power, pipeline, platforms::Platform, report};
use matcha::circuits::netlist;
use matcha::{MatchaConfig, WorkloadParams};

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

#[test]
fn model_transform_counts_match_software_instrumentation() {
    // The cycle model charges (2ℓ + 2) transforms per blind-rotation step.
    // The software implementation's profiler must agree — this pins the
    // performance model to the functional implementation.
    use matcha::tfhe::{profile, BootstrapKit};
    use matcha::{ClientKey, F64Fft, Torus32};
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(73);
    let params = matcha::ParameterSet::TEST_FAST;
    let client = ClientKey::generate(params, &mut rng);
    let engine = F64Fft::new(params.ring_degree);
    for m in [1usize, 2, 4] {
        let kit = BootstrapKit::generate(&client, &engine, m, &mut rng);
        let c = client.encrypt_with(true, &mut rng);
        profile::start();
        let _ = kit.bootstrap(&engine, &c, Torus32::from_dyadic(1, 3));
        let snap = profile::snapshot();
        profile::stop();
        let steps = params.lwe_dimension.div_ceil(m) as u64;
        let expected_ifft = steps * 2 * params.decomp_levels as u64;
        let expected_fft = steps * 2;
        assert_eq!(snap.ifft_calls, expected_ifft, "m={m} IFFT count");
        assert_eq!(snap.fft_calls, expected_fft, "m={m} FFT count");
    }
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
fn ranks_match_critical_path() {
    for net in lowerings() {
        let ranks = net.ranks();
        assert_eq!(ranks.len(), net.len());
        assert_eq!(
            ranks.iter().copied().max().unwrap_or(0),
            net.critical_path()
        );
        // A gate's rank strictly exceeds every consumer's rank.
        for (i, deps) in (0..net.len()).map(|i| (i, net.dependencies(i))) {
            for &d in deps {
                assert!(ranks[d] > ranks[i], "dep {d} of {i}");
            }
        }
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
