//! Event-driven simulation of MATCHA's bootstrapping pipeline
//! (paper Figure 6).
//!
//! Each gate owns one (TGSW cluster → EP core) pipeline. Per blind-rotation
//! step the cluster builds the bootstrapping-key bundle while the EP core
//! consumes the previous bundle; pattern keys stream from HBM (the unrolled
//! key — 48 MB/gate already at `m = 1` — cannot fit the 4 MiB scratchpad,
//! so streaming is mandatory). The eight pipelines run the same step
//! schedule, so one HBM key broadcast feeds all clusters.
//!
//! The simulation makes the paper's two qualitative effects emerge
//! mechanistically:
//!
//! * the two stages balance around `m = 3` (TGSW work grows `2^m − 1`
//!   per step while EP work is constant), and
//! * beyond that the `(2^m − 1)`-fold key growth makes the gate
//!   **HBM-bound**, which is why `m = 4` performs worse despite fewer
//!   steps — the paper's "MATCHA cannot support aggressive BKU with m = 4
//!   efficiently".

use crate::config::{MatchaConfig, WorkloadParams};
use crate::kernels;

/// Which resource bounded the gate latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bottleneck {
    /// The EP core (external products).
    EpCore,
    /// The TGSW cluster (bundle construction).
    TgswCluster,
    /// HBM key streaming.
    Hbm,
}

/// The outcome of simulating one gate at a fixed unroll factor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateSimResult {
    /// Unroll factor `m`.
    pub unroll: usize,
    /// Blind-rotation steps (`⌈n/m⌉`).
    pub steps: usize,
    /// End-to-end gate latency in seconds (including the key-switch
    /// epilogue).
    pub latency_s: f64,
    /// Gate throughput (gates/s) with all pipelines busy.
    pub throughput: f64,
    /// The dominant resource.
    pub bottleneck: Bottleneck,
    /// Total bootstrapping-key bytes streamed for the gate.
    pub hbm_bytes: f64,
    /// Busy fraction of the EP core (0–1).
    pub ep_utilization: f64,
}

/// Simulates one bootstrapped gate through the two-stage pipeline.
///
/// # Panics
///
/// Panics if the configuration is invalid or `m` is outside `1..=8`.
pub fn simulate_gate(cfg: &MatchaConfig, w: &WorkloadParams, m: usize) -> GateSimResult {
    cfg.validate().expect("invalid accelerator configuration");
    assert!((1..=8).contains(&m), "unroll factor {m} outside 1..=8");
    let steps = w.steps(m);
    let costs = kernels::step_costs(cfg, w, m);
    let hbm_cycles_per_step = costs.hbm_bytes / (cfg.hbm_gb_s * 1e9) / (cfg.clock_ns() * 1e-9);

    // Event-driven recurrence over steps: each stage starts when both its
    // input is ready and the unit is free.
    let mut hbm_done = 0.0f64;
    let mut tgsw_free = 0.0f64;
    let mut ep_free = 0.0f64;
    let mut busy_ep = 0.0f64;
    for _ in 0..steps {
        hbm_done += hbm_cycles_per_step;
        let tgsw_start = tgsw_free.max(hbm_done - hbm_cycles_per_step.min(hbm_done));
        // Keys must have finished streaming before the bundle completes.
        let tgsw_done = (tgsw_start + costs.tgsw_cycles).max(hbm_done);
        tgsw_free = tgsw_done;
        let ep_start = ep_free.max(tgsw_done);
        ep_free = ep_start + costs.ep_cycles;
        busy_ep += costs.ep_cycles;
    }
    let total_cycles = ep_free + kernels::epilogue_cycles(cfg, w);
    let latency_s = cfg.cycles_to_seconds(total_cycles);

    let hbm_total = hbm_cycles_per_step * steps as f64;
    let tgsw_total = costs.tgsw_cycles * steps as f64;
    let ep_total = costs.ep_cycles * steps as f64;
    let bottleneck = if hbm_total >= tgsw_total && hbm_total >= ep_total {
        Bottleneck::Hbm
    } else if tgsw_total >= ep_total {
        Bottleneck::TgswCluster
    } else {
        Bottleneck::EpCore
    };

    GateSimResult {
        unroll: m,
        steps,
        latency_s,
        throughput: cfg.pipelines() as f64 / latency_s,
        bottleneck,
        hbm_bytes: costs.hbm_bytes * steps as f64,
        ep_utilization: busy_ep / ep_free,
    }
}

/// The unroll factor minimizing latency within `1..=max_m`.
pub fn best_unroll(cfg: &MatchaConfig, w: &WorkloadParams, max_m: usize) -> usize {
    (1..=max_m)
        .min_by(|&a, &b| {
            simulate_gate(cfg, w, a)
                .latency_s
                .total_cmp(&simulate_gate(cfg, w, b).latency_s)
        })
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> (MatchaConfig, WorkloadParams) {
        (MatchaConfig::paper(), WorkloadParams::MATCHA)
    }

    #[test]
    fn latency_in_paper_ballpark() {
        // Figure 9: MATCHA's NAND latency is a few hundred microseconds,
        // beating the GPU's 0.21 ms at m = 3.
        let (cfg, w) = paper();
        let r = simulate_gate(&cfg, &w, 3);
        assert!(
            r.latency_s > 50e-6 && r.latency_s < 500e-6,
            "m=3 latency {} out of range",
            r.latency_s
        );
    }

    #[test]
    fn m3_is_the_sweet_spot() {
        // Paper: m = 3 beats m = 1, 2, 4 on MATCHA.
        let (cfg, w) = paper();
        assert_eq!(best_unroll(&cfg, &w, 4), 3);
    }

    #[test]
    fn m4_is_hbm_bound() {
        // Paper §4.3/§6: the exponential key growth at m = 4 exceeds what
        // 640 GB/s can stream, making aggressive BKU inefficient.
        let (cfg, w) = paper();
        let r = simulate_gate(&cfg, &w, 4);
        assert_eq!(r.bottleneck, Bottleneck::Hbm);
        assert!(r.latency_s > simulate_gate(&cfg, &w, 3).latency_s);
    }

    #[test]
    fn small_m_is_ep_bound() {
        let (cfg, w) = paper();
        let r = simulate_gate(&cfg, &w, 1);
        assert_eq!(r.bottleneck, Bottleneck::EpCore);
    }

    #[test]
    fn throughput_counts_all_pipelines() {
        let (cfg, w) = paper();
        let r = simulate_gate(&cfg, &w, 2);
        assert!((r.throughput * r.latency_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn more_hbm_helps_when_hbm_bound() {
        let (mut cfg, w) = paper();
        let before = simulate_gate(&cfg, &w, 4).latency_s;
        cfg.hbm_gb_s *= 2.0;
        let after = simulate_gate(&cfg, &w, 4).latency_s;
        assert!(after < before);
    }

    #[test]
    fn more_ep_mac_lanes_help_when_ep_bound() {
        let (mut cfg, w) = paper();
        let before = simulate_gate(&cfg, &w, 1).latency_s;
        cfg.ep_mac_lanes *= 4;
        let after = simulate_gate(&cfg, &w, 1).latency_s;
        assert!(after < before);
    }

    #[test]
    fn monotone_in_hardware() {
        // Property: strictly more of every resource never hurts latency.
        let (cfg, w) = paper();
        let mut big = cfg.clone();
        big.butterfly_cores *= 2;
        big.ep_mac_lanes *= 2;
        big.tgsw_mac_lanes *= 2;
        big.hbm_gb_s *= 2.0;
        big.poly_unit_lanes *= 2;
        for m in 1..=4 {
            assert!(
                simulate_gate(&big, &w, m).latency_s
                    <= simulate_gate(&cfg, &w, m).latency_s + 1e-12,
                "m={m}"
            );
        }
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (cfg, w) = paper();
        for m in 1..=4 {
            let r = simulate_gate(&cfg, &w, m);
            assert!(r.ep_utilization > 0.0 && r.ep_utilization <= 1.0, "m={m}");
        }
    }

    #[test]
    fn sweep_covers_requested_ms() {
        let (cfg, w) = paper();
        let rs = [1, 2, 3, 4].map(|m| simulate_gate(&cfg, &w, m));
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[2].unroll, 3);
    }
}
