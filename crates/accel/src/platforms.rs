//! The paper's baseline platforms (§5) and the MATCHA design as a common
//! [`Platform`] abstraction, producing the data series of Figures 9–11.
//!
//! We cannot rerun the authors' Xeon E-2288G, Tesla V100, or Stratix-10
//! testbeds, so the baselines are analytic models: each encodes the
//! *mechanisms* the paper describes (CPU: 8 cores, cache conflicts and no
//! pipelining make `m > 2` regress; GPU: enough parallelism to keep gaining
//! until `m = 4`; FPGA/ASIC: TVE copies without BKU support, fixed
//! `m = 1`), with per-`m` constants calibrated to the paper's published
//! measurements. MATCHA itself is simulated by [`crate::pipeline`].

use crate::config::{MatchaConfig, WorkloadParams};
use crate::pipeline;

/// A hardware platform evaluated in Figures 9–11.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Display name ("CPU", "GPU", "FPGA", "ASIC", "MATCHA").
    pub name: &'static str,
    /// Board/package power in watts.
    pub power_w: f64,
    /// Concurrent gates the platform processes at full utilization.
    pub concurrency: f64,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    /// Per-`m` NAND latencies in seconds (index 0 = m=1); `None` where the
    /// platform does not support that unroll factor.
    Measured([Option<f64>; 4]),
    /// Simulated via the pipeline model.
    Matcha(Box<MatchaConfig>, WorkloadParams),
}

impl Platform {
    /// The 8-core 3.7 GHz Xeon E-2288G running the TFHE library.
    ///
    /// Anchors: 13.1 ms at `m = 1`, 6.67 ms at `m = 2` (paper §6); beyond
    /// that the limited core count, extra cache conflicts from the
    /// `(2^m − 1)`-fold key working set, and the lack of a pipelined
    /// design *prolong* latency — modeled as a mild regression.
    pub fn cpu() -> Self {
        Self {
            name: "CPU",
            power_w: 95.0,
            concurrency: 8.0, // one independent gate per physical core
            kind: Kind::Measured([Some(13.1e-3), Some(6.67e-3), Some(7.3e-3), Some(9.0e-3)]),
        }
    }

    /// The 5120-core Tesla V100 running cuFHE.
    ///
    /// Anchors: 0.37 ms at `m = 1` falling gradually to 0.18 ms at `m = 4`
    /// (paper §6). The effective gate concurrency is calibrated so that the
    /// GPU's best throughput/Watt lands just below the ASIC baseline's, as
    /// the paper reports ("the best throughput per Watt of GPU (m = 4) is
    /// only about 58% of that of ASIC").
    pub fn gpu() -> Self {
        Self {
            name: "GPU",
            power_w: 250.0,
            concurrency: 2.0,
            kind: Kind::Measured([Some(0.37e-3), Some(0.28e-3), Some(0.21e-3), Some(0.18e-3)]),
        }
    }

    /// Eight TFHE Vector Engine copies on a Stratix-10 GX2800 (no BKU).
    pub fn fpga() -> Self {
        Self {
            name: "FPGA",
            power_w: 40.0,
            concurrency: 8.0,
            kind: Kind::Measured([Some(6.9e-3), None, None, None]),
        }
    }

    /// The FPGA baseline re-synthesized at 16 nm (no BKU).
    pub fn asic() -> Self {
        Self {
            name: "ASIC",
            power_w: 26.0,
            concurrency: 8.0,
            kind: Kind::Measured([Some(6.8e-3), None, None, None]),
        }
    }

    /// MATCHA with the paper's configuration and workload, simulated with
    /// the Figure 6 pipeline model.
    pub fn matcha_paper() -> Self {
        let cfg = MatchaConfig::paper();
        let power = crate::area_power::design_budget(&cfg).total_power_w();
        let concurrency = cfg.pipelines() as f64;
        Self {
            name: "MATCHA",
            power_w: power,
            concurrency,
            kind: Kind::Matcha(Box::new(cfg), WorkloadParams::MATCHA),
        }
    }

    /// NAND gate latency (seconds) at unroll `m`, if supported.
    pub fn latency_s(&self, m: usize) -> Option<f64> {
        match &self.kind {
            Kind::Measured(table) => table.get(m.checked_sub(1)?).copied().flatten(),
            Kind::Matcha(cfg, w) => {
                if (1..=8).contains(&m) {
                    Some(pipeline::simulate_gate(cfg, w, m).latency_s)
                } else {
                    None
                }
            }
        }
    }

    /// NAND throughput (gates/s) at unroll `m`, if supported.
    pub fn throughput(&self, m: usize) -> Option<f64> {
        self.latency_s(m).map(|l| self.concurrency / l)
    }

    /// NAND throughput per watt at unroll `m`, if supported.
    pub fn throughput_per_watt(&self, m: usize) -> Option<f64> {
        self.throughput(m).map(|t| t / self.power_w)
    }

    /// The best (lowest-latency) supported unroll factor within `1..=4`.
    pub fn best_unroll(&self) -> usize {
        (1..=4)
            .filter(|&m| self.latency_s(m).is_some())
            .min_by(|&a, &b| {
                self.latency_s(a)
                    .unwrap()
                    .total_cmp(&self.latency_s(b).unwrap())
            })
            .unwrap_or(1)
    }
}

/// All five platforms of the evaluation, in the paper's legend order.
pub fn evaluation_platforms() -> Vec<Platform> {
    vec![
        Platform::cpu(),
        Platform::gpu(),
        Platform::matcha_paper(),
        Platform::fpga(),
        Platform::asic(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_shape_matches_paper() {
        let cpu = Platform::cpu();
        // 13.1 ms → 6.67 ms (49% reduction), then regression.
        assert_eq!(cpu.latency_s(1), Some(13.1e-3));
        assert_eq!(cpu.latency_s(2), Some(6.67e-3));
        assert!(cpu.latency_s(3).unwrap() > cpu.latency_s(2).unwrap());
        assert!(cpu.latency_s(4).unwrap() > cpu.latency_s(3).unwrap());
        assert_eq!(cpu.best_unroll(), 2);
    }

    #[test]
    fn gpu_monotone_to_m4() {
        let gpu = Platform::gpu();
        for m in 1..4 {
            assert!(gpu.latency_s(m + 1).unwrap() < gpu.latency_s(m).unwrap());
        }
        assert_eq!(gpu.best_unroll(), 4);
    }

    #[test]
    fn fpga_asic_fixed_at_m1() {
        for p in [Platform::fpga(), Platform::asic()] {
            assert!(p.latency_s(1).unwrap() > 6.5e-3);
            assert_eq!(p.latency_s(2), None);
            assert_eq!(p.best_unroll(), 1);
        }
    }

    #[test]
    fn matcha_beats_gpu_at_m3() {
        // Paper §6: "MATCHA reduces the NAND gate latency by 13% over GPU
        // only when m = 3".
        let matcha = Platform::matcha_paper();
        let gpu = Platform::gpu();
        let m3 = matcha.latency_s(3).unwrap();
        assert!(m3 < gpu.latency_s(3).unwrap(), "{m3}");
        // And MATCHA's best point is m = 3.
        assert_eq!(matcha.best_unroll(), 3);
    }

    #[test]
    fn throughput_ranking_matches_figure_10() {
        // Figure 10: MATCHA > GPU > CPU(m2) > ASIC ≈ FPGA.
        let matcha = Platform::matcha_paper().throughput(3).unwrap();
        let gpu = Platform::gpu().throughput(4).unwrap();
        let cpu = Platform::cpu().throughput(2).unwrap();
        let asic = Platform::asic().throughput(1).unwrap();
        let fpga = Platform::fpga().throughput(1).unwrap();
        assert!(matcha > gpu && gpu > cpu && cpu > asic && asic > fpga);
        // Paper: ~2.3× over GPU; our model credits all 8 lockstep
        // pipelines, so it lands on the high side of that factor.
        let ratio = matcha / Platform::gpu().throughput(3).unwrap();
        assert!(
            ratio > 1.5 && ratio < 6.0,
            "MATCHA/GPU throughput ratio {ratio}"
        );
    }

    #[test]
    fn efficiency_ranking_matches_figure_11() {
        // Figure 11: MATCHA > ASIC > FPGA > CPU; GPU's best is below ASIC.
        let matcha = Platform::matcha_paper().throughput_per_watt(3).unwrap();
        let asic = Platform::asic().throughput_per_watt(1).unwrap();
        let fpga = Platform::fpga().throughput_per_watt(1).unwrap();
        let cpu = Platform::cpu().throughput_per_watt(1).unwrap();
        let gpu_best = Platform::gpu().throughput_per_watt(4).unwrap();
        assert!(matcha > asic && asic > fpga && fpga > cpu);
        assert!(gpu_best < asic, "paper: GPU best ≈ 58% of ASIC");
    }

    #[test]
    fn fpga_efficiency_over_cpu_near_paper() {
        // Paper: FPGA ≈ 2.4× and ASIC ≈ 8.3× CPU throughput/W at m = 1.
        let cpu = Platform::cpu().throughput_per_watt(1).unwrap();
        let fpga = Platform::fpga().throughput_per_watt(1).unwrap() / cpu;
        let asic = Platform::asic().throughput_per_watt(1).unwrap() / cpu;
        assert!(fpga > 1.8 && fpga < 5.0, "FPGA/CPU = {fpga}");
        assert!(asic > 4.0 && asic < 12.0, "ASIC/CPU = {asic}");
    }

    #[test]
    fn evaluation_set_is_complete() {
        let names: Vec<_> = evaluation_platforms().iter().map(|p| p.name).collect();
        assert_eq!(names, ["CPU", "GPU", "MATCHA", "FPGA", "ASIC"]);
    }
}
