//! Area and power model of MATCHA (paper Table 2: 16 nm PTM, 2 GHz).
//!
//! The paper obtained these numbers from RTL synthesis plus CACTI; we model
//! each component with per-unit constants calibrated to Table 2 and expose
//! them as functions of the component counts, so ablations (more EP cores,
//! narrower clusters, …) scale area and power coherently.

use crate::config::MatchaConfig;

/// Power (W) and area (mm²) of one design component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ComponentBudget {
    /// Component name as it appears in Table 2.
    pub name: &'static str,
    /// Power in watts.
    pub power_w: f64,
    /// Area in mm².
    pub area_mm2: f64,
}

/// The full design budget (Table 2).
#[derive(Clone, Debug, PartialEq)]
pub struct DesignBudget {
    /// Per-component rows in Table 2 order.
    pub(crate) components: Vec<ComponentBudget>,
}

impl DesignBudget {
    /// Total power in watts.
    pub fn total_power_w(&self) -> f64 {
        self.components.iter().map(|c| c.power_w).sum()
    }

    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }
}

// Table 2 per-unit calibration (16 nm PTM @ 2 GHz):
//   one TGSW cluster: 0.98 W, 0.368 mm²  (16 MACs + 16 KB 2-bank regfile)
//   one EP core:      2.87 W, 1.89 mm²   (4 IFFT + 1 FFT cores, 4 MACs,
//                                         256 KB 8-bank regfile)
//   polynomial unit:  2.33 W, 0.32 mm²   (32 lanes + 8 KB regfile)
//   crossbars:        2.11 W, 0.44 mm²   (two 8×32 + one 8×8, 256 b sliced)
//   SPM:              3.52 W, 3.25 mm²   (4 MB, 32 banks)
//   memory ctrl+PHY:  1.225 W, 14.9 mm²  (HBM2)
const TGSW_CLUSTER_W: f64 = 0.98;
const TGSW_CLUSTER_MM2: f64 = 0.368;
const EP_CORE_W: f64 = 2.87;
const EP_CORE_MM2: f64 = 1.89;
const POLY_UNIT_W_PER_LANE: f64 = 2.33 / 32.0;
const POLY_UNIT_MM2_PER_LANE: f64 = 0.32 / 32.0;
// Two 8×32 crossbars + one 8×8 ⇒ 2·(8·32)/8 + 8²/8 = 72 port-slice units
// at the paper configuration.
const XBAR_W_PER_PORT: f64 = 2.11 / 72.0;
const XBAR_MM2_PER_PORT: f64 = 0.44 / 72.0;
const SPM_W_PER_MIB: f64 = 3.52 / 4.0;
const SPM_MM2_PER_MIB: f64 = 3.25 / 4.0;
const MEMCTRL_W: f64 = 1.225;
const MEMCTRL_MM2: f64 = 14.9;

/// Builds the Table 2 budget for a configuration.
///
/// # Examples
///
/// ```
/// use matcha_accel::{area_power, MatchaConfig};
///
/// let budget = area_power::design_budget(&MatchaConfig::paper());
/// // Table 2 totals: 39.98 W and 36.96 mm².
/// assert!((budget.total_power_w() - 39.98).abs() < 0.2);
/// assert!((budget.total_area_mm2() - 36.96).abs() < 0.2);
/// ```
pub fn design_budget(cfg: &MatchaConfig) -> DesignBudget {
    let clock_scale = cfg.clock_ghz / 2.0; // dynamic power ∝ frequency
    let xbar_ports = 2.0 * (cfg.pipelines() * cfg.spm_banks) as f64 / 8.0
        + (cfg.pipelines() * cfg.pipelines()) as f64 / 8.0;
    let components = vec![
        ComponentBudget {
            name: "TGSW clusters",
            power_w: TGSW_CLUSTER_W * cfg.tgsw_clusters as f64 * clock_scale,
            area_mm2: TGSW_CLUSTER_MM2 * cfg.tgsw_clusters as f64,
        },
        ComponentBudget {
            name: "EP cores",
            power_w: EP_CORE_W * ep_scale(cfg) * cfg.ep_cores as f64 * clock_scale,
            area_mm2: EP_CORE_MM2 * ep_scale(cfg) * cfg.ep_cores as f64,
        },
        ComponentBudget {
            name: "polynomial unit",
            power_w: POLY_UNIT_W_PER_LANE * cfg.poly_unit_lanes as f64 * clock_scale,
            area_mm2: POLY_UNIT_MM2_PER_LANE * cfg.poly_unit_lanes as f64,
        },
        ComponentBudget {
            name: "crossbars",
            power_w: XBAR_W_PER_PORT * xbar_ports * clock_scale,
            area_mm2: XBAR_MM2_PER_PORT * xbar_ports,
        },
        ComponentBudget {
            name: "SPM",
            power_w: SPM_W_PER_MIB * cfg.spm_mib * clock_scale,
            area_mm2: SPM_MM2_PER_MIB * cfg.spm_mib,
        },
        ComponentBudget {
            name: "mem ctrl + HBM2 PHY",
            // Half the controller budget follows the PHY lane count
            // (∝ bandwidth); the rest is fixed control logic.
            power_w: MEMCTRL_W * (0.5 + 0.5 * cfg.hbm_gb_s / 640.0),
            area_mm2: MEMCTRL_MM2 * (0.5 + 0.5 * cfg.hbm_gb_s / 640.0),
        },
    ];
    DesignBudget { components }
}

/// EP-core budget scaling: ~70% of an EP core is its five FFT/IFFT cores
/// (128 butterfly cores each at the paper design); the remaining 30% is
/// the register file and MAC lanes.
fn ep_scale(cfg: &MatchaConfig) -> f64 {
    let fft_cores = (cfg.ifft_cores_per_ep + cfg.fft_cores_per_ep) as f64 / 5.0;
    let butterflies = cfg.butterfly_cores as f64 / 128.0;
    0.3 + 0.7 * fft_cores * butterflies
}

/// Energy per gate in joules: total power × gate latency.
pub fn energy_per_gate_j(cfg: &MatchaConfig, gate_latency_s: f64) -> f64 {
    design_budget(cfg).total_power_w() * gate_latency_s
}

/// Per-component energy attribution for one gate at full pipeline
/// utilization: each component contributes `power / throughput`.
///
/// The breakdown shows where MATCHA's energy advantage comes from — the
/// EP cores (multiplication-less butterflies) dominate, while the HBM PHY
/// and SPM stay small, which is why the design lands at 6× better
/// throughput/Watt than the ASIC baseline (Figure 11).
pub fn energy_breakdown_j(cfg: &MatchaConfig, gates_per_second: f64) -> Vec<(&'static str, f64)> {
    assert!(gates_per_second > 0.0, "throughput must be positive");
    design_budget(cfg)
        .components
        .iter()
        .map(|c| (c.name, c.power_w / gates_per_second))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_match_table2() {
        let b = design_budget(&MatchaConfig::paper());
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
    fn component_rows_match_table2() {
        let b = design_budget(&MatchaConfig::paper());
        let find = |n: &str| b.components.iter().find(|c| c.name == n).unwrap();
        // Sub-total row of Table 2: 8 EP cores + 8 TGSW clusters = 30.8 W.
        let sub = find("TGSW clusters").power_w + find("EP cores").power_w;
        assert!((sub - 30.8).abs() < 0.1, "subtotal {sub}");
        assert!((find("SPM").power_w - 3.52).abs() < 1e-9);
        assert!((find("mem ctrl + HBM2 PHY").area_mm2 - 14.9).abs() < 1e-9);
    }

    #[test]
    fn power_scales_with_units() {
        let mut cfg = MatchaConfig::paper();
        cfg.ep_cores = 16;
        cfg.tgsw_clusters = 16;
        let b = design_budget(&cfg);
        assert!(b.total_power_w() > 60.0);
    }

    #[test]
    fn power_scales_with_clock() {
        let mut cfg = MatchaConfig::paper();
        cfg.clock_ghz = 1.0;
        let half = design_budget(&cfg);
        let full = design_budget(&MatchaConfig::paper());
        // Logic power halves, the (static-dominated) memory PHY does not.
        assert!(half.total_power_w() < full.total_power_w());
        assert!(half.total_power_w() > full.total_power_w() / 2.0);
    }

    #[test]
    fn energy_per_gate() {
        let cfg = MatchaConfig::paper();
        let e = energy_per_gate_j(&cfg, 0.18e-3);
        // ≈ 40 W × 0.18 ms ≈ 7.2 mJ.
        assert!((e - 7.2e-3).abs() < 0.5e-3, "energy {e}");
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let cfg = MatchaConfig::paper();
        let throughput = 40_000.0;
        let rows = energy_breakdown_j(&cfg, throughput);
        let sum: f64 = rows.iter().map(|(_, e)| e).sum();
        let total = design_budget(&cfg).total_power_w() / throughput;
        assert!((sum - total).abs() < 1e-12);
        // EP cores dominate the budget.
        let ep = rows.iter().find(|(n, _)| *n == "EP cores").unwrap().1;
        assert!(rows.iter().all(|&(n, e)| n == "EP cores" || e <= ep));
    }
}
