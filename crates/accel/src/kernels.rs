//! Cycle-cost model of MATCHA's kernels, derived from the Figure 7
//! microarchitecture.
//!
//! Two pipeline stages repeat per blind-rotation step (Figure 6a):
//!
//! 1. **TGSW cluster** — bundle construction: `(2^m − 1)` TGSW scale
//!    operations, each a pointwise complex multiply-accumulate over the
//!    `4ℓ` polynomials (`2ℓ` rows × 2) of a spectral TGSW sample.
//! 2. **EP core** — the external product: `2ℓ` IFFTs of the decomposed
//!    accumulator on the 4 IFFT cores, pointwise MACs against the bundle,
//!    and 2 FFTs back on the single FFT core.
//!
//! Each FFT/IFFT core retires `butterfly_cores` butterflies per cycle plus
//! a pipeline-fill latency of one cycle per stage.

use crate::config::{MatchaConfig, WorkloadParams};

/// Cycle costs of the per-step kernels at a given unroll factor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct StepCosts {
    /// TGSW-cluster cycles per step (bundle construction).
    pub tgsw_cycles: f64,
    /// EP-core cycles per step (external product).
    pub ep_cycles: f64,
    /// Bootstrapping-key bytes streamed from HBM per step.
    pub hbm_bytes: f64,
}

/// The kernel calls of one blind-rotation step, per lane, in the units a
/// software engine counts them (`matcha_fft::Counting`): what the cycle
/// costs below charge, before any of it is spread over cores and lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepWork {
    /// Forward (coefficient → Lagrange, the paper's IFFT) transforms, one
    /// per decomposed digit: `2ℓ`.
    pub forward: usize,
    /// Backward (Lagrange → coefficient, FFT) transforms, mask and body: 2.
    pub backward: usize,
    /// Multiply-accumulate rows of the external product, each digit times
    /// a TGSW row's mask and body: `4ℓ`.
    pub mac_rows: usize,
    /// Bundle rows, one per polynomial of the bundled TGSW sample: `4ℓ`,
    /// each summing the `2^m − 1` scaled pattern keys of its group.
    pub bundle_rows: usize,
}

/// The kernel calls of one blind-rotation step.
pub fn step_work(w: &WorkloadParams) -> StepWork {
    StepWork {
        forward: 2 * w.decomp_levels,
        backward: 2,
        mac_rows: w.polys_per_tgsw(),
        bundle_rows: w.polys_per_tgsw(),
    }
}

/// Cycles one FFT/IFFT core needs for a single transform.
pub(crate) fn transform_cycles(cfg: &MatchaConfig, w: &WorkloadParams) -> f64 {
    let butterflies = w.butterflies_per_transform() as f64;
    let stages = w.transform_points().trailing_zeros() as f64;
    butterflies / cfg.butterfly_cores as f64 + stages
}

/// EP-core cycles for one external product (paper: 4 IFFT cores take the
/// `2ℓ` digit transforms in waves, the FFT core the 2 output transforms;
/// pointwise MACs stream through `ep_mac_lanes` complex lanes and overlap
/// with the transform waves).
pub(crate) fn ep_core_cycles(cfg: &MatchaConfig, w: &WorkloadParams) -> f64 {
    let t = transform_cycles(cfg, w);
    let work = step_work(w);
    let ifft_waves = work.forward.div_ceil(cfg.ifft_cores_per_ep) as f64;
    let fft_waves = work.backward as f64 / cfg.fft_cores_per_ep as f64;
    let transform_total = (ifft_waves + fft_waves.ceil()) * t;
    let macs = (work.mac_rows * w.transform_points()) as f64;
    let mac_cycles = macs / cfg.ep_mac_lanes as f64;
    // MACs overlap with transform streaming: the longer of the two paths
    // bounds the stage, plus the decomposition handled by the sequential
    // digit extract (absorbed in the fill term).
    transform_total.max(mac_cycles) + t
}

/// TGSW-cluster cycles to build one bundle at unroll `m`:
/// `(2^m − 1)` scale-and-accumulate passes over the sample's polynomials.
pub fn tgsw_cluster_cycles(cfg: &MatchaConfig, w: &WorkloadParams, m: usize) -> f64 {
    let terms = ((1usize << m) - 1) as f64;
    let macs_per_term = (step_work(w).bundle_rows * w.transform_points()) as f64;
    terms * macs_per_term / cfg.tgsw_mac_lanes as f64
}

/// All per-step costs at unroll `m`.
pub(crate) fn step_costs(cfg: &MatchaConfig, w: &WorkloadParams, m: usize) -> StepCosts {
    StepCosts {
        tgsw_cycles: tgsw_cluster_cycles(cfg, w, m),
        ep_cycles: ep_core_cycles(cfg, w),
        hbm_bytes: (((1usize << m) - 1) * w.tgsw_bytes()) as f64,
    }
}

/// Cycles for the non-pipelined epilogue of one gate: sample extraction
/// and key switching on the polynomial unit.
///
/// Each polynomial-unit lane is 256 bits wide (the crossbars are 256-bit
/// bit-sliced, §4.3), i.e. 8 32-bit adds per lane per cycle. The
/// key-switching key itself is shared by every concurrent gate, so its
/// HBM traffic amortizes across the pipelines and prefetches during blind
/// rotation — only the compute appears on the critical path.
pub(crate) fn epilogue_cycles(cfg: &MatchaConfig, w: &WorkloadParams) -> f64 {
    // Key switch: N coefficients × t levels of LWE-subtractions of width n.
    let ks_ops = (w.ring_degree * w.ks_levels * (w.lwe_dimension + 1)) as f64;
    ks_ops / (cfg.poly_unit_lanes as f64 * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> (MatchaConfig, WorkloadParams) {
        (MatchaConfig::paper(), WorkloadParams::MATCHA)
    }

    #[test]
    fn transform_cycles_match_hand_count() {
        let (cfg, w) = paper();
        // 2304 butterflies / 128 cores + 9 stages = 27 cycles.
        assert!((transform_cycles(&cfg, &w) - 27.0).abs() < 1e-9);
    }

    #[test]
    fn ep_cycles_are_mac_bound_at_paper_config() {
        let (cfg, w) = paper();
        // 12×512 MACs / 4 lanes = 1536 > (2+2)·27 transform cycles.
        let ep = ep_core_cycles(&cfg, &w);
        assert!(ep > 1500.0 && ep < 1600.0, "ep = {ep}");
    }

    #[test]
    fn tgsw_cycles_scale_with_terms() {
        let (cfg, w) = paper();
        let c1 = tgsw_cluster_cycles(&cfg, &w, 1);
        let c2 = tgsw_cluster_cycles(&cfg, &w, 2);
        let c4 = tgsw_cluster_cycles(&cfg, &w, 4);
        assert!((c2 / c1 - 3.0).abs() < 1e-9);
        assert!((c4 / c1 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_balances_near_m3() {
        // The paper: "the workloads of the two steps can be approximately
        // balanced by adjusting m" — with the default lanes, TGSW work
        // crosses EP work between m = 2 and m = 4.
        let (cfg, w) = paper();
        let ep = ep_core_cycles(&cfg, &w);
        assert!(tgsw_cluster_cycles(&cfg, &w, 2) < ep);
        assert!(tgsw_cluster_cycles(&cfg, &w, 4) > ep);
    }

    #[test]
    fn more_butterfly_cores_speed_up_transforms() {
        let (mut cfg, w) = paper();
        let base = transform_cycles(&cfg, &w);
        cfg.butterfly_cores = 256;
        assert!(transform_cycles(&cfg, &w) < base);
    }

    #[test]
    fn epilogue_is_small_relative_to_rotation() {
        let (cfg, w) = paper();
        let rot = ep_core_cycles(&cfg, &w) * w.steps(1) as f64;
        assert!(epilogue_cycles(&cfg, &w) < rot / 2.0);
    }
}
