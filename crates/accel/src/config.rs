//! MATCHA hardware configuration (paper §4.3, Figure 7, Table 2).

/// The microarchitectural parameters of a MATCHA instance.
///
/// Defaults reproduce the paper's design: 2 GHz, 8 TGSW clusters + 8 EP
/// cores (one bootstrapping pipeline each), EP cores with 1 FFT + 4 IFFT
/// cores of 128 butterfly cores each, a 4 MB / 32-bank scratchpad, and
/// 640 GB/s of HBM2 bandwidth.
///
/// # Examples
///
/// ```
/// use matcha_accel::MatchaConfig;
///
/// let cfg = MatchaConfig::paper();
/// assert_eq!(cfg.ep_cores, 8);
/// assert_eq!(cfg.clock_ghz, 2.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MatchaConfig {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Number of TGSW clusters (bundle builders).
    pub tgsw_clusters: usize,
    /// Number of External Product cores.
    pub ep_cores: usize,
    /// IFFT cores per EP core (coefficient → Lagrange).
    pub ifft_cores_per_ep: usize,
    /// FFT cores per EP core (Lagrange → coefficient).
    pub fft_cores_per_ep: usize,
    /// Butterfly cores per FFT/IFFT core (two 64-bit adders + two 64-bit
    /// shifters each — the multiplication-less butterfly of Figure 3).
    pub butterfly_cores: usize,
    /// 32-bit integer multipliers per TGSW cluster.
    pub tgsw_multipliers: usize,
    /// 32-bit integer multiplier/adder pairs per EP core (pointwise MACs).
    pub ep_multipliers: usize,
    /// Lanes in the polynomial unit (adders/comparators/logic).
    pub poly_unit_lanes: usize,
    /// Scratchpad capacity in MiB.
    pub spm_mib: f64,
    /// Scratchpad banks.
    pub spm_banks: usize,
    /// HBM2 bandwidth in GB/s.
    pub hbm_gb_s: f64,
    /// Effective complex-MAC lanes per TGSW cluster.
    ///
    /// Calibration note: the paper does not state the cluster's per-cycle
    /// complex throughput; this default balances the Figure 6 pipeline at
    /// `m ≈ 3`, reproducing the paper's observation that "the workloads of
    /// the two steps can be approximately balanced by adjusting m".
    pub tgsw_mac_lanes: usize,
    /// Effective complex-MAC lanes per EP core (pointwise products are
    /// streamed through the transform pipeline).
    pub ep_mac_lanes: usize,
}

impl MatchaConfig {
    /// The configuration evaluated in the paper.
    pub fn paper() -> Self {
        Self {
            clock_ghz: 2.0,
            tgsw_clusters: 8,
            ep_cores: 8,
            ifft_cores_per_ep: 4,
            fft_cores_per_ep: 1,
            butterfly_cores: 128,
            tgsw_multipliers: 16,
            ep_multipliers: 4,
            poly_unit_lanes: 32,
            spm_mib: 4.0,
            spm_banks: 32,
            hbm_gb_s: 640.0,
            tgsw_mac_lanes: 32,
            ep_mac_lanes: 4,
        }
    }

    /// Clock period in nanoseconds.
    pub(crate) fn clock_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Cycles → seconds at this clock.
    pub(crate) fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles * self.clock_ns() * 1e-9
    }

    /// Number of independent bootstrapping pipelines
    /// (`min(tgsw_clusters, ep_cores)`).
    pub fn pipelines(&self) -> usize {
        self.tgsw_clusters.min(self.ep_cores)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.clock_ghz <= 0.0 {
            return Err("clock must be positive".into());
        }
        if self.pipelines() == 0 {
            return Err("need at least one TGSW cluster and one EP core".into());
        }
        if self.butterfly_cores == 0 || self.ifft_cores_per_ep == 0 || self.fft_cores_per_ep == 0 {
            return Err("EP cores need FFT/IFFT resources".into());
        }
        if self.hbm_gb_s <= 0.0 {
            return Err("HBM bandwidth must be positive".into());
        }
        if self.tgsw_mac_lanes == 0 || self.ep_mac_lanes == 0 {
            return Err("MAC lanes must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for MatchaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The TFHE workload parameters the accelerator model consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadParams {
    /// LWE dimension `n` (blind-rotation steps before unrolling).
    pub lwe_dimension: usize,
    /// Ring degree `N`.
    pub ring_degree: usize,
    /// TGSW decomposition length `ℓ`.
    pub decomp_levels: usize,
    /// Key-switch decomposition length `t`.
    pub ks_levels: usize,
}

impl WorkloadParams {
    /// The paper's §5 parameters.
    pub const MATCHA: Self = Self {
        lwe_dimension: 500,
        ring_degree: 1024,
        decomp_levels: 3,
        ks_levels: 8,
    };

    /// Blind-rotation steps at unroll factor `m`.
    pub fn steps(&self, m: usize) -> usize {
        self.lwe_dimension.div_ceil(m)
    }

    /// Transform size `M = N/2`.
    pub(crate) fn transform_points(&self) -> usize {
        self.ring_degree / 2
    }

    /// Radix-2 butterflies per transform: `(M/2)·log2(M)`.
    pub(crate) fn butterflies_per_transform(&self) -> usize {
        let m = self.transform_points();
        (m / 2) * m.trailing_zeros() as usize
    }

    /// Polynomials per TGSW sample: `2ℓ` rows × 2 polynomials.
    pub(crate) fn polys_per_tgsw(&self) -> usize {
        4 * self.decomp_levels
    }

    /// Bytes of one spectral TGSW sample (64-bit complex pairs).
    pub(crate) fn tgsw_bytes(&self) -> usize {
        self.polys_per_tgsw() * self.transform_points() * 16
    }

    /// Bootstrapping-key bytes streamed per gate at unroll `m`:
    /// `⌈n/m⌉ · (2^m − 1)` TGSW samples.
    pub fn bk_bytes_per_gate(&self, m: usize) -> usize {
        self.steps(m) * ((1 << m) - 1) * self.tgsw_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        MatchaConfig::paper().validate().unwrap();
    }

    #[test]
    fn pipelines_take_minimum() {
        let mut cfg = MatchaConfig::paper();
        cfg.tgsw_clusters = 4;
        assert_eq!(cfg.pipelines(), 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = MatchaConfig::paper();
        cfg.clock_ghz = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = MatchaConfig::paper();
        cfg.ep_cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn workload_counts() {
        let w = WorkloadParams::MATCHA;
        assert_eq!(w.steps(1), 500);
        assert_eq!(w.steps(3), 167);
        assert_eq!(w.transform_points(), 512);
        assert_eq!(w.butterflies_per_transform(), 256 * 9);
        assert_eq!(w.polys_per_tgsw(), 12);
        assert_eq!(w.tgsw_bytes(), 12 * 512 * 16);
    }

    #[test]
    fn bk_traffic_grows_with_m() {
        let w = WorkloadParams::MATCHA;
        // Table 3: key material grows like 2^m − 1 per group.
        assert!(w.bk_bytes_per_gate(4) > w.bk_bytes_per_gate(3));
        assert!(w.bk_bytes_per_gate(3) > w.bk_bytes_per_gate(1));
        // m = 1: 500 × 1 × 96 KiB = 48 MB of key stream per gate.
        assert_eq!(w.bk_bytes_per_gate(1), 500 * 12 * 512 * 16);
    }

    #[test]
    fn clock_conversion() {
        let cfg = MatchaConfig::paper();
        assert!((cfg.cycles_to_seconds(2e9) - 1.0).abs() < 1e-12);
    }
}
