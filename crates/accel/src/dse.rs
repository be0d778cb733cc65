//! Design-space exploration over MATCHA configurations.
//!
//! The paper fixes one design point (8 pipelines, 128 butterfly cores,
//! 640 GB/s). This module sweeps the structural parameters, evaluates each
//! candidate with the pipeline simulator and the area/power model, and
//! extracts Pareto-optimal designs — an ablation of the paper's sizing
//! choices.

use crate::area_power;
use crate::config::{MatchaConfig, WorkloadParams};
use crate::pipeline;

/// One evaluated design candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// The configuration evaluated.
    pub config: MatchaConfig,
    /// The unroll factor used.
    pub unroll: usize,
    /// Gate latency in seconds.
    pub latency_s: f64,
    /// Gate throughput in gates/s.
    pub throughput: f64,
    /// Total power in watts.
    pub power_w: f64,
    /// Total area in mm².
    pub area_mm2: f64,
}

impl DesignPoint {
    /// Throughput per watt, the paper's efficiency metric (Figure 11).
    pub fn throughput_per_watt(&self) -> f64 {
        self.throughput / self.power_w
    }

    /// Returns `true` if `self` dominates `other`: no worse on power,
    /// latency *and* throughput, strictly better on at least one.
    /// (Latency alone would discard every multi-pipeline design: extra
    /// pipelines buy throughput, not single-gate latency.)
    fn dominates(&self, other: &DesignPoint) -> bool {
        let no_worse = self.power_w <= other.power_w
            && self.latency_s <= other.latency_s
            && self.throughput >= other.throughput;
        let better = self.power_w < other.power_w
            || self.latency_s < other.latency_s
            || self.throughput > other.throughput;
        no_worse && better
    }
}

/// The structural axes to sweep.
#[derive(Clone, Debug)]
pub struct SweepSpace {
    /// Pipeline counts (TGSW clusters = EP cores).
    pub pipelines: Vec<usize>,
    /// Butterfly cores per FFT/IFFT core.
    pub butterfly_cores: Vec<usize>,
    /// HBM bandwidths in GB/s.
    pub hbm_gb_s: Vec<f64>,
    /// Unroll factors to try per design (the best is kept).
    pub unrolls: Vec<usize>,
}

impl Default for SweepSpace {
    fn default() -> Self {
        Self {
            pipelines: vec![2, 4, 8, 16],
            butterfly_cores: vec![64, 128, 256],
            hbm_gb_s: vec![320.0, 640.0, 1280.0],
            unrolls: vec![1, 2, 3, 4],
        }
    }
}

/// Evaluates one configuration at its best unroll factor.
///
/// # Panics
///
/// Panics if `unrolls` is empty — a design point needs at least one
/// unroll factor to evaluate. (A fully empty sweep axis is handled one
/// level up: [`sweep`] over any empty axis returns no points without
/// ever calling this.)
pub fn evaluate(cfg: &MatchaConfig, w: &WorkloadParams, unrolls: &[usize]) -> DesignPoint {
    assert!(
        !unrolls.is_empty(),
        "evaluate needs at least one unroll factor to try"
    );
    let best = unrolls
        .iter()
        .map(|&m| pipeline::simulate_gate(cfg, w, m))
        .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        .expect("non-empty by the assert above");
    let budget = area_power::design_budget(cfg);
    DesignPoint {
        config: cfg.clone(),
        unroll: best.unroll,
        latency_s: best.latency_s,
        throughput: best.throughput,
        power_w: budget.total_power_w(),
        area_mm2: budget.total_area_mm2(),
    }
}

/// Sweeps the whole space, sharding the candidate configurations over
/// scoped worker threads: the configurations are cut into one contiguous
/// chunk per worker, and each worker writes into its own pre-split slice
/// of the output, so the result order is
/// **deterministic** and identical to the sequential nested-loop order:
/// pipelines outermost, then butterfly cores, then HBM bandwidth.
///
/// Any empty axis — including `unrolls` — makes the design-point product
/// empty, so the sweep returns no points (rather than panicking in
/// [`evaluate`]).
pub fn sweep(space: &SweepSpace, w: &WorkloadParams) -> Vec<DesignPoint> {
    if space.unrolls.is_empty() {
        return Vec::new();
    }
    let configs: Vec<MatchaConfig> = space
        .pipelines
        .iter()
        .flat_map(|&p| {
            space.butterfly_cores.iter().flat_map(move |&b| {
                space.hbm_gb_s.iter().map(move |&hbm| {
                    let mut cfg = MatchaConfig::paper();
                    cfg.tgsw_clusters = p;
                    cfg.ep_cores = p;
                    cfg.butterfly_cores = b;
                    cfg.hbm_gb_s = hbm;
                    cfg
                })
            })
        })
        .collect();
    if configs.is_empty() {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(configs.len());
    if threads <= 1 {
        // One core (or one candidate): the scoped-pool spawn overhead
        // buys nothing — evaluate inline.
        return configs
            .iter()
            .map(|cfg| evaluate(cfg, w, &space.unrolls))
            .collect();
    }
    let chunk = configs.len().div_ceil(threads);
    let mut out: Vec<Option<DesignPoint>> = vec![None; configs.len()];
    std::thread::scope(|scope| {
        for (cfgs, slots) in configs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (cfg, slot) in cfgs.iter().zip(slots.iter_mut()) {
                    *slot = Some(evaluate(cfg, w, &space.unrolls));
                }
            });
        }
    });
    out.into_iter()
        .map(|p| p.expect("worker filled every slot"))
        .collect()
}

/// Extracts the Pareto front (minimizing power and latency), sorted by
/// ascending power.
///
/// Design points that coincide on *every* objective axis dominate each
/// other in neither direction, so duplicates would all survive the
/// non-domination filter; the front keeps exactly one representative per
/// objective triple. Sorting tie-breaks on latency and throughput so equal
/// triples are adjacent regardless of input order (a power-only sort could
/// interleave them and leave duplicates standing).
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut front: Vec<DesignPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect();
    front.sort_by(|a, b| {
        a.power_w
            .total_cmp(&b.power_w)
            .then(a.latency_s.total_cmp(&b.latency_s))
            .then(a.throughput.total_cmp(&b.throughput))
    });
    front.dedup_by(|a, b| {
        a.power_w == b.power_w && a.latency_s == b.latency_s && a.throughput == b.throughput
    });
    front
}

/// The cheapest (lowest-power) design meeting a latency target, if any.
pub fn cheapest_meeting_latency(
    points: &[DesignPoint],
    latency_target_s: f64,
) -> Option<DesignPoint> {
    points
        .iter()
        .filter(|p| p.latency_s <= latency_target_s)
        .min_by(|a, b| a.power_w.total_cmp(&b.power_w))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> SweepSpace {
        SweepSpace {
            pipelines: vec![4, 8],
            butterfly_cores: vec![64, 128],
            hbm_gb_s: vec![320.0, 640.0],
            unrolls: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn sweep_covers_product_of_axes() {
        let points = sweep(&small_space(), &WorkloadParams::MATCHA);
        assert_eq!(points.len(), 8);
    }

    #[test]
    fn sweep_order_is_deterministic_and_matches_sequential() {
        // The sharded sweep must return points in exactly the sequential
        // nested-loop order (pipelines, then butterfly cores, then HBM),
        // regardless of how the chunks land on worker threads.
        let space = small_space();
        let parallel = sweep(&space, &WorkloadParams::MATCHA);
        let mut sequential = Vec::new();
        for &p in &space.pipelines {
            for &b in &space.butterfly_cores {
                for &hbm in &space.hbm_gb_s {
                    let mut cfg = MatchaConfig::paper();
                    cfg.tgsw_clusters = p;
                    cfg.ep_cores = p;
                    cfg.butterfly_cores = b;
                    cfg.hbm_gb_s = hbm;
                    sequential.push(evaluate(&cfg, &WorkloadParams::MATCHA, &space.unrolls));
                }
            }
        }
        assert_eq!(parallel, sequential);
        // Twice in a row: identical, not merely order-preserving.
        assert_eq!(parallel, sweep(&space, &WorkloadParams::MATCHA));
    }

    #[test]
    fn sweep_on_any_empty_axis_is_empty() {
        for wipe in 0..4 {
            let mut space = small_space();
            match wipe {
                0 => space.pipelines.clear(),
                1 => space.butterfly_cores.clear(),
                2 => space.hbm_gb_s.clear(),
                _ => space.unrolls.clear(),
            }
            assert!(
                sweep(&space, &WorkloadParams::MATCHA).is_empty(),
                "axis {wipe} empty must give an empty sweep"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one unroll factor")]
    fn evaluate_rejects_empty_unrolls() {
        let _ = evaluate(&MatchaConfig::paper(), &WorkloadParams::MATCHA, &[]);
    }

    #[test]
    fn pareto_front_is_nondominated_and_sorted() {
        let points = sweep(&small_space(), &WorkloadParams::MATCHA);
        let front = pareto_front(&points);
        assert!(!front.is_empty() && front.len() <= points.len());
        for (i, p) in front.iter().enumerate() {
            for q in &front {
                assert!(!q.dominates(p), "front point dominated");
            }
            if i > 0 {
                assert!(front[i - 1].power_w <= p.power_w, "front not sorted");
            }
        }
    }

    #[test]
    fn duplicate_design_points_collapse_to_one_front_entry() {
        // Duplicates are equal on every axis, so neither dominates the
        // other and both pass the non-domination filter; the front must
        // still carry each objective triple exactly once.
        let mut points = sweep(&small_space(), &WorkloadParams::MATCHA);
        let baseline = pareto_front(&points);
        let dupes = points.clone();
        points.extend(dupes);
        // Reverse so each duplicate pair is maximally separated in input
        // order; with a power-only stable sort, equal-power points with
        // differing latency could then land between duplicates and keep
        // them non-adjacent — the regression the three-axis sort fixes.
        points.reverse();
        let front = pareto_front(&points);
        assert_eq!(front.len(), baseline.len(), "duplicates survived");
        for (i, p) in front.iter().enumerate() {
            for q in &front[i + 1..] {
                assert!(
                    !(p.power_w == q.power_w
                        && p.latency_s == q.latency_s
                        && p.throughput == q.throughput),
                    "two front entries share every objective"
                );
            }
        }
    }

    #[test]
    fn paper_design_is_efficient() {
        // Among designs with the paper's HBM bandwidth (a board-level
        // constraint, not a free knob), the paper configuration must not
        // be dominated with 10% slack on every objective.
        let points = sweep(&SweepSpace::default(), &WorkloadParams::MATCHA);
        let paper = evaluate(
            &MatchaConfig::paper(),
            &WorkloadParams::MATCHA,
            &[1, 2, 3, 4],
        );
        let strictly_better = points
            .iter()
            .filter(|p| p.config.hbm_gb_s == paper.config.hbm_gb_s)
            .filter(|p| {
                p.power_w < paper.power_w * 0.9
                    && p.latency_s < paper.latency_s * 0.9
                    && p.throughput > paper.throughput * 1.1
            })
            .count();
        assert_eq!(strictly_better, 0, "paper design clearly dominated");
    }

    #[test]
    fn latency_target_selection() {
        let points = sweep(&small_space(), &WorkloadParams::MATCHA);
        let pick = cheapest_meeting_latency(&points, 1e-3).expect("1 ms is generous");
        assert!(pick.latency_s <= 1e-3);
        // Every cheaper design must miss the target.
        for p in &points {
            if p.power_w < pick.power_w {
                assert!(p.latency_s > 1e-3);
            }
        }
        assert!(cheapest_meeting_latency(&points, 1e-9).is_none());
    }

    #[test]
    fn best_unroll_recorded() {
        let paper = evaluate(
            &MatchaConfig::paper(),
            &WorkloadParams::MATCHA,
            &[1, 2, 3, 4],
        );
        assert_eq!(paper.unroll, 3, "paper config should prefer m = 3");
        assert!(paper.throughput_per_watt() > 0.0);
    }
}
