//! Text rendering of the evaluation figures and tables.
//!
//! These helpers produce the row/series text the benchmark binaries print,
//! matching the quantities of the paper's Figures 9–11 and Table 2.

use crate::area_power::DesignBudget;
use crate::platforms::Platform;
use std::fmt::Write as _;

/// Renders a per-platform, per-`m` metric table (one row per platform,
/// columns m=1..=4), with `-` for unsupported points.
fn metric_table(
    title: &str,
    unit: &str,
    platforms: &[Platform],
    metric: impl Fn(&Platform, usize) -> Option<f64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>12} {:>12}   [{unit}]",
        "platform", "m=1", "m=2", "m=3", "m=4"
    );
    for p in platforms {
        let _ = write!(out, "{:<8}", p.name);
        for m in 1..=4 {
            match metric(p, m) {
                Some(v) => {
                    let _ = write!(out, " {v:>12.4}");
                }
                None => {
                    let _ = write!(out, " {:>12}", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Figure 9: NAND latency in milliseconds.
pub fn figure9(platforms: &[Platform]) -> String {
    metric_table(
        "Figure 9: TFHE NAND gate latency",
        "ms",
        platforms,
        |p, m| p.latency_s(m).map(|s| s * 1e3),
    )
}

/// Figure 10: NAND throughput in gates/s.
pub fn figure10(platforms: &[Platform]) -> String {
    metric_table(
        "Figure 10: TFHE NAND gate throughput",
        "gate/s",
        platforms,
        |p, m| p.throughput(m),
    )
}

/// Figure 11: throughput per watt in gates/s/W.
pub fn figure11(platforms: &[Platform]) -> String {
    metric_table(
        "Figure 11: TFHE NAND throughput per Watt",
        "gate/s/W",
        platforms,
        |p, m| p.throughput_per_watt(m),
    )
}

/// Table 2: the power/area budget.
pub fn table2(budget: &DesignBudget) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table 2: MATCHA power and area (16 nm, 2 GHz)");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>12}",
        "component", "power (W)", "area (mm^2)"
    );
    for c in &budget.components {
        let _ = writeln!(
            out,
            "{:<22} {:>10.3} {:>12.3}",
            c.name, c.power_w, c.area_mm2
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>10.3} {:>12.3}",
        "Total",
        budget.total_power_w(),
        budget.total_area_mm2()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area_power::design_budget;
    use crate::config::MatchaConfig;
    use crate::platforms::evaluation_platforms;

    #[test]
    fn figure9_contains_all_platforms() {
        let text = figure9(&evaluation_platforms());
        for name in ["CPU", "GPU", "MATCHA", "FPGA", "ASIC"] {
            assert!(text.contains(name), "missing {name}:\n{text}");
        }
        // FPGA supports only m = 1: the m ≥ 2 columns are dashes.
        let fpga_line = text.lines().find(|l| l.starts_with("FPGA")).unwrap();
        assert_eq!(fpga_line.matches(" -").count(), 3, "{fpga_line}");
    }

    #[test]
    fn table2_totals_rendered() {
        let text = table2(&design_budget(&MatchaConfig::paper()));
        assert!(text.contains("Total"));
        assert!(text.contains("39.9") || text.contains("40.0"), "{text}");
    }

    #[test]
    fn throughput_table_has_units() {
        let text = figure10(&evaluation_platforms());
        assert!(text.contains("gate/s"));
    }
}
