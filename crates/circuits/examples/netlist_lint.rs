//! Lints every shipped circuit lowering and prints its pre-execution
//! certificate: structural findings, per-output failure-probability
//! bounds, the critical path and makespan `matcha_accel::schedule`
//! predicts over the netlist's schedule skeleton, and what `simplify`
//! would save.
//!
//! Exits non-zero if any lowering carries an `Error`-severity lint — the
//! CI `netlist-lint` job runs this binary to keep the library admissible
//! under the default analysis policy.

use matcha_circuits::analysis;
use matcha_tfhe::params::ParameterSet;
use matcha_tfhe::Severity;

fn main() {
    // Paper-grade parameters, classic BKU unrolling, one batch pool of
    // four pipelines at a nominal 1 ms per bootstrap.
    let reports = analysis::analyze_library(&ParameterSet::MATCHA, 2, 4, 1e-3);
    let mut errors = 0usize;

    for (a, (_, net)) in reports.iter().zip(analysis::library()) {
        println!(
            "{:<12} bootstraps {:>3}  depth {:>2}  critical path {:>2} units  \
             predicted {:>8.3} ms  simplify {} -> {} bootstraps",
            a.name,
            a.predicted.gates,
            net.depth(),
            a.predicted.critical_path,
            a.predicted.makespan_s * 1e3,
            a.simplified.bootstraps_before,
            a.simplified.bootstraps_after,
        );
        for o in &a.report.noise.outputs {
            println!(
                "  output node {:>3}: variance {:.3e}, failure bound {:.3e}",
                o.node, o.variance, o.failure_prob
            );
        }
        if a.report.lints.is_empty() {
            println!("  lint-clean");
        }
        for l in &a.report.lints {
            println!("  {l}");
            if l.kind.severity() >= Severity::Error {
                errors += 1;
            }
        }
    }

    if errors > 0 {
        eprintln!("netlist-lint: {errors} error-severity finding(s)");
        std::process::exit(1);
    }
    println!("netlist-lint: {} lowerings clean", reports.len());
}
