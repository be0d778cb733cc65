//! Circuit-level latency estimates: schedules the library's lowerings of
//! the standard circuits — as lowered, with full adders fused to two
//! bootstraps, with every sum riding on its carry's bootstrap, and as
//! `server::admit` admits them inside the default noise budget at the
//! paper's parameters — onto each platform's pipelines at its best unroll
//! factor, turning per-gate numbers (Fig. 9/10) into application-level
//! estimates, including the paper's §1 "TFHE CPU at 1.25 Hz" story. No key
//! is generated and no server started: admission is a function of the
//! netlist and the noise model.
//!
//! Run with: `cargo run --release -p matcha-bench --bin circuit_estimate`

use matcha::accel::schedule::{schedule, Netlist};
use matcha::accel::Platform;
use matcha::circuits::netlist;
use matcha::tfhe::server::{admit, Admitted, RejectReason, Rung};
use matcha::tfhe::{demote_sums, simplify, AnalysisPolicy, EquivBudget, NoiseModel, ParameterSet};

/// `bootstraps/waves rung`, or `rejected`.
fn as_admitted(admitted: &Result<Admitted, RejectReason>) -> String {
    let Ok(Admitted { netlist, rung }) = admitted else {
        return "rejected".into();
    };
    let rung = match rung {
        Rung::Submitted => "submitted",
        Rung::Rewritten => "rewritten",
        Rung::SumsDemoted => "sums demoted",
        Rung::Refused { .. } => "refused",
    };
    format!("{}/{} {rung}", netlist.bootstraps(), netlist.depth())
}

fn main() {
    let circuits = [
        ("8-bit adder", netlist::ripple_adder(8)),
        ("32-bit adder", netlist::ripple_adder(32)),
        ("8-bit equality", netlist::eq_comparator(8)),
        ("4x4 multiplier", netlist::mul(4)),
        ("8x8 multiplier", netlist::mul(8)),
    ];
    let platforms = [
        Platform::cpu(),
        Platform::gpu(),
        Platform::matcha_paper(),
        Platform::asic(),
    ];
    let policy = AnalysisPolicy {
        require_equivalence: Some(EquivBudget::default()),
        ..AnalysisPolicy::default()
    };

    println!("# Circuit latency estimates (best unroll factor m per platform)");
    println!("# gates/waves: bootstraps and wave depth, as lowered -> fused -> riding;");
    println!("# as admitted: bootstraps/waves and rung of what server::admit schedules at");
    println!("# ParameterSet::MATCHA inside the default 2^-20 budget, rewrite proven;");
    println!("# latencies are of the netlist admitted at each platform's m");
    print!(
        "{:<16} {:>18} {:>16} {:>20} {:>20}",
        "circuit", "gates", "waves", "as admitted m = 2", "as admitted m = 3"
    );
    for p in &platforms {
        print!(" {:>12}", format!("{} m={}", p.name, p.best_unroll()));
    }
    println!("   [ms]");
    for (name, lowered) in &circuits {
        let (riding, _) = simplify(lowered);
        let fused = demote_sums(&riding);
        let stages = [lowered, &fused, &riding];
        let [gates, waves] = [stages.map(|n| n.bootstraps()), stages.map(|n| n.depth())]
            .map(|[lowered, fused, riding]| format!("{lowered} -> {fused} -> {riding}"));
        // Admission at unroll 1..=4, every `best_unroll` there can be.
        let admitted: Vec<_> = (1..=4)
            .map(|m| {
                let model = NoiseModel::new(&ParameterSet::MATCHA, m);
                admit(lowered.clone(), &model, &policy, |n| simplify(n).0)
            })
            .collect();
        let [m2, m3] = [&admitted[1], &admitted[2]].map(as_admitted);
        print!("{name:<16} {gates:>18} {waves:>16} {m2:>20} {m3:>20}");
        for p in &platforms {
            let m = p.best_unroll();
            let Ok(run) = &admitted[m - 1] else {
                print!(" {:>12}", "rejected");
                continue;
            };
            let dag = Netlist::from_deps(&run.netlist.schedule_skeleton());
            let lat = p.latency_s(m).expect("best unroll is supported");
            let pipes = p.concurrency.round() as usize;
            let r = schedule(&dag, pipes.max(1), lat);
            print!(" {:>12.2}", r.makespan_s * 1e3);
        }
        println!();
    }
    println!("\n(the paper's §1 TFHE RISC-V CPU executes thousands of gates per cycle;");
    println!(" at MATCHA's per-gate latency a 32-bit add completes in milliseconds");
    println!(" instead of the ~1 s a software TFHE stack needs.)");
}
