//! Circuit-level latency estimates: schedules the library's lowerings of
//! the standard circuits — as lowered, with full adders fused to two
//! bootstraps, and as a server admits them inside its noise budget (the
//! proven `simplify` rewrite: every sum riding on its carry's bootstrap) —
//! onto each platform's pipelines at its best unroll factor, turning per-gate
//! numbers (Fig. 9/10) into application-level estimates, including the
//! paper's §1 "TFHE CPU at 1.25 Hz" story.
//!
//! Run with: `cargo run --release -p matcha-bench --bin circuit_estimate`

use matcha::accel::schedule::{schedule, Netlist};
use matcha::accel::Platform;
use matcha::circuits::netlist;
use matcha::tfhe::{demote_sums, simplify};

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

    println!("# Circuit latency estimates (best unroll factor per platform)");
    println!("# gates/waves: bootstraps and wave depth, as lowered -> fused -> riding;");
    println!("# latencies are of the riding netlist, what admission schedules when it");
    println!("# certifies (its skeleton routes a sum's readers to the carry's bootstrap)");
    print!("{:<16} {:>16} {:>14}", "circuit", "gates", "waves");
    for p in &platforms {
        print!(" {:>12}", p.name);
    }
    println!("   [ms]");
    for (name, lowered) in &circuits {
        let (admitted, _) = simplify(lowered);
        let dag = Netlist::from_deps(&admitted.schedule_skeleton());
        let fused = demote_sums(&admitted);
        let stages = [lowered, &fused, &admitted];
        let [gates, waves] = [stages.map(|n| n.bootstraps()), stages.map(|n| n.depth())]
            .map(|[lowered, fused, riding]| format!("{lowered} -> {fused} -> {riding}"));
        print!("{name:<16} {gates:>16} {waves:>14}");
        for p in &platforms {
            let m = p.best_unroll();
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
