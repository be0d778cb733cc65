//! Circuit-level latency estimates: schedules the library's lowerings of
//! the standard circuits — as lowered, and as a server admits them (the
//! proven `simplify` rewrite, full adders fused to two bootstraps) — onto
//! each platform's pipelines at its best unroll factor, turning per-gate
//! numbers (Fig. 9/10) into application-level estimates, including the
//! paper's §1 "TFHE CPU at 1.25 Hz" story.
//!
//! Run with: `cargo run --release -p matcha-bench --bin circuit_estimate`

use matcha::accel::schedule::{schedule, Netlist};
use matcha::accel::Platform;
use matcha::circuits::netlist;
use matcha::tfhe::simplify;

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
    println!("# gates/waves: bootstraps and wave depth, as lowered -> as admitted;");
    println!("# latencies are of the admitted netlist");
    print!("{:<16} {:>11} {:>9}", "circuit", "gates", "waves");
    for p in &platforms {
        print!(" {:>12}", p.name);
    }
    println!("   [ms]");
    for (name, lowered) in &circuits {
        let (admitted, _) = simplify(lowered);
        let dag = Netlist::from_deps(&admitted.schedule_skeleton());
        let gates = format!("{} -> {}", lowered.bootstraps(), admitted.bootstraps());
        let waves = format!("{} -> {}", lowered.depth(), admitted.depth());
        print!("{name:<16} {gates:>11} {waves:>9}");
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
