//! Live software gate throughput on the persistent pool — our measured
//! point on the Figure 10 axis (CPU-class hardware). One wave of 32
//! independent NANDs, a netlist run through `CircuitNetlist::execute` on
//! pools of 1, 2, 4 and 8 workers; every output bit is decrypted and
//! checked, and the process exits non-zero on a wrong one.
//!
//! Run with: `cargo run --release -p matcha-bench --bin software_throughput`

use matcha::circuits::netlist::WordNetlist;
use matcha::circuits::word;
use matcha::{ClientKey, F64Fft, Gate, GateBatchPool, ParameterSet, ServerKey};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const WIDTH: usize = 32;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server = Arc::new(ServerKey::with_unrolling(
        &client,
        F64Fft::new(1024),
        2,
        &mut rng,
    ));
    let mut w = WordNetlist::new();
    let a = w.input_word(WIDTH);
    let b = w.input_word(WIDTH);
    let out = w.bitwise(Gate::Nand, &a, &b);
    w.mark_output_word(&out);
    let net = w.finish();

    let (x, y): (u32, u32) = (rng.gen(), rng.gen());
    let mut inputs = word::encrypt(&client, x.into(), WIDTH, &mut rng);
    inputs.extend(word::encrypt(&client, y.into(), WIDTH, &mut rng));
    let want = u64::from(!(x & y));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# Software NAND throughput (m = 2, one {WIDTH}-gate wave per run, {cores} cores)");
    println!("{:<8} {:>14} {:>12}", "workers", "gates/s", "wave (s)");
    for threads in [1usize, 2, 4, 8] {
        let pool = GateBatchPool::new(Arc::clone(&server), threads);
        // The first run sizes every worker's scratch; the second is timed.
        let runs = [net.execute(&pool, &inputs), net.execute(&pool, &inputs)];
        for run in &runs {
            let got = word::decrypt(&client, &run.outputs);
            assert_eq!(got, want, "NAND({x:#x}, {y:#x}) on {threads} workers");
        }
        let run = &runs[1];
        println!(
            "{:<8} {:>14.1} {:>12.3}",
            threads,
            run.bootstraps as f64 / run.elapsed_s,
            run.elapsed_s
        );
    }
    println!("\nevery output bit decrypted correctly");
    println!("paper CPU throughput: ~1.2k gates/s at m=2 (8 cores).");
}
