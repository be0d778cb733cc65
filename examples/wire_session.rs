//! Wire sessions with packed transport: the client/evaluator split of
//! the paper over an actual byte stream. A `SessionServer` drives a
//! `CircuitServer` behind an in-memory duplex pipe (stand-in for a
//! socket); the client handshakes, packs its input bits into TRLWE
//! transport samples — 2 torus words per bit instead of `N + 1` — ships
//! an 8-bit adder netlist, and decrypts the result. Along the way the
//! example counts actual bytes on the wire for both upload encodings.
//!
//! Run with: `cargo run --release --example wire_session [-- --fast]`
//! (`--fast` uses the small test parameters instead of the paper's.)

use matcha::circuits::netlist;
use matcha::tfhe::session::{duplex, SessionClient, SessionOutcome, SessionServer};
use matcha::tfhe::{packing, CircuitServer, Codec, LweCiphertext};
use matcha::{ClientKey, F64Fft, ParameterSet, ServerKey};
use rand::SeedableRng;
use std::sync::Arc;

fn encode_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

fn decode_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let params = if fast {
        ParameterSet::TEST_FAST
    } else {
        ParameterSet::MATCHA
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);

    println!("generating keys (n = {})...", params.lwe_dimension);
    let client_key = ClientKey::generate(params, &mut rng);
    let engine = F64Fft::new(params.ring_degree);
    let key = Arc::new(ServerKey::new(
        &client_key,
        F64Fft::new(params.ring_degree),
        &mut rng,
    ));
    let server = CircuitServer::start(key, 2);

    // The "network": an in-memory duplex pipe, served on its own thread.
    let (near, far) = duplex();
    let session = SessionServer::new(server.client(), *server.params());
    let serving = std::thread::spawn(move || session.serve(far));

    let mut wire = SessionClient::connect(near).expect("handshake");
    println!(
        "connected: server speaks n = {}, N = {}",
        wire.params().lwe_dimension,
        wire.params().ring_degree
    );

    // 42 + 27 through an 8-bit ripple-carry adder, inputs packed.
    let (a, b) = (42u64, 27u64);
    let net = netlist::ripple_adder(8);
    let mut bits = encode_bits(a, 8);
    bits.extend(encode_bits(b, 8));

    // What the two uploads would cost on the wire, measured for real.
    let packed_bytes: usize = bits
        .chunks(params.ring_degree)
        .map(|chunk| {
            packing::pack_bits(&client_key, chunk, &engine, &mut rng)
                .to_bytes()
                .len()
        })
        .sum();
    let lwe_bytes: usize = bits
        .iter()
        .map(|&bit| client_key.encrypt_with(bit, &mut rng).to_bytes().len())
        .sum();
    println!(
        "upload for {} input bits: per-LWE {} bytes ({:.1} B/bit), packed {} bytes ({:.1} B/bit), ratio {:.1}x",
        bits.len(),
        lwe_bytes,
        lwe_bytes as f64 / bits.len() as f64,
        packed_bytes,
        packed_bytes as f64 / bits.len() as f64,
        lwe_bytes as f64 / packed_bytes as f64,
    );
    if !fast {
        // At the paper's parameters a full packed sample carries N = 1024
        // bits at 2 words each vs (N + 1) = 1025 words per LWE bit: ~512x.
        println!(
            "(a full {}-bit packed payload amortizes to ~512x)",
            params.ring_degree
        );
    }

    let id = wire
        .submit_bits(&client_key, &net, &bits, &engine, &mut rng)
        .expect("submit");
    println!("submitted adder as submission {id}");

    let (_, outcome) = wire.wait().expect("outcome");
    let run = match outcome {
        SessionOutcome::Completed(run) => run,
        other => panic!("adder did not complete: {other:?}"),
    };
    let sum_bits: Vec<bool> = run
        .outputs
        .iter()
        .map(|c: &LweCiphertext| client_key.decrypt(c))
        .collect();
    // The adder emits 8 sum bits plus a carry.
    let sum = decode_bits(&sum_bits[..8]);
    println!(
        "{a} + {b} = {sum} (carry {}), {} bootstraps in {} waves, {:.2}s server-side",
        u64::from(sum_bits[8]),
        run.bootstraps,
        run.waves,
        run.elapsed_s
    );
    assert_eq!(sum, (a + b) & 0xFF);

    drop(wire); // close the session
    let served = serving
        .join()
        .expect("serving thread")
        .expect("clean close");
    println!("session closed after {served} circuit(s)");
    server.shutdown();
}
