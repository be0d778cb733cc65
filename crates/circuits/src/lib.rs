//! Homomorphic Boolean circuits built on the `matcha-tfhe` gate API.
//!
//! The MATCHA paper motivates gate acceleration with TFHE-based
//! general-purpose computing (a TFHE RISC-V CPU running at 1.25 Hz, §1).
//! This crate provides the circuit layer such applications are built from:
//! multi-bit words, ripple-carry arithmetic, comparators, multiplexers, a
//! barrel shifter, and a small ALU. Every circuit is generic over the FFT
//! engine, so the whole stack runs identically on the double-precision
//! reference kernel and on MATCHA's approximate integer kernel.
//!
//! Each circuit is defined once, as a [`netlist`] lowering — adders,
//! comparators, mux trees, the schoolbook multiplier, the ALU, popcount,
//! the barrel shifter, and whole [`processor`] cycles — built with the
//! word-level [`WordNetlist`](netlist::WordNetlist) builder. The
//! word-level functions ([`adder::add`], [`alu::execute`], …) check their
//! operands, build that lowering and run it on the calling thread with
//! [`CircuitNetlist::execute_sequential`]; the same netlists are what the
//! batch pool and the circuit server wave-schedule, so a circuit computes
//! the same ciphertexts whichever way it runs.
//!
//! # Examples
//!
//! ```no_run
//! use matcha_circuits::{adder, word};
//! use matcha_fft::F64Fft;
//! use matcha_tfhe::{ClientKey, ServerKey, params::ParameterSet};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
//! let engine = F64Fft::new(client.params().ring_degree);
//! let server = ServerKey::new(&client, engine, &mut rng);
//!
//! let a = word::encrypt(&client, 25, 8, &mut rng);
//! let b = word::encrypt(&client, 17, 8, &mut rng);
//! let sum = adder::add(&server, &a, &b);
//! assert_eq!(word::decrypt(&client, &sum.sum), 42);
//! ```

#![warn(missing_docs)]

pub mod adder;
pub mod alu;
pub mod analysis;
pub mod comparator;
#[cfg(test)]
mod multiplier;
pub mod mux;
pub mod netlist;
pub mod popcount;
pub mod processor;
pub mod shifter;
pub mod word;

pub use word::EncryptedWord;

use matcha_fft::FftEngine;
use matcha_tfhe::{CircuitNetlist, LweCiphertext, ServerKey};

/// Runs a lowering on the calling thread: `words` fill its input slots in
/// order, and the result is its outputs in marking order.
pub(crate) fn run<E: FftEngine>(
    server: &ServerKey<E>,
    net: &CircuitNetlist,
    words: &[&[LweCiphertext]],
) -> Vec<LweCiphertext> {
    net.execute_sequential(server, &words.concat()).outputs
}

#[cfg(test)]
pub(crate) mod testutil {
    use matcha_fft::F64Fft;
    use matcha_tfhe::{ClientKey, ParameterSet, ServerKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Shared fast fixture for circuit tests.
    pub fn setup(seed: u64) -> (ClientKey, ServerKey<F64Fft>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = ServerKey::with_unrolling(&client, engine, 2, &mut rng);
        (client, server, rng)
    }
}
