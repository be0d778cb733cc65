//! # MATCHA — a fast and energy-efficient TFHE accelerator, reproduced
//!
//! This crate is the facade of a full Rust reproduction of *MATCHA: A Fast
//! and Energy-Efficient Accelerator for Fully Homomorphic Encryption over
//! the Torus* (Jiang, Lou, Joshi — DAC 2022). It re-exports the four layers
//! of the workspace:
//!
//! * [`fft`] — negacyclic FFT engines, including the paper's approximate
//!   multiplication-less integer FFT with dyadic-value-quantized twiddle
//!   factors ([`ApproxIntFft`]).
//! * [`tfhe`] — the TFHE scheme itself (LWE/TRLWE/TRGSW, gate
//!   bootstrapping, key switching, Boolean gates) with generalized
//!   bootstrapping key unrolling ([`ServerKey::with_unrolling`]), plus the
//!   serving stack: the persistent heterogeneous gate-batch pool
//!   ([`GateBatchPool`]), executable wave-scheduled netlists
//!   ([`CircuitNetlist`]) and the multi-client [`CircuitServer`].
//! * [`circuits`] — homomorphic adders, comparators, multiplexers and a
//!   small ALU built on the gate API.
//! * [`accel`] — the cycle-level model of the MATCHA hardware and the
//!   paper's CPU/GPU/FPGA/ASIC baselines (Figures 9–11, Table 2).
//!
//! # Quickstart
//!
//! ```
//! use matcha::{ApproxIntFft, ClientKey, ParameterSet, ServerKey};
//! use rand::SeedableRng;
//!
//! // TEST_FAST keeps this doctest quick; ParameterSet::MATCHA is the
//! // paper's 110-bit-security setting.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
//!
//! // The evaluator uses the approximate multiplication-less integer FFT
//! // with 40-bit twiddles and 2× bootstrapping key unrolling.
//! let engine = ApproxIntFft::new(client.params().ring_degree, 40);
//! let server = ServerKey::with_unrolling(&client, engine, 2, &mut rng);
//!
//! let a = client.encrypt_with(true, &mut rng);
//! let b = client.encrypt_with(false, &mut rng);
//! let c = server.nand(&a, &b);
//! assert!(client.decrypt(&c));
//! ```

pub use matcha_accel as accel;
pub use matcha_circuits as circuits;
pub use matcha_fft as fft;
pub use matcha_math as math;
pub use matcha_tfhe as tfhe;

pub use matcha_accel::{MatchaConfig, WorkloadParams};
pub use matcha_fft::{ApproxIntFft, F64Fft, FftEngine};
pub use matcha_math::Torus32;
pub use matcha_tfhe::{
    CircuitNetlist, CircuitOutcome, CircuitServer, ClientKey, Gate, GateBatchPool, GateTask,
    LweCiphertext, ParameterSet, ServerKey, ValueSlab,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // The paper's parameters are reachable through the facade.
        let p = crate::ParameterSet::MATCHA;
        assert_eq!(p.ring_degree, 1024);
        let cfg = crate::MatchaConfig::paper();
        assert_eq!(cfg.pipelines(), 8);
    }
}
