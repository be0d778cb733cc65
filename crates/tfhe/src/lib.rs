//! A from-scratch implementation of TFHE (Fully Homomorphic Encryption over
//! the Torus) with the accelerator-oriented extensions of the MATCHA paper
//! (DAC 2022): generalized bootstrapping key unrolling and pluggable FFT
//! engines, including the approximate multiplication-less integer FFT.
//!
//! # Architecture
//!
//! * [`params`] — parameter sets (the paper's §5 set, fast test sets).
//! * [`secret`] / [`lwe`] / [`tlwe`] / [`tgsw`] — the ciphertext tower:
//!   scalar LWE samples for gates (under the key extracted from the ring
//!   key), ring TRLWE samples for the accumulator,
//!   TGSW samples for the bootstrapping keys, and the external product.
//! * [`bku`] — bootstrapping key unrolling: `2^m − 1` pattern keys per
//!   group of `m` secret bits, bundles made with Lagrange-domain TGSW
//!   scale operations (no extra FFTs) and streamed straight into each
//!   step's external product.
//! * [`bootstrap`] — Algorithm 1, key switch first: key switch,
//!   mod-switch, blind rotation, sample extraction.
//! * [`gates`] — the Boolean gate API ([`ServerKey`]).
//! * [`batch`] / [`circuit`] / [`server`] — the serving stack: persistent
//!   heterogeneous gate-batch pool, executable netlists wave-scheduled onto
//!   it, and the multi-client circuit request server.
//! * [`codec`] / [`packing`] / [`session`] — the wire: versioned
//!   serialization for every key and ciphertext, packed TRLWE transport
//!   (2 torus words per bit instead of `N + 1`), and framed sessions
//!   serving whole circuits over any `Read + Write` transport.
//! * [`analyze`](mod@analyze) — netlist static analysis: structural lints, the
//!   `simplify` rewriter and analytic worst-case noise certification — run
//!   at server admission via [`AnalysisPolicy`].
//! * [`noise`] — the measurement harness behind the paper's Table 3.
//!   Figure 1 is measured at the engine boundary: a server key built over
//!   `matcha_fft::Counting` counts and times the transforms and bundle
//!   products that run through it, so the gate path carries no timers.
//!
//! # Examples
//!
//! ```
//! use matcha_tfhe::{ClientKey, ServerKey, params::ParameterSet};
//! use matcha_fft::F64Fft;
//! use rand::SeedableRng;
//!
//! // TEST_FAST keeps the doctest quick; use ParameterSet::MATCHA for the
//! // paper's 110-bit-security setting.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
//! let engine = F64Fft::new(client.params().ring_degree);
//! let server = ServerKey::new(&client, engine, &mut rng);
//!
//! let a = client.encrypt_with(true, &mut rng);
//! let b = client.encrypt_with(true, &mut rng);
//! let c = server.nand(&a, &b);
//! assert_eq!(client.decrypt(&c), false);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod batch;
pub mod bku;
pub mod bootstrap;
pub mod circuit;
pub mod codec;
pub mod faults;
pub mod gates;
pub mod keyswitch;
pub mod lwe;
pub mod noise;
pub mod packing;
pub mod params;
pub mod scratch;
pub mod secret;
pub mod server;
pub mod session;
pub mod tgsw;
pub mod tlwe;

pub use analyze::equiv::{Counterexample, EquivBudget, EquivReport, Spec, Verdict};
pub use analyze::{
    analyze, demote_sums, lint, simplify, AnalysisPolicy, Lint, LintKind, NetlistReport,
    NoiseModel, NoiseReport, OutputNoise, Severity, SimplifyReport,
};
pub use batch::{GateBatchPool, SlabTask, ValueSlab};
pub use bku::UnrolledBootstrappingKey;
pub use bootstrap::BootstrapKit;
pub use circuit::{CircuitNetlist, CircuitRun, GateOp};
pub use codec::Codec;
pub use faults::{FaultAction, FaultPlan};
pub use gates::{Gate, Gate3, GateDesc, LaneGate, ServerKey};
pub use keyswitch::KeySwitchKey;
pub use lwe::LweCiphertext;
pub use params::ParameterSet;
pub use scratch::{BootstrapScratch, EpScratch, MAX_LANES};
pub use secret::{ClientKey, LweSecretKey, RingSecretKey};
pub use server::{
    CircuitClient, CircuitOutcome, CircuitServer, ClientTally, PendingCircuit, RejectReason,
    SchedulerStats, ServerConfig,
};
pub use session::{SessionClient, SessionOutcome, SessionRun, SessionServer};
pub use tgsw::{TgswCiphertext, TgswSpectrum};
pub use tlwe::{TrlweCiphertext, TrlweSpectrum};
