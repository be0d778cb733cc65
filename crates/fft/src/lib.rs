//! Negacyclic FFT engines for TFHE, including MATCHA's approximate
//! multiplication-less integer FFT.
//!
//! TFHE stores polynomials of `T_N[X] = T[X]/(X^N + 1)` either as `N` torus
//! coefficients or in the *Lagrange half-complex* representation: the `N/2`
//! complex evaluations of the polynomial at half of the roots of `X^N + 1`
//! (paper §4.1). Converting between the two representations is the FFT/IFFT
//! kernel that dominates bootstrapping latency (paper Figure 1), and the
//! kernel MATCHA approximates.
//!
//! Two interchangeable engines implement the [`FftEngine`] trait (and one
//! wrapper, [`Counting`], that counts what either runs):
//!
//! * [`F64Fft`] — breadth-first Cooley–Tukey in double precision; this is the
//!   TFHE reference library's choice and the paper's accuracy baseline
//!   ("double" in Figure 8).
//! * [`ApproxIntFft`] — MATCHA's engine: 64-bit *integer* arithmetic where
//!   every twiddle rotation is three lifting steps (Figure 3a) whose
//!   coefficients are dyadic-value-quantized (`α/2^β`, Figure 3b) and applied
//!   with additions and binary shifts only.
//!
//! Both engines store spectra *split-complex* (separate `re[]`/`im[]`
//! arrays) and run their butterfly stages and pointwise accumulates through
//! the [`simd`] kernels, which have an AVX2+FMA leg and, for the integer
//! engine's widest kernels, an AVX-512F one. The leg is a value each engine
//! holds ([`FftEngine::leg`]): `new` takes [`Leg::host`], the widest leg
//! the CPU runs unless `MATCHA_SIMD=0` asks for the scalar one, and
//! `with_leg` any other, narrowed to what the CPU runs.
//! The depth-first conjugate-pair flow of §4.1 (Figure 2b) is a claim about
//! the accelerator's twiddle-buffer reads, and is modelled there, in the
//! test-only `banking` module of `matcha-accel`
//! (`cargo test -p matcha-accel banking`).
//!
//! # Public surface
//!
//! Bootstrapping needs the [`FftEngine`] trait and its two engines.
//! [`Counting`] measures them: it forwards to either and tallies the
//! transforms, multiply-accumulate rows and bundle rows with their time
//! ([`Counts`]), and the count tests and the Figure 1 regenerator build
//! their keys over it. The other public items are the ones another crate,
//! a figure regenerator or this crate's equivalence suites call directly:
//! the spectrum and key-block types, the Figure 8 error harness
//! ([`error`]), the kernels and their legs ([`simd`], [`Leg`]), and the
//! table and lifting types those kernels take. The table builders' complex-number helper and the
//! kernels only the engines call are crate-private, and the twiddle tables
//! store each factor once, split into the `re`/`im` arrays the kernels read.
//!
//! # Examples
//!
//! ```
//! use matcha_fft::{ApproxIntFft, F64Fft, FftEngine};
//! use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
//!
//! let n = 16;
//! let mut t = TorusPolynomial::zero(n);
//! t.coeffs_mut()[1] = Torus32::from_f64(0.25);
//! let mut d = IntPolynomial::zero(n);
//! d.coeffs_mut()[0] = 3;
//!
//! let exact = F64Fft::new(n);
//! let approx = ApproxIntFft::new(n, 40);
//! let a = exact.poly_mul(&t, &d);
//! let b = approx.poly_mul(&t, &d);
//! assert!(a.max_distance(&b) < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod approx;
mod counting;
mod cplx;
pub mod engine;
pub mod error;
pub mod lifting;
pub mod ref_fft;
pub mod simd;
pub mod tables;
pub mod twist;

pub use approx::ApproxIntFft;
pub use counting::{Counting, Counts};
pub use engine::{key_exponent, FftEngine, KeyBlock, Spectrum};
pub use lifting::{DyadicCoeff, LiftingRotation};
pub use ref_fft::{CplxSpectrum, F64Fft, SplitFactors};
pub use simd::{simd_detected, Leg};
pub use tables::{StageTwiddles, TwiddleTables};
