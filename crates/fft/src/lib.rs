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
//! Two interchangeable engines implement the [`FftEngine`] trait:
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
//! the [`simd`] kernels, which use AVX2+FMA when the CPU supports it
//! (runtime-detected; `MATCHA_SIMD=0` or [`force_simd`] pin the scalar leg).
//! The depth-first conjugate-pair flow of §4.1 (Figure 2b) is a claim about
//! the accelerator's twiddle-buffer reads, and is modelled there:
//! `matcha_accel::banking`.
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

pub mod approx;
pub mod cplx;
pub mod engine;
pub mod error;
pub mod lifting;
pub mod ref_fft;
pub mod simd;
pub mod tables;
pub mod twist;

pub use approx::ApproxIntFft;
pub use cplx::Cplx;
pub use engine::{key_exponent, FftEngine, KeyBlock, Spectrum};
pub use error::{fft_roundtrip_error_db, poly_mul_error_db};
pub use lifting::{DyadicCoeff, LiftingRotation};
pub use ref_fft::{CplxSpectrum, F64Fft, SplitFactors};
pub use simd::{force_simd, simd_active, simd_detected};
pub use tables::{StageTwiddles, TwiddleTables};
