//! Mathematical substrate for the MATCHA TFHE reproduction.
//!
//! TFHE (Chillotti et al.) is defined over the real torus `T = R/Z`, rescaled
//! by `2^32` and represented as 32-bit integers so that every operation is
//! implicitly reduced modulo `2^32` ("Torus Implementation", paper §2).
//! This crate provides that representation ([`Torus32`]), the negacyclic
//! polynomial rings `T_N[X]` and `Z_N[X]` ([`TorusPolynomial`],
//! [`IntPolynomial`]), the gadget (signed digit) decomposition used by TGSW
//! external products ([`GadgetDecomposer`]), modulus switching used by the
//! bootstrapping rounding step, and the random sampling primitives of the
//! scheme.
//!
//! # Examples
//!
//! ```
//! use matcha_math::Torus32;
//!
//! let a = Torus32::from_f64(0.25);
//! let b = Torus32::from_f64(0.5);
//! // 0.25 + 0.5 = 0.75 ≡ -0.25 on the torus.
//! assert!(((a + b).to_f64() - (-0.25)).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod decomp;
pub mod modswitch;
pub mod poly;
pub mod sampling;
pub mod stats;
pub mod torus;

pub use decomp::GadgetDecomposer;
pub use modswitch::{mod_switch_from_torus, mod_switch_to_torus};
pub use poly::{IntPolynomial, TorusPolynomial};
pub use sampling::TorusSampler;
pub use torus::Torus32;
