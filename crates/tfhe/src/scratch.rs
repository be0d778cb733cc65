//! Reusable workspaces for the zero-allocation bootstrap hot path.
//!
//! A bootstrap touches `~2ℓ·⌈n/m⌉` transforms, one bundle build per key
//! group and one key switch; the seed implementation allocated every
//! spectrum, digit vector and FFT buffer on each of them. These scratch
//! types own all of that memory instead: construct once (per worker
//! thread), warm up with one call, and every subsequent bootstrap performs
//! zero heap allocations — the software counterpart of MATCHA's statically
//! provisioned on-chip buffers.
//!
//! [`EpScratch`] covers a bare external product; [`BootstrapScratch`] adds
//! the blind-rotation accumulator, bundle buffers and key-switch buffers
//! needed by a full gate bootstrap. Both are created from
//! [`BootstrapKit::make_scratch`](crate::bootstrap::BootstrapKit::make_scratch)
//! or their `new` constructors.

use crate::params::ParameterSet;
use crate::tgsw::TgswSpectrum;
use crate::tlwe::TrlweCiphertext;
use crate::LweCiphertext;
use matcha_fft::FftEngine;
use matcha_math::TorusPolynomial;

/// Workspace for one in-place external product: the digit spectrum, the
/// two spectral accumulators and the engine scratch.
///
/// Since the fused decompose→twist path, digit polynomials are extracted
/// inside the forward transforms and never materialized, so the workspace
/// no longer carries `2ℓ` digit-polynomial buffers.
#[derive(Debug)]
pub struct EpScratch<E: FftEngine> {
    /// Engine-level FFT workspace.
    pub(crate) engine: E::Scratch,
    /// Spectrum of the digit level currently being accumulated.
    pub(crate) fd: E::Spectrum,
    /// Mask-row spectral accumulator.
    pub(crate) acc_a: E::Spectrum,
    /// Body-row spectral accumulator.
    pub(crate) acc_b: E::Spectrum,
}

impl<E: FftEngine> EpScratch<E> {
    /// Builds a workspace sized for `params` (ring degree).
    pub fn new(engine: &E, _params: &ParameterSet) -> Self {
        Self {
            engine: engine.make_scratch(),
            fd: engine.zero_spectrum(),
            acc_a: engine.zero_spectrum(),
            acc_b: engine.zero_spectrum(),
        }
    }
}

/// Workspace for a full gate bootstrap (blind rotation + sample extraction
/// + key switch), including the per-group bundle buffers.
#[derive(Debug)]
pub struct BootstrapScratch<E: FftEngine> {
    /// External-product workspace.
    pub(crate) ep: EpScratch<E>,
    /// Reusable bundle (initialized to the gadget TGSW's shape).
    pub(crate) bundle: TgswSpectrum<E>,
    /// Factor tables `ε_k^e − 1` of the current key group's patterns,
    /// concatenated; refilled once per blind-rotation step.
    pub(crate) factors: E::MonomialFactors,
    /// Blind-rotation accumulator.
    pub(crate) acc: TrlweCiphertext,
    /// CMux difference buffer.
    pub(crate) diff: TrlweCiphertext,
    /// Test-vector buffer (set by the caller before blind rotation).
    pub(crate) testv: TorusPolynomial,
    /// Mod-switched exponents of the current key group.
    pub(crate) exponents: Vec<u32>,
    /// Sample-extraction output (dimension `N`).
    pub(crate) extracted: LweCiphertext,
    /// Second extraction buffer: [`ServerKey::mux_into`]
    /// (crate::gates::ServerKey::mux_into) holds both of its bootstrap
    /// outputs live at once.
    pub(crate) extracted2: LweCiphertext,
    /// Gate linear-part buffer (dimension `n`).
    pub(crate) lin: LweCiphertext,
}

impl<E: FftEngine> BootstrapScratch<E> {
    /// Builds a workspace for `params`, seeding the bundle buffer with a
    /// correctly-shaped TGSW (`bundle_seed`, typically the gadget `H` in
    /// spectral form).
    pub(crate) fn with_bundle(
        engine: &E,
        params: &ParameterSet,
        bundle_seed: TgswSpectrum<E>,
    ) -> Self {
        let n = params.ring_degree;
        Self {
            ep: EpScratch::new(engine, params),
            bundle: bundle_seed,
            factors: E::MonomialFactors::default(),
            acc: TrlweCiphertext::zero(n),
            diff: TrlweCiphertext::zero(n),
            testv: TorusPolynomial::zero(n),
            exponents: Vec::with_capacity(8),
            extracted: LweCiphertext::trivial(matcha_math::Torus32::ZERO, n),
            extracted2: LweCiphertext::trivial(matcha_math::Torus32::ZERO, n),
            lin: LweCiphertext::trivial(matcha_math::Torus32::ZERO, params.lwe_dimension),
        }
    }

    /// The test-vector buffer, to be filled before a raw
    /// [`blind_rotate_assign`](crate::bootstrap::BootstrapKit::blind_rotate_assign)
    /// call.
    pub fn test_vector_mut(&mut self) -> &mut TorusPolynomial {
        &mut self.testv
    }

    /// The blind-rotation accumulator holding the last rotation result.
    pub fn accumulator(&self) -> &TrlweCiphertext {
        &self.acc
    }

    /// The external-product workspace (for composing custom pipelines).
    pub fn ep_mut(&mut self) -> &mut EpScratch<E> {
        &mut self.ep
    }
}
