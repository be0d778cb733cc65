//! Reusable workspaces for the zero-allocation bootstrap hot path.
//!
//! A bootstrap touches one key switch, `~2ℓ·⌈n/m⌉` transforms and one
//! bundle product per key group. These scratch types own every spectrum,
//! accumulator and FFT buffer those need: construct once (per worker
//! thread), warm up with one call, and every subsequent bootstrap performs
//! zero heap allocations — the software counterpart of MATCHA's statically
//! provisioned on-chip buffers. The allocating conveniences
//! (`ServerKey::apply`, `BootstrapKit::bootstrap`, …) run the same code
//! through a scratch built for the one call.
//!
//! [`EpScratch`] covers an external product or a blind-rotation step;
//! [`BootstrapScratch`] adds the key-switch buffers and blind-rotation
//! lanes needed by a full gate bootstrap — or by a wave of them: a
//! bootstrap is a slice operation over lanes, and the one [`EpScratch`] is
//! shared by every lane. No scratch holds a bundle: blind rotation streams
//! each bundle into its product
//! ([`UnrolledBootstrappingKey::bundle_product_assign`]). Both are created
//! from
//! [`BootstrapKit::make_scratch`](crate::bootstrap::BootstrapKit::make_scratch)
//! or their `new` constructors.

#[cfg(doc)]
use crate::bku::UnrolledBootstrappingKey;
use crate::params::ParameterSet;
use crate::tlwe::TrlweCiphertext;
use crate::LweCiphertext;
use matcha_fft::FftEngine;
use matcha_math::{Torus32, TorusPolynomial};

/// Workspace for one in-place external product or blind-rotation step:
/// the digit spectra, the two spectral accumulators, the bundle factor
/// tables and the engine scratch.
///
/// Digit polynomials are extracted inside the forward transforms and
/// never materialized; their spectra are: an external product reuses the
/// first for every digit, a blind-rotation step holds all `2ℓ` for its
/// one pass over the key group.
#[derive(Debug)]
pub struct EpScratch<E: FftEngine> {
    /// Engine-level FFT workspace.
    pub(crate) engine: E::Scratch,
    /// Digit spectra, mask levels first (`2ℓ`).
    pub(crate) digits: Vec<E::Spectrum>,
    /// Mask-row spectral accumulator.
    pub(crate) acc_a: E::Spectrum,
    /// Body-row spectral accumulator.
    pub(crate) acc_b: E::Spectrum,
    /// Factor tables `ε_k^e − 1` of the current key group's patterns,
    /// concatenated; refilled once per blind-rotation step.
    pub(crate) factors: E::MonomialFactors,
}

impl<E: FftEngine> EpScratch<E> {
    /// Builds a workspace sized for `params` (ring degree, `2ℓ` digits).
    pub fn new(engine: &E, params: &ParameterSet) -> Self {
        Self::with_levels(engine, params.decomp_levels)
    }

    /// Builds a workspace for `engine`'s ring degree and `levels` digit
    /// levels.
    pub(crate) fn with_levels(engine: &E, levels: usize) -> Self {
        Self {
            engine: engine.make_scratch(),
            digits: (0..2 * levels).map(|_| engine.zero_spectrum()).collect(),
            acc_a: engine.zero_spectrum(),
            acc_b: engine.zero_spectrum(),
            factors: E::MonomialFactors::default(),
        }
    }
}

/// The most blind rotations one pass over the bootstrapping key carries.
///
/// Sixteen is the widest wave the batching gain was measured at: a key
/// group, the digit spectra and 16 × 8 KB accumulators are
/// ≈ 0.55 MB on the f64 engine at `m = 2` and ≈ 1 MB on the integer engine
/// at `m = 3`, inside L2, so every lane after the first finds the group's
/// key cache-resident. Callers with more work cut it into passes.
pub const MAX_LANES: usize = 16;

/// One blind rotation in flight: what a bootstrap owns alone while it
/// shares the key walk with the other lanes of its wave.
#[derive(Debug)]
pub(crate) struct Lane {
    /// Blind-rotation accumulator.
    pub(crate) acc: TrlweCiphertext,
    /// The input's mask, mod-switched to `Z_{2N}`: the bundle exponents of
    /// every key group, in secret-bit order.
    pub(crate) exponents: Vec<u32>,
}

/// Workspace for gate bootstraps (key switch + blind rotation + sample
/// extraction), one at a time or a wave at once.
#[derive(Debug)]
pub struct BootstrapScratch<E: FftEngine> {
    /// Blind-rotation step workspace, shared by the lanes.
    pub(crate) ep: EpScratch<E>,
    /// The blind rotations in flight. Lane 0 is built with the scratch;
    /// the others on first use, so a one-gate caller holds one.
    pub(crate) lanes: Vec<Lane>,
    /// Test-vector buffer (set by the caller before blind rotation).
    pub(crate) testv: TorusPolynomial,
    /// Each lane's linear part under the extracted key (dimension `N`):
    /// the input of the wave's key switch, and still there after the
    /// rotation for an adder cell's sum. Grown like `lanes`.
    pub(crate) lin: Vec<LweCiphertext>,
    /// Each lane's linear part key-switched to dimension `n`: what its
    /// blind rotation reads. Grown like `lanes`.
    pub(crate) switched: Vec<LweCiphertext>,
    /// Extraction buffer (dimension `N`) for what an output adds to its
    /// coefficient 0: a mux's second lane, a cell's coefficients 1 and 2.
    pub(crate) spare: LweCiphertext,
}

impl<E: FftEngine> BootstrapScratch<E> {
    /// Builds a workspace for `params`.
    pub(crate) fn new(engine: &E, params: &ParameterSet) -> Self {
        let n = params.ring_degree;
        let mut scratch = Self {
            ep: EpScratch::new(engine, params),
            lanes: Vec::new(),
            testv: TorusPolynomial::zero(n),
            lin: Vec::new(),
            switched: Vec::new(),
            spare: LweCiphertext::trivial(Torus32::ZERO, n),
        };
        scratch.reserve_lanes(1);
        scratch
    }

    /// Makes sure lanes `0..count` (and their linear-part and switched
    /// buffers) exist. Allocates only the first time a caller asks for
    /// that many.
    pub(crate) fn reserve_lanes(&mut self, count: usize) {
        let n = self.testv.len();
        while self.lanes.len() < count {
            self.lanes.push(Lane {
                acc: TrlweCiphertext::zero(n),
                exponents: Vec::new(),
            });
            self.lin.push(LweCiphertext::trivial(Torus32::ZERO, n));
            self.switched.push(LweCiphertext::default());
        }
    }

    /// The test-vector buffer, to be filled before a raw
    /// [`blind_rotate_assign`](crate::bootstrap::BootstrapKit::blind_rotate_assign)
    /// call.
    pub fn test_vector_mut(&mut self) -> &mut TorusPolynomial {
        &mut self.testv
    }

    /// The blind-rotation accumulator holding the last rotation result
    /// (lane 0's).
    pub fn accumulator(&self) -> &TrlweCiphertext {
        &self.lanes[0].acc
    }
}
