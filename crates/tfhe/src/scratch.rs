//! Reusable workspaces for the zero-allocation bootstrap hot path.
//!
//! A bootstrap touches one key switch, `~2ℓ·⌈n/m⌉` transforms and one
//! bundle build per key group. These scratch types own every spectrum,
//! accumulator and FFT buffer those need: construct once (per worker
//! thread), warm up with one call, and every subsequent bootstrap performs
//! zero heap allocations — the software counterpart of MATCHA's statically
//! provisioned on-chip buffers. The allocating conveniences
//! (`ServerKey::apply`, `BootstrapKit::bootstrap`, …) run the same code
//! through a scratch built for the one call.
//!
//! [`EpScratch`] covers a bare external product; [`BootstrapScratch`] adds
//! the key-switch buffers, blind-rotation lanes and bundle buffers needed
//! by a full gate bootstrap — or by a wave of them: a bootstrap is a slice
//! operation over lanes, and the one bundle buffer, factor table and
//! [`EpScratch`] are shared by every lane. Both are created from
//! [`BootstrapKit::make_scratch`](crate::bootstrap::BootstrapKit::make_scratch)
//! or their `new` constructors.

use crate::params::ParameterSet;
use crate::tgsw::TgswSpectrum;
use crate::tlwe::TrlweCiphertext;
use crate::LweCiphertext;
use matcha_fft::FftEngine;
use matcha_math::{Torus32, TorusPolynomial};

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
        Self::for_engine(engine)
    }

    /// Builds a workspace sized for `engine`'s ring degree.
    pub(crate) fn for_engine(engine: &E) -> Self {
        Self {
            engine: engine.make_scratch(),
            fd: engine.zero_spectrum(),
            acc_a: engine.zero_spectrum(),
            acc_b: engine.zero_spectrum(),
        }
    }
}

/// The most blind rotations one pass over the bootstrapping key carries.
///
/// Sixteen is the widest wave the batching gain was measured at: a key
/// group, the bundle and 16 × 8 KB accumulators are
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
/// extraction), one at a time or a wave at once, including the per-group
/// bundle buffers.
#[derive(Debug)]
pub struct BootstrapScratch<E: FftEngine> {
    /// External-product workspace.
    pub(crate) ep: EpScratch<E>,
    /// Reusable bundle (initialized to the gadget TGSW's shape).
    pub(crate) bundle: TgswSpectrum<E>,
    /// Factor tables `ε_k^e − 1` of the current key group's patterns,
    /// concatenated; refilled once per blind-rotation step.
    pub(crate) factors: E::MonomialFactors,
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
    /// Builds a workspace for `params`, seeding the bundle buffer with a
    /// correctly-shaped TGSW (`bundle_seed`, typically the gadget `H` in
    /// spectral form).
    pub(crate) fn with_bundle(
        engine: &E,
        params: &ParameterSet,
        bundle_seed: TgswSpectrum<E>,
    ) -> Self {
        let n = params.ring_degree;
        let mut scratch = Self {
            ep: EpScratch::new(engine, params),
            bundle: bundle_seed,
            factors: E::MonomialFactors::default(),
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
