//! [`Counting`]: an engine that runs another and tallies its work.
//!
//! Wrapping the engine a server key or a bootstrapping kit is built over is
//! how the workspace measures the transform work of a gate: the gate path
//! itself carries no counters and no timers. Tallies are relaxed atomics
//! that only ever grow; a caller reads [`Counting::counts`] before and after
//! the work it wants and subtracts the two.

use crate::engine::{FftEngine, KeyBlock};
use crate::simd::Leg;
use matcha_math::{GadgetDecomposer, IntPolynomial, TorusPolynomial};
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The work a [`Counting`] engine has forwarded since it was built.
///
/// Naming follows the engine: **forward** is coefficient → Lagrange (TFHE's
/// and the paper's "IFFT"), **backward** is Lagrange → coefficient ("FFT").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Forward transforms: `forward_{int,torus,decomposed}_into` calls.
    pub forward: u64,
    /// Backward transforms: `backward_torus_into` calls.
    pub backward: u64,
    /// Rows of pointwise multiply-accumulate: `R` per `mul_accumulate`,
    /// and one per bundle row a `bundle_product_into` multiplies.
    pub mac_rows: u64,
    /// Bundle rows: `bundle_row_into` calls, and the `h.len()` rows of
    /// every `bundle_product_into`.
    pub bundle_rows: u64,
    /// Nanoseconds spent in forward transforms.
    pub forward_ns: u64,
    /// Nanoseconds spent in backward transforms.
    pub backward_ns: u64,
    /// Nanoseconds spent building bundles: `monomial_factors_into`,
    /// `bundle_row_into`, and `bundle_product_into` with the products it
    /// makes of them.
    pub bundle_ns: u64,
}

impl Sub for Counts {
    type Output = Counts;

    /// The work done between two snapshots, `later - earlier`.
    fn sub(self, earlier: Counts) -> Counts {
        Counts {
            forward: self.forward - earlier.forward,
            backward: self.backward - earlier.backward,
            mac_rows: self.mac_rows - earlier.mac_rows,
            bundle_rows: self.bundle_rows - earlier.bundle_rows,
            forward_ns: self.forward_ns - earlier.forward_ns,
            backward_ns: self.backward_ns - earlier.backward_ns,
            bundle_ns: self.bundle_ns - earlier.bundle_ns,
        }
    }
}

/// An [`FftEngine`] that forwards every method to `E` — its results are
/// `E`'s, bit for bit — and tallies the calls and the time it forwards
/// ([`Counts`]). Shared across threads, it sums what every thread ran.
///
/// # Examples
///
/// ```
/// use matcha_fft::{Counting, F64Fft, FftEngine};
/// use matcha_math::{IntPolynomial, TorusPolynomial};
///
/// let engine = Counting::new(F64Fft::new(16));
/// let before = engine.counts();
/// engine.poly_mul(&TorusPolynomial::zero(16), &IntPolynomial::zero(16));
/// let work = engine.counts() - before;
/// assert_eq!((work.forward, work.mac_rows, work.backward), (2, 1, 1));
/// ```
#[derive(Debug)]
pub struct Counting<E> {
    engine: E,
    tally: Tallies,
}

/// The live form of [`Counts`], one statistic per field.
#[derive(Debug, Default)]
struct Tallies {
    forward: AtomicU64,
    backward: AtomicU64,
    mac_rows: AtomicU64,
    bundle_rows: AtomicU64,
    forward_ns: AtomicU64,
    backward_ns: AtomicU64,
    bundle_ns: AtomicU64,
}

impl<E> Counting<E> {
    /// Wraps `engine` with every tally at zero.
    pub fn new(engine: E) -> Self {
        Self {
            engine,
            tally: Tallies::default(),
        }
    }

    /// The tallies so far.
    pub fn counts(&self) -> Counts {
        let t = &self.tally;
        let read = |tally: &AtomicU64| tally.load(Relaxed);
        Counts {
            forward: read(&t.forward),
            backward: read(&t.backward),
            mac_rows: read(&t.mac_rows),
            bundle_rows: read(&t.bundle_rows),
            forward_ns: read(&t.forward_ns),
            backward_ns: read(&t.backward_ns),
            bundle_ns: read(&t.bundle_ns),
        }
    }
}

/// Runs `f`, adding its wall time to `ns`.
fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
    out
}

impl<E: FftEngine> FftEngine for Counting<E> {
    type Spectrum = E::Spectrum;
    type MonomialFactors = E::MonomialFactors;
    type Scratch = E::Scratch;

    fn ring_degree(&self) -> usize {
        self.engine.ring_degree()
    }

    fn leg(&self) -> Leg {
        self.engine.leg()
    }

    fn zero_spectrum(&self) -> E::Spectrum {
        self.engine.zero_spectrum()
    }

    fn clear_spectrum(&self, s: &mut E::Spectrum) {
        self.engine.clear_spectrum(s)
    }

    fn make_scratch(&self) -> E::Scratch {
        self.engine.make_scratch()
    }

    fn forward_int_into(&self, p: &IntPolynomial, out: &mut E::Spectrum, scratch: &mut E::Scratch) {
        self.tally.forward.fetch_add(1, Relaxed);
        timed(&self.tally.forward_ns, || {
            self.engine.forward_int_into(p, out, scratch)
        })
    }

    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut E::Spectrum,
        scratch: &mut E::Scratch,
    ) {
        self.tally.forward.fetch_add(1, Relaxed);
        timed(&self.tally.forward_ns, || {
            self.engine.forward_torus_into(p, out, scratch)
        })
    }

    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &GadgetDecomposer,
        level: usize,
        out: &mut E::Spectrum,
        scratch: &mut E::Scratch,
    ) {
        self.tally.forward.fetch_add(1, Relaxed);
        timed(&self.tally.forward_ns, || {
            self.engine
                .forward_decomposed_into(p, decomp, level, out, scratch)
        })
    }

    fn backward_torus_into(
        &self,
        s: &E::Spectrum,
        out: &mut TorusPolynomial,
        scratch: &mut E::Scratch,
    ) {
        self.tally.backward.fetch_add(1, Relaxed);
        timed(&self.tally.backward_ns, || {
            self.engine.backward_torus_into(s, out, scratch)
        })
    }

    fn mul_accumulate<const R: usize>(
        &self,
        accs: [&mut E::Spectrum; R],
        x: &E::Spectrum,
        rows: [&E::Spectrum; R],
    ) {
        self.tally.mac_rows.fetch_add(R as u64, Relaxed);
        self.engine.mul_accumulate(accs, x, rows)
    }

    fn monomial_factors_into(
        &self,
        exponents: impl Iterator<Item = i64>,
        key_exp: u32,
        out: &mut E::MonomialFactors,
    ) {
        timed(&self.tally.bundle_ns, || {
            self.engine.monomial_factors_into(exponents, key_exp, out)
        })
    }

    fn store_key_row(
        &self,
        a: &E::Spectrum,
        b: &E::Spectrum,
        key: &E::Spectrum,
        exp: u32,
        slot: usize,
        row: &mut [i32],
    ) {
        self.engine.store_key_row(a, b, key, exp, slot, row)
    }

    fn bundle_row_into(
        &self,
        h: &E::Spectrum,
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &E::MonomialFactors,
        out: &mut E::Spectrum,
    ) {
        self.tally.bundle_rows.fetch_add(1, Relaxed);
        timed(&self.tally.bundle_ns, || {
            self.engine.bundle_row_into(h, key, slots, factors, out)
        })
    }

    fn bundle_product_into(
        &self,
        h: &[E::Spectrum],
        key: KeyBlock<'_>,
        slots: &[u8],
        factors: &E::MonomialFactors,
        digits: &[E::Spectrum],
        accs: [&mut E::Spectrum; 2],
        scratch: &mut E::Scratch,
    ) {
        let rows = h.len() as u64;
        self.tally.bundle_rows.fetch_add(rows, Relaxed);
        self.tally.mac_rows.fetch_add(rows, Relaxed);
        timed(&self.tally.bundle_ns, || {
            self.engine
                .bundle_product_into(h, key, slots, factors, digits, accs, scratch)
        })
    }
}
