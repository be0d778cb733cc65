//! Which kernel leg runs: CPU detection, `MATCHA_SIMD` and the test override.

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel leg, narrowest first: each vector leg needs the CPU features of
/// the one before it and adds its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Leg {
    /// Scalar loops: the definition every vector leg reproduces. Runs on
    /// every CPU.
    Scalar,
    /// AVX2 + FMA on four 64-bit lanes: every kernel.
    Avx2,
    /// AVX-512F on eight lanes for the integer engine: its butterfly stages
    /// (all but the multiply-free `len = 2`), twist, untwist, pointwise
    /// products and bundle row. The double-precision kernels and the
    /// buffer movers run as on [`Leg::Avx2`].
    Avx512,
}

impl Leg {
    /// Every leg, narrowest first.
    pub const ALL: [Leg; 3] = [Leg::Scalar, Leg::Avx2, Leg::Avx512];

    /// The widest leg this CPU runs (cached by the standard library's
    /// detection: a handful of atomic loads).
    fn widest() -> Leg {
        #[cfg(target_arch = "x86_64")]
        if simd_detected() {
            return if is_x86_feature_detected!("avx512f") {
                Leg::Avx512
            } else {
                Leg::Avx2
            };
        }
        Leg::Scalar
    }

    /// `0` is kept for "not set" in the atomics below.
    fn code(self) -> u8 {
        self as u8 + 1
    }

    fn from_code(code: u8) -> Option<Leg> {
        Leg::ALL.get(usize::from(code).checked_sub(1)?).copied()
    }
}

/// Explicit override: `0` = auto, otherwise [`Leg::code`] of the pinned leg
/// (already narrowed to what the CPU runs).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Cached auto decision (detection ∧ environment): `0` = unknown,
/// otherwise [`Leg::code`].
static AUTO: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU supports the AVX2+FMA kernels.
///
/// Always `false` off x86_64. Detection is cached by the standard library,
/// so this is a handful of atomic loads.
#[inline]
pub fn simd_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `MATCHA_SIMD=0` (or `off`) disables the vector legs for the whole
/// process; anything else — including unset — leaves the widest detected
/// leg on.
fn env_allows_simd() -> bool {
    !matches!(
        std::env::var("MATCHA_SIMD").as_deref(),
        Ok("0") | Ok("off") | Ok("OFF")
    )
}

fn auto_leg() -> Leg {
    Leg::from_code(AUTO.load(Ordering::Relaxed)).unwrap_or_else(|| {
        let leg = if env_allows_simd() {
            Leg::widest()
        } else {
            Leg::Scalar
        };
        AUTO.store(leg.code(), Ordering::Relaxed);
        leg
    })
}

/// The leg the kernels take right now: the widest the CPU runs, unless
/// `MATCHA_SIMD` says `0` (scalar) or a [`force_simd`] override pins a
/// narrower one. The first call caches the environment lookup; warmed calls
/// are two relaxed atomic loads and never allocate.
#[inline]
pub fn active_leg() -> Leg {
    Leg::from_code(OVERRIDE.load(Ordering::Relaxed)).unwrap_or_else(auto_leg)
}

/// Whether the kernels will take a vector leg right now
/// (`active_leg() != Leg::Scalar`).
#[inline]
pub fn simd_active() -> bool {
    active_leg() != Leg::Scalar
}

/// Process-global override used by the equivalence tests to pin one leg:
/// `Some(leg)` pins `leg`, narrowed to the widest leg the CPU runs (the
/// kernels never execute unsupported instructions, so pinning
/// [`Leg::Avx512`] on a CPU without AVX-512F runs [`Leg::Avx2`], and
/// either vector leg on a CPU without AVX2+FMA runs [`Leg::Scalar`]);
/// `None` restores auto selection.
///
/// Affects every engine in the process; callers that toggle it from tests
/// must serialize themselves around it.
pub fn force_simd(mode: Option<Leg>) {
    let code = mode.map_or(0, |leg| leg.min(Leg::widest()).code());
    OVERRIDE.store(code, Ordering::Relaxed);
}
