//! Kernel legs: what the CPU runs, what `MATCHA_SIMD` allows, and the
//! narrowing that keeps every kernel call on a leg the CPU has.

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

    /// The leg [`crate::F64Fft::new`] and [`crate::ApproxIntFft::new`]
    /// build with: the widest this CPU runs, or [`Leg::Scalar`] where
    /// `MATCHA_SIMD` is `0` (or `off`). Reads the environment on every
    /// call; an engine reads it once, when it is built.
    pub fn host() -> Leg {
        let scalar = matches!(
            std::env::var("MATCHA_SIMD").as_deref(),
            Ok("0") | Ok("off") | Ok("OFF")
        );
        if scalar {
            Leg::Scalar
        } else {
            Leg::Avx512.narrowed()
        }
    }

    /// `self`, or the widest leg this CPU runs where that is narrower: a
    /// leg the CPU lacks gives way to the widest one it has. Detection is
    /// cached by the standard library, so this is a handful of atomic
    /// loads.
    #[inline]
    pub fn narrowed(self) -> Leg {
        #[cfg(target_arch = "x86_64")]
        if simd_detected() {
            return if is_x86_feature_detected!("avx512f") {
                self
            } else {
                self.min(Leg::Avx2)
            };
        }
        Leg::Scalar
    }
}

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
