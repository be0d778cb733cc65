//! Random sampling for TFHE: uniform torus elements, binary secrets, and
//! Gaussian noise on the torus.
//!
//! # Gaussian noise
//!
//! Noise is the Box–Muller transform with both outputs used: two uniform
//! 64-bit words give a radius `r = √(−2·ln u)`, `u ∈ (0, 1]` from 52 bits
//! of the first word, and an angle `θ`, and `r·cos θ` and `r·sin θ` are two
//! independent standard normals. A scalar draw returns the first and keeps
//! the second as a one-value spare for the next draw;
//! [`TorusSampler::gaussian_poly`] fills a polynomial a fixed block of
//! pairs at a time. Every sample comes from this exact construction — no
//! sum of uniforms, no table — and there is no rejection loop, so a pair
//! takes two words from any generator and always terminates. The radius
//! is at most `√(104·ln 2) ≈ 8.5` standard deviations.
//!
//! The angle is a quarter turn plus a quadrant: `θ = y + q·π/2`, with `y`
//! uniform on `[−π/4, π/4)` (52 low bits of the second word) and `q` the
//! word's top two bits, so `(cos θ, sin θ)` is `(cos y, sin y)` with its
//! parts swapped and negated as `q` says. The transcendental functions are
//! fixed polynomials:
//!
//! - `ln u`: `u = 2^e·m` with `m ∈ [√2/2, √2]` read off the float's bits,
//!   `ln m = 2·atanh(s)` with `s = (m − 1)/(m + 1)`, `|s| ≤ 0.172`, summed
//!   through `s^19` (truncation `< 10⁻¹⁷`), plus `e·ln 2` in two parts so
//!   that the large one is exact;
//! - `cos y` and `sin y` on `|y| ≤ π/4`: their Taylor series through `y^16`
//!   and `y^15` (truncation `< 3·10⁻¹⁸` and `< 5·10⁻¹⁷`).
//!
//! With rounding, each is within `10⁻¹⁵` of `std`'s value (relative to
//! `|ln u|` where that exceeds 1); the tests check it over `10⁶` points.
//! None of it calls libm. The build targets no particular CPU, so `ln` and
//! `cos` — and `floor` and `round` — are library calls, one or more per
//! sample, while a polynomial is multiplies and adds and `sqrt` is one
//! instruction. The normal is rounded to the torus by
//! [`Torus32::from_f64`], exact and call-free as well.
//!
//! The ring noise is `7.18·10⁻⁹ ≈ 31` torus units, so the `2⁻³²` rounding
//! is a visible part of its distribution: a sample is the normal rounded to
//! the nearest unit, and that rounded pmf is what the tests compare with.

use crate::poly::TorusPolynomial;
use crate::torus::Torus32;
use rand::Rng;
use std::f64::consts::{FRAC_PI_2, SQRT_2};

/// Box–Muller pairs [`TorusSampler::gaussian_poly`] computes at a time.
const BLOCK_PAIRS: usize = 32;

/// The exponent bits of `1.0`: or-ed onto 52 random mantissa bits they
/// make a uniform float in `[1, 2)`.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
const MANTISSA: u64 = (1 << 52) - 1;

/// `ln 2` in two parts: `LN2_HI` has 21 trailing zero bits, so `e·LN2_HI`
/// is exact for every exponent `e` of an `f64`.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `atanh(s)/s − 1 = Σ_{k≥1} s^{2k}/(2k + 1)`, as a polynomial in `s²`
/// divided by `s²`: the coefficients `1/(2k + 1)`, `k = 1..=9`.
const ATANH: [f64; 9] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
];

/// `(sin y − y)/y³` as a polynomial in `y²`: `(−1)^k/(2k + 1)!`, `k = 1..=7`.
const SIN: [f64; 7] = [
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];

/// `(cos y − 1)/y²` as a polynomial in `y²`: `(−1)^k/(2k)!`, `k = 1..=8`.
const COS: [f64; 8] = [
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

/// `c[0] + c[1]·x + c[2]·x² + …`, by Horner's rule.
#[inline(always)]
fn horner(x: f64, c: &[f64]) -> f64 {
    let (&last, rest) = c.split_last().expect("a polynomial has a coefficient");
    rest.iter().rev().fold(last, |acc, &ci| acc * x + ci)
}

/// The float `bits52 · 2⁻⁵²`, in `[0, 1)`, from the low 52 bits of a word.
#[inline(always)]
fn unit_interval(bits52: u64) -> f64 {
    f64::from_bits(ONE_BITS | (bits52 & MANTISSA)) - 1.0
}

/// `ln u` for a normal `u ∈ (0, 1]` (module docs).
#[inline(always)]
fn ln(u: f64) -> f64 {
    let bits = u.to_bits();
    let m = f64::from_bits(ONE_BITS | (bits & MANTISSA));
    let mut e = ((bits >> 52) as i64 - 1023) as f64;
    // m ∈ [1, 2) → [√2/2, √2], where the series converges fastest.
    let high = m > SQRT_2;
    let m = if high { 0.5 * m } else { m };
    e += if high { 1.0 } else { 0.0 };
    // Exact by Sterbenz's lemma: m is within a factor 2 of 1.
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let ln_m = 2.0 * s + 2.0 * s * (z * horner(z, &ATANH));
    e * LN2_HI + (e * LN2_LO + ln_m)
}

/// `(cos y, sin y)` for `|y| ≤ π/4` (module docs).
#[inline(always)]
fn cos_sin(y: f64) -> (f64, f64) {
    let z = y * y;
    (1.0 + z * horner(z, &COS), y + y * z * horner(z, &SIN))
}

/// Two independent standard normals from two uniform words (module docs).
#[inline(always)]
fn normal_pair(radius_word: u64, angle_word: u64) -> (f64, f64) {
    // 1 − [0, 1) is (0, 1], exactly: the logarithm's argument is never 0.
    let r = (-2.0 * ln(1.0 - unit_interval(radius_word >> 12))).sqrt();
    let (c, s) = cos_sin((unit_interval(angle_word) - 0.5) * FRAC_PI_2);
    // Rotate (c, s) by q quarter turns: (c, s), (−s, c), (−c, −s), (s, −c).
    let q = angle_word >> 62;
    let (x, y) = if q & 1 == 1 { (s, c) } else { (c, s) };
    let x_sign = ((q ^ (q >> 1)) & 1) << 63;
    let y_sign = (q >> 1) << 63;
    (
        r * f64::from_bits(x.to_bits() ^ x_sign),
        r * f64::from_bits(y.to_bits() ^ y_sign),
    )
}

/// A sampler bundling the random distributions used by the scheme.
///
/// The sampler is generic over any [`rand::Rng`], so deterministic tests can
/// seed a `StdRng` while production uses an OS-backed generator. Besides
/// the generator it holds at most one standard normal, the unused half of
/// the last Box–Muller pair (module docs); a clone replays the same draws.
///
/// # Examples
///
/// ```
/// use matcha_math::TorusSampler;
/// use rand::SeedableRng;
///
/// let mut sampler = TorusSampler::new(rand::rngs::StdRng::seed_from_u64(7));
/// let key: Vec<bool> = sampler.binary_vector(16);
/// assert_eq!(key.len(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct TorusSampler<R: Rng> {
    rng: R,
    spare: Option<f64>,
}

impl<R: Rng> TorusSampler<R> {
    /// Wraps a random generator.
    pub fn new(rng: R) -> Self {
        Self { rng, spare: None }
    }

    /// A uniformly random torus element.
    #[inline]
    pub fn uniform(&mut self) -> Torus32 {
        Torus32::from_raw(self.rng.gen::<u32>())
    }

    /// A uniformly random torus polynomial of degree bound `n`.
    pub fn uniform_poly(&mut self, n: usize) -> TorusPolynomial {
        TorusPolynomial::from_coeffs((0..n).map(|_| self.uniform()).collect())
    }

    /// A uniformly random bit.
    #[inline]
    pub fn binary(&mut self) -> bool {
        self.rng.gen::<bool>()
    }

    /// A uniformly random binary vector (LWE secret key).
    pub fn binary_vector(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.binary()).collect()
    }

    /// A centered Gaussian real sample with standard deviation `stdev`:
    /// the spare if there is one, else the first of a fresh pair, whose
    /// second becomes the spare.
    fn gaussian_f64(&mut self, stdev: f64) -> f64 {
        let z = match self.spare.take() {
            Some(z) => z,
            None => {
                let radius_word = self.rng.next_u64();
                let (z, spare) = normal_pair(radius_word, self.rng.next_u64());
                self.spare = Some(spare);
                z
            }
        };
        stdev * z
    }

    /// A torus element sampled from the centered Gaussian of standard
    /// deviation `stdev` (reduced mod 1).
    #[inline]
    fn gaussian(&mut self, stdev: f64) -> Torus32 {
        Torus32::from_f64(self.gaussian_f64(stdev))
    }

    /// `mu + e` with `e ← N(0, stdev²)`: the noisy embedding used by every
    /// encryption in the scheme.
    #[inline]
    pub fn gaussian_around(&mut self, mu: Torus32, stdev: f64) -> Torus32 {
        mu + self.gaussian(stdev)
    }

    /// A torus polynomial with i.i.d. Gaussian coefficients: the same
    /// values, in the same order, as `n` scalar draws — the spare first if
    /// there is one, then whole pairs, computed a fixed block of 32 at a
    /// time from words drawn up front, and for an odd remainder one scalar
    /// draw.
    pub fn gaussian_poly(&mut self, n: usize, stdev: f64) -> TorusPolynomial {
        let mut coeffs = Vec::with_capacity(n);
        if n > 0 {
            if let Some(z) = self.spare.take() {
                coeffs.push(Torus32::from_f64(stdev * z));
            }
        }
        let (mut radius, mut angle) = ([0u64; BLOCK_PAIRS], [0u64; BLOCK_PAIRS]);
        let (mut first, mut second) = ([0.0f64; BLOCK_PAIRS], [0.0f64; BLOCK_PAIRS]);
        while n - coeffs.len() >= 2 {
            let pairs = ((n - coeffs.len()) / 2).min(BLOCK_PAIRS);
            for (r, a) in radius.iter_mut().zip(&mut angle).take(pairs) {
                *r = self.rng.next_u64();
                *a = self.rng.next_u64();
            }
            // The whole block, whatever `pairs` is: a fixed trip count the
            // compiler vectorizes (stale words past `pairs` go unused).
            let words = radius.iter().zip(&angle);
            for ((x, y), (&r, &a)) in first.iter_mut().zip(&mut second).zip(words) {
                (*x, *y) = normal_pair(r, a);
            }
            for (&x, &y) in first.iter().zip(&second).take(pairs) {
                coeffs.push(Torus32::from_f64(stdev * x));
                coeffs.push(Torus32::from_f64(stdev * y));
            }
        }
        if coeffs.len() < n {
            coeffs.push(self.gaussian(stdev));
        }
        TorusPolynomial::from_coeffs(coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sampler(seed: u64) -> TorusSampler<StdRng> {
        TorusSampler::new(StdRng::seed_from_u64(seed))
    }

    #[test]
    fn gaussian_moments() {
        let mut s = sampler(42);
        let stdev = 1e-3;
        let xs: Vec<f64> = (0..20_000).map(|_| s.gaussian_f64(stdev)).collect();
        let mean = stats::mean(&xs);
        let sd = stats::stdev(&xs);
        assert!(mean.abs() < 5e-5, "mean {mean} too far from 0");
        assert!(
            (sd - stdev).abs() / stdev < 0.05,
            "stdev {sd} vs expected {stdev}"
        );
    }

    /// Adversarial generator driving the uniform source to its extremes:
    /// alternating all-ones / all-zero words, so `gen::<f64>()` hits both
    /// its largest representable value and exactly `0.0`.
    struct ExtremeRng {
        flip: bool,
    }

    impl rand::RngCore for ExtremeRng {
        fn next_u64(&mut self) -> u64 {
            self.flip = !self.flip;
            if self.flip {
                u64::MAX
            } else {
                0
            }
        }
    }

    /// Regression: the Box–Muller draw must stay finite at the extreme ends
    /// of the uniform source — `u1` must never reach 0 (infinite radius) —
    /// and the resulting torus sample must not silently saturate.
    #[test]
    fn gaussian_is_finite_at_uniform_extremes() {
        let mut s = TorusSampler::new(ExtremeRng { flip: false });
        for i in 0..64 {
            let x = s.gaussian_f64(1e-5);
            assert!(x.is_finite(), "draw {i} produced non-finite sample {x}");
            assert!(x.abs() < 1.0, "draw {i}: |{x}| not a plausible noise");
        }
        // A long run through the real generator never produces a
        // non-finite sample either.
        let mut s = sampler(77);
        for _ in 0..100_000 {
            assert!(s.gaussian_f64(1e-7).is_finite());
        }
    }

    /// 10⁶ evenly spread points of `[lo, hi]`, both ends included.
    fn grid(lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        const POINTS: usize = 1_000_000;
        (0..POINTS).map(move |i| lo + (hi - lo) * i as f64 / (POINTS - 1) as f64)
    }

    #[test]
    fn ln_matches_std() {
        assert_eq!(LN2_HI.to_bits(), 0x3fe6_2e42_fee0_0000);
        assert_eq!(LN2_HI + LN2_LO, std::f64::consts::LN_2);
        // Every decade the radius word can reach, down to its 2⁻⁵² floor,
        // and the top of the interval, where `ln u → 0`.
        let points = grid(0.0, 52.0)
            .map(|e| 0.5f64.powf(e))
            .chain(grid(0.5, 1.0))
            .chain((0..64).map(|k| 1.0 - k as f64 * 2f64.powi(-52)));
        for u in points {
            let (got, want) = (ln(u), u.ln());
            let err = (got - want).abs() / want.abs().max(1.0);
            assert!(err <= 1e-15, "ln({u:e}) = {got:e}, std {want:e}");
        }
    }

    #[test]
    fn cos_sin_match_std() {
        let quarter = std::f64::consts::FRAC_PI_4;
        for y in grid(-quarter, quarter) {
            let (c, s) = cos_sin(y);
            assert!((c - y.cos()).abs() <= 1e-15, "cos({y:e}) = {c:e}");
            assert!((s - y.sin()).abs() <= 1e-15, "sin({y:e}) = {s:e}");
        }
    }

    /// Every quadrant is reached and each rotation keeps the pair on the
    /// circle of its radius.
    #[test]
    fn pairs_cover_the_four_quadrants() {
        let mut seen = [0; 4];
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..4000 {
            let (radius_word, angle_word) = (rng.next_u64(), rng.next_u64());
            let (x, y) = normal_pair(radius_word, angle_word);
            let u = 1.0 - unit_interval(radius_word >> 12);
            let r2 = -2.0 * u.ln();
            assert!((x * x + y * y - r2).abs() <= 1e-13 * r2.max(1.0));
            seen[usize::from(y < 0.0) * 2 + usize::from(x < 0.0)] += 1;
        }
        assert!(seen.iter().all(|&k| k > 850), "quadrant counts {seen:?}");
    }

    /// `P(X ∈ [a, b])` for a standard normal, by composite Simpson.
    fn normal_mass(a: f64, b: f64) -> f64 {
        const STEPS: usize = 256;
        let h = (b - a) / STEPS as f64;
        let phi = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 = (1..STEPS)
            .map(|i| phi(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (phi(a) + phi(b) + inner) * h / 3.0
    }

    /// χ² of 2²⁰ `gaussian_poly` coefficients against the normal of
    /// standard deviation `stdev` rounded to the nearest torus unit, in
    /// about 32 bins of whole units over `±4σ` plus the two tails.
    fn chi_square(seed: u64, stdev: f64) -> (f64, usize) {
        let sigma = stdev * 4_294_967_296.0; // in torus units
        let width = (sigma / 4.0).round().max(1.0) as i64;
        let reach = (4.0 * sigma / width as f64).ceil() as i64;
        // Bin b ∈ 0..2·reach holds units [(b − reach)·width, … + width).
        let bins = 2 * reach as usize;
        let mut counts = vec![0u64; bins + 2];
        let mut s = sampler(seed);
        for _ in 0..1024 {
            for c in s.gaussian_poly(1024, stdev).coeffs() {
                let k = c.raw() as i32 as i64;
                let b = (k.div_euclid(width) + reach).clamp(-1, bins as i64);
                counts[(b + 1) as usize] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        // A unit k holds the normals within half a unit of it.
        let edge = |b: i64| ((b - reach) * width) as f64 - 0.5;
        // The tails end at 12σ, past the largest radius a pair can draw.
        let expected: Vec<f64> = std::iter::once(-12.0 * sigma)
            .chain((0..=bins as i64).map(edge))
            .chain([12.0 * sigma])
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| normal_mass(w[0] / sigma, w[1] / sigma))
            .collect();
        let chi2 = counts
            .iter()
            .zip(&expected)
            .map(|(&o, &p)| {
                let e = p * total as f64;
                (o as f64 - e).powi(2) / e
            })
            .sum();
        (chi2, counts.len() - 1)
    }

    #[test]
    fn gaussian_poly_fits_the_rounded_normal() {
        // The ring noise (≈ 30.8 units: the rounding is visible) and the
        // LWE noise of the paper's parameters.
        for stdev in [7.18e-9, 2.44e-5] {
            let (chi2, dof) = chi_square(5, stdev);
            // Mean dof, standard deviation √(2·dof): six of them is far
            // beyond chance for this seed and any other.
            let bound = dof as f64 + 6.0 * (2.0 * dof as f64).sqrt();
            assert!(chi2 < bound, "σ = {stdev:e}: χ² = {chi2:.1}, {dof} dof");
        }
    }

    #[test]
    fn consecutive_outputs_are_uncorrelated() {
        // Both halves of a pair are adjacent coefficients, so lag-1 pairs
        // include every pair; their squares share the radius.
        let mut s = sampler(21);
        let xs: Vec<f64> = (0..1024)
            .flat_map(|_| s.gaussian_poly(1024, 1e-5).coeffs().to_vec())
            .map(|c| c.to_f64() / 1e-5)
            .collect();
        let corr = |f: &dyn Fn(f64) -> f64| {
            let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
            let mean = stats::mean(&ys);
            let var = stats::stdev(&ys).powi(2);
            let lag: f64 = ys.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
            lag / (ys.len() - 1) as f64 / var
        };
        // 2²⁰ samples: a correlation's standard error is 10⁻³.
        for (name, r) in [("x", corr(&|x| x)), ("x²", corr(&|x| x * x))] {
            assert!(r.abs() < 5e-3, "lag-1 correlation of {name}: {r:.2e}");
        }
    }

    #[test]
    fn a_clone_replays_the_same_draws() {
        let mut a = sampler(31);
        // One scalar draw leaves a spare behind.
        let _ = a.gaussian_around(Torus32::ZERO, 1e-6);
        let mut b = a.clone();
        for len in [4, 1, 64, 8, 2] {
            let _ = a.uniform();
            let _ = b.uniform();
            assert_eq!(a.gaussian_poly(len, 1e-6), b.gaussian_poly(len, 1e-6));
            assert_eq!(
                a.gaussian_around(Torus32::HALF, 1e-6),
                b.gaussian_around(Torus32::HALF, 1e-6)
            );
        }
    }

    #[test]
    fn a_polynomial_is_its_scalar_draws() {
        // With a spare pending and without: odd remainders both ways.
        for (len, spare) in [1, 2, 4, 64, 128]
            .into_iter()
            .flat_map(|n| [(n, 0), (n, 1)])
        {
            let mut poly = sampler(len as u64);
            let mut scalar = poly.clone();
            for _ in 0..spare {
                let _ = (poly.gaussian(1e-6), scalar.gaussian(1e-6));
            }
            let want: Vec<Torus32> = (0..len).map(|_| scalar.gaussian(1e-6)).collect();
            assert_eq!(poly.gaussian_poly(len, 1e-6).coeffs(), &want[..]);
            assert_eq!(poly.gaussian(1e-6), scalar.gaussian(1e-6));
        }
    }

    #[test]
    fn uniform_covers_both_halves() {
        let mut s = sampler(1);
        let (mut pos, mut neg) = (0, 0);
        for _ in 0..1000 {
            if s.uniform().to_f64() >= 0.0 {
                pos += 1;
            } else {
                neg += 1;
            }
        }
        assert!(pos > 350 && neg > 350, "uniform looks biased: {pos}/{neg}");
    }

    #[test]
    fn binary_vector_is_balanced() {
        let mut s = sampler(2);
        let v = s.binary_vector(2000);
        let ones = v.iter().filter(|&&b| b).count();
        assert!(ones > 800 && ones < 1200, "binary key biased: {ones}/2000");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = sampler(9);
        let mut b = sampler(9);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn gaussian_around_centers_on_mu() {
        let mut s = sampler(3);
        let mu = Torus32::from_f64(0.25);
        let diffs: Vec<f64> = (0..5000)
            .map(|_| s.gaussian_around(mu, 1e-5).signed_diff(mu))
            .collect();
        assert!(stats::mean(&diffs).abs() < 1e-6);
    }
}
