//! How narrow may the bootstrapping key be stored? Stored bits per word
//! against the noise the key then makes, at the paper's parameters — the
//! evidence behind the library's 32-bit key (`matcha::tfhe::bku`), in the
//! style of Figure 8's twiddle-width sweep.
//!
//! No library knob is involved: the sweep generates full-width key spectra
//! through `TgswCiphertext::encrypt_constant(..).to_spectrum(..)`, rounds
//! them itself, and blind-rotates with bundles it builds from the engines'
//! public primitives. For every width it rounds a key two ways —
//!
//! * **plain**: mask and body spectra each rounded as they stand;
//! * **phase-preserving**: the mask rounded first, the body recomputed for
//!   the mask *as stored* (`b + Δ·s`, `Δ` the mask's rounding error) and
//!   rounded then, which is what the library's key generation does —
//!
//! and reads two things: the phase error of the stored rows themselves
//! (σ in raw torus units, next to the key's own `ring_noise_stdev·2³²`),
//! and the ring-level noise of a whole blind rotation with that key. The
//! one-line reason for the difference: the phase `b − a·s` multiplies the
//! mask's rounding error by the ring key (`‖s‖ ≈ √(N/2)`), the body's by 1.
//!
//! A word of `b` stored bits counts in units of `2^{e+32−b}` torus units,
//! `e = key_exponent(N)`: 32 bits is the library's format.
//!
//! Exits non-zero if the phase-preserving 32-bit key's blind-rotation σ
//! exceeds the full-width key's by more than 2 % on either engine.
//!
//! Run with: `cargo run --release -p matcha-bench --bin key_width_sweep`

use matcha::fft::approx::FixedSpectrum;
use matcha::fft::{key_exponent, CplxSpectrum};
use matcha::math::{
    mod_switch_from_torus, stats, GadgetDecomposer, IntPolynomial, Torus32, TorusPolynomial,
    TorusSampler,
};
use matcha::tfhe::{EpScratch, TgswCiphertext, TgswSpectrum, TrlweCiphertext, TrlweSpectrum};
use matcha::{ApproxIntFft, ClientKey, F64Fft, FftEngine, ParameterSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TWO_32: f64 = 4294967296.0;

/// The two spectrum families, rounded by the sweep's own hand.
trait Width: FftEngine {
    /// Rounds every component of `s` to a multiple of `2^unit` torus units
    /// and returns what that added: rounded − original.
    fn round(s: &mut Self::Spectrum, unit: u32) -> Self::Spectrum;
    /// `body += delta ⊙ key`, `key` the ring secret's `forward_int`.
    fn carry(&self, body: &mut Self::Spectrum, delta: &Self::Spectrum, key: &Self::Spectrum);
}

impl Width for F64Fft {
    fn round(s: &mut CplxSpectrum, unit: u32) -> CplxSpectrum {
        let unit = f64::from(unit).exp2();
        let mut delta = s.clone();
        for (v, d) in (s.re.iter_mut().zip(&mut delta.re)).chain(s.im.iter_mut().zip(&mut delta.im))
        {
            let rounded = (*v / unit).round() * unit;
            *d = rounded - *v;
            *v = rounded;
        }
        delta
    }

    fn carry(&self, body: &mut CplxSpectrum, delta: &CplxSpectrum, key: &CplxSpectrum) {
        self.mul_accumulate([body], delta, [key]);
    }
}

impl Width for ApproxIntFft {
    fn round(s: &mut FixedSpectrum, unit: u32) -> FixedSpectrum {
        let shift = unit + s.frac_bits;
        let mut delta = s.clone();
        for (v, d) in (s.re.iter_mut().zip(&mut delta.re)).chain(s.im.iter_mut().zip(&mut delta.im))
        {
            let rounded = ((*v + (1 << (shift - 1))) >> shift) << shift;
            *d = rounded - *v;
            *v = rounded;
        }
        delta
    }

    fn carry(&self, body: &mut FixedSpectrum, delta: &FixedSpectrum, key: &FixedSpectrum) {
        // The product comes out in whole torus units; the body counts in
        // `2^-frac_bits` of one.
        let mut product = self.zero_spectrum();
        self.mul_accumulate([&mut product], delta, [key]);
        for (b, p) in
            (body.re.iter_mut().zip(&product.re)).chain(body.im.iter_mut().zip(&product.im))
        {
            *b += p << body.frac_bits;
        }
    }
}

/// How a key is rounded: to words of `2^unit` torus units, plainly or
/// preserving the rows' phase; `None` leaves it at full width.
#[derive(Clone, Copy)]
struct Stored {
    unit: Option<u32>,
    keep_phase: bool,
}

/// One full key: per group of `unroll` bits, the TGSW spectrum of every
/// nonempty pattern's indicator — the draws `UnrolledBootstrappingKey`
/// makes, each sample rounded as `stored` says before it is kept.
fn generate_key<E: Width>(
    client: &ClientKey,
    engine: &E,
    unroll: usize,
    stored: Stored,
    seed: u64,
) -> Vec<Vec<TgswSpectrum<E>>> {
    let params = client.params();
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(seed));
    let ring_spectrum = engine.forward_int(client.ring_key().as_poly());
    (client.lwe_key().bits().chunks(unroll))
        .map(|bits| {
            (1u32..(1 << bits.len()))
                .map(|pattern| {
                    let indicator =
                        (bits.iter().enumerate()).all(|(i, &s)| s == ((pattern >> i) & 1 == 1));
                    let sample = TgswCiphertext::encrypt_constant(
                        i32::from(indicator),
                        client.ring_key(),
                        params,
                        engine,
                        &mut sampler,
                    )
                    .to_spectrum(engine);
                    let Some(unit) = stored.unit else {
                        return sample;
                    };
                    let rows = (sample.rows().iter().cloned())
                        .map(|mut row| {
                            let delta = E::round(&mut row.a, unit);
                            if stored.keep_phase {
                                engine.carry(&mut row.b, &delta, &ring_spectrum);
                            }
                            E::round(&mut row.b, unit);
                            row
                        })
                        .collect();
                    TgswSpectrum::from_rows(rows, params.decomp_levels)
                })
                .collect()
        })
        .collect()
}

/// The phase `b − a·s` of a row, taken in the Lagrange domain as the
/// external product meets it.
fn phase<E: FftEngine>(engine: &E, row: &TrlweSpectrum<E>, key: &E::Spectrum) -> TorusPolynomial {
    let mut mask_times_key = engine.zero_spectrum();
    engine.mul_accumulate([&mut mask_times_key], &row.a, [key]);
    engine.backward_torus(&row.b) - &engine.backward_torus(&mask_times_key)
}

/// σ of the rows' phase error over the key's first groups, in raw torus
/// units: phase minus message, the message being the indicator times the
/// phase of the noiseless gadget's row.
fn row_error_sigma<E: FftEngine>(
    client: &ClientKey,
    engine: &E,
    unroll: usize,
    key: &[Vec<TgswSpectrum<E>>],
) -> f64 {
    let ring_spectrum = engine.forward_int(client.ring_key().as_poly());
    let gadget = TgswCiphertext::trivial_one(client.params()).to_spectrum(engine);
    let mut errors = Vec::new();
    for (group, bits) in key
        .iter()
        .zip(client.lwe_key().bits().chunks(unroll))
        .take(8)
    {
        for (pattern, sample) in (1u32..).zip(group) {
            let indicator = (bits.iter().enumerate()).all(|(i, &s)| s == ((pattern >> i) & 1 == 1));
            for (row, gadget_row) in sample.rows().iter().zip(gadget.rows()) {
                let mut error = phase(engine, row, &ring_spectrum);
                if indicator {
                    error -= &phase(engine, gadget_row, &ring_spectrum);
                }
                errors.extend(
                    error
                        .coeffs()
                        .iter()
                        .map(|c| c.signed_diff(Torus32::ZERO) * TWO_32),
                );
            }
        }
    }
    stats::stdev(&errors)
}

/// `X^e − 1` for `e` taken mod `2N`.
fn monomial_minus_one(e: u32, n: usize) -> IntPolynomial {
    let mut p = IntPolynomial::zero(n);
    let e = e as usize % (2 * n);
    p.coeffs_mut()[e % n] += if e < n { 1 } else { -1 };
    p.coeffs_mut()[0] -= 1;
    p
}

/// σ of the ring-level noise of `rotations` blind rotations with `key`, in
/// torus units: every coefficient of the rotated accumulator's phase
/// against `X^{b̄ − ⟨ā, s⟩}·testv`. The bundle of a group is
/// `H + Σ_p (X^{e_p} − 1)·K_p`, accumulated row by row from the engines'
/// pointwise products.
fn blind_rotation_sigma<E: FftEngine>(
    client: &ClientKey,
    engine: &E,
    unroll: usize,
    key: &[Vec<TgswSpectrum<E>>],
    rotations: usize,
    seed: u64,
) -> f64 {
    let params = client.params();
    let (n, two_n) = (params.ring_degree, params.two_n());
    let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
    let gadget = TgswCiphertext::trivial_one(params).to_spectrum(engine);
    let one = {
        let mut p = IntPolynomial::zero(n);
        p.coeffs_mut()[0] = 1;
        engine.forward_int(&p)
    };
    let mut ep = EpScratch::new(engine, params);
    let mut rng = StdRng::seed_from_u64(seed);
    let testv = TorusPolynomial::constant(-Torus32::from_dyadic(1, 3), n);
    let mut errors = Vec::with_capacity(rotations * n);
    for t in 0..rotations {
        let input = client.encrypt_with(t % 2 == 0, &mut rng);
        let b_bar = mod_switch_from_torus(input.body(), two_n);
        let a_bar: Vec<u32> = (input.mask().iter())
            .map(|&a| mod_switch_from_torus(a, two_n))
            .collect();
        let mut acc = TrlweCiphertext::trivial(testv.mul_by_monomial(i64::from(b_bar)));
        let mut rotation = i64::from(b_bar);
        for ((group, exponents), bits) in (key.iter())
            .zip(a_bar.chunks(unroll))
            .zip(client.lwe_key().bits().chunks(unroll))
        {
            // The terms of the bundle: `H` times 1, and every pattern key
            // whose exponent `−⟨ā, p⟩ mod 2N` is not 0 times `X^e − 1`.
            let mut terms = vec![(&gadget, one.clone())];
            for (pattern, pattern_key) in (1u32..).zip(group) {
                let sum: u32 = (exponents.iter().enumerate())
                    .filter(|(i, _)| (pattern >> i) & 1 == 1)
                    .map(|(_, &a)| a)
                    .sum();
                let e = (two_n - sum % two_n) % two_n;
                if e != 0 {
                    let factor = engine.forward_int(&monomial_minus_one(e, n));
                    terms.push((pattern_key, factor));
                }
            }
            let rows = (0..2 * params.decomp_levels)
                .map(|r| {
                    let mut row = TrlweSpectrum::<E> {
                        a: engine.zero_spectrum(),
                        b: engine.zero_spectrum(),
                    };
                    for (sample, factor) in &terms {
                        engine.mul_accumulate([&mut row.a], &sample.rows()[r].a, [factor]);
                        engine.mul_accumulate([&mut row.b], &sample.rows()[r].b, [factor]);
                    }
                    row
                })
                .collect();
            TgswSpectrum::from_rows(rows, params.decomp_levels)
                .external_product_assign(engine, &mut acc, &decomp, &mut ep);
            for (&a, &s) in exponents.iter().zip(bits) {
                rotation -= i64::from(a) * i64::from(s);
            }
        }
        let expected = testv.mul_by_monomial(rotation);
        let phase = acc.phase(client.ring_key(), engine);
        errors
            .extend((phase.coeffs().iter().zip(expected.coeffs())).map(|(p, e)| p.signed_diff(*e)));
    }
    stats::stdev(&errors)
}

/// The sweep on one engine; returns the blind-rotation σ of the
/// phase-preserving 32-bit key over the full-width key's.
fn sweep<E: Width>(name: &str, engine: E, unroll: usize, rotations: usize) -> f64 {
    let params = ParameterSet::MATCHA;
    let client = ClientKey::generate(params, &mut StdRng::seed_from_u64(21));
    let e = key_exponent(params.ring_degree);
    println!("\n## {name}, m = {unroll}: {rotations} blind rotations a key");
    println!(
        "key's own row noise: ring_noise_stdev·2³² = {:.1} raw units; 32-bit words count 2^{e}",
        params.ring_noise_stdev * TWO_32
    );
    println!(
        "{:<12} {:<17} {:>14} {:>16} {:>10}",
        "stored bits", "rounding", "row error σ", "ring noise σ", "variance"
    );
    let reading = |label: &str, rounding: &str, stored: Stored| {
        let key = generate_key(&client, &engine, unroll, stored, 22);
        let row = row_error_sigma(&client, &engine, unroll, &key);
        let ring = blind_rotation_sigma(&client, &engine, unroll, &key, rotations, 23);
        (label.to_string(), rounding.to_string(), row, ring)
    };
    let full = reading(
        "full",
        "—",
        Stored {
            unit: None,
            keep_phase: false,
        },
    );
    let mut rows = Vec::new();
    for bits in [24u32, 28, 32, 36] {
        for (rounding, keep_phase) in [("plain", false), ("phase-preserving", true)] {
            let stored = Stored {
                unit: Some(e + 32 - bits),
                keep_phase,
            };
            rows.push(reading(&bits.to_string(), rounding, stored));
        }
    }
    rows.push(full.clone());
    let mut kept = f64::NAN;
    for (label, rounding, row, ring) in rows {
        let variance = (ring / full.3).powi(2) - 1.0;
        println!(
            "{label:<12} {rounding:<17} {row:>14.2} {ring:>16.3e} {:>+9.1}%",
            variance * 100.0
        );
        if label == "32" && rounding == "phase-preserving" {
            kept = ring / full.3;
        }
    }
    kept
}

fn main() {
    println!("# Stored key width against noise, ParameterSet::MATCHA");
    println!("(variance: blind-rotation noise variance over the full-width key's, same draws)");
    let ratios = [
        sweep("F64Fft", F64Fft::new(1024), 2, 64),
        sweep("ApproxIntFft(38)", ApproxIntFft::new(1024, 38), 3, 32),
    ];
    println!("\nthe secret amplifies the mask's rounding error (‖s‖ ≈ √(N/2)), not the body's:");
    println!("recomputing the body for the stored mask leaves only the body's own rounding.");
    for ratio in ratios {
        if ratio.is_nan() || ratio > 1.02 {
            eprintln!(
                "phase-preserving 32-bit key: blind-rotation σ is {ratio:.4} of full width's"
            );
            std::process::exit(1);
        }
    }
}
