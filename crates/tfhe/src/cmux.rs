//! The CMux gate: homomorphic selection between two TRLWE ciphertexts
//! controlled by a TGSW-encrypted bit.
//!
//! `CMux(C, d0, d1) = d0 + C ⊡ (d1 − d0)` selects `d1` when `C` encrypts 1
//! and `d0` when it encrypts 0. Classic (`m = 1`) blind rotation is a chain
//! of CMuxes; MATCHA's bundle formulation generalizes it (see
//! [`crate::bku`]).

use crate::tgsw::TgswSpectrum;
use crate::tlwe::TrlweCiphertext;
use matcha_fft::FftEngine;
use matcha_math::GadgetDecomposer;

/// `d0 + C ⊡ (d1 − d0)`.
///
/// # Examples
///
/// See the module tests; CMux requires full key setup so a doctest would
/// just duplicate them.
pub fn cmux<E: FftEngine>(
    engine: &E,
    control: &TgswSpectrum<E>,
    d0: &TrlweCiphertext,
    d1: &TrlweCiphertext,
    decomp: &GadgetDecomposer,
) -> TrlweCiphertext {
    let mut diff = d1.clone();
    diff.sub_assign(d0);
    let mut out = control.external_product(engine, &diff, decomp);
    out.add_assign(d0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterSet;
    use crate::secret::RingSecretKey;
    use crate::tgsw::TgswCiphertext;
    use matcha_fft::F64Fft;
    use matcha_math::{Torus32, TorusPolynomial, TorusSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParameterSet, RingSecretKey, F64Fft, TorusSampler<StdRng>) {
        let p = ParameterSet {
            ring_degree: 64,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(29));
        let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
        let engine = F64Fft::new(p.ring_degree);
        (p, key, engine, sampler)
    }

    fn constant_poly(v: f64, n: usize) -> TorusPolynomial {
        TorusPolynomial::constant(Torus32::from_f64(v), n)
    }

    #[test]
    fn cmux_selects_by_control_bit() {
        let (p, key, engine, mut sampler) = setup();
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let m0 = constant_poly(0.125, p.ring_degree);
        let m1 = constant_poly(-0.25, p.ring_degree);
        let d0 = TrlweCiphertext::encrypt(&m0, &key, p.ring_noise_stdev, &engine, &mut sampler);
        let d1 = TrlweCiphertext::encrypt(&m1, &key, p.ring_noise_stdev, &engine, &mut sampler);
        for (bit, expected) in [(0, &m0), (1, &m1)] {
            let control = TgswCiphertext::encrypt_constant(bit, &key, &p, &engine, &mut sampler)
                .to_spectrum(&engine);
            let out = cmux(&engine, &control, &d0, &d1, &decomp);
            assert!(
                out.phase(&key, &engine).max_distance(expected) < 1e-3,
                "bit={bit}"
            );
        }
    }

    #[test]
    fn cmux_chain_accumulates_selections() {
        // A two-level CMux tree: out = select(c1, select(c0, m00, m01), ...)
        let (p, key, engine, mut sampler) = setup();
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let leaves: Vec<TorusPolynomial> = (0..4)
            .map(|i| constant_poly(0.0625 * (i as f64 + 1.0), p.ring_degree))
            .collect();
        let enc: Vec<TrlweCiphertext> = leaves
            .iter()
            .map(|m| TrlweCiphertext::encrypt(m, &key, p.ring_noise_stdev, &engine, &mut sampler))
            .collect();
        for (sel, leaf) in leaves.iter().enumerate() {
            let b0 = (sel & 1) as i32;
            let b1 = ((sel >> 1) & 1) as i32;
            let c0 = TgswCiphertext::encrypt_constant(b0, &key, &p, &engine, &mut sampler)
                .to_spectrum(&engine);
            let c1 = TgswCiphertext::encrypt_constant(b1, &key, &p, &engine, &mut sampler)
                .to_spectrum(&engine);
            let lo = cmux(&engine, &c0, &enc[0], &enc[1], &decomp);
            let hi = cmux(&engine, &c0, &enc[2], &enc[3], &decomp);
            let out = cmux(&engine, &c1, &lo, &hi, &decomp);
            assert!(
                out.phase(&key, &engine).max_distance(leaf) < 5e-3,
                "sel={sel}"
            );
        }
    }
}
