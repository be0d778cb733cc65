//! Adversarial properties of the wire codec, over every `Codec` impl:
//!
//! * **Roundtrip** — arbitrary-dimension values survive
//!   `to_bytes → from_bytes` exactly.
//! * **Corruption** — flipping any single byte of a valid encoding never
//!   panics: decoding either fails cleanly or yields a value whose
//!   canonical re-encoding is byte-identical to the corrupted input
//!   (the flip landed in a value field, not in structure).
//! * **Truncation** — every strict prefix of a valid encoding fails to
//!   decode (the strict `from_bytes` contract: a message is whole or it
//!   is rejected).

use matcha_math::{Torus32, TorusSampler};
use matcha_tfhe::session::{OutcomeFrame, SessionOutcome};
use matcha_tfhe::{
    CircuitNetlist, Codec, Counterexample, Gate, Gate3, GateOp, LweCiphertext, ParameterSet,
    RejectReason, TrlweCiphertext,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// Decoding any strict prefix fails; decoding the whole buffer succeeds.
fn assert_truncation_rejected<T: Codec>(bytes: &[u8]) {
    for len in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len}/{} bytes decoded",
            bytes.len()
        );
    }
    assert!(T::from_bytes(bytes).is_ok());
}

/// Flipping one byte either fails cleanly or decodes to a value that
/// re-encodes to exactly the corrupted bytes. Never panics.
fn assert_corruption_contained<T: Codec>(bytes: &[u8], index: usize, flip: u8) {
    let mut corrupted = bytes.to_vec();
    let at = index % corrupted.len();
    corrupted[at] ^= flip;
    if let Ok(v) = T::from_bytes(&corrupted) {
        assert_eq!(
            v.to_bytes(),
            corrupted,
            "corrupt decode must re-encode canonically"
        );
    }
}

fn assert_roundtrip<T: Codec + PartialEq + Debug>(v: &T) {
    assert_eq!(&T::from_bytes(&v.to_bytes()).unwrap(), v);
}

fn pick(rng: &mut StdRng, k: usize) -> usize {
    (rng.gen::<u64>() % k as u64) as usize
}

fn arb_lwe(rng: &mut StdRng, dim: usize) -> LweCiphertext {
    let mut s = TorusSampler::new(rng.clone());
    let a = (0..dim).map(|_| s.uniform()).collect();
    LweCiphertext::from_parts(a, s.uniform())
}

fn arb_trlwe(rng: &mut StdRng, degree: usize) -> TrlweCiphertext {
    let mut s = TorusSampler::new(rng.clone());
    TrlweCiphertext::from_parts(s.uniform_poly(degree), s.uniform_poly(degree))
}

/// A random but well-formed netlist: `nodes` extra nodes over one seed
/// input, every operand drawn from the ids built so far — every seventh
/// draw a `Sum` on the latest majority that carries none, where there is
/// one — final node (plus one mid node) marked as outputs.
fn arb_netlist(rng: &mut StdRng, nodes: usize) -> CircuitNetlist {
    let mut net = CircuitNetlist::new();
    let mut ids = vec![net.input()];
    for _ in 0..nodes {
        let free_host = net.ops().iter().rev().find_map(|op| match *op {
            GateOp::Ternary(Gate3::Maj, a, b, c) if net.free_host([a, b, c]).is_ok() => {
                Some([a, b, c])
            }
            _ => None,
        });
        let id = match (rng.gen::<u64>() % 7, free_host) {
            (6, Some([a, b, c])) => net.sum(a, b, c),
            (draw, _) => match draw % 6 {
                0 => net.input(),
                1 => net.constant(rng.gen_bool(0.5)),
                2 => {
                    let g = Gate::ALL[pick(rng, Gate::ALL.len())];
                    let (a, b) = (ids[pick(rng, ids.len())], ids[pick(rng, ids.len())]);
                    net.gate(g, a, b)
                }
                3 => {
                    let a = ids[pick(rng, ids.len())];
                    net.not(a)
                }
                4 => {
                    let g = Gate3::ALL[pick(rng, Gate3::ALL.len())];
                    let [a, b, c] = [0; 3].map(|_| ids[pick(rng, ids.len())]);
                    net.ternary(g, a, b, c)
                }
                _ => {
                    let (s, a, b) = (
                        ids[pick(rng, ids.len())],
                        ids[pick(rng, ids.len())],
                        ids[pick(rng, ids.len())],
                    );
                    net.mux(s, a, b)
                }
            },
        };
        ids.push(id);
    }
    net.mark_output(*ids.last().unwrap());
    net.mark_output(ids[ids.len() / 2]);
    net
}

/// An outcome frame carrying the `NotEquivalent` reject payload: a
/// random word partition (widths 1..=12) with matching random bits.
fn arb_notequiv_frame(rng: &mut StdRng) -> OutcomeFrame {
    let words = 1 + pick(rng, 4);
    let mut widths = Vec::new();
    let mut bits = Vec::new();
    for _ in 0..words {
        let w = 1 + pick(rng, 12) as u8;
        widths.push(w);
        for _ in 0..w {
            bits.push(rng.gen_bool(0.5));
        }
    }
    OutcomeFrame {
        id: rng.gen(),
        outcome: SessionOutcome::Rejected(RejectReason::NotEquivalent {
            output: pick(rng, 64),
            counterexample: Counterexample::with_widths(bits, widths),
        }),
    }
}

fn arb_params(rng: &mut StdRng) -> ParameterSet {
    let mut p = ParameterSet::TEST_FAST;
    p.lwe_dimension = 1 + pick(rng, 1024);
    p.ring_degree = 1 << (4 + pick(rng, 7));
    p.lwe_noise_stdev = (1 + pick(rng, 1000)) as f64 * 1e-8;
    p.ring_noise_stdev = (1 + pick(rng, 1000)) as f64 * 1e-9;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lwe_roundtrip_arbitrary_dimension(dim in 1usize..96, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_roundtrip(&arb_lwe(&mut rng, dim));
    }

    #[test]
    fn trlwe_roundtrip_arbitrary_degree(log in 2u32..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_roundtrip(&arb_trlwe(&mut rng, 1 << log));
    }

    #[test]
    fn params_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_roundtrip(&arb_params(&mut rng));
    }

    #[test]
    fn netlist_roundtrip_arbitrary_structure(nodes in 1usize..40, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = arb_netlist(&mut rng, nodes);
        let back = CircuitNetlist::from_bytes(&net.to_bytes()).unwrap();
        prop_assert_eq!(back, net);
    }

    #[test]
    fn notequivalent_reject_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_roundtrip(&arb_notequiv_frame(&mut rng));
    }

    #[test]
    fn corruption_never_panics_and_stays_canonical(
        which in 0usize..5,
        seed in any::<u64>(),
        index in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        match which {
            0 => {
                let dim = 1 + pick(&mut rng, 48);
                assert_corruption_contained::<LweCiphertext>(
                    &arb_lwe(&mut rng, dim).to_bytes(), index, flip);
            }
            1 => {
                let degree = 1 << (2 + pick(&mut rng, 5));
                assert_corruption_contained::<TrlweCiphertext>(
                    &arb_trlwe(&mut rng, degree).to_bytes(), index, flip);
            }
            2 => assert_corruption_contained::<ParameterSet>(
                &arb_params(&mut rng).to_bytes(), index, flip),
            3 => assert_corruption_contained::<OutcomeFrame>(
                &arb_notequiv_frame(&mut rng).to_bytes(), index, flip),
            _ => {
                let nodes = 1 + pick(&mut rng, 24);
                assert_corruption_contained::<CircuitNetlist>(
                    &arb_netlist(&mut rng, nodes).to_bytes(), index, flip);
            }
        }
    }

    #[test]
    fn truncation_rejected_at_every_prefix(which in 0usize..5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        match which {
            0 => {
                let dim = 1 + pick(&mut rng, 24);
                assert_truncation_rejected::<LweCiphertext>(&arb_lwe(&mut rng, dim).to_bytes());
            }
            1 => {
                let degree = 1 << (2 + pick(&mut rng, 4));
                assert_truncation_rejected::<TrlweCiphertext>(
                    &arb_trlwe(&mut rng, degree).to_bytes());
            }
            2 => assert_truncation_rejected::<ParameterSet>(
                &arb_params(&mut rng).to_bytes()),
            3 => assert_truncation_rejected::<OutcomeFrame>(
                &arb_notequiv_frame(&mut rng).to_bytes()),
            _ => {
                let nodes = 1 + pick(&mut rng, 12);
                assert_truncation_rejected::<CircuitNetlist>(
                    &arb_netlist(&mut rng, nodes).to_bytes());
            }
        }
    }
}

/// Deterministic spot-check alongside the proptests: every byte position
/// of one small message of each type, all 8 single-bit flips.
#[test]
fn exhaustive_single_bit_flips_on_small_messages() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let lwe = arb_lwe(&mut rng, 4).to_bytes();
    let trlwe = arb_trlwe(&mut rng, 8).to_bytes();
    let net = arb_netlist(&mut rng, 6).to_bytes();
    let frame = arb_notequiv_frame(&mut rng).to_bytes();
    for bit in 0..8u8 {
        let flip = 1 << bit;
        for i in 0..lwe.len() {
            assert_corruption_contained::<LweCiphertext>(&lwe, i, flip);
        }
        for i in 0..trlwe.len() {
            assert_corruption_contained::<TrlweCiphertext>(&trlwe, i, flip);
        }
        for i in 0..net.len() {
            assert_corruption_contained::<CircuitNetlist>(&net, i, flip);
        }
        for i in 0..frame.len() {
            assert_corruption_contained::<OutcomeFrame>(&frame, i, flip);
        }
    }
}

#[test]
fn trivial_lwe_roundtrips() {
    assert_roundtrip(&LweCiphertext::trivial(Torus32::from_dyadic(1, 3), 16));
}

/// A riding sum is one more op tag, and a frame whose sum has no majority
/// to ride on — or whose majority already carries one — is malformed
/// input, refused as `InvalidData` like any other, never a panic.
#[test]
fn sums_roundtrip_and_a_sum_without_its_host_is_invalid_data() {
    let mut net = CircuitNetlist::new();
    let [a, b, c] = [0; 3].map(|_| net.input());
    let carry = net.ternary(Gate3::Maj, a, b, c);
    let sum = net.sum(c, a, b);
    net.mark_output(sum);
    net.mark_output(carry);
    assert_roundtrip(&net);
    let bytes = net.to_bytes();
    let decoded = CircuitNetlist::from_bytes(&bytes).expect("a valid frame");
    assert_eq!(
        (decoded.host_of(sum), decoded.rider_of(carry)),
        (Some(carry), Some(sum))
    );

    // The same frame with the majority's gate code flipped to XOR3.
    let mut majority = vec![5, Gate3::Maj.desc().code];
    for operand in [a, b, c] {
        majority.extend((operand as u32).to_le_bytes());
    }
    let code = bytes
        .windows(majority.len())
        .position(|w| w == majority)
        .expect("the majority's op on the wire")
        + 1;
    let mut hostless = bytes.clone();
    hostless[code] = Gate3::Xor3.desc().code;
    let err = CircuitNetlist::from_bytes(&hostless).expect_err("the sum lost its host");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("no majority"), "{err}");

    // And with a second sum appended on the same majority.
    let mut ops = net.ops().to_vec();
    ops.push(GateOp::Sum(a, b, c));
    let doubled = CircuitNetlist::from_parts(ops, vec![sum]);
    assert!(doubled.unwrap_err().contains("already carries"));
}

/// FNV-1a, 64-bit: a fingerprint of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The MNET bytes of one netlist holding every op the wire knows — each
/// `Gate`, both `Gate3`s, `Not`, `Mux`, `Sum` and both constants — pinned:
/// a change to how gates are described moves no wire code.
#[test]
fn netlist_wire_bytes_are_pinned() {
    let mut net = CircuitNetlist::new();
    let [a, b, c] = [0; 3].map(|_| net.input());
    let (t, f) = (net.constant(true), net.constant(false));
    let mut last = c;
    for gate in Gate::ALL {
        last = net.gate(gate, a, last);
    }
    let carry = net.ternary(Gate3::Maj, a, b, last);
    let sum = net.sum(last, a, b);
    let parity = net.ternary(Gate3::Xor3, carry, sum, t);
    let n = net.not(parity);
    let m = net.mux(n, f, carry);
    for out in [m, sum, last] {
        net.mark_output(out);
    }
    let bytes = net.to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (203, 0xec0e_b964_8f06_a8de),
        "{bytes:02x?}"
    );
}
