//! Compact binary serialization for the values that cross the
//! client/server boundary.
//!
//! In a TFHE deployment the client and the evaluator are different
//! machines: ciphertexts travel per gate-input and per result, and the
//! parameter set travels once. The format is little-endian with a
//! per-type magic tag and a version byte; it deliberately has no external
//! dependencies.
//!
//! Only values that cross the wire have a codec: secret keys stay with
//! the client, and bootstrapping keys are engine-specific spectra
//! regenerated via [`crate::BootstrapKit::generate`] instead of shipped.

use crate::circuit::{CircuitNetlist, GateOp};
use crate::gates::{Gate, Gate3};
use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::tlwe::TrlweCiphertext;
use matcha_math::{Torus32, TorusPolynomial};
use std::io::{self, Read, Write};

const VERSION: u8 = 1;

/// A type with a stable binary wire format.
///
/// Readers/writers are taken by value; pass `&mut reader` / `&mut writer`
/// to keep using them afterwards (the standard `Read`/`Write` blanket
/// impls make this work).
pub trait Codec: Sized {
    /// The 4-byte magic tag identifying the type on the wire.
    const MAGIC: [u8; 4];

    /// Writes the payload (everything after magic + version).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    fn encode_body<W: Write>(&self, w: W) -> io::Result<()>;

    /// Reads the payload.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed payloads, plus reader I/O errors.
    fn decode_body<R: Read>(r: R) -> io::Result<Self>;

    /// Writes magic, version, and payload.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    fn encode<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&Self::MAGIC)?;
        w.write_all(&[VERSION])?;
        self.encode_body(w)
    }

    /// Reads and checks magic + version, then the payload.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the magic or version does not match.
    fn decode<R: Read>(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != Self::MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "wrong magic tag",
            ));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported version {}", version[0]),
            ));
        }
        Self::decode_body(r)
    }

    /// Serializes to a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out).expect("Vec<u8> writes cannot fail");
        out
    }

    /// Deserializes from a byte slice that holds exactly one value.
    ///
    /// Unlike [`Codec::decode`] — which reads one value off a stream and
    /// leaves whatever follows for the caller — this rejects input with
    /// trailing bytes after the payload: a blob that is "a valid value
    /// plus garbage" is not a valid blob.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed input or a non-empty remainder.
    fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let mut r = bytes;
        let value = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} trailing bytes after payload", r.len()),
            ));
        }
        Ok(value)
    }
}

pub(crate) fn write_u32<W: Write>(mut w: W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u32<R: Read>(mut r: R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

pub(crate) fn write_u64<W: Write>(mut w: W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64<R: Read>(mut r: R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn write_f64<W: Write>(mut w: W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_f64<R: Read>(mut r: R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

fn read_len<R: Read>(r: R, max: u32) -> io::Result<usize> {
    let len = read_u32(r)?;
    if len == 0 || len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("length {len} outside 1..={max}"),
        ));
    }
    Ok(len as usize)
}

/// Like [`read_len`] but admitting zero (for counts that may be empty).
pub(crate) fn read_count<R: Read>(r: R, max: u32) -> io::Result<usize> {
    let len = read_u32(r)?;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("count {len} exceeds {max}"),
        ));
    }
    Ok(len as usize)
}

/// Largest dimension/degree the decoder accepts (DoS guard).
pub(crate) const MAX_LEN: u32 = 1 << 20;

/// Speculative-preallocation cap while decoding. Lengths are
/// attacker-controlled: a decoder may reserve at most this many bytes
/// ahead of payload actually received, so a truncated stream with a huge
/// claimed length fails on the read, not after a huge allocation. Growth
/// past the cap is the collection's amortized doubling — by then the
/// sender has paid for it in delivered bytes.
pub(crate) const PREALLOC_BYTES: usize = 1 << 14;

/// Reads exactly `n` torus words with capped speculative preallocation.
fn read_torus_words<R: Read>(mut r: R, n: usize) -> io::Result<Vec<Torus32>> {
    let mut v = Vec::with_capacity(n.min(PREALLOC_BYTES / 4));
    for _ in 0..n {
        v.push(Torus32::from_raw(read_u32(&mut r)?));
    }
    Ok(v)
}

/// Reads exactly `n` raw bytes with capped speculative preallocation.
pub(crate) fn read_bytes_exact<R: Read>(mut r: R, n: usize) -> io::Result<Vec<u8>> {
    let mut v = Vec::with_capacity(n.min(PREALLOC_BYTES));
    let mut chunk = [0u8; 1024];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        v.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(v)
}

impl Codec for LweCiphertext {
    const MAGIC: [u8; 4] = *b"MLWE";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u32(&mut w, self.dimension() as u32)?;
        for &x in self.mask() {
            write_u32(&mut w, x.raw())?;
        }
        write_u32(&mut w, self.body().raw())
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        let n = read_len(&mut r, MAX_LEN)?;
        let a = read_torus_words(&mut r, n)?;
        let b = Torus32::from_raw(read_u32(&mut r)?);
        Ok(LweCiphertext::from_parts(a, b))
    }
}

impl Codec for TrlweCiphertext {
    const MAGIC: [u8; 4] = *b"MRLW";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u32(&mut w, self.ring_degree() as u32)?;
        for &x in self.mask().coeffs() {
            write_u32(&mut w, x.raw())?;
        }
        for &x in self.body().coeffs() {
            write_u32(&mut w, x.raw())?;
        }
        Ok(())
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        let n = read_len(&mut r, MAX_LEN)?;
        if !n.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "ring degree must be a power of two",
            ));
        }
        let read_poly = |r: &mut R| -> io::Result<TorusPolynomial> {
            Ok(TorusPolynomial::from_coeffs(read_torus_words(&mut *r, n)?))
        };
        let a = read_poly(&mut r)?;
        let b = read_poly(&mut r)?;
        Ok(TrlweCiphertext::from_parts(a, b))
    }
}

impl Codec for ParameterSet {
    const MAGIC: [u8; 4] = *b"MPAR";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u32(&mut w, self.lwe_dimension as u32)?;
        write_u32(&mut w, self.ring_degree as u32)?;
        write_f64(&mut w, self.lwe_noise_stdev)?;
        write_f64(&mut w, self.ring_noise_stdev)?;
        write_u32(&mut w, self.decomp_base_log)?;
        write_u32(&mut w, self.decomp_levels as u32)?;
        write_u32(&mut w, self.ks_base_log)?;
        write_u32(&mut w, self.ks_levels as u32)
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        let params = ParameterSet {
            lwe_dimension: read_u32(&mut r)? as usize,
            ring_degree: read_u32(&mut r)? as usize,
            lwe_noise_stdev: read_f64(&mut r)?,
            ring_noise_stdev: read_f64(&mut r)?,
            decomp_base_log: read_u32(&mut r)?,
            decomp_levels: read_u32(&mut r)? as usize,
            ks_base_log: read_u32(&mut r)?,
            ks_levels: read_u32(&mut r)? as usize,
        };
        params
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(params)
    }
}

/// Reads `K` operand node indices.
fn read_nodes<R: Read, const K: usize>(mut r: R) -> io::Result<[usize; K]> {
    let mut nodes = [0; K];
    for node in &mut nodes {
        *node = read_u32(&mut r)? as usize;
    }
    Ok(nodes)
}

impl Codec for CircuitNetlist {
    const MAGIC: [u8; 4] = *b"MNET";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u32(&mut w, self.len() as u32)?;
        for op in self.ops() {
            // The op's tag, what it carries besides operands, its operands.
            let tag = match op {
                GateOp::Input(_) => 0,
                GateOp::Constant(_) => 1,
                GateOp::Binary(..) => 2,
                GateOp::Not(_) => 3,
                GateOp::Mux { .. } => 4,
                GateOp::Ternary(..) => 5,
                GateOp::Sum(..) => 6,
            };
            w.write_all(&[tag])?;
            match (*op, op.gate()) {
                (GateOp::Input(slot), _) => write_u32(&mut w, slot as u32)?,
                (GateOp::Constant(v), _) => w.write_all(&[u8::from(v)])?,
                (_, Some((desc, _))) => w.write_all(&[desc.code])?,
                _ => {}
            }
            for operand in op.operands().into_iter().flatten() {
                write_u32(&mut w, operand as u32)?;
            }
        }
        write_u32(&mut w, self.outputs().len() as u32)?;
        for &o in self.outputs() {
            write_u32(&mut w, o as u32)?;
        }
        Ok(())
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let n = read_count(&mut r, MAX_LEN)?;
        // Ops are at least 2 bytes each on the wire, so cap the
        // speculative reserve at half the prealloc budget in *entries*
        // (each entry is larger in memory than on the wire; the claimed
        // count is attacker-controlled).
        let mut ops = Vec::with_capacity(n.min(PREALLOC_BYTES / std::mem::size_of::<GateOp>()));
        let mut tag = [0u8; 1];
        for _ in 0..n {
            r.read_exact(&mut tag)?;
            let op = match tag[0] {
                0 => GateOp::Input(read_u32(&mut r)? as usize),
                1 => {
                    r.read_exact(&mut tag)?;
                    match tag[0] {
                        0 => GateOp::Constant(false),
                        1 => GateOp::Constant(true),
                        v => return Err(bad(format!("constant byte {v} is not 0/1"))),
                    }
                }
                2 => {
                    r.read_exact(&mut tag)?;
                    let gate = Gate::from_code(tag[0])
                        .ok_or_else(|| bad(format!("unknown gate {}", tag[0])))?;
                    let [a, b] = read_nodes(&mut r)?;
                    GateOp::Binary(gate, a, b)
                }
                3 => GateOp::Not(read_u32(&mut r)? as usize),
                4 => {
                    let [sel, a, b] = read_nodes(&mut r)?;
                    GateOp::Mux { sel, a, b }
                }
                5 => {
                    r.read_exact(&mut tag)?;
                    let gate = Gate3::from_code(tag[0])
                        .ok_or_else(|| bad(format!("unknown three-input gate {}", tag[0])))?;
                    let [a, b, c] = read_nodes(&mut r)?;
                    GateOp::Ternary(gate, a, b, c)
                }
                6 => {
                    let [a, b, c] = read_nodes(&mut r)?;
                    GateOp::Sum(a, b, c)
                }
                t => return Err(bad(format!("unknown op tag {t}"))),
            };
            ops.push(op);
        }
        let n_out = read_count(&mut r, MAX_LEN)?;
        let mut outputs = Vec::with_capacity(n_out.min(PREALLOC_BYTES / 8));
        for _ in 0..n_out {
            outputs.push(read_u32(&mut r)? as usize);
        }
        CircuitNetlist::from_parts(ops, outputs).map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secret::LweSecretKey;
    use matcha_math::TorusSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler() -> TorusSampler<StdRng> {
        TorusSampler::new(StdRng::seed_from_u64(91))
    }

    #[test]
    fn lwe_ciphertext_roundtrip() {
        let mut s = sampler();
        let key = LweSecretKey::generate(63, &mut s);
        let c = LweCiphertext::encrypt(Torus32::from_dyadic(1, 3), &key, 1e-8, &mut s);
        let back = LweCiphertext::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn trlwe_ciphertext_roundtrip() {
        let mut s = sampler();
        let a = s.uniform_poly(64);
        let b = s.uniform_poly(64);
        let c = TrlweCiphertext::from_parts(a, b);
        let back = TrlweCiphertext::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parameter_set_roundtrip() {
        for p in [ParameterSet::MATCHA, ParameterSet::TEST_FAST] {
            let back = ParameterSet::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let bytes = ParameterSet::TEST_FAST.to_bytes();
        // Feeding a parameter-set blob to the ciphertext decoder fails.
        let err = LweCiphertext::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut s = sampler();
        let key = LweSecretKey::generate(64, &mut s);
        let c = LweCiphertext::encrypt(Torus32::ZERO, &key, 1e-8, &mut s);
        let bytes = c.to_bytes();
        let err = LweCiphertext::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MLWE");
        bytes.push(1); // version
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = LweCiphertext::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn invalid_parameters_rejected_on_decode() {
        let mut p = ParameterSet::MATCHA;
        p.decomp_base_log = 30; // 30 × 3 > 32: invalid
        let bytes = {
            // Encode without validation by writing fields manually.
            let mut out = Vec::new();
            out.extend_from_slice(b"MPAR");
            out.push(1);
            p.encode_body(&mut out).unwrap();
            out
        };
        assert!(ParameterSet::from_bytes(&bytes).is_err());
    }

    #[test]
    fn full_width_base_rejected() {
        // A `2^32` base with one level passes `γ·t ≤ 32`, but no
        // `GadgetDecomposer` takes it: key generation would panic.
        let ks = ParameterSet {
            ks_base_log: 32,
            ks_levels: 1,
            ..ParameterSet::MATCHA
        };
        let tgsw = ParameterSet {
            decomp_base_log: 32,
            decomp_levels: 1,
            ..ParameterSet::MATCHA
        };
        for p in [ks, tgsw] {
            let err = p.validate().unwrap_err();
            assert!(err.contains("exceeds the 32-bit torus"), "{err}");
            let mut bytes = b"MPAR".to_vec();
            bytes.push(1);
            p.encode_body(&mut bytes).unwrap();
            let err = ParameterSet::from_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{p:?}");
        }
    }

    #[test]
    fn trailing_garbage_rejected_for_every_impl() {
        let mut s = sampler();
        let lwe = LweCiphertext::encrypt(
            Torus32::ZERO,
            &LweSecretKey::generate(16, &mut s),
            1e-8,
            &mut s,
        );
        let trlwe = TrlweCiphertext::from_parts(s.uniform_poly(32), s.uniform_poly(32));
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let g = net.gate(Gate::Nand, a, b);
        net.mark_output(g);

        fn check<T: Codec + std::fmt::Debug>(value: &T) {
            let mut bytes = value.to_bytes();
            bytes.push(0xAB);
            let err = T::from_bytes(&bytes).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{}",
                std::any::type_name::<T>()
            );
            // The stream-friendly decode still accepts a value with data
            // after it, leaving the remainder unread.
            let mut r: &[u8] = &bytes;
            T::decode(&mut r).expect("decode tolerates trailing stream data");
            assert_eq!(r, [0xAB]);
        }
        check(&lwe);
        check(&trlwe);
        check(&ParameterSet::MATCHA);
        check(&net);
    }

    #[test]
    fn netlist_roundtrip() {
        let mut net = CircuitNetlist::new();
        let a = net.input();
        let b = net.input();
        let c = net.constant(true);
        let x = net.gate(Gate::Xor, a, b);
        let nx = net.not(x);
        let m = net.mux(c, nx, a);
        let s = net.ternary(Gate3::Xor3, a, nx, m);
        net.mark_output(x);
        net.mark_output(m);
        net.mark_output(s);
        let back = CircuitNetlist::from_bytes(&net.to_bytes()).unwrap();
        assert_eq!(back.ops(), net.ops());
        assert_eq!(back.outputs(), net.outputs());
        assert_eq!(back.num_inputs(), net.num_inputs());
        assert_eq!(back.depth(), net.depth());
    }

    #[test]
    fn empty_netlist_roundtrip() {
        let net = CircuitNetlist::new();
        let back = CircuitNetlist::from_bytes(&net.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert!(back.outputs().is_empty());
    }

    #[test]
    fn forward_referencing_netlist_rejected() {
        // Hand-craft a netlist whose gate references a later node.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MNET");
        bytes.push(1); // version
        bytes.extend_from_slice(&2u32.to_le_bytes()); // two nodes
        bytes.push(0); // Input
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[2, 0]); // Binary And
        bytes.extend_from_slice(&0u32.to_le_bytes()); // a = 0: fine
        bytes.extend_from_slice(&5u32.to_le_bytes()); // b = 5: forward
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no outputs
        let err = CircuitNetlist::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_gate_and_op_tags_rejected() {
        for (tag, extra) in [(2u8, vec![99u8]), (5u8, vec![2u8]), (7u8, vec![])] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"MNET");
            bytes.push(1);
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(tag);
            bytes.extend_from_slice(&extra);
            bytes.extend_from_slice(&[0u8; 12]); // operands
            let err = CircuitNetlist::from_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}: {err}");
        }
    }

    #[test]
    fn decrypts_after_roundtrip() {
        // End-to-end: encrypt, serialize, deserialize, decrypt.
        let mut rng = StdRng::seed_from_u64(92);
        let client = crate::ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let c = client.encrypt_with(true, &mut rng);
        let wire = c.to_bytes();
        let received = LweCiphertext::from_bytes(&wire).unwrap();
        assert!(client.decrypt(&received));
    }
}
