//! Framed wire sessions: the [`codec`] over any
//! `Read + Write` transport.
//!
//! A real deployment of the paper's client/evaluator split talks over a
//! wire: the client keeps the secret key, packs its Boolean inputs into
//! TRLWE transport samples ([`packing::pack_bits`], 2 torus words per bit
//! instead of `N + 1` — 512× less upload at the paper's parameters), and
//! ships whole circuits; the evaluator unpacks each bit with a sample
//! extraction, nothing more, straight into the run's value slab and
//! returns the outcome. This module is that wire: a length-prefixed frame
//! protocol speaking [`Codec`] messages over anything that reads and
//! writes bytes — a TCP stream, a Unix socket, or the in-memory
//! [`duplex`] pipe the test suite uses (the build container has no
//! network).
//!
//! # Frame grammar
//!
//! ```text
//! frame   := len:u32le payload[len]         (len ≤ 64 MiB)
//! payload := magic[4] version:u8 body       (one Codec message, exactly)
//!
//! client→server: MSHI hello                 { protocol:u32 }
//! server→client: MSWE welcome               { params: MPAR }
//! client→server: MSUB submit                { netlist: MNET,
//!                                             kind:u8 (0 = per-LWE MLWE*,
//!                                                      1 = packed MRLW*),
//!                                             count:u32, ciphertexts… }
//! server→client: MSOC outcome               { id:u64, outcome }
//! ```
//!
//! A session is a hello/welcome handshake followed by any number of
//! submit → outcome exchanges; the client closing its end between frames
//! ends the session cleanly. Both ends count submissions, so the `k`-th
//! submit of a session (from 0) is resolved by the outcome frame with
//! `id = k`; a client may queue submissions ahead of its waits (as far as
//! the transport buffers) and reads the outcomes in order. Every arm of
//! the [`CircuitOutcome`] taxonomy survives the wire as a structured frame
//! ([`SessionOutcome`]), including the full
//! [`RejectReason`] detail — `Lint` sites, `NoiseBudget` bounds — so a
//! remote client sees exactly what an in-process caller would.
//!
//! # Example
//!
//! ```
//! use matcha_tfhe::{session, packing, CircuitNetlist, ClientKey, Gate, ServerKey};
//! use matcha_tfhe::session::{SessionClient, SessionServer, SessionOutcome};
//! use matcha_tfhe::{params::ParameterSet, server::CircuitServer};
//! use matcha_fft::F64Fft;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(17);
//! let client_key = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
//! let engine = F64Fft::new(client_key.params().ring_degree);
//! let key = Arc::new(ServerKey::new(&client_key, engine, &mut rng));
//! let server = CircuitServer::start(key, 2);
//!
//! // One duplex pipe; the server end is driven on its own thread.
//! let (near, far) = session::duplex();
//! let sess = SessionServer::new(server.client(), *server.params());
//! let serve = std::thread::spawn(move || sess.serve(far));
//!
//! let mut net = CircuitNetlist::new();
//! let a = net.input();
//! let b = net.input();
//! let g = net.gate(Gate::And, a, b);
//! net.mark_output(g);
//!
//! let engine = F64Fft::new(client_key.params().ring_degree);
//! let mut wire = SessionClient::connect(near).unwrap();
//! wire.submit_bits(&client_key, &net, &[true, true], &engine, &mut rng).unwrap();
//! let (_, outcome) = wire.wait().unwrap();
//! let run = match outcome {
//!     SessionOutcome::Completed(run) => run,
//!     other => panic!("{other:?}"),
//! };
//! assert!(client_key.decrypt(&run.outputs[0]));
//! drop(wire); // close the session: serve() returns
//! assert_eq!(serve.join().unwrap().unwrap(), 1);
//! ```

use crate::analyze::equiv::{self, Counterexample};
use crate::analyze::LintKind;
use crate::circuit::{CircuitNetlist, CircuitRun};
use crate::codec::{
    self, read_bytes_exact, read_count, read_f64, read_u32, read_u64, write_f64, write_u32,
    write_u64, Codec,
};
use crate::lwe::LweCiphertext;
use crate::packing;
use crate::params::ParameterSet;
use crate::secret::ClientKey;
use crate::server::{CircuitClient, CircuitOutcome, RejectReason};
use crate::tlwe::TrlweCiphertext;
use matcha_fft::FftEngine;
use rand::Rng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// The protocol revision spoken by [`SessionClient`] and
/// [`SessionServer`]. A mismatched hello fails the handshake.
pub(crate) const PROTOCOL: u32 = 2;

/// Largest frame either side accepts (DoS guard): comfortably above the
/// largest legitimate submission (a `MAX_LEN`-input per-LWE circuit), far
/// below anything that could exhaust the host.
const FRAME_MAX: u32 = 1 << 26;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one length-prefixed frame and flushes the transport.
fn write_frame<W: Write, T: Codec>(mut w: W, msg: &T) -> io::Result<()> {
    let bytes = msg.to_bytes();
    if bytes.len() > FRAME_MAX as usize {
        return Err(bad(format!("frame of {} bytes exceeds cap", bytes.len())));
    }
    write_u32(&mut w, bytes.len() as u32)?;
    w.write_all(&bytes)?;
    w.flush()
}

/// The error for a transport closed where a frame was due.
fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")
}

/// Reads one frame and decodes it as exactly one `T` (trailing bytes in
/// the frame are rejected by [`Codec::from_bytes`]). A transport that is
/// cleanly closed *between* frames (EOF before any length byte) yields
/// `Ok(None)`; EOF anywhere inside a frame is an error.
fn read_frame_opt<R: Read, T: Codec>(mut r: R) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > FRAME_MAX {
        return Err(bad(format!("frame length {len} outside 1..={FRAME_MAX}")));
    }
    let bytes = read_bytes_exact(&mut r, len as usize)?;
    T::from_bytes(&bytes).map(Some)
}

/// The client's opening frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ClientHello {
    /// Protocol revision the client speaks (must equal [`PROTOCOL`]).
    pub(crate) protocol: u32,
}

impl Codec for ClientHello {
    const MAGIC: [u8; 4] = *b"MSHI";

    fn encode_body<W: Write>(&self, w: W) -> io::Result<()> {
        write_u32(w, self.protocol)
    }

    fn decode_body<R: Read>(r: R) -> io::Result<Self> {
        Ok(Self {
            protocol: read_u32(r)?,
        })
    }
}

/// The server's handshake reply: the parameter set client-side
/// encryption must target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ServerHello {
    /// The server key's parameter set.
    pub(crate) params: ParameterSet,
}

impl Codec for ServerHello {
    const MAGIC: [u8; 4] = *b"MSWE";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        self.params.encode(&mut w)
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        Ok(Self {
            params: ParameterSet::decode(&mut r)?,
        })
    }
}

/// The input payload of one submission, from the wire frame to the
/// scheduler, which unpacks packed samples at admission (sample-extracted
/// straight into the run's slab).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionInputs {
    /// One LWE sample under the extracted key per input slot — `(N + 1)`
    /// torus words per bit on the wire.
    Lwe(Vec<LweCiphertext>),
    /// Packed TRLWE transport — sample `k` carries input slots
    /// `k·N .. (k+1)·N` in its coefficients, 2 torus words per bit.
    Packed(Vec<TrlweCiphertext>),
}

/// One circuit submission: the netlist and its encrypted inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitCircuit {
    /// The netlist to run.
    pub netlist: CircuitNetlist,
    /// Its encrypted inputs, per-LWE or packed.
    pub inputs: SessionInputs,
}

impl Codec for SubmitCircuit {
    const MAGIC: [u8; 4] = *b"MSUB";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        self.netlist.encode(&mut w)?;
        match &self.inputs {
            SessionInputs::Lwe(inputs) => {
                w.write_all(&[0])?;
                write_u32(&mut w, inputs.len() as u32)?;
                for c in inputs {
                    c.encode(&mut w)?;
                }
            }
            SessionInputs::Packed(samples) => {
                w.write_all(&[1])?;
                write_u32(&mut w, samples.len() as u32)?;
                for s in samples {
                    s.encode(&mut w)?;
                }
            }
        }
        Ok(())
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        let netlist = CircuitNetlist::decode(&mut r)?;
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let count = read_count(&mut r, codec::MAX_LEN)?;
        let inputs = match kind[0] {
            0 => {
                let mut v = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    v.push(LweCiphertext::decode(&mut r)?);
                }
                SessionInputs::Lwe(v)
            }
            1 => {
                let mut v = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    v.push(TrlweCiphertext::decode(&mut r)?);
                }
                SessionInputs::Packed(v)
            }
            k => return Err(bad(format!("unknown input kind {k}"))),
        };
        Ok(Self { netlist, inputs })
    }
}

/// A completed run as it crosses the wire: the scheduler's own
/// [`CircuitRun`], under the name wire callers know it by.
pub type SessionRun = CircuitRun;

/// How one wire submission ended — the scheduler's own
/// [`CircuitOutcome`], one structured frame arm per taxonomy arm, reject
/// reasons intact.
pub type SessionOutcome = CircuitOutcome;

/// Stable wire codes for [`LintKind`] (appendix of the outcome frame).
/// Append-only: existing codes never change meaning.
const LINT_KINDS: [LintKind; 8] = [
    LintKind::DeadNode,
    LintKind::NoOutputs,
    LintKind::UnusedInput,
    LintKind::ConstantFoldable,
    LintKind::DuplicateGate,
    LintKind::MuxIdenticalArms,
    LintKind::DoubleNot,
    LintKind::EquivUnknown,
];

fn lint_code(kind: LintKind) -> u8 {
    LINT_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("LINT_KINDS covers every kind") as u8
}

fn lint_from_code(code: u8) -> io::Result<LintKind> {
    LINT_KINDS
        .get(code as usize)
        .copied()
        .ok_or_else(|| bad(format!("unknown lint kind {code}")))
}

fn encode_reason<W: Write>(mut w: W, reason: &RejectReason) -> io::Result<()> {
    match reason {
        RejectReason::QueueFull => w.write_all(&[0]),
        RejectReason::QuotaExceeded => w.write_all(&[1]),
        RejectReason::DeadlineUnmeetable => w.write_all(&[2]),
        RejectReason::InvalidInput => w.write_all(&[3]),
        RejectReason::Lint { kind, node } => {
            w.write_all(&[4, lint_code(*kind)])?;
            write_u32(&mut w, *node as u32)
        }
        RejectReason::NoiseBudget {
            output,
            bound,
            budget,
        } => {
            w.write_all(&[5])?;
            write_u32(&mut w, *output as u32)?;
            write_f64(&mut w, *bound)?;
            write_f64(&mut w, *budget)
        }
        RejectReason::Shutdown => w.write_all(&[6]),
        RejectReason::NotEquivalent {
            output,
            counterexample,
        } => {
            w.write_all(&[7])?;
            write_u32(&mut w, *output as u32)?;
            write_u32(&mut w, counterexample.widths.len() as u32)?;
            w.write_all(&counterexample.widths)?;
            // Bit count is implied by the widths (they partition the
            // assignment); only the packed bits follow, LSB-first within
            // each byte, padding bits zero.
            let mut packed = vec![0u8; counterexample.bits.len().div_ceil(8)];
            for (i, &bit) in counterexample.bits.iter().enumerate() {
                packed[i / 8] |= (bit as u8) << (i % 8);
            }
            w.write_all(&packed)
        }
    }
}

fn decode_reason<R: Read>(mut r: R) -> io::Result<RejectReason> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => RejectReason::QueueFull,
        1 => RejectReason::QuotaExceeded,
        2 => RejectReason::DeadlineUnmeetable,
        3 => RejectReason::InvalidInput,
        4 => {
            r.read_exact(&mut tag)?;
            RejectReason::Lint {
                kind: lint_from_code(tag[0])?,
                node: read_u32(&mut r)? as usize,
            }
        }
        5 => RejectReason::NoiseBudget {
            output: read_u32(&mut r)? as usize,
            bound: read_f64(&mut r)?,
            budget: read_f64(&mut r)?,
        },
        6 => RejectReason::Shutdown,
        7 => {
            let output = read_u32(&mut r)? as usize;
            let widths_len = read_count(&mut r, codec::MAX_LEN)?;
            let widths = read_bytes_exact(&mut r, widths_len)?;
            let mut bit_count = 0usize;
            for &w in &widths {
                if w == 0 || w as usize > equiv::MAX_WORD_WIDTH {
                    return Err(bad(format!("counterexample word width {w} out of range")));
                }
                bit_count += w as usize;
            }
            let packed = read_bytes_exact(&mut r, bit_count.div_ceil(8))?;
            let mut bits = Vec::with_capacity(bit_count.min(codec::MAX_LEN as usize));
            for i in 0..bit_count {
                bits.push(packed[i / 8] >> (i % 8) & 1 == 1);
            }
            // Canonical form: padding bits in the last byte must be zero
            // (otherwise two encodings decode to the same value).
            if !bit_count.is_multiple_of(8) && packed[bit_count / 8] >> (bit_count % 8) != 0 {
                return Err(bad("counterexample padding bits must be zero"));
            }
            RejectReason::NotEquivalent {
                output,
                counterexample: Counterexample::with_widths(bits, widths),
            }
        }
        t => return Err(bad(format!("unknown reject reason {t}"))),
    })
}

/// The server's final word on one submission.
#[derive(Clone, Debug, PartialEq)]
pub struct OutcomeFrame {
    /// The id the submit call returned — the number of submissions before
    /// it on the session — which this outcome resolves.
    pub id: u64,
    /// How the circuit ended.
    pub outcome: CircuitOutcome,
}

impl Codec for OutcomeFrame {
    const MAGIC: [u8; 4] = *b"MSOC";

    fn encode_body<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u64(&mut w, self.id)?;
        match &self.outcome {
            CircuitOutcome::Completed(run) => {
                w.write_all(&[0])?;
                write_u32(&mut w, run.outputs.len() as u32)?;
                for c in &run.outputs {
                    c.encode(&mut w)?;
                }
                write_u32(&mut w, run.waves as u32)?;
                write_u32(&mut w, run.scheduled_ops as u32)?;
                write_u32(&mut w, run.bootstraps as u32)?;
                write_f64(&mut w, run.elapsed_s)
            }
            CircuitOutcome::Faulted(msg) => {
                w.write_all(&[1])?;
                let bytes = msg.as_bytes();
                write_u32(&mut w, bytes.len() as u32)?;
                w.write_all(bytes)
            }
            CircuitOutcome::Rejected(reason) => {
                w.write_all(&[2])?;
                encode_reason(&mut w, reason)
            }
            CircuitOutcome::Expired => w.write_all(&[3]),
            CircuitOutcome::Cancelled => w.write_all(&[4]),
        }
    }

    fn decode_body<R: Read>(mut r: R) -> io::Result<Self> {
        let id = read_u64(&mut r)?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let outcome = match tag[0] {
            0 => {
                let count = read_count(&mut r, codec::MAX_LEN)?;
                let mut outputs = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    outputs.push(LweCiphertext::decode(&mut r)?);
                }
                CircuitOutcome::Completed(CircuitRun {
                    outputs,
                    waves: read_u32(&mut r)? as usize,
                    scheduled_ops: read_u32(&mut r)? as usize,
                    bootstraps: read_u32(&mut r)? as usize,
                    elapsed_s: read_f64(&mut r)?,
                })
            }
            1 => {
                let len = read_count(&mut r, codec::MAX_LEN)?;
                let bytes = read_bytes_exact(&mut r, len)?;
                CircuitOutcome::Faulted(
                    String::from_utf8(bytes).map_err(|_| bad("fault message is not UTF-8"))?,
                )
            }
            2 => CircuitOutcome::Rejected(decode_reason(&mut r)?),
            3 => CircuitOutcome::Expired,
            4 => CircuitOutcome::Cancelled,
            t => return Err(bad(format!("unknown outcome tag {t}"))),
        };
        Ok(Self { id, outcome })
    }
}

/// The server side of a session: drives one [`CircuitClient`] per
/// connection, turning submit frames into scheduler submissions and
/// outcomes back into frames.
pub struct SessionServer {
    client: CircuitClient,
    params: ParameterSet,
}

impl SessionServer {
    /// A session endpoint submitting through `client` and advertising
    /// `params` in the handshake (a
    /// [`CircuitServer`](crate::server::CircuitServer)'s
    /// [`params()`](crate::server::CircuitServer::params)).
    pub fn new(client: CircuitClient, params: ParameterSet) -> Self {
        Self { client, params }
    }

    /// Drives one connection to completion: handshake, then
    /// submit → outcome exchanges until the peer closes its end
    /// between frames. Returns how many circuits the session served.
    /// Packed submissions are unpacked by the scheduler at admission —
    /// sample-extracted straight into the run's slab.
    ///
    /// Each connection serves one circuit at a time (the next submission is
    /// read only after the previous outcome is written; a client's queued
    /// submissions wait in the transport); run one `serve` per connection —
    /// on its own thread — and the
    /// [`CircuitServer`](crate::server::CircuitServer) interleaves the
    /// circuits of all live sessions.
    ///
    /// # Errors
    ///
    /// Returns transport I/O errors, malformed frames (`InvalidData`),
    /// and mid-frame disconnects (`UnexpectedEof`).
    pub fn serve<S: Read + Write>(&self, mut conn: S) -> io::Result<u64> {
        let hello: ClientHello = read_frame_opt(&mut conn)?.ok_or_else(closed)?;
        if hello.protocol != PROTOCOL {
            return Err(bad(format!(
                "peer speaks protocol {}, this server speaks {PROTOCOL}",
                hello.protocol
            )));
        }
        write_frame(
            &mut conn,
            &ServerHello {
                params: self.params,
            },
        )?;
        // The next submission's id: the count of those served so far.
        let mut id = 0;
        while let Some(SubmitCircuit { netlist, inputs }) = read_frame_opt(&mut conn)? {
            let outcome = self.client.submit_inputs(netlist, inputs, None).wait();
            write_frame(&mut conn, &OutcomeFrame { id, outcome })?;
            id += 1;
        }
        Ok(id)
    }
}

/// The client side of a session: packs inputs, frames submissions, and
/// decodes outcomes.
pub struct SessionClient<S: Read + Write> {
    conn: S,
    params: ParameterSet,
    /// Submissions written so far: the id of the next one.
    submitted: u64,
}

impl<S: Read + Write> SessionClient<S> {
    /// Performs the hello/welcome handshake over `conn`.
    ///
    /// # Errors
    ///
    /// Returns transport errors and a malformed or version-mismatched
    /// welcome (`InvalidData`).
    pub fn connect(mut conn: S) -> io::Result<Self> {
        write_frame(&mut conn, &ClientHello { protocol: PROTOCOL })?;
        let welcome: ServerHello = read_frame_opt(&mut conn)?.ok_or_else(closed)?;
        Ok(Self {
            conn,
            params: welcome.params,
            submitted: 0,
        })
    }

    /// The parameter set the server advertised in its welcome.
    pub fn params(&self) -> &ParameterSet {
        &self.params
    }

    /// Submits a circuit with per-LWE inputs; returns its id.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn submit(
        &mut self,
        netlist: &CircuitNetlist,
        inputs: Vec<LweCiphertext>,
    ) -> io::Result<u64> {
        self.send(SubmitCircuit {
            netlist: netlist.clone(),
            inputs: SessionInputs::Lwe(inputs),
        })
    }

    /// Submits a circuit with already-packed TRLWE transport samples;
    /// returns its id.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn submit_packed(
        &mut self,
        netlist: &CircuitNetlist,
        samples: Vec<TrlweCiphertext>,
    ) -> io::Result<u64> {
        self.send(SubmitCircuit {
            netlist: netlist.clone(),
            inputs: SessionInputs::Packed(samples),
        })
    }

    /// Packs `bits` into `ceil(bits.len() / N)` TRLWE transport samples
    /// with [`packing::pack_bits`] and submits — the bandwidth-optimal
    /// upload path (2 torus words per bit on the wire). `bits.len()` must
    /// equal the netlist's input count for the submission to be admitted.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    ///
    /// # Panics
    ///
    /// Panics if `key`'s parameters disagree with the server's advertised
    /// ring degree (the packed samples would be meaningless).
    pub fn submit_bits<E: FftEngine, R: Rng>(
        &mut self,
        key: &ClientKey,
        netlist: &CircuitNetlist,
        bits: &[bool],
        engine: &E,
        rng: &mut R,
    ) -> io::Result<u64> {
        let n = self.params.ring_degree;
        assert_eq!(
            key.params().ring_degree,
            n,
            "client key ring degree {} does not match the server's {}",
            key.params().ring_degree,
            n
        );
        let samples: Vec<TrlweCiphertext> = bits
            .chunks(n)
            .map(|chunk| packing::pack_bits(key, chunk, engine, rng))
            .collect();
        self.submit_packed(netlist, samples)
    }

    /// Writes the submission frame; the server answers it with an outcome
    /// only, so nothing is read here.
    fn send(&mut self, msg: SubmitCircuit) -> io::Result<u64> {
        write_frame(&mut self.conn, &msg)?;
        self.submitted += 1;
        Ok(self.submitted - 1)
    }

    /// Blocks for the next outcome frame, returning the id of the
    /// submission it resolves and the structured outcome. Outcomes arrive
    /// in submission order.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed outcome frames.
    pub fn wait(&mut self) -> io::Result<(u64, SessionOutcome)> {
        let frame: OutcomeFrame = read_frame_opt(&mut self.conn)?.ok_or_else(closed)?;
        Ok((frame.id, frame.outcome))
    }
}

/// One direction of the in-memory pipe.
struct Channel {
    state: Mutex<ChannelState>,
    cond: Condvar,
}

#[derive(Default)]
struct ChannelState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Channel {
    fn new() -> Self {
        Self {
            state: Mutex::new(ChannelState::default()),
            cond: Condvar::new(),
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        self.cond.notify_all();
    }
}

/// One end of an in-memory duplex byte stream — the no-network stand-in
/// for a socket. Blocking reads wait for the peer's writes; dropping an
/// end closes both directions (the peer reads EOF, its writes fail with
/// `BrokenPipe`). Ends are `Send`, so a session's server half can run on
/// its own thread.
pub struct PipeEnd {
    rx: Arc<Channel>,
    tx: Arc<Channel>,
}

/// An in-memory duplex byte stream: what one end writes, the other
/// reads. See [`PipeEnd`].
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a = Arc::new(Channel::new());
    let b = Arc::new(Channel::new());
    (
        PipeEnd {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        PipeEnd { rx: b, tx: a },
    )
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.rx.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.buf.is_empty() {
            if st.closed {
                return Ok(0);
            }
            st = self
                .rx
                .cond
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let take = buf.len().min(st.buf.len());
        for slot in buf.iter_mut().take(take) {
            *slot = st.buf.pop_front().expect("len checked");
        }
        Ok(take)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.tx.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        st.buf.extend(buf);
        self.tx.cond.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, FaultPlan};
    use crate::gates::{Gate, ServerKey};
    use crate::server::{CircuitServer, ServerConfig};
    use matcha_fft::F64Fft;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::thread;

    fn keys(seed: u64) -> (ClientKey, Arc<ServerKey<F64Fft>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let key = Arc::new(ServerKey::new(&client, engine, &mut rng));
        (client, key)
    }

    fn xor_chain(len: usize) -> CircuitNetlist {
        let mut net = CircuitNetlist::new();
        let mut acc = net.input();
        for _ in 0..len {
            let next = net.input();
            acc = net.gate(Gate::Xor, acc, next);
        }
        net.mark_output(acc);
        net
    }

    /// Spawns a serving thread over one duplex pipe, returning the near
    /// end and the join handle.
    fn serve_on_thread(server: &CircuitServer) -> (PipeEnd, thread::JoinHandle<io::Result<u64>>) {
        let (near, far) = duplex();
        let sess = SessionServer::new(server.client(), *server.params());
        let handle = thread::spawn(move || sess.serve(far));
        (near, handle)
    }

    #[test]
    fn pipe_moves_bytes_and_closes() {
        let (mut a, mut b) = duplex();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after peer drop");
        assert!(b.write_all(b"x").is_err(), "write to closed peer fails");
    }

    #[test]
    fn handshake_exchanges_params() {
        let (_, key) = keys(1);
        let server = CircuitServer::start(key, 1);
        let (near, handle) = serve_on_thread(&server);
        let wire = SessionClient::connect(near).unwrap();
        assert_eq!(*wire.params(), ParameterSet::TEST_FAST);
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn protocol_mismatch_fails_serve() {
        let (_, key) = keys(2);
        let server = CircuitServer::start(key, 1);
        let (mut near, handle) = serve_on_thread(&server);
        write_frame(&mut near, &ClientHello { protocol: 99 }).unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn lwe_submission_completes_over_the_wire() {
        let (client, key) = keys(3);
        let mut rng = StdRng::seed_from_u64(30);
        let server = CircuitServer::start(key, 2);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        let net = xor_chain(3);
        let bits = [true, false, true, true];
        let inputs: Vec<LweCiphertext> = bits
            .iter()
            .map(|&b| client.encrypt_with(b, &mut rng))
            .collect();
        let id = wire.submit(&net, inputs).unwrap();
        let (oid, outcome) = wire.wait().unwrap();
        assert_eq!(id, oid);
        let run = outcome.completed().expect("completed");
        assert_eq!(run.bootstraps, 3);
        assert!(client.decrypt(&run.outputs[0]), "1^0^1^1 = 1");
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn packed_submission_matches_in_process_bit_for_bit() {
        let (client, key) = keys(4);
        let mut rng = StdRng::seed_from_u64(40);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = CircuitServer::start(key, 2);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        let net = xor_chain(4);
        let bits = [true, true, false, true, false];
        let samples = vec![packing::pack_bits(&client, &bits, &engine, &mut rng)];

        let id = wire.submit_packed(&net, samples.clone()).unwrap();
        let (oid, outcome) = wire.wait().unwrap();
        assert_eq!(id, oid);
        let over_wire = outcome.completed().expect("completed");

        // The same packed samples submitted in-process: the unpack
        // (a sample extraction) is deterministic, so outputs
        // must be bit-identical.
        let in_process = server
            .client()
            .submit_packed(net.clone(), samples)
            .wait()
            .completed()
            .expect("completed");
        assert_eq!(over_wire.outputs, in_process.outputs);
        assert!(client.decrypt(&over_wire.outputs[0]), "1^1^0^1^0 = 1");
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn submit_bits_packs_and_completes() {
        let (client, key) = keys(5);
        let mut rng = StdRng::seed_from_u64(50);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = CircuitServer::start(key, 2);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        let net = xor_chain(2);
        wire.submit_bits(&client, &net, &[false, true, true], &engine, &mut rng)
            .unwrap();
        let (_, outcome) = wire.wait().unwrap();
        let run = outcome.completed().expect("completed");
        assert!(!client.decrypt(&run.outputs[0]), "0^1^1 = 0");
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn invalid_packed_submission_rejected_over_the_wire() {
        let (_, key) = keys(6);
        let server = CircuitServer::start(key, 1);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        // Wrong ring degree: rejected at the submit boundary, and the
        // rejection survives the wire as a structured frame.
        let net = xor_chain(2);
        let samples = vec![TrlweCiphertext::zero(64)];
        wire.submit_packed(&net, samples).unwrap();
        let (_, outcome) = wire.wait().unwrap();
        assert_eq!(
            outcome,
            SessionOutcome::Rejected(RejectReason::InvalidInput)
        );
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn fault_crosses_the_wire_as_structured_frame() {
        let (client, key) = keys(7);
        let mut rng = StdRng::seed_from_u64(70);
        // Admission tag 0, node 2 (the XOR gate) panics.
        let faults = FaultPlan::new().inject(0, 2, FaultAction::Panic);
        let server = CircuitServer::start_with_faults(key, 1, ServerConfig::default(), faults);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        let net = xor_chain(1);
        let inputs = vec![
            client.encrypt_with(true, &mut rng),
            client.encrypt_with(false, &mut rng),
        ];
        wire.submit(&net, inputs).unwrap();
        let (_, outcome) = wire.wait().unwrap();
        assert!(matches!(outcome, SessionOutcome::Faulted(_)), "{outcome:?}");
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn noise_rejection_crosses_the_wire_with_its_bound() {
        use crate::analyze::{analyze, AnalysisPolicy};

        // Ring noise large enough for a gate output's bound not to
        // underflow to zero (as it does at `TEST_FAST`).
        let params = ParameterSet {
            ring_noise_stdev: 2.5e-7,
            ..ParameterSet::TEST_FAST
        };
        let mut rng = StdRng::seed_from_u64(110);
        let client = ClientKey::generate(params, &mut rng);
        let engine = F64Fft::new(params.ring_degree);
        let key = Arc::new(ServerKey::new(&client, engine, &mut rng));
        let net = xor_chain(2);
        let bound = analyze(&net, &params, 1).max_failure_prob();
        assert!(bound > 0.0);
        // A budget under the bound, with a mantissa a lossy codec would
        // round.
        let budget = bound / 3.0;
        let config = ServerConfig {
            analysis: Some(AnalysisPolicy {
                max_failure_prob: budget,
                ..AnalysisPolicy::default()
            }),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(key, 1, config);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        let inputs = [true, false, true]
            .map(|bit| client.encrypt_with(bit, &mut rng))
            .to_vec();
        wire.submit(&net, inputs).unwrap();
        let (_, outcome) = wire.wait().unwrap();
        match &outcome {
            SessionOutcome::Rejected(RejectReason::NoiseBudget {
                output,
                bound: got,
                budget: over,
            }) => {
                // The certificate crossed the wire bit-exactly.
                assert_eq!(*output, 0);
                assert_eq!(got.to_bits(), bound.to_bits());
                assert_eq!(over.to_bits(), budget.to_bits());
            }
            other => panic!("expected NoiseBudget over the wire, got {other:?}"),
        }
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn several_submissions_share_one_session() {
        let (client, key) = keys(8);
        let mut rng = StdRng::seed_from_u64(80);
        let server = CircuitServer::start(key, 2);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();

        let net = xor_chain(1);
        let rounds = [[true, true], [true, false], [false, false]];
        let mut encrypt = |bits: &[bool; 2]| -> Vec<LweCiphertext> {
            bits.iter()
                .map(|&b| client.encrypt_with(b, &mut rng))
                .collect()
        };
        // Lockstep: each submission waited for before the next.
        for (i, bits) in rounds.iter().enumerate() {
            let id = wire.submit(&net, encrypt(bits)).unwrap();
            assert_eq!(id, i as u64, "ids count submissions");
            let (oid, outcome) = wire.wait().unwrap();
            assert_eq!(oid, id);
            let run = outcome.completed().expect("completed");
            assert_eq!(client.decrypt(&run.outputs[0]), bits[0] ^ bits[1]);
        }
        // Queued ahead: all three submitted before the first wait, the
        // outcomes read back in submission order.
        for (i, bits) in rounds.iter().enumerate() {
            let id = wire.submit(&net, encrypt(bits)).unwrap();
            assert_eq!(id, 3 + i as u64, "ids keep counting on the session");
        }
        for (i, bits) in rounds.iter().enumerate() {
            let (oid, outcome) = wire.wait().unwrap();
            assert_eq!(oid, 3 + i as u64);
            let run = outcome.completed().expect("completed");
            assert_eq!(client.decrypt(&run.outputs[0]), bits[0] ^ bits[1]);
        }
        drop(wire);
        assert_eq!(handle.join().unwrap().unwrap(), 6);
    }

    #[test]
    fn malformed_frame_after_handshake_fails_both_ends() {
        let (_, key) = keys(12);
        let server = CircuitServer::start(key, 1);
        let (near, handle) = serve_on_thread(&server);
        let mut wire = SessionClient::connect(near).unwrap();
        // A second hello where a submission is due.
        write_frame(&mut wire.conn, &ClientHello { protocol: PROTOCOL }).unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = wire.wait().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn outcome_frames_roundtrip_every_taxonomy_arm() {
        let mut s = matcha_math::TorusSampler::new(StdRng::seed_from_u64(9));
        let lwe_key = crate::secret::LweSecretKey::generate(16, &mut s);
        let out = LweCiphertext::encrypt(
            matcha_math::Torus32::from_dyadic(1, 3),
            &lwe_key,
            1e-8,
            &mut s,
        );
        let arms = vec![
            SessionOutcome::Completed(SessionRun {
                outputs: vec![out],
                waves: 3,
                scheduled_ops: 9,
                bootstraps: 7,
                elapsed_s: 0.25,
            }),
            SessionOutcome::Faulted("dimension mismatch".into()),
            SessionOutcome::Rejected(RejectReason::QueueFull),
            SessionOutcome::Rejected(RejectReason::QuotaExceeded),
            SessionOutcome::Rejected(RejectReason::DeadlineUnmeetable),
            SessionOutcome::Rejected(RejectReason::InvalidInput),
            SessionOutcome::Rejected(RejectReason::Lint {
                kind: LintKind::DeadNode,
                node: 12,
            }),
            SessionOutcome::Rejected(RejectReason::NoiseBudget {
                output: 1,
                bound: 2.5e-3,
                budget: 1e-6,
            }),
            SessionOutcome::Rejected(RejectReason::NotEquivalent {
                output: 3,
                counterexample: Counterexample::with_widths(
                    vec![
                        true, false, true, true, false, true, false, false, true, false,
                    ],
                    vec![8, 2],
                ),
            }),
            SessionOutcome::Rejected(RejectReason::NotEquivalent {
                output: 0,
                counterexample: Counterexample::with_widths(vec![], vec![]),
            }),
            SessionOutcome::Rejected(RejectReason::Shutdown),
            SessionOutcome::Expired,
            SessionOutcome::Cancelled,
        ];
        for (i, outcome) in arms.into_iter().enumerate() {
            let frame = OutcomeFrame {
                id: i as u64,
                outcome,
            };
            let back = OutcomeFrame::from_bytes(&frame.to_bytes()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn submit_frames_roundtrip_both_kinds() {
        let mut s = matcha_math::TorusSampler::new(StdRng::seed_from_u64(10));
        let lwe_key = crate::secret::LweSecretKey::generate(16, &mut s);
        let net = xor_chain(1);
        let lwe = SubmitCircuit {
            netlist: net.clone(),
            inputs: SessionInputs::Lwe(vec![
                LweCiphertext::encrypt(matcha_math::Torus32::ZERO, &lwe_key, 1e-8, &mut s),
                LweCiphertext::encrypt(matcha_math::Torus32::ZERO, &lwe_key, 1e-8, &mut s),
            ]),
        };
        let packed = SubmitCircuit {
            netlist: net,
            inputs: SessionInputs::Packed(vec![TrlweCiphertext::from_parts(
                s.uniform_poly(32),
                s.uniform_poly(32),
            )]),
        };
        for msg in [lwe, packed] {
            let back = SubmitCircuit::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(back.inputs, msg.inputs);
            assert_eq!(back.netlist.ops(), msg.netlist.ops());
        }
    }

    #[test]
    fn oversized_frame_length_rejected_without_reading_payload() {
        let (mut a, mut b) = duplex();
        // Claim a frame bigger than the cap; send nothing else.
        write_u32(&mut a, FRAME_MAX + 1).unwrap();
        drop(a);
        let err = read_frame_opt::<_, OutcomeFrame>(&mut b).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
