//! Analytic worst-case noise: the per-operation model and the per-output
//! failure certificates it yields.

use crate::circuit::{CircuitNetlist, GateOp};
use crate::gates::{Gate, Gate3, GateDesc};
use crate::params::ParameterSet;

/// The worst-case per-operation noise variances of this crate's gate
/// bootstrap pipeline, derived from a [`ParameterSet`] and the
/// bootstrapping-key unroll factor `m`. All variances are in squared
/// torus units (the torus is `[-1/2, 1/2)`).
///
/// The model mirrors the implementation, not a generic TFHE bound:
///
/// * **Blind rotate** ([`NoiseModel::v_blind_rotate`]) — `⌈n/m⌉`
///   external products, each against a bundle `1 + Σ_p (X^{e_p} − 1)·BK_p`
///   over the group's `2^m − 1` pattern keys. A pattern key's row carries
///   the ring noise it was encrypted with plus what storing it added: the
///   key is kept in 32-bit words of `2^e` torus units
///   ([`matcha_fft::key_exponent`]), narrowed so that only the body's
///   rounding reaches the phase ([`crate::bku`]) — a uniform step of `2^e`
///   per spectral component, `(2^e/2³²)²/12` each, which the inverse
///   transform averages over `N/2` points: `4^e/(6N)` raw units² per
///   coefficient. Scaling a key by `X^e − 1` doubles its per-coefficient
///   noise variance, every nonempty pattern is charged, digits are taken at
///   the worst-case magnitude `Bg/2`, and the gadget's `ℓ`-level
///   approximation contributes `(1 + N)·(2^{-ℓ·log Bg})²` per product.
/// * **Key switch** (`v_key_switch`) — digit multiples are
///   pre-encrypted (`KeySwitchKey` stores `v·s′_i/2^{(j+1)γ}` entries), so
///   each of the `N·t` digits subtracts exactly one fresh-noise sample;
///   rounding each coefficient to `t·γ` bits adds a half-step per
///   coefficient, all `N` charged.
/// * **Mod switch** (`v_mod_switch`) — rounding `n + 1`
///   torus coefficients to multiples of `1/2N`, uniform within a step.
///
/// A bootstrap switches its input first, so the key switch and the mod
/// switch are charged to the *decision*
/// ([`decision_failure`](NoiseModel::decision_failure)), and a value never
/// carries a switch: a fresh input carries the ring noise it was encrypted
/// with ([`v_fresh`](NoiseModel::v_fresh)), a bootstrapped gate output
/// (two inputs or three) [`v_bootstrapped`](NoiseModel::v_bootstrapped)
/// `= v_blind_rotate` regardless of its inputs (the reset that makes
/// gate-level TFHE compose), a mux output two blind rotations, and the
/// riding sum of an adder cell its operands' noise on top of two — **not**
/// a reset ([`sum_variance`](NoiseModel::sum_variance)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    pub(super) v_fresh: f64,
    pub(super) v_blind_rotate: f64,
    pub(super) v_key_switch: f64,
    pub(super) v_mod_switch: f64,
    /// `1/2N`: how far the decision of accumulator coefficient `j` sits
    /// from coefficient 0's, per `j`.
    pub(super) coefficient_step: f64,
}

/// Margin charged to the final decryption of each output: the symmetric
/// ±1/8 encoding decides on the sign, so an error of 1/8 toward the
/// boundary is what flips a decrypted bit. (The empirical
/// [`noise`](crate::noise) harness documents the tighter 1/16 acceptance
/// threshold it checks samples against; the decision margin itself is
/// 1/8.)
const DECRYPT_MARGIN: f64 = 0.125;
/// The highest accumulator coefficient an adder cell's sum reads: it
/// decides `2/2N` closer to the boundary than coefficient 0 does.
const SUM_COEFFICIENT: f64 = 2.0;

impl NoiseModel {
    /// Builds the model for `params` at bootstrapping-key unroll `m`.
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is outside `1..=8` (the [`ServerKey`] bound).
    ///
    /// [`ServerKey`]: crate::gates::ServerKey
    pub fn new(params: &ParameterSet, unroll: usize) -> Self {
        assert!(
            (1..=8).contains(&unroll),
            "unroll factor {unroll} outside 1..=8"
        );
        let n = params.lwe_dimension as f64;
        let big_n = params.ring_degree as f64;
        let groups = params.lwe_dimension.div_ceil(unroll) as f64;
        let patterns = ((1usize << unroll) - 1) as f64;
        let bg = (params.decomp_base_log as f64).exp2();
        let ell = params.decomp_levels as f64;
        // A stored key row: its ring noise, and the body's rounding to
        // words of `2^e` (step² / 12 per spectral component, averaged over
        // the N/2 points a coefficient is the mean of).
        let key_step = (f64::from(matcha_fft::key_exponent(params.ring_degree)) - 32.0).exp2();
        let v_key_row =
            params.ring_noise_stdev * params.ring_noise_stdev + key_step * key_step / (6.0 * big_n);
        // `(X^e − 1)` doubles a pattern key's per-coefficient variance.
        let v_bundle = 2.0 * patterns * v_key_row;
        let eps_bg = (-(params.decomp_base_log as f64 * params.decomp_levels as f64)).exp2();
        let v_blind_rotate = groups
            * (2.0 * ell * big_n * (bg * bg / 4.0) * v_bundle + (1.0 + big_n) * eps_bg * eps_bg);
        let eps_ks = (-(params.ks_base_log as f64 * params.ks_levels as f64)).exp2();
        let v_key_switch =
            big_n * params.ks_levels as f64 * params.lwe_noise_stdev * params.lwe_noise_stdev
                + big_n * (eps_ks / 2.0) * (eps_ks / 2.0);
        let step = 1.0 / (2.0 * big_n);
        let v_mod_switch = (n + 1.0) * step * step / 12.0;
        Self {
            v_fresh: params.ring_noise_stdev * params.ring_noise_stdev,
            v_blind_rotate,
            v_key_switch,
            v_mod_switch,
            coefficient_step: step,
        }
    }

    /// Variance of a fresh input: a client encryption under the extracted
    /// key, or a bit unpacked from a packed upload — both at the ring noise.
    pub fn v_fresh(&self) -> f64 {
        self.v_fresh
    }

    /// Worst-case variance added by one blind rotation.
    pub fn v_blind_rotate(&self) -> f64 {
        self.v_blind_rotate
    }

    /// Variance of a bootstrapped gate output: one blind rotation,
    /// extracted — independent of the inputs: the noise reset.
    pub fn v_bootstrapped(&self) -> f64 {
        self.v_blind_rotate
    }

    /// Variance of a mux output: two bootstraps' outputs summed.
    pub fn v_mux_output(&self) -> f64 {
        2.0 * self.v_blind_rotate
    }

    /// A Gaussian tail bound on the probability that an error of the
    /// given variance exceeds `margin` in absolute value:
    /// `min(1, 2·exp(−margin²/2σ²))`. This dominates the exact
    /// `erfc(margin/σ√2)` for every useful margin (z ≳ 0.8), so the
    /// certificate stays a true upper bound. Zero variance means zero
    /// failure probability (trivial ciphertexts).
    pub(super) fn tail_bound(margin: f64, variance: f64) -> f64 {
        if variance <= 0.0 {
            return 0.0;
        }
        let z2 = margin * margin / variance;
        (2.0 * (-z2 / 2.0).exp()).min(1.0)
    }

    /// Failure-probability bound of one gate's bootstrap decision, from
    /// its record: the margin against `Σ wᵢ²·vᵢ` — operand `i`'s variance
    /// `variances[i]` through its weight in the linear part — plus the key
    /// switch and the mod switch the linear part goes through before the
    /// blind rotation reads it.
    pub fn decision_failure(&self, desc: &GateDesc, variances: &[f64]) -> f64 {
        debug_assert_eq!(variances.len(), desc.arity, "{}", desc.name);
        let terms = desc.weights.iter().zip(variances);
        let v = terms.fold(0.0, |v, (&w, &vi)| v + f64::from(w * w) * vi);
        Self::tail_bound(desc.margin, v + self.v_key_switch + self.v_mod_switch)
    }

    /// Summed failure bound of a mux's two bootstrap decisions, one per
    /// lane: `AND(sel, a)` and `AND(¬sel, b)`.
    pub(super) fn mux_failure(&self, v_sel: f64, va: f64, vb: f64) -> f64 {
        self.decision_failure(Gate::And.desc(), &[v_sel, va])
            + self.decision_failure(Gate::AndNY.desc(), &[v_sel, vb])
    }

    /// Failure bound of decrypting a value of variance `v`: the tail past
    /// the 1/8 margin. The encoding is `±1/8` and decryption reads the
    /// sign, so 1/8 toward zero is what flips the bit — every certificate
    /// is computed at this margin; 1/16 is the stricter threshold the
    /// empirical [`noise`](crate::noise) harness accepts *samples* against,
    /// not a bound of this model.
    pub fn decrypt_failure(&self, v: f64) -> f64 {
        Self::tail_bound(DECRYPT_MARGIN, v)
    }

    /// Variance of an adder cell's riding sum over operands of variances
    /// `va`, `vb`, `vc`: the linear part it keeps — the operands', at unit
    /// coefficients, under the extracted key and never switched — minus the
    /// twin, two extracted coefficients of the host's accumulator (two
    /// blind rotations' worth). Not a reset: the operands' noise stays,
    /// which is what the next consumer decides on and what the client
    /// decrypts.
    ///
    /// Like [`v_mux_output`](NoiseModel::v_mux_output)'s two lanes, the two
    /// coefficients are charged as independent. They are distinct
    /// coefficients of one accumulator, so what could correlate them is a
    /// structured digit polynomial, and the only one is the body's top
    /// level (`±128` everywhere, the rotated constant test vector) against
    /// `Bg²/12` for the other five — 3.6 % of a step's variance — while
    /// the model's `Bg²/4` digit bound leaves a factor 3 over the measured
    /// per-coefficient variance (4.0e-5 … 4.6e-5 at the paper's parameters,
    /// pairwise `|ρ| ≤ 0.064` over coefficients 0, 1, 2 in 600-cell
    /// chains). Doubling the carry's output instead would put
    /// `4·v_bootstrapped` on top of the operands, which a chained cell's
    /// decryption misses the default budget with at every unroll.
    pub fn sum_variance(&self, va: f64, vb: f64, vc: f64) -> f64 {
        va + vb + vc + 2.0 * self.v_blind_rotate
    }

    /// Failure bound of the two extra decisions an adder cell's sum rests
    /// on: accumulator coefficient `j` is the sign of the host's switched
    /// linear part at a phase shifted by `j/2N`, so coefficients 1 and 2
    /// each decide at a margin up to `2/2N` short of the majority's 1/8 —
    /// two terms of the union bound on top of the host's own
    /// [`decision_failure`](NoiseModel::decision_failure), under the same
    /// independence as [`sum_variance`](NoiseModel::sum_variance).
    pub fn sum_failure(&self, va: f64, vb: f64, vc: f64) -> f64 {
        let margin = Gate3::Maj.desc().margin - SUM_COEFFICIENT * self.coefficient_step;
        let v = va + vb + vc + self.v_key_switch + self.v_mod_switch;
        2.0 * Self::tail_bound(margin, v)
    }
}

/// The analytic noise certificate for one marked output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutputNoise {
    /// The output's node index in the netlist.
    pub node: usize,
    /// Worst-case variance of the output's value.
    pub variance: f64,
    /// Union bound on the probability that this output decrypts wrong:
    /// the sum of every bootstrap-decision failure bound in the output's
    /// backward cone, plus the final decryption tail. Clamped to 1.
    pub failure_prob: f64,
}

/// The noise section of a [`NetlistReport`](super::NetlistReport).
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseReport {
    /// Worst-case value variance per node, in netlist order.
    pub node_variance: Vec<f64>,
    /// Per-output certificates, in marking order.
    pub outputs: Vec<OutputNoise>,
    /// The parameter-derived model the certificates used.
    pub model: NoiseModel,
}

impl NoiseReport {
    /// The largest per-output failure bound (0 when nothing is marked).
    pub(crate) fn max_failure_prob(&self) -> f64 {
        self.outputs
            .iter()
            .map(|o| o.failure_prob)
            .fold(0.0, f64::max)
    }
}

pub(super) fn noise_report(net: &CircuitNetlist, model: NoiseModel) -> NoiseReport {
    let n = net.len();
    let mut variance = vec![0.0f64; n];
    // Failure bound of each node's own bootstrap decisions (0 for free ops).
    let mut decision = vec![0.0f64; n];
    for (id, &op) in net.ops().iter().enumerate() {
        match op {
            GateOp::Input(_) => variance[id] = model.v_fresh(),
            GateOp::Constant(_) => variance[id] = 0.0,
            GateOp::Not(a) => variance[id] = variance[a],
            GateOp::Mux { sel, a, b } => {
                decision[id] = model.mux_failure(variance[sel], variance[a], variance[b]);
                variance[id] = model.v_mux_output();
            }
            GateOp::Sum(a, b, c) => {
                decision[id] = model.sum_failure(variance[a], variance[b], variance[c]);
                variance[id] = model.sum_variance(variance[a], variance[b], variance[c]);
            }
            _ => {
                let (desc, operands) = op.gate().expect("every other op is a gate");
                let v = operands.map(|o| variance[o]);
                decision[id] = model.decision_failure(desc, &v[..desc.arity]);
                variance[id] = model.v_bootstrapped();
            }
        }
    }
    let mut outputs = Vec::with_capacity(net.outputs().len());
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &out in net.outputs() {
        // Union bound over the output's backward cone.
        seen.iter_mut().for_each(|s| *s = false);
        let mut p = model.decrypt_failure(variance[out]);
        seen[out] = true;
        stack.push(out);
        while let Some(id) = stack.pop() {
            p += decision[id];
            for operand in net.ops()[id].operands().into_iter().flatten() {
                if !seen[operand] {
                    seen[operand] = true;
                    stack.push(operand);
                }
            }
        }
        outputs.push(OutputNoise {
            node: out,
            variance: variance[out],
            failure_prob: p.min(1.0),
        });
    }
    NoiseReport {
        node_variance: variance,
        outputs,
        model,
    }
}
