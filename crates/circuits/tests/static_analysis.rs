//! Property-based validation of `matcha_tfhe::analyze::simplify`: random
//! netlists must stay output-equivalent after rewriting, and the rewriter
//! must actually discharge the lints it claims to fix.
//!
//! Case counts are small where every gate in both the original and the
//! simplified netlist is a full (TEST_FAST) bootstrap, large where the
//! netlists are evaluated in plaintext or only linted.

use matcha_circuits::analysis;
use matcha_fft::F64Fft;
use matcha_tfhe::analyze::equiv::{self, eval_netlist, EquivBudget};
use matcha_tfhe::circuit::{CircuitNetlist, GateOp};
use matcha_tfhe::{
    demote_sums, lint, simplify, ClientKey, Gate, Gate3, LintKind, ParameterSet, ServerKey,
    Severity,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    client: ClientKey,
    server: ServerKey<F64Fft>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xA11A);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = ServerKey::with_unrolling(&client, engine, 2, &mut rng);
        Fixture { client, server }
    })
}

/// One random op to append, decoded from a raw byte 4-tuple: the first
/// byte picks the kind (weighted toward binary gates), the rest are
/// operand indices folded into range with a modulo, so every tuple is a
/// structurally valid op.
type RandOp = (u8, u8, u8, u8);

fn rand_op() -> impl Strategy<Value = RandOp> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
}

/// Builds a structurally valid netlist from the random spec: a few inputs,
/// then the ops with operands folded into range — every third three-input
/// op a `Sum` riding on the latest majority that carries none yet, where
/// there is one — then a random non-empty subset of nodes marked as
/// outputs.
fn build(n_inputs: usize, ops: &[RandOp], out_picks: &[u8]) -> CircuitNetlist {
    let mut net = CircuitNetlist::new();
    for _ in 0..n_inputs {
        net.input();
    }
    for &(kind, a, b, c) in ops {
        let len = net.len();
        let at = |raw: u8| raw as usize % len;
        // The latest majority a sum can still ride on.
        let free_host = net.ops().iter().rev().find_map(|op| match *op {
            GateOp::Ternary(Gate3::Maj, x, y, z) if net.free_host([x, y, z]).is_ok() => {
                Some([x, y, z])
            }
            _ => None,
        });
        match (kind % 10, kind as usize / 10 % 3, free_host) {
            (0, ..) => net.constant(a % 2 == 0),
            (1 | 2, ..) => net.not(at(a)),
            (3 | 4, ..) => net.mux(at(a), at(b), at(c)),
            (5, 2, Some([x, y, z])) => net.sum(x, y, z),
            (5, gate, _) => net.ternary(Gate3::ALL[gate % 2], at(a), at(b), at(c)),
            _ => net.gate(Gate::ALL[a as usize % Gate::ALL.len()], at(b), at(c)),
        };
    }
    for &pick in out_picks {
        net.mark_output(pick as usize % net.len());
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline soundness property: a simplified netlist decrypts to
    /// the same output bits as the original on encrypted inputs, and when
    /// the rewriter only used bit-exact rules the output ciphertexts are
    /// identical word for word.
    #[test]
    fn simplified_netlists_are_output_equivalent(
        n_inputs in 1usize..4,
        ops in prop::collection::vec(rand_op(), 3..9),
        out_picks in prop::collection::vec(any::<u8>(), 1..4),
        bits in prop::collection::vec(any::<bool>(), 3),
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let net = build(n_inputs, &ops, &out_picks);
        let (small, report) = simplify(&net);
        prop_assert_eq!(small.num_inputs(), net.num_inputs());
        prop_assert!(report.bootstraps_after <= report.bootstraps_before);

        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<_> = (0..n_inputs)
            .map(|i| f.client.encrypt_with(bits[i % bits.len()], &mut rng))
            .collect();
        let raw = net.execute_sequential(&f.server, &inputs);
        let simplified = small.execute_sequential(&f.server, &inputs);

        prop_assert_eq!(raw.outputs.len(), simplified.outputs.len());
        for (a, b) in raw.outputs.iter().zip(&simplified.outputs) {
            prop_assert_eq!(f.client.decrypt(a), f.client.decrypt(b));
            if report.exact {
                prop_assert_eq!(a.mask(), b.mask());
                prop_assert_eq!(a.body(), b.body());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same property in plaintext, where it is cheap enough to hold on
    /// every input assignment of netlists deep enough to have cones to
    /// fuse: the simplified netlist computes the same outputs and never
    /// costs more bootstraps or waves.
    #[test]
    fn simplified_netlists_compute_the_same_function(
        n_inputs in 1usize..6,
        ops in prop::collection::vec(rand_op(), 3..48),
        out_picks in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        let net = build(n_inputs, &ops, &out_picks);
        let (small, report) = simplify(&net);
        prop_assert!(report.bootstraps_after <= report.bootstraps_before);
        prop_assert!(small.depth() <= net.depth());
        prop_assert_eq!(report.exact && report.fused > 0, false);
        for assignment in 0..1u32 << n_inputs {
            let bits: Vec<bool> = (0..n_inputs).map(|i| assignment >> i & 1 == 1).collect();
            prop_assert_eq!(eval_netlist(&net, &bits), eval_netlist(&small, &bits));
        }
        // Its own output is a fixpoint, riding sums and all…
        let (again, second) = simplify(&small);
        prop_assert_eq!(&again, &small);
        prop_assert_eq!(second.riding, report.riding);
        // …and every sum is the parity it rides as, whatever computes it.
        let demoted = demote_sums(&small);
        prop_assert_eq!(demoted.bootstraps(), small.bootstraps() + report.riding);
        prop_assert!(equiv::check(&small, &demoted, EquivBudget::default()).is_equivalent());
    }

    /// The rewriter discharges every lint it claims to handle: no dead
    /// nodes, foldable constants, double-NOTs, or duplicate gates survive
    /// a round of simplification.
    #[test]
    fn simplified_netlists_are_free_of_rewritable_lints(
        n_inputs in 1usize..4,
        ops in prop::collection::vec(rand_op(), 3..12),
        out_picks in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let net = build(n_inputs, &ops, &out_picks);
        let (small, _) = simplify(&net);
        for l in lint(&small) {
            prop_assert!(
                !matches!(
                    l.kind,
                    LintKind::DeadNode
                        | LintKind::ConstantFoldable
                        | LintKind::DoubleNot
                        | LintKind::DuplicateGate
                ),
                "surviving lint {} on simplified netlist",
                l
            );
        }
    }
}

/// Every library lowering is free of error-severity lints, and submits no
/// gate on a constant: the builder restricts those away, so admission's
/// `simplify` has nothing to fold.
#[test]
fn library_lowerings_are_lint_clean_at_error_severity() {
    for (name, net) in analysis::library() {
        let errors: Vec<_> = lint(&net)
            .into_iter()
            .filter(|l| {
                l.kind.severity() >= Severity::Error || l.kind == LintKind::ConstantFoldable
            })
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
        assert_eq!(simplify(&net).1.folded_constants, 0, "{name}");
    }
}
