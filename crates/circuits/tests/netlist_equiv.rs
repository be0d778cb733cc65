//! Scheduled-vs-eager equivalence: every lowered netlist, executed
//! wave-by-wave on the persistent batch pool, must be *bit-identical* to
//! its eager evaluation — `CircuitNetlist::execute_sequential`, one
//! `ServerKey` gate call after another on the calling thread, which is
//! what the word-level functions (`adder::add`, `alu::execute`,
//! `Processor::step`, …) run — across random operands, RNG seeds, and pool
//! thread counts 1/2/4, and must decrypt to its plaintext arithmetic.
//!
//! Case counts are small: every binary gate is a full bootstrap and every
//! mux is two.

use matcha_circuits::netlist::CycleInstruction;
use matcha_circuits::processor::EncryptedOpcode;
use matcha_circuits::{alu, netlist, word};
use matcha_fft::F64Fft;
use matcha_tfhe::{
    CircuitNetlist, ClientKey, GateBatchPool, LweCiphertext, ParameterSet, ServerKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey<F64Fft>>,
    /// One persistent pool per tested thread count.
    pools: Vec<GateBatchPool<F64Fft>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5C8ED);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = Arc::new(ServerKey::with_unrolling(&client, engine, 2, &mut rng));
        let pools = [1, 2, 4]
            .iter()
            .map(|&t| GateBatchPool::new(Arc::clone(&server), t))
            .collect();
        Fixture {
            client,
            server,
            pools,
        }
    })
}

/// Runs `net` on every pool (threads 1, 2, 4) and on the eager sequential
/// executor; asserts all four output vectors are bit-identical and returns
/// one of them.
fn run_everywhere(
    f: &Fixture,
    net: &CircuitNetlist,
    inputs: &[LweCiphertext],
) -> Vec<LweCiphertext> {
    let sequential = net.execute_sequential(f.server.as_ref(), inputs);
    for pool in &f.pools {
        let scheduled = net.execute(pool, inputs);
        assert_eq!(
            scheduled.outputs,
            sequential.outputs,
            "threads={}",
            pool.threads()
        );
    }
    sequential.outputs
}

fn decrypt_word(f: &Fixture, bits: &[LweCiphertext]) -> u64 {
    word::decrypt(&f.client, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn adder_netlist_equivalent(x in 0u64..16, y in 0u64..16, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = word::encrypt(&f.client, x, 4, &mut rng);
        let b = word::encrypt(&f.client, y, 4, &mut rng);

        let net = netlist::ripple_adder(4);
        let inputs: Vec<LweCiphertext> = a.iter().chain(b.iter()).cloned().collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(decrypt_word(f, &outs[..4]), (x + y) & 0xF);
        prop_assert_eq!(f.client.decrypt(&outs[4]), x + y > 0xF);
    }

    #[test]
    fn subtractor_netlist_equivalent(x in 0u64..8, y in 0u64..8, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = word::encrypt(&f.client, x, 3, &mut rng);
        let b = word::encrypt(&f.client, y, 3, &mut rng);

        let net = netlist::ripple_subtractor(3);
        let inputs: Vec<LweCiphertext> = a.iter().chain(b.iter()).cloned().collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(decrypt_word(f, &outs[..3]), x.wrapping_sub(y) & 0x7);
        prop_assert_eq!(f.client.decrypt(&outs[3]), x >= y);
    }

    #[test]
    fn comparator_netlist_equivalent(x in 0u64..32, y in 0u64..32, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        // Width 5 exercises the odd-layer passthrough of the AND tree.
        let a = word::encrypt(&f.client, x, 5, &mut rng);
        let b = word::encrypt(&f.client, y, 5, &mut rng);

        let net = netlist::eq_comparator(5);
        let inputs: Vec<LweCiphertext> = a.iter().chain(b.iter()).cloned().collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(f.client.decrypt(&outs[0]), x == y);
    }

    #[test]
    fn mux_tree_netlist_equivalent(idx in 0u64..4, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let width = 2;
        let words: Vec<_> = (0..4u64)
            .map(|v| word::encrypt(&f.client, v ^ 0b01, width, &mut rng))
            .collect();
        let index = word::encrypt(&f.client, idx, 2, &mut rng);

        let net = netlist::mux_tree(2, width);
        let inputs: Vec<LweCiphertext> = index
            .iter()
            .chain(words.iter().flatten())
            .cloned()
            .collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(decrypt_word(f, &outs), idx ^ 0b01);
    }

    // ---- the wider lowerings, width 4 ----

    #[test]
    fn mul_netlist_bit_identical_to_eager(x in 0u64..16, y in 0u64..16, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = word::encrypt(&f.client, x, 4, &mut rng);
        let b = word::encrypt(&f.client, y, 4, &mut rng);

        let net = netlist::mul(4);
        let inputs: Vec<LweCiphertext> = a.iter().chain(b.iter()).cloned().collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(decrypt_word(f, &outs), x * y);
    }

    #[test]
    fn alu_netlist_bit_identical_to_eager(
        op_idx in 0usize..4,
        x in 0u64..16,
        y in 0u64..16,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let op = [alu::AluOp::Add, alu::AluOp::Sub, alu::AluOp::And, alu::AluOp::Xor][op_idx];
        let opcode = EncryptedOpcode::encrypt(&f.client, op, &mut rng);
        let a = word::encrypt(&f.client, x, 4, &mut rng);
        let b = word::encrypt(&f.client, y, 4, &mut rng);

        let net = netlist::alu(4);
        let inputs: Vec<LweCiphertext> = opcode
            .bits()
            .iter()
            .chain(a.iter())
            .chain(b.iter())
            .cloned()
            .collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(decrypt_word(f, &outs), op.eval(x, y, 4));
    }

    #[test]
    fn popcount_netlist_bit_identical_to_eager(value in 0u64..256, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = word::encrypt(&f.client, value, 8, &mut rng);

        let net = netlist::popcount(8);
        let outs = run_everywhere(f, &net, &bits);

        prop_assert_eq!(decrypt_word(f, &outs), u64::from(value.count_ones()));
    }

    #[test]
    fn shifter_netlists_bit_identical_to_eager(
        value in 0u64..16,
        amt in 0u64..8,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        // 3 amount bits over width 4 exercise the fully collapsed
        // shift-by-4 level on both directions.
        let a = word::encrypt(&f.client, value, 4, &mut rng);
        let amount = word::encrypt(&f.client, amt, 3, &mut rng);
        let inputs: Vec<LweCiphertext> = amount.iter().chain(a.iter()).cloned().collect();

        let outs_l = run_everywhere(f, &netlist::shl(4, 3), &inputs);
        let expect_l = if amt >= 4 { 0 } else { (value << amt) & 0xF };
        prop_assert_eq!(decrypt_word(f, &outs_l), expect_l);

        let outs_r = run_everywhere(f, &netlist::shr(4, 3), &inputs);
        prop_assert_eq!(
            decrypt_word(f, &outs_r),
            value.checked_shr(amt as u32).unwrap_or(0)
        );
    }

    #[test]
    fn processor_cycle_netlist_bit_identical_to_eager_step(
        op_idx in 0usize..4,
        x in 0u64..16,
        y in 0u64..16,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let op = [alu::AluOp::Add, alu::AluOp::Sub, alu::AluOp::And, alu::AluOp::Xor][op_idx];
        let opcode = EncryptedOpcode::encrypt(&f.client, op, &mut rng);
        let r0 = word::encrypt(&f.client, x, 4, &mut rng);
        let r1 = word::encrypt(&f.client, y, 4, &mut rng);

        let instr = CycleInstruction::Alu { dst: 0, src1: 0, src2: 1 };
        let net = netlist::processor_cycle(2, 4, instr);
        let inputs: Vec<LweCiphertext> = r0
            .iter()
            .chain(r1.iter())
            .chain(opcode.bits().iter())
            .cloned()
            .collect();
        let outs = run_everywhere(f, &net, &inputs);

        // The whole register file comes back: dst computed, r1 passthrough.
        prop_assert_eq!(&outs[4..], &r1[..]);
        prop_assert_eq!(decrypt_word(f, &outs[..4]), op.eval(x, y, 4));
        prop_assert_eq!(decrypt_word(f, &outs[4..]), y);
    }

    #[test]
    fn cmov_cycle_netlist_bit_identical_to_eager_step(
        flag in any::<bool>(),
        x in 0u64..16,
        y in 0u64..16,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc_flag = f.client.encrypt_with(flag, &mut rng);
        let r0 = word::encrypt(&f.client, x, 4, &mut rng);
        let r1 = word::encrypt(&f.client, y, 4, &mut rng);

        let instr = CycleInstruction::CMov { dst: 1, src_true: 0, src_false: 1 };
        let net = netlist::processor_cycle(2, 4, instr);
        let inputs: Vec<LweCiphertext> = r0
            .iter()
            .chain(r1.iter())
            .chain(std::iter::once(&enc_flag))
            .cloned()
            .collect();
        let outs = run_everywhere(f, &net, &inputs);

        prop_assert_eq!(&outs[..4], &r0[..]);
        prop_assert_eq!(decrypt_word(f, &outs[..4]), x);
        prop_assert_eq!(decrypt_word(f, &outs[4..]), if flag { x } else { y });
    }
}

// Width-8 legs of the same equivalences: the real library entries, with a
// single random case each — the width-4 blocks above carry the case
// diversity, these pin the exact shapes the server and bench run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn mul8_and_mul_low8_netlists_bit_identical_to_eager(
        x in 0u64..256,
        y in 0u64..256,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = word::encrypt(&f.client, x, 8, &mut rng);
        let b = word::encrypt(&f.client, y, 8, &mut rng);
        let inputs: Vec<LweCiphertext> = a.iter().chain(b.iter()).cloned().collect();

        let outs = run_everywhere(f, &netlist::mul(8), &inputs);
        prop_assert_eq!(decrypt_word(f, &outs), x * y);

        let outs_low = run_everywhere(f, &netlist::mul_low(8), &inputs);
        prop_assert_eq!(decrypt_word(f, &outs_low), (x * y) & 0xFF);
    }

    #[test]
    fn alu8_netlist_bit_identical_to_eager(
        op_idx in 0usize..4,
        x in 0u64..256,
        y in 0u64..256,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let op = [alu::AluOp::Add, alu::AluOp::Sub, alu::AluOp::And, alu::AluOp::Xor][op_idx];
        let opcode = EncryptedOpcode::encrypt(&f.client, op, &mut rng);
        let a = word::encrypt(&f.client, x, 8, &mut rng);
        let b = word::encrypt(&f.client, y, 8, &mut rng);

        let inputs: Vec<LweCiphertext> = opcode
            .bits()
            .iter()
            .chain(a.iter())
            .chain(b.iter())
            .cloned()
            .collect();
        let outs = run_everywhere(f, &netlist::alu(8), &inputs);
        prop_assert_eq!(decrypt_word(f, &outs), op.eval(x, y, 8));
    }

    #[test]
    fn popcount16_netlist_bit_identical_to_eager(value in 0u64..65536, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = word::encrypt(&f.client, value, 16, &mut rng);

        let outs = run_everywhere(f, &netlist::popcount(16), &bits);
        prop_assert_eq!(decrypt_word(f, &outs), u64::from(value.count_ones()));
    }

    #[test]
    fn shifter8_netlists_bit_identical_to_eager(
        value in 0u64..256,
        amt in 0u64..16,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = word::encrypt(&f.client, value, 8, &mut rng);
        let amount = word::encrypt(&f.client, amt, 4, &mut rng);
        let inputs: Vec<LweCiphertext> = amount.iter().chain(a.iter()).cloned().collect();

        let outs_l = run_everywhere(f, &netlist::shl(8, 4), &inputs);
        let expect_l = if amt >= 8 { 0 } else { (value << amt) & 0xFF };
        prop_assert_eq!(decrypt_word(f, &outs_l), expect_l);

        let outs_r = run_everywhere(f, &netlist::shr(8, 4), &inputs);
        prop_assert_eq!(
            decrypt_word(f, &outs_r),
            value.checked_shr(amt as u32).unwrap_or(0)
        );
    }
}
