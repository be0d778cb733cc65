//! A small encrypted ALU — the essence of the TFHE processors that motivate
//! MATCHA (§1's 1.25 Hz TFHE RISC-V CPU).
//!
//! The ALU computes all four operations and selects the requested result
//! with a mux tree driven by an *encrypted* opcode, so the evaluator learns
//! neither the operands nor which operation ran.

use crate::netlist;
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::{LweCiphertext, ServerKey};

/// ALU operations, encoded in two opcode bits (LSB first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AluOp {
    /// `a + b` (wrapping).
    Add = 0b00,
    /// `a − b` (wrapping).
    Sub = 0b01,
    /// Bitwise AND.
    And = 0b10,
    /// Bitwise XOR.
    Xor = 0b11,
}

impl AluOp {
    /// The plaintext semantics, for test oracles.
    pub fn eval(self, a: u64, b: u64, width: usize) -> u64 {
        let value = match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Xor => a ^ b,
        };
        value & crate::word::max_value(width)
    }

    /// The two opcode bits, LSB first.
    pub fn opcode_bits(self) -> [bool; 2] {
        let code = self as u8;
        [code & 1 == 1, code & 2 == 2]
    }
}

/// Evaluates the ALU under encryption: `opcode` is a 2-bit encrypted
/// operation selector ([`netlist::alu`]: carry-free add and subtract
/// chains, word-wise AND and XOR, and a 4-way selection tree — 133
/// bootstraps at 8 bits).
///
/// # Panics
///
/// Panics if the operand widths differ or `opcode.len() != 2`.
pub fn execute<E: FftEngine>(
    server: &ServerKey<E>,
    opcode: &[LweCiphertext],
    a: &EncryptedWord,
    b: &EncryptedWord,
) -> EncryptedWord {
    assert_eq!(a.len(), b.len(), "operand widths differ");
    assert_eq!(opcode.len(), 2, "the ALU has a 2-bit opcode");
    crate::run(server, &netlist::alu(a.len()), &[opcode, a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn opcode_bits_roundtrip() {
        assert_eq!(AluOp::Add.opcode_bits(), [false, false]);
        assert_eq!(AluOp::Sub.opcode_bits(), [true, false]);
        assert_eq!(AluOp::And.opcode_bits(), [false, true]);
        assert_eq!(AluOp::Xor.opcode_bits(), [true, true]);
    }

    #[test]
    fn plaintext_oracle() {
        assert_eq!(AluOp::Add.eval(7, 9, 4), 0);
        assert_eq!(AluOp::Sub.eval(3, 5, 4), 14);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010, 4), 0b1000);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010, 4), 0b0110);
        assert_eq!(AluOp::And.eval(0x1F, 0x1F, 4), 0xF);
    }

    #[test]
    fn encrypted_alu_all_ops() {
        let (client, server, mut rng) = setup(601);
        let width = 3;
        let (x, y) = (0b101u64, 0b011u64);
        let a = word::encrypt(&client, x, width, &mut rng);
        let b = word::encrypt(&client, y, width, &mut rng);
        for op in [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Xor] {
            let bits = op.opcode_bits();
            let opcode = vec![
                client.encrypt_with(bits[0], &mut rng),
                client.encrypt_with(bits[1], &mut rng),
            ];
            let out = execute(&server, &opcode, &a, &b);
            assert_eq!(
                word::decrypt(&client, &out),
                op.eval(x, y, width),
                "{op:?}({x:b}, {y:b})"
            );
        }
    }
}
