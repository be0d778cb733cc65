//! A tiny fully-encrypted register machine — a working miniature of the
//! TFHE processors that motivate MATCHA (§1 cites a five-stage TFHE
//! RISC-V pipeline running at 1.25 Hz; every cycle is thousands of
//! bootstrapped gates, hence the accelerator).
//!
//! The machine's state (registers) and each instruction's *operation* are
//! encrypted; the evaluator sees only which registers an instruction
//! touches, never what it computes or what the data is. Conditional moves
//! give data-dependent control flow without branching on plaintext.

use crate::alu;
use crate::netlist::{self, CycleInstruction};
use crate::word::EncryptedWord;
use matcha_fft::FftEngine;
use matcha_tfhe::{ClientKey, LweCiphertext, ServerKey};
use rand::Rng;

/// An encrypted 2-bit opcode for the ALU.
#[derive(Clone, Debug)]
pub struct EncryptedOpcode {
    bits: [LweCiphertext; 2],
}

impl EncryptedOpcode {
    /// Encrypts an ALU opcode under the client key.
    pub fn encrypt<R: Rng>(client: &ClientKey, op: alu::AluOp, rng: &mut R) -> Self {
        let b = op.opcode_bits();
        Self {
            bits: [
                client.encrypt_with(b[0], rng),
                client.encrypt_with(b[1], rng),
            ],
        }
    }

    /// The opcode bits (LSB first).
    pub fn bits(&self) -> &[LweCiphertext; 2] {
        &self.bits
    }
}

/// One instruction of the register machine.
#[derive(Clone, Debug)]
pub enum Instruction {
    /// `r[dst] ← ALU(op, r[src1], r[src2])` with an *encrypted* operation.
    Alu {
        /// Encrypted ALU opcode.
        op: EncryptedOpcode,
        /// Destination register index.
        dst: usize,
        /// First source register index.
        src1: usize,
        /// Second source register index.
        src2: usize,
    },
    /// `r[dst] ← flag ? r[src_true] : r[src_false]` with an encrypted flag.
    CMov {
        /// Encrypted selection flag.
        flag: LweCiphertext,
        /// Destination register index.
        dst: usize,
        /// Selected when the flag is true.
        src_true: usize,
        /// Selected when the flag is false.
        src_false: usize,
    },
}

/// The encrypted register machine.
#[derive(Clone, Debug)]
pub struct Processor {
    registers: Vec<EncryptedWord>,
    width: usize,
}

impl Processor {
    /// Creates a machine from initial (encrypted) register contents.
    ///
    /// # Panics
    ///
    /// Panics if the registers are empty or have mismatched widths.
    pub fn new(registers: Vec<EncryptedWord>) -> Self {
        assert!(!registers.is_empty(), "need at least one register");
        let width = registers[0].len();
        assert!(width > 0, "zero-width registers");
        assert!(
            registers.iter().all(|r| r.len() == width),
            "register widths differ"
        );
        Self { registers, width }
    }

    /// Read-only view of a register.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn register(&self, index: usize) -> &EncryptedWord {
        &self.registers[index]
    }

    /// Executes one instruction: runs [`netlist::processor_cycle`] over the
    /// register file, with the opcode bits or the flag as its trailing
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if any register index is out of range.
    fn step<E: FftEngine>(&mut self, server: &ServerKey<E>, instr: &Instruction) {
        let (shape, control) = match *instr {
            Instruction::Alu {
                ref op,
                dst,
                src1,
                src2,
            } => (CycleInstruction::Alu { dst, src1, src2 }, &op.bits()[..]),
            Instruction::CMov {
                ref flag,
                dst,
                src_true,
                src_false,
            } => (
                CycleInstruction::CMov {
                    dst,
                    src_true,
                    src_false,
                },
                std::slice::from_ref(flag),
            ),
        };
        let net = netlist::processor_cycle(self.registers.len(), self.width, shape);
        let mut words: Vec<&[LweCiphertext]> = self.registers.iter().map(Vec::as_slice).collect();
        words.push(control);
        let next = crate::run(server, &net, &words);
        self.registers = next.chunks(self.width).map(<[_]>::to_vec).collect();
    }

    /// Executes a straight-line program.
    pub fn run<E: FftEngine>(&mut self, server: &ServerKey<E>, program: &[Instruction]) {
        for instr in program {
            self.step(server, instr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::AluOp;
    use crate::testutil::setup;
    use crate::word;

    #[test]
    fn single_alu_instruction() {
        let (client, server, mut rng) = setup(901);
        let regs = vec![
            word::encrypt(&client, 5, 3, &mut rng),
            word::encrypt(&client, 3, 3, &mut rng),
            word::encrypt(&client, 0, 3, &mut rng),
        ];
        let mut cpu = Processor::new(regs);
        let instr = Instruction::Alu {
            op: EncryptedOpcode::encrypt(&client, AluOp::Add, &mut rng),
            dst: 2,
            src1: 0,
            src2: 1,
        };
        cpu.step(&server, &instr);
        assert_eq!(word::decrypt(&client, cpu.register(2)), 0); // 5+3 mod 8
        assert_eq!(word::decrypt(&client, cpu.register(0)), 5); // sources intact
    }

    #[test]
    fn program_with_conditional_move() {
        // r2 = r0 XOR r1; r0 = flag ? r2 : r0.
        let (client, server, mut rng) = setup(902);
        let regs = vec![
            word::encrypt(&client, 0b101, 3, &mut rng),
            word::encrypt(&client, 0b011, 3, &mut rng),
            word::encrypt(&client, 0, 3, &mut rng),
        ];
        for flag in [true, false] {
            let mut cpu = Processor::new(regs.clone());
            let program = vec![
                Instruction::Alu {
                    op: EncryptedOpcode::encrypt(&client, AluOp::Xor, &mut rng),
                    dst: 2,
                    src1: 0,
                    src2: 1,
                },
                Instruction::CMov {
                    flag: client.encrypt_with(flag, &mut rng),
                    dst: 0,
                    src_true: 2,
                    src_false: 0,
                },
            ];
            cpu.run(&server, &program);
            let expected = if flag { 0b110 } else { 0b101 };
            assert_eq!(
                word::decrypt(&client, cpu.register(0)),
                expected,
                "flag={flag}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_register_widths_rejected() {
        let (client, _, mut rng) = setup(903);
        let regs = vec![
            word::encrypt(&client, 1, 2, &mut rng),
            word::encrypt(&client, 1, 3, &mut rng),
        ];
        let _ = Processor::new(regs);
    }
}
