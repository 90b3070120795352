//! RV32I instruction model for the supported subset: decode, encode, a
//! disassembly `Display`, and a tiny label-resolving builder used by the
//! bundled workloads, the conformance suite, and the torture generator.

use crate::{IngestError, Rv32Program, RV_TEXT_BASE};
use std::fmt;

/// Branch comparison conditions (`funct3` of the BRANCH opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Load/store access widths.  `Bu`/`Hu` are load-only (zero-extending).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemW {
    B,
    H,
    W,
    Bu,
    Hu,
}

/// Register-register ALU operations.  The immediate forms share the enum;
/// `Sub` has no immediate form (the assembler uses `addi` with a negated
/// immediate instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
}

/// One decoded instruction of the supported subset.
///
/// Offsets (`off`) are byte offsets relative to the instruction's own pc,
/// exactly as the immediate encodes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rv32Inst {
    Lui {
        rd: u8,
        imm20: i32,
    },
    Auipc {
        rd: u8,
        imm20: i32,
    },
    Jal {
        rd: u8,
        off: i32,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Branch {
        cond: BrCond,
        rs1: u8,
        rs2: u8,
        off: i32,
    },
    Load {
        width: MemW,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Store {
        width: MemW,
        rs1: u8,
        rs2: u8,
        imm: i32,
    },
    AluImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Alu {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Ecall,
}

/// Names of every instruction kind in the supported subset, in a fixed
/// order.  The conformance gate checks that each one executes through
/// translate+emulate and matches the reference interpreter — the RV32
/// analogue of the machine-ISA `--check-coverage` 35/35 gate.
pub const ALL_KINDS: [&str; 38] = [
    "lui", "auipc", "jal", "jalr", // control + upper-immediate
    "beq", "bne", "blt", "bge", "bltu", "bgeu", // branches
    "lb", "lh", "lw", "lbu", "lhu", // loads
    "sb", "sh", "sw", // stores
    "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai", // ALU immediate
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", // ALU register
    "ecall",
];

impl Rv32Inst {
    /// The `ALL_KINDS` name of this instruction.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Rv32Inst::Lui { .. } => "lui",
            Rv32Inst::Auipc { .. } => "auipc",
            Rv32Inst::Jal { .. } => "jal",
            Rv32Inst::Jalr { .. } => "jalr",
            Rv32Inst::Branch { cond, .. } => match cond {
                BrCond::Eq => "beq",
                BrCond::Ne => "bne",
                BrCond::Lt => "blt",
                BrCond::Ge => "bge",
                BrCond::Ltu => "bltu",
                BrCond::Geu => "bgeu",
            },
            Rv32Inst::Load { width, .. } => match width {
                MemW::B => "lb",
                MemW::H => "lh",
                MemW::W => "lw",
                MemW::Bu => "lbu",
                MemW::Hu => "lhu",
            },
            Rv32Inst::Store { width, .. } => match width {
                MemW::B => "sb",
                MemW::H => "sh",
                _ => "sw",
            },
            Rv32Inst::AluImm { op, .. } => match op {
                AluOp::Add => "addi",
                AluOp::Slt => "slti",
                AluOp::Sltu => "sltiu",
                AluOp::Xor => "xori",
                AluOp::Or => "ori",
                AluOp::And => "andi",
                AluOp::Sll => "slli",
                AluOp::Srl => "srli",
                AluOp::Sra => "srai",
                AluOp::Sub => "addi", // unreachable by construction
            },
            Rv32Inst::Alu { op, .. } => match op {
                AluOp::Add => "add",
                AluOp::Sub => "sub",
                AluOp::Sll => "sll",
                AluOp::Slt => "slt",
                AluOp::Sltu => "sltu",
                AluOp::Xor => "xor",
                AluOp::Srl => "srl",
                AluOp::Sra => "sra",
                AluOp::Or => "or",
                AluOp::And => "and",
            },
            Rv32Inst::Ecall => "ecall",
        }
    }
}

impl fmt::Display for Rv32Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.kind_name();
        match *self {
            Rv32Inst::Lui { rd, imm20 } | Rv32Inst::Auipc { rd, imm20 } => {
                write!(f, "{name} x{rd}, {imm20:#x}")
            }
            Rv32Inst::Jal { rd, off } => write!(f, "{name} x{rd}, {off:+}"),
            Rv32Inst::Jalr { rd, rs1, imm } => write!(f, "{name} x{rd}, x{rs1}, {imm}"),
            Rv32Inst::Branch { rs1, rs2, off, .. } => {
                write!(f, "{name} x{rs1}, x{rs2}, {off:+}")
            }
            Rv32Inst::Load { rd, rs1, imm, .. } => write!(f, "{name} x{rd}, {imm}(x{rs1})"),
            Rv32Inst::Store { rs1, rs2, imm, .. } => write!(f, "{name} x{rs2}, {imm}(x{rs1})"),
            Rv32Inst::AluImm { rd, rs1, imm, .. } => write!(f, "{name} x{rd}, x{rs1}, {imm}"),
            Rv32Inst::Alu { rd, rs1, rs2, .. } => write!(f, "{name} x{rd}, x{rs1}, x{rs2}"),
            Rv32Inst::Ecall => write!(f, "ecall"),
        }
    }
}

fn sext(v: u32, bits: u32) -> i32 {
    ((v << (32 - bits)) as i32) >> (32 - bits)
}

fn rd(w: u32) -> u8 {
    ((w >> 7) & 0x1f) as u8
}
fn rs1(w: u32) -> u8 {
    ((w >> 15) & 0x1f) as u8
}
fn rs2(w: u32) -> u8 {
    ((w >> 20) & 0x1f) as u8
}
fn funct3(w: u32) -> u32 {
    (w >> 12) & 7
}
fn funct7(w: u32) -> u32 {
    w >> 25
}
fn imm_i(w: u32) -> i32 {
    sext(w >> 20, 12)
}
fn imm_s(w: u32) -> i32 {
    sext((funct7(w) << 5) | ((w >> 7) & 0x1f), 12)
}
fn imm_b(w: u32) -> i32 {
    sext(
        ((w >> 31) << 12)
            | (((w >> 7) & 1) << 11)
            | (((w >> 25) & 0x3f) << 5)
            | (((w >> 8) & 0xf) << 1),
        13,
    )
}
fn imm_u(w: u32) -> i32 {
    ((w >> 12) & 0xf_ffff) as i32
}
fn imm_j(w: u32) -> i32 {
    sext(
        ((w >> 31) << 20)
            | (((w >> 12) & 0xff) << 12)
            | (((w >> 20) & 1) << 11)
            | (((w >> 21) & 0x3ff) << 1),
        21,
    )
}

/// Decode one instruction word.  `pc` only appears in error values, so
/// plain decode contexts can pass 0 via [`decode`].
pub fn decode_at(pc: u32, w: u32) -> Result<Rv32Inst, IngestError> {
    let bad = || IngestError::BadWord { pc, word: w };
    let unsupported = |what| IngestError::Unsupported { pc, word: w, what };
    match w & 0x7f {
        0x37 => Ok(Rv32Inst::Lui {
            rd: rd(w),
            imm20: imm_u(w),
        }),
        0x17 => Ok(Rv32Inst::Auipc {
            rd: rd(w),
            imm20: imm_u(w),
        }),
        0x6f => Ok(Rv32Inst::Jal {
            rd: rd(w),
            off: imm_j(w),
        }),
        0x67 => {
            if funct3(w) != 0 {
                return Err(bad());
            }
            Ok(Rv32Inst::Jalr {
                rd: rd(w),
                rs1: rs1(w),
                imm: imm_i(w),
            })
        }
        0x63 => {
            let cond = match funct3(w) {
                0 => BrCond::Eq,
                1 => BrCond::Ne,
                4 => BrCond::Lt,
                5 => BrCond::Ge,
                6 => BrCond::Ltu,
                7 => BrCond::Geu,
                _ => return Err(bad()),
            };
            Ok(Rv32Inst::Branch {
                cond,
                rs1: rs1(w),
                rs2: rs2(w),
                off: imm_b(w),
            })
        }
        0x03 => {
            let width = match funct3(w) {
                0 => MemW::B,
                1 => MemW::H,
                2 => MemW::W,
                4 => MemW::Bu,
                5 => MemW::Hu,
                _ => return Err(bad()),
            };
            Ok(Rv32Inst::Load {
                width,
                rd: rd(w),
                rs1: rs1(w),
                imm: imm_i(w),
            })
        }
        0x23 => {
            let width = match funct3(w) {
                0 => MemW::B,
                1 => MemW::H,
                2 => MemW::W,
                _ => return Err(bad()),
            };
            Ok(Rv32Inst::Store {
                width,
                rs1: rs1(w),
                rs2: rs2(w),
                imm: imm_s(w),
            })
        }
        0x13 => {
            let (op, imm) = match funct3(w) {
                0 => (AluOp::Add, imm_i(w)),
                2 => (AluOp::Slt, imm_i(w)),
                3 => (AluOp::Sltu, imm_i(w)),
                4 => (AluOp::Xor, imm_i(w)),
                6 => (AluOp::Or, imm_i(w)),
                7 => (AluOp::And, imm_i(w)),
                1 => {
                    if funct7(w) != 0 {
                        return Err(bad());
                    }
                    (AluOp::Sll, rs2(w) as i32)
                }
                5 => match funct7(w) {
                    0x00 => (AluOp::Srl, rs2(w) as i32),
                    0x20 => (AluOp::Sra, rs2(w) as i32),
                    _ => return Err(bad()),
                },
                _ => unreachable!(),
            };
            Ok(Rv32Inst::AluImm {
                op,
                rd: rd(w),
                rs1: rs1(w),
                imm,
            })
        }
        0x33 => {
            let op = match (funct7(w), funct3(w)) {
                (0x00, 0) => AluOp::Add,
                (0x20, 0) => AluOp::Sub,
                (0x00, 1) => AluOp::Sll,
                (0x00, 2) => AluOp::Slt,
                (0x00, 3) => AluOp::Sltu,
                (0x00, 4) => AluOp::Xor,
                (0x00, 5) => AluOp::Srl,
                (0x20, 5) => AluOp::Sra,
                (0x00, 6) => AluOp::Or,
                (0x00, 7) => AluOp::And,
                (0x01, _) => return Err(unsupported("M extension (mul/div)")),
                _ => return Err(bad()),
            };
            Ok(Rv32Inst::Alu {
                op,
                rd: rd(w),
                rs1: rs1(w),
                rs2: rs2(w),
            })
        }
        0x73 => match w {
            0x0000_0073 => Ok(Rv32Inst::Ecall),
            0x0010_0073 => Err(unsupported("ebreak")),
            _ => Err(unsupported("system/csr")),
        },
        0x0f => Err(unsupported("fence")),
        _ => Err(bad()),
    }
}

/// Decode with no pc context (errors report pc 0).
pub fn decode(w: u32) -> Result<Rv32Inst, IngestError> {
    decode_at(0, w)
}

/// Encode an instruction back to its word.  Panics if a field is out of
/// range — this is a producer API (builder, generator), not a parser.
pub fn encode(inst: Rv32Inst) -> u32 {
    let r = |v: u8| {
        assert!(v < 32, "register x{v} out of range");
        v as u32
    };
    let enc_i = |op: u32, f3: u32, rd: u8, rs1: u8, imm: i32| {
        assert!(
            (-2048..=2047).contains(&imm),
            "I-immediate {imm} out of range"
        );
        ((imm as u32 & 0xfff) << 20) | (r(rs1) << 15) | (f3 << 12) | (r(rd) << 7) | op
    };
    match inst {
        Rv32Inst::Lui { rd, imm20 } | Rv32Inst::Auipc { rd, imm20 } => {
            assert!(
                (0..=0xf_ffff).contains(&imm20),
                "U-immediate {imm20:#x} out of range"
            );
            let op = if matches!(inst, Rv32Inst::Lui { .. }) {
                0x37
            } else {
                0x17
            };
            ((imm20 as u32) << 12) | (r(rd) << 7) | op
        }
        Rv32Inst::Jal { rd, off } => {
            assert!(
                off % 2 == 0 && (-(1 << 20)..(1 << 20)).contains(&off),
                "J-offset {off} out of range"
            );
            let o = off as u32;
            ((o >> 20 & 1) << 31)
                | ((o >> 1 & 0x3ff) << 21)
                | ((o >> 11 & 1) << 20)
                | ((o >> 12 & 0xff) << 12)
                | (r(rd) << 7)
                | 0x6f
        }
        Rv32Inst::Jalr { rd, rs1, imm } => enc_i(0x67, 0, rd, rs1, imm),
        Rv32Inst::Branch {
            cond,
            rs1,
            rs2,
            off,
        } => {
            assert!(
                off % 2 == 0 && (-4096..4096).contains(&off),
                "B-offset {off} out of range"
            );
            let f3 = match cond {
                BrCond::Eq => 0,
                BrCond::Ne => 1,
                BrCond::Lt => 4,
                BrCond::Ge => 5,
                BrCond::Ltu => 6,
                BrCond::Geu => 7,
            };
            let o = off as u32;
            ((o >> 12 & 1) << 31)
                | ((o >> 5 & 0x3f) << 25)
                | (r(rs2) << 20)
                | (r(rs1) << 15)
                | (f3 << 12)
                | ((o >> 1 & 0xf) << 8)
                | ((o >> 11 & 1) << 7)
                | 0x63
        }
        Rv32Inst::Load {
            width,
            rd,
            rs1,
            imm,
        } => {
            let f3 = match width {
                MemW::B => 0,
                MemW::H => 1,
                MemW::W => 2,
                MemW::Bu => 4,
                MemW::Hu => 5,
            };
            enc_i(0x03, f3, rd, rs1, imm)
        }
        Rv32Inst::Store {
            width,
            rs1,
            rs2,
            imm,
        } => {
            assert!(
                (-2048..=2047).contains(&imm),
                "S-immediate {imm} out of range"
            );
            let f3 = match width {
                MemW::B => 0,
                MemW::H => 1,
                MemW::W => 2,
                _ => panic!("no unsigned store"),
            };
            let i = imm as u32;
            ((i >> 5 & 0x7f) << 25)
                | (r(rs2) << 20)
                | (r(rs1) << 15)
                | (f3 << 12)
                | ((i & 0x1f) << 7)
                | 0x23
        }
        Rv32Inst::AluImm { op, rd, rs1, imm } => match op {
            AluOp::Add => enc_i(0x13, 0, rd, rs1, imm),
            AluOp::Slt => enc_i(0x13, 2, rd, rs1, imm),
            AluOp::Sltu => enc_i(0x13, 3, rd, rs1, imm),
            AluOp::Xor => enc_i(0x13, 4, rd, rs1, imm),
            AluOp::Or => enc_i(0x13, 6, rd, rs1, imm),
            AluOp::And => enc_i(0x13, 7, rd, rs1, imm),
            AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                assert!((0..32).contains(&imm), "shamt {imm} out of range");
                let (f3, f7) = match op {
                    AluOp::Sll => (1, 0x00),
                    AluOp::Srl => (5, 0x00),
                    _ => (5, 0x20),
                };
                (f7 << 25)
                    | ((imm as u32) << 20)
                    | (r(rs1) << 15)
                    | (f3 << 12)
                    | (r(rd) << 7)
                    | 0x13
            }
            AluOp::Sub => panic!("subi does not exist; use addi with a negated immediate"),
        },
        Rv32Inst::Alu { op, rd, rs1, rs2 } => {
            let (f7, f3) = match op {
                AluOp::Add => (0x00, 0),
                AluOp::Sub => (0x20, 0),
                AluOp::Sll => (0x00, 1),
                AluOp::Slt => (0x00, 2),
                AluOp::Sltu => (0x00, 3),
                AluOp::Xor => (0x00, 4),
                AluOp::Srl => (0x00, 5),
                AluOp::Sra => (0x20, 5),
                AluOp::Or => (0x00, 6),
                AluOp::And => (0x00, 7),
            };
            (f7 << 25) | (r(rs2) << 20) | (r(rs1) << 15) | (f3 << 12) | (r(rd) << 7) | 0x33
        }
        Rv32Inst::Ecall => 0x0000_0073,
    }
}

/// Terse constructors for writing programs in Rust source (workloads,
/// tests, the torture generator).
pub mod asm {
    use super::*;

    pub fn addi(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        }
    }
    pub fn slti(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Slt,
            rd,
            rs1,
            imm,
        }
    }
    pub fn sltiu(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Sltu,
            rd,
            rs1,
            imm,
        }
    }
    pub fn xori(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Xor,
            rd,
            rs1,
            imm,
        }
    }
    pub fn ori(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Or,
            rd,
            rs1,
            imm,
        }
    }
    pub fn andi(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        }
    }
    pub fn slli(rd: u8, rs1: u8, sh: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm: sh,
        }
    }
    pub fn srli(rd: u8, rs1: u8, sh: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm: sh,
        }
    }
    pub fn srai(rd: u8, rs1: u8, sh: i32) -> Rv32Inst {
        Rv32Inst::AluImm {
            op: AluOp::Sra,
            rd,
            rs1,
            imm: sh,
        }
    }
    pub fn alu(op: AluOp, rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        Rv32Inst::Alu { op, rd, rs1, rs2 }
    }
    pub fn add(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Add, rd, rs1, rs2)
    }
    pub fn sub(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Sub, rd, rs1, rs2)
    }
    pub fn xor(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Xor, rd, rs1, rs2)
    }
    pub fn or(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Or, rd, rs1, rs2)
    }
    pub fn and(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::And, rd, rs1, rs2)
    }
    pub fn sll(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Sll, rd, rs1, rs2)
    }
    pub fn srl(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Srl, rd, rs1, rs2)
    }
    pub fn sra(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Sra, rd, rs1, rs2)
    }
    pub fn slt(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Slt, rd, rs1, rs2)
    }
    pub fn sltu(rd: u8, rs1: u8, rs2: u8) -> Rv32Inst {
        alu(AluOp::Sltu, rd, rs1, rs2)
    }
    pub fn lui(rd: u8, imm20: i32) -> Rv32Inst {
        Rv32Inst::Lui { rd, imm20 }
    }
    pub fn auipc(rd: u8, imm20: i32) -> Rv32Inst {
        Rv32Inst::Auipc { rd, imm20 }
    }
    pub fn jal(rd: u8, off: i32) -> Rv32Inst {
        Rv32Inst::Jal { rd, off }
    }
    pub fn jalr(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::Jalr { rd, rs1, imm }
    }
    pub fn load(width: MemW, rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::Load {
            width,
            rd,
            rs1,
            imm,
        }
    }
    pub fn lw(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        load(MemW::W, rd, rs1, imm)
    }
    pub fn lbu(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        load(MemW::Bu, rd, rs1, imm)
    }
    pub fn lb(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        load(MemW::B, rd, rs1, imm)
    }
    pub fn lh(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        load(MemW::H, rd, rs1, imm)
    }
    pub fn lhu(rd: u8, rs1: u8, imm: i32) -> Rv32Inst {
        load(MemW::Hu, rd, rs1, imm)
    }
    pub fn store(width: MemW, rs1: u8, rs2: u8, imm: i32) -> Rv32Inst {
        Rv32Inst::Store {
            width,
            rs1,
            rs2,
            imm,
        }
    }
    pub fn sw(rs1: u8, rs2: u8, imm: i32) -> Rv32Inst {
        store(MemW::W, rs1, rs2, imm)
    }
    pub fn sb(rs1: u8, rs2: u8, imm: i32) -> Rv32Inst {
        store(MemW::B, rs1, rs2, imm)
    }
    pub fn sh(rs1: u8, rs2: u8, imm: i32) -> Rv32Inst {
        store(MemW::H, rs1, rs2, imm)
    }
    pub fn ecall() -> Rv32Inst {
        Rv32Inst::Ecall
    }
    /// Canonical NOP (`addi x0, x0, 0`).
    pub fn nop() -> Rv32Inst {
        addi(0, 0, 0)
    }
}

/// Forward-reference label handed out by [`Rv32Builder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

enum Item {
    Inst(Rv32Inst),
    BranchTo {
        cond: BrCond,
        rs1: u8,
        rs2: u8,
        label: Label,
    },
    JalTo {
        rd: u8,
        label: Label,
    },
    /// `auipc rd, hi` + `addi rd, rd, lo` materialising the label's
    /// absolute address (two words).
    La {
        rd: u8,
        label: Label,
    },
}

impl Item {
    fn words(&self) -> usize {
        match self {
            Item::La { .. } => 2,
            _ => 1,
        }
    }
}

/// Two-pass assembler: emit items with symbolic labels, then resolve
/// byte offsets and encode.
#[derive(Default)]
pub struct Rv32Builder {
    items: Vec<Item>,
    /// `labels[l] = Some(word index)` once bound.
    labels: Vec<Option<usize>>,
}

impl Rv32Builder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `l` to the current position.  Panics on double-bind.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        let pos = self.items.iter().map(Item::words).sum();
        self.labels[l.0] = Some(pos);
    }

    pub fn push(&mut self, i: Rv32Inst) {
        self.items.push(Item::Inst(i));
    }

    pub fn br(&mut self, cond: BrCond, rs1: u8, rs2: u8, label: Label) {
        self.items.push(Item::BranchTo {
            cond,
            rs1,
            rs2,
            label,
        });
    }

    pub fn jal_to(&mut self, rd: u8, label: Label) {
        self.items.push(Item::JalTo { rd, label });
    }

    /// Load the absolute guest address of `label` into `rd` (for `jalr`
    /// dispatch tables).  Expands to `auipc` + `addi`.
    pub fn la(&mut self, rd: u8, label: Label) {
        self.items.push(Item::La { rd, label });
    }

    /// Current position in words (for asserting handler alignment).
    pub fn here(&self) -> usize {
        self.items.iter().map(Item::words).sum()
    }

    /// Pad with NOPs until the position is a multiple of `words`.
    pub fn align(&mut self, words: usize) {
        while !self.here().is_multiple_of(words) {
            self.push(asm::nop());
        }
    }

    /// Resolve labels and encode.  Panics on an unbound label — builder
    /// misuse is a programming error, not an ingest error.
    pub fn finish(self) -> Rv32Program {
        let mut pos = Vec::with_capacity(self.items.len());
        let mut here = 0usize;
        for item in &self.items {
            pos.push(here);
            here += item.words();
        }
        let target = |l: Label| -> i32 {
            let w = self.labels[l.0].expect("unbound rv32 label");
            (RV_TEXT_BASE as i32) + 4 * w as i32
        };
        let mut words = Vec::with_capacity(here);
        for (i, item) in self.items.iter().enumerate() {
            let pc = RV_TEXT_BASE as i32 + 4 * pos[i] as i32;
            match *item {
                Item::Inst(inst) => words.push(encode(inst)),
                Item::BranchTo {
                    cond,
                    rs1,
                    rs2,
                    label,
                } => {
                    words.push(encode(Rv32Inst::Branch {
                        cond,
                        rs1,
                        rs2,
                        off: target(label) - pc,
                    }));
                }
                Item::JalTo { rd, label } => {
                    words.push(encode(Rv32Inst::Jal {
                        rd,
                        off: target(label) - pc,
                    }));
                }
                Item::La { rd, label } => {
                    // Standard pc-relative hi/lo split: auipc takes the
                    // delta's upper 20 bits, addi the signed low 12.
                    // addi sign-extends, so the upper part absorbs the
                    // borrow when the low 12 bits are negative.
                    let delta = target(label).wrapping_sub(pc);
                    let lo = (delta << 20) >> 20;
                    let hi20 = (delta.wrapping_sub(lo) >> 12) & 0xf_ffff;
                    words.push(encode(Rv32Inst::Auipc { rd, imm20: hi20 }));
                    words.push(encode(Rv32Inst::AluImm {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        imm: lo,
                    }));
                }
            }
        }
        Rv32Program::new(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_encode_roundtrip_on_known_words() {
        // Hand-checked encodings from the RISC-V spec examples.
        let cases: &[(u32, &str)] = &[
            (0x0010_0093, "addi"), // addi x1, x0, 1
            (0x0000_0013, "addi"), // nop
            (0xfff0_0113, "addi"), // addi x2, x0, -1
            (0x0020_8463, "beq"),  // beq x1, x2, +8
            (0x0000_0073, "ecall"),
            (0x0040_0167, "jalr"), // jalr x2, x0, 4
            (0x0180_00ef, "jal"),  // jal x1, +24
            (0x4020_d193, "srai"), // srai x3, x1, 2
            (0x4020_8233, "sub"),  // sub x4, x1, x2
            (0x0001_22b7, "lui"),  // lui x5, 0x12
            (0x0050_a303, "lw"),   // lw x6, 5(x1)
            (0x0062_a423, "sw"),   // sw x6, 8(x5)
        ];
        for &(w, name) in cases {
            let i = decode(w).unwrap();
            assert_eq!(i.kind_name(), name, "word {w:#010x} decoded to {i}");
            assert_eq!(encode(i), w, "re-encode of {i}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_fields() {
        use asm::*;
        let mut insts = vec![
            ecall(),
            lui(31, 0xf_ffff),
            auipc(1, 0),
            jal(0, -4),
            jal(1, 1 << 19),
        ];
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ] {
            insts.push(alu(op, 5, 6, 7));
        }
        for w in [MemW::B, MemW::H, MemW::W, MemW::Bu, MemW::Hu] {
            insts.push(load(w, 8, 9, -2048));
        }
        for w in [MemW::B, MemW::H, MemW::W] {
            insts.push(store(w, 10, 11, 2047));
        }
        for c in [
            BrCond::Eq,
            BrCond::Ne,
            BrCond::Lt,
            BrCond::Ge,
            BrCond::Ltu,
            BrCond::Geu,
        ] {
            insts.push(Rv32Inst::Branch {
                cond: c,
                rs1: 1,
                rs2: 2,
                off: -4096,
            });
        }
        insts.extend([
            addi(1, 2, -7),
            slti(1, 2, 11),
            sltiu(1, 2, -1),
            xori(1, 2, 0x7ff),
            ori(1, 2, -2048),
            andi(1, 2, 255),
            slli(1, 2, 31),
            srli(1, 2, 0),
            srai(1, 2, 13),
            jalr(1, 2, -3),
        ]);
        for i in insts {
            assert_eq!(decode(encode(i)).unwrap(), i, "roundtrip of {i}");
        }
    }

    #[test]
    fn decode_rejects_reserved_encodings() {
        // funct3=2 branch, funct3=3 load, funct7 garbage on add/srai,
        // unknown major opcode.
        for w in [
            0x0000_2063u32,
            0x0000_3003,
            0x4000_4033,
            0x1000_5013,
            0x0000_00ff,
        ] {
            assert!(
                matches!(decode(w), Err(IngestError::BadWord { .. })),
                "{w:#010x} should be BadWord"
            );
        }
        // M extension, fence, ebreak, csr are legal RV32 but unsupported.
        for w in [0x0220_0033u32, 0x0000_000f, 0x0010_0073, 0x3020_0073] {
            assert!(
                matches!(decode(w), Err(IngestError::Unsupported { .. })),
                "{w:#010x} should be Unsupported"
            );
        }
    }

    #[test]
    fn decode_never_panics_on_any_major_opcode() {
        // Sweep a structured sample of the word space: all opcodes with
        // varying funct3/funct7 patterns.
        for op in 0..128u32 {
            for f3 in 0..8u32 {
                for f7 in [0u32, 1, 0x20, 0x7f] {
                    let w = (f7 << 25) | (3 << 20) | (2 << 15) | (f3 << 12) | (1 << 7) | op;
                    let _ = decode(w);
                }
            }
        }
    }

    #[test]
    fn all_kinds_has_no_duplicates() {
        let mut names: Vec<_> = ALL_KINDS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_KINDS.len());
    }

    #[test]
    fn builder_resolves_labels_and_alignment() {
        use asm::*;
        let mut b = Rv32Builder::new();
        let top = b.label();
        let done = b.label();
        b.push(addi(1, 0, 3));
        b.bind(top);
        b.push(addi(1, 1, -1));
        b.br(BrCond::Eq, 1, 0, done);
        b.jal_to(0, top);
        b.bind(done);
        b.align(4);
        let tgt = b.label();
        b.bind(tgt);
        b.la(2, tgt);
        b.push(ecall());
        let p = b.finish();
        // beq at word 2 jumps to word 4 (+8); jal at word 3 back to word 1.
        assert_eq!(
            decode(p.words[2]).unwrap(),
            Rv32Inst::Branch {
                cond: BrCond::Eq,
                rs1: 1,
                rs2: 0,
                off: 8
            }
        );
        assert_eq!(
            decode(p.words[3]).unwrap(),
            Rv32Inst::Jal { rd: 0, off: -8 }
        );
        // la expands to auipc+addi whose sum is the label's absolute address.
        let pc = RV_TEXT_BASE as i32 + 16;
        let (hi, lo) = match (decode(p.words[4]).unwrap(), decode(p.words[5]).unwrap()) {
            (
                Rv32Inst::Auipc { rd: 2, imm20 },
                Rv32Inst::AluImm {
                    op: AluOp::Add,
                    rd: 2,
                    rs1: 2,
                    imm,
                },
            ) => (imm20, imm),
            other => panic!("unexpected la expansion {other:?}"),
        };
        assert_eq!(
            pc.wrapping_add(hi << 12).wrapping_add(lo),
            RV_TEXT_BASE as i32 + 16
        );
    }
}
