//! 32-bit instruction encodings for both machines.
//!
//! The paper's Figure 10 (baseline) and Figure 11 (branch-register
//! machine) give the field structure; this module fixes concrete bit
//! positions. The architecturally significant differences are faithfully
//! preserved: the branch-register machine's data-register fields are 4
//! bits instead of 5, its signed immediates are 11 bits instead of 13,
//! and every encodable instruction (except `sethi`) carries a 3-bit `br`
//! field in bits 2:0.
//!
//! Concrete layouts (bit ranges inclusive, `op` always in 31:26):
//!
//! ```text
//! baseline  F3   op rd[25:21] rs1[20:16] i[15]  imm13[12:0] | rs2[4:0]
//! baseline  sethi op rd[25:21] imm21[20:0]
//! baseline  bcc  op cc[25:23] f[22] disp22[21:0]
//! baseline  ba/call op disp26[25:0]
//! br-mach   F3   op rd[25:22] rs1[21:18] i[17] imm11[13:3] | rs2[6:3]   br[2:0]
//! br-mach   sethi op rd[25:22] imm21[21:1]
//! br-mach   bcalc op bd[25:23] disp20[22:3]                              br[2:0]
//! br-mach   cmpbr op cc[25:23] bt[22:20] rs1[19:16] i[15] imm11|rs2      br[2:0]
//! br-mach   bmovr/bstore op b[25:23] rs1[22:19] imm13[15:3]              br[2:0]
//! ```

use std::fmt;

use crate::minst::{AluOp, BReg, Cc, FReg, FpuOp, MInst, MemWidth, Reg, Src2};
use crate::Machine;

/// Errors from encoding or decoding an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The instruction variant does not exist on the target machine.
    WrongMachine,
    /// A register number exceeds the machine's register-field width.
    RegOutOfRange,
    /// An immediate does not fit the machine's immediate field.
    ImmOutOfRange,
    /// A branch displacement does not fit its field.
    DispOutOfRange,
    /// A branch-register number is out of range (or nonzero on baseline).
    BrOutOfRange,
    /// Decoding met an unknown opcode or malformed fields.
    BadWord(u32),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::WrongMachine => write!(f, "instruction not available on this machine"),
            EncodeError::RegOutOfRange => write!(f, "register number out of range"),
            EncodeError::ImmOutOfRange => write!(f, "immediate out of range"),
            EncodeError::DispOutOfRange => write!(f, "displacement out of range"),
            EncodeError::BrOutOfRange => write!(f, "branch register out of range"),
            EncodeError::BadWord(w) => write!(f, "cannot decode word {w:#010x}"),
        }
    }
}

impl std::error::Error for EncodeError {}

// Opcode numbers (shared namespace).
const OP_NOP: u32 = 0;
const OP_HALT: u32 = 1;
const OP_ALU_BASE: u32 = 2; // 2..=13 in AluOp order
const OP_SETHI: u32 = 14;
const OP_LDW: u32 = 15;
const OP_LDB: u32 = 16;
const OP_LDF: u32 = 17;
const OP_STW: u32 = 18;
const OP_STB: u32 = 19;
const OP_STF: u32 = 20;
const OP_FPU_BASE: u32 = 21; // 21..=24 in FpuOp order
const OP_FNEG: u32 = 25;
const OP_ITOF: u32 = 26;
const OP_FTOI: u32 = 27;
const OP_CMP: u32 = 28;
const OP_FCMP: u32 = 29;
const OP_BCC: u32 = 30;
const OP_BA: u32 = 31;
const OP_CALL: u32 = 32;
const OP_JMPL: u32 = 33;
const OP_BCALC: u32 = 34;
const OP_CMPBR: u32 = 35;
const OP_FCMPBR: u32 = 36;
const OP_BMOVB: u32 = 37;
const OP_BMOVR: u32 = 38;
const OP_BLOAD: u32 = 39;
const OP_BSTORE: u32 = 40;
const OP_FMOV: u32 = 41;

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::OrLo,
];

const FPU_OPS: [FpuOp; 4] = [FpuOp::FAdd, FpuOp::FSub, FpuOp::FMul, FpuOp::FDiv];

fn alu_code(op: AluOp) -> u32 {
    OP_ALU_BASE + ALU_OPS.iter().position(|&o| o == op).unwrap() as u32
}

fn fpu_code(op: FpuOp) -> u32 {
    OP_FPU_BASE + FPU_OPS.iter().position(|&o| o == op).unwrap() as u32
}

/// Sign-extend the low `bits` of `v`.
fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

/// Whether `v` fits in a signed field of `bits`.
fn fits_signed(v: i32, bits: u32) -> bool {
    v >= -(1 << (bits - 1)) && v < (1 << (bits - 1))
}

fn mask(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1 << bits) - 1
    }
}

struct Enc {
    m: Machine,
}

impl Enc {
    fn reg(&self, r: Reg) -> Result<u32, EncodeError> {
        if r.0 < self.m.num_regs() {
            Ok(r.0 as u32)
        } else {
            Err(EncodeError::RegOutOfRange)
        }
    }
    fn freg(&self, r: FReg) -> Result<u32, EncodeError> {
        if r.0 < self.m.num_fregs() {
            Ok(r.0 as u32)
        } else {
            Err(EncodeError::RegOutOfRange)
        }
    }
    fn breg(&self, b: BReg) -> Result<u32, EncodeError> {
        if self.m == Machine::BranchReg && b.0 < 8 {
            Ok(b.0 as u32)
        } else {
            Err(EncodeError::BrOutOfRange)
        }
    }
    fn brf(&self, br: u8) -> Result<u32, EncodeError> {
        match self.m {
            Machine::Baseline if br == 0 => Ok(0),
            Machine::Baseline => Err(EncodeError::BrOutOfRange),
            Machine::BranchReg if br < 8 => Ok(br as u32),
            Machine::BranchReg => Err(EncodeError::BrOutOfRange),
        }
    }
    fn imm(&self, v: i32) -> Result<u32, EncodeError> {
        if self.m.imm_fits(v) {
            Ok(v as u32 & mask(self.m.imm_bits()))
        } else {
            Err(EncodeError::ImmOutOfRange)
        }
    }

    /// Three-address form shared by ALU, loads, stores and conversions.
    /// `rd`, `rs1` are raw field values (already range-checked).
    fn f3(&self, op: u32, rd: u32, rs1: u32, src2: Src2, br: u32) -> Result<u32, EncodeError> {
        match self.m {
            Machine::Baseline => Ok(match src2 {
                Src2::Reg(r) => (op << 26) | (rd << 21) | (rs1 << 16) | self.reg(r)?,
                Src2::Imm(v) => (op << 26) | (rd << 21) | (rs1 << 16) | (1 << 15) | self.imm(v)?,
            }),
            Machine::BranchReg => Ok(match src2 {
                Src2::Reg(r) => (op << 26) | (rd << 22) | (rs1 << 18) | (self.reg(r)? << 3) | br,
                Src2::Imm(v) => {
                    (op << 26) | (rd << 22) | (rs1 << 18) | (1 << 17) | (self.imm(v)? << 3) | br
                }
            }),
        }
    }
}

/// Encode `inst` for `machine`.
///
/// # Errors
///
/// Any field-range or machine-availability violation (see [`EncodeError`]).
pub fn encode(machine: Machine, inst: MInst) -> Result<u32, EncodeError> {
    let e = Enc { m: machine };
    let base = machine == Machine::Baseline;
    match inst {
        MInst::Nop { br } => Ok((OP_NOP << 26) | e.brf(br)?),
        MInst::Halt => Ok(OP_HALT << 26),
        MInst::Alu {
            op,
            rd,
            rs1,
            src2,
            br,
        } => {
            // OrLo's immediate is unsigned; it must fit the imm field as a
            // non-negative value of imm_bits-or-fewer bits.
            if op == AluOp::OrLo {
                if let Src2::Imm(v) = src2 {
                    if v < 0 || (v as u32) > mask(machine.imm_bits()) {
                        return Err(EncodeError::ImmOutOfRange);
                    }
                    // Encode the unsigned value directly in the imm field.
                    let raw = v as u32;
                    let w = match machine {
                        Machine::Baseline => {
                            (alu_code(op) << 26)
                                | (e.reg(rd)? << 21)
                                | (e.reg(rs1)? << 16)
                                | (1 << 15)
                                | raw
                        }
                        Machine::BranchReg => {
                            (alu_code(op) << 26)
                                | (e.reg(rd)? << 22)
                                | (e.reg(rs1)? << 18)
                                | (1 << 17)
                                | (raw << 3)
                                | e.brf(br)?
                        }
                    };
                    return Ok(w);
                }
            }
            e.f3(alu_code(op), e.reg(rd)?, e.reg(rs1)?, src2, e.brf(br)?)
        }
        MInst::Sethi { rd, imm } => {
            if imm > mask(21) {
                return Err(EncodeError::ImmOutOfRange);
            }
            match machine {
                Machine::Baseline => Ok((OP_SETHI << 26) | (e.reg(rd)? << 21) | imm),
                Machine::BranchReg => Ok((OP_SETHI << 26) | (e.reg(rd)? << 22) | (imm << 1)),
            }
        }
        MInst::Load {
            w,
            rd,
            rs1,
            off,
            br,
        } => {
            let op = match w {
                MemWidth::Word => OP_LDW,
                MemWidth::Byte => OP_LDB,
            };
            e.f3(op, e.reg(rd)?, e.reg(rs1)?, Src2::Imm(off), e.brf(br)?)
        }
        MInst::LoadF { fd, rs1, off, br } => {
            e.f3(OP_LDF, e.freg(fd)?, e.reg(rs1)?, Src2::Imm(off), e.brf(br)?)
        }
        MInst::Store {
            w,
            rs,
            rs1,
            off,
            br,
        } => {
            let op = match w {
                MemWidth::Word => OP_STW,
                MemWidth::Byte => OP_STB,
            };
            e.f3(op, e.reg(rs)?, e.reg(rs1)?, Src2::Imm(off), e.brf(br)?)
        }
        MInst::StoreF { fs, rs1, off, br } => {
            e.f3(OP_STF, e.freg(fs)?, e.reg(rs1)?, Src2::Imm(off), e.brf(br)?)
        }
        MInst::Fpu {
            op,
            fd,
            fs1,
            fs2,
            br,
        } => e.f3(
            fpu_code(op),
            e.freg(fd)?,
            e.freg(fs1)?,
            Src2::Reg(Reg(fs2.0)),
            e.brf(br)?,
        ),
        MInst::FMov { fd, fs, br } => {
            e.f3(OP_FMOV, e.freg(fd)?, e.freg(fs)?, Src2::Imm(0), e.brf(br)?)
        }
        MInst::FNeg { fd, fs, br } => {
            e.f3(OP_FNEG, e.freg(fd)?, e.freg(fs)?, Src2::Imm(0), e.brf(br)?)
        }
        MInst::ItoF { fd, rs, br } => {
            e.f3(OP_ITOF, e.freg(fd)?, e.reg(rs)?, Src2::Imm(0), e.brf(br)?)
        }
        MInst::FtoI { rd, fs, br } => {
            e.f3(OP_FTOI, e.reg(rd)?, e.freg(fs)?, Src2::Imm(0), e.brf(br)?)
        }
        MInst::Cmp { rs1, src2 } => {
            if !base {
                return Err(EncodeError::WrongMachine);
            }
            e.f3(OP_CMP, 0, e.reg(rs1)?, src2, 0)
        }
        MInst::FCmp { fs1, fs2 } => {
            if !base {
                return Err(EncodeError::WrongMachine);
            }
            e.f3(OP_FCMP, 0, e.freg(fs1)?, Src2::Reg(Reg(fs2.0)), 0)
        }
        MInst::Bcc { cc, float, disp } => {
            if !base {
                return Err(EncodeError::WrongMachine);
            }
            if !fits_signed(disp, 22) {
                return Err(EncodeError::DispOutOfRange);
            }
            Ok((OP_BCC << 26)
                | (cc.code() << 23)
                | ((float as u32) << 22)
                | (disp as u32 & mask(22)))
        }
        MInst::Ba { disp } | MInst::Call { disp } => {
            if !base {
                return Err(EncodeError::WrongMachine);
            }
            if !fits_signed(disp, 26) {
                return Err(EncodeError::DispOutOfRange);
            }
            let op = if matches!(inst, MInst::Ba { .. }) {
                OP_BA
            } else {
                OP_CALL
            };
            Ok((op << 26) | (disp as u32 & mask(26)))
        }
        MInst::Jmpl { rd, rs1, off } => {
            if !base {
                return Err(EncodeError::WrongMachine);
            }
            e.f3(OP_JMPL, e.reg(rd)?, e.reg(rs1)?, Src2::Imm(off), 0)
        }
        MInst::Bcalc { bd, disp, br } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            if !fits_signed(disp, 20) {
                return Err(EncodeError::DispOutOfRange);
            }
            Ok((OP_BCALC << 26)
                | (e.breg(bd)? << 23)
                | ((disp as u32 & mask(20)) << 3)
                | e.brf(br)?)
        }
        MInst::CmpBr {
            cc,
            bt,
            rs1,
            src2,
            br,
        } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            let body = match src2 {
                Src2::Reg(r) => e.reg(r)? << 3,
                Src2::Imm(v) => (1 << 15) | (e.imm(v)? << 3),
            };
            Ok((OP_CMPBR << 26)
                | (cc.code() << 23)
                | (e.breg(bt)? << 20)
                | (e.reg(rs1)? << 16)
                | body
                | e.brf(br)?)
        }
        MInst::FCmpBr {
            cc,
            bt,
            fs1,
            fs2,
            br,
        } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            Ok((OP_FCMPBR << 26)
                | (cc.code() << 23)
                | (e.breg(bt)? << 20)
                | (e.freg(fs1)? << 16)
                | (e.freg(fs2)? << 3)
                | e.brf(br)?)
        }
        MInst::BMovB { bd, bs, br } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            Ok((OP_BMOVB << 26) | (e.breg(bd)? << 23) | (e.breg(bs)? << 20) | e.brf(br)?)
        }
        MInst::BMovR { bd, rs1, off, br } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            if !fits_signed(off, 13) {
                return Err(EncodeError::ImmOutOfRange);
            }
            Ok((OP_BMOVR << 26)
                | (e.breg(bd)? << 23)
                | (e.reg(rs1)? << 19)
                | ((off as u32 & mask(13)) << 3)
                | e.brf(br)?)
        }
        MInst::BLoad { bd, rs1, src2, br } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            let body = match src2 {
                Src2::Reg(r) => e.reg(r)? << 3,
                Src2::Imm(v) => (1 << 18) | (e.imm(v)? << 3),
            };
            Ok((OP_BLOAD << 26) | (e.breg(bd)? << 23) | (e.reg(rs1)? << 19) | body | e.brf(br)?)
        }
        MInst::BStore { bs, rs1, off, br } => {
            if base {
                return Err(EncodeError::WrongMachine);
            }
            if !fits_signed(off, 13) {
                return Err(EncodeError::ImmOutOfRange);
            }
            Ok((OP_BSTORE << 26)
                | (e.breg(bs)? << 23)
                | (e.reg(rs1)? << 19)
                | ((off as u32 & mask(13)) << 3)
                | e.brf(br)?)
        }
    }
}

/// Decode one instruction word for `machine`.
///
/// # Errors
///
/// [`EncodeError::BadWord`] for unknown opcodes or opcodes that do not
/// exist on `machine`.
pub fn decode(machine: Machine, word: u32) -> Result<MInst, EncodeError> {
    let op = word >> 26;
    let base = machine == Machine::Baseline;
    let bad = || EncodeError::BadWord(word);

    // Field extraction helpers.
    let (rd, rs1, ifl, imm, rs2, br);
    match machine {
        Machine::Baseline => {
            rd = (word >> 21) & 0x1F;
            rs1 = (word >> 16) & 0x1F;
            ifl = (word >> 15) & 1;
            imm = sext(word & mask(13), 13);
            rs2 = word & 0x1F;
            br = 0u8;
        }
        Machine::BranchReg => {
            rd = (word >> 22) & 0xF;
            rs1 = (word >> 18) & 0xF;
            ifl = (word >> 17) & 1;
            imm = sext((word >> 3) & mask(11), 11);
            rs2 = (word >> 3) & 0xF;
            br = (word & 7) as u8;
        }
    }
    let src2 = if ifl == 1 {
        Src2::Imm(imm)
    } else {
        Src2::Reg(Reg(rs2 as u8))
    };
    let off = if ifl == 1 { imm } else { 0 };

    Ok(match op {
        OP_NOP => MInst::Nop { br },
        OP_HALT => MInst::Halt,
        _ if (OP_ALU_BASE..OP_ALU_BASE + 12).contains(&op) => {
            let aop = ALU_OPS[(op - OP_ALU_BASE) as usize];
            // OrLo immediates decode as unsigned.
            let src2 = if aop == AluOp::OrLo && ifl == 1 {
                let raw = match machine {
                    Machine::Baseline => word & mask(13),
                    Machine::BranchReg => (word >> 3) & mask(11),
                };
                Src2::Imm(raw as i32)
            } else {
                src2
            };
            MInst::Alu {
                op: aop,
                rd: Reg(rd as u8),
                rs1: Reg(rs1 as u8),
                src2,
                br,
            }
        }
        OP_SETHI => match machine {
            Machine::Baseline => MInst::Sethi {
                rd: Reg(rd as u8),
                imm: word & mask(21),
            },
            Machine::BranchReg => MInst::Sethi {
                rd: Reg(rd as u8),
                imm: (word >> 1) & mask(21),
            },
        },
        OP_LDW | OP_LDB => MInst::Load {
            w: if op == OP_LDW {
                MemWidth::Word
            } else {
                MemWidth::Byte
            },
            rd: Reg(rd as u8),
            rs1: Reg(rs1 as u8),
            off,
            br,
        },
        OP_LDF => MInst::LoadF {
            fd: FReg(rd as u8),
            rs1: Reg(rs1 as u8),
            off,
            br,
        },
        OP_STW | OP_STB => MInst::Store {
            w: if op == OP_STW {
                MemWidth::Word
            } else {
                MemWidth::Byte
            },
            rs: Reg(rd as u8),
            rs1: Reg(rs1 as u8),
            off,
            br,
        },
        OP_STF => MInst::StoreF {
            fs: FReg(rd as u8),
            rs1: Reg(rs1 as u8),
            off,
            br,
        },
        _ if (OP_FPU_BASE..OP_FPU_BASE + 4).contains(&op) => MInst::Fpu {
            op: FPU_OPS[(op - OP_FPU_BASE) as usize],
            fd: FReg(rd as u8),
            fs1: FReg(rs1 as u8),
            fs2: FReg(rs2 as u8),
            br,
        },
        OP_FNEG => MInst::FNeg {
            fd: FReg(rd as u8),
            fs: FReg(rs1 as u8),
            br,
        },
        OP_FMOV => MInst::FMov {
            fd: FReg(rd as u8),
            fs: FReg(rs1 as u8),
            br,
        },
        OP_ITOF => MInst::ItoF {
            fd: FReg(rd as u8),
            rs: Reg(rs1 as u8),
            br,
        },
        OP_FTOI => MInst::FtoI {
            rd: Reg(rd as u8),
            fs: FReg(rs1 as u8),
            br,
        },
        OP_CMP if base => MInst::Cmp {
            rs1: Reg(rs1 as u8),
            src2,
        },
        OP_FCMP if base => MInst::FCmp {
            fs1: FReg(rs1 as u8),
            fs2: FReg(rs2 as u8),
        },
        OP_BCC if base => MInst::Bcc {
            cc: Cc::from_code((word >> 23) & 7).ok_or_else(bad)?,
            float: (word >> 22) & 1 == 1,
            disp: sext(word & mask(22), 22),
        },
        OP_BA if base => MInst::Ba {
            disp: sext(word & mask(26), 26),
        },
        OP_CALL if base => MInst::Call {
            disp: sext(word & mask(26), 26),
        },
        OP_JMPL if base => MInst::Jmpl {
            rd: Reg(rd as u8),
            rs1: Reg(rs1 as u8),
            off,
        },
        OP_BCALC if !base => MInst::Bcalc {
            bd: BReg(((word >> 23) & 7) as u8),
            disp: sext((word >> 3) & mask(20), 20),
            br,
        },
        OP_CMPBR if !base => {
            let i = (word >> 15) & 1;
            let s2 = if i == 1 {
                Src2::Imm(sext((word >> 3) & mask(11), 11))
            } else {
                Src2::Reg(Reg(((word >> 3) & 0xF) as u8))
            };
            MInst::CmpBr {
                cc: Cc::from_code((word >> 23) & 7).ok_or_else(bad)?,
                bt: BReg(((word >> 20) & 7) as u8),
                rs1: Reg(((word >> 16) & 0xF) as u8),
                src2: s2,
                br,
            }
        }
        OP_FCMPBR if !base => MInst::FCmpBr {
            cc: Cc::from_code((word >> 23) & 7).ok_or_else(bad)?,
            bt: BReg(((word >> 20) & 7) as u8),
            fs1: FReg(((word >> 16) & 0xF) as u8),
            fs2: FReg(((word >> 3) & 0xF) as u8),
            br,
        },
        OP_BMOVB if !base => MInst::BMovB {
            bd: BReg(((word >> 23) & 7) as u8),
            bs: BReg(((word >> 20) & 7) as u8),
            br,
        },
        OP_BMOVR if !base => MInst::BMovR {
            bd: BReg(((word >> 23) & 7) as u8),
            rs1: Reg(((word >> 19) & 0xF) as u8),
            off: sext((word >> 3) & mask(13), 13),
            br,
        },
        OP_BLOAD if !base => {
            let i = (word >> 18) & 1;
            let s2 = if i == 1 {
                Src2::Imm(sext((word >> 3) & mask(11), 11))
            } else {
                Src2::Reg(Reg(((word >> 3) & 0xF) as u8))
            };
            MInst::BLoad {
                bd: BReg(((word >> 23) & 7) as u8),
                rs1: Reg(((word >> 19) & 0xF) as u8),
                src2: s2,
                br,
            }
        }
        OP_BSTORE if !base => MInst::BStore {
            bs: BReg(((word >> 23) & 7) as u8),
            rs1: Reg(((word >> 19) & 0xF) as u8),
            off: sext((word >> 3) & mask(13), 13),
            br,
        },
        _ => return Err(bad()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Machine, i: MInst) {
        let w = encode(m, i).unwrap_or_else(|e| panic!("encode {i:?} on {m}: {e}"));
        let d = decode(m, w).unwrap();
        assert_eq!(d, i, "word {w:#010x}");
    }

    #[test]
    fn basic_roundtrips_baseline() {
        let m = Machine::Baseline;
        roundtrip(m, MInst::Nop { br: 0 });
        roundtrip(m, MInst::Halt);
        roundtrip(
            m,
            MInst::Alu {
                op: AluOp::Add,
                rd: Reg(31),
                rs1: Reg(17),
                src2: Src2::Imm(-4096),
                br: 0,
            },
        );
        roundtrip(
            m,
            MInst::Alu {
                op: AluOp::Xor,
                rd: Reg(5),
                rs1: Reg(6),
                src2: Src2::Reg(Reg(7)),
                br: 0,
            },
        );
        roundtrip(
            m,
            MInst::Sethi {
                rd: Reg(29),
                imm: (1 << 21) - 1,
            },
        );
        roundtrip(
            m,
            MInst::Bcc {
                cc: Cc::Le,
                float: true,
                disp: -100,
            },
        );
        roundtrip(m, MInst::Ba { disp: 1 << 20 });
        roundtrip(m, MInst::Call { disp: -(1 << 20) });
        roundtrip(
            m,
            MInst::Jmpl {
                rd: Reg(31),
                rs1: Reg(31),
                off: 0,
            },
        );
        roundtrip(
            m,
            MInst::Cmp {
                rs1: Reg(3),
                src2: Src2::Imm(0),
            },
        );
        roundtrip(
            m,
            MInst::FCmp {
                fs1: FReg(30),
                fs2: FReg(1),
            },
        );
    }

    #[test]
    fn basic_roundtrips_branchreg() {
        let m = Machine::BranchReg;
        roundtrip(m, MInst::Nop { br: 7 });
        roundtrip(
            m,
            MInst::Alu {
                op: AluOp::Sub,
                rd: Reg(15),
                rs1: Reg(14),
                src2: Src2::Imm(-1024),
                br: 3,
            },
        );
        roundtrip(
            m,
            MInst::Sethi {
                rd: Reg(13),
                imm: 0x1F_FFFF,
            },
        );
        roundtrip(
            m,
            MInst::Bcalc {
                bd: BReg(2),
                disp: -1000,
                br: 5,
            },
        );
        roundtrip(
            m,
            MInst::CmpBr {
                cc: Cc::Ne,
                bt: BReg(2),
                rs1: Reg(0),
                src2: Src2::Imm(0),
                br: 0,
            },
        );
        roundtrip(
            m,
            MInst::CmpBr {
                cc: Cc::Lt,
                bt: BReg(6),
                rs1: Reg(9),
                src2: Src2::Reg(Reg(4)),
                br: 1,
            },
        );
        roundtrip(
            m,
            MInst::FCmpBr {
                cc: Cc::Gt,
                bt: BReg(1),
                fs1: FReg(15),
                fs2: FReg(2),
                br: 0,
            },
        );
        roundtrip(
            m,
            MInst::BMovB {
                bd: BReg(1),
                bs: BReg(7),
                br: 2,
            },
        );
        roundtrip(
            m,
            MInst::BMovR {
                bd: BReg(3),
                rs1: Reg(13),
                off: 2047,
                br: 0,
            },
        );
        roundtrip(
            m,
            MInst::BLoad {
                bd: BReg(3),
                rs1: Reg(1),
                src2: Src2::Reg(Reg(2)),
                br: 0,
            },
        );
        roundtrip(
            m,
            MInst::BStore {
                bs: BReg(1),
                rs1: Reg(14),
                off: -4,
                br: 0,
            },
        );
    }

    #[test]
    fn orlo_is_unsigned() {
        for m in [Machine::Baseline, Machine::BranchReg] {
            let i = MInst::Alu {
                op: AluOp::OrLo,
                rd: Reg(1),
                rs1: Reg(1),
                src2: Src2::Imm(0x7FF),
                br: 0,
            };
            roundtrip(m, i);
        }
        // 0x7FF would not fit as a *signed* 11-bit value; OrLo accepts it.
        assert!(!Machine::BranchReg.imm_fits(0x7FF));
    }

    #[test]
    fn machine_restrictions_enforced() {
        assert_eq!(
            encode(Machine::BranchReg, MInst::Ba { disp: 0 }),
            Err(EncodeError::WrongMachine)
        );
        assert_eq!(
            encode(
                Machine::Baseline,
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 0,
                    br: 0
                }
            ),
            Err(EncodeError::WrongMachine)
        );
        // Register 16 is fine on baseline, out of range on the BR machine.
        let add16 = |br| MInst::Alu {
            op: AluOp::Add,
            rd: Reg(16),
            rs1: Reg(0),
            src2: Src2::Imm(0),
            br,
        };
        assert!(encode(Machine::Baseline, add16(0)).is_ok());
        assert_eq!(
            encode(Machine::BranchReg, add16(0)),
            Err(EncodeError::RegOutOfRange)
        );
        // br field must be 0 on baseline.
        assert_eq!(
            encode(Machine::Baseline, MInst::Nop { br: 1 }),
            Err(EncodeError::BrOutOfRange)
        );
        // Immediate 2000 fits baseline (13-bit) but not BR machine (11-bit).
        let big_imm = |_m| MInst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(1),
            src2: Src2::Imm(2000),
            br: 0,
        };
        assert!(encode(Machine::Baseline, big_imm(())).is_ok());
        assert_eq!(
            encode(Machine::BranchReg, big_imm(())),
            Err(EncodeError::ImmOutOfRange)
        );
    }

    #[test]
    fn unknown_opcode_fails_decode() {
        assert!(decode(Machine::Baseline, 63 << 26).is_err());
        assert!(decode(Machine::Baseline, OP_BCALC << 26).is_err());
        assert!(decode(Machine::BranchReg, OP_BCC << 26).is_err());
    }

    // ---- randomized tests (experiment E11: Figs 10-11 format validation) ----
    //
    // Deterministic seeded loops (SplitMix64) instead of a property-test
    // framework, so the crate builds with no external dependencies.

    struct TRng(u64);

    impl TRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u32) -> u32 {
            (self.next() % n as u64) as u32
        }
        fn range(&mut self, lo: i32, hi: i32) -> i32 {
            lo + self.below((hi - lo) as u32) as i32
        }
    }

    const CASES: usize = 512;

    fn arb_reg(r: &mut TRng, m: Machine) -> Reg {
        Reg(r.below(m.num_regs() as u32) as u8)
    }
    fn arb_freg(r: &mut TRng, m: Machine) -> FReg {
        FReg(r.below(m.num_fregs() as u32) as u8)
    }
    fn arb_imm(r: &mut TRng, m: Machine) -> i32 {
        let b = m.imm_bits();
        r.range(-(1i32 << (b - 1)), 1i32 << (b - 1))
    }
    fn arb_br(r: &mut TRng, m: Machine) -> u8 {
        match m {
            Machine::Baseline => 0,
            Machine::BranchReg => r.below(8) as u8,
        }
    }
    fn arb_cc(r: &mut TRng) -> Cc {
        Cc::ALL[r.below(Cc::ALL.len() as u32) as usize]
    }

    fn arb_shared(r: &mut TRng, m: Machine) -> MInst {
        match r.below(5) {
            0 => MInst::Alu {
                // Exclude OrLo (unsigned imm).
                op: ALU_OPS[r.below(11) as usize],
                rd: arb_reg(r, m),
                rs1: arb_reg(r, m),
                src2: if r.below(2) == 0 {
                    Src2::Reg(arb_reg(r, m))
                } else {
                    Src2::Imm(arb_imm(r, m))
                },
                br: arb_br(r, m),
            },
            1 => MInst::Load {
                w: MemWidth::Byte,
                rd: arb_reg(r, m),
                rs1: arb_reg(r, m),
                off: arb_imm(r, m),
                br: arb_br(r, m),
            },
            2 => MInst::Store {
                w: MemWidth::Word,
                rs: arb_reg(r, m),
                rs1: arb_reg(r, m),
                off: arb_imm(r, m),
                br: arb_br(r, m),
            },
            3 => MInst::Fpu {
                op: FPU_OPS[r.below(FPU_OPS.len() as u32) as usize],
                fd: arb_freg(r, m),
                fs1: arb_freg(r, m),
                fs2: arb_freg(r, m),
                br: arb_br(r, m),
            },
            _ => MInst::Sethi {
                rd: arb_reg(r, m),
                imm: r.below(1 << 21),
            },
        }
    }

    #[test]
    fn shared_instructions_roundtrip_baseline() {
        let mut r = TRng(0xE11_0001);
        for _ in 0..CASES {
            let i = arb_shared(&mut r, Machine::Baseline);
            roundtrip(Machine::Baseline, i);
        }
    }

    #[test]
    fn shared_instructions_roundtrip_branchreg() {
        let mut r = TRng(0xE11_0002);
        for _ in 0..CASES {
            let i = arb_shared(&mut r, Machine::BranchReg);
            roundtrip(Machine::BranchReg, i);
        }
    }

    #[test]
    fn baseline_control_flow_roundtrips() {
        let mut r = TRng(0xE11_0003);
        for _ in 0..CASES {
            let cc = arb_cc(&mut r);
            let float = r.below(2) == 0;
            let disp = r.range(-(1i32 << 21), 1i32 << 21);
            let disp26 = r.range(-(1i32 << 25), 1i32 << 25);
            roundtrip(Machine::Baseline, MInst::Bcc { cc, float, disp });
            roundtrip(Machine::Baseline, MInst::Ba { disp: disp26 });
            roundtrip(Machine::Baseline, MInst::Call { disp: disp26 });
        }
    }

    #[test]
    fn br_control_flow_roundtrips() {
        let m = Machine::BranchReg;
        let mut r = TRng(0xE11_0004);
        for _ in 0..CASES {
            let cc = arb_cc(&mut r);
            let bd = r.below(8) as u8;
            let bt = r.below(8) as u8;
            let rs1 = arb_reg(&mut r, m);
            let imm = arb_imm(&mut r, m);
            let disp = r.range(-(1i32 << 19), 1i32 << 19);
            let br = r.below(8) as u8;
            roundtrip(
                m,
                MInst::Bcalc {
                    bd: BReg(bd),
                    disp,
                    br,
                },
            );
            roundtrip(
                m,
                MInst::CmpBr {
                    cc,
                    bt: BReg(bt),
                    rs1,
                    src2: Src2::Imm(imm),
                    br,
                },
            );
            roundtrip(
                m,
                MInst::BMovB {
                    bd: BReg(bd),
                    bs: BReg(bt),
                    br,
                },
            );
            roundtrip(
                m,
                MInst::BMovR {
                    bd: BReg(bd),
                    rs1,
                    off: imm,
                    br,
                },
            );
            roundtrip(
                m,
                MInst::BStore {
                    bs: BReg(bt),
                    rs1,
                    off: imm,
                    br,
                },
            );
            roundtrip(
                m,
                MInst::BLoad {
                    bd: BReg(bd),
                    rs1,
                    src2: Src2::Reg(Reg(3)),
                    br,
                },
            );
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut r = TRng(0xE11_0005);
        for _ in 0..4096 {
            let w = r.next() as u32;
            let _ = decode(Machine::Baseline, w);
            let _ = decode(Machine::BranchReg, w);
        }
    }

    #[test]
    fn decode_encode_decode_is_stable() {
        let mut r = TRng(0xE11_0006);
        for _ in 0..4096 {
            let w = r.next() as u32;
            for m in [Machine::Baseline, Machine::BranchReg] {
                if let Ok(i) = decode(m, w) {
                    // Decoded instructions may not re-encode to the same word
                    // (padding bits), but must re-encode and re-decode equal.
                    let w2 = encode(m, i).expect("decoded inst must encode");
                    assert_eq!(decode(m, w2).unwrap(), i);
                }
            }
        }
    }
}
