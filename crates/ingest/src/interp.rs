//! Reference RV32I interpreter: the ground truth for the differential
//! oracle.  Executes an [`Rv32Program`] directly over the guest register
//! file and 64 KiB memory, recording the same observable events the
//! translated machine code produces:
//!
//! * the exit value (`x10` at `ecall`, or [`TRAP_EXIT`] on a trap),
//! * the store-event stream, mirrored instruction for instruction — an
//!   `sh` records two byte events because the translation lowers it to
//!   two byte stores,
//! * the final memory image.
//!
//! Keeping the event streams structurally identical lets the torture
//! oracle compare reference vs translated-baseline vs translated-BR
//! executions with plain `==`.

use crate::rv32::{self, AluOp, BrCond, MemW, Rv32Inst};
use crate::{IngestError, Rv32Program, RV_MEM_BYTES, RV_TEXT_BASE, TRAP_EXIT};
use std::collections::BTreeSet;
use std::fmt;

/// Result of a completed reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefOutcome {
    /// `x10` at `ecall`, or [`TRAP_EXIT`].
    pub exit: i32,
    /// RV32 instructions retired.
    pub steps: u64,
    /// Store events as `(guest address, full source value)`, one per
    /// *machine* store the translation emits (so `sh` yields two).
    pub stores: Vec<(u32, i32)>,
    /// Final guest memory.
    pub mem: Vec<u8>,
    /// [`rv32::Rv32Inst::kind_name`]s of every instruction kind that
    /// actually retired — the conformance gate unions these across its
    /// corpus to prove all of [`rv32::ALL_KINDS`] executes.
    pub kinds: BTreeSet<&'static str>,
}

impl RefOutcome {
    /// Little-endian word at guest word index `w` (for memory compares).
    pub fn mem_word(&self, w: usize) -> i32 {
        let b = &self.mem[4 * w..4 * w + 4];
        i32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// The program did not halt within the step budget.
    OutOfFuel { steps: u64 },
    /// The image fails to decode; `translate` would reject it the same way.
    Untranslatable(IngestError),
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::OutOfFuel { steps } => {
                write!(
                    f,
                    "rv32 reference interpreter out of fuel after {steps} steps"
                )
            }
            RefError::Untranslatable(e) => write!(f, "rv32 reference interpreter: {e}"),
        }
    }
}

impl std::error::Error for RefError {}

const MASK: u32 = RV_MEM_BYTES - 1;

/// Run `prog` for at most `fuel` RV32 instructions.
pub fn run(prog: &Rv32Program, fuel: u64) -> Result<RefOutcome, RefError> {
    prog.validate().map_err(RefError::Untranslatable)?;
    let text: Vec<Rv32Inst> = prog
        .words
        .iter()
        .enumerate()
        .map(|(i, &w)| rv32::decode_at(RV_TEXT_BASE + 4 * i as u32, w))
        .collect::<Result<_, _>>()
        .map_err(RefError::Untranslatable)?;

    let mut x = [0i32; 32];
    let mut mem = vec![0u8; RV_MEM_BYTES as usize];
    let mut stores: Vec<(u32, i32)> = Vec::new();
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    let mut pc = prog.entry;
    let mut steps = 0u64;
    let end = prog.text_end();

    loop {
        if pc < RV_TEXT_BASE || pc >= end || !pc.is_multiple_of(4) {
            // A "trap" mirrors the translated code's trap block: exit
            // with the sentinel.  Jumps leaving the text segment or
            // landing misaligned trap; so does falling off the end.
            return Ok(RefOutcome {
                exit: TRAP_EXIT,
                steps,
                stores,
                mem,
                kinds,
            });
        }
        if steps >= fuel {
            return Err(RefError::OutOfFuel { steps });
        }
        steps += 1;
        let inst = text[((pc - RV_TEXT_BASE) / 4) as usize];
        kinds.insert(inst.kind_name());
        let mut next = pc.wrapping_add(4);
        match inst {
            Rv32Inst::Lui { rd, imm20 } => wr(&mut x, rd, imm20 << 12),
            Rv32Inst::Auipc { rd, imm20 } => wr(&mut x, rd, (pc as i32).wrapping_add(imm20 << 12)),
            Rv32Inst::Jal { rd, off } => {
                wr(&mut x, rd, pc.wrapping_add(4) as i32);
                next = pc.wrapping_add(off as u32);
            }
            Rv32Inst::Jalr { rd, rs1, imm } => {
                let t = (x[rs1 as usize].wrapping_add(imm) as u32) & !1;
                wr(&mut x, rd, pc.wrapping_add(4) as i32);
                next = t;
            }
            Rv32Inst::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                let (a, b) = (x[rs1 as usize], x[rs2 as usize]);
                let taken = match cond {
                    BrCond::Eq => a == b,
                    BrCond::Ne => a != b,
                    BrCond::Lt => a < b,
                    BrCond::Ge => a >= b,
                    BrCond::Ltu => (a as u32) < b as u32,
                    BrCond::Geu => a as u32 >= b as u32,
                };
                if taken {
                    next = pc.wrapping_add(off as u32);
                }
            }
            Rv32Inst::Load {
                width,
                rd,
                rs1,
                imm,
            } => {
                let ea = x[rs1 as usize].wrapping_add(imm) as u32;
                let v = match width {
                    MemW::B => mem[(ea & MASK) as usize] as i8 as i32,
                    MemW::Bu => mem[(ea & MASK) as usize] as i32,
                    MemW::H | MemW::Hu => {
                        let ea = ea & MASK & !1;
                        let h = mem[ea as usize] as u32 | ((mem[ea as usize + 1] as u32) << 8);
                        if width == MemW::H {
                            h as u16 as i16 as i32
                        } else {
                            h as i32
                        }
                    }
                    MemW::W => {
                        let ea = (ea & MASK & !3) as usize;
                        i32::from_le_bytes([mem[ea], mem[ea + 1], mem[ea + 2], mem[ea + 3]])
                    }
                };
                wr(&mut x, rd, v);
            }
            Rv32Inst::Store {
                width,
                rs1,
                rs2,
                imm,
            } => {
                let ea = x[rs1 as usize].wrapping_add(imm) as u32;
                let v = x[rs2 as usize];
                match width {
                    MemW::B | MemW::Bu => {
                        let ea = ea & MASK;
                        mem[ea as usize] = v as u8;
                        stores.push((ea, v));
                    }
                    MemW::H | MemW::Hu => {
                        // Mirrors the translation: two byte stores, the
                        // second sourcing the arithmetically shifted value.
                        let ea = ea & MASK & !1;
                        let hi = v >> 8;
                        mem[ea as usize] = v as u8;
                        mem[ea as usize + 1] = hi as u8;
                        stores.push((ea, v));
                        stores.push((ea + 1, hi));
                    }
                    MemW::W => {
                        let ea = ea & MASK & !3;
                        mem[ea as usize..ea as usize + 4].copy_from_slice(&v.to_le_bytes());
                        stores.push((ea, v));
                    }
                }
            }
            Rv32Inst::AluImm { op, rd, rs1, imm } => {
                let v = alu(op, x[rs1 as usize], imm);
                wr(&mut x, rd, v);
            }
            Rv32Inst::Alu { op, rd, rs1, rs2 } => {
                let v = alu(op, x[rs1 as usize], x[rs2 as usize]);
                wr(&mut x, rd, v);
            }
            Rv32Inst::Ecall => {
                return Ok(RefOutcome {
                    exit: x[10],
                    steps,
                    stores,
                    mem,
                    kinds,
                });
            }
        }
        pc = next;
    }
}

fn wr(x: &mut [i32; 32], rd: u8, v: i32) {
    if rd != 0 {
        x[rd as usize] = v;
    }
}

fn alu(op: AluOp, a: i32, b: i32) -> i32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b as u32 & 31),
        AluOp::Slt => (a < b) as i32,
        AluOp::Sltu => ((a as u32) < b as u32) as i32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
        AluOp::Sra => a >> (b as u32 & 31),
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rv32::asm::*;

    fn run_insts(insts: &[Rv32Inst]) -> RefOutcome {
        let p = Rv32Program::new(insts.iter().copied().map(rv32::encode).collect());
        run(&p, 10_000).unwrap()
    }

    #[test]
    fn returns_a0_at_ecall() {
        let out = run_insts(&[addi(10, 0, 42), ecall()]);
        assert_eq!(out.exit, 42);
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn falling_off_the_end_traps() {
        let out = run_insts(&[addi(10, 0, 42)]);
        assert_eq!(out.exit, TRAP_EXIT);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let out = run_insts(&[addi(0, 0, 99), add(10, 0, 0), ecall()]);
        assert_eq!(out.exit, 0);
    }

    #[test]
    fn wild_jalr_traps() {
        // x1 = 0 -> jalr to address 0, outside text.
        let out = run_insts(&[jalr(0, 1, 0), ecall()]);
        assert_eq!(out.exit, TRAP_EXIT);
    }

    #[test]
    fn sh_records_two_byte_events() {
        let out = run_insts(&[addi(1, 0, 0x2a1), store(MemW::H, 0, 1, 8), ecall()]);
        assert_eq!(out.stores, vec![(8, 0x2a1), (9, 0x2)]);
        assert_eq!(out.mem[8], 0xa1);
        assert_eq!(out.mem[9], 0x02);
    }

    #[test]
    fn negative_addresses_wrap_into_the_mask() {
        // addi x1, x0, -4 -> ea = 0xfffffffc & 0xfffc = 0xfffc.
        let out = run_insts(&[addi(1, 0, -4), sw(1, 1, 0), lw(10, 1, 0), ecall()]);
        assert_eq!(out.stores, vec![(0xfffc, -4)]);
        assert_eq!(out.exit, -4);
    }

    #[test]
    fn out_of_fuel_is_typed() {
        let p = Rv32Program::new(vec![rv32::encode(jal(0, 0))]);
        assert!(matches!(
            run(&p, 100),
            Err(RefError::OutOfFuel { steps: 100 })
        ));
    }
}
