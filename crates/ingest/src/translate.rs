//! RV32I → `br_ir` translation.
//!
//! Layout of the translated function (always named `main` so the existing
//! assembler entry-point convention applies):
//!
//! * **entry block** — materialise the guest state: the address of the
//!   64 KiB `mem` global, zero-initialised virtual registers for
//!   `x1..x31`, and a zeroed jump-target register; then jump to the
//!   instruction block of the entry pc.
//! * **one IR block per text word** — both machines elide the
//!   jump-to-next-block at emit time, so straight-line guest code costs
//!   nothing extra.
//! * **trap block** — returns [`TRAP_EXIT`].
//! * **dispatch blocks** — `jalr` stores its target into the jump-target
//!   register and jumps here: an alignment check, then a dense
//!   `Switch` over text word indices (base `RV_TEXT_BASE / 4`) whose
//!   default edge traps.  This makes *every* indirect jump a checked,
//!   in-text jump: the translated program cannot escape its own CFG.
//!
//! Invariants the differential oracle relies on:
//!
//! * effective addresses are masked (`& (RV_MEM_BYTES - 1)`, width
//!   aligned), so guest memory accesses can never fault;
//! * `sh` lowers to two byte stores (low byte, then `value >> 8`), and
//!   the reference interpreter records its store events the same way;
//! * `x0` reads fold to the constant 0 and writes to it vanish;
//! * unsigned comparisons bias both operands by `i32::MIN` and reuse the
//!   signed IR conditions.

use crate::rv32::{self, AluOp, BrCond, MemW, Rv32Inst};
use crate::{IngestError, Rv32Program, RV_MEM_BYTES, RV_TEXT_BASE, TRAP_EXIT};
use br_ir::{
    BinOp, BlockId, Cond, FuncBuilder, Global, GlobalInit, Inst, Module, Operand, RegClass, Ty,
    VReg, Width,
};

/// Name of the translated program's guest-memory global.
pub const MEM_SYMBOL: &str = "mem";

struct Tx {
    b: FuncBuilder,
    /// Guest registers `x1..x31` (`x0` folds to `Const(0)`).
    xv: [VReg; 32],
    /// Jump-target register feeding the dispatcher.
    jt: VReg,
    /// Base address of the `mem` global.
    mem_base: VReg,
    iblocks: Vec<BlockId>,
    trap_bb: BlockId,
    disp_bb: BlockId,
}

impl Tx {
    fn rv(&self, r: u8) -> Operand {
        if r == 0 {
            Operand::Const(0)
        } else {
            Operand::Reg(self.xv[r as usize])
        }
    }

    /// Write `v` to guest register `rd` (dropped for `x0`).
    fn set(&mut self, rd: u8, v: Operand) {
        if rd != 0 {
            self.b.push(Inst::Copy {
                dst: self.xv[rd as usize],
                a: v,
            });
        }
    }

    fn bin(&mut self, op: BinOp, a: Operand, b: Operand) -> Operand {
        Operand::Reg(self.b.bin(op, RegClass::Int, a, b))
    }

    /// Bias an operand by `i32::MIN`, mapping unsigned order onto signed.
    fn ubias(&mut self, a: Operand) -> Operand {
        self.bin(BinOp::Xor, a, Operand::Const(i32::MIN as i64))
    }

    /// The fall-through successor of text word `i`.
    fn next_of(&self, i: usize) -> BlockId {
        *self.iblocks.get(i + 1).unwrap_or(&self.trap_bb)
    }

    /// Static jump target: the instruction block for `pc`, or the trap
    /// block if `pc` is misaligned or outside the text segment.
    fn block_of(&self, pc: i64) -> BlockId {
        let lo = RV_TEXT_BASE as i64;
        let hi = lo + 4 * self.iblocks.len() as i64;
        if pc % 4 != 0 || pc < lo || pc >= hi {
            self.trap_bb
        } else {
            self.iblocks[((pc - lo) / 4) as usize]
        }
    }

    /// `mem_base + ((addr_expr) & mask)` for a memory access.
    fn guest_addr(&mut self, rs1: u8, imm: i32, mask: u32) -> Operand {
        let sum = self.bin(BinOp::Add, self.rv(rs1), Operand::Const(imm as i64));
        let ea = self.bin(BinOp::And, sum, Operand::Const(mask as i64));
        self.bin(BinOp::Add, Operand::Reg(self.mem_base), ea)
    }

    fn load(&mut self, base: Operand, off: i32, width: Width) -> Operand {
        let dst = self.b.new_vreg(RegClass::Int);
        self.b.push(Inst::Load {
            dst,
            base,
            off,
            width,
        });
        Operand::Reg(dst)
    }

    /// Sign-extend the low `bits` of `v`.
    fn sext(&mut self, v: Operand, bits: i64) -> Operand {
        let sh = self.bin(BinOp::Shl, v, Operand::Const(32 - bits));
        self.bin(BinOp::Sar, sh, Operand::Const(32 - bits))
    }

    fn translate_inst(&mut self, i: usize, inst: Rv32Inst) {
        let pc = RV_TEXT_BASE as i64 + 4 * i as i64;
        let next = self.next_of(i);
        match inst {
            Rv32Inst::Lui { rd, imm20 } => {
                self.set(rd, Operand::Const(imm20.wrapping_shl(12) as i64));
                self.b.terminate(Inst::Jump(next));
            }
            Rv32Inst::Auipc { rd, imm20 } => {
                let v = (pc as i32).wrapping_add(imm20.wrapping_shl(12));
                self.set(rd, Operand::Const(v as i64));
                self.b.terminate(Inst::Jump(next));
            }
            Rv32Inst::Jal { rd, off } => {
                self.set(rd, Operand::Const(pc + 4));
                let target = self.block_of(pc + off as i64);
                self.b.terminate(Inst::Jump(target));
            }
            Rv32Inst::Jalr { rd, rs1, imm } => {
                // Target computed before rd is written (rd may equal rs1).
                let t = self.bin(BinOp::Add, self.rv(rs1), Operand::Const(imm as i64));
                let t = self.bin(BinOp::And, t, Operand::Const(-2));
                self.b.push(Inst::Copy { dst: self.jt, a: t });
                self.set(rd, Operand::Const(pc + 4));
                self.b.terminate(Inst::Jump(self.disp_bb));
            }
            Rv32Inst::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                let (mut a, mut b) = (self.rv(rs1), self.rv(rs2));
                let cond = match cond {
                    BrCond::Eq => Cond::Eq,
                    BrCond::Ne => Cond::Ne,
                    BrCond::Lt => Cond::Lt,
                    BrCond::Ge => Cond::Ge,
                    BrCond::Ltu | BrCond::Geu => {
                        a = self.ubias(a);
                        b = self.ubias(b);
                        if cond == BrCond::Ltu {
                            Cond::Lt
                        } else {
                            Cond::Ge
                        }
                    }
                };
                let then_bb = self.block_of(pc + off as i64);
                self.b.terminate(Inst::Branch {
                    cond,
                    a,
                    b,
                    float: false,
                    then_bb,
                    else_bb: next,
                });
            }
            Rv32Inst::Load {
                width,
                rd,
                rs1,
                imm,
            } => {
                if rd != 0 {
                    let v = match width {
                        MemW::W => {
                            let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 4);
                            self.load(addr, 0, Width::Word)
                        }
                        MemW::Bu => {
                            let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 1);
                            self.load(addr, 0, Width::Byte)
                        }
                        MemW::B => {
                            let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 1);
                            let v = self.load(addr, 0, Width::Byte);
                            self.sext(v, 8)
                        }
                        MemW::H | MemW::Hu => {
                            let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 2);
                            let b0 = self.load(addr, 0, Width::Byte);
                            let b1 = self.load(addr, 1, Width::Byte);
                            let hi = self.bin(BinOp::Shl, b1, Operand::Const(8));
                            let h = self.bin(BinOp::Or, b0, hi);
                            if width == MemW::H {
                                self.sext(h, 16)
                            } else {
                                h
                            }
                        }
                    };
                    self.set(rd, v);
                }
                self.b.terminate(Inst::Jump(next));
            }
            Rv32Inst::Store {
                width,
                rs1,
                rs2,
                imm,
            } => {
                match width {
                    MemW::W => {
                        let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 4);
                        self.b.push(Inst::Store {
                            a: self.rv(rs2),
                            base: addr,
                            off: 0,
                            width: Width::Word,
                        });
                    }
                    MemW::B | MemW::Bu => {
                        let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 1);
                        self.b.push(Inst::Store {
                            a: self.rv(rs2),
                            base: addr,
                            off: 0,
                            width: Width::Byte,
                        });
                    }
                    MemW::H | MemW::Hu => {
                        let addr = self.guest_addr(rs1, imm, RV_MEM_BYTES - 2);
                        self.b.push(Inst::Store {
                            a: self.rv(rs2),
                            base: addr,
                            off: 0,
                            width: Width::Byte,
                        });
                        let hi = self.bin(BinOp::Sar, self.rv(rs2), Operand::Const(8));
                        self.b.push(Inst::Store {
                            a: hi,
                            base: addr,
                            off: 1,
                            width: Width::Byte,
                        });
                    }
                }
                self.b.terminate(Inst::Jump(next));
            }
            Rv32Inst::AluImm { op, rd, rs1, imm } => {
                let v = self.alu_value(op, self.rv(rs1), Operand::Const(imm as i64));
                self.set(rd, v);
                self.b.terminate(Inst::Jump(next));
            }
            Rv32Inst::Alu { op, rd, rs1, rs2 } => {
                let v = self.alu_value(op, self.rv(rs1), self.rv(rs2));
                self.set(rd, v);
                self.b.terminate(Inst::Jump(next));
            }
            Rv32Inst::Ecall => {
                self.b.terminate(Inst::Ret(Some(self.rv(10))));
            }
        }
    }

    fn alu_value(&mut self, op: AluOp, a: Operand, b: Operand) -> Operand {
        let simple = match op {
            AluOp::Add => Some(BinOp::Add),
            AluOp::Sub => Some(BinOp::Sub),
            AluOp::Sll => Some(BinOp::Shl),
            AluOp::Xor => Some(BinOp::Xor),
            AluOp::Srl => Some(BinOp::Shr),
            AluOp::Sra => Some(BinOp::Sar),
            AluOp::Or => Some(BinOp::Or),
            AluOp::And => Some(BinOp::And),
            AluOp::Slt | AluOp::Sltu => None,
        };
        match simple {
            Some(bop) => self.bin(bop, a, b),
            None => {
                let (a, b) = if op == AluOp::Sltu {
                    (self.ubias(a), self.ubias(b))
                } else {
                    (a, b)
                };
                Operand::Reg(self.b.cmp_set(Cond::Lt, a, b))
            }
        }
    }
}

/// Translate an RV32I program into a single-function IR module.
///
/// The returned module contains `main` plus the zero-initialised
/// [`MEM_SYMBOL`] data global, and is ready for the standard
/// isel → regalloc → hoist → emit pipeline of either machine.
pub fn translate(prog: &Rv32Program) -> Result<Module, IngestError> {
    prog.validate()?;
    let insts: Vec<Rv32Inst> = prog
        .words
        .iter()
        .enumerate()
        .map(|(i, &w)| rv32::decode_at(RV_TEXT_BASE + 4 * i as u32, w))
        .collect::<Result<_, _>>()?;

    let mut module = Module::new();
    let mem_sym = module.add_global(Global {
        name: MEM_SYMBOL.to_string(),
        ty: Ty::Array(Box::new(Ty::Char), RV_MEM_BYTES as usize),
        init: GlobalInit::Zero,
    });

    let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
    let xv = std::array::from_fn(|_| b.new_vreg(RegClass::Int));
    let jt = b.new_vreg(RegClass::Int);
    let mem_base = b.new_vreg(RegClass::Int);
    let iblocks: Vec<BlockId> = (0..insts.len()).map(|_| b.new_block()).collect();
    let trap_bb = b.new_block();
    let disp_bb = b.new_block();
    let disp2_bb = b.new_block();

    // Entry: materialise guest state, then jump to the entry pc's block.
    b.push(Inst::AddrOf {
        dst: mem_base,
        sym: mem_sym,
        off: 0,
    });
    for &r in xv.iter().skip(1) {
        b.push(Inst::Copy {
            dst: r,
            a: Operand::Const(0),
        });
    }
    b.push(Inst::Copy {
        dst: jt,
        a: Operand::Const(0),
    });
    let entry_block = iblocks[((prog.entry - RV_TEXT_BASE) / 4) as usize];
    b.terminate(Inst::Jump(entry_block));

    let mut tx = Tx {
        b,
        xv,
        jt,
        mem_base,
        iblocks,
        trap_bb,
        disp_bb,
    };

    for (i, &inst) in insts.iter().enumerate() {
        tx.b.switch_to(tx.iblocks[i]);
        tx.translate_inst(i, inst);
    }

    // Trap: the shared "this program went wrong" exit.
    tx.b.switch_to(trap_bb);
    tx.b.terminate(Inst::Ret(Some(Operand::Const(TRAP_EXIT as i64))));

    // Dispatcher: alignment check, then a dense switch over word indices.
    tx.b.switch_to(disp_bb);
    let misal = tx.bin(BinOp::And, Operand::Reg(tx.jt), Operand::Const(3));
    tx.b.terminate(Inst::Branch {
        cond: Cond::Ne,
        a: misal,
        b: Operand::Const(0),
        float: false,
        then_bb: trap_bb,
        else_bb: disp2_bb,
    });

    tx.b.switch_to(disp2_bb);
    let idx = tx.bin(BinOp::Shr, Operand::Reg(tx.jt), Operand::Const(2));
    tx.b.terminate(Inst::Switch {
        idx,
        base: (RV_TEXT_BASE / 4) as i64,
        targets: tx.iblocks.clone(),
        default: trap_bb,
    });

    module.add_function(tx.b.finish());
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use crate::rv32::asm::*;
    use crate::rv32::encode;

    fn prog(insts: &[Rv32Inst]) -> Rv32Program {
        Rv32Program::new(insts.iter().copied().map(encode).collect())
    }

    /// Run a translated program in the IR interpreter and compare its
    /// exit value with the reference interpreter.
    fn both_exits(insts: &[Rv32Inst]) -> (i32, i32) {
        let p = prog(insts);
        let module = translate(&p).expect("translate");
        let ir_exit = br_ir::Interpreter::new(&module)
            .run("main", &[])
            .expect("ir interp");
        let ref_exit = interp::run(&p, 1 << 20).expect("ref interp").exit;
        (ir_exit, ref_exit)
    }

    #[test]
    fn translate_rejects_bad_images() {
        let p = Rv32Program::new(vec![0xffff_ffff]);
        assert!(matches!(
            translate(&p),
            Err(IngestError::BadWord { pc: 0x1000, .. })
        ));
        let p = Rv32Program::new(vec![0x0000_000f]);
        assert!(matches!(
            translate(&p),
            Err(IngestError::Unsupported { .. })
        ));
    }

    #[test]
    fn straight_line_matches_reference() {
        let (ir, r) = both_exits(&[addi(10, 0, 7), slli(10, 10, 3), addi(10, 10, -2), ecall()]);
        assert_eq!(ir, r);
        assert_eq!(ir, 54);
    }

    #[test]
    fn sltu_bias_matches_reference() {
        // 0x80000000 is unsigned-large: sltu(1, 0x80000000) == 1.
        let insts = [
            lui(1, 0x80000),
            addi(2, 0, 1),
            alu(AluOp::Sltu, 10, 2, 1),
            ecall(),
        ];
        let (ir, r) = both_exits(&insts);
        assert_eq!(ir, r);
        assert_eq!(ir, 1);
    }

    #[test]
    fn loop_and_memory_match_reference() {
        // for i in 0..10 { mem[4i] = i*3 }; return lw(mem[36]).
        let mut b = rv32::Rv32Builder::new();
        let top = b.label();
        let done = b.label();
        b.push(addi(1, 0, 0)); // i
        b.push(addi(2, 0, 0)); // addr
        b.bind(top);
        b.push(addi(3, 0, 10));
        b.br(rv32::BrCond::Ge, 1, 3, done);
        b.push(add(4, 1, 1));
        b.push(add(4, 4, 1)); // 3i
        b.push(sw(2, 4, 0));
        b.push(addi(1, 1, 1));
        b.push(addi(2, 2, 4));
        b.jal_to(0, top);
        b.bind(done);
        b.push(lw(10, 0, 36));
        b.push(ecall());
        let p = b.finish();
        let module = translate(&p).unwrap();
        let ir = br_ir::Interpreter::new(&module).run("main", &[]).unwrap();
        let r = interp::run(&p, 1 << 20).unwrap();
        assert_eq!(ir, r.exit);
        assert_eq!(ir, 27);
    }

    #[test]
    fn jalr_dispatch_and_trap_match_reference() {
        // Call a leaf via jal, return via jalr x0,x1; then a wild jalr traps.
        let insts = [
            jal(1, 12),     // call +12 (the leaf)
            jalr(0, 5, 0),  // x5 = 0 -> trap
            ecall(),        // unreachable
            addi(10, 0, 9), // leaf: a0 = 9
            jalr(0, 1, 0),  // return to pc 4
        ];
        let (ir, r) = both_exits(&insts);
        assert_eq!(ir, r);
        assert_eq!(ir, TRAP_EXIT);
    }

    #[test]
    fn fall_off_end_traps_in_both() {
        let (ir, r) = both_exits(&[addi(10, 0, 1)]);
        assert_eq!(ir, r);
        assert_eq!(ir, TRAP_EXIT);
    }

    #[test]
    fn sh_lowering_is_two_byte_stores() {
        let p = prog(&[addi(1, 0, 0x2a1), store(MemW::H, 0, 1, 8), ecall()]);
        let module = translate(&p).unwrap();
        let f = module.function("main").unwrap();
        let byte_stores = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Store {
                        width: Width::Byte,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(byte_stores, 2);
    }
}
