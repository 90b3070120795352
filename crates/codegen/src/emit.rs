//! Shared emission machinery: frame layout, immediate/offset legalization,
//! parallel moves, and expansion of [`VInst`] bodies into [`MInst`]s.

use br_ir::RegClass;
use br_isa::{
    AluOp, AsmItem, FReg, Label, MInst, Machine, MemWidth, Reg, Reloc, Src2, SymRef,
    FRESH_LABEL_BASE,
};

use crate::error::CodegenError;
use crate::regalloc::Allocation;
use crate::target::TargetSpec;
use crate::vcode::{FrameRef, VFunc, VInst, VSrc, VR};

/// A call's argument placement: integer register moves, float register
/// moves (both as `(src, dst)` physical numbers), and stack stores as
/// `(vreg, out_word, float)`.
pub type ArgPlan = (Vec<(u8, u8)>, Vec<(u8, u8)>, Vec<(VR, u32, bool)>);

/// Final stack-frame layout of one function.
///
/// ```text
/// sp + 0 ..                 outgoing argument overflow words
///      .. slot_off[i] ..    IR stack slots
///      .. spill_base ..     register-allocator spill slots
///      .. save_base ..      callee-save area (link/b7, bregs, ints, floats)
/// sp + size                 caller's frame (incoming args above)
/// ```
#[derive(Debug, Clone)]
pub struct FrameLayout {
    /// Offset of each IR slot.
    pub slot_off: Vec<i32>,
    /// Base offset of spill slots (each 4 bytes).
    pub spill_base: i32,
    /// Base of the callee-save area.
    pub save_base: i32,
    /// Total frame size (16-byte aligned).
    pub size: i32,
}

impl FrameLayout {
    /// Compute the layout. `save_words` is the number of 4-byte words the
    /// machine-specific emitter needs in the callee-save area.
    pub fn new(f: &VFunc, save_words: u32) -> FrameLayout {
        let mut off: i32 = 4 * f.max_out_args as i32;
        let mut slot_off = Vec::with_capacity(f.slots.len());
        for &(size, align) in &f.slots {
            let a = align.max(1) as i32;
            off = (off + a - 1) & !(a - 1);
            slot_off.push(off);
            off += size as i32;
        }
        off = (off + 3) & !3;
        let spill_base = off;
        off += 4 * f.num_spills as i32;
        let save_base = off;
        off += 4 * save_words as i32;
        let size = (off + 15) & !15;
        FrameLayout {
            slot_off,
            spill_base,
            save_base,
            size,
        }
    }

    /// Frame offset (from the adjusted sp) of a frame reference.
    pub fn offset(&self, fref: FrameRef) -> i32 {
        match fref {
            FrameRef::Slot(i) => self.slot_off[i as usize],
            FrameRef::Spill(i) => self.spill_base + 4 * i as i32,
            FrameRef::OutArg(i) => 4 * i as i32,
            FrameRef::InArg(i) => self.size + 4 * i as i32,
        }
    }
}

/// Static code-generation statistics (for experiment E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodegenStats {
    /// Baseline: delay slots filled with a useful instruction.
    pub slots_filled: u32,
    /// Baseline: delay slots left as noops.
    pub slots_noop: u32,
    /// BR machine: transfer carriers that are useful body instructions.
    pub carriers_useful: u32,
    /// BR machine: noop carriers replaced by address calculations
    /// (the paper's "36% of noops replaced").
    pub carriers_replaced_by_calc: u32,
    /// BR machine: carriers left as noops.
    pub carriers_noop: u32,
    /// BR machine: branch-target calculations hoisted into preheaders.
    pub hoisted_calcs: u32,
}

impl CodegenStats {
    /// Merge another function's stats.
    pub fn accumulate(&mut self, o: &CodegenStats) {
        self.slots_filled += o.slots_filled;
        self.slots_noop += o.slots_noop;
        self.carriers_useful += o.carriers_useful;
        self.carriers_replaced_by_calc += o.carriers_replaced_by_calc;
        self.carriers_noop += o.carriers_noop;
        self.hoisted_calcs += o.hoisted_calcs;
    }
}

/// Emission context shared by the two machine-specific emitters.
pub struct Emit<'a> {
    pub target: &'a TargetSpec,
    pub alloc: &'a Allocation,
    pub layout: FrameLayout,
    pub items: Vec<AsmItem>,
    pub next_label: u32,
    pub stats: CodegenStats,
}

impl<'a> Emit<'a> {
    /// New context.
    pub fn new(target: &'a TargetSpec, alloc: &'a Allocation, layout: FrameLayout) -> Emit<'a> {
        Emit {
            target,
            alloc,
            layout,
            items: Vec::new(),
            next_label: 0,
            stats: CodegenStats::default(),
        }
    }

    /// Machine being targeted.
    pub fn machine(&self) -> Machine {
        self.target.machine
    }

    /// Fresh function-local label.
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(FRESH_LABEL_BASE + self.next_label);
        self.next_label += 1;
        l
    }

    /// Label for an IR block.
    pub fn block_label(&self, b: br_ir::BlockId) -> Label {
        Label(b.0)
    }

    /// Physical integer register of a vreg.
    pub fn reg(&self, v: VR) -> Reg {
        Reg(self.alloc.reg(v))
    }

    /// Physical float register of a vreg.
    pub fn freg(&self, v: VR) -> FReg {
        FReg(self.alloc.reg(v))
    }

    /// Append a plain instruction.
    pub fn push(&mut self, i: MInst) {
        self.items.push(AsmItem::Inst(i, None));
    }

    /// Append an instruction with a relocation.
    pub fn push_reloc(&mut self, i: MInst, r: Reloc) {
        self.items.push(AsmItem::Inst(i, Some(r)));
    }

    /// Bind a label here.
    pub fn label(&mut self, l: Label) {
        self.items.push(AsmItem::Label(l));
    }

    /// `rd = val`, using the shortest legal sequence.
    pub fn li(&mut self, rd: Reg, val: i32) {
        if self.machine().imm_fits(val) {
            self.push(MInst::Alu {
                op: AluOp::Add,
                rd,
                rs1: Reg(0),
                src2: Src2::Imm(val),
                br: 0,
            });
        } else {
            let u = val as u32;
            self.push(MInst::Sethi { rd, imm: u >> 11 });
            let lo = (u & 0x7FF) as i32;
            if lo != 0 {
                self.push(MInst::Alu {
                    op: AluOp::OrLo,
                    rd,
                    rs1: rd,
                    src2: Src2::Imm(lo),
                    br: 0,
                });
            }
        }
    }

    /// `rd = &sym` via `sethi`+`orlo` with relocations.
    pub fn la(&mut self, rd: Reg, sym: SymRef) {
        self.push_reloc(MInst::Sethi { rd, imm: 0 }, Reloc::Hi(sym.clone()));
        self.push_reloc(
            MInst::Alu {
                op: AluOp::OrLo,
                rd,
                rs1: rd,
                src2: Src2::Imm(0),
                br: 0,
            },
            Reloc::Lo(sym),
        );
    }

    /// Legalize `src2`: immediates that do not fit the machine's field
    /// are materialized into `scratch`.
    pub fn legal_src2(&mut self, s: Src2, scratch: Reg) -> Src2 {
        match s {
            Src2::Imm(v) if !self.machine().imm_fits(v) => {
                self.li(scratch, v);
                Src2::Reg(scratch)
            }
            other => other,
        }
    }

    /// Compute `(base, off)` with `off` in range, using `scratch` if the
    /// raw offset does not fit.
    pub fn legal_mem(&mut self, base: Reg, off: i32, scratch: Reg) -> (Reg, i32) {
        if self.machine().imm_fits(off) {
            (base, off)
        } else {
            self.li(scratch, off);
            self.push(MInst::Alu {
                op: AluOp::Add,
                rd: scratch,
                rs1: scratch,
                src2: Src2::Reg(base),
                br: 0,
            });
            (scratch, 0)
        }
    }

    /// Frame address `(sp, offset)` legalized.
    pub fn frame_mem(&mut self, fref: FrameRef, extra: i32, scratch: Reg) -> (Reg, i32) {
        let off = self.layout.offset(fref) + extra;
        self.legal_mem(self.target.sp, off, scratch)
    }

    /// Integer load from a frame ref.
    pub fn frame_load(&mut self, rd: Reg, fref: FrameRef) {
        let (b, o) = self.frame_mem(fref, 0, self.target.temp);
        self.push(MInst::Load {
            w: MemWidth::Word,
            rd,
            rs1: b,
            off: o,
            br: 0,
        });
    }

    /// Integer store to a frame ref.
    pub fn frame_store(&mut self, rs: Reg, fref: FrameRef) {
        let (b, o) = self.frame_mem(fref, 0, self.target.temp);
        self.push(MInst::Store {
            w: MemWidth::Word,
            rs,
            rs1: b,
            off: o,
            br: 0,
        });
    }

    /// Float load from a frame ref.
    pub fn frame_load_f(&mut self, fd: FReg, fref: FrameRef) {
        let (b, o) = self.frame_mem(fref, 0, self.target.temp);
        self.push(MInst::LoadF {
            fd,
            rs1: b,
            off: o,
            br: 0,
        });
    }

    /// Float store to a frame ref.
    pub fn frame_store_f(&mut self, fs: FReg, fref: FrameRef) {
        let (b, o) = self.frame_mem(fref, 0, self.target.temp);
        self.push(MInst::StoreF {
            fs,
            rs1: b,
            off: o,
            br: 0,
        });
    }

    /// Emit the body of one non-call [`VInst`] (calls are machine-specific).
    ///
    /// Fails on `VInst::Call` — the caller must handle calls; reporting
    /// it as a [`CodegenError`] keeps the whole pipeline abort-free.
    pub fn emit_body(&mut self, f: &VFunc, inst: &VInst) -> Result<(), CodegenError> {
        let temp = self.target.temp;
        match inst {
            VInst::Alu { op, dst, a, b } => {
                let src2 = match b {
                    VSrc::V(v) => Src2::Reg(self.reg(*v)),
                    VSrc::Imm(v) => Src2::Imm(*v),
                };
                let src2 = self.legal_src2(src2, temp);
                self.push(MInst::Alu {
                    op: *op,
                    rd: self.reg(*dst),
                    rs1: self.reg(*a),
                    src2,
                    br: 0,
                });
            }
            VInst::Li { dst, val } => {
                let rd = self.reg(*dst);
                self.li(rd, *val);
            }
            VInst::La { dst, sym } => {
                let rd = self.reg(*dst);
                self.la(rd, SymRef::Data(sym.clone()));
            }
            VInst::Mov { dst, src } => {
                let (rd, rs) = (self.reg(*dst), self.reg(*src));
                if rd != rs {
                    self.push(MInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: rs,
                        src2: Src2::Imm(0),
                        br: 0,
                    });
                }
            }
            VInst::Load { w, dst, base, off } => {
                let (b, o) = self.legal_mem(self.reg(*base), *off, temp);
                self.push(MInst::Load {
                    w: *w,
                    rd: self.reg(*dst),
                    rs1: b,
                    off: o,
                    br: 0,
                });
            }
            VInst::LoadF { dst, base, off } => {
                let (b, o) = self.legal_mem(self.reg(*base), *off, temp);
                self.push(MInst::LoadF {
                    fd: self.freg(*dst),
                    rs1: b,
                    off: o,
                    br: 0,
                });
            }
            VInst::Store { w, src, base, off } => {
                let (b, o) = self.legal_mem(self.reg(*base), *off, temp);
                self.push(MInst::Store {
                    w: *w,
                    rs: self.reg(*src),
                    rs1: b,
                    off: o,
                    br: 0,
                });
            }
            VInst::StoreF { src, base, off } => {
                let (b, o) = self.legal_mem(self.reg(*base), *off, temp);
                self.push(MInst::StoreF {
                    fs: self.freg(*src),
                    rs1: b,
                    off: o,
                    br: 0,
                });
            }
            VInst::FrameAddr { dst, fref, off } => {
                let total = self.layout.offset(*fref) + off;
                let rd = self.reg(*dst);
                if self.machine().imm_fits(total) {
                    self.push(MInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: self.target.sp,
                        src2: Src2::Imm(total),
                        br: 0,
                    });
                } else {
                    self.li(rd, total);
                    self.push(MInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        src2: Src2::Reg(self.target.sp),
                        br: 0,
                    });
                }
            }
            VInst::FrameLoad { dst, fref, float } => {
                if *float {
                    let fd = self.freg(*dst);
                    self.frame_load_f(fd, *fref);
                } else {
                    let rd = self.reg(*dst);
                    self.frame_load(rd, *fref);
                }
            }
            VInst::FrameStore { src, fref, float } => {
                if *float {
                    let fs = self.freg(*src);
                    self.frame_store_f(fs, *fref);
                } else {
                    let rs = self.reg(*src);
                    self.frame_store(rs, *fref);
                }
            }
            VInst::Fpu { op, dst, a, b } => self.push(MInst::Fpu {
                op: *op,
                fd: self.freg(*dst),
                fs1: self.freg(*a),
                fs2: self.freg(*b),
                br: 0,
            }),
            VInst::FNeg { dst, src } => self.push(MInst::FNeg {
                fd: self.freg(*dst),
                fs: self.freg(*src),
                br: 0,
            }),
            VInst::FMov { dst, src } => {
                let (fd, fs) = (self.freg(*dst), self.freg(*src));
                if fd != fs {
                    self.push(MInst::FMov { fd, fs, br: 0 });
                }
            }
            VInst::ItoF { dst, src } => self.push(MInst::ItoF {
                fd: self.freg(*dst),
                rs: self.reg(*src),
                br: 0,
            }),
            VInst::FtoI { dst, src } => self.push(MInst::FtoI {
                rd: self.reg(*dst),
                fs: self.freg(*src),
                br: 0,
            }),
            VInst::Call { .. } => {
                return Err(CodegenError::internal(
                    &f.name,
                    "calls are emitted by the machine-specific path",
                ))
            }
        }
        Ok(())
    }

    /// Resolve a call's argument placement: returns `(reg_moves_int,
    /// reg_moves_float, stack_stores)` where reg moves are `(src, dst)`
    /// physical numbers and stack stores are `(vreg, out_word, float)`.
    pub fn arg_plan(&self, f: &VFunc, args: &[VR]) -> ArgPlan {
        let mut int_moves = Vec::new();
        let mut float_moves = Vec::new();
        let mut stack = Vec::new();
        let mut next_int = 0usize;
        let mut next_float = 0usize;
        let mut next_out = 0u32;
        for &a in args {
            match f.class_of(a) {
                RegClass::Int => {
                    if next_int < self.target.int_args.len() {
                        int_moves.push((self.alloc.reg(a), self.target.int_args[next_int].0));
                        next_int += 1;
                    } else {
                        stack.push((a, next_out, false));
                        next_out += 1;
                    }
                }
                RegClass::Float => {
                    if next_float < self.target.float_args.len() {
                        float_moves.push((self.alloc.reg(a), self.target.float_args[next_float]));
                        next_float += 1;
                    } else {
                        stack.push((a, next_out, true));
                        next_out += 1;
                    }
                }
            }
        }
        (int_moves, float_moves, stack)
    }

    /// Emit a parallel move among physical registers of one class.
    /// `temp` breaks cycles; `float` selects the register file.
    pub fn parallel_move(&mut self, moves: &[(u8, u8)], temp: u8, float: bool) {
        let mut pending: Vec<(u8, u8)> = moves.iter().copied().filter(|(s, d)| s != d).collect();
        let emit_one = |e: &mut Emit<'a>, s: u8, d: u8| {
            if float {
                e.push(MInst::FMov {
                    fd: FReg(d),
                    fs: FReg(s),
                    br: 0,
                });
            } else {
                e.push(MInst::Alu {
                    op: AluOp::Add,
                    rd: Reg(d),
                    rs1: Reg(s),
                    src2: Src2::Imm(0),
                    br: 0,
                });
            }
        };
        while !pending.is_empty() {
            // A move whose destination is not the source of another move
            // can go first.
            if let Some(i) = pending
                .iter()
                .position(|&(_, d)| !pending.iter().any(|&(s, _)| s == d))
            {
                let (s, d) = pending.remove(i);
                emit_one(self, s, d);
            } else {
                // Every destination is also a pending source: a cycle.
                // Park one destination in the temp and redirect its
                // readers there, which breaks the cycle.
                let (_, d) = pending[0];
                emit_one(self, d, temp);
                for m in &mut pending {
                    if m.0 == d {
                        m.0 = temp;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_vfunc() -> VFunc {
        VFunc {
            name: "t".into(),
            blocks: vec![],
            classes: vec![],
            params: vec![],
            slots: vec![(40, 4), (3, 1)],
            num_spills: 2,
            spilled_params: vec![],
            max_out_args: 3,
            has_call: true,
        }
    }

    #[test]
    fn frame_layout_is_ordered_and_aligned() {
        let f = mk_vfunc();
        let l = FrameLayout::new(&f, 4);
        assert_eq!(l.offset(FrameRef::OutArg(0)), 0);
        assert_eq!(l.offset(FrameRef::OutArg(2)), 8);
        assert_eq!(l.slot_off[0], 12);
        assert_eq!(l.slot_off[1], 52);
        assert_eq!(l.spill_base % 4, 0);
        assert!(l.spill_base >= 55);
        assert_eq!(l.save_base, l.spill_base + 8);
        assert_eq!(l.size % 16, 0);
        assert!(l.size >= l.save_base + 16);
        assert_eq!(l.offset(FrameRef::InArg(1)), l.size + 4);
    }

    #[test]
    fn parallel_move_handles_swaps_through_the_temp() {
        use crate::regalloc::Allocation;
        use crate::target::TargetSpec;
        let target = TargetSpec::for_machine(br_isa::Machine::Baseline);
        let alloc = Allocation {
            assign: vec![],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        let layout = FrameLayout::new(&mk_vfunc(), 0);
        let mut e = Emit::new(&target, &alloc, layout);
        // A two-element cycle plus a chain: (1→2), (2→1), (3→4).
        e.parallel_move(&[(1, 2), (2, 1), (3, 4)], target.temp.0, false);
        // Simulate the emitted moves over a register file.
        let mut regs = [0i32; 32];
        for (r, v) in regs.iter_mut().enumerate() {
            *v = r as i32 * 10;
        }
        for item in &e.items {
            if let AsmItem::Inst(
                MInst::Alu {
                    op: AluOp::Add,
                    rd,
                    rs1,
                    src2: Src2::Imm(0),
                    ..
                },
                _,
            ) = item
            {
                regs[rd.0 as usize] = regs[rs1.0 as usize];
            } else {
                panic!("unexpected item {item:?}");
            }
        }
        assert_eq!(regs[2], 10, "r2 gets old r1");
        assert_eq!(regs[1], 20, "r1 gets old r2");
        assert_eq!(regs[4], 30, "r4 gets old r3");
    }

    #[test]
    fn parallel_move_is_a_noop_for_identity() {
        use crate::regalloc::Allocation;
        use crate::target::TargetSpec;
        let target = TargetSpec::for_machine(br_isa::Machine::BranchReg);
        let alloc = Allocation {
            assign: vec![],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        let layout = FrameLayout::new(&mk_vfunc(), 0);
        let mut e = Emit::new(&target, &alloc, layout);
        e.parallel_move(&[(5, 5), (6, 6)], target.temp.0, false);
        assert!(e.items.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut a = CodegenStats {
            slots_filled: 1,
            ..Default::default()
        };
        let b = CodegenStats {
            slots_filled: 2,
            carriers_noop: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.slots_filled, 3);
        assert_eq!(a.carriers_noop, 3);
    }
}
