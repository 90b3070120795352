//! Final code emission for the **baseline machine**: a conventional RISC
//! with condition codes and delayed branches (paper Figure 10).

use br_ir::RegClass;
use br_isa::{AluOp, AsmFunc, AsmItem, Cc, MInst, MemWidth, Reg, Reloc, Src2, SymRef};

use crate::emit::{CodegenStats, Emit, FrameLayout};
use crate::error::CodegenError;
use crate::regalloc::Allocation;
use crate::target::{BaseOptions, TargetSpec};
use crate::vcode::{FrameRef, VFunc, VInst, VSrc, VTerm, VR};

/// Number of words the callee-save area needs.
fn save_words(f: &VFunc, alloc: &Allocation) -> u32 {
    let link = if f.has_call { 1 } else { 0 };
    link + alloc.used_int_callee.len() as u32 + alloc.used_float_callee.len() as u32
}

/// Compute the worst-case outgoing argument overflow for `f` on `target`.
pub fn compute_max_out_args(f: &VFunc, target: &TargetSpec) -> u32 {
    let mut max = 0u32;
    for b in &f.blocks {
        for i in &b.insts {
            if let VInst::Call { args, .. } = i {
                let (mut ni, mut nf, mut out) = (0usize, 0usize, 0u32);
                for &a in args {
                    match f.class_of(a) {
                        RegClass::Int => {
                            if ni < target.int_args.len() {
                                ni += 1;
                            } else {
                                out += 1;
                            }
                        }
                        RegClass::Float => {
                            if nf < target.float_args.len() {
                                nf += 1;
                            } else {
                                out += 1;
                            }
                        }
                    }
                }
                max = max.max(out);
            }
        }
    }
    max
}

/// Emit one function for the baseline machine.
pub fn emit_baseline(
    f: &VFunc,
    target: &TargetSpec,
    alloc: &Allocation,
    opts: BaseOptions,
) -> Result<(AsmFunc, CodegenStats), CodegenError> {
    let layout = FrameLayout::new(f, save_words(f, alloc));
    let mut e = Emit::new(target, alloc, layout);
    let link = target
        .link
        .ok_or_else(|| CodegenError::internal(&f.name, "baseline target lacks a link register"))?;

    // ---- prologue ----
    let size = e.layout.size;
    if size > 0 {
        let src2 = e_imm(&mut e, -size);
        e.push(MInst::Alu {
            op: AluOp::Add,
            rd: target.sp,
            rs1: target.sp,
            src2,
            br: 0,
        });
    }
    let mut save_off = e.layout.save_base;
    let mut link_off = None;
    if f.has_call {
        e.frame_store_at(link, save_off);
        link_off = Some(save_off);
        save_off += 4;
    }
    let mut int_saves = Vec::new();
    for &r in &alloc.used_int_callee {
        e.frame_store_at(Reg(r), save_off);
        int_saves.push((r, save_off));
        save_off += 4;
    }
    let mut float_saves = Vec::new();
    for &r in &alloc.used_float_callee {
        e.frame_store_f_at(r, save_off);
        float_saves.push((r, save_off));
        save_off += 4;
    }
    emit_param_moves(&mut e, f);

    // ---- body ----
    let nblocks = f.blocks.len();
    for (bi, block) in f.blocks.iter().enumerate() {
        let l = e.block_label(br_ir::BlockId(bi as u32));
        e.label(l);
        for inst in &block.insts {
            match inst {
                VInst::Call { func, args, dst } => emit_call(&mut e, f, func, args, *dst),
                other => e.emit_body(f, other)?,
            }
        }
        let next = if bi + 1 < nblocks {
            Some(br_ir::BlockId((bi + 1) as u32))
        } else {
            None
        };
        emit_term(
            &mut e,
            f,
            block.term(),
            next,
            size,
            link,
            link_off,
            &int_saves,
            &float_saves,
        )?;
    }

    // ---- delay-slot filling ----
    let items = std::mem::take(&mut e.items);
    let filled = fill_delay_slots(items, opts.fill_delay_slots, &mut e.stats);
    Ok((
        AsmFunc {
            name: f.name.clone(),
            items: filled,
        },
        e.stats,
    ))
}

/// sp adjustments can exceed the immediate field; use the temp register.
fn e_imm(e: &mut Emit<'_>, v: i32) -> Src2 {
    e.legal_src2(Src2::Imm(v), e.target.temp)
}

impl<'a> Emit<'a> {
    fn frame_store_at(&mut self, rs: Reg, off: i32) {
        let (b, o) = self.legal_mem(self.target.sp, off, self.target.temp);
        self.push(MInst::Store {
            w: MemWidth::Word,
            rs,
            rs1: b,
            off: o,
            br: 0,
        });
    }
    fn frame_load_at(&mut self, rd: Reg, off: i32) {
        let (b, o) = self.legal_mem(self.target.sp, off, self.target.temp);
        self.push(MInst::Load {
            w: MemWidth::Word,
            rd,
            rs1: b,
            off: o,
            br: 0,
        });
    }
    fn frame_store_f_at(&mut self, fs: u8, off: i32) {
        let (b, o) = self.legal_mem(self.target.sp, off, self.target.temp);
        self.push(MInst::StoreF {
            fs: br_isa::FReg(fs),
            rs1: b,
            off: o,
            br: 0,
        });
    }
    fn frame_load_f_at(&mut self, fd: u8, off: i32) {
        let (b, o) = self.legal_mem(self.target.sp, off, self.target.temp);
        self.push(MInst::LoadF {
            fd: br_isa::FReg(fd),
            rs1: b,
            off: o,
            br: 0,
        });
    }
}

/// Incoming parameter placement: mirrors [`Emit::arg_plan`] on the callee
/// side, handling spilled and stack-passed parameters.
pub fn emit_param_moves(e: &mut Emit<'_>, f: &VFunc) {
    let (mut ni, mut nf, mut in_word) = (0usize, 0usize, 0u32);
    let mut int_moves: Vec<(u8, u8)> = Vec::new();
    let mut float_moves: Vec<(u8, u8)> = Vec::new();
    let mut stack_loads: Vec<(VR, u32, bool)> = Vec::new();
    let spilled = |v: VR| {
        f.spilled_params
            .iter()
            .find(|(p, _)| *p == v)
            .map(|(_, s)| *s)
    };
    for &(p, float) in &f.params {
        if float {
            if nf < e.target.float_args.len() {
                let src = e.target.float_args[nf];
                nf += 1;
                match spilled(p) {
                    Some(slot) => {
                        e.frame_store_f(br_isa::FReg(src), FrameRef::Spill(slot));
                    }
                    None => float_moves.push((src, e.alloc.reg(p))),
                }
            } else {
                stack_loads.push((p, in_word, true));
                in_word += 1;
            }
        } else if ni < e.target.int_args.len() {
            let src = e.target.int_args[ni].0;
            ni += 1;
            match spilled(p) {
                Some(slot) => e.frame_store(Reg(src), FrameRef::Spill(slot)),
                None => int_moves.push((src, e.alloc.reg(p))),
            }
        } else {
            stack_loads.push((p, in_word, false));
            in_word += 1;
        }
    }
    let (t, ft) = (e.target.temp.0, e.target.ftemp);
    e.parallel_move(&int_moves, t, false);
    e.parallel_move(&float_moves, ft, true);
    for (p, w, float) in stack_loads {
        match spilled(p) {
            Some(slot) => {
                // Stack arg → spill slot, via the temp register.
                if float {
                    e.frame_load_f(br_isa::FReg(e.target.ftemp), FrameRef::InArg(w));
                    e.frame_store_f(br_isa::FReg(e.target.ftemp), FrameRef::Spill(slot));
                } else {
                    e.frame_load(e.target.temp, FrameRef::InArg(w));
                    e.frame_store(e.target.temp, FrameRef::Spill(slot));
                }
            }
            None => {
                if float {
                    let fd = e.freg(p);
                    e.frame_load_f(fd, FrameRef::InArg(w));
                } else {
                    let rd = e.reg(p);
                    e.frame_load(rd, FrameRef::InArg(w));
                }
            }
        }
    }
}

/// Argument setup shared with the BR emitter: stack stores then parallel
/// register moves. Returns the number of items emitted.
pub fn emit_arg_setup(e: &mut Emit<'_>, f: &VFunc, args: &[VR]) -> usize {
    let before = e.items.len();
    let (int_moves, float_moves, stack) = e.arg_plan(f, args);
    for (v, w, float) in stack {
        if float {
            let fs = e.freg(v);
            e.frame_store_f(fs, FrameRef::OutArg(w));
        } else {
            let rs = e.reg(v);
            e.frame_store(rs, FrameRef::OutArg(w));
        }
    }
    let ft = e.target.ftemp;
    e.parallel_move(&float_moves, ft, true);
    let t = e.target.temp.0;
    e.parallel_move(&int_moves, t, false);
    e.items.len() - before
}

/// Move a call result into its destination.
pub fn emit_result_move(e: &mut Emit<'_>, f: &VFunc, dst: Option<VR>) {
    if let Some(d) = dst {
        match f.class_of(d) {
            RegClass::Int => {
                let rd = e.reg(d);
                if rd != e.target.int_ret() {
                    e.push(MInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: e.target.int_ret(),
                        src2: Src2::Imm(0),
                        br: 0,
                    });
                }
            }
            RegClass::Float => {
                let fd = e.freg(d);
                if fd.0 != e.target.float_ret() {
                    e.push(MInst::FMov {
                        fd,
                        fs: br_isa::FReg(e.target.float_ret()),
                        br: 0,
                    });
                }
            }
        }
    }
}

fn emit_call(e: &mut Emit<'_>, f: &VFunc, func: &str, args: &[VR], dst: Option<VR>) {
    emit_arg_setup(e, f, args);
    e.push_reloc(
        MInst::Call { disp: 0 },
        Reloc::Disp(SymRef::Func(func.to_string())),
    );
    e.push(MInst::Nop { br: 0 }); // delay slot (fill pass may use it)
    emit_result_move(e, f, dst);
}

#[allow(clippy::too_many_arguments)]
fn emit_term(
    e: &mut Emit<'_>,
    f: &VFunc,
    term: &VTerm,
    next: Option<br_ir::BlockId>,
    frame_size: i32,
    link: Reg,
    link_off: Option<i32>,
    int_saves: &[(u8, i32)],
    float_saves: &[(u8, i32)],
) -> Result<(), CodegenError> {
    match term {
        VTerm::Jump(t) => {
            if Some(*t) != next {
                let l = e.block_label(*t);
                e.push_reloc(MInst::Ba { disp: 0 }, Reloc::Disp(SymRef::Label(l)));
                e.push(MInst::Nop { br: 0 });
            }
        }
        VTerm::Branch {
            cc,
            float,
            a,
            b,
            then_bb,
            else_bb,
        } => {
            let (mut cc, mut then_bb, mut else_bb) = (*cc, *then_bb, *else_bb);
            if then_bb == else_bb {
                return emit_term(
                    e,
                    f,
                    &VTerm::Jump(then_bb),
                    next,
                    frame_size,
                    link,
                    link_off,
                    int_saves,
                    float_saves,
                );
            }
            if Some(then_bb) == next {
                cc = cc.negate();
                std::mem::swap(&mut then_bb, &mut else_bb);
            }
            if *float {
                let bv = b.vr().ok_or_else(|| {
                    CodegenError::internal(&f.name, "float compare operand is not a register")
                })?;
                let fs1 = e.freg(*a);
                let fs2 = e.freg(bv);
                e.push(MInst::FCmp { fs1, fs2 });
            } else {
                let src2 = match b {
                    VSrc::V(v) => Src2::Reg(e.reg(*v)),
                    VSrc::Imm(v) => Src2::Imm(*v),
                };
                let src2 = e.legal_src2(src2, e.target.temp);
                let rs1 = e.reg(*a);
                e.push(MInst::Cmp { rs1, src2 });
            }
            let tl = e.block_label(then_bb);
            e.push_reloc(
                MInst::Bcc {
                    cc,
                    float: *float,
                    disp: 0,
                },
                Reloc::Disp(SymRef::Label(tl)),
            );
            e.push(MInst::Nop { br: 0 });
            if Some(else_bb) != next {
                let el = e.block_label(else_bb);
                e.push_reloc(MInst::Ba { disp: 0 }, Reloc::Disp(SymRef::Label(el)));
                e.push(MInst::Nop { br: 0 });
            }
        }
        VTerm::Switch {
            idx,
            base,
            targets,
            default,
        } => {
            let (t1, t2) = (e.target.temp, e.target.temp2);
            // t1 = idx - base
            let src2 = e.legal_src2(Src2::Imm(*base), t2);
            let ri = e.reg(*idx);
            e.push(MInst::Alu {
                op: AluOp::Sub,
                rd: t1,
                rs1: ri,
                src2,
                br: 0,
            });
            let dl = e.block_label(*default);
            // bounds: t1 < 0 → default; t1 > n-1 → default
            e.push(MInst::Cmp {
                rs1: t1,
                src2: Src2::Imm(0),
            });
            e.push_reloc(
                MInst::Bcc {
                    cc: Cc::Lt,
                    float: false,
                    disp: 0,
                },
                Reloc::Disp(SymRef::Label(dl)),
            );
            e.push(MInst::Nop { br: 0 });
            let hi = e.legal_src2(Src2::Imm(targets.len() as i32 - 1), t2);
            e.push(MInst::Cmp { rs1: t1, src2: hi });
            e.push_reloc(
                MInst::Bcc {
                    cc: Cc::Gt,
                    float: false,
                    disp: 0,
                },
                Reloc::Disp(SymRef::Label(dl)),
            );
            e.push(MInst::Nop { br: 0 });
            // table dispatch
            e.push(MInst::Alu {
                op: AluOp::Sll,
                rd: t1,
                rs1: t1,
                src2: Src2::Imm(2),
                br: 0,
            });
            let tbl = e.fresh_label();
            e.push_reloc(
                MInst::Sethi { rd: t2, imm: 0 },
                Reloc::Hi(SymRef::Label(tbl)),
            );
            e.push_reloc(
                MInst::Alu {
                    op: AluOp::OrLo,
                    rd: t2,
                    rs1: t2,
                    src2: Src2::Imm(0),
                    br: 0,
                },
                Reloc::Lo(SymRef::Label(tbl)),
            );
            e.push(MInst::Alu {
                op: AluOp::Add,
                rd: t2,
                rs1: t2,
                src2: Src2::Reg(t1),
                br: 0,
            });
            e.push(MInst::Load {
                w: MemWidth::Word,
                rd: t2,
                rs1: t2,
                off: 0,
                br: 0,
            });
            e.push(MInst::Jmpl {
                rd: Reg(0),
                rs1: t2,
                off: 0,
            });
            e.push(MInst::Nop { br: 0 });
            e.label(tbl);
            for t in targets {
                let l = e.block_label(*t);
                e.items
                    .push(AsmItem::Word(0, Some(Reloc::Abs(SymRef::Label(l)))));
            }
        }
        VTerm::Ret(v) => {
            // Return value.
            match v {
                Some((VSrc::Imm(c), false)) => {
                    let r = e.target.int_ret();
                    e.li(r, *c);
                }
                Some((VSrc::V(vr), false)) => {
                    let rs = e.reg(*vr);
                    let rd = e.target.int_ret();
                    if rs != rd {
                        e.push(MInst::Alu {
                            op: AluOp::Add,
                            rd,
                            rs1: rs,
                            src2: Src2::Imm(0),
                            br: 0,
                        });
                    }
                }
                Some((VSrc::V(vr), true)) => {
                    let fs = e.freg(*vr);
                    let fd = br_isa::FReg(e.target.float_ret());
                    if fs != fd {
                        e.push(MInst::FMov { fd, fs, br: 0 });
                    }
                }
                Some((VSrc::Imm(_), true)) => {
                    return Err(CodegenError::internal(
                        &f.name,
                        "float immediate return not materialized via the pool",
                    ))
                }
                None => {}
            }
            // Restores.
            for &(r, off) in int_saves {
                e.frame_load_at(Reg(r), off);
            }
            for &(r, off) in float_saves {
                e.frame_load_f_at(r, off);
            }
            if let Some(off) = link_off {
                e.frame_load_at(link, off);
            }
            e.push(MInst::Jmpl {
                rd: Reg(0),
                rs1: link,
                off: 0,
            });
            // sp restore rides in the delay slot (always-filled).
            if frame_size > 0 {
                let src2 = e_imm(e, frame_size);
                e.push(MInst::Alu {
                    op: AluOp::Add,
                    rd: e.target.sp,
                    rs1: e.target.sp,
                    src2,
                    br: 0,
                });
                e.stats.slots_filled += 1;
            } else {
                e.push(MInst::Nop { br: 0 });
                e.stats.slots_noop += 1;
            }
        }
    }
    Ok(())
}

fn is_branch(i: &MInst) -> bool {
    i.is_baseline_transfer()
}

/// Registers written by an instruction (for delay-slot safety).
fn writes(i: &MInst) -> Option<Reg> {
    match i {
        MInst::Alu { rd, .. }
        | MInst::Sethi { rd, .. }
        | MInst::Load { rd, .. }
        | MInst::FtoI { rd, .. } => Some(*rd),
        _ => None,
    }
}

/// The classic fill-from-above delay-slot pass.
///
/// Pattern `[cand][branch][nop]` becomes `[branch][cand]` when `cand` is a
/// plain computational instruction the branch does not depend on. Compares
/// are never moved (they feed the condition codes), and candidates already
/// sitting in a previous branch's delay slot stay put.
fn fill_delay_slots(items: Vec<AsmItem>, enable: bool, stats: &mut CodegenStats) -> Vec<AsmItem> {
    let mut out: Vec<AsmItem> = Vec::with_capacity(items.len());
    let mut i = 0;
    while i < items.len() {
        if enable && i + 2 < items.len() {
            let cand_ok = match (&items[i], &items[i + 1], &items[i + 2]) {
                (
                    AsmItem::Inst(c, creloc),
                    AsmItem::Inst(b, _),
                    AsmItem::Inst(MInst::Nop { br: 0 }, None),
                ) if is_branch(b) => {
                    let movable = !matches!(
                        c,
                        MInst::Cmp { .. }
                            | MInst::FCmp { .. }
                            | MInst::Nop { .. }
                            | MInst::Halt
                    ) && !is_branch(c)
                        // Position-dependent relocations cannot move.
                        && !matches!(creloc, Some(Reloc::Disp(_)))
                        // Previous item must not be a branch (we'd be
                        // stealing its delay slot).
                        && !matches!(out.last(), Some(AsmItem::Inst(p, _)) if is_branch(p));
                    let dep_ok = match b {
                        MInst::Jmpl { rs1, rd, .. } => {
                            writes(c) != Some(*rs1) && writes(c) != Some(*rd)
                        }
                        _ => true,
                    };
                    movable && dep_ok
                }
                _ => false,
            };
            if cand_ok {
                let cand = items[i].clone();
                let branch = items[i + 1].clone();
                out.push(branch);
                out.push(cand);
                stats.slots_filled += 1;
                i += 3;
                continue;
            }
        }
        // Count unfilled slots.
        if let (AsmItem::Inst(b, _), Some(AsmItem::Inst(MInst::Nop { br: 0 }, None))) =
            (&items[i], items.get(i + 1))
        {
            if is_branch(b) {
                out.push(items[i].clone());
                out.push(items[i + 1].clone());
                stats.slots_noop += 1;
                i += 2;
                continue;
            }
        }
        out.push(items[i].clone());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{select, ConstPool};
    use crate::regalloc::allocate;
    use br_isa::Machine;

    fn emit_for(src: &str, name: &str, opts: BaseOptions) -> (AsmFunc, CodegenStats) {
        let m = br_frontend::compile(src).unwrap();
        let f = m.function(name).unwrap();
        let t = TargetSpec::for_machine(Machine::Baseline);
        let mut pool = ConstPool::new();
        let mut vf = select(&m, f, &t, &mut pool).unwrap();
        vf.max_out_args = compute_max_out_args(&vf, &t);
        let depth = vec![0u32; f.blocks.len()];
        let mut vf2 = vf;
        let alloc = allocate(&mut vf2, &t, &depth).unwrap();
        emit_baseline(&vf2, &t, &alloc, opts).unwrap()
    }

    fn insts(f: &AsmFunc) -> Vec<MInst> {
        f.items
            .iter()
            .filter_map(|i| match i {
                AsmItem::Inst(m, _) => Some(*m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_branch_is_followed_by_exactly_one_slot_instruction() {
        let src = r#"
            int g(int x) { return x * 2; }
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += g(i);
                return s;
            }
        "#;
        let (f, _) = emit_for(src, "f", BaseOptions::default());
        let is = insts(&f);
        for (i, inst) in is.iter().enumerate() {
            if inst.is_baseline_transfer() {
                let slot = is.get(i + 1).unwrap_or_else(|| {
                    panic!("branch at {i} has no delay slot");
                });
                assert!(
                    !slot.is_baseline_transfer(),
                    "branch in delay slot at {i}: {slot:?}"
                );
            }
        }
    }

    #[test]
    fn epilogue_fills_its_own_slot_with_the_sp_restore() {
        let src = "int f(int n) { int a[4]; a[0] = n; return a[0]; }";
        let (f, stats) = emit_for(src, "f", BaseOptions::default());
        let is = insts(&f);
        let jmpl_at = is
            .iter()
            .position(|i| matches!(i, MInst::Jmpl { .. }))
            .expect("return jmpl");
        match is[jmpl_at + 1] {
            MInst::Alu {
                op: AluOp::Add,
                rd,
                rs1,
                ..
            } => {
                assert_eq!(rd, br_isa::abi::BASE_SP);
                assert_eq!(rs1, br_isa::abi::BASE_SP);
            }
            other => panic!("expected sp restore in slot, got {other:?}"),
        }
        assert!(stats.slots_filled >= 1);
    }

    #[test]
    fn disabling_fill_leaves_noops_after_branches() {
        let src = r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += i * 3;
                return s;
            }
        "#;
        let (_, on) = emit_for(src, "f", BaseOptions::default());
        let (_, off) = emit_for(
            src,
            "f",
            BaseOptions {
                fill_delay_slots: false,
            },
        );
        // The epilogue's sp-restore slot is always filled; the general
        // scheduler must add at least one more when enabled.
        assert!(on.slots_filled > off.slots_filled);
        assert!(off.slots_noop >= on.slots_noop);
    }

    #[test]
    fn compares_never_move_into_delay_slots() {
        let src = r#"
            int f(int a, int b) {
                if (a < b) return a;
                if (a > b * 2) return b;
                return a + b;
            }
        "#;
        let (f, _) = emit_for(src, "f", BaseOptions::default());
        let is = insts(&f);
        for (i, inst) in is.iter().enumerate() {
            if inst.is_baseline_transfer() {
                assert!(
                    !matches!(is[i + 1], MInst::Cmp { .. } | MInst::FCmp { .. }),
                    "compare in delay slot at {i}"
                );
            }
        }
    }
}
