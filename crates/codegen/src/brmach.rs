//! Final code emission for the **branch-register machine** (paper
//! Figure 11): no branch instructions — every transfer rides in the `br`
//! field of some *carrier* instruction, with target addresses computed by
//! separate `bcalc`/`sethi+bmovr` instructions that the hoisting plan may
//! have moved into loop preheaders.

use br_ir::Function;
use br_isa::{AluOp, AsmFunc, AsmItem, BReg, MInst, Reg, Reloc, Src2, SymRef};

use crate::baseline::{compute_max_out_args, emit_arg_setup, emit_param_moves, emit_result_move};
use crate::emit::{CodegenStats, Emit, FrameLayout};
use crate::error::CodegenError;
use crate::hoist::{self, Hoisted, HoistedWhat, HoistPlan};
use crate::regalloc::Allocation;
use crate::target::{BrOptions, TargetSpec};
use crate::vcode::{VFunc, VInst, VSrc, VTerm};

/// How the return address (`b[7]`) is preserved across the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetAddr {
    /// No internal transfers: return straight through `b[7]`.
    Direct,
    /// Stashed in a free caller-saved branch register (leaf functions).
    Stash(u8),
    /// Spilled to the stack (non-leaf functions).
    Spill(i32),
}

/// The branch register defined by an instruction, if any.
fn breg_def(i: &MInst) -> Option<u8> {
    match i {
        MInst::Bcalc { bd, .. }
        | MInst::BMovB { bd, .. }
        | MInst::BMovR { bd, .. }
        | MInst::BLoad { bd, .. } => Some(bd.0),
        MInst::CmpBr { .. } | MInst::FCmpBr { .. } => Some(7),
        _ => None,
    }
}

/// The data register defined by an instruction, if any.
fn reg_def(i: &MInst) -> Option<Reg> {
    match i {
        MInst::Alu { rd, .. }
        | MInst::Sethi { rd, .. }
        | MInst::Load { rd, .. }
        | MInst::FtoI { rd, .. } => Some(*rd),
        _ => None,
    }
}

/// Whether `i` reads integer register `r`.
fn reads_reg(i: &MInst, r: Reg) -> bool {
    let src2_is = |s: &Src2| matches!(s, Src2::Reg(x) if *x == r);
    match i {
        MInst::Alu { rs1, src2, .. } => *rs1 == r || src2_is(src2),
        MInst::Load { rs1, .. }
        | MInst::LoadF { rs1, .. }
        | MInst::StoreF { rs1, .. } => *rs1 == r,
        MInst::Store { rs, rs1, .. } => *rs == r || *rs1 == r,
        MInst::ItoF { rs, .. } => *rs == r,
        MInst::CmpBr { rs1, src2, .. } => *rs1 == r || src2_is(src2),
        MInst::BMovR { rs1, .. } | MInst::BStore { rs1, .. } => *rs1 == r,
        MInst::BLoad { rs1, src2, .. } => *rs1 == r || src2_is(src2),
        _ => false,
    }
}

/// The float register defined, if any.
fn freg_def(i: &MInst) -> Option<u8> {
    match i {
        MInst::LoadF { fd, .. }
        | MInst::Fpu { fd, .. }
        | MInst::FNeg { fd, .. }
        | MInst::FMov { fd, .. }
        | MInst::ItoF { fd, .. } => Some(fd.0),
        _ => None,
    }
}


/// Registers (int, float, breg) read by an instruction, conservatively.
fn reads_of(i: &MInst) -> (Vec<Reg>, Vec<u8>, Vec<u8>) {
    let mut ir = Vec::new();
    let mut fr = Vec::new();
    let mut br = Vec::new();
    let s2 = |s: &Src2, ir: &mut Vec<Reg>| {
        if let Src2::Reg(x) = s {
            ir.push(*x);
        }
    };
    match i {
        MInst::Alu { rs1, src2, .. } => {
            ir.push(*rs1);
            s2(src2, &mut ir);
        }
        MInst::Load { rs1, .. } | MInst::LoadF { rs1, .. } => ir.push(*rs1),
        MInst::Store { rs, rs1, .. } => {
            ir.push(*rs);
            ir.push(*rs1);
        }
        MInst::StoreF { fs, rs1, .. } => {
            fr.push(fs.0);
            ir.push(*rs1);
        }
        MInst::Fpu { fs1, fs2, .. } => {
            fr.push(fs1.0);
            fr.push(fs2.0);
        }
        MInst::FNeg { fs, .. } | MInst::FMov { fs, .. } => fr.push(fs.0),
        MInst::ItoF { rs, .. } => ir.push(*rs),
        MInst::FtoI { fs, .. } => fr.push(fs.0),
        MInst::CmpBr { rs1, src2, bt, .. } => {
            ir.push(*rs1);
            s2(src2, &mut ir);
            br.push(bt.0);
        }
        MInst::FCmpBr { fs1, fs2, bt, .. } => {
            fr.push(fs1.0);
            fr.push(fs2.0);
            br.push(bt.0);
        }
        MInst::BMovB { bs, .. } => br.push(bs.0),
        MInst::BMovR { rs1, .. } | MInst::BStore { rs1, .. } => ir.push(*rs1),
        MInst::BLoad { rs1, src2, .. } => {
            ir.push(*rs1);
            s2(src2, &mut ir);
        }
        _ => {}
    }
    (ir, fr, br)
}

/// Whether instruction `x` can move *past* instruction `y` (both orders
/// of memory operations are allowed only when at most one touches
/// memory; with neither aliasing info nor need, we forbid reordering two
/// memory operations).
fn can_move_past(x: &MInst, y: &MInst) -> bool {
    let (yri, yrf, yrb) = reads_of(y);
    // x's defs must not be read or redefined by y.
    if let Some(d) = reg_def(x) {
        if yri.contains(&d) || reg_def(y) == Some(d) {
            return false;
        }
    }
    if let Some(d) = freg_def(x) {
        if yrf.contains(&d) || freg_def(y) == Some(d) {
            return false;
        }
    }
    if let Some(d) = breg_def(x) {
        if yrb.contains(&d) || breg_def(y) == Some(d) {
            return false;
        }
    }
    // x must not read anything y defines.
    let (xri, xrf, xrb) = reads_of(x);
    if let Some(d) = reg_def(y) {
        if xri.contains(&d) {
            return false;
        }
    }
    if let Some(d) = freg_def(y) {
        if xrf.contains(&d) {
            return false;
        }
    }
    if let Some(d) = breg_def(y) {
        if xrb.contains(&d) {
            return false;
        }
    }
    // Two memory operations never reorder (no alias analysis).
    let mem = |i: &MInst| i.is_data_ref();
    !(mem(x) && mem(y))
}

struct BrEmit<'a, 'e> {
    e: &'a mut Emit<'e>,
    plan: &'a HoistPlan,
    opts: BrOptions,
    caller_pool: Vec<u8>,
    stash: Option<u8>,
    /// Start index of the current block's items.
    block_start: usize,
    /// Insertion point for local address calcs (after the last call).
    safe_pos: usize,
    /// Rotating cursor into the per-block scratch pool.
    scratch_cursor: usize,
    /// Scratch registers already handed out for the current block's
    /// terminator (a conditional branch plus its else-jump must not
    /// share one).
    scratch_used: Vec<u8>,
}

impl<'a, 'e> BrEmit<'a, 'e> {
    /// Free caller-saved branch registers usable as scratch in block `b`
    /// (excludes registers live for enclosing loops and the stash).
    fn scratch_for(&mut self, b: u32) -> Option<u8> {
        let reserved = self.plan.reserved_in(b);
        let pool: Vec<u8> = self
            .caller_pool
            .iter()
            .copied()
            .filter(|r| {
                Some(*r) != self.stash
                    && !self.scratch_used.contains(r)
                    && !reserved.contains(r)
            })
            .collect();
        if pool.is_empty() {
            return None;
        }
        let r = pool[self.scratch_cursor % pool.len()];
        self.scratch_cursor += 1;
        self.scratch_used.push(r);
        Some(r)
    }

    /// Emit one hoisted calculation at the current position.
    fn place_calc(&mut self, h: &Hoisted) {
        match &h.what {
            HoistedWhat::Block(t) => self.e.push_reloc(
                MInst::Bcalc {
                    bd: BReg(h.breg),
                    disp: 0,
                    br: 0,
                },
                Reloc::Disp(SymRef::Label(br_isa::Label(*t))),
            ),
            HoistedWhat::Func(f) => {
                let temp = self.e.target.temp;
                self.e.push_reloc(
                    MInst::Sethi { rd: temp, imm: 0 },
                    Reloc::Hi(SymRef::Func(f.clone())),
                );
                self.e.push_reloc(
                    MInst::BMovR {
                        bd: BReg(h.breg),
                        rs1: temp,
                        off: 0,
                        br: 0,
                    },
                    Reloc::Lo(SymRef::Func(f.clone())),
                );
            }
        }
    }

    /// Place all pending calcs; if `first_breg` is given, the calc
    /// defining it goes first (its value is needed by this terminator).
    fn place_pending(&mut self, pending: &mut Vec<Hoisted>, first_breg: Option<u8>) {
        if let Some(fb) = first_breg {
            if let Some(i) = pending.iter().position(|h| h.breg == fb) {
                let h = pending.remove(i);
                self.place_calc(&h);
            }
        }
        for h in pending.drain(..) {
            self.place_calc(&h);
        }
    }

    /// Try to tag the last emitted item with a `br` field (making it the
    /// transfer carrier). Returns true on success.
    fn tag_last(&mut self, brv: u8) -> bool {
        if self.e.items.len() <= self.block_start {
            return false;
        }
        if let Some(AsmItem::Inst(inst, _)) = self.e.items.last_mut() {
            if inst.br() == 0
                && inst.can_carry_br()
                && breg_def(inst) != Some(brv)
                && !matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. })
            {
                *inst = inst.with_br(brv);
                return true;
            }
        }
        false
    }

    /// Emit an unconditional transfer to block `t` from block `b`.
    /// `pending` calcs are flushed here; one may become the carrier.
    fn emit_jump(&mut self, b: u32, t: u32, pending: &mut Vec<Hoisted>) {
        // Resolve the target's branch register.
        let hoisted = self.plan.target_breg(b, t);
        let pending_match = pending
            .iter()
            .find(|h| h.what == HoistedWhat::Block(t))
            .map(|h| h.breg);
        let (brv, local) = match hoisted.or(pending_match) {
            Some(r) => (r, false),
            None => {
                let s = self.scratch_for(b);
                (s.unwrap_or(7), s.is_none())
            }
        };
        let reloc = Reloc::Disp(SymRef::Label(br_isa::Label(t)));
        let calc = MInst::Bcalc {
            bd: BReg(brv),
            disp: 0,
            br: 0,
        };
        if hoisted.is_none() && pending_match.is_none() {
            if local {
                // b7 fallback: the calc must sit right before the carrier
                // (nothing may clobber b7 in between).
                self.place_pending(pending, None);
                self.e.push_reloc(calc, reloc);
            } else {
                // Scratch register: compute early to shorten stalls.
                let item = AsmItem::Inst(calc, Some(reloc));
                self.e.items.insert(self.safe_pos, item);
                self.safe_pos += 1;
            }
        }
        // Carrier selection: keep one pending bcalc back as the carrier
        // when noop replacement is on (the Figure 4 pattern).
        let reserve = if self.opts.noop_replacement {
            pending
                .iter()
                .position(|h| matches!(h.what, HoistedWhat::Block(_)) && h.breg != brv)
        } else {
            None
        };
        let reserved = reserve.map(|i| pending.remove(i));
        self.place_pending(pending, Some(brv));
        if let Some(h) = reserved {
            match &h.what {
                HoistedWhat::Block(ht) => {
                    self.e.push_reloc(
                        MInst::Bcalc {
                            bd: BReg(h.breg),
                            disp: 0,
                            br: brv,
                        },
                        Reloc::Disp(SymRef::Label(br_isa::Label(*ht))),
                    );
                    self.e.stats.carriers_replaced_by_calc += 1;
                }
                HoistedWhat::Func(_) => unreachable!("reserve is bcalc-kind"),
            }
        } else if self.tag_last(brv) {
            self.e.stats.carriers_useful += 1;
        } else {
            self.e.push(MInst::Nop { br: brv });
            self.e.stats.carriers_noop += 1;
        }
    }
}


/// Scan up to three instructions back for a carrier candidate that can
/// legally move past everything after it and past the compare.
fn find_held(
    ctx: &mut BrEmit<'_, '_>,
    temp: Reg,
    cmp_reads_int: &[Reg],
    cmp_reads_float: &[u8],
) -> Option<AsmItem> {
    let len = ctx.e.items.len();
    let lo = ctx.block_start.max(len.saturating_sub(3));
    for idx in (lo..len).rev() {
        let AsmItem::Inst(i, _) = &ctx.e.items[idx] else {
            break; // never move across labels or data words
        };
        let i = *i;
        if i.br() != 0 {
            break; // never move anything across an existing transfer
        }
        if !(i.can_carry_br()
            && i.br() == 0
            && breg_def(&i).is_none()
            && !reads_reg(&i, temp)
            && reg_def(&i).map(|r| !cmp_reads_int.contains(&r)).unwrap_or(true)
            && freg_def(&i)
                .map(|r| !cmp_reads_float.contains(&r))
                .unwrap_or(true))
        {
            continue;
        }
        // Must commute with every later instruction in the window.
        let mut ok = true;
        for j in idx + 1..len {
            let AsmItem::Inst(y, _) = &ctx.e.items[j] else {
                ok = false;
                break;
            };
            if y.br() != 0 {
                ok = false; // a transfer: nothing moves across it
                break;
            }
            if !can_move_past(&i, y) {
                ok = false;
                break;
            }
        }
        if ok {
            return Some(ctx.e.items.remove(idx));
        }
    }
    None
}

/// Emit one function for the branch-register machine. `loops` must be
/// the loop forest of `ir`'s CFG (the caller builds it for spill-cost
/// depths; hoisting takes it over rather than recomputing). The returned
/// [`HoistPlan`] records which branch registers hold hoisted targets in
/// which blocks, so post-emission checkers can audit the discipline; the
/// returned `u64` is the wall time of hoist planning in nanoseconds.
pub fn emit_brmach(
    ir: &Function,
    vf: &mut VFunc,
    target: &TargetSpec,
    alloc: &Allocation,
    opts: BrOptions,
    loops: br_ir::LoopForest,
) -> Result<(AsmFunc, CodegenStats, HoistPlan, u64), CodegenError> {
    vf.max_out_args = compute_max_out_args(vf, target);

    // Does anything clobber b[7] before the return carriers?
    let has_internal = vf.has_call
        || vf.blocks.iter().any(|b| {
            !matches!(b.term(), VTerm::Ret(_))
                && !b.term().successors().is_empty()
                || matches!(b.term(), VTerm::Switch { .. })
        });

    // Leaf functions with internal transfers stash b[7] in a caller-saved
    // branch register (no memory traffic), so withhold one from hoisting.
    let want_stash = has_internal && !vf.has_call;
    let t = std::time::Instant::now();
    let plan = hoist::plan(ir, vf, &opts, want_stash, loops);
    let hoist_ns = crate::elapsed_ns(t);
    let (_, caller_pool) = opts.pools();

    // Return-address strategy.
    let assigned: Vec<u8> = plan.iter_hoisted().map(|h| h.breg).collect();
    let stash = if want_stash {
        caller_pool
            .iter()
            .rev()
            .copied()
            .find(|r| !assigned.contains(r))
    } else {
        None
    };
    let ret_mode_plan = if !has_internal {
        RetAddr::Direct
    } else if !vf.has_call {
        match stash {
            Some(s) => RetAddr::Stash(s),
            None => RetAddr::Spill(0), // offset fixed below
        }
    } else {
        RetAddr::Spill(0)
    };

    let b7_words = matches!(ret_mode_plan, RetAddr::Spill(_)) as u32;
    let save_words = b7_words
        + plan.used_callee.len() as u32
        + alloc.used_int_callee.len() as u32
        + alloc.used_float_callee.len() as u32;
    let layout = FrameLayout::new(vf, save_words);
    let mut e = Emit::new(target, alloc, layout);
    e.stats.hoisted_calcs = plan.count;

    // Fix the b7 spill offset now that the layout exists.
    let mut save_off = e.layout.save_base;
    let ret_mode = match ret_mode_plan {
        RetAddr::Spill(_) => {
            let m = RetAddr::Spill(save_off);
            save_off += 4;
            m
        }
        other => other,
    };

    // ---- prologue ----
    let size = e.layout.size;
    if size > 0 {
        let src2 = e.legal_src2(Src2::Imm(-size), target.temp);
        e.push(MInst::Alu {
            op: AluOp::Add,
            rd: target.sp,
            rs1: target.sp,
            src2,
            br: 0,
        });
    }
    match ret_mode {
        RetAddr::Spill(off) => {
            let (b, o) = e.legal_mem(target.sp, off, target.temp);
            e.push(MInst::BStore {
                bs: BReg(7),
                rs1: b,
                off: o,
                br: 0,
            });
        }
        RetAddr::Stash(s) => e.push(MInst::BMovB {
            bd: BReg(s),
            bs: BReg(7),
            br: 0,
        }),
        RetAddr::Direct => {}
    }
    let mut breg_saves = Vec::new();
    for &b in &plan.used_callee {
        let (rb, o) = e.legal_mem(target.sp, save_off, target.temp);
        e.push(MInst::BStore {
            bs: BReg(b),
            rs1: rb,
            off: o,
            br: 0,
        });
        breg_saves.push((b, save_off));
        save_off += 4;
    }
    let mut int_saves = Vec::new();
    for &r in &alloc.used_int_callee {
        let (rb, o) = e.legal_mem(target.sp, save_off, target.temp);
        e.push(MInst::Store {
            w: br_isa::MemWidth::Word,
            rs: Reg(r),
            rs1: rb,
            off: o,
            br: 0,
        });
        int_saves.push((r, save_off));
        save_off += 4;
    }
    let mut float_saves = Vec::new();
    for &r in &alloc.used_float_callee {
        let (rb, o) = e.legal_mem(target.sp, save_off, target.temp);
        e.push(MInst::StoreF {
            fs: br_isa::FReg(r),
            rs1: rb,
            off: o,
            br: 0,
        });
        float_saves.push((r, save_off));
        save_off += 4;
    }
    emit_param_moves(&mut e, vf);

    // ---- body ----
    let nblocks = vf.blocks.len();
    let mut ctx = BrEmit {
        e: &mut e,
        plan: &plan,
        opts,
        caller_pool,
        stash: match ret_mode {
            RetAddr::Stash(s) => Some(s),
            _ => None,
        },
        block_start: 0,
        safe_pos: 0,
        scratch_cursor: 0,
        scratch_used: Vec::new(),
    };

    for bi in 0..nblocks {
        let bid = br_ir::BlockId(bi as u32);
        let label = ctx.e.block_label(bid);
        ctx.e.label(label);
        ctx.block_start = ctx.e.items.len();
        ctx.safe_pos = ctx.e.items.len();
        ctx.scratch_cursor = 0;
        ctx.scratch_used.clear();

        let block = vf.blocks[bi].clone();
        for inst in &block.insts {
            match inst {
                VInst::Call { func, args, dst } => emit_br_call(&mut ctx, vf, bi as u32, func, args, *dst),
                other => ctx.e.emit_body(vf, other)?,
            }
        }

        let mut pending: Vec<Hoisted> = plan.preheader(bi as u32).to_vec();
        let next = if bi + 1 < nblocks {
            Some(br_ir::BlockId((bi + 1) as u32))
        } else {
            None
        };
        emit_br_term(
            &mut ctx,
            vf,
            bi as u32,
            block.term(),
            next,
            &mut pending,
            size,
            ret_mode,
            &breg_saves,
            &int_saves,
            &float_saves,
        )?;
        debug_assert!(pending.is_empty(), "pending calcs must be flushed");
    }

    Ok((
        AsmFunc {
            name: vf.name.clone(),
            items: std::mem::take(&mut e.items),
        },
        e.stats,
        plan,
        hoist_ns,
    ))
}

fn emit_br_call(
    ctx: &mut BrEmit<'_, '_>,
    f: &VFunc,
    block: u32,
    func: &str,
    args: &[crate::vcode::VR],
    dst: Option<crate::vcode::VR>,
) {
    let nmoves = emit_arg_setup(ctx.e, f, args);
    // Target address: a hoisted callee-saved register, or b7 via
    // sethi+bmovr (using b7 is free — the carrier's side effect
    // immediately rewrites it with the return address).
    let brv = match ctx.plan.call_breg(block, func) {
        Some(b) => b,
        None => {
            let temp = ctx.e.target.temp;
            // The last argument move can ride after the bmovr as the
            // carrier; pop it first.
            let carrier_item = if nmoves > 0 {
                match ctx.e.items.last() {
                    Some(AsmItem::Inst(i, _))
                        if i.can_carry_br()
                            && i.br() == 0
                            && breg_def(i).is_none()
                            // The sethi below clobbers the temp register;
                            // a move that reads it cannot ride after it.
                            && !reads_reg(i, temp) =>
                    {
                        ctx.e.items.pop()
                    }
                    _ => None,
                }
            } else {
                None
            };
            ctx.e.push_reloc(
                MInst::Sethi { rd: temp, imm: 0 },
                Reloc::Hi(SymRef::Func(func.to_string())),
            );
            ctx.e.push_reloc(
                MInst::BMovR {
                    bd: BReg(7),
                    rs1: temp,
                    off: 0,
                    br: 0,
                },
                Reloc::Lo(SymRef::Func(func.to_string())),
            );
            if let Some(AsmItem::Inst(i, r)) = carrier_item {
                ctx.e.items.push(AsmItem::Inst(i.with_br(7), r));
                ctx.e.stats.carriers_useful += 1;
            } else {
                ctx.e.push(MInst::Nop { br: 7 });
                ctx.e.stats.carriers_noop += 1;
            }
            emit_result_move(ctx.e, f, dst);
            ctx.safe_pos = ctx.e.items.len();
            return;
        }
    };
    // Hoisted call target: carrier = last arg move or nop.
    if ctx.tag_last(brv) {
        ctx.e.stats.carriers_useful += 1;
    } else {
        ctx.e.push(MInst::Nop { br: brv });
        ctx.e.stats.carriers_noop += 1;
    }
    emit_result_move(ctx.e, f, dst);
    ctx.safe_pos = ctx.e.items.len();
}

#[allow(clippy::too_many_arguments)]
fn emit_br_term(
    ctx: &mut BrEmit<'_, '_>,
    f: &VFunc,
    b: u32,
    term: &VTerm,
    next: Option<br_ir::BlockId>,
    pending: &mut Vec<Hoisted>,
    frame_size: i32,
    ret_mode: RetAddr,
    breg_saves: &[(u8, i32)],
    int_saves: &[(u8, i32)],
    float_saves: &[(u8, i32)],
) -> Result<(), CodegenError> {
    match term {
        VTerm::Jump(t) => {
            if Some(t.0) == next.map(|n| n.0) {
                // Fall through: no transfer needed at all.
                ctx.place_pending(pending, None);
            } else {
                ctx.emit_jump(b, t.0, pending);
            }
        }
        VTerm::Branch {
            cc,
            float,
            a,
            b: rhs,
            then_bb,
            else_bb,
        } => {
            let (mut cc, mut then_bb, mut else_bb) = (*cc, *then_bb, *else_bb);
            if then_bb == else_bb {
                return emit_br_term(
                    ctx,
                    f,
                    b,
                    &VTerm::Jump(then_bb),
                    next,
                    pending,
                    frame_size,
                    ret_mode,
                    breg_saves,
                    int_saves,
                    float_saves,
                );
            }
            if Some(then_bb) == next {
                cc = cc.negate();
                std::mem::swap(&mut then_bb, &mut else_bb);
            }

            // Candidate carrier from the body: the last item, if moving
            // it past the compare is safe.
            let cmp_reads_int: Vec<Reg> = {
                let mut v = vec![ctx.e.reg(*a)];
                if let VSrc::V(r) = rhs {
                    v.push(ctx.e.reg(*r));
                }
                if !*float {
                    v.push(ctx.e.target.temp); // legalization scratch
                }
                v
            };
            let cmp_reads_float: Vec<u8> = if *float {
                let bv = rhs.vr().ok_or_else(|| {
                    CodegenError::internal(&f.name, "float compare rhs must be a register")
                })?;
                vec![ctx.e.freg(*a).0, ctx.e.freg(bv).0]
            } else {
                vec![]
            };
            let temp = ctx.e.target.temp;
            // Look back up to three instructions for one that can be
            // moved past the compare to serve as the carrier ("noop
            // instructions can often be replaced", Section 5). Moving a
            // candidate X past instructions Y.. requires that X defines
            // nothing Y reads or defines, and reads nothing Y defines.
            // The fused fast-compare needs no carrier at all.
            let held = if ctx.opts.fused_compare {
                None
            } else {
                find_held(ctx, temp, &cmp_reads_int, &cmp_reads_float)
            };

            // Resolve bt: hoisted, pending, or local scratch.
            let hoisted = ctx.plan.target_breg(b, then_bb.0);
            let pending_match = pending
                .iter()
                .find(|h| h.what == HoistedWhat::Block(then_bb.0))
                .map(|h| h.breg);
            let (bt, is_local) = match hoisted.or(pending_match) {
                Some(r) => (r, false),
                None => {
                    let s = ctx.scratch_for(b);
                    (s.unwrap_or(7), true)
                }
            };
            // Keep one pending bcalc as the conditional carrier.
            let reserve = if ctx.opts.noop_replacement
                && held.is_none()
                && !ctx.opts.fused_compare
            {
                pending
                    .iter()
                    .position(|h| matches!(h.what, HoistedWhat::Block(_)) && h.breg != bt)
            } else {
                None
            };
            let reserved = reserve.map(|i| pending.remove(i));
            ctx.place_pending(pending, Some(bt));
            if is_local {
                let calc = AsmItem::Inst(
                    MInst::Bcalc {
                        bd: BReg(bt),
                        disp: 0,
                        br: 0,
                    },
                    Some(Reloc::Disp(SymRef::Label(br_isa::Label(then_bb.0)))),
                );
                if bt == 7 {
                    // Must stay adjacent: nothing below clobbers b7
                    // before the compare consumes it.
                    ctx.e.items.push(calc);
                } else {
                    ctx.e.items.insert(ctx.safe_pos, calc);
                    ctx.safe_pos += 1;
                }
            }
            // The compare-with-assignment.
            if *float {
                let bv = rhs.vr().ok_or_else(|| {
                    CodegenError::internal(&f.name, "float compare rhs must be a register")
                })?;
                let fs1 = ctx.e.freg(*a);
                let fs2 = ctx.e.freg(bv);
                ctx.e.push(MInst::FCmpBr {
                    cc,
                    bt: BReg(bt),
                    fs1,
                    fs2,
                    br: 0,
                });
            } else {
                let src2 = match rhs {
                    VSrc::V(v) => Src2::Reg(ctx.e.reg(*v)),
                    VSrc::Imm(v) => Src2::Imm(*v),
                };
                let src2 = ctx.e.legal_src2(src2, ctx.e.target.temp);
                let rs1 = ctx.e.reg(*a);
                ctx.e.push(MInst::CmpBr {
                    cc,
                    bt: BReg(bt),
                    rs1,
                    src2,
                    br: 0,
                });
            }
            // Section 9 fast-compare: the compare carries the transfer
            // itself — no carrier instruction at all.
            if ctx.opts.fused_compare {
                debug_assert!(held.is_none() && reserved.is_none());
                if let Some(AsmItem::Inst(inst, rel)) = ctx.e.items.pop() {
                    debug_assert!(matches!(
                        inst,
                        MInst::CmpBr { .. } | MInst::FCmpBr { .. }
                    ));
                    ctx.e.items.push(AsmItem::Inst(inst.with_br(7), rel));
                }
                if Some(else_bb) != next {
                    let mut none = Vec::new();
                    ctx.emit_jump(b, else_bb.0, &mut none);
                }
                return Ok(());
            }
            // Carrier immediately after the compare.
            if let Some(AsmItem::Inst(i, r)) = held {
                ctx.e.items.push(AsmItem::Inst(i.with_br(7), r));
                ctx.e.stats.carriers_useful += 1;
            } else if let Some(h) = reserved {
                match &h.what {
                    HoistedWhat::Block(ht) => {
                        ctx.e.push_reloc(
                            MInst::Bcalc {
                                bd: BReg(h.breg),
                                disp: 0,
                                br: 7,
                            },
                            Reloc::Disp(SymRef::Label(br_isa::Label(*ht))),
                        );
                        ctx.e.stats.carriers_replaced_by_calc += 1;
                    }
                    HoistedWhat::Func(_) => unreachable!(),
                }
            } else {
                ctx.e.push(MInst::Nop { br: 7 });
                ctx.e.stats.carriers_noop += 1;
            }
            // Fall-through handling.
            if Some(else_bb) != next {
                let mut none = Vec::new();
                ctx.emit_jump(b, else_bb.0, &mut none);
            }
        }
        VTerm::Switch {
            idx,
            base,
            targets,
            default,
        } => {
            ctx.place_pending(pending, None);
            let (t1, t2) = (ctx.e.target.temp, ctx.e.target.temp2);
            let s = ctx.scratch_for(b);
            let src2 = ctx.e.legal_src2(Src2::Imm(*base), t2);
            let ri = ctx.e.reg(*idx);
            ctx.e.push(MInst::Alu {
                op: AluOp::Sub,
                rd: t1,
                rs1: ri,
                src2,
                br: 0,
            });
            let dl = br_isa::Label(default.0);
            let bcalc_default = |ctx: &mut BrEmit<'_, '_>, bd: u8| {
                ctx.e.push_reloc(
                    MInst::Bcalc {
                        bd: BReg(bd),
                        disp: 0,
                        br: 0,
                    },
                    Reloc::Disp(SymRef::Label(dl)),
                );
            };
            let sreg = s.unwrap_or(7);
            // Bounds check 1: idx0 < 0 → default.
            bcalc_default(ctx, sreg);
            ctx.e.push(MInst::CmpBr {
                cc: br_isa::Cc::Lt,
                bt: BReg(sreg),
                rs1: t1,
                src2: Src2::Imm(0),
                br: 0,
            });
            ctx.e.push(MInst::Nop { br: 7 });
            ctx.e.stats.carriers_noop += 1;
            // Bounds check 2: idx0 > n-1 → default. If the scratch is b7
            // the first carrier clobbered it; recompute.
            if sreg == 7 {
                bcalc_default(ctx, 7);
            }
            let hi = ctx.e.legal_src2(Src2::Imm(targets.len() as i32 - 1), t2);
            ctx.e.push(MInst::CmpBr {
                cc: br_isa::Cc::Gt,
                bt: BReg(sreg),
                rs1: t1,
                src2: hi,
                br: 0,
            });
            ctx.e.push(MInst::Nop { br: 7 });
            ctx.e.stats.carriers_noop += 1;
            // Table dispatch: b[s] = L[table + idx0*4] (the paper's
            // indirect-jump pattern).
            ctx.e.push(MInst::Alu {
                op: AluOp::Sll,
                rd: t1,
                rs1: t1,
                src2: Src2::Imm(2),
                br: 0,
            });
            let tbl = ctx.e.fresh_label();
            ctx.e.push_reloc(
                MInst::Sethi { rd: t2, imm: 0 },
                Reloc::Hi(SymRef::Label(tbl)),
            );
            ctx.e.push_reloc(
                MInst::Alu {
                    op: AluOp::OrLo,
                    rd: t2,
                    rs1: t2,
                    src2: Src2::Imm(0),
                    br: 0,
                },
                Reloc::Lo(SymRef::Label(tbl)),
            );
            ctx.e.push(MInst::BLoad {
                bd: BReg(sreg),
                rs1: t2,
                src2: Src2::Reg(t1),
                br: 0,
            });
            ctx.e.push(MInst::Nop { br: sreg });
            ctx.e.stats.carriers_noop += 1;
            ctx.e.label(tbl);
            for t in targets {
                let l = br_isa::Label(t.0);
                ctx.e
                    .items
                    .push(AsmItem::Word(0, Some(Reloc::Abs(SymRef::Label(l)))));
            }
        }
        VTerm::Ret(v) => {
            ctx.place_pending(pending, None);
            // Return value.
            match v {
                Some((VSrc::Imm(c), false)) => {
                    let r = ctx.e.target.int_ret();
                    ctx.e.li(r, *c);
                }
                Some((VSrc::V(vr), false)) => {
                    let rs = ctx.e.reg(*vr);
                    let rd = ctx.e.target.int_ret();
                    if rs != rd {
                        ctx.e.push(MInst::Alu {
                            op: AluOp::Add,
                            rd,
                            rs1: rs,
                            src2: Src2::Imm(0),
                            br: 0,
                        });
                    }
                }
                Some((VSrc::V(vr), true)) => {
                    let fs = ctx.e.freg(*vr);
                    let fd = br_isa::FReg(ctx.e.target.float_ret());
                    if fs != fd {
                        ctx.e.push(MInst::FMov { fd, fs, br: 0 });
                    }
                }
                Some((VSrc::Imm(_), true)) => {
                    return Err(CodegenError::internal(
                        &f.name,
                        "float immediate return must go through the constant pool",
                    ))
                }
                None => {}
            }
            // Restores.
            for &(r, off) in int_saves {
                let (rb, o) = ctx.e.legal_mem(ctx.e.target.sp, off, ctx.e.target.temp);
                ctx.e.push(MInst::Load {
                    w: br_isa::MemWidth::Word,
                    rd: Reg(r),
                    rs1: rb,
                    off: o,
                    br: 0,
                });
            }
            for &(r, off) in float_saves {
                let (rb, o) = ctx.e.legal_mem(ctx.e.target.sp, off, ctx.e.target.temp);
                ctx.e.push(MInst::LoadF {
                    fd: br_isa::FReg(r),
                    rs1: rb,
                    off: o,
                    br: 0,
                });
            }
            for &(bb, off) in breg_saves {
                let (rb, o) = ctx.e.legal_mem(ctx.e.target.sp, off, ctx.e.target.temp);
                ctx.e.push(MInst::BLoad {
                    bd: BReg(bb),
                    rs1: rb,
                    src2: Src2::Imm(o),
                    br: 0,
                });
                let _ = rb;
            }
            let ret_br = match ret_mode {
                RetAddr::Direct => 7,
                RetAddr::Stash(s) => s,
                RetAddr::Spill(off) => {
                    let (rb, o) = ctx.e.legal_mem(ctx.e.target.sp, off, ctx.e.target.temp);
                    ctx.e.push(MInst::BLoad {
                        bd: BReg(7),
                        rs1: rb,
                        src2: Src2::Imm(o),
                        br: 0,
                    });
                    7
                }
            };
            // The sp restore is the return carrier (never a noop).
            if frame_size > 0 {
                let src2 = ctx.e.legal_src2(Src2::Imm(frame_size), ctx.e.target.temp);
                ctx.e.push(MInst::Alu {
                    op: AluOp::Add,
                    rd: ctx.e.target.sp,
                    rs1: ctx.e.target.sp,
                    src2,
                    br: ret_br,
                });
                ctx.e.stats.carriers_useful += 1;
            } else if ctx.tag_last(ret_br) {
                ctx.e.stats.carriers_useful += 1;
            } else {
                ctx.e.push(MInst::Nop { br: ret_br });
                ctx.e.stats.carriers_noop += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{select, ConstPool};
    use crate::regalloc::allocate;
    use crate::target::TargetSpec;
    use br_isa::Machine;

    fn emit_for(src: &str, name: &str, opts: BrOptions) -> (AsmFunc, CodegenStats) {
        let m = br_frontend::compile(src).unwrap();
        let f = m.function(name).unwrap();
        let t = TargetSpec::for_machine(Machine::BranchReg);
        let mut pool = ConstPool::new();
        let mut vf = select(&m, f, &t, &mut pool).unwrap();
        let cfg = br_ir::Cfg::new(f);
        let dom = br_ir::Dominators::new(&cfg);
        let loops = br_ir::LoopForest::new(&cfg, &dom);
        let depth: Vec<u32> = (0..f.blocks.len())
            .map(|i| loops.depth(br_ir::BlockId(i as u32)))
            .collect();
        let alloc = allocate(&mut vf, &t, &depth).unwrap();
        let (afunc, stats, _plan, _) = emit_brmach(f, &mut vf, &t, &alloc, opts, loops).unwrap();
        (afunc, stats)
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
    fn leaf_function_stashes_b7_without_memory() {
        let (f, _) = emit_for(
            "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }",
            "f",
            BrOptions::default(),
        );
        let is = insts(&f);
        // No b7 spill to the stack...
        assert!(
            !is.iter().any(|i| matches!(i, MInst::BStore { bs: BReg(7), .. })),
            "leaf must not spill b7: {is:?}"
        );
        // ...but a stash move from b7 exists.
        assert!(
            is.iter().any(|i| matches!(i, MInst::BMovB { bs: BReg(7), .. })),
            "leaf must stash b7: {is:?}"
        );
    }

    #[test]
    fn non_leaf_spills_b7_to_the_frame() {
        let src = r#"
            int g(int x) { return x + 1; }
            int f(int n) { return g(n) + g(n + 1); }
        "#;
        let (f, _) = emit_for(src, "f", BrOptions::default());
        let is = insts(&f);
        assert!(
            is.iter().any(|i| matches!(i, MInst::BStore { bs: BReg(7), .. })),
            "non-leaf must spill b7: {is:?}"
        );
        assert!(
            is.iter().any(|i| matches!(i, MInst::BLoad { bd: BReg(7), .. })),
            "and reload it before returning: {is:?}"
        );
    }

    #[test]
    fn fused_compare_emits_cmpbr_with_br_field_and_no_carrier_noop() {
        let src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }";
        let (plain, _) = emit_for(src, "f", BrOptions::default());
        let (fused, _) = emit_for(
            src,
            "f",
            BrOptions {
                fused_compare: true,
                ..Default::default()
            },
        );
        let fused_is = insts(&fused);
        assert!(
            fused_is
                .iter()
                .any(|i| matches!(i, MInst::CmpBr { br: 7, .. })),
            "fused compare carries its own transfer: {fused_is:?}"
        );
        assert!(fused_is.len() < insts(&plain).len(), "fused code is shorter");
    }

    #[test]
    fn switch_emits_bload_and_table_words() {
        let src = r#"
            int f(int c) {
                switch (c) {
                    case 0: return 1;
                    case 1: return 2;
                    case 2: return 3;
                    case 3: return 4;
                    default: return 0;
                }
            }
        "#;
        let (f, _) = emit_for(src, "f", BrOptions::default());
        let has_bload = insts(&f)
            .iter()
            .any(|i| matches!(i, MInst::BLoad { .. }));
        assert!(has_bload, "indirect jump loads a branch register");
        let words = f
            .items
            .iter()
            .filter(|i| matches!(i, AsmItem::Word(..)))
            .count();
        assert_eq!(words, 4, "one table entry per case");
    }

    #[test]
    fn hoisted_loop_has_no_bcalc_between_header_label_and_backedge() {
        // The loop body of a simple counted loop must not recompute its
        // branch target (that is the whole point of hoisting).
        let src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }";
        let (_f, stats) = emit_for(src, "f", BrOptions::default());
        assert!(stats.hoisted_calcs >= 1);
        // Count bcalcs: with hoisting they appear before the loop, so
        // disabling hoisting must strictly increase the count of
        // *executed* calcs; statically we just check some exist.
        let (nf, nstats) = emit_for(
            src,
            "f",
            BrOptions {
                hoisting: false,
                ..Default::default()
            },
        );
        assert_eq!(nstats.hoisted_calcs, 0);
        let _ = nf;
    }
}
