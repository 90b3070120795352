//! Checker 2: symbolic replay of the register allocation.
//!
//! After `regalloc.rs` rewrote spills, every instruction references only
//! assigned virtual registers. The checker replays the allocation over
//! an abstract machine in which each physical register holds the set of
//! virtual registers whose value it carries on every path — several at
//! once after a move whose source and destination were coalesced into
//! the same register — or is known to have been destroyed by a call. A
//! read of vreg `v` must find `v` in `v`'s assigned register on every
//! path; spill-slot reloads must be preceded by a store to the same slot
//! on every path.
//!
//! # State representation
//!
//! A register only ever holds vregs assigned to it: a definition of `d`
//! writes `assign(d)`, and a coalesced move keeps its register's set. So
//! the replay numbers the assigned vregs by (class, register) once per
//! function, which makes each register's possible contents one
//! contiguous bit range, and a program point's whole state one flat
//! bitset ([`Layout`]):
//!
//! * a bit per assigned vreg — its value is held in its register;
//! * a bit per register — a call clobbered it;
//! * a bit per spill slot — the slot has been stored.
//!
//! A register written on no path and one holding different values on
//! different paths both have an empty range and a clear clobber bit, and
//! both read as [`VerifyError::UndefinedRead`]. The meet of two paths is
//! therefore a word-wise AND, and block entry states only lose bits as
//! the fixpoint runs. The checker shares nothing with the allocator but
//! the [`Allocation`] and [`VFunc`] types it audits.

use br_codegen::regalloc::Allocation;
use br_codegen::vcode::{FrameRef, VBlock, VFunc, VInst, VTerm, VR};
use br_codegen::TargetSpec;
use br_ir::{BlockId, RegClass};

use crate::VerifyError;

/// Marks an unassigned vreg in [`Layout::bit`].
const UNASSIGNED: u32 = u32::MAX;

/// One physical register's bits in the state.
struct RegBits {
    /// Range `lo..hi` of the vregs assigned to it.
    lo: u32,
    hi: u32,
    /// Set when a call clobbered it.
    clobber: u32,
}

/// Bit positions of one function's abstract state.
struct Layout {
    /// Per vreg: its bit, or [`UNASSIGNED`].
    bit: Vec<u32>,
    /// Per assigned vreg: its register's index in `regs`.
    reg: Vec<u32>,
    regs: Vec<RegBits>,
    /// Indices into `regs` of the registers a call clobbers.
    caller: Vec<u32>,
    /// Bit of spill slot 0.
    slot0: u32,
    num_spills: u32,
    /// Words per state.
    words: usize,
}

/// A 256-entry membership mask over physical register numbers.
type RegMask = [u64; 4];

fn mask_of(regs: impl IntoIterator<Item = u8>) -> RegMask {
    let mut m = [0u64; 4];
    for r in regs {
        m[r as usize / 64] |= 1 << (r % 64);
    }
    m
}

fn in_mask(m: &RegMask, r: u8) -> bool {
    m[r as usize / 64] & (1 << (r % 64)) != 0
}

fn get_bit(st: &[u64], b: u32) -> bool {
    st[b as usize / 64] & (1 << (b % 64)) != 0
}

fn set_bit(st: &mut [u64], b: u32) {
    st[b as usize / 64] |= 1 << (b % 64);
}

fn clear_bit(st: &mut [u64], b: u32) {
    st[b as usize / 64] &= !(1 << (b % 64));
}

/// Clear bits `lo..hi`.
fn clear_range(st: &mut [u64], lo: u32, hi: u32) {
    let (lo, hi) = (lo as usize, hi as usize);
    if lo >= hi {
        return;
    }
    let (lw, hw) = (lo / 64, (hi - 1) / 64);
    let lo_mask = !0u64 << (lo % 64);
    let hi_mask = !0u64 >> (63 - (hi - 1) % 64);
    if lw == hw {
        st[lw] &= !(lo_mask & hi_mask);
    } else {
        st[lw] &= !lo_mask;
        st[lw + 1..hw].fill(0);
        st[hw] &= !hi_mask;
    }
}

impl Layout {
    fn new(vf: &VFunc, alloc: &Allocation, target: &TargetSpec) -> Layout {
        let n = vf.classes.len();
        let rank = |c: RegClass| match c {
            RegClass::Int => 0u8,
            RegClass::Float => 1u8,
        };
        let mut order: Vec<(u8, u8, VR)> = (0..n.min(alloc.assign.len()))
            .filter_map(|v| Some((rank(vf.classes[v]), alloc.assign[v]?, v as VR)))
            .collect();
        order.sort_unstable();

        let int_caller = mask_of(
            target
                .int_caller
                .iter()
                .chain(&target.int_args)
                .map(|r| r.0),
        );
        let float_caller = mask_of(
            target
                .float_caller
                .iter()
                .chain(&target.float_args)
                .copied(),
        );
        let mut bit = vec![UNASSIGNED; n];
        let mut reg = vec![0u32; n];
        let mut regs: Vec<RegBits> = Vec::new();
        let mut caller = Vec::new();
        let mut prev = None;
        for (i, &(class, p, v)) in order.iter().enumerate() {
            if prev != Some((class, p)) {
                prev = Some((class, p));
                if let Some(last) = regs.last_mut() {
                    last.hi = i as u32;
                }
                let mask = if class == 0 {
                    &int_caller
                } else {
                    &float_caller
                };
                if in_mask(mask, p) {
                    caller.push(regs.len() as u32);
                }
                regs.push(RegBits {
                    lo: i as u32,
                    hi: 0,
                    clobber: 0,
                });
            }
            bit[v as usize] = i as u32;
            reg[v as usize] = regs.len() as u32 - 1;
        }
        let nv = order.len() as u32;
        if let Some(last) = regs.last_mut() {
            last.hi = nv;
        }
        for (r, g) in regs.iter_mut().enumerate() {
            g.clobber = nv + r as u32;
        }
        let slot0 = nv + regs.len() as u32;
        Layout {
            bit,
            reg,
            regs,
            caller,
            slot0,
            num_spills: vf.num_spills,
            words: (slot0 + vf.num_spills).div_ceil(64) as usize,
        }
    }

    /// The register index of an assigned vreg.
    fn reg_of(&self, v: VR) -> Option<u32> {
        match self.bit.get(v as usize) {
            Some(&b) if b != UNASSIGNED => Some(self.reg[v as usize]),
            _ => None,
        }
    }

    /// Whether `v`'s register holds `v`'s value.
    fn held(&self, st: &[u64], v: VR) -> bool {
        match self.bit.get(v as usize) {
            Some(&b) if b != UNASSIGNED => get_bit(st, b),
            _ => false,
        }
    }

    /// `v`'s register now holds exactly `v` (a fresh definition).
    fn define(&self, st: &mut [u64], v: VR) {
        if let Some(r) = self.reg_of(v) {
            let g = &self.regs[r as usize];
            clear_range(st, g.lo, g.hi);
            clear_bit(st, g.clobber);
            set_bit(st, self.bit[v as usize]);
        }
    }

    fn slot_bit(&self, s: u32) -> Option<u32> {
        (s < self.num_spills).then_some(self.slot0 + s)
    }
}

/// `dst &= src`; whether `dst` lost a bit.
fn meet_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let m = *d & s;
        changed |= m != *d;
        *d = m;
    }
    changed
}

/// Successor blocks of a terminator, into a reused buffer (duplicates
/// are harmless: the meet is idempotent).
fn successors(term: &VTerm, out: &mut Vec<BlockId>) {
    out.clear();
    match term {
        VTerm::Jump(t) => out.push(*t),
        VTerm::Branch {
            then_bb, else_bb, ..
        } => out.extend([*then_bb, *else_bb]),
        VTerm::Switch {
            targets, default, ..
        } => {
            out.extend_from_slice(targets);
            out.push(*default);
        }
        VTerm::Ret(_) => {}
    }
}

struct Ck<'a> {
    vf: &'a VFunc,
    alloc: &'a Allocation,
    lay: Layout,
}

impl<'a> Ck<'a> {
    fn assign(&self, v: VR) -> Option<u8> {
        self.alloc.assign.get(v as usize).copied().flatten()
    }

    /// Apply one instruction's state effect (no error reporting).
    fn apply(&self, st: &mut [u64], inst: &VInst) {
        let lay = &self.lay;
        if let VInst::FrameStore {
            fref: FrameRef::Spill(s),
            ..
        } = inst
        {
            if let Some(b) = lay.slot_bit(*s) {
                set_bit(st, b);
            }
        }
        if inst.is_call() {
            for &r in &lay.caller {
                let g = &lay.regs[r as usize];
                clear_range(st, g.lo, g.hi);
                set_bit(st, g.clobber);
            }
        }
        if let Some(d) = inst.def() {
            // A move coalesced with its source (same register) does not
            // change the register's value: every vreg it already stood
            // for stays valid alongside `d`.
            let coalesced = match inst {
                VInst::Mov { src, .. } | VInst::FMov { src, .. } => {
                    lay.reg_of(*src).is_some()
                        && lay.reg_of(*src) == lay.reg_of(d)
                        && lay.held(st, *src)
                }
                _ => false,
            };
            if coalesced {
                set_bit(st, lay.bit[d as usize]);
            } else {
                lay.define(st, d);
            }
        }
    }

    /// Check one use against the current state.
    fn check_use(&self, st: &[u64], v: VR, block: u32, inst: usize) -> Result<(), VerifyError> {
        if self.lay.held(st, v) {
            return Ok(());
        }
        let func = self.vf.name.clone();
        let Some(p) = self.assign(v) else {
            return Err(VerifyError::UnrewrittenSpill {
                func,
                block,
                inst,
                vreg: v,
            });
        };
        match self.lay.reg_of(v) {
            Some(r) if get_bit(st, self.lay.regs[r as usize].clobber) => {
                Err(VerifyError::ClobberedRead {
                    func,
                    block,
                    inst,
                    vreg: v,
                    preg: p,
                })
            }
            _ => Err(VerifyError::UndefinedRead {
                func,
                block,
                inst,
                vreg: v,
                preg: p,
            }),
        }
    }

    /// Check every use in a block against the converged entry state,
    /// updating the state as instructions execute.
    fn check_block(&self, bid: u32, b: &VBlock, st: &mut [u64]) -> Result<(), VerifyError> {
        let mut uses = Vec::new();
        for (i, inst) in b.insts.iter().enumerate() {
            uses.clear();
            inst.uses(&mut uses);
            for &u in &uses {
                self.check_use(st, u, bid, i)?;
            }
            if let VInst::FrameLoad { dst, fref, float } = inst {
                if *float != (self.vf.class_of(*dst) == RegClass::Float) {
                    return Err(VerifyError::BadAssignment {
                        func: self.vf.name.clone(),
                        vreg: *dst,
                        preg: self.assign(*dst).unwrap_or(0),
                        detail: format!("frame load float={float} disagrees with vreg class"),
                    });
                }
                if let FrameRef::Spill(s) = fref {
                    if !self.lay.slot_bit(*s).is_some_and(|b| get_bit(st, b)) {
                        return Err(VerifyError::SpillClobbered {
                            func: self.vf.name.clone(),
                            block: bid,
                            inst: i,
                            slot: *s,
                        });
                    }
                }
            }
            if let VInst::FrameStore { src, float, .. } = inst {
                if *float != (self.vf.class_of(*src) == RegClass::Float) {
                    return Err(VerifyError::BadAssignment {
                        func: self.vf.name.clone(),
                        vreg: *src,
                        preg: self.assign(*src).unwrap_or(0),
                        detail: format!("frame store float={float} disagrees with vreg class"),
                    });
                }
            }
            self.apply(st, inst);
        }
        uses.clear();
        b.term().uses(&mut uses);
        for &u in &uses {
            self.check_use(st, u, bid, b.insts.len())?;
        }
        Ok(())
    }
}

/// Replay `alloc` over `vf` symbolically, verifying every read. See the
/// module docs for the abstract-machine rules and the state layout.
///
/// The fixpoint is a block worklist over one flat array of entry states,
/// with a single scratch state reused for every visit. It terminates: a
/// block is queued only when its entry state is first set or loses a
/// bit to the meet, and entry states never gain bits, so each block is
/// queued at most once more than its state has bits.
pub fn check_regalloc(
    vf: &VFunc,
    alloc: &Allocation,
    target: &TargetSpec,
) -> Result<(), VerifyError> {
    // Pool membership: every assigned register must come from the
    // allocatable pools (argument registers are caller-saved members).
    // Registers numbered 64 and up are rejected outright. Parameters and
    // terminator uses count as operands, so a value that only a
    // terminator reads is checked too.
    let int_ok = mask_of(
        target
            .int_caller
            .iter()
            .chain(&target.int_callee)
            .chain(&target.int_args)
            .map(|r| r.0),
    );
    let float_ok = mask_of(
        target
            .float_caller
            .iter()
            .chain(&target.float_callee)
            .chain(&target.float_args)
            .copied(),
    );
    let mut operands: Vec<VR> = vf.params.iter().map(|&(v, _)| v).collect();
    for (_, b) in vf.iter_blocks() {
        for inst in &b.insts {
            inst.uses(&mut operands);
            operands.extend(inst.def());
        }
        if let Some(term) = &b.term {
            term.uses(&mut operands);
        }
    }
    for &v in &operands {
        let Some(p) = alloc.assign.get(v as usize).copied().flatten() else {
            continue; // unassigned: caught as UnrewrittenSpill below
        };
        let ok = match vf.class_of(v) {
            RegClass::Int => in_mask(&int_ok, p),
            RegClass::Float => in_mask(&float_ok, p),
        };
        if !ok || p >= 64 {
            return Err(VerifyError::BadAssignment {
                func: vf.name.clone(),
                vreg: v,
                preg: p,
                detail: "register outside the allocatable pools".into(),
            });
        }
    }

    let ck = Ck {
        vf,
        alloc,
        lay: Layout::new(vf, alloc, target),
    };
    let w = ck.lay.words;

    // Entry state: parameters are live in their assigned registers (the
    // emitted prologue moves them there), spilled parameters are live in
    // their slots (the prologue stores them directly).
    let nb = vf.blocks.len();
    if nb == 0 {
        return Ok(());
    }
    let mut ins = vec![0u64; nb * w];
    for &(v, _) in &vf.params {
        ck.lay.define(&mut ins[..w], v);
    }
    for &(_, s) in &vf.spilled_params {
        if let Some(b) = ck.lay.slot_bit(s) {
            set_bit(&mut ins[..w], b);
        }
    }

    // Forward fixpoint over block entry states.
    let mut reached = vec![false; nb];
    let mut queued = vec![false; nb];
    reached[0] = true;
    queued[0] = true;
    let mut work = vec![0usize];
    let mut scratch = vec![0u64; w];
    let mut succs = Vec::new();
    while let Some(b) = work.pop() {
        queued[b] = false;
        scratch.copy_from_slice(&ins[b * w..(b + 1) * w]);
        let block = &vf.blocks[b];
        for inst in &block.insts {
            ck.apply(&mut scratch, inst);
        }
        successors(block.term(), &mut succs);
        for &BlockId(s) in &succs {
            let s = s as usize;
            let dst = &mut ins[s * w..(s + 1) * w];
            let changed = if reached[s] {
                meet_into(dst, &scratch)
            } else {
                reached[s] = true;
                dst.copy_from_slice(&scratch);
                true
            };
            if changed && !queued[s] {
                queued[s] = true;
                work.push(s);
            }
        }
    }

    // Converged: verify every reachable block against its entry state.
    for (bid, b) in vf.iter_blocks() {
        let i = bid.0 as usize;
        if reached[i] {
            scratch.copy_from_slice(&ins[i * w..(i + 1) * w]);
            ck.check_block(bid.0, b, &mut scratch)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_codegen::vcode::{VSrc, VTerm};
    use br_isa::Machine;

    fn target() -> TargetSpec {
        TargetSpec::for_machine(Machine::Baseline)
    }

    fn vfunc(blocks: Vec<VBlock>, classes: Vec<RegClass>, num_spills: u32) -> VFunc {
        VFunc {
            name: "t".into(),
            blocks,
            classes,
            params: vec![],
            slots: vec![],
            num_spills,
            spilled_params: vec![],
            max_out_args: 0,
            has_call: false,
        }
    }

    fn block(insts: Vec<VInst>, term: VTerm) -> VBlock {
        VBlock {
            insts,
            term: Some(term),
        }
    }

    #[test]
    fn straight_line_replay_is_clean() {
        let t = target();
        let p = t.int_caller[0].0;
        let vf = vfunc(
            vec![block(
                vec![VInst::Li { dst: 0, val: 7 }],
                VTerm::Ret(Some((VSrc::V(0), false))),
            )],
            vec![RegClass::Int],
            0,
        );
        let alloc = Allocation {
            assign: vec![Some(p)],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(check_regalloc(&vf, &alloc, &t), Ok(()));
    }

    #[test]
    fn read_of_caller_saved_across_call_is_clobbered() {
        let t = target();
        let p = t.int_caller[0].0;
        let vf = vfunc(
            vec![block(
                vec![
                    VInst::Li { dst: 0, val: 7 },
                    VInst::Call {
                        func: "g".into(),
                        args: vec![],
                        dst: None,
                    },
                ],
                VTerm::Ret(Some((VSrc::V(0), false))),
            )],
            vec![RegClass::Int],
            0,
        );
        let alloc = Allocation {
            assign: vec![Some(p)],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(
            check_regalloc(&vf, &alloc, &t),
            // The offending read is the terminator's, reported at the
            // one-past-the-last instruction index.
            Err(VerifyError::ClobberedRead {
                func: "t".into(),
                block: 0,
                inst: 2,
                vreg: 0,
                preg: p,
            })
        );
    }

    #[test]
    fn callee_saved_value_survives_a_call() {
        let t = target();
        let p = t.int_callee[0].0;
        let vf = vfunc(
            vec![block(
                vec![
                    VInst::Li { dst: 0, val: 7 },
                    VInst::Call {
                        func: "g".into(),
                        args: vec![],
                        dst: None,
                    },
                ],
                VTerm::Ret(Some((VSrc::V(0), false))),
            )],
            vec![RegClass::Int],
            0,
        );
        let alloc = Allocation {
            assign: vec![Some(p)],
            used_int_callee: vec![p],
            used_float_callee: vec![],
        };
        assert_eq!(check_regalloc(&vf, &alloc, &t), Ok(()));
    }

    #[test]
    fn reload_from_unwritten_slot_is_rejected() {
        let t = target();
        let p = t.int_caller[0].0;
        let vf = vfunc(
            vec![block(
                vec![VInst::FrameLoad {
                    dst: 0,
                    fref: FrameRef::Spill(0),
                    float: false,
                }],
                VTerm::Ret(Some((VSrc::V(0), false))),
            )],
            vec![RegClass::Int],
            1,
        );
        let alloc = Allocation {
            assign: vec![Some(p)],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(
            check_regalloc(&vf, &alloc, &t),
            Err(VerifyError::SpillClobbered {
                func: "t".into(),
                block: 0,
                inst: 0,
                slot: 0,
            })
        );
    }

    #[test]
    fn spill_round_trip_is_clean() {
        let t = target();
        let p = t.int_caller[0].0;
        let q = t.int_caller[1].0;
        let vf = vfunc(
            vec![block(
                vec![
                    VInst::Li { dst: 0, val: 7 },
                    VInst::FrameStore {
                        src: 0,
                        fref: FrameRef::Spill(0),
                        float: false,
                    },
                    VInst::FrameLoad {
                        dst: 1,
                        fref: FrameRef::Spill(0),
                        float: false,
                    },
                ],
                VTerm::Ret(Some((VSrc::V(1), false))),
            )],
            vec![RegClass::Int, RegClass::Int],
            1,
        );
        let alloc = Allocation {
            assign: vec![Some(p), Some(q)],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(check_regalloc(&vf, &alloc, &t), Ok(()));
    }

    #[test]
    fn unassigned_reference_is_unrewritten_spill() {
        let t = target();
        let vf = vfunc(
            vec![block(vec![], VTerm::Ret(Some((VSrc::V(0), false))))],
            vec![RegClass::Int],
            0,
        );
        let alloc = Allocation {
            assign: vec![None],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(
            check_regalloc(&vf, &alloc, &t),
            Err(VerifyError::UnrewrittenSpill {
                func: "t".into(),
                block: 0,
                inst: 0,
                vreg: 0,
            })
        );
    }

    #[test]
    fn assignment_outside_the_pools_is_rejected() {
        let t = target();
        let vf = vfunc(
            vec![block(
                vec![VInst::Li { dst: 0, val: 1 }],
                VTerm::Ret(Some((VSrc::V(0), false))),
            )],
            vec![RegClass::Int],
            0,
        );
        let alloc = Allocation {
            assign: vec![Some(t.sp.0)], // the stack pointer is never allocatable
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert!(matches!(
            check_regalloc(&vf, &alloc, &t),
            Err(VerifyError::BadAssignment { .. })
        ));
    }

    #[test]
    fn parameter_only_a_terminator_reads_is_pool_checked() {
        // `t(v0) { return v0 }`: no instruction names v0, so only the
        // parameter list and the `Ret` reach it.
        let t = target();
        let mut vf = vfunc(
            vec![block(vec![], VTerm::Ret(Some((VSrc::V(0), false))))],
            vec![RegClass::Int],
            0,
        );
        vf.params = vec![(0, false)];
        let alloc = Allocation {
            assign: vec![Some(t.sp.0)],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(
            check_regalloc(&vf, &alloc, &t),
            Err(VerifyError::BadAssignment {
                func: "t".into(),
                vreg: 0,
                preg: t.sp.0,
                detail: "register outside the allocatable pools".into(),
            })
        );
    }

    #[test]
    fn value_defined_on_both_arms_merges_clean() {
        let t = target();
        let p = t.int_caller[0].0;
        let q = t.int_caller[1].0;
        // if (v0) v1 = 1 else v1 = 2; return v1 — both arms define v1
        // into the same register, so the join is V(1), not Mixed.
        let vf = vfunc(
            vec![
                block(
                    vec![VInst::Li { dst: 0, val: 1 }],
                    VTerm::Branch {
                        cc: br_isa::Cc::Ne,
                        float: false,
                        a: 0,
                        b: VSrc::Imm(0),
                        then_bb: br_ir::BlockId(1),
                        else_bb: br_ir::BlockId(2),
                    },
                ),
                block(
                    vec![VInst::Li { dst: 1, val: 1 }],
                    VTerm::Jump(br_ir::BlockId(3)),
                ),
                block(
                    vec![VInst::Li { dst: 1, val: 2 }],
                    VTerm::Jump(br_ir::BlockId(3)),
                ),
                block(vec![], VTerm::Ret(Some((VSrc::V(1), false)))),
            ],
            vec![RegClass::Int, RegClass::Int],
            0,
        );
        let alloc = Allocation {
            assign: vec![Some(p), Some(q)],
            used_int_callee: vec![],
            used_float_callee: vec![],
        };
        assert_eq!(check_regalloc(&vf, &alloc, &t), Ok(()));
    }
}
