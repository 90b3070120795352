//! Checker 2: symbolic replay of the register allocation.
//!
//! After `regalloc.rs` rewrote spills, every instruction references only
//! assigned virtual registers. The checker replays the allocation over
//! an abstract machine in which each physical register holds a *symbol*
//! — the virtual register the allocator last placed there, `Clobbered`
//! after a call destroyed a caller-saved register, or `Garbage` before
//! any definition. A read of vreg `v` must find exactly the symbol `v`
//! in `v`'s assigned register on every path; spill-slot reloads must be
//! preceded by a store to the same slot on every path.

use std::collections::{BTreeSet, HashSet};

use br_codegen::regalloc::Allocation;
use br_codegen::vcode::{FrameRef, VBlock, VFunc, VInst, VR};
use br_codegen::TargetSpec;
use br_ir::RegClass;

use br_verify::VerifyError;

/// What a physical register abstractly holds.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sym {
    /// Never written on this path.
    Garbage,
    /// Destroyed by a call (caller-saved registers only).
    Clobbered,
    /// Holds incompatible symbols on different incoming paths.
    Mixed,
    /// Holds the value of every virtual register in the set. A move
    /// whose source and destination were coalesced into the same
    /// register leaves *both* vregs valid there, so a register can
    /// stand for several vregs at once.
    V(BTreeSet<VR>),
}

fn merge_sym(a: &Sym, b: &Sym) -> Sym {
    match (a, b) {
        (Sym::V(x), Sym::V(y)) => {
            let i: BTreeSet<VR> = x.intersection(y).copied().collect();
            if i.is_empty() {
                Sym::Mixed
            } else {
                Sym::V(i)
            }
        }
        _ if a == b => a.clone(),
        _ => Sym::Mixed,
    }
}

/// Abstract machine state at a program point.
#[derive(Debug, Clone, PartialEq)]
struct State {
    int: Vec<Sym>,
    float: Vec<Sym>,
    /// Whether each allocator spill slot has definitely been stored.
    slots: Vec<bool>,
}

impl State {
    fn merge_with(&mut self, o: &State) -> bool {
        let mut changed = false;
        for (a, b) in self
            .int
            .iter_mut()
            .chain(self.float.iter_mut())
            .zip(o.int.iter().chain(o.float.iter()))
        {
            let m = merge_sym(a, b);
            changed |= m != *a;
            *a = m;
        }
        for (a, b) in self.slots.iter_mut().zip(&o.slots) {
            let m = *a && *b;
            changed |= m != *a;
            *a = m;
        }
        changed
    }
}

struct Ck<'a> {
    vf: &'a VFunc,
    alloc: &'a Allocation,
    /// Caller-saved register numbers, per class.
    int_caller: Vec<u8>,
    float_caller: Vec<u8>,
}

impl<'a> Ck<'a> {
    fn assign(&self, v: VR) -> Option<u8> {
        self.alloc.assign.get(v as usize).copied().flatten()
    }

    fn reg_of<'s>(&self, st: &'s State, v: VR, p: u8) -> &'s Sym {
        match self.vf.class_of(v) {
            RegClass::Int => &st.int[p as usize],
            RegClass::Float => &st.float[p as usize],
        }
    }

    fn set_reg(&self, st: &mut State, v: VR, p: u8, sym: Sym) {
        match self.vf.class_of(v) {
            RegClass::Int => st.int[p as usize] = sym,
            RegClass::Float => st.float[p as usize] = sym,
        }
    }

    fn one(v: VR) -> Sym {
        Sym::V(BTreeSet::from([v]))
    }

    /// Apply one instruction's state effect (no error reporting).
    fn apply(&self, st: &mut State, inst: &VInst) {
        if let VInst::FrameStore {
            fref: FrameRef::Spill(s),
            ..
        } = inst
        {
            if let Some(slot) = st.slots.get_mut(*s as usize) {
                *slot = true;
            }
        }
        if inst.is_call() {
            for &p in &self.int_caller {
                st.int[p as usize] = Sym::Clobbered;
            }
            for &p in &self.float_caller {
                st.float[p as usize] = Sym::Clobbered;
            }
        }
        if let Some(d) = inst.def() {
            if let Some(p) = self.assign(d) {
                // A move coalesced with its source (same register)
                // does not change the register's value: every vreg it
                // already stood for stays valid alongside `d`.
                let mut set = BTreeSet::from([d]);
                if let VInst::Mov { src, .. } | VInst::FMov { src, .. } = inst {
                    if self.assign(*src) == Some(p) {
                        if let Sym::V(prev) = self.reg_of(st, d, p) {
                            if prev.contains(src) {
                                set.extend(prev.iter().copied());
                            }
                        }
                    }
                }
                self.set_reg(st, d, p, Sym::V(set));
            }
        }
    }

    /// Check one use against the current state.
    fn check_use(&self, st: &State, v: VR, block: u32, inst: usize) -> Result<(), VerifyError> {
        let func = self.vf.name.clone();
        let Some(p) = self.assign(v) else {
            return Err(VerifyError::UnrewrittenSpill {
                func,
                block,
                inst,
                vreg: v,
            });
        };
        match self.reg_of(st, v, p) {
            Sym::V(set) if set.contains(&v) => Ok(()),
            Sym::Clobbered => Err(VerifyError::ClobberedRead {
                func,
                block,
                inst,
                vreg: v,
                preg: p,
            }),
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
    fn check_block(&self, bid: u32, b: &VBlock, st: &mut State) -> Result<(), VerifyError> {
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
                    if !st.slots.get(*s as usize).copied().unwrap_or(false) {
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
/// module docs for the abstract-machine rules.
pub fn check_regalloc(
    vf: &VFunc,
    alloc: &Allocation,
    target: &TargetSpec,
) -> Result<(), VerifyError> {
    // Register-file sizes: index by physical number, generously sized so
    // a bad assignment cannot panic the checker before it is reported.
    let nregs = 64usize;

    // Pool membership: every assigned register must come from the
    // allocatable pools (argument registers are caller-saved members).
    let int_ok: HashSet<u8> = target
        .int_caller
        .iter()
        .chain(&target.int_callee)
        .chain(&target.int_args)
        .map(|r| r.0)
        .collect();
    let float_ok: HashSet<u8> = target
        .float_caller
        .iter()
        .chain(&target.float_callee)
        .chain(&target.float_args)
        .copied()
        .collect();
    // Parameters and terminator uses count as operands, so a value that
    // only a terminator reads is checked too.
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
            RegClass::Int => int_ok.contains(&p),
            RegClass::Float => float_ok.contains(&p),
        };
        if !ok || (p as usize) >= nregs {
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
        int_caller: target
            .int_caller
            .iter()
            .chain(&target.int_args)
            .map(|r| r.0)
            .collect(),
        float_caller: target
            .float_caller
            .iter()
            .chain(&target.float_args)
            .copied()
            .collect(),
    };

    // Entry state: parameters are live in their assigned registers (the
    // emitted prologue moves them there), spilled parameters are live in
    // their slots (the prologue stores them directly).
    let mut entry = State {
        int: vec![Sym::Garbage; nregs],
        float: vec![Sym::Garbage; nregs],
        slots: vec![false; vf.num_spills as usize],
    };
    for &(v, _) in &vf.params {
        if let Some(p) = ck.assign(v) {
            ck.set_reg(&mut entry, v, p, Ck::one(v));
        }
    }
    for &(_, s) in &vf.spilled_params {
        if let Some(slot) = entry.slots.get_mut(s as usize) {
            *slot = true;
        }
    }

    // Forward fixpoint over block-entry states.
    let nb = vf.blocks.len();
    let mut in_states: Vec<Option<State>> = vec![None; nb];
    in_states[0] = Some(entry);
    let mut changed = true;
    while changed {
        changed = false;
        for (bid, b) in vf.iter_blocks() {
            let Some(mut st) = in_states[bid.0 as usize].clone() else {
                continue;
            };
            for inst in &b.insts {
                ck.apply(&mut st, inst);
            }
            for s in b.term().successors() {
                match &mut in_states[s.0 as usize] {
                    None => {
                        in_states[s.0 as usize] = Some(st.clone());
                        changed = true;
                    }
                    Some(old) => changed |= old.merge_with(&st),
                }
            }
        }
    }

    // Converged: verify every reachable block against its entry state.
    for (bid, b) in vf.iter_blocks() {
        if let Some(st) = &in_states[bid.0 as usize] {
            ck.check_block(bid.0, b, &mut st.clone())?;
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
