//! Virtual-register machine code — the representation between instruction
//! selection and register allocation.

use std::fmt;

use br_ir::{BlockId, RegClass};
use br_isa::{AluOp, Cc, FpuOp, MemWidth};

/// A virtual register index (class recorded in [`VFunc::classes`]).
pub type VR = u32;

/// Second operand: virtual register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VSrc {
    V(VR),
    Imm(i32),
}

impl VSrc {
    /// The register, if any.
    pub fn vr(&self) -> Option<VR> {
        match self {
            VSrc::V(v) => Some(*v),
            VSrc::Imm(_) => None,
        }
    }
}

/// A frame location whose final stack offset is assigned at emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef {
    /// An IR stack slot (local array / address-taken variable).
    Slot(u32),
    /// A register-allocator spill slot.
    Spill(u32),
    /// Outgoing-argument overflow word `i`.
    OutArg(u32),
    /// Incoming stack argument word `i` (in the caller's frame).
    InArg(u32),
}

/// One virtual instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum VInst {
    /// `dst = a op b`.
    Alu { op: AluOp, dst: VR, a: VR, b: VSrc },
    /// `dst = val` (expands to `add`/`sethi+orlo` at emission).
    Li { dst: VR, val: i32 },
    /// `dst = &symbol` (expands to `sethi+orlo`).
    La { dst: VR, sym: String },
    /// Integer copy.
    Mov { dst: VR, src: VR },
    /// `dst = M[base + off]`.
    Load {
        w: MemWidth,
        dst: VR,
        base: VR,
        off: i32,
    },
    /// Float load from `[base + off]`.
    LoadF { dst: VR, base: VR, off: i32 },
    /// `M[base + off] = src`.
    Store {
        w: MemWidth,
        src: VR,
        base: VR,
        off: i32,
    },
    /// Float store.
    StoreF { src: VR, base: VR, off: i32 },
    /// `dst = sp + frame_offset(fref) + off`.
    FrameAddr { dst: VR, fref: FrameRef, off: i32 },
    /// `dst = M[frame(fref)]` — frame-relative load (spill reloads,
    /// incoming stack args). `float` selects the register file.
    FrameLoad {
        dst: VR,
        fref: FrameRef,
        float: bool,
    },
    /// `M[frame(fref)] = src`.
    FrameStore {
        src: VR,
        fref: FrameRef,
        float: bool,
    },
    /// Float three-address op.
    Fpu { op: FpuOp, dst: VR, a: VR, b: VR },
    /// Float negate.
    FNeg { dst: VR, src: VR },
    /// Float copy.
    FMov { dst: VR, src: VR },
    /// Int → float conversion.
    ItoF { dst: VR, src: VR },
    /// Float → int conversion.
    FtoI { dst: VR, src: VR },
    /// Call; argument and result shuffling is expanded at emission.
    Call {
        func: String,
        args: Vec<VR>,
        dst: Option<VR>,
    },
}

impl VInst {
    /// Virtual register defined, if any.
    pub fn def(&self) -> Option<VR> {
        match self {
            VInst::Alu { dst, .. }
            | VInst::Li { dst, .. }
            | VInst::La { dst, .. }
            | VInst::Mov { dst, .. }
            | VInst::Load { dst, .. }
            | VInst::LoadF { dst, .. }
            | VInst::FrameAddr { dst, .. }
            | VInst::FrameLoad { dst, .. }
            | VInst::Fpu { dst, .. }
            | VInst::FNeg { dst, .. }
            | VInst::FMov { dst, .. }
            | VInst::ItoF { dst, .. }
            | VInst::FtoI { dst, .. } => Some(*dst),
            VInst::Call { dst, .. } => *dst,
            VInst::Store { .. } | VInst::StoreF { .. } | VInst::FrameStore { .. } => None,
        }
    }

    /// Collect used virtual registers.
    pub fn uses(&self, out: &mut Vec<VR>) {
        match self {
            VInst::Alu { a, b, .. } => {
                out.push(*a);
                if let VSrc::V(v) = b {
                    out.push(*v);
                }
            }
            VInst::Li { .. }
            | VInst::La { .. }
            | VInst::FrameAddr { .. }
            | VInst::FrameLoad { .. } => {}
            VInst::Mov { src, .. }
            | VInst::FNeg { src, .. }
            | VInst::FMov { src, .. }
            | VInst::ItoF { src, .. }
            | VInst::FtoI { src, .. } => out.push(*src),
            VInst::Load { base, .. } | VInst::LoadF { base, .. } => out.push(*base),
            VInst::Store { src, base, .. } | VInst::StoreF { src, base, .. } => {
                out.push(*src);
                out.push(*base);
            }
            VInst::FrameStore { src, .. } => out.push(*src),
            VInst::Fpu { a, b, .. } => {
                out.push(*a);
                out.push(*b);
            }
            VInst::Call { args, .. } => out.extend(args.iter().copied()),
        }
    }

    /// Whether this is a call (clobbers caller-saved registers).
    pub fn is_call(&self) -> bool {
        matches!(self, VInst::Call { .. })
    }
}

/// Block terminator, still target-abstract.
#[derive(Debug, Clone, PartialEq)]
pub enum VTerm {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch; `else_bb` is the fall-through intent.
    Branch {
        cc: Cc,
        float: bool,
        a: VR,
        b: VSrc,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Jump-table dispatch on `idx - base` with bounds check.
    Switch {
        idx: VR,
        base: i32,
        targets: Vec<BlockId>,
        default: BlockId,
    },
    /// Return (value, if any, and whether it is a float).
    Ret(Option<(VSrc, bool)>),
}

impl VTerm {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            VTerm::Jump(t) => vec![*t],
            VTerm::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            VTerm::Switch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v.sort_unstable();
                v.dedup();
                v
            }
            VTerm::Ret(_) => vec![],
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self, out: &mut Vec<VR>) {
        match self {
            VTerm::Branch { a, b, .. } => {
                out.push(*a);
                if let VSrc::V(v) = b {
                    out.push(*v);
                }
            }
            VTerm::Switch { idx, .. } => out.push(*idx),
            VTerm::Ret(Some((VSrc::V(v), _))) => out.push(*v),
            _ => {}
        }
    }
}

/// One virtual-code basic block.
#[derive(Debug, Clone, Default)]
pub struct VBlock {
    pub insts: Vec<VInst>,
    pub term: Option<VTerm>,
}

impl VBlock {
    /// The terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block has not been terminated (selection bug).
    pub fn term(&self) -> &VTerm {
        self.term.as_ref().expect("unterminated vblock")
    }
}

/// A function in virtual-register machine code. Block ids match the IR
/// function's, so the IR-level loop analysis applies directly.
#[derive(Debug, Clone)]
pub struct VFunc {
    pub name: String,
    pub blocks: Vec<VBlock>,
    /// Class of each virtual register.
    pub classes: Vec<RegClass>,
    /// Parameter vregs in order, with float flag.
    pub params: Vec<(VR, bool)>,
    /// Sizes/alignment of IR stack slots, copied from the IR function.
    pub slots: Vec<(usize, usize)>,
    /// Number of spill slots added by the register allocator.
    pub num_spills: u32,
    /// Parameters that were spilled: `(param vreg, spill slot)`. The
    /// prologue stores the incoming argument straight to the slot.
    pub spilled_params: Vec<(VR, u32)>,
    /// Maximum outgoing-argument overflow words over all call sites.
    pub max_out_args: u32,
    /// Whether the function contains calls.
    pub has_call: bool,
}

impl VFunc {
    /// Allocate a fresh vreg of `class`.
    pub fn new_vreg(&mut self, class: RegClass) -> VR {
        let v = self.classes.len() as VR;
        self.classes.push(class);
        v
    }

    /// Class of a vreg.
    pub fn class_of(&self, v: VR) -> RegClass {
        self.classes[v as usize]
    }

    /// Iterate blocks with ids.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &VBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }
}

impl fmt::Display for VFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "vfunc {} {{", self.name)?;
        for (id, b) in self.iter_blocks() {
            writeln!(f, "{id}:")?;
            for i in &b.insts {
                writeln!(f, "    {i:?}")?;
            }
            writeln!(f, "    {:?}", b.term)?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_bookkeeping() {
        let i = VInst::Alu {
            op: AluOp::Add,
            dst: 3,
            a: 1,
            b: VSrc::V(2),
        };
        assert_eq!(i.def(), Some(3));
        let mut u = Vec::new();
        i.uses(&mut u);
        assert_eq!(u, vec![1, 2]);

        let s = VInst::Store {
            w: MemWidth::Word,
            src: 4,
            base: 5,
            off: 0,
        };
        assert_eq!(s.def(), None);
        u.clear();
        s.uses(&mut u);
        assert_eq!(u, vec![4, 5]);
    }

    #[test]
    fn call_defs_and_uses() {
        let c = VInst::Call {
            func: "f".into(),
            args: vec![1, 2],
            dst: Some(9),
        };
        assert!(c.is_call());
        assert_eq!(c.def(), Some(9));
        let mut u = Vec::new();
        c.uses(&mut u);
        assert_eq!(u, vec![1, 2]);
    }

    #[test]
    fn term_successors_dedup() {
        let t = VTerm::Switch {
            idx: 0,
            base: 0,
            targets: vec![BlockId(1), BlockId(1), BlockId(2)],
            default: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
    }
}
