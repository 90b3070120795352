//! Predecoded operand cache: a flat, dispatch-ready form of [`MInst`].
//!
//! The emulator's threaded-dispatch tier indexes a handler table by a
//! dense [`Kind`] discriminant instead of matching on [`MInst`] per
//! dynamic instruction. Flattening happens once per program
//! ([`predecode`]) and constant-folds everything that does not depend
//! on runtime state:
//!
//! * `Alu` is split per operation *and* per `src2` shape, so handlers
//!   never re-inspect [`Src2`];
//! * PC-relative displacements (`Bcc`, `Ba`, `Call`, `Bcalc`) become
//!   absolute byte addresses;
//! * `sethi` immediates are pre-shifted;
//! * condition codes are stored as their [`Cc::code`](crate::Cc::code) index.
//!
//! The flattening is **machine-aware**: an instruction that is illegal
//! for the program's machine flattens to [`Kind::Wrong`], preserving
//! the interpreter's [`WrongMachine`] behaviour, and embedded data
//! words flatten to [`Kind::Data`].
//!
//! [`WrongMachine`]: crate::Machine

use crate::minst::{MInst, MemWidth, Src2};
use crate::program::{Program, TextWord};
use crate::Machine;

/// Dense discriminant of a [`Decoded`] word. `RR`/`RI` suffixes name
/// the register/immediate `src2` shapes of the original instruction.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An embedded data word (jump table) — executing it is an error.
    Data = 0,
    /// An instruction illegal for the program's machine.
    Wrong,
    Nop,
    Halt,
    /// `imm` holds the already-shifted high half.
    Sethi,
    AddRR,
    AddRI,
    SubRR,
    SubRI,
    MulRR,
    MulRI,
    DivRR,
    DivRI,
    RemRR,
    RemRI,
    AndRR,
    AndRI,
    OrRR,
    OrRI,
    XorRR,
    XorRI,
    SllRR,
    SllRI,
    SrlRR,
    SrlRI,
    SraRR,
    SraRI,
    OrLoRR,
    OrLoRI,
    LoadByte,
    LoadWord,
    LoadF,
    StoreByte,
    StoreWord,
    StoreF,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    FMov,
    ItoF,
    FtoI,
    // ---- baseline machine only ----
    CmpRR,
    CmpRI,
    FCmp,
    /// Integer conditional branch; `imm` holds the absolute target.
    Bcc,
    /// Float conditional branch; `imm` holds the absolute target.
    FBcc,
    Ba,
    Call,
    Jmpl,
    // ---- branch-register machine only ----
    /// `imm` holds the absolute target.
    Bcalc,
    CmpBrRR,
    CmpBrRI,
    FCmpBr,
    BMovB,
    BMovR,
    BLoadRR,
    BLoadRI,
    BStore,
}

/// Number of [`Kind`] values (handler-table length).
pub const KIND_COUNT: usize = Kind::BStore as usize + 1;

impl Kind {
    /// Whether executing this kind writes a branch register through the
    /// emulator's prefetch-tracking assignment path (`bcalc`, the
    /// `bmov` forms, and `bload` — *not* the compare-with-assignment,
    /// whose `b[7]` write is not an i-cache prefetch).
    pub fn assigns_breg(self) -> bool {
        matches!(
            self,
            Kind::Bcalc | Kind::BMovB | Kind::BMovR | Kind::BLoadRR | Kind::BLoadRI
        )
    }

    /// Whether this is a compare-with-assignment (the Section 9 "fast
    /// compare" when it also carries a `br` transfer).
    pub fn is_cmpbr(self) -> bool {
        matches!(self, Kind::CmpBrRR | Kind::CmpBrRI | Kind::FCmpBr)
    }

    /// Whether this is baseline control flow (delayed-branch family).
    pub fn is_baseline_control(self) -> bool {
        matches!(
            self,
            Kind::Bcc | Kind::FBcc | Kind::Ba | Kind::Call | Kind::Jmpl
        )
    }

    /// Whether executing this kind writes memory (and so carries a
    /// store to the emulator's retire hook).
    pub fn is_store(self) -> bool {
        matches!(
            self,
            Kind::StoreByte | Kind::StoreWord | Kind::StoreF | Kind::BStore
        )
    }
}

/// One predecoded text word: 12 bytes, fully resolved operands.
///
/// Field meaning depends on `kind` (see [`flatten`]); by convention `a`
/// is the destination (or store source), `b`/`c` are sources, `d` is a
/// condition-code index, and `imm` is the immediate / offset / absolute
/// branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    pub kind: Kind,
    pub a: u8,
    pub b: u8,
    pub c: u8,
    /// Condition-code index in [`Cc::ALL`](crate::Cc::ALL) order.
    pub d: u8,
    /// The branch-register transfer field (0 = fall through).
    pub br: u8,
    pub imm: i32,
}

impl Decoded {
    const EMPTY: Decoded = Decoded {
        kind: Kind::Wrong,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        br: 0,
        imm: 0,
    };

    fn op(kind: Kind) -> Decoded {
        Decoded {
            kind,
            ..Decoded::EMPTY
        }
    }
}

fn alu_kinds(op: crate::AluOp) -> (Kind, Kind) {
    use crate::AluOp as A;
    match op {
        A::Add => (Kind::AddRR, Kind::AddRI),
        A::Sub => (Kind::SubRR, Kind::SubRI),
        A::Mul => (Kind::MulRR, Kind::MulRI),
        A::Div => (Kind::DivRR, Kind::DivRI),
        A::Rem => (Kind::RemRR, Kind::RemRI),
        A::And => (Kind::AndRR, Kind::AndRI),
        A::Or => (Kind::OrRR, Kind::OrRI),
        A::Xor => (Kind::XorRR, Kind::XorRI),
        A::Sll => (Kind::SllRR, Kind::SllRI),
        A::Srl => (Kind::SrlRR, Kind::SrlRI),
        A::Sra => (Kind::SraRR, Kind::SraRI),
        A::OrLo => (Kind::OrLoRR, Kind::OrLoRI),
    }
}

/// Flatten one instruction at byte address `pc` for `machine`.
/// Instructions of the *other* machine flatten to [`Kind::Wrong`].
pub fn flatten(machine: Machine, inst: MInst, pc: u32) -> Decoded {
    let z = Decoded::EMPTY;
    let abs = |disp: i32| pc.wrapping_add((disp as u32) << 2) as i32;
    let base_only = machine == Machine::Baseline;
    let br_only = machine == Machine::BranchReg;
    match inst {
        MInst::Nop { br } => Decoded {
            kind: Kind::Nop,
            br,
            ..z
        },
        MInst::Halt => Decoded::op(Kind::Halt),
        MInst::Alu {
            op,
            rd,
            rs1,
            src2,
            br,
        } => {
            let (rr, ri) = alu_kinds(op);
            match src2 {
                Src2::Reg(r) => Decoded {
                    kind: rr,
                    a: rd.0,
                    b: rs1.0,
                    c: r.0,
                    br,
                    ..z
                },
                Src2::Imm(v) => Decoded {
                    kind: ri,
                    a: rd.0,
                    b: rs1.0,
                    br,
                    imm: v,
                    ..z
                },
            }
        }
        MInst::Sethi { rd, imm } => Decoded {
            kind: Kind::Sethi,
            a: rd.0,
            imm: (imm << 11) as i32,
            ..z
        },
        MInst::Load {
            w,
            rd,
            rs1,
            off,
            br,
        } => Decoded {
            kind: match w {
                MemWidth::Byte => Kind::LoadByte,
                MemWidth::Word => Kind::LoadWord,
            },
            a: rd.0,
            b: rs1.0,
            br,
            imm: off,
            ..z
        },
        MInst::LoadF { fd, rs1, off, br } => Decoded {
            kind: Kind::LoadF,
            a: fd.0,
            b: rs1.0,
            br,
            imm: off,
            ..z
        },
        MInst::Store {
            w,
            rs,
            rs1,
            off,
            br,
        } => Decoded {
            kind: match w {
                MemWidth::Byte => Kind::StoreByte,
                MemWidth::Word => Kind::StoreWord,
            },
            a: rs.0,
            b: rs1.0,
            br,
            imm: off,
            ..z
        },
        MInst::StoreF { fs, rs1, off, br } => Decoded {
            kind: Kind::StoreF,
            a: fs.0,
            b: rs1.0,
            br,
            imm: off,
            ..z
        },
        MInst::Fpu {
            op,
            fd,
            fs1,
            fs2,
            br,
        } => Decoded {
            kind: match op {
                crate::FpuOp::FAdd => Kind::FAdd,
                crate::FpuOp::FSub => Kind::FSub,
                crate::FpuOp::FMul => Kind::FMul,
                crate::FpuOp::FDiv => Kind::FDiv,
            },
            a: fd.0,
            b: fs1.0,
            c: fs2.0,
            br,
            ..z
        },
        MInst::FNeg { fd, fs, br } => Decoded {
            kind: Kind::FNeg,
            a: fd.0,
            b: fs.0,
            br,
            ..z
        },
        MInst::FMov { fd, fs, br } => Decoded {
            kind: Kind::FMov,
            a: fd.0,
            b: fs.0,
            br,
            ..z
        },
        MInst::ItoF { fd, rs, br } => Decoded {
            kind: Kind::ItoF,
            a: fd.0,
            b: rs.0,
            br,
            ..z
        },
        MInst::FtoI { rd, fs, br } => Decoded {
            kind: Kind::FtoI,
            a: rd.0,
            b: fs.0,
            br,
            ..z
        },

        MInst::Cmp { rs1, src2 } if base_only => match src2 {
            Src2::Reg(r) => Decoded {
                kind: Kind::CmpRR,
                b: rs1.0,
                c: r.0,
                ..z
            },
            Src2::Imm(v) => Decoded {
                kind: Kind::CmpRI,
                b: rs1.0,
                imm: v,
                ..z
            },
        },
        MInst::FCmp { fs1, fs2 } if base_only => Decoded {
            kind: Kind::FCmp,
            b: fs1.0,
            c: fs2.0,
            ..z
        },
        MInst::Bcc { cc, float, disp } if base_only => Decoded {
            kind: if float { Kind::FBcc } else { Kind::Bcc },
            d: cc.code() as u8,
            imm: abs(disp),
            ..z
        },
        MInst::Ba { disp } if base_only => Decoded {
            kind: Kind::Ba,
            imm: abs(disp),
            ..z
        },
        MInst::Call { disp } if base_only => Decoded {
            kind: Kind::Call,
            imm: abs(disp),
            ..z
        },
        MInst::Jmpl { rd, rs1, off } if base_only => Decoded {
            kind: Kind::Jmpl,
            a: rd.0,
            b: rs1.0,
            imm: off,
            ..z
        },

        MInst::Bcalc { bd, disp, br } if br_only => Decoded {
            kind: Kind::Bcalc,
            a: bd.0,
            br,
            imm: abs(disp),
            ..z
        },
        MInst::CmpBr {
            cc,
            bt,
            rs1,
            src2,
            br,
        } if br_only => {
            let d = cc.code() as u8;
            match src2 {
                Src2::Reg(r) => Decoded {
                    kind: Kind::CmpBrRR,
                    a: bt.0,
                    b: rs1.0,
                    c: r.0,
                    d,
                    br,
                    ..z
                },
                Src2::Imm(v) => Decoded {
                    kind: Kind::CmpBrRI,
                    a: bt.0,
                    b: rs1.0,
                    d,
                    br,
                    imm: v,
                    ..z
                },
            }
        }
        MInst::FCmpBr {
            cc,
            bt,
            fs1,
            fs2,
            br,
        } if br_only => Decoded {
            kind: Kind::FCmpBr,
            a: bt.0,
            b: fs1.0,
            c: fs2.0,
            d: cc.code() as u8,
            br,
            ..z
        },
        MInst::BMovB { bd, bs, br } if br_only => Decoded {
            kind: Kind::BMovB,
            a: bd.0,
            b: bs.0,
            br,
            ..z
        },
        MInst::BMovR { bd, rs1, off, br } if br_only => Decoded {
            kind: Kind::BMovR,
            a: bd.0,
            b: rs1.0,
            br,
            imm: off,
            ..z
        },
        MInst::BLoad { bd, rs1, src2, br } if br_only => match src2 {
            Src2::Reg(r) => Decoded {
                kind: Kind::BLoadRR,
                a: bd.0,
                b: rs1.0,
                c: r.0,
                br,
                ..z
            },
            Src2::Imm(v) => Decoded {
                kind: Kind::BLoadRI,
                a: bd.0,
                b: rs1.0,
                br,
                imm: v,
                ..z
            },
        },
        MInst::BStore { bs, rs1, off, br } if br_only => Decoded {
            kind: Kind::BStore,
            a: bs.0,
            b: rs1.0,
            br,
            imm: off,
            ..z
        },

        // The remaining combinations are instructions of the other
        // machine: preserve the interpreter's WrongMachine error.
        _ => Decoded::op(Kind::Wrong),
    }
}

/// Predecode a whole program into the flat dispatch form, one entry per
/// text word, data words included (as [`Kind::Data`]).
pub fn predecode(prog: &Program) -> Vec<Decoded> {
    let base = prog.text_base();
    prog.text
        .iter()
        .enumerate()
        .map(|(i, w)| match w {
            TextWord::Data(_) => Decoded::op(Kind::Data),
            TextWord::Inst(inst) => flatten(prog.machine, *inst, base + (i as u32) * 4),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, BReg, Cc, FReg, Reg};

    #[test]
    fn decoded_is_small() {
        assert_eq!(std::mem::size_of::<Decoded>(), 12);
    }

    #[test]
    fn alu_splits_per_op_and_src2_shape() {
        let rr = flatten(
            Machine::Baseline,
            MInst::Alu {
                op: AluOp::Sub,
                rd: Reg(3),
                rs1: Reg(4),
                src2: Src2::Reg(Reg(5)),
                br: 0,
            },
            0x1000,
        );
        assert_eq!(rr.kind, Kind::SubRR);
        assert_eq!((rr.a, rr.b, rr.c), (3, 4, 5));
        let ri = flatten(
            Machine::BranchReg,
            MInst::Alu {
                op: AluOp::Srl,
                rd: Reg(1),
                rs1: Reg(2),
                src2: Src2::Imm(-9),
                br: 6,
            },
            0x1000,
        );
        assert_eq!(ri.kind, Kind::SrlRI);
        assert_eq!(ri.imm, -9);
        assert_eq!(ri.br, 6);
    }

    #[test]
    fn branch_targets_become_absolute() {
        let d = flatten(
            Machine::Baseline,
            MInst::Bcc {
                cc: Cc::Lt,
                float: false,
                disp: -2,
            },
            0x1010,
        );
        assert_eq!(d.kind, Kind::Bcc);
        assert_eq!(d.imm as u32, 0x1008);
        assert_eq!(d.d, Cc::Lt.code() as u8);
        let b = flatten(
            Machine::BranchReg,
            MInst::Bcalc {
                bd: BReg(2),
                disp: 3,
                br: 1,
            },
            0x1000,
        );
        assert_eq!(b.kind, Kind::Bcalc);
        assert_eq!(b.imm as u32, 0x100c);
        assert_eq!((b.a, b.br), (2, 1));
    }

    #[test]
    fn sethi_immediate_is_preshifted() {
        let d = flatten(
            Machine::Baseline,
            MInst::Sethi { rd: Reg(9), imm: 7 },
            0x1000,
        );
        assert_eq!(d.imm, 7 << 11);
    }

    #[test]
    fn wrong_machine_instructions_flatten_to_wrong() {
        // Baseline-only control on the BR machine and vice versa.
        let d = flatten(Machine::BranchReg, MInst::Ba { disp: 0 }, 0x1000);
        assert_eq!(d.kind, Kind::Wrong);
        let d = flatten(
            Machine::Baseline,
            MInst::BMovB {
                bd: BReg(1),
                bs: BReg(7),
                br: 0,
            },
            0x1000,
        );
        assert_eq!(d.kind, Kind::Wrong);
        let d = flatten(
            Machine::Baseline,
            MInst::FCmpBr {
                cc: Cc::Ge,
                bt: BReg(1),
                fs1: FReg(0),
                fs2: FReg(1),
                br: 0,
            },
            0x1000,
        );
        assert_eq!(d.kind, Kind::Wrong);
    }

    #[test]
    fn kind_classifications_are_consistent() {
        assert!(Kind::Bcalc.assigns_breg());
        assert!(Kind::BLoadRI.assigns_breg());
        assert!(!Kind::CmpBrRR.assigns_breg());
        assert!(!Kind::BStore.assigns_breg());
        assert!(Kind::FCmpBr.is_cmpbr());
        assert!(!Kind::FCmp.is_cmpbr());
        assert!(Kind::Jmpl.is_baseline_control());
        assert!(!Kind::Halt.is_baseline_control());
        assert!((Kind::BStore as usize) < KIND_COUNT);
    }
}
