//! Machine instructions shared by the baseline and branch-register
//! machines, displayed in the paper's RTL notation.

use std::fmt;

/// A general-purpose data register (`r[n]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// A floating-point register (`f[n]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(pub u8);

/// A branch register (`b[n]`, branch-register machine only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BReg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r[{}]", self.0)
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f[{}]", self.0)
    }
}

impl fmt::Display for BReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b[{}]", self.0)
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    /// `rd = rs1 | zext(imm)` — combines the low address half after
    /// `sethi` (the immediate is treated as unsigned).
    OrLo,
}

impl AluOp {
    /// RTL operator spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            AluOp::Add => "+",
            AluOp::Sub => "-",
            AluOp::Mul => "*",
            AluOp::Div => "/",
            AluOp::Rem => "%",
            AluOp::And => "&",
            AluOp::Or => "|",
            AluOp::Xor => "^",
            AluOp::Sll => "<<",
            AluOp::Srl => ">>u",
            AluOp::Sra => ">>",
            AluOp::OrLo => "|lo",
        }
    }
}

/// Floating-point ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl FpuOp {
    /// RTL operator spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            FpuOp::FAdd => "+f",
            FpuOp::FSub => "-f",
            FpuOp::FMul => "*f",
            FpuOp::FDiv => "/f",
        }
    }
}

/// Comparison conditions (integer and float variants share the code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cc {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cc {
    /// All conditions, in encoding order.
    pub const ALL: [Cc; 6] = [Cc::Eq, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];

    /// 3-bit encoding.
    pub fn code(self) -> u32 {
        match self {
            Cc::Eq => 0,
            Cc::Ne => 1,
            Cc::Lt => 2,
            Cc::Le => 3,
            Cc::Gt => 4,
            Cc::Ge => 5,
        }
    }

    /// Decode a 3-bit condition code.
    pub fn from_code(c: u32) -> Option<Cc> {
        Cc::ALL.get(c as usize).copied()
    }

    /// The complementary condition.
    pub fn negate(self) -> Cc {
        match self {
            Cc::Eq => Cc::Ne,
            Cc::Ne => Cc::Eq,
            Cc::Lt => Cc::Ge,
            Cc::Le => Cc::Gt,
            Cc::Gt => Cc::Le,
            Cc::Ge => Cc::Lt,
        }
    }

    /// Evaluate over signed 32-bit integers.
    pub fn eval_int(self, a: i32, b: i32) -> bool {
        match self {
            Cc::Eq => a == b,
            Cc::Ne => a != b,
            Cc::Lt => a < b,
            Cc::Le => a <= b,
            Cc::Gt => a > b,
            Cc::Ge => a >= b,
        }
    }

    /// Evaluate over floats.
    pub fn eval_float(self, a: f32, b: f32) -> bool {
        match self {
            Cc::Eq => a == b,
            Cc::Ne => a != b,
            Cc::Lt => a < b,
            Cc::Le => a <= b,
            Cc::Gt => a > b,
            Cc::Ge => a >= b,
        }
    }
}

impl fmt::Display for Cc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cc::Eq => "==",
            Cc::Ne => "!=",
            Cc::Lt => "<",
            Cc::Le => "<=",
            Cc::Gt => ">",
            Cc::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Second operand of a three-address instruction: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src2 {
    Reg(Reg),
    Imm(i32),
}

impl fmt::Display for Src2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src2::Reg(r) => write!(f, "{r}"),
            Src2::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// Unsigned byte (`B[...]` in the paper's RTLs).
    Byte,
    /// 32-bit word (`L[...]`).
    Word,
}

/// A machine instruction, fully resolved (no symbolic references).
///
/// The `br` field present on most variants is the branch-register field of
/// the branch-register machine; it must be 0 when targeting the baseline.
/// Baseline-only variants (`Bcc`, `Ba`, `Call`, `Jmpl`, `Cmp`, `FCmp`) and
/// branch-register-only variants (`Bcalc`, `CmpBr`, `FCmpBr`, `BMovB`,
/// `BMovR`, `BLoad`, `BStore`) are rejected by the encoder for the wrong
/// machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MInst {
    /// No operation (may still carry a `br` transfer on the BR machine).
    Nop { br: u8 },
    /// Stop the emulation; the exit value is read from `r[1]`.
    Halt,
    /// `rd = rs1 op src2`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        src2: Src2,
        br: u8,
    },
    /// `rd = imm << 11` (set the high 21 address bits). Carries no `br`
    /// field even on the BR machine (paper Figure 11, Format 2).
    Sethi { rd: Reg, imm: u32 },
    /// `rd = M[rs1 + off]` (byte loads zero-extend).
    Load {
        w: MemWidth,
        rd: Reg,
        rs1: Reg,
        off: i32,
        br: u8,
    },
    /// `fd = MF[rs1 + off]`.
    LoadF {
        fd: FReg,
        rs1: Reg,
        off: i32,
        br: u8,
    },
    /// `M[rs1 + off] = rs`.
    Store {
        w: MemWidth,
        rs: Reg,
        rs1: Reg,
        off: i32,
        br: u8,
    },
    /// `MF[rs1 + off] = fs`.
    StoreF {
        fs: FReg,
        rs1: Reg,
        off: i32,
        br: u8,
    },
    /// `fd = fs1 op fs2`.
    Fpu {
        op: FpuOp,
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
        br: u8,
    },
    /// `fd = -fs`.
    FNeg { fd: FReg, fs: FReg, br: u8 },
    /// `fd = fs`.
    FMov { fd: FReg, fs: FReg, br: u8 },
    /// `fd = float(rs)`.
    ItoF { fd: FReg, rs: Reg, br: u8 },
    /// `rd = int(fs)` (truncating).
    FtoI { rd: Reg, fs: FReg, br: u8 },

    // ---- baseline machine only ----
    /// `cc = rs1 ? src2` — set the integer condition codes.
    Cmp { rs1: Reg, src2: Src2 },
    /// `fcc = fs1 ? fs2` — set the float condition codes.
    FCmp { fs1: FReg, fs2: FReg },
    /// Delayed conditional branch on the (f)cc: `PC = cc -> pc + disp*4`.
    Bcc { cc: Cc, float: bool, disp: i32 },
    /// Delayed unconditional branch: `PC = pc + disp*4`.
    Ba { disp: i32 },
    /// Delayed call: `r[31] = pc + 8; PC = pc + disp*4`.
    Call { disp: i32 },
    /// Delayed indirect jump with link: `rd = pc + 8; PC = rs1 + off`.
    Jmpl { rd: Reg, rs1: Reg, off: i32 },

    // ---- branch-register machine only ----
    /// `b[bd] = pc + disp*4` — branch-target address calculation
    /// (prefetches the target into `i[bd]`).
    Bcalc { bd: BReg, disp: i32, br: u8 },
    /// `b[7] = rs1 cc src2 -> b[bt] | b[0]` — compare with assignment.
    CmpBr {
        cc: Cc,
        bt: BReg,
        rs1: Reg,
        src2: Src2,
        br: u8,
    },
    /// Float compare with assignment.
    FCmpBr {
        cc: Cc,
        bt: BReg,
        fs1: FReg,
        fs2: FReg,
        br: u8,
    },
    /// `b[bd] = b[bs]`.
    BMovB { bd: BReg, bs: BReg, br: u8 },
    /// `b[bd] = rs1 + off` — move a computed address into a branch
    /// register (used with `sethi` for far targets such as calls).
    BMovR {
        bd: BReg,
        rs1: Reg,
        off: i32,
        br: u8,
    },
    /// `b[bd] = L[rs1 + src2]` — load a branch target from memory
    /// (indirect jumps through switch tables; register restores).
    BLoad {
        bd: BReg,
        rs1: Reg,
        src2: Src2,
        br: u8,
    },
    /// `M[rs1 + off] = b[bs]` — spill a branch register.
    BStore {
        bs: BReg,
        rs1: Reg,
        off: i32,
        br: u8,
    },
}

impl MInst {
    /// The `br` field (0 for baseline-only instructions and `sethi`).
    pub fn br(self) -> u8 {
        match self {
            MInst::Nop { br }
            | MInst::Alu { br, .. }
            | MInst::Load { br, .. }
            | MInst::LoadF { br, .. }
            | MInst::Store { br, .. }
            | MInst::StoreF { br, .. }
            | MInst::Fpu { br, .. }
            | MInst::FNeg { br, .. }
            | MInst::FMov { br, .. }
            | MInst::ItoF { br, .. }
            | MInst::FtoI { br, .. }
            | MInst::Bcalc { br, .. }
            | MInst::CmpBr { br, .. }
            | MInst::FCmpBr { br, .. }
            | MInst::BMovB { br, .. }
            | MInst::BMovR { br, .. }
            | MInst::BLoad { br, .. }
            | MInst::BStore { br, .. } => br,
            _ => 0,
        }
    }

    /// Set the `br` field.
    ///
    /// # Panics
    ///
    /// Panics if the variant cannot carry a transfer (`sethi`, `halt`,
    /// and all baseline-only control flow).
    pub fn with_br(mut self, new_br: u8) -> MInst {
        match &mut self {
            MInst::Nop { br }
            | MInst::Alu { br, .. }
            | MInst::Load { br, .. }
            | MInst::LoadF { br, .. }
            | MInst::Store { br, .. }
            | MInst::StoreF { br, .. }
            | MInst::Fpu { br, .. }
            | MInst::FNeg { br, .. }
            | MInst::FMov { br, .. }
            | MInst::ItoF { br, .. }
            | MInst::FtoI { br, .. }
            | MInst::Bcalc { br, .. }
            | MInst::CmpBr { br, .. }
            | MInst::FCmpBr { br, .. }
            | MInst::BMovB { br, .. }
            | MInst::BMovR { br, .. }
            | MInst::BLoad { br, .. }
            | MInst::BStore { br, .. } => *br = new_br,
            other => panic!("{other:?} cannot carry a br field"),
        }
        self
    }

    /// Whether this variant can carry a `br` transfer on the BR machine.
    pub fn can_carry_br(self) -> bool {
        !matches!(
            self,
            MInst::Sethi { .. }
                | MInst::Halt
                | MInst::Cmp { .. }
                | MInst::FCmp { .. }
                | MInst::Bcc { .. }
                | MInst::Ba { .. }
                | MInst::Call { .. }
                | MInst::Jmpl { .. }
        )
    }

    /// Whether this instruction references data memory (the paper's
    /// "data memory references" metric counts exactly these).
    pub fn is_data_ref(self) -> bool {
        matches!(
            self,
            MInst::Load { .. }
                | MInst::LoadF { .. }
                | MInst::Store { .. }
                | MInst::StoreF { .. }
                | MInst::BLoad { .. }
                | MInst::BStore { .. }
        )
    }

    /// Whether this is a baseline control-transfer instruction.
    pub fn is_baseline_transfer(self) -> bool {
        matches!(
            self,
            MInst::Bcc { .. } | MInst::Ba { .. } | MInst::Call { .. } | MInst::Jmpl { .. }
        )
    }
}

impl fmt::Display for MInst {
    /// RTL notation closely following the paper's Figures 3 and 4.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show_br = |f: &mut fmt::Formatter<'_>, br: u8| -> fmt::Result {
            if br != 0 {
                write!(f, "; b[0]=b[{br}]")
            } else {
                Ok(())
            }
        };
        match self {
            MInst::Nop { br } => {
                write!(f, "NL=NL")?;
                show_br(f, *br)
            }
            MInst::Halt => write!(f, "halt"),
            MInst::Alu {
                op,
                rd,
                rs1,
                src2,
                br,
            } => {
                write!(f, "{rd}={rs1}{}{src2}", op.symbol())?;
                show_br(f, *br)
            }
            MInst::Sethi { rd, imm } => write!(f, "{rd}=HI({:#x})", imm << 11),
            MInst::Load {
                w,
                rd,
                rs1,
                off,
                br,
            } => {
                let m = match w {
                    MemWidth::Byte => "B",
                    MemWidth::Word => "L",
                };
                write!(f, "{rd}={m}[{rs1}+{off}]")?;
                show_br(f, *br)
            }
            MInst::LoadF { fd, rs1, off, br } => {
                write!(f, "{fd}=F[{rs1}+{off}]")?;
                show_br(f, *br)
            }
            MInst::Store {
                w,
                rs,
                rs1,
                off,
                br,
            } => {
                let m = match w {
                    MemWidth::Byte => "B",
                    MemWidth::Word => "L",
                };
                write!(f, "{m}[{rs1}+{off}]={rs}")?;
                show_br(f, *br)
            }
            MInst::StoreF { fs, rs1, off, br } => {
                write!(f, "F[{rs1}+{off}]={fs}")?;
                show_br(f, *br)
            }
            MInst::Fpu {
                op,
                fd,
                fs1,
                fs2,
                br,
            } => {
                write!(f, "{fd}={fs1}{}{fs2}", op.symbol())?;
                show_br(f, *br)
            }
            MInst::FNeg { fd, fs, br } => {
                write!(f, "{fd}=-{fs}")?;
                show_br(f, *br)
            }
            MInst::FMov { fd, fs, br } => {
                write!(f, "{fd}={fs}")?;
                show_br(f, *br)
            }
            MInst::ItoF { fd, rs, br } => {
                write!(f, "{fd}=float({rs})")?;
                show_br(f, *br)
            }
            MInst::FtoI { rd, fs, br } => {
                write!(f, "{rd}=int({fs})")?;
                show_br(f, *br)
            }
            MInst::Cmp { rs1, src2 } => write!(f, "cc={rs1}?{src2}"),
            MInst::FCmp { fs1, fs2 } => write!(f, "fcc={fs1}?{fs2}"),
            MInst::Bcc { cc, float, disp } => {
                let c = if *float { "fcc" } else { "cc" };
                write!(f, "PC={c}{cc}->pc{disp:+}w")
            }
            MInst::Ba { disp } => write!(f, "PC=pc{disp:+}w"),
            MInst::Call { disp } => write!(f, "r[31]=pc+8; PC=pc{disp:+}w"),
            MInst::Jmpl { rd, rs1, off } => write!(f, "{rd}=pc+8; PC={rs1}+{off}"),
            MInst::Bcalc { bd, disp, br } => {
                write!(f, "{bd}=pc{disp:+}w")?;
                show_br(f, *br)
            }
            MInst::CmpBr {
                cc,
                bt,
                rs1,
                src2,
                br,
            } => {
                write!(f, "b[7]={rs1}{cc}{src2}->{bt}|b[0]")?;
                show_br(f, *br)
            }
            MInst::FCmpBr {
                cc,
                bt,
                fs1,
                fs2,
                br,
            } => {
                write!(f, "b[7]={fs1}{cc}{fs2}->{bt}|b[0]")?;
                show_br(f, *br)
            }
            MInst::BMovB { bd, bs, br } => {
                write!(f, "{bd}={bs}")?;
                show_br(f, *br)
            }
            MInst::BMovR { bd, rs1, off, br } => {
                write!(f, "{bd}={rs1}+{off}")?;
                show_br(f, *br)
            }
            MInst::BLoad { bd, rs1, src2, br } => {
                write!(f, "{bd}=L[{rs1}+{src2}]")?;
                show_br(f, *br)
            }
            MInst::BStore { bs, rs1, off, br } => {
                write!(f, "L[{rs1}+{off}]={bs}")?;
                show_br(f, *br)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_code_roundtrip() {
        for c in Cc::ALL {
            assert_eq!(Cc::from_code(c.code()), Some(c));
        }
        assert_eq!(Cc::from_code(7), None);
    }

    #[test]
    fn cc_negate_complements() {
        for c in Cc::ALL {
            for (a, b) in [(1, 2), (2, 2), (3, 1)] {
                assert_ne!(c.eval_int(a, b), c.negate().eval_int(a, b));
            }
        }
    }

    #[test]
    fn br_field_accessors() {
        let i = MInst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            src2: Src2::Imm(3),
            br: 0,
        };
        assert_eq!(i.br(), 0);
        assert_eq!(i.with_br(5).br(), 5);
        assert!(i.can_carry_br());
        assert!(!MInst::Sethi { rd: Reg(1), imm: 0 }.can_carry_br());
        assert!(!MInst::Halt.can_carry_br());
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn sethi_rejects_br() {
        let _ = MInst::Sethi { rd: Reg(1), imm: 0 }.with_br(1);
    }

    #[test]
    fn data_reference_classification() {
        assert!(MInst::Load {
            w: MemWidth::Word,
            rd: Reg(1),
            rs1: Reg(2),
            off: 0,
            br: 0
        }
        .is_data_ref());
        assert!(MInst::BStore {
            bs: BReg(1),
            rs1: Reg(14),
            off: 4,
            br: 0
        }
        .is_data_ref());
        assert!(!MInst::Nop { br: 0 }.is_data_ref());
        assert!(!MInst::Bcalc {
            bd: BReg(1),
            disp: 2,
            br: 0
        }
        .is_data_ref());
    }

    #[test]
    fn every_variant_displays_nonempty_rtl() {
        let all = [
            MInst::Nop { br: 0 },
            MInst::Halt,
            MInst::Alu {
                op: AluOp::Sub,
                rd: Reg(1),
                rs1: Reg(2),
                src2: Src2::Reg(Reg(3)),
                br: 1,
            },
            MInst::Sethi { rd: Reg(4), imm: 7 },
            MInst::Load {
                w: MemWidth::Byte,
                rd: Reg(1),
                rs1: Reg(2),
                off: -4,
                br: 0,
            },
            MInst::LoadF {
                fd: FReg(1),
                rs1: Reg(2),
                off: 0,
                br: 0,
            },
            MInst::Store {
                w: MemWidth::Word,
                rs: Reg(1),
                rs1: Reg(2),
                off: 8,
                br: 0,
            },
            MInst::StoreF {
                fs: FReg(1),
                rs1: Reg(2),
                off: 8,
                br: 0,
            },
            MInst::Fpu {
                op: FpuOp::FMul,
                fd: FReg(1),
                fs1: FReg(2),
                fs2: FReg(3),
                br: 0,
            },
            MInst::FNeg {
                fd: FReg(1),
                fs: FReg(2),
                br: 0,
            },
            MInst::FMov {
                fd: FReg(1),
                fs: FReg(2),
                br: 0,
            },
            MInst::ItoF {
                fd: FReg(1),
                rs: Reg(2),
                br: 0,
            },
            MInst::FtoI {
                rd: Reg(1),
                fs: FReg(2),
                br: 0,
            },
            MInst::Cmp {
                rs1: Reg(1),
                src2: Src2::Imm(0),
            },
            MInst::FCmp {
                fs1: FReg(1),
                fs2: FReg(2),
            },
            MInst::Bcc {
                cc: Cc::Ne,
                float: false,
                disp: 4,
            },
            MInst::Ba { disp: -4 },
            MInst::Call { disp: 100 },
            MInst::Jmpl {
                rd: Reg(0),
                rs1: Reg(31),
                off: 0,
            },
            MInst::Bcalc {
                bd: BReg(2),
                disp: 6,
                br: 0,
            },
            MInst::CmpBr {
                cc: Cc::Lt,
                bt: BReg(2),
                rs1: Reg(5),
                src2: Src2::Imm(0),
                br: 0,
            },
            MInst::FCmpBr {
                cc: Cc::Gt,
                bt: BReg(2),
                fs1: FReg(1),
                fs2: FReg(2),
                br: 0,
            },
            MInst::BMovB {
                bd: BReg(1),
                bs: BReg(7),
                br: 0,
            },
            MInst::BMovR {
                bd: BReg(3),
                rs1: Reg(13),
                off: 16,
                br: 0,
            },
            MInst::BLoad {
                bd: BReg(3),
                rs1: Reg(1),
                src2: Src2::Reg(Reg(2)),
                br: 0,
            },
            MInst::BStore {
                bs: BReg(1),
                rs1: Reg(14),
                off: 4,
                br: 0,
            },
        ];
        for i in all {
            let s = i.to_string();
            assert!(!s.is_empty(), "{i:?}");
            // Transfers render the paper's `b[0]=b[n]` notation.
            if i.br() != 0 {
                assert!(s.contains("b[0]=b["), "{s}");
            }
        }
    }

    #[test]
    fn rtl_display_matches_paper_flavor() {
        let add = MInst::Alu {
            op: AluOp::Add,
            rd: Reg(2),
            rs1: Reg(2),
            src2: Src2::Imm(1),
            br: 0,
        };
        assert_eq!(add.to_string(), "r[2]=r[2]+1");
        let jump = MInst::Nop { br: 2 };
        assert_eq!(jump.to_string(), "NL=NL; b[0]=b[2]");
        let cmp = MInst::CmpBr {
            cc: Cc::Ne,
            bt: BReg(2),
            rs1: Reg(0),
            src2: Src2::Imm(0),
            br: 0,
        };
        assert_eq!(cmp.to_string(), "b[7]=r[0]!=0->b[2]|b[0]");
    }
}
