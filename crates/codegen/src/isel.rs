//! Instruction selection: `br-ir` → virtual machine code ([`VFunc`]).
//!
//! Selection is target-parametric only where the calling convention
//! matters (argument-overflow accounting); the instruction set seen here
//! is the common core of both machines. Control flow stays abstract
//! ([`VTerm`]) until finalization, which is where the two machines
//! genuinely diverge.

use std::collections::HashMap;

use br_ir::{BinOp, CastKind, Cond, Function, Inst, Module, Operand, RegClass, UnOp, Width};
use br_isa::{AluOp, Cc, FpuOp, MemWidth};

use crate::error::CodegenError;
use crate::target::TargetSpec;
use crate::vcode::{FrameRef, VBlock, VFunc, VInst, VSrc, VTerm, VR};

/// Pool of float constants materialized as anonymous globals (the
/// machines have no float immediates).
#[derive(Debug, Default)]
pub struct ConstPool {
    by_bits: HashMap<u32, String>,
}

impl ConstPool {
    /// Create an empty pool.
    pub fn new() -> ConstPool {
        ConstPool::default()
    }

    /// Symbol name holding the 32-bit pattern of `v`.
    pub fn float(&mut self, v: f32) -> String {
        let bits = v.to_bits();
        let n = self.by_bits.len();
        self.by_bits
            .entry(bits)
            .or_insert_with(|| format!("__fc{n}"))
            .clone()
    }

    /// Drain into `(name, bits)` pairs for the data segment.
    pub fn into_items(self) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> = self
            .by_bits
            .into_iter()
            .map(|(bits, name)| (name, bits))
            .collect();
        v.sort();
        v
    }
}

/// Map an IR condition to a machine condition code.
pub fn cond_to_cc(c: Cond) -> Cc {
    match c {
        Cond::Eq => Cc::Eq,
        Cond::Ne => Cc::Ne,
        Cond::Lt => Cc::Lt,
        Cond::Le => Cc::Le,
        Cond::Gt => Cc::Gt,
        Cond::Ge => Cc::Ge,
    }
}

/// Select instructions for `func`.
///
/// Fails with [`CodegenError::UnterminatedBlock`] when the incoming IR
/// has a block without a terminator; downstream passes rely on every
/// vcode block being terminated.
pub fn select(
    module: &Module,
    func: &Function,
    _target: &TargetSpec,
    pool: &mut ConstPool,
) -> Result<VFunc, CodegenError> {
    let mut vf = VFunc {
        name: func.name.clone(),
        blocks: (0..func.blocks.len()).map(|_| VBlock::default()).collect(),
        classes: func.vregs.clone(),
        params: func
            .params
            .iter()
            .map(|(v, t)| (v.0, t.is_float()))
            .collect(),
        slots: func.slots.iter().map(|s| (s.size, s.align)).collect(),
        num_spills: 0,
        spilled_params: Vec::new(),
        max_out_args: 0,
        has_call: false,
    };

    for (bid, block) in func.iter_blocks() {
        let mut out = VBlock::default();
        for inst in &block.insts {
            sel_inst(module, func, inst, &mut vf, &mut out, pool);
        }
        vf.blocks[bid.0 as usize] = out;
    }
    vf.has_call = vf
        .blocks
        .iter()
        .any(|b| b.insts.iter().any(|i| i.is_call()));
    for (bi, b) in vf.blocks.iter().enumerate() {
        if b.term.is_none() {
            return Err(CodegenError::UnterminatedBlock {
                func: func.name.clone(),
                block: bi as u32,
            });
        }
    }
    Ok(vf)
}

/// Force an IR operand into a vreg of the right class.
fn as_vr(o: &Operand, float: bool, vf: &mut VFunc, out: &mut VBlock, pool: &mut ConstPool) -> VR {
    match o {
        Operand::Reg(v) => v.0,
        Operand::Const(c) => {
            if float {
                return as_vr(&Operand::FConst(*c as f32), true, vf, out, pool);
            }
            let t = vf.new_vreg(RegClass::Int);
            out.insts.push(VInst::Li {
                dst: t,
                val: *c as i32,
            });
            t
        }
        Operand::FConst(c) => {
            let addr = vf.new_vreg(RegClass::Int);
            let t = vf.new_vreg(RegClass::Float);
            out.insts.push(VInst::La {
                dst: addr,
                sym: pool.float(*c),
            });
            out.insts.push(VInst::LoadF {
                dst: t,
                base: addr,
                off: 0,
            });
            t
        }
    }
}

/// IR operand → VSrc (immediates stay symbolic; emission fixes ranges).
fn as_vsrc(o: &Operand, vf: &mut VFunc, out: &mut VBlock, pool: &mut ConstPool) -> VSrc {
    match o {
        Operand::Reg(v) => VSrc::V(v.0),
        Operand::Const(c) => VSrc::Imm(*c as i32),
        Operand::FConst(_) => VSrc::V(as_vr(o, true, vf, out, pool)),
    }
}

fn width_mem(w: Width) -> MemWidth {
    match w {
        Width::Byte => MemWidth::Byte,
        Width::Word | Width::Float => MemWidth::Word,
    }
}

fn sel_inst(
    module: &Module,
    func: &Function,
    inst: &Inst,
    vf: &mut VFunc,
    out: &mut VBlock,
    pool: &mut ConstPool,
) {
    match inst {
        Inst::Bin { op, dst, a, b } => sel_bin(*op, dst.0, a, b, vf, out, pool),
        Inst::Un { op, dst, a } => match op {
            UnOp::Neg => {
                let zero = vf.new_vreg(RegClass::Int);
                out.insts.push(VInst::Li { dst: zero, val: 0 });
                let av = as_vr(a, false, vf, out, pool);
                out.insts.push(VInst::Alu {
                    op: AluOp::Sub,
                    dst: dst.0,
                    a: zero,
                    b: VSrc::V(av),
                });
            }
            UnOp::Not => {
                let av = as_vr(a, false, vf, out, pool);
                out.insts.push(VInst::Alu {
                    op: AluOp::Xor,
                    dst: dst.0,
                    a: av,
                    b: VSrc::Imm(-1),
                });
            }
            UnOp::FNeg => {
                let av = as_vr(a, true, vf, out, pool);
                out.insts.push(VInst::FNeg {
                    dst: dst.0,
                    src: av,
                });
            }
        },
        Inst::Copy { dst, a } => {
            let float = func.class_of(*dst) == RegClass::Float;
            match (a, float) {
                (Operand::Const(c), false) => out.insts.push(VInst::Li {
                    dst: dst.0,
                    val: *c as i32,
                }),
                (Operand::Reg(s), false) => out.insts.push(VInst::Mov {
                    dst: dst.0,
                    src: s.0,
                }),
                (Operand::Reg(s), true) => out.insts.push(VInst::FMov {
                    dst: dst.0,
                    src: s.0,
                }),
                (other, _) => {
                    let v = as_vr(other, float, vf, out, pool);
                    out.insts.push(if float {
                        VInst::FMov { dst: dst.0, src: v }
                    } else {
                        VInst::Mov { dst: dst.0, src: v }
                    });
                }
            }
        }
        Inst::Cast { kind, dst, a } => match kind {
            CastKind::IntToFloat => {
                let av = as_vr(a, false, vf, out, pool);
                out.insts.push(VInst::ItoF {
                    dst: dst.0,
                    src: av,
                });
            }
            CastKind::FloatToInt => {
                let av = as_vr(a, true, vf, out, pool);
                out.insts.push(VInst::FtoI {
                    dst: dst.0,
                    src: av,
                });
            }
        },
        Inst::Load {
            dst,
            base,
            off,
            width,
        } => {
            let b = as_vr(base, false, vf, out, pool);
            match width {
                Width::Float => out.insts.push(VInst::LoadF {
                    dst: dst.0,
                    base: b,
                    off: *off,
                }),
                w => out.insts.push(VInst::Load {
                    w: width_mem(*w),
                    dst: dst.0,
                    base: b,
                    off: *off,
                }),
            }
        }
        Inst::Store {
            a,
            base,
            off,
            width,
        } => {
            let b = as_vr(base, false, vf, out, pool);
            match width {
                Width::Float => {
                    let s = as_vr(a, true, vf, out, pool);
                    out.insts.push(VInst::StoreF {
                        src: s,
                        base: b,
                        off: *off,
                    });
                }
                w => {
                    let s = as_vr(a, false, vf, out, pool);
                    out.insts.push(VInst::Store {
                        w: width_mem(*w),
                        src: s,
                        base: b,
                        off: *off,
                    });
                }
            }
        }
        Inst::AddrOf { dst, sym, off } => {
            let name = module.symbol_name(*sym).to_string();
            if *off == 0 {
                out.insts.push(VInst::La {
                    dst: dst.0,
                    sym: name,
                });
            } else {
                let t = vf.new_vreg(RegClass::Int);
                out.insts.push(VInst::La { dst: t, sym: name });
                out.insts.push(VInst::Alu {
                    op: AluOp::Add,
                    dst: dst.0,
                    a: t,
                    b: VSrc::Imm(*off),
                });
            }
        }
        Inst::FrameAddr { dst, slot, off } => out.insts.push(VInst::FrameAddr {
            dst: dst.0,
            fref: FrameRef::Slot(slot.0),
            off: *off,
        }),
        Inst::Call { dst, func: f, args } => {
            let name = module.symbol_name(*f).to_string();
            let mut avs = Vec::with_capacity(args.len());
            for a in args {
                let float = matches!(a, Operand::FConst(_))
                    || matches!(a, Operand::Reg(v) if func.class_of(*v) == RegClass::Float);
                avs.push(as_vr(a, float, vf, out, pool));
            }
            out.insts.push(VInst::Call {
                func: name,
                args: avs,
                dst: dst.map(|d| d.0),
            });
        }
        Inst::Jump(t) => out.term = Some(VTerm::Jump(*t)),
        Inst::Branch {
            cond,
            a,
            b,
            float,
            then_bb,
            else_bb,
        } => {
            let av = as_vr(a, *float, vf, out, pool);
            let bv = if *float {
                VSrc::V(as_vr(b, true, vf, out, pool))
            } else {
                as_vsrc(b, vf, out, pool)
            };
            out.term = Some(VTerm::Branch {
                cc: cond_to_cc(*cond),
                float: *float,
                a: av,
                b: bv,
                then_bb: *then_bb,
                else_bb: *else_bb,
            });
        }
        Inst::Switch {
            idx,
            base,
            targets,
            default,
        } => {
            let iv = as_vr(idx, false, vf, out, pool);
            out.term = Some(VTerm::Switch {
                idx: iv,
                base: *base as i32,
                targets: targets.clone(),
                default: *default,
            });
        }
        Inst::Ret(v) => {
            let rv = v.as_ref().map(|o| {
                let float = matches!(o, Operand::FConst(_))
                    || matches!(o, Operand::Reg(r) if func.class_of(*r) == RegClass::Float);
                if float {
                    (VSrc::V(as_vr(o, true, vf, out, pool)), true)
                } else {
                    (as_vsrc(o, vf, out, pool), false)
                }
            });
            out.term = Some(VTerm::Ret(rv));
        }
    }
}

fn sel_bin(
    op: BinOp,
    dst: VR,
    a: &Operand,
    b: &Operand,
    vf: &mut VFunc,
    out: &mut VBlock,
    pool: &mut ConstPool,
) {
    if op.is_float() {
        let fop = match op {
            BinOp::FAdd => FpuOp::FAdd,
            BinOp::FSub => FpuOp::FSub,
            BinOp::FMul => FpuOp::FMul,
            BinOp::FDiv => FpuOp::FDiv,
            _ => unreachable!(),
        };
        let av = as_vr(a, true, vf, out, pool);
        let bv = as_vr(b, true, vf, out, pool);
        out.insts.push(VInst::Fpu {
            op: fop,
            dst,
            a: av,
            b: bv,
        });
        return;
    }
    let mut aop = match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        BinOp::Shl => AluOp::Sll,
        BinOp::Shr => AluOp::Srl,
        BinOp::Sar => AluOp::Sra,
        _ => unreachable!(),
    };
    let (mut a, mut b) = (*a, *b);
    // Commutative ops: put a constant on the right.
    let commutative = matches!(
        aop,
        AluOp::Add | AluOp::Mul | AluOp::And | AluOp::Or | AluOp::Xor
    );
    if commutative && a.is_const() && !b.is_const() {
        std::mem::swap(&mut a, &mut b);
    }
    // Strength reduction: multiply/divide by a power of two (a classic
    // 1990 optimization; keeps the BR machine's shorter immediates honest).
    if let Operand::Const(c) = b {
        let c32 = c as i32;
        if c32 > 0 && (c32 & (c32 - 1)) == 0 {
            let shift = c32.trailing_zeros() as i64;
            match aop {
                AluOp::Mul => {
                    aop = AluOp::Sll;
                    b = Operand::Const(shift);
                }
                AluOp::Div => {
                    // Only safe for non-negative dividends in general; we
                    // keep Div for correctness (MiniC ints are signed).
                }
                _ => {}
            }
        }
    }
    let av = as_vr(&a, false, vf, out, pool);
    let bv = as_vsrc(&b, vf, out, pool);
    out.insts.push(VInst::Alu {
        op: aop,
        dst,
        a: av,
        b: bv,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_frontend::compile;
    use br_isa::Machine;

    fn select_fn(src: &str, name: &str) -> VFunc {
        let m = compile(src).unwrap();
        let f = m.function(name).unwrap();
        let t = TargetSpec::for_machine(Machine::Baseline);
        let mut pool = ConstPool::new();
        select(&m, f, &t, &mut pool).unwrap()
    }

    #[test]
    fn selects_simple_arith() {
        let vf = select_fn("int f(int a, int b) { return a + b * 2; }", "f");
        // mul-by-2 strength-reduced to a shift.
        let has_shift = vf.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, VInst::Alu { op: AluOp::Sll, .. }))
        });
        assert!(has_shift, "expected strength reduction:\n{vf}");
        let has_mul = vf.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, VInst::Alu { op: AluOp::Mul, .. }))
        });
        assert!(!has_mul);
    }

    #[test]
    fn call_detection_and_params() {
        let vf = select_fn(
            "int g(int x) { return x; } int f(int a) { return g(a) + 1; }",
            "f",
        );
        assert!(vf.has_call);
        assert_eq!(vf.params.len(), 1);
    }

    #[test]
    fn float_constants_go_through_pool() {
        let m = compile("float f() { return 2.5; }").unwrap();
        let f = m.function("f").unwrap();
        let t = TargetSpec::for_machine(Machine::Baseline);
        let mut pool = ConstPool::new();
        let vf = select(&m, f, &t, &mut pool).unwrap();
        let items = pool.into_items();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1, 2.5f32.to_bits());
        let has_loadf = vf
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, VInst::LoadF { .. })));
        assert!(has_loadf);
    }

    #[test]
    fn const_pool_dedups() {
        let mut pool = ConstPool::new();
        let a = pool.float(1.5);
        let b = pool.float(1.5);
        let c = pool.float(2.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.into_items().len(), 2);
    }

    #[test]
    fn branch_terminator_selected() {
        let vf = select_fn("int f(int a) { if (a > 3) return 1; return 0; }", "f");
        let has_branch = vf
            .blocks
            .iter()
            .any(|b| matches!(b.term, Some(VTerm::Branch { cc: Cc::Gt, .. })));
        assert!(has_branch, "{vf}");
    }

    #[test]
    fn blocks_match_ir_blocks() {
        let src = "int f(int a) { int s = 0; while (a > 0) { s += a; a--; } return s; }";
        let m = compile(src).unwrap();
        let f = m.function("f").unwrap();
        let t = TargetSpec::for_machine(Machine::Baseline);
        let mut pool = ConstPool::new();
        let vf = select(&m, f, &t, &mut pool).unwrap();
        assert_eq!(vf.blocks.len(), f.blocks.len());
        for (ib, vb) in f.blocks.iter().zip(&vf.blocks) {
            assert_eq!(ib.term().successors().len(), vb.term().successors().len());
        }
    }
}
