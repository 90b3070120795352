//! A reference interpreter for the IR.
//!
//! Used for *differential testing*: every workload is executed three ways
//! (IR interpreter, baseline-machine emulator, branch-register-machine
//! emulator) and all three must produce the same result. Arithmetic is
//! 32-bit two's complement to match the emulated machines.

use std::collections::HashMap;
use std::fmt;

use crate::inst::{BinOp, BlockId, CastKind, Inst, Operand, UnOp, VReg, Width};
use crate::module::{Function, GlobalInit, Module, Symbol};

/// Errors raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Executed more instructions than the configured fuel budget.
    OutOfFuel,
    /// Call depth exceeded the limit (runaway recursion).
    StackOverflow,
    /// A memory access fell outside the address space.
    BadAddress(u32),
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Called an undefined function.
    UndefinedFunction(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel => write!(f, "interpreter ran out of fuel"),
            InterpError::StackOverflow => write!(f, "call depth limit exceeded"),
            InterpError::BadAddress(a) => write!(f, "bad memory address {a:#x}"),
            InterpError::DivideByZero => write!(f, "integer divide by zero"),
            InterpError::UndefinedFunction(n) => write!(f, "undefined function {n}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// A runtime value: a 32-bit integer/pointer or a 32-bit float.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    I(i32),
    F(f32),
}

impl Val {
    fn as_i(self) -> i32 {
        match self {
            Val::I(v) => v,
            Val::F(v) => v as i32,
        }
    }
    fn as_f(self) -> f32 {
        match self {
            Val::I(v) => v as f32,
            Val::F(v) => v,
        }
    }
}

/// Base address of the data segment (same as the emulator's, so address
/// arithmetic behaves identically in both executions).
pub const DATA_BASE: u32 = 0x0001_0000;
/// Total simulated memory.
pub const MEM_SIZE: u32 = 0x0080_0000;

/// IR interpreter over a module.
///
/// # Example
///
/// ```
/// use br_ir::{FuncBuilder, Inst, Interpreter, Module, Operand, Ty};
///
/// let mut m = Module::new();
/// let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
/// b.terminate(Inst::Ret(Some(Operand::Const(7))));
/// m.add_function(b.finish());
/// let mut interp = Interpreter::new(&m);
/// assert_eq!(interp.run("main", &[]).unwrap(), 7);
/// ```
pub struct Interpreter<'m> {
    module: &'m Module,
    mem: Vec<u8>,
    global_addr: HashMap<usize, u32>,
    sp: u32,
    fuel: u64,
    steps: u64,
    depth: u32,
}

const MAX_DEPTH: u32 = 512;

impl<'m> Interpreter<'m> {
    /// Create an interpreter with globals laid out and initialized.
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        let mut mem = vec![0u8; MEM_SIZE as usize];
        let mut global_addr = HashMap::new();
        let mut cur = DATA_BASE;
        for (i, g) in module.globals.iter().enumerate() {
            let align = g.ty.align().max(1) as u32;
            cur = (cur + align - 1) & !(align - 1);
            global_addr.insert(i, cur);
            match &g.init {
                GlobalInit::Zero => {}
                GlobalInit::Bytes(bs) => {
                    mem[cur as usize..cur as usize + bs.len()].copy_from_slice(bs);
                }
                GlobalInit::Words(ws) => {
                    for (j, w) in ws.iter().enumerate() {
                        let a = cur as usize + j * 4;
                        mem[a..a + 4].copy_from_slice(&w.to_le_bytes());
                    }
                }
            }
            cur += g.size() as u32;
        }
        Interpreter {
            module,
            mem,
            global_addr,
            sp: MEM_SIZE - 16,
            fuel: 2_000_000_000,
            steps: 0,
            depth: 0,
        }
    }

    /// Limit the number of IR instructions executed.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Number of IR instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Address of a global by symbol name (for inspecting results).
    pub fn global_address(&self, name: &str) -> Option<u32> {
        let id = self.module.lookup(name)?;
        match self.module.symbol(id) {
            Symbol::Global(i) => self.global_addr.get(i).copied(),
            _ => None,
        }
    }

    /// Read a 32-bit word from simulated memory.
    pub fn read_word(&self, addr: u32) -> Result<i32, InterpError> {
        let a = addr as usize;
        if a + 4 > self.mem.len() {
            return Err(InterpError::BadAddress(addr));
        }
        Ok(i32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
    }

    /// Run the named function with integer arguments; returns its value
    /// (0 for void functions).
    ///
    /// # Errors
    ///
    /// Any [`InterpError`] raised during execution.
    pub fn run(&mut self, name: &str, args: &[i32]) -> Result<i32, InterpError> {
        let f = self
            .module
            .function(name)
            .ok_or_else(|| InterpError::UndefinedFunction(name.to_string()))?;
        let vals: Vec<Val> = args.iter().map(|&a| Val::I(a)).collect();
        Ok(self.call(f, &vals)?.map(Val::as_i).unwrap_or(0))
    }

    fn call(&mut self, f: &'m Function, args: &[Val]) -> Result<Option<Val>, InterpError> {
        if self.depth >= MAX_DEPTH {
            return Err(InterpError::StackOverflow);
        }
        self.depth += 1;
        // Allocate frame slots.
        let saved_sp = self.sp;
        let mut slot_addr = Vec::with_capacity(f.slots.len());
        for s in &f.slots {
            let align = s.align.max(1) as u32;
            self.sp = (self.sp - s.size as u32) & !(align - 1);
            slot_addr.push(self.sp);
        }
        let mut regs: Vec<Val> = f
            .vregs
            .iter()
            .map(|c| match c {
                crate::inst::RegClass::Int => Val::I(0),
                crate::inst::RegClass::Float => Val::F(0.0),
            })
            .collect();
        for (i, (v, _)) in f.params.iter().enumerate() {
            regs[v.0 as usize] = args.get(i).copied().unwrap_or(Val::I(0));
        }

        let mut bb = f.entry();
        let result = 'outer: loop {
            let block = f.block(bb);
            for inst in &block.insts {
                self.steps += 1;
                if self.steps > self.fuel {
                    self.depth -= 1;
                    self.sp = saved_sp;
                    return Err(InterpError::OutOfFuel);
                }
                match self.exec(f, inst, &mut regs, &slot_addr)? {
                    Flow::Continue => {}
                    Flow::Goto(next) => {
                        bb = next;
                        continue 'outer;
                    }
                    Flow::Return(v) => break 'outer v,
                }
            }
            unreachable!("block without terminator");
        };
        self.sp = saved_sp;
        self.depth -= 1;
        Ok(result)
    }

    fn operand(&self, regs: &[Val], o: &Operand) -> Val {
        match o {
            Operand::Reg(v) => regs[v.0 as usize],
            Operand::Const(c) => Val::I(*c as i32),
            Operand::FConst(c) => Val::F(*c),
        }
    }

    fn exec(
        &mut self,
        f: &'m Function,
        inst: &Inst,
        regs: &mut Vec<Val>,
        slot_addr: &[u32],
    ) -> Result<Flow, InterpError> {
        let set = |regs: &mut Vec<Val>, d: VReg, v: Val| regs[d.0 as usize] = v;
        match inst {
            Inst::Bin { op, dst, a, b } => {
                let va = self.operand(regs, a);
                let vb = self.operand(regs, b);
                let r = bin_eval(*op, va, vb)?;
                set(regs, *dst, r);
            }
            Inst::Un { op, dst, a } => {
                let va = self.operand(regs, a);
                let r = match op {
                    UnOp::Neg => Val::I(va.as_i().wrapping_neg()),
                    UnOp::Not => Val::I(!va.as_i()),
                    UnOp::FNeg => Val::F(-va.as_f()),
                };
                set(regs, *dst, r);
            }
            Inst::Copy { dst, a } => {
                let v = self.operand(regs, a);
                set(regs, *dst, v);
            }
            Inst::Cast { kind, dst, a } => {
                let va = self.operand(regs, a);
                let r = match kind {
                    CastKind::IntToFloat => Val::F(va.as_i() as f32),
                    CastKind::FloatToInt => Val::I(va.as_f() as i32),
                };
                set(regs, *dst, r);
            }
            Inst::Load {
                dst,
                base,
                off,
                width,
            } => {
                let addr = (self.operand(regs, base).as_i() as u32).wrapping_add(*off as u32);
                let v = self.load(addr, *width)?;
                set(regs, *dst, v);
            }
            Inst::Store {
                a,
                base,
                off,
                width,
            } => {
                let addr = (self.operand(regs, base).as_i() as u32).wrapping_add(*off as u32);
                let v = self.operand(regs, a);
                self.store(addr, v, *width)?;
            }
            Inst::AddrOf { dst, sym, off } => {
                let base = match self.module.symbol(*sym) {
                    Symbol::Global(i) => *self.global_addr.get(i).unwrap(),
                    Symbol::Func(_) => 0, // function addresses are not data
                };
                set(regs, *dst, Val::I(base.wrapping_add(*off as u32) as i32));
            }
            Inst::FrameAddr { dst, slot, off } => {
                let base = slot_addr[slot.0 as usize];
                set(regs, *dst, Val::I(base.wrapping_add(*off as u32) as i32));
            }
            Inst::Call { dst, func, args } => {
                let callee = match self.module.symbol(*func) {
                    Symbol::Func(i) => &self.module.functions[*i],
                    Symbol::Global(_) => {
                        return Err(InterpError::UndefinedFunction(
                            self.module.symbol_name(*func).to_string(),
                        ))
                    }
                };
                if callee.blocks.is_empty() {
                    return Err(InterpError::UndefinedFunction(callee.name.clone()));
                }
                let vals: Vec<Val> = args.iter().map(|a| self.operand(regs, a)).collect();
                let r = self.call(callee, &vals)?;
                if let Some(d) = dst {
                    set(regs, *d, r.unwrap_or(Val::I(0)));
                }
            }
            Inst::Jump(t) => return Ok(Flow::Goto(*t)),
            Inst::Branch {
                cond,
                a,
                b,
                float,
                then_bb,
                else_bb,
            } => {
                let va = self.operand(regs, a);
                let vb = self.operand(regs, b);
                let taken = if *float {
                    cond.eval_float(va.as_f(), vb.as_f())
                } else {
                    cond.eval_int(va.as_i() as i64, vb.as_i() as i64)
                };
                return Ok(Flow::Goto(if taken { *then_bb } else { *else_bb }));
            }
            Inst::Switch {
                idx,
                base,
                targets,
                default,
            } => {
                let v = self.operand(regs, idx).as_i() as i64 - base;
                let t = if v >= 0 && (v as usize) < targets.len() {
                    targets[v as usize]
                } else {
                    *default
                };
                return Ok(Flow::Goto(t));
            }
            Inst::Ret(v) => {
                let r = v.as_ref().map(|o| self.operand(regs, o));
                // Coerce to the declared return class so float functions
                // returning int constants behave like the machines.
                let r = match (r, &f.ret_ty) {
                    (Some(v), t) if t.is_float() => Some(Val::F(v.as_f())),
                    other => other.0,
                };
                return Ok(Flow::Return(r));
            }
        }
        Ok(Flow::Continue)
    }

    fn load(&self, addr: u32, width: Width) -> Result<Val, InterpError> {
        let a = addr as usize;
        match width {
            Width::Byte => self
                .mem
                .get(a)
                .map(|&b| Val::I(b as i32))
                .ok_or(InterpError::BadAddress(addr)),
            Width::Word => Ok(Val::I(self.read_word(addr)?)),
            Width::Float => Ok(Val::F(f32::from_bits(self.read_word(addr)? as u32))),
        }
    }

    fn store(&mut self, addr: u32, v: Val, width: Width) -> Result<(), InterpError> {
        let a = addr as usize;
        match width {
            Width::Byte => {
                *self.mem.get_mut(a).ok_or(InterpError::BadAddress(addr))? = v.as_i() as u8;
            }
            Width::Word | Width::Float => {
                if a + 4 > self.mem.len() {
                    return Err(InterpError::BadAddress(addr));
                }
                let bits = match (width, v) {
                    (Width::Float, v) => v.as_f().to_bits(),
                    (_, v) => v.as_i() as u32,
                };
                self.mem[a..a + 4].copy_from_slice(&bits.to_le_bytes());
            }
        }
        Ok(())
    }
}

enum Flow {
    Continue,
    Goto(BlockId),
    Return(Option<Val>),
}

fn bin_eval(op: BinOp, a: Val, b: Val) -> Result<Val, InterpError> {
    let r = match op {
        BinOp::Add => Val::I(a.as_i().wrapping_add(b.as_i())),
        BinOp::Sub => Val::I(a.as_i().wrapping_sub(b.as_i())),
        BinOp::Mul => Val::I(a.as_i().wrapping_mul(b.as_i())),
        BinOp::Div => {
            if b.as_i() == 0 {
                return Err(InterpError::DivideByZero);
            }
            Val::I(a.as_i().wrapping_div(b.as_i()))
        }
        BinOp::Rem => {
            if b.as_i() == 0 {
                return Err(InterpError::DivideByZero);
            }
            Val::I(a.as_i().wrapping_rem(b.as_i()))
        }
        BinOp::And => Val::I(a.as_i() & b.as_i()),
        BinOp::Or => Val::I(a.as_i() | b.as_i()),
        BinOp::Xor => Val::I(a.as_i() ^ b.as_i()),
        BinOp::Shl => Val::I(a.as_i().wrapping_shl(b.as_i() as u32 & 31)),
        BinOp::Shr => Val::I(((a.as_i() as u32) >> (b.as_i() as u32 & 31)) as i32),
        BinOp::Sar => Val::I(a.as_i() >> (b.as_i() as u32 & 31)),
        BinOp::FAdd => Val::F(a.as_f() + b.as_f()),
        BinOp::FSub => Val::F(a.as_f() - b.as_f()),
        BinOp::FMul => Val::F(a.as_f() * b.as_f()),
        BinOp::FDiv => Val::F(a.as_f() / b.as_f()),
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{Cond, RegClass};
    use crate::module::{Global, GlobalInit};
    use crate::types::Ty;

    fn module_with_main(build: impl FnOnce(&mut Module) -> Function) -> Module {
        let mut m = Module::new();
        let f = build(&mut m);
        m.add_function(f);
        m
    }

    #[test]
    fn returns_constant() {
        let m = module_with_main(|_| {
            let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
            b.terminate(Inst::Ret(Some(Operand::Const(42))));
            b.finish()
        });
        assert_eq!(Interpreter::new(&m).run("main", &[]).unwrap(), 42);
    }

    #[test]
    fn loop_sums_to_n() {
        // sum 0..10
        let m = module_with_main(|_| {
            let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
            let i = b.new_vreg(RegClass::Int);
            let s = b.new_vreg(RegClass::Int);
            b.push(Inst::Copy {
                dst: i,
                a: Operand::Const(0),
            });
            b.push(Inst::Copy {
                dst: s,
                a: Operand::Const(0),
            });
            let hdr = b.new_block();
            let body = b.new_block();
            let done = b.new_block();
            b.terminate(Inst::Jump(hdr));
            b.switch_to(hdr);
            b.terminate(Inst::Branch {
                cond: Cond::Lt,
                a: Operand::Reg(i),
                b: Operand::Const(10),
                float: false,
                then_bb: body,
                else_bb: done,
            });
            b.switch_to(body);
            b.push(Inst::Bin {
                op: BinOp::Add,
                dst: s,
                a: Operand::Reg(s),
                b: Operand::Reg(i),
            });
            b.push(Inst::Bin {
                op: BinOp::Add,
                dst: i,
                a: Operand::Reg(i),
                b: Operand::Const(1),
            });
            b.terminate(Inst::Jump(hdr));
            b.switch_to(done);
            b.terminate(Inst::Ret(Some(Operand::Reg(s))));
            b.finish()
        });
        assert_eq!(Interpreter::new(&m).run("main", &[]).unwrap(), 45);
    }

    #[test]
    fn recursion_and_calls() {
        // fact(6) = 720
        let mut m = Module::new();
        let fid = m.declare_function("fact", Ty::Int, vec![Ty::Int]);
        let mut b = FuncBuilder::new("fact", Ty::Int, vec![Ty::Int]);
        let n = b.param(0);
        let rec = b.new_block();
        let basecase = b.new_block();
        b.terminate(Inst::Branch {
            cond: Cond::Le,
            a: Operand::Reg(n),
            b: Operand::Const(1),
            float: false,
            then_bb: basecase,
            else_bb: rec,
        });
        b.switch_to(basecase);
        b.terminate(Inst::Ret(Some(Operand::Const(1))));
        b.switch_to(rec);
        let nm1 = b.bin(
            BinOp::Sub,
            RegClass::Int,
            Operand::Reg(n),
            Operand::Const(1),
        );
        let r = b.new_vreg(RegClass::Int);
        b.push(Inst::Call {
            dst: Some(r),
            func: fid,
            args: vec![Operand::Reg(nm1)],
        });
        let prod = b.bin(BinOp::Mul, RegClass::Int, Operand::Reg(n), Operand::Reg(r));
        b.terminate(Inst::Ret(Some(Operand::Reg(prod))));
        m.define_function(fid, b.finish());
        assert_eq!(Interpreter::new(&m).run("fact", &[6]).unwrap(), 720);
    }

    #[test]
    fn globals_load_store() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "g".into(),
            ty: Ty::Array(Box::new(Ty::Int), 4),
            init: GlobalInit::Words(vec![10, 20, 30, 40]),
        });
        let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
        let p = b.new_vreg(RegClass::Int);
        b.push(Inst::AddrOf {
            dst: p,
            sym: g,
            off: 0,
        });
        let v = b.new_vreg(RegClass::Int);
        b.push(Inst::Load {
            dst: v,
            base: Operand::Reg(p),
            off: 8,
            width: Width::Word,
        });
        b.push(Inst::Store {
            a: Operand::Reg(v),
            base: Operand::Reg(p),
            off: 0,
            width: Width::Word,
        });
        let v2 = b.new_vreg(RegClass::Int);
        b.push(Inst::Load {
            dst: v2,
            base: Operand::Reg(p),
            off: 0,
            width: Width::Word,
        });
        b.terminate(Inst::Ret(Some(Operand::Reg(v2))));
        m.add_function(b.finish());
        assert_eq!(Interpreter::new(&m).run("main", &[]).unwrap(), 30);
    }

    #[test]
    fn frame_slots_are_independent_across_recursion() {
        // f(n): int a[1]; a[0] = n; if n == 0 return 0; return f(n-1) + a[0];
        let mut m = Module::new();
        let fid = m.declare_function("f", Ty::Int, vec![Ty::Int]);
        let mut b = FuncBuilder::new("f", Ty::Int, vec![Ty::Int]);
        let n = b.param(0);
        let slot = b.new_slot(4, 4);
        let p = b.new_vreg(RegClass::Int);
        b.push(Inst::FrameAddr {
            dst: p,
            slot,
            off: 0,
        });
        b.push(Inst::Store {
            a: Operand::Reg(n),
            base: Operand::Reg(p),
            off: 0,
            width: Width::Word,
        });
        let base = b.new_block();
        let rec = b.new_block();
        b.terminate(Inst::Branch {
            cond: Cond::Eq,
            a: Operand::Reg(n),
            b: Operand::Const(0),
            float: false,
            then_bb: base,
            else_bb: rec,
        });
        b.switch_to(base);
        b.terminate(Inst::Ret(Some(Operand::Const(0))));
        b.switch_to(rec);
        let nm1 = b.bin(
            BinOp::Sub,
            RegClass::Int,
            Operand::Reg(n),
            Operand::Const(1),
        );
        let r = b.new_vreg(RegClass::Int);
        b.push(Inst::Call {
            dst: Some(r),
            func: fid,
            args: vec![Operand::Reg(nm1)],
        });
        let saved = b.new_vreg(RegClass::Int);
        b.push(Inst::Load {
            dst: saved,
            base: Operand::Reg(p),
            off: 0,
            width: Width::Word,
        });
        let sum = b.bin(
            BinOp::Add,
            RegClass::Int,
            Operand::Reg(r),
            Operand::Reg(saved),
        );
        b.terminate(Inst::Ret(Some(Operand::Reg(sum))));
        m.define_function(fid, b.finish());
        // 1+2+..+5 = 15
        assert_eq!(Interpreter::new(&m).run("f", &[5]).unwrap(), 15);
    }

    #[test]
    fn float_arithmetic() {
        let m = module_with_main(|_| {
            let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
            let x = b.new_vreg(RegClass::Float);
            b.push(Inst::Bin {
                op: BinOp::FMul,
                dst: x,
                a: Operand::FConst(1.5),
                b: Operand::FConst(4.0),
            });
            let i = b.new_vreg(RegClass::Int);
            b.push(Inst::Cast {
                kind: CastKind::FloatToInt,
                dst: i,
                a: Operand::Reg(x),
            });
            b.terminate(Inst::Ret(Some(Operand::Reg(i))));
            b.finish()
        });
        assert_eq!(Interpreter::new(&m).run("main", &[]).unwrap(), 6);
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let m = module_with_main(|_| {
            let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
            let v = b.bin(
                BinOp::Div,
                RegClass::Int,
                Operand::Const(1),
                Operand::Const(0),
            );
            b.terminate(Inst::Ret(Some(Operand::Reg(v))));
            b.finish()
        });
        assert_eq!(
            Interpreter::new(&m).run("main", &[]),
            Err(InterpError::DivideByZero)
        );
    }

    #[test]
    fn fuel_limit_catches_infinite_loops() {
        let m = module_with_main(|_| {
            let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
            let l = b.new_block();
            b.terminate(Inst::Jump(l));
            b.switch_to(l);
            b.terminate(Inst::Jump(l));
            b.finish()
        });
        let mut i = Interpreter::new(&m).with_fuel(1000);
        assert_eq!(i.run("main", &[]), Err(InterpError::OutOfFuel));
    }

    #[test]
    fn switch_dispatches_and_defaults() {
        let m = module_with_main(|_| {
            let mut b = FuncBuilder::new("main", Ty::Int, vec![Ty::Int]);
            let x = b.param(0);
            let c0 = b.new_block();
            let c1 = b.new_block();
            let d = b.new_block();
            b.terminate(Inst::Switch {
                idx: Operand::Reg(x),
                base: 5,
                targets: vec![c0, c1],
                default: d,
            });
            b.switch_to(c0);
            b.terminate(Inst::Ret(Some(Operand::Const(100))));
            b.switch_to(c1);
            b.terminate(Inst::Ret(Some(Operand::Const(200))));
            b.switch_to(d);
            b.terminate(Inst::Ret(Some(Operand::Const(-1))));
            b.finish()
        });
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("main", &[5]).unwrap(), 100);
        assert_eq!(i.run("main", &[6]).unwrap(), 200);
        assert_eq!(i.run("main", &[7]).unwrap(), -1);
        assert_eq!(i.run("main", &[0]).unwrap(), -1);
    }

    #[test]
    fn byte_loads_are_unsigned() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "g".into(),
            ty: Ty::Array(Box::new(Ty::Char), 1),
            init: GlobalInit::Bytes(vec![0xFF]),
        });
        let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
        let p = b.new_vreg(RegClass::Int);
        b.push(Inst::AddrOf {
            dst: p,
            sym: g,
            off: 0,
        });
        let v = b.new_vreg(RegClass::Int);
        b.push(Inst::Load {
            dst: v,
            base: Operand::Reg(p),
            off: 0,
            width: Width::Byte,
        });
        b.terminate(Inst::Ret(Some(Operand::Reg(v))));
        m.add_function(b.finish());
        assert_eq!(Interpreter::new(&m).run("main", &[]).unwrap(), 255);
    }
}
