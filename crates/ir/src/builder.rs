//! Incremental construction of IR functions.

use crate::inst::{BinOp, BlockId, Inst, Operand, RegClass, VReg};
use crate::module::{Block, Function, SlotId, SlotInfo};
use crate::types::Ty;

/// Builds a [`Function`] block by block.
///
/// The builder maintains a *current block*; instructions are appended to it
/// until a terminator is pushed, after which a new current block must be
/// selected with [`FuncBuilder::switch_to`].
///
/// # Example
///
/// ```
/// use br_ir::{FuncBuilder, Inst, Operand, RegClass, Ty};
///
/// let mut b = FuncBuilder::new("id", Ty::Int, vec![Ty::Int]);
/// let arg = b.param(0);
/// b.terminate(Inst::Ret(Some(Operand::Reg(arg))));
/// let f = b.finish();
/// assert_eq!(f.params.len(), 1);
/// ```
#[derive(Debug)]
pub struct FuncBuilder {
    func: Function,
    current: BlockId,
    sealed: bool,
}

impl FuncBuilder {
    /// Start a new function with the given name, return type and parameter
    /// types. Parameter virtual registers are allocated automatically.
    pub fn new(name: &str, ret_ty: Ty, param_tys: Vec<Ty>) -> FuncBuilder {
        let mut func = Function {
            name: name.to_string(),
            ret_ty,
            params: Vec::new(),
            blocks: vec![Block::default()],
            vregs: Vec::new(),
            slots: Vec::new(),
        };
        for ty in param_tys {
            let class = if ty.is_float() {
                RegClass::Float
            } else {
                RegClass::Int
            };
            let v = func.new_vreg(class);
            func.params.push((v, ty));
        }
        FuncBuilder {
            func,
            current: BlockId(0),
            sealed: false,
        }
    }

    /// Virtual register of the `i`-th parameter.
    pub fn param(&self, i: usize) -> VReg {
        self.func.params[i].0
    }

    /// Allocate a fresh virtual register.
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        self.func.new_vreg(class)
    }

    /// Allocate a stack slot (for arrays and address-taken locals).
    pub fn new_slot(&mut self, size: usize, align: usize) -> SlotId {
        let id = SlotId(self.func.slots.len() as u32);
        self.func.slots.push(SlotInfo { size, align });
        id
    }

    /// Create a new, empty block and return its id (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::default());
        id
    }

    /// Make `block` the current insertion point.
    ///
    /// # Panics
    ///
    /// Panics if the block already has a terminator.
    pub fn switch_to(&mut self, block: BlockId) {
        let b = &self.func.blocks[block.0 as usize];
        assert!(
            b.insts.last().map(|i| !i.is_terminator()).unwrap_or(true),
            "switching to a terminated block"
        );
        self.current = block;
        self.sealed = false;
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Whether the current block has been terminated.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Append a non-terminator instruction to the current block.
    /// Silently dropped if the block is already sealed (unreachable code
    /// after `return`/`break` — matching C semantics).
    pub fn push(&mut self, inst: Inst) {
        assert!(!inst.is_terminator(), "use terminate() for terminators");
        if !self.sealed {
            self.func.blocks[self.current.0 as usize].insts.push(inst);
        }
    }

    /// Append a terminator to the current block and seal it.
    /// Dropped if the block is already sealed.
    pub fn terminate(&mut self, inst: Inst) {
        assert!(inst.is_terminator(), "terminate() requires a terminator");
        if !self.sealed {
            self.func.blocks[self.current.0 as usize].insts.push(inst);
            self.sealed = true;
        }
    }

    /// Convenience: emit `dst = a op b` into a fresh register.
    pub fn bin(&mut self, op: BinOp, class: RegClass, a: Operand, b: Operand) -> VReg {
        let dst = self.new_vreg(class);
        self.push(Inst::Bin { op, dst, a, b });
        dst
    }

    /// Materialise a comparison result as 0/1 in a fresh register via a
    /// branch diamond, leaving the builder positioned in the join block.
    ///
    /// The MiniC frontend lowers relational expressions through its own
    /// control-flow machinery, but non-MiniC producers (e.g. the RV32
    /// ingest translator's `slt`/`sltu` family) need a reusable entry
    /// point at the builder level.  Signed comparison only, mirroring
    /// [`crate::inst::Cond`]; callers encode unsigned compares by biasing
    /// both operands with `i32::MIN` first.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn cmp_set(&mut self, cond: crate::inst::Cond, a: Operand, b: Operand) -> VReg {
        assert!(!self.sealed, "cmp_set in a terminated block");
        let dst = self.new_vreg(RegClass::Int);
        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let join = self.new_block();
        self.terminate(Inst::Branch {
            cond,
            a,
            b,
            float: false,
            then_bb,
            else_bb,
        });
        self.switch_to(then_bb);
        self.push(Inst::Copy {
            dst,
            a: Operand::Const(1),
        });
        self.terminate(Inst::Jump(join));
        self.switch_to(else_bb);
        self.push(Inst::Copy {
            dst,
            a: Operand::Const(0),
        });
        self.terminate(Inst::Jump(join));
        self.switch_to(join);
        dst
    }

    /// Finish construction: seal any fall-through block with `ret` (void
    /// functions) and validate.
    ///
    /// # Panics
    ///
    /// Panics if the function fails validation.
    pub fn finish(mut self) -> Function {
        // Seal dangling blocks. A non-void function falling off the end
        // returns 0, mirroring (pre-C99) C's tolerance for missing returns.
        for b in &mut self.func.blocks {
            let needs_term = b.insts.last().map(|i| !i.is_terminator()).unwrap_or(true);
            if needs_term {
                let v = if self.func.ret_ty == Ty::Void {
                    None
                } else {
                    Some(Operand::Const(0))
                };
                b.insts.push(Inst::Ret(v));
            }
        }
        self.func.validate().expect("builder produced invalid IR");
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Cond;

    #[test]
    fn builds_a_diamond() {
        let mut b = FuncBuilder::new("max", Ty::Int, vec![Ty::Int, Ty::Int]);
        let (x, y) = (b.param(0), b.param(1));
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        let r = b.new_vreg(RegClass::Int);
        b.terminate(Inst::Branch {
            cond: Cond::Gt,
            a: Operand::Reg(x),
            b: Operand::Reg(y),
            float: false,
            then_bb,
            else_bb,
        });
        b.switch_to(then_bb);
        b.push(Inst::Copy {
            dst: r,
            a: Operand::Reg(x),
        });
        b.terminate(Inst::Jump(join));
        b.switch_to(else_bb);
        b.push(Inst::Copy {
            dst: r,
            a: Operand::Reg(y),
        });
        b.terminate(Inst::Jump(join));
        b.switch_to(join);
        b.terminate(Inst::Ret(Some(Operand::Reg(r))));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn unreachable_code_is_dropped() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![]);
        b.terminate(Inst::Ret(Some(Operand::Const(1))));
        b.push(Inst::Copy {
            dst: VReg(99),
            a: Operand::Const(0),
        });
        b.terminate(Inst::Ret(Some(Operand::Const(2))));
        let f = b.finish();
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn dangling_block_gets_implicit_return() {
        let mut b = FuncBuilder::new("f", Ty::Void, vec![]);
        let v = b.func.new_vreg(RegClass::Int);
        b.push(Inst::Copy {
            dst: v,
            a: Operand::Const(3),
        });
        let f = b.finish();
        assert_eq!(*f.blocks[0].term(), Inst::Ret(None));
    }

    #[test]
    fn param_registers_follow_types() {
        let b = FuncBuilder::new("f", Ty::Void, vec![Ty::Int, Ty::Float, Ty::Int.ptr_to()]);
        let f = &b.func;
        assert_eq!(f.class_of(f.params[0].0), RegClass::Int);
        assert_eq!(f.class_of(f.params[1].0), RegClass::Float);
        assert_eq!(f.class_of(f.params[2].0), RegClass::Int);
    }

    #[test]
    fn cmp_set_builds_a_materialised_diamond() {
        let mut b = FuncBuilder::new("lt", Ty::Int, vec![Ty::Int, Ty::Int]);
        let (x, y) = (b.param(0), b.param(1));
        let r = b.cmp_set(Cond::Lt, Operand::Reg(x), Operand::Reg(y));
        b.terminate(Inst::Ret(Some(Operand::Reg(r))));
        let f = b.finish();
        assert_eq!(f.validate(), Ok(()));
        // Diamond adds three blocks; the interpreter sees 0/1 results.
        assert_eq!(f.blocks.len(), 4);
        let mut m = crate::Module::new();
        m.add_function(f);
        let lt = crate::interp::Interpreter::new(&m)
            .run("lt", &[5, 9])
            .unwrap();
        let ge = crate::interp::Interpreter::new(&m)
            .run("lt", &[9, 5])
            .unwrap();
        assert_eq!((lt, ge), (1, 0));
    }

    #[test]
    fn slots_accumulate() {
        let mut b = FuncBuilder::new("f", Ty::Void, vec![]);
        let s0 = b.new_slot(40, 4);
        let s1 = b.new_slot(8, 1);
        assert_eq!(s0, SlotId(0));
        assert_eq!(s1, SlotId(1));
        assert_eq!(b.func.slots[1].size, 8);
    }
}
