//! Conventional IR optimizations.
//!
//! The paper's compiler applies "conventional optimizations of code
//! motion and common subexpression elimination" before the branch-
//! register transformations. This module provides the equivalent
//! cleanups our front end relies on: block-local copy propagation,
//! global dead-code elimination, constant branch folding, and jump
//! threading (which removes the empty join blocks structured lowering
//! creates, exactly the transfers the paper's counts assume are gone).

use std::collections::HashMap;

use crate::cfg::Cfg;
use crate::inst::{BlockId, Inst, Operand, VReg};
use crate::module::{Function, Module};

/// Run all passes on every function of `module` until a fixed point.
pub fn optimize_module(module: &mut Module) {
    for f in &mut module.functions {
        if !f.blocks.is_empty() {
            optimize(f);
        }
    }
}

/// Run all passes on one function.
pub fn optimize(f: &mut Function) {
    for _ in 0..8 {
        let mut changed = false;
        changed |= copy_propagate(f);
        changed |= fold_branches(f);
        changed |= thread_jumps(f);
        changed |= eliminate_dead_code(f);
        if !changed {
            break;
        }
    }
}

/// Rewrite register uses through `map` (one level; the map itself is
/// kept transitively resolved as it is built).
fn rewrite_uses(inst: &mut Inst, map: &HashMap<VReg, Operand>) -> bool {
    let mut changed = false;
    let mut fix = |o: &mut Operand| {
        if let Operand::Reg(v) = o {
            if let Some(rep) = map.get(v) {
                *o = *rep;
                changed = true;
            }
        }
    };
    match inst {
        Inst::Bin { a, b, .. } => {
            fix(a);
            fix(b);
        }
        Inst::Un { a, .. } | Inst::Copy { a, .. } | Inst::Cast { a, .. } => fix(a),
        Inst::Load { base, .. } => fix(base),
        Inst::Store { a, base, .. } => {
            fix(a);
            fix(base);
        }
        Inst::Call { args, .. } => args.iter_mut().for_each(fix),
        Inst::Branch { a, b, .. } => {
            fix(a);
            fix(b);
        }
        Inst::Switch { idx, .. } => fix(idx),
        Inst::Ret(Some(a)) => fix(a),
        _ => {}
    }
    changed
}

/// Block-local copy propagation: after `y = x`, uses of `y` become `x`
/// until either is redefined.
pub fn copy_propagate(f: &mut Function) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        let mut map: HashMap<VReg, Operand> = HashMap::new();
        for inst in &mut b.insts {
            changed |= rewrite_uses(inst, &map);
            if let Some(d) = inst.def() {
                // Defining d invalidates d as a key and as a value.
                map.remove(&d);
                map.retain(|_, v| *v != Operand::Reg(d));
                if let Inst::Copy { dst, a } = inst {
                    if *a != Operand::Reg(*dst) {
                        map.insert(*dst, *a);
                    }
                }
            }
        }
    }
    changed
}

/// Fold branches with constant conditions or identical targets into
/// unconditional jumps.
pub fn fold_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        let Some(last) = b.insts.last_mut() else {
            continue;
        };
        if let Inst::Branch {
            cond,
            a,
            b: rhs,
            float,
            then_bb,
            else_bb,
        } = last
        {
            if then_bb == else_bb {
                *last = Inst::Jump(*then_bb);
                changed = true;
            } else if !*float {
                if let (Operand::Const(x), Operand::Const(y)) = (*a, *rhs) {
                    let t = if cond.eval_int(x, y) {
                        *then_bb
                    } else {
                        *else_bb
                    };
                    *last = Inst::Jump(t);
                    changed = true;
                }
            }
        }
    }
    changed
}

/// Redirect branches that target a block containing only `jump T` to
/// `T` directly, removing a dynamic transfer of control.
pub fn thread_jumps(f: &mut Function) -> bool {
    // Final target of each trivial jump block (with cycle protection).
    let trivial: Vec<Option<BlockId>> = f
        .blocks
        .iter()
        .map(|b| match b.insts.as_slice() {
            [Inst::Jump(t)] => Some(*t),
            _ => None,
        })
        .collect();
    let nblocks = f.blocks.len();
    let resolve = move |mut t: BlockId| -> BlockId {
        let mut hops = 0;
        while let Some(next) = trivial[t.0 as usize] {
            if next == t || hops > nblocks {
                break;
            }
            t = next;
            hops += 1;
        }
        t
    };
    let mut changed = false;
    for b in &mut f.blocks {
        let Some(last) = b.insts.last_mut() else {
            continue;
        };
        let mut fix = |t: &mut BlockId| {
            let r = resolve(*t);
            if r != *t {
                *t = r;
                changed = true;
            }
        };
        match last {
            Inst::Jump(t) => fix(t),
            Inst::Branch {
                then_bb, else_bb, ..
            } => {
                fix(then_bb);
                fix(else_bb);
            }
            Inst::Switch {
                targets, default, ..
            } => {
                targets.iter_mut().for_each(&mut fix);
                fix(default);
            }
            _ => {}
        }
    }
    changed
}

/// Remove side-effect-free instructions whose results are never used.
pub fn eliminate_dead_code(f: &mut Function) -> bool {
    let cfg = Cfg::new(f);
    let mut changed = false;
    loop {
        let mut used = vec![false; f.num_vregs()];
        let mut buf = Vec::new();
        for b in &f.blocks {
            for inst in &b.insts {
                buf.clear();
                inst.uses(&mut buf);
                for u in &buf {
                    used[u.0 as usize] = true;
                }
            }
        }
        let mut removed = false;
        for (id, b) in f.blocks.iter_mut().enumerate() {
            let reachable = cfg.is_reachable(BlockId(id as u32));
            let before = b.insts.len();
            b.insts.retain(|inst| {
                if inst.is_terminator() {
                    return true;
                }
                // Unreachable block bodies can go entirely.
                if !reachable {
                    return false;
                }
                match inst {
                    Inst::Store { .. } | Inst::Call { .. } => true,
                    other => match other.def() {
                        Some(d) => used[d.0 as usize],
                        None => true,
                    },
                }
            });
            removed |= b.insts.len() != before;
        }
        changed |= removed;
        if !removed {
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{BinOp, Cond, RegClass};
    use crate::types::Ty;

    #[test]
    fn copies_propagate_and_die() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![Ty::Int]);
        let x = b.param(0);
        let y = b.new_vreg(RegClass::Int);
        b.push(Inst::Copy {
            dst: y,
            a: Operand::Reg(x),
        });
        let z = b.bin(
            BinOp::Add,
            RegClass::Int,
            Operand::Reg(y),
            Operand::Const(1),
        );
        b.terminate(Inst::Ret(Some(Operand::Reg(z))));
        let mut f = b.finish();
        optimize(&mut f);
        // The copy is gone and the add reads the parameter directly.
        assert_eq!(f.blocks[0].insts.len(), 2);
        match &f.blocks[0].insts[0] {
            Inst::Bin { a, .. } => assert_eq!(*a, Operand::Reg(x)),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn copy_chain_resolves_transitively() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![Ty::Int]);
        let x = b.param(0);
        let y = b.new_vreg(RegClass::Int);
        let z = b.new_vreg(RegClass::Int);
        b.push(Inst::Copy {
            dst: y,
            a: Operand::Reg(x),
        });
        b.push(Inst::Copy {
            dst: z,
            a: Operand::Reg(y),
        });
        b.terminate(Inst::Ret(Some(Operand::Reg(z))));
        let mut f = b.finish();
        optimize(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert_eq!(*f.blocks[0].term(), Inst::Ret(Some(Operand::Reg(x))));
    }

    #[test]
    fn redefinition_invalidates_copies() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![Ty::Int]);
        let x = b.param(0);
        let y = b.new_vreg(RegClass::Int);
        b.push(Inst::Copy {
            dst: y,
            a: Operand::Reg(x),
        });
        // Redefine x: y must NOT be replaced by x afterwards.
        b.push(Inst::Bin {
            op: BinOp::Add,
            dst: x,
            a: Operand::Reg(x),
            b: Operand::Const(5),
        });
        let z = b.bin(
            BinOp::Add,
            RegClass::Int,
            Operand::Reg(y),
            Operand::Const(1),
        );
        b.terminate(Inst::Ret(Some(Operand::Reg(z))));
        let mut f = b.finish();
        let src = f.clone();
        optimize(&mut f);
        // Semantics check via the interpreter on both versions.
        let mut m1 = Module::new();
        m1.add_function(src);
        let mut m2 = Module::new();
        m2.add_function(f);
        let r1 = crate::interp::Interpreter::new(&m1).run("f", &[7]).unwrap();
        let r2 = crate::interp::Interpreter::new(&m2).run("f", &[7]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, 8); // y = old x = 7; z = 8
    }

    #[test]
    fn jump_threading_skips_trivial_blocks() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![]);
        let hop = b.new_block();
        let end = b.new_block();
        b.terminate(Inst::Jump(hop));
        b.switch_to(hop);
        b.terminate(Inst::Jump(end));
        b.switch_to(end);
        b.terminate(Inst::Ret(Some(Operand::Const(1))));
        let mut f = b.finish();
        optimize(&mut f);
        assert_eq!(*f.blocks[0].term(), Inst::Jump(end));
    }

    #[test]
    fn constant_branches_fold() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![]);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Inst::Branch {
            cond: Cond::Lt,
            a: Operand::Const(1),
            b: Operand::Const(2),
            float: false,
            then_bb: t,
            else_bb: e,
        });
        b.switch_to(t);
        b.terminate(Inst::Ret(Some(Operand::Const(10))));
        b.switch_to(e);
        b.terminate(Inst::Ret(Some(Operand::Const(20))));
        let mut f = b.finish();
        optimize(&mut f);
        assert_eq!(*f.blocks[0].term(), Inst::Jump(t));
    }

    #[test]
    fn dead_loads_are_removed_but_stores_kept() {
        let mut b = FuncBuilder::new("f", Ty::Int, vec![Ty::Int.ptr_to()]);
        let p = b.param(0);
        let dead = b.new_vreg(RegClass::Int);
        b.push(Inst::Load {
            dst: dead,
            base: Operand::Reg(p),
            off: 0,
            width: crate::inst::Width::Word,
        });
        b.push(Inst::Store {
            a: Operand::Const(5),
            base: Operand::Reg(p),
            off: 0,
            width: crate::inst::Width::Word,
        });
        b.terminate(Inst::Ret(Some(Operand::Const(0))));
        let mut f = b.finish();
        optimize(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 2); // store + ret
        assert!(matches!(f.blocks[0].insts[0], Inst::Store { .. }));
    }

    #[test]
    fn self_jump_does_not_hang_threading() {
        let mut b = FuncBuilder::new("f", Ty::Void, vec![]);
        let l = b.new_block();
        b.terminate(Inst::Jump(l));
        b.switch_to(l);
        b.terminate(Inst::Jump(l));
        let mut f = b.finish();
        optimize(&mut f); // must terminate
        assert_eq!(*f.blocks[0].term(), Inst::Jump(l));
    }
}
