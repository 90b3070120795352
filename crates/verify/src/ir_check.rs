//! Checker 1: IR validation before instruction selection.
//!
//! Establishes that the IR entering the backend is structurally sound
//! (so later stages may index blocks and vregs without checking), that
//! the CFG edges derived from terminators are symmetric, that every
//! operand's register class matches its instruction, and — via the same
//! liveness analysis the allocator uses — that no virtual register can
//! be read before it is written on any path from the entry.

use br_ir::{BinOp, Cfg, Function, Inst, Liveness, Operand, RegClass, UnOp, VReg, Width};

use crate::VerifyError;

/// Validate one IR function. See the module docs for the invariant list.
pub fn check_ir(f: &Function) -> Result<(), VerifyError> {
    // Structural soundness first: everything below indexes blocks and
    // reads terminators, which panics on malformed functions.
    f.validate().map_err(|detail| VerifyError::Structural {
        func: f.name.clone(),
        detail,
    })?;
    check_vreg_bounds(f)?;
    let cfg = Cfg::new(f);
    check_edges(f, &cfg)?;
    check_classes(f)?;
    check_def_before_use(f, &cfg)
}

/// Every referenced vreg has a class entry.
fn check_vreg_bounds(f: &Function) -> Result<(), VerifyError> {
    let n = f.num_vregs() as u32;
    let mut uses = Vec::new();
    for (id, b) in f.iter_blocks() {
        for (i, inst) in b.insts.iter().enumerate() {
            uses.clear();
            inst.uses(&mut uses);
            if let Some(d) = inst.def() {
                uses.push(d);
            }
            if let Some(v) = uses.iter().find(|v| v.0 >= n) {
                return Err(VerifyError::Structural {
                    func: f.name.clone(),
                    detail: format!("{id}:{i}: v{} out of range ({n} vregs)", v.0),
                });
            }
        }
    }
    for &(v, _) in &f.params {
        if v.0 >= n {
            return Err(VerifyError::Structural {
                func: f.name.clone(),
                detail: format!("param v{} out of range ({n} vregs)", v.0),
            });
        }
    }
    Ok(())
}

/// CFG successor/predecessor symmetry against the terminators, plus the
/// "nothing branches to the entry" convention (the frontend emits a
/// dedicated header block for every loop, so the entry is never a branch
/// target; selection and hoisting rely on this when placing preheaders).
fn check_edges(f: &Function, cfg: &Cfg) -> Result<(), VerifyError> {
    for (id, b) in f.iter_blocks() {
        let succs = b.term().successors();
        if cfg.succs(id) != succs.as_slice() {
            return Err(VerifyError::EdgeMismatch {
                func: f.name.clone(),
                block: id.0,
                detail: format!(
                    "CFG successors {:?} disagree with terminator successors {succs:?}",
                    cfg.succs(id)
                ),
            });
        }
        for s in succs {
            if !cfg.preds(s).contains(&id) {
                return Err(VerifyError::EdgeMismatch {
                    func: f.name.clone(),
                    block: id.0,
                    detail: format!("edge to {s} missing from its predecessor list"),
                });
            }
        }
    }
    if !cfg.preds(f.entry()).is_empty() {
        return Err(VerifyError::EdgeMismatch {
            func: f.name.clone(),
            block: f.entry().0,
            detail: format!("entry block has predecessors {:?}", cfg.preds(f.entry())),
        });
    }
    Ok(())
}

/// Class of a constant or register operand.
fn operand_class(f: &Function, o: &Operand) -> RegClass {
    match o {
        Operand::Reg(v) => f.class_of(*v),
        Operand::Const(_) => RegClass::Int,
        Operand::FConst(_) => RegClass::Float,
    }
}

/// Operand/`RegClass` agreement for every instruction.
fn check_classes(f: &Function) -> Result<(), VerifyError> {
    for (id, b) in f.iter_blocks() {
        for (i, inst) in b.insts.iter().enumerate() {
            let expect = |what: &str, o: &Operand, want: RegClass| {
                let got = operand_class(f, o);
                if got == want {
                    Ok(())
                } else {
                    Err(VerifyError::ClassMismatch {
                        func: f.name.clone(),
                        block: id.0,
                        inst: i,
                        detail: format!("{what} `{o}` is {got:?}, expected {want:?}"),
                    })
                }
            };
            match inst {
                Inst::Bin { op, dst, a, b } => {
                    let want = if op.is_float() {
                        RegClass::Float
                    } else {
                        RegClass::Int
                    };
                    expect("operand", a, want)?;
                    expect("operand", b, want)?;
                    expect("destination", &Operand::Reg(*dst), want)?;
                    // Shifts and divisions never operate on floats and
                    // vice versa; `is_float` already partitions BinOp,
                    // so nothing further to check here.
                    let _ = matches!(op, BinOp::Add);
                }
                Inst::Un { op, dst, a } => {
                    let want = match op {
                        UnOp::Neg | UnOp::Not => RegClass::Int,
                        UnOp::FNeg => RegClass::Float,
                    };
                    expect("operand", a, want)?;
                    expect("destination", &Operand::Reg(*dst), want)?;
                }
                Inst::Copy { dst, a } => {
                    expect("source", a, f.class_of(*dst))?;
                }
                Inst::Cast { kind, dst, a } => {
                    let (src, dstc) = match kind {
                        br_ir::CastKind::IntToFloat => (RegClass::Int, RegClass::Float),
                        br_ir::CastKind::FloatToInt => (RegClass::Float, RegClass::Int),
                    };
                    expect("operand", a, src)?;
                    expect("destination", &Operand::Reg(*dst), dstc)?;
                }
                Inst::Load {
                    dst, base, width, ..
                } => {
                    expect("base address", base, RegClass::Int)?;
                    let want = match width {
                        Width::Float => RegClass::Float,
                        _ => RegClass::Int,
                    };
                    expect("destination", &Operand::Reg(*dst), want)?;
                }
                Inst::Store { a, base, width, .. } => {
                    expect("base address", base, RegClass::Int)?;
                    let want = match width {
                        Width::Float => RegClass::Float,
                        _ => RegClass::Int,
                    };
                    expect("stored value", a, want)?;
                }
                Inst::AddrOf { dst, .. } | Inst::FrameAddr { dst, .. } => {
                    expect("destination", &Operand::Reg(*dst), RegClass::Int)?;
                }
                Inst::Branch { a, b, float, .. } => {
                    let want = if *float {
                        RegClass::Float
                    } else {
                        RegClass::Int
                    };
                    expect("compared operand", a, want)?;
                    expect("compared operand", b, want)?;
                }
                Inst::Switch { idx, .. } => {
                    expect("switch index", idx, RegClass::Int)?;
                }
                // Calls and returns mix classes according to the callee
                // signature, which the IR does not carry per-operand;
                // the frontend's type checker owns those.
                Inst::Call { .. } | Inst::Jump(_) | Inst::Ret(_) => {}
            }
        }
    }
    Ok(())
}

/// Def-before-use on all paths.
///
/// Primary check: nothing but the parameters may be live into the entry
/// block — anything else is a register with a path from entry to a use
/// that crosses no definition. On failure, a forward must-defined pass
/// locates one offending (block, instruction, vreg) triple for the
/// report.
fn check_def_before_use(f: &Function, cfg: &Cfg) -> Result<(), VerifyError> {
    let live = Liveness::new(f, cfg);
    let entry_live = live.live_in(f.entry());
    if entry_live
        .iter()
        .all(|v| f.params.iter().any(|&(p, _)| p == v))
    {
        return Ok(());
    }
    Err(locate_use_before_def(f, cfg, &live))
}

/// Forward "must be defined" dataflow to pinpoint one use-before-def.
/// `in[b] = ∩ out[preds]`, entry seeded with the parameters; within a
/// block, uses are checked against the running set before the
/// instruction's own def is added.
fn locate_use_before_def(f: &Function, cfg: &Cfg, live: &Liveness) -> VerifyError {
    let nv = f.num_vregs();
    let nb = f.blocks.len();
    // `None` = not yet computed (top).
    let mut out: Vec<Option<Vec<bool>>> = vec![None; nb];
    let mut entry = vec![false; nv];
    for &(p, _) in &f.params {
        entry[p.0 as usize] = true;
    }

    let transfer = |mut defined: Vec<bool>, b: br_ir::BlockId| -> Vec<bool> {
        for inst in &f.blocks[b.0 as usize].insts {
            if let Some(d) = inst.def() {
                defined[d.0 as usize] = true;
            }
        }
        defined
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo() {
            let mut inn = if b == f.entry() {
                entry.clone()
            } else {
                let mut acc: Option<Vec<bool>> = None;
                for &p in cfg.preds(b) {
                    if let Some(po) = &out[p.0 as usize] {
                        match &mut acc {
                            None => acc = Some(po.clone()),
                            Some(a) => {
                                for (x, y) in a.iter_mut().zip(po) {
                                    *x &= *y;
                                }
                            }
                        }
                    }
                }
                acc.unwrap_or_else(|| vec![true; nv])
            };
            inn = transfer(inn, b);
            if out[b.0 as usize].as_ref() != Some(&inn) {
                out[b.0 as usize] = Some(inn);
                changed = true;
            }
        }
    }

    // Converged: scan reachable blocks for the first read of a vreg not
    // in the must-defined set at that point.
    let mut uses = Vec::new();
    for &b in cfg.rpo() {
        let mut defined = if b == f.entry() {
            entry.clone()
        } else {
            let mut acc: Option<Vec<bool>> = None;
            for &p in cfg.preds(b) {
                if let Some(po) = &out[p.0 as usize] {
                    match &mut acc {
                        None => acc = Some(po.clone()),
                        Some(a) => {
                            for (x, y) in a.iter_mut().zip(po) {
                                *x &= *y;
                            }
                        }
                    }
                }
            }
            acc.unwrap_or_else(|| vec![true; nv])
        };
        for (i, inst) in f.blocks[b.0 as usize].insts.iter().enumerate() {
            uses.clear();
            inst.uses(&mut uses);
            if let Some(v) = uses.iter().find(|v| !defined[v.0 as usize]) {
                return VerifyError::UseBeforeDef {
                    func: f.name.clone(),
                    block: b.0,
                    inst: i,
                    vreg: v.0,
                };
            }
            if let Some(d) = inst.def() {
                defined[d.0 as usize] = true;
            }
        }
    }
    // Liveness said something escapes the entry but the path-sensitive
    // locator found every use covered: the live-in register can only be
    // dead code the backward analysis over-approximated. Report it
    // conservatively against the entry block.
    let v = live
        .live_in(f.entry())
        .iter()
        .find(|v| !f.params.iter().any(|&(p, _)| p == *v))
        .unwrap_or(VReg(0));
    VerifyError::UseBeforeDef {
        func: f.name.clone(),
        block: f.entry().0,
        inst: 0,
        vreg: v.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{Block, BlockId, Cond, Ty};

    fn func(blocks: Vec<Block>, vregs: Vec<RegClass>) -> Function {
        Function {
            name: "t".into(),
            ret_ty: Ty::Int,
            params: vec![],
            blocks,
            vregs,
            slots: vec![],
        }
    }

    #[test]
    fn straight_line_function_is_clean() {
        let f = func(
            vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: VReg(0),
                        a: Operand::Const(3),
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(1),
                        a: Operand::Reg(VReg(0)),
                        b: Operand::Const(4),
                    },
                    Inst::Ret(Some(Operand::Reg(VReg(1)))),
                ],
            }],
            vec![RegClass::Int, RegClass::Int],
        );
        assert_eq!(check_ir(&f), Ok(()));
    }

    #[test]
    fn use_before_def_is_located() {
        // v0 is read in the then-branch but only defined in the else-
        // branch: live into the entry, so the checker must object and
        // point at the exact instruction.
        let f = func(
            vec![
                Block {
                    insts: vec![Inst::Branch {
                        cond: Cond::Eq,
                        a: Operand::Const(0),
                        b: Operand::Const(0),
                        float: false,
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    }],
                },
                Block {
                    insts: vec![Inst::Ret(Some(Operand::Reg(VReg(0))))],
                },
                Block {
                    insts: vec![
                        Inst::Copy {
                            dst: VReg(0),
                            a: Operand::Const(1),
                        },
                        Inst::Ret(Some(Operand::Reg(VReg(0)))),
                    ],
                },
            ],
            vec![RegClass::Int],
        );
        assert_eq!(
            check_ir(&f),
            Err(VerifyError::UseBeforeDef {
                func: "t".into(),
                block: 1,
                inst: 0,
                vreg: 0,
            })
        );
    }

    #[test]
    fn defs_on_all_paths_are_accepted() {
        // Same diamond, but both arms define v0 before the join reads it.
        let f = func(
            vec![
                Block {
                    insts: vec![Inst::Branch {
                        cond: Cond::Eq,
                        a: Operand::Const(0),
                        b: Operand::Const(0),
                        float: false,
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    }],
                },
                Block {
                    insts: vec![
                        Inst::Copy {
                            dst: VReg(0),
                            a: Operand::Const(1),
                        },
                        Inst::Jump(BlockId(3)),
                    ],
                },
                Block {
                    insts: vec![
                        Inst::Copy {
                            dst: VReg(0),
                            a: Operand::Const(2),
                        },
                        Inst::Jump(BlockId(3)),
                    ],
                },
                Block {
                    insts: vec![Inst::Ret(Some(Operand::Reg(VReg(0))))],
                },
            ],
            vec![RegClass::Int],
        );
        assert_eq!(check_ir(&f), Ok(()));
    }

    #[test]
    fn class_mismatch_is_reported() {
        let f = func(
            vec![Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::FAdd,
                        dst: VReg(0),
                        a: Operand::FConst(1.0),
                        b: Operand::FConst(2.0),
                    },
                    Inst::Ret(Some(Operand::Const(0))),
                ],
            }],
            vec![RegClass::Int], // float op writing an int vreg
        );
        assert!(matches!(
            check_ir(&f),
            Err(VerifyError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn structural_breakage_is_reported() {
        let f = func(
            vec![Block {
                insts: vec![Inst::Jump(BlockId(7))], // missing block
            }],
            vec![],
        );
        assert!(matches!(check_ir(&f), Err(VerifyError::Structural { .. })));
    }

    #[test]
    fn vreg_out_of_range_is_structural() {
        let f = func(
            vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: VReg(5),
                        a: Operand::Const(0),
                    },
                    Inst::Ret(None),
                ],
            }],
            vec![RegClass::Int], // only v0 declared
        );
        assert!(matches!(check_ir(&f), Err(VerifyError::Structural { .. })));
    }
}
