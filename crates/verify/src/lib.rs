//! `br-verify` — stage-by-stage static checkers for the compilation
//! pipeline.
//!
//! The differential torture oracle (`br-torture`) catches miscompiles
//! end-to-end but localizes them poorly: a wrong exit value says nothing
//! about *which* pass broke *which* invariant. This crate pins each
//! invariant to the stage that must establish it, via three
//! independently-runnable checkers:
//!
//! 1. [`check_ir`] — CFG well-formedness, def-before-use on all paths
//!    (reusing `br_ir::Liveness`), and operand/[`br_ir::RegClass`]
//!    agreement on the IR entering instruction selection.
//! 2. [`check_regalloc`] — a symbolic replay of the register
//!    allocation: every physical register holds the virtual register
//!    the allocator promised, spill slots are written before they are
//!    read, and caller-saved state is never read across a call.
//! 3. [`check_asm`] — the branch-register protocol lint on emitted
//!    code: every branch register is defined on all paths before a
//!    transfer reads it, compare/carrier pairing is respected, hoisted
//!    branch registers are not clobbered inside the loops they serve,
//!    and every instruction encodes for its machine (immediate and
//!    displacement ranges included). On the baseline machine it checks
//!    delay-slot discipline instead of the branch-register protocol.
//!
//! [`check_stage`] dispatches a pipeline snapshot to the right checker;
//! passed as the gate of [`br_codegen::compile_module_with`] (or of
//! `br_core::Experiment` with `verify` set), it makes a violation abort
//! compilation with a typed [`VerifyError`] naming the pass, block, and
//! instruction. `VERIFY.md` at the repo root lists every invariant.

use std::fmt;

use br_codegen::Stage;
use br_isa::EncodeError;

mod asm_check;
mod ir_check;
mod program_lint;
mod regalloc_check;
pub mod tv;

pub use asm_check::{check_asm, check_asm_all};
pub use ir_check::check_ir;
pub use program_lint::lint_program;
pub use regalloc_check::check_regalloc;

/// A pipeline-invariant violation, attributed to the stage whose output
/// broke it. The [`VerifyError::pass`] accessor names that stage.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    // ---- IR validator ----
    /// The function breaks a structural rule (empty block, misplaced
    /// terminator, branch to a missing block, vreg out of range).
    Structural { func: String, detail: String },
    /// CFG successor/predecessor bookkeeping disagrees with the block
    /// terminators, or the entry block has predecessors.
    EdgeMismatch {
        func: String,
        block: u32,
        detail: String,
    },
    /// A virtual register is read on some path before any definition.
    UseBeforeDef {
        func: String,
        block: u32,
        inst: usize,
        vreg: u32,
    },
    /// An operand's register class disagrees with the instruction.
    ClassMismatch {
        func: String,
        block: u32,
        inst: usize,
        detail: String,
    },

    // ---- regalloc checker ----
    /// A spilled virtual register is still referenced directly (the
    /// spill rewrite should have replaced it with a fresh temporary).
    UnrewrittenSpill {
        func: String,
        block: u32,
        inst: usize,
        vreg: u32,
    },
    /// A read of `vreg` found its physical register holding no defined
    /// value on some path.
    UndefinedRead {
        func: String,
        block: u32,
        inst: usize,
        vreg: u32,
        preg: u8,
    },
    /// A read of `vreg` found its caller-saved physical register
    /// clobbered by an intervening call.
    ClobberedRead {
        func: String,
        block: u32,
        inst: usize,
        vreg: u32,
        preg: u8,
    },
    /// A spill-slot reload on a path where the slot was never stored.
    SpillClobbered {
        func: String,
        block: u32,
        inst: usize,
        slot: u32,
    },
    /// An assignment violates the target conventions (register outside
    /// the allocatable pools, or wrong register file).
    BadAssignment {
        func: String,
        vreg: u32,
        preg: u8,
        detail: String,
    },

    // ---- emitted-code lint ----
    /// An emitted instruction does not encode for the target machine
    /// (wrong-machine variant, register index, immediate or
    /// displacement out of range).
    Encoding {
        func: String,
        index: usize,
        err: EncodeError,
    },
    /// A baseline delayed transfer is not followed by exactly one
    /// non-transfer instruction.
    DelaySlot {
        func: String,
        index: usize,
        detail: String,
    },
    /// A transfer reads branch register `breg` on a path where nothing
    /// defined it.
    UnsetBranchReg {
        func: String,
        index: usize,
        breg: u8,
    },
    /// A compare-with-assignment is not paired with a legal carrier
    /// instruction.
    CarrierPairing {
        func: String,
        index: usize,
        detail: String,
    },
    /// A branch register reserved for a hoisted target is clobbered
    /// inside the loop it serves.
    HoistClobbered {
        func: String,
        index: usize,
        breg: u8,
    },
}

impl VerifyError {
    /// The pipeline stage whose output violated the invariant.
    pub fn pass(&self) -> &'static str {
        match self {
            VerifyError::Structural { .. }
            | VerifyError::EdgeMismatch { .. }
            | VerifyError::UseBeforeDef { .. }
            | VerifyError::ClassMismatch { .. } => "ir",
            VerifyError::UnrewrittenSpill { .. }
            | VerifyError::UndefinedRead { .. }
            | VerifyError::ClobberedRead { .. }
            | VerifyError::SpillClobbered { .. }
            | VerifyError::BadAssignment { .. } => "regalloc",
            VerifyError::Encoding { .. }
            | VerifyError::DelaySlot { .. }
            | VerifyError::UnsetBranchReg { .. }
            | VerifyError::CarrierPairing { .. }
            | VerifyError::HoistClobbered { .. } => "emit",
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Structural { func, detail } => {
                write!(f, "[ir] {func}: {detail}")
            }
            VerifyError::EdgeMismatch {
                func,
                block,
                detail,
            } => write!(f, "[ir] {func}:L{block}: {detail}"),
            VerifyError::UseBeforeDef {
                func,
                block,
                inst,
                vreg,
            } => write!(
                f,
                "[ir] {func}:L{block}:{inst}: v{vreg} may be used before definition"
            ),
            VerifyError::ClassMismatch {
                func,
                block,
                inst,
                detail,
            } => write!(f, "[ir] {func}:L{block}:{inst}: {detail}"),
            VerifyError::UnrewrittenSpill {
                func,
                block,
                inst,
                vreg,
            } => write!(
                f,
                "[regalloc] {func}:L{block}:{inst}: spilled v{vreg} referenced directly"
            ),
            VerifyError::UndefinedRead {
                func,
                block,
                inst,
                vreg,
                preg,
            } => write!(
                f,
                "[regalloc] {func}:L{block}:{inst}: v{vreg} read from r{preg} \
                 which does not hold it on all paths"
            ),
            VerifyError::ClobberedRead {
                func,
                block,
                inst,
                vreg,
                preg,
            } => write!(
                f,
                "[regalloc] {func}:L{block}:{inst}: v{vreg} read from caller-saved \
                 r{preg} after a call clobbered it"
            ),
            VerifyError::SpillClobbered {
                func,
                block,
                inst,
                slot,
            } => write!(
                f,
                "[regalloc] {func}:L{block}:{inst}: reload from spill slot {slot} \
                 which was not stored on all paths"
            ),
            VerifyError::BadAssignment {
                func,
                vreg,
                preg,
                detail,
            } => write!(f, "[regalloc] {func}: v{vreg} -> r{preg}: {detail}"),
            VerifyError::Encoding { func, index, err } => {
                write!(f, "[emit] {func}@{index}: {err}")
            }
            VerifyError::DelaySlot {
                func,
                index,
                detail,
            } => write!(f, "[emit] {func}@{index}: {detail}"),
            VerifyError::UnsetBranchReg { func, index, breg } => write!(
                f,
                "[emit] {func}@{index}: transfer through b[{breg}] which is not \
                 defined on all paths"
            ),
            VerifyError::CarrierPairing {
                func,
                index,
                detail,
            } => write!(f, "[emit] {func}@{index}: {detail}"),
            VerifyError::HoistClobbered { func, index, breg } => write!(
                f,
                "[emit] {func}@{index}: hoisted b[{breg}] clobbered inside the \
                 loop it serves"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Run one checker on one pipeline stage snapshot: the IR validator
/// before selection, the regalloc replay after allocation, and the
/// protocol lint after emission. This is the gate body of every verified
/// compile.
pub fn check_stage(stage: Stage<'_>) -> Result<(), VerifyError> {
    match stage {
        Stage::Ir { func } => check_ir(func),
        Stage::Regalloc {
            vcode,
            alloc,
            target,
            ..
        } => check_regalloc(vcode, alloc, target),
        Stage::Emit {
            asm,
            machine,
            hoist,
            br_opts,
            ..
        } => check_asm(asm, machine, hoist, &br_opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_codegen::{compile_module_with, BaseOptions, BrOptions};
    use br_isa::Machine;

    /// The full workload suite compiles cleanly through all three
    /// checkers on both machines — the headline acceptance property.
    #[test]
    fn workload_suite_verifies_clean_on_both_machines() {
        for w in br_workloads::suite(br_workloads::Scale::Test) {
            let module = br_frontend::compile(&w.source)
                .unwrap_or_else(|e| panic!("{}: frontend: {e}", w.name));
            for machine in [Machine::Baseline, Machine::BranchReg] {
                compile_module_with(
                    &module,
                    machine,
                    BaseOptions::default(),
                    BrOptions::default(),
                    &check_stage,
                )
                .unwrap_or_else(|e| panic!("{} on {machine:?}: {e:?}", w.name));
            }
        }
    }

    /// Non-default BR configurations (no hoisting, fused compares,
    /// fewer branch registers) also verify clean.
    #[test]
    fn workload_suite_verifies_clean_under_br_variants() {
        let variants = [
            BrOptions {
                hoisting: false,
                ..BrOptions::default()
            },
            BrOptions {
                fused_compare: true,
                ..BrOptions::default()
            },
            BrOptions {
                num_bregs: 4,
                ..BrOptions::default()
            },
        ];
        for w in br_workloads::suite(br_workloads::Scale::Test) {
            let module = br_frontend::compile(&w.source)
                .unwrap_or_else(|e| panic!("{}: frontend: {e}", w.name));
            for opts in &variants {
                compile_module_with(
                    &module,
                    Machine::BranchReg,
                    BaseOptions::default(),
                    *opts,
                    &check_stage,
                )
                .unwrap_or_else(|e| panic!("{} with {opts:?}: {e:?}", w.name));
            }
        }
    }

    #[test]
    fn pass_names_cover_all_stages() {
        let ir = VerifyError::Structural {
            func: "f".into(),
            detail: "d".into(),
        };
        let ra = VerifyError::BadAssignment {
            func: "f".into(),
            vreg: 0,
            preg: 0,
            detail: "d".into(),
        };
        let em = VerifyError::UnsetBranchReg {
            func: "f".into(),
            index: 0,
            breg: 1,
        };
        assert_eq!(ir.pass(), "ir");
        assert_eq!(ra.pass(), "regalloc");
        assert_eq!(em.pass(), "emit");
        for e in [ir, ra, em] {
            assert!(!e.to_string().is_empty());
            assert!(e.to_string().contains(e.pass()));
        }
    }
}
