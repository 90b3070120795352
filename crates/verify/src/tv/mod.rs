//! `br-tv` — whole-program translation validation and static branch
//! cost analysis.
//!
//! The torture oracle compares the two machines *dynamically* on one
//! input; this module proves them equivalent *statically*, for all
//! inputs the abstraction covers. For every IR function it compiles
//! both emissions (baseline delayed-branch and branch-register), cuts
//! each into superblock segments at the shared IR labels, and runs a
//! joint symbolic fixpoint ([`engine::validate_func`]) over a
//! hash-consed expression arena ([`expr::Arena`]):
//!
//! * each side executes its segment independently under the exact
//!   machine semantics (delay slots on the baseline; pre-decode branch
//!   register reads, fused compares, and the implicit `b[7]`
//!   sequential-address write on the BR machine);
//! * exits are paired by canonicalized branch decision and arrival
//!   label, so a hoisted compare/`bload` pair must compute the same
//!   taken/fall-through decision as the baseline's compare-and-branch;
//! * paired states meet by partition refinement; return states must
//!   agree on the return value, the memory-write stream, the stack
//!   pointer, and all callee-saved state.
//!
//! Any function the engine cannot prove is reported as a typed
//! [`TvFinding`] — never a panic — with [`TvStatus::Refuted`] reserved
//! for demonstrated disagreements (unequal constants, conflicting
//! stores). `TV.md` at the repo root documents the abstraction and its
//! known incompletenesses.
//!
//! The companion [`cost`] module is the static half of the paper's
//! cycle accounting: given per-word retired counts it reproduces the
//! baseline machine's cycle total exactly and upper-bounds the BR
//! machine's, using the same `br-pipeline` delay tables as the dynamic
//! estimate.

pub mod cost;
pub mod engine;
pub mod exec;
pub mod expr;

use std::collections::HashMap;
use std::fmt;

use br_codegen::{select_module, BaseOptions, BrOptions, CodegenError, TargetSpec};
use br_ir::{Module, Ty};
use br_isa::Machine;

use engine::validate_func;
use exec::{CallSig, Ctx, RetKind, SideCode};
use expr::{Arena, Side};

pub use cost::{icache_miss_bound, static_cycles, CostReport, FuncCost};

/// Proof status of one function pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvStatus {
    /// The two emissions are store- and return-equivalent.
    Proven,
    /// The engine could not complete the proof (abstraction too coarse,
    /// path/round caps hit, or an unmodelled construct).
    Unproven,
    /// The two emissions provably disagree — a miscompile.
    Refuted,
}

impl TvStatus {
    /// Lowercase name, as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TvStatus::Proven => "proven",
            TvStatus::Unproven => "unproven",
            TvStatus::Refuted => "refuted",
        }
    }
}

/// One reason a function pair failed to prove.
#[derive(Debug, Clone)]
pub struct TvFinding {
    /// True when the sides demonstrably disagree (not merely unproven).
    pub refuted: bool,
    /// Human-readable description.
    pub detail: String,
}

/// Per-function validation outcome.
#[derive(Debug, Clone)]
pub struct TvFuncReport {
    /// Function name.
    pub func: String,
    /// Proof status.
    pub status: TvStatus,
    /// Fixpoint rounds used.
    pub rounds: u32,
    /// Findings; empty iff `status` is [`TvStatus::Proven`].
    pub findings: Vec<TvFinding>,
}

/// Whole-module validation report, in selection (text) order.
#[derive(Debug, Clone, Default)]
pub struct TvModuleReport {
    /// Per-function outcomes.
    pub funcs: Vec<TvFuncReport>,
}

impl TvModuleReport {
    /// Number of functions with the given status.
    pub fn count(&self, s: TvStatus) -> usize {
        self.funcs.iter().filter(|f| f.status == s).count()
    }

    /// Whether every function proved.
    pub fn all_proven(&self) -> bool {
        self.funcs.iter().all(|f| f.status == TvStatus::Proven)
    }

    /// Whether any function is refuted (a demonstrated miscompile).
    pub fn any_refuted(&self) -> bool {
        self.funcs.iter().any(|f| f.status == TvStatus::Refuted)
    }
}

impl fmt::Display for TvModuleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tv: {} proven, {} unproven, {} refuted / {} functions",
            self.count(TvStatus::Proven),
            self.count(TvStatus::Unproven),
            self.count(TvStatus::Refuted),
            self.funcs.len()
        )?;
        for fr in &self.funcs {
            writeln!(
                f,
                "  {}: {} ({} rounds)",
                fr.func,
                fr.status.name(),
                fr.rounds
            )?;
            for finding in &fr.findings {
                writeln!(f, "    - {}", finding.detail)?;
            }
        }
        Ok(())
    }
}

fn ret_kind(ty: &Ty) -> RetKind {
    match ty {
        Ty::Void => RetKind::Void,
        Ty::Float => RetKind::Float,
        _ => RetKind::Int,
    }
}

/// Callee signatures for the symbolic call model, from the IR module.
fn call_sigs(module: &Module) -> HashMap<String, CallSig> {
    module
        .functions
        .iter()
        .map(|f| {
            let params = f.params.iter().map(|(_, ty)| ty.is_float()).collect();
            (
                f.name.clone(),
                CallSig {
                    params,
                    ret: ret_kind(&f.ret_ty),
                },
            )
        })
        .collect()
}

/// Validate every function of `module`: compile it for both machines
/// with the given options and prove the two emissions equivalent.
///
/// Compilation failures surface as `Err`; proof failures are per-function
/// [`TvFuncReport`]s — validation always runs to the end of the module.
pub fn validate_module(
    module: &Module,
    base_opts: BaseOptions,
    br_opts: BrOptions,
) -> Result<TvModuleReport, CodegenError> {
    let batch_a = select_module(module, Machine::Baseline, base_opts, br_opts)?;
    let batch_b = select_module(module, Machine::BranchReg, base_opts, br_opts)?;
    let geoms_a = batch_a.frame_geom();
    let geoms_b = batch_b.frame_geom();
    assert_eq!(
        batch_a.len(),
        batch_b.len(),
        "both machines select the same function set"
    );

    let target_a = TargetSpec::for_machine(Machine::Baseline);
    let target_b = TargetSpec::for_machine(Machine::BranchReg);
    let sigs = call_sigs(module);
    let (callee_bregs, caller_bregs) = br_opts.pools();

    let sig_of: HashMap<&str, (&br_ir::Function, Vec<bool>)> = module
        .functions
        .iter()
        .map(|f| {
            let p: Vec<bool> = f.params.iter().map(|(_, ty)| ty.is_float()).collect();
            (f.name.as_str(), (f, p))
        })
        .collect();

    let gate = |_: br_codegen::Stage<'_>| Ok::<(), std::convert::Infallible>(());
    let mut report = TvModuleReport::default();
    for i in 0..batch_a.len() {
        let (af_a, ..) = batch_a.compile_func(i, &gate).map_err(flatten)?;
        let (af_b, ..) = batch_b.compile_func(i, &gate).map_err(flatten)?;
        let name = geoms_a[i].name.clone();
        debug_assert_eq!(name, geoms_b[i].name);
        let (func, params) = &sig_of[name.as_str()];

        let code_a = SideCode::build(Side::Base, &af_a);
        let code_b = SideCode::build(Side::Br, &af_b);
        let cxa = Ctx {
            side: Side::Base,
            machine: Machine::Baseline,
            target: &target_a,
            geom: &geoms_a[i],
            sigs: &sigs,
            code: &code_a,
            caller_bregs: &[],
            callee_bregs: &[],
        };
        let cxb = Ctx {
            side: Side::Br,
            machine: Machine::BranchReg,
            target: &target_b,
            geom: &geoms_b[i],
            sigs: &sigs,
            code: &code_b,
            caller_bregs: &caller_bregs,
            callee_bregs: &callee_bregs,
        };

        let mut arena = Arena::new();
        let outcome = validate_func(&mut arena, &cxa, &cxb, params, ret_kind(&func.ret_ty));
        let findings: Vec<TvFinding> = outcome
            .findings
            .iter()
            .map(|f| TvFinding {
                refuted: f.refuted,
                detail: f.detail.clone(),
            })
            .collect();
        let status = if findings.is_empty() {
            TvStatus::Proven
        } else if findings.iter().any(|f| f.refuted) {
            TvStatus::Refuted
        } else {
            TvStatus::Unproven
        };
        report.funcs.push(TvFuncReport {
            func: name,
            status,
            rounds: outcome.rounds,
            findings,
        });
    }
    Ok(report)
}

fn flatten(e: br_codegen::GatedError<std::convert::Infallible>) -> CodegenError {
    match e {
        br_codegen::GatedError::Codegen(c) => c,
        br_codegen::GatedError::Gate(never) => match never {},
    }
}
