//! The differential oracle.
//!
//! Runs one MiniC source through three independent executions — the IR
//! interpreter, the baseline machine, and the branch-register machine —
//! under a fuel watchdog, and checks that every observable agrees:
//!
//! 1. the exit value (`main`'s return),
//! 2. the final contents of every global variable,
//! 3. the ordered stream of stores into the global data region
//!    (baseline vs branch-register, captured via the `retire` hook).
//!
//! Stack traffic is deliberately excluded from (3): the two machines
//! have different spill patterns and calling conventions, so their stack
//! stores legitimately differ. Stores to named globals follow the same
//! IR order on both machines and must match exactly.

use br_emu::{EmuError, Emulator, ExecHook};
use br_ir::{InterpError, Interpreter, Module};
use br_isa::{abi, Machine, Program};
use br_verify::VerifyError;

/// Default fuel for each execution (dynamic instructions / IR steps).
/// Generated programs finish in well under a million steps; anything that
/// reaches this bound has hung.
pub const DEFAULT_FUEL: u64 = 20_000_000;

/// Everything that agreed, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agreement {
    /// The common exit value.
    pub exit: i32,
    /// IR interpreter step count.
    pub interp_steps: u64,
    /// Dynamic instruction count on the baseline machine.
    pub base_instructions: u64,
    /// Dynamic instruction count on the branch-register machine.
    pub br_instructions: u64,
    /// Number of stores into the global data region (identical on both
    /// machines by construction once the oracle passes).
    pub global_stores: usize,
}

/// One way the three executions can disagree (or fail to complete).
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The front end rejected the program.
    Frontend(String),
    /// Code generation failed on one machine.
    Codegen { machine: Machine, err: String },
    /// A `br-verify` stage gate rejected the compiler's intermediate
    /// output on one machine (only produced in `--verify` mode).
    Verify { machine: Machine, err: VerifyError },
    /// The assembler rejected the generated assembly.
    Asm { machine: Machine, err: String },
    /// The IR interpreter faulted (including running out of fuel).
    Interp(String),
    /// An emulator faulted (including running out of fuel).
    Emu { machine: Machine, err: EmuError },
    /// The three exit values are not all equal.
    ExitMismatch { interp: i32, base: i32, br: i32 },
    /// A global's final value differs between executions.
    GlobalMismatch {
        name: String,
        /// Word offset within the global (0 for scalars).
        word: usize,
        interp: i32,
        base: i32,
        br: i32,
    },
    /// The data-region store streams of the two machines differ at
    /// position `pos` (`None` = that machine's stream ended first).
    StoreMismatch {
        pos: usize,
        base: Option<(u32, i32)>,
        br: Option<(u32, i32)>,
    },
    /// The static translation validator and the dynamic differential
    /// oracle contradict each other (`--tv` mode): either the TV engine
    /// *refuted* a function pair while all three executions agree on
    /// every observable, or it *proved* the whole module equivalent
    /// while the machines dynamically diverge. An `Unproven` verdict is
    /// never a divergence — the engine is deliberately incomplete and
    /// abstains rather than guesses.
    TvMismatch {
        /// Function the refutation names; empty when the mismatch is a
        /// proven module contradicted by a dynamic divergence.
        func: String,
        /// The refutation finding, or the dynamic divergence the static
        /// proof contradicts.
        detail: String,
    },
    /// An execution tier disagreed with the interpreter on the same
    /// program (`--tiers` mode): different exit value, measurements,
    /// global-store stream, or error. Always a real emulator bug — the
    /// tiers are defined to be observationally identical.
    TierMismatch {
        machine: Machine,
        /// Name of the disagreeing tier (`threaded` / `traced`).
        tier: &'static str,
        /// What differed, rendered human-readable.
        detail: String,
    },
    /// The RV32 translator rejected a generated image (`--rv32` mode).
    /// The generator only emits the supported subset, so this is always
    /// a harness or translator defect, never an expected outcome.
    Ingest(br_ingest::IngestError),
    /// An RV32 machine execution's store stream differs from the
    /// reference interpreter's at position `pos` (`--rv32` mode;
    /// `None` = that stream ended first). Addresses are guest-relative.
    RvStoreMismatch {
        machine: Machine,
        pos: usize,
        /// The reference interpreter's event at `pos`.
        reference: Option<(u32, i32)>,
        /// The translated machine's event at `pos`.
        got: Option<(u32, i32)>,
    },
    /// The per-case wall-clock budget expired (see
    /// [`check_module_budgeted`]). A recorded timeout, not a
    /// correctness verdict: the program may be pathological for the
    /// compiler or emulators without being miscompiled.
    Budget {
        /// Pipeline stage that was about to start when the check fired.
        stage: &'static str,
        /// Milliseconds elapsed since the case started.
        elapsed_ms: u64,
        /// The configured budget.
        limit_ms: u64,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Divergences are reported to users (and now cross process
        // boundaries in logs), so every arm renders through `Display`
        // impls — no `{:?}` debug leaks.
        fn store(s: &Option<(u32, i32)>) -> String {
            match s {
                Some((addr, v)) => format!("[{addr:#x}] = {v}"),
                None => "stream ended".to_string(),
            }
        }
        match self {
            Divergence::Frontend(e) => write!(f, "frontend: {e}"),
            Divergence::Codegen { machine, err } => {
                write!(f, "codegen ({machine}): {err}")
            }
            Divergence::Verify { machine, err } => {
                write!(f, "verify ({machine}): {err}")
            }
            Divergence::Asm { machine, err } => write!(f, "assembler ({machine}): {err}"),
            Divergence::Interp(e) => write!(f, "interpreter: {e}"),
            Divergence::Emu { machine, err } => write!(f, "emulator ({machine}): {err}"),
            Divergence::ExitMismatch { interp, base, br } => write!(
                f,
                "exit mismatch: interp={interp} baseline={base} branch-reg={br}"
            ),
            Divergence::GlobalMismatch {
                name,
                word,
                interp,
                base,
                br,
            } => write!(
                f,
                "global `{name}` word {word}: interp={interp} baseline={base} branch-reg={br}"
            ),
            Divergence::StoreMismatch { pos, base, br } => write!(
                f,
                "store stream diverges at #{pos}: baseline {} vs branch-reg {}",
                store(base),
                store(br)
            ),
            Divergence::TvMismatch { func, detail } => {
                if func.is_empty() {
                    write!(f, "tv proved the module but execution diverged: {detail}")
                } else {
                    write!(
                        f,
                        "tv refuted `{func}` but all executions agree: {detail}"
                    )
                }
            }
            Divergence::TierMismatch {
                machine,
                tier,
                detail,
            } => write!(f, "tier `{tier}` diverged from interpreter ({machine}): {detail}"),
            Divergence::Ingest(e) => write!(f, "ingest: {e}"),
            Divergence::RvStoreMismatch {
                machine,
                pos,
                reference,
                got,
            } => write!(
                f,
                "rv32 store stream ({machine}) diverges from reference at #{pos}: reference {} vs machine {}",
                store(reference),
                store(got)
            ),
            Divergence::Budget {
                stage,
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "case budget exceeded: {elapsed_ms} ms elapsed (limit {limit_ms} ms) entering {stage}"
            ),
        }
    }
}

/// Result of one emulated execution.
pub(crate) struct EmuRun {
    pub(crate) exit: i32,
    pub(crate) instructions: u64,
    /// Stores into the program's global data region, in retirement order.
    pub(crate) global_stores: Vec<(u32, i32)>,
    /// Final word values of each named global, in `module.globals` order.
    pub(crate) globals: Vec<(String, Vec<i32>)>,
}

/// Compile `module` for `machine` all the way to an executable program.
pub fn compile_for(module: &Module, machine: Machine) -> Result<Program, Divergence> {
    compile_for_with(module, machine, false, None)
}

/// Compile `module` for `machine` through
/// [`br_core::Experiment::compile_module_budgeted`], the path every other
/// caller compiles through, optionally running the `br-verify` stage
/// gates and under an optional `(deadline, limit_ms)` budget. An expired
/// budget is reported as [`Divergence::Budget`].
pub fn compile_for_with(
    module: &Module,
    machine: Machine,
    verify: bool,
    budget: Option<(std::time::Instant, u64)>,
) -> Result<Program, Divergence> {
    let exp = br_core::Experiment {
        verify,
        ..br_core::Experiment::new()
    };
    exp.compile_module_budgeted(module, machine, budget.map(|(deadline, _)| deadline))
        .map(|(prog, _stats)| prog)
        .map_err(|e| match e {
            br_core::Error::Compile(br_core::CompileError::Deadline { elapsed_ms }) => {
                Divergence::Budget {
                    stage: "compile stage gate",
                    elapsed_ms,
                    limit_ms: budget.map_or(0, |(_, limit_ms)| limit_ms),
                }
            }
            br_core::Error::Compile(br_core::CompileError::Codegen(c)) => Divergence::Codegen {
                machine,
                err: c.to_string(),
            },
            br_core::Error::Compile(br_core::CompileError::Verify(v)) => {
                Divergence::Verify { machine, err: v }
            }
            br_core::Error::Compile(br_core::CompileError::Asm(a)) => {
                Divergence::Asm { machine, err: a }
            }
            other => Divergence::Codegen {
                machine,
                err: other.to_string(),
            },
        })
}

/// Extent of the named-globals region `[DATA_BASE, DATA_BASE + n)` in a
/// program, computed from the module's globals and the program's symbols.
fn globals_end(module: &Module, prog: &Program) -> u32 {
    let mut end = abi::DATA_BASE;
    for g in &module.globals {
        if let Some(base) = prog.symbol(&g.name) {
            end = end.max(base + g.size() as u32);
        }
    }
    end
}

/// Streaming store filter: keeps only stores into `[lo, hi)`, so the
/// oracle's buffer is bounded by the program's *global* traffic rather
/// than its full retirement trace (stack stores never accumulate).
struct GlobalStores {
    lo: u32,
    hi: u32,
    stores: Vec<(u32, i32)>,
}

impl ExecHook for GlobalStores {
    fn retire(&mut self, _pc: u32, store: Option<(u32, i32)>) {
        if let Some((addr, v)) = store {
            if addr >= self.lo && addr < self.hi {
                self.stores.push((addr, v));
            }
        }
    }
}

pub(crate) fn run_machine(
    module: &Module,
    prog: &Program,
    fuel: u64,
) -> Result<EmuRun, Divergence> {
    let machine = prog.machine;
    let mut emu = Emulator::new(prog);
    let mut hook = GlobalStores {
        lo: abi::DATA_BASE,
        hi: globals_end(module, prog),
        stores: Vec::new(),
    };
    let exit = emu
        .run_with_hook(fuel, &mut hook)
        .map_err(|err| Divergence::Emu { machine, err })?;
    let global_stores = hook.stores;
    let mut globals = Vec::new();
    for g in &module.globals {
        let Some(base) = prog.symbol(&g.name) else {
            continue;
        };
        let words = (0..g.size() / 4)
            .map(|w| emu.read_word(base + 4 * w as u32).unwrap_or(0))
            .collect();
        globals.push((g.name.clone(), words));
    }
    Ok(EmuRun {
        exit,
        instructions: emu.measurements().instructions,
        global_stores,
        globals,
    })
}

/// Run the full differential check on one MiniC source.
pub fn check_src(src: &str, fuel: u64) -> Result<Agreement, Divergence> {
    check_src_with(src, fuel, false)
}

/// [`check_src`], optionally with `br-verify` stage gates enabled.
pub fn check_src_with(src: &str, fuel: u64, verify: bool) -> Result<Agreement, Divergence> {
    check_src_budgeted(src, fuel, verify, None)
}

/// [`check_src_with`] under an optional per-case wall-clock budget.
pub fn check_src_budgeted(
    src: &str,
    fuel: u64,
    verify: bool,
    budget_ms: Option<u64>,
) -> Result<Agreement, Divergence> {
    let module =
        br_frontend::compile(src).map_err(|e| Divergence::Frontend(e.to_string()))?;
    check_module_budgeted(&module, fuel, verify, budget_ms)
}

/// Run the full differential check on an already-lowered module.
pub fn check_module(module: &Module, fuel: u64) -> Result<Agreement, Divergence> {
    check_module_with(module, fuel, false)
}

/// [`check_module`], optionally with `br-verify` stage gates enabled.
pub fn check_module_with(
    module: &Module,
    fuel: u64,
    verify: bool,
) -> Result<Agreement, Divergence> {
    check_module_budgeted(module, fuel, verify, None)
}

/// [`check_module_with`] under an optional per-case wall-clock budget.
///
/// With `budget_ms` set, the case cannot wedge the harness: the budget
/// is checked cooperatively between pipeline stages, the compiles run
/// through [`br_core::Experiment::compile_module_budgeted`] (which
/// checks it at every stage gate), and the emulations are already
/// bounded by `fuel`. An expired budget is reported as the typed
/// [`Divergence::Budget`] — recorded by the fuzz driver, never hung on.
pub fn check_module_budgeted(
    module: &Module,
    fuel: u64,
    verify: bool,
    budget_ms: Option<u64>,
) -> Result<Agreement, Divergence> {
    let start = std::time::Instant::now();
    let over = |stage: &'static str| -> Result<(), Divergence> {
        if let Some(limit_ms) = budget_ms {
            let elapsed_ms = start.elapsed().as_millis() as u64;
            if elapsed_ms > limit_ms {
                return Err(Divergence::Budget {
                    stage,
                    elapsed_ms,
                    limit_ms,
                });
            }
        }
        Ok(())
    };
    let budget = budget_ms.map(|ms| (start + std::time::Duration::from_millis(ms), ms));

    // 1. Reference execution: the IR interpreter.
    let mut interp = Interpreter::new(module).with_fuel(fuel);
    let interp_exit = interp
        .run("main", &[])
        .map_err(|e: InterpError| Divergence::Interp(e.to_string()))?;
    let interp_steps = interp.steps();

    // 2. Both machines.
    over("baseline compile")?;
    let base_prog = compile_for_with(module, Machine::Baseline, verify, budget)?;
    over("branch-register compile")?;
    let br_prog = compile_for_with(module, Machine::BranchReg, verify, budget)?;
    over("baseline emulation")?;
    let base = run_machine(module, &base_prog, fuel)?;
    over("branch-register emulation")?;
    let br = run_machine(module, &br_prog, fuel)?;

    // 3. Exit values.
    if interp_exit != base.exit || interp_exit != br.exit {
        return Err(Divergence::ExitMismatch {
            interp: interp_exit,
            base: base.exit,
            br: br.exit,
        });
    }

    // 4. Final global memory, word by word, across all three.
    let mut global_words = 0usize;
    for (gi, g) in module.globals.iter().enumerate() {
        let Some(ibase) = interp.global_address(&g.name) else {
            continue;
        };
        for w in 0..g.size() / 4 {
            let iv = interp.read_word(ibase + 4 * w as u32).unwrap_or(0);
            let bv = base.globals[gi].1[w];
            let rv = br.globals[gi].1[w];
            if iv != bv || iv != rv {
                return Err(Divergence::GlobalMismatch {
                    name: g.name.clone(),
                    word: w,
                    interp: iv,
                    base: bv,
                    br: rv,
                });
            }
            global_words += 1;
        }
    }
    let _ = global_words;

    // 5. Ordered store streams into the global region.
    let n = base.global_stores.len().max(br.global_stores.len());
    for pos in 0..n {
        let b = base.global_stores.get(pos).copied();
        let r = br.global_stores.get(pos).copied();
        if b != r {
            return Err(Divergence::StoreMismatch { pos, base: b, br: r });
        }
    }

    Ok(Agreement {
        exit: interp_exit,
        interp_steps,
        base_instructions: base.instructions,
        br_instructions: br.instructions,
        global_stores: base.global_stores.len(),
    })
}

/// [`check_module_budgeted`] plus a third, *static* oracle: whole-module
/// translation validation ([`br_verify::tv`]). The static and dynamic
/// oracles check each other:
///
/// * a **refuted** function while the dynamic executions fully agree is
///   [`Divergence::TvMismatch`] — the validator's refutation logic and
///   the machines cannot both be right;
/// * a fully **proven** module while the machines diverge in behaviour
///   (exit value, final globals, or the store stream) is the converse
///   mismatch — execution disproving a static equivalence proof;
/// * **unproven** functions contradict nothing: the engine abstains on
///   code it cannot align rather than guessing either way.
///
/// Tooling failures (frontend, codegen, interpreter or emulator faults,
/// expired budgets) say nothing a static proof could contradict, so the
/// validator is skipped for those and the dynamic result passes through.
pub fn check_module_tv(
    module: &Module,
    fuel: u64,
    verify: bool,
    budget_ms: Option<u64>,
) -> Result<Agreement, Divergence> {
    let dynamic = check_module_budgeted(module, fuel, verify, budget_ms);
    let behavioural = matches!(
        dynamic,
        Ok(_)
            | Err(Divergence::ExitMismatch { .. })
            | Err(Divergence::GlobalMismatch { .. })
            | Err(Divergence::StoreMismatch { .. })
    );
    if !behavioural {
        return dynamic;
    }
    let report =
        match br_verify::tv::validate_module(module, Default::default(), Default::default()) {
            Ok(r) => r,
            Err(e) => {
                // The dynamic path compiled this module moments ago with
                // the same options; an error here is real toolchain skew.
                return Err(Divergence::Codegen {
                    machine: Machine::BranchReg,
                    err: format!("tv recompile: {e}"),
                });
            }
        };
    match &dynamic {
        Ok(_) => {
            if let Some(f) = report
                .funcs
                .iter()
                .find(|f| f.status == br_verify::tv::TvStatus::Refuted)
            {
                let detail = f
                    .findings
                    .iter()
                    .find(|x| x.refuted)
                    .or_else(|| f.findings.first())
                    .map(|x| x.detail.clone())
                    .unwrap_or_default();
                return Err(Divergence::TvMismatch {
                    func: f.func.clone(),
                    detail,
                });
            }
            dynamic
        }
        Err(d) => {
            if report.all_proven() {
                return Err(Divergence::TvMismatch {
                    func: String::new(),
                    detail: d.to_string(),
                });
            }
            // Refuted or unproven alongside a dynamic divergence: the
            // oracles agree something is wrong; the dynamic report is
            // the actionable one.
            dynamic
        }
    }
}

/// [`check_module_tv`] from source text.
pub fn check_src_tv(
    src: &str,
    fuel: u64,
    verify: bool,
    budget_ms: Option<u64>,
) -> Result<Agreement, Divergence> {
    let module = br_frontend::compile(src).map_err(|e| Divergence::Frontend(e.to_string()))?;
    check_module_tv(&module, fuel, verify, budget_ms)
}

/// One tier's observable outcome on a single program, for comparison.
struct TierRun {
    result: Result<i32, EmuError>,
    meas: br_emu::Measurements,
    global_stores: Vec<(u32, i32)>,
}

fn run_tier(prog: &Program, fuel: u64, tier: br_emu::ExecTier, hi: u32) -> TierRun {
    let mut emu = Emulator::new(prog).with_tier(tier);
    let mut hook = GlobalStores {
        lo: abi::DATA_BASE,
        hi,
        stores: Vec::new(),
    };
    let result = emu.run_with_hook(fuel, &mut hook);
    TierRun {
        result,
        meas: emu.measurements().clone(),
        global_stores: hook.stores,
    }
}

/// Differential check of the execution tiers themselves: runs `prog`
/// once per [`br_emu::ExecTier`] and demands the threaded and traced
/// tiers reproduce the interpreter's exit value (or its exact typed
/// error), its [`br_emu::Measurements`], and its ordered global-store
/// stream. Unlike the three-way machine oracle, this needs no IR
/// reference — the interpreter tier *is* the reference.
pub fn check_tiers(module: &Module, prog: &Program, fuel: u64) -> Result<(), Divergence> {
    let machine = prog.machine;
    let hi = globals_end(module, prog);
    let reference = run_tier(prog, fuel, br_emu::ExecTier::Interp, hi);
    for tier in [br_emu::ExecTier::Threaded, br_emu::ExecTier::Traced] {
        let got = run_tier(prog, fuel, tier, hi);
        let detail = match (&reference.result, &got.result) {
            (Ok(a), Ok(b)) if a != b => Some(format!("exit {a} vs {b}")),
            (Err(a), Err(b)) if a != b => Some(format!("error `{a}` vs `{b}`")),
            (Ok(a), Err(b)) => Some(format!("interpreter exited {a}, tier failed: {b}")),
            (Err(a), Ok(b)) => Some(format!("interpreter failed ({a}), tier exited {b}")),
            _ => None,
        };
        let detail = detail.or_else(|| {
            if reference.meas != got.meas {
                Some(format!(
                    "measurements differ (instructions {} vs {}, transfers {} vs {})",
                    reference.meas.instructions,
                    got.meas.instructions,
                    reference.meas.transfers,
                    got.meas.transfers
                ))
            } else if reference.global_stores != got.global_stores {
                let pos = reference
                    .global_stores
                    .iter()
                    .zip(&got.global_stores)
                    .position(|(a, b)| a != b)
                    .unwrap_or(reference.global_stores.len().min(got.global_stores.len()));
                Some(format!("global-store stream diverges at #{pos}"))
            } else {
                None
            }
        });
        if let Some(detail) = detail {
            return Err(Divergence::TierMismatch {
                machine,
                tier: tier.name(),
                detail,
            });
        }
    }
    Ok(())
}

/// `--tiers` oracle entry point: compile one module for both machines
/// and run [`check_tiers`] on each binary.
pub fn check_module_tiers(module: &Module, fuel: u64) -> Result<(), Divergence> {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = compile_for(module, machine)?;
        check_tiers(module, &prog, fuel)?;
    }
    Ok(())
}

/// [`check_module_tiers`] from source text.
pub fn check_src_tiers(src: &str, fuel: u64) -> Result<(), Divergence> {
    let module = br_frontend::compile(src).map_err(|e| Divergence::Frontend(e.to_string()))?;
    check_module_tiers(&module, fuel)
}

/// Sabotage an assembled branch-register program by negating the
/// condition of its first compare-and-branch. Returns `false` if the
/// program contains none. Used by the `--demo-miscompile` mode (and its
/// tests) to prove the oracle catches a real wrong-code bug.
pub fn flip_first_cmpbr(prog: &mut Program) -> bool {
    use br_isa::{MInst, TextWord};
    for tw in prog.text.iter_mut() {
        match tw {
            TextWord::Inst(MInst::CmpBr { cc, .. })
            | TextWord::Inst(MInst::Bcc { cc, .. }) => {
                *cc = cc.negate();
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Check whether a module, once compiled for the BR machine and run
/// through [`flip_first_cmpbr`], visibly misbehaves (wrong exit value or
/// a typed emulator error — never a panic or a hang).
pub fn sabotaged_br_misbehaves(module: &Module, fuel: u64) -> bool {
    let Ok(expected) = Interpreter::new(module).with_fuel(fuel).run("main", &[]) else {
        return false;
    };
    let Ok(mut prog) = compile_for(module, Machine::BranchReg) else {
        return false;
    };
    if !flip_first_cmpbr(&mut prog) {
        return false;
    }
    match Emulator::new(&prog).run(fuel) {
        Ok(v) => v != expected,
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program_agrees() {
        let src = "
            int g;
            int main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s = s + i; g = s; }
                return s;
            }
        ";
        let a = check_src(src, DEFAULT_FUEL).expect("oracle should agree");
        assert_eq!(a.exit, 45);
        assert!(a.global_stores > 0, "loop stores to g must be observed");
    }

    #[test]
    fn infinite_loop_is_caught_by_fuel() {
        let src = "int main() { while (1) { } return 0; }";
        match check_src(src, 10_000) {
            // The message is the InterpError Display rendering — user-
            // readable, no Debug leak.
            Err(Divergence::Interp(e)) => {
                assert!(e.contains("interpreter ran out of fuel"), "{e}")
            }
            other => panic!("expected interpreter fuel exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_is_a_recorded_timeout_not_a_hang() {
        // A budget of zero must expire at the first cooperative check
        // after the interpreter pass, with a typed Budget divergence.
        let src = "int main() { return 3; }";
        match check_src_budgeted(src, DEFAULT_FUEL, false, Some(0)) {
            Err(Divergence::Budget { limit_ms: 0, .. }) => {}
            other => panic!("expected Budget divergence, got {other:?}"),
        }
        // A generous budget changes nothing.
        let a = check_src_budgeted(src, DEFAULT_FUEL, false, Some(60_000))
            .expect("well within budget");
        assert_eq!(a.exit, 3);
    }

    #[test]
    fn divergence_displays_are_self_contained() {
        // Every variant must render human-readable text with no `{:?}`
        // debug formatting of payload types (reports cross process
        // boundaries via logs and CI output).
        let cases: Vec<(Divergence, &str)> = vec![
            (Divergence::Frontend("line 3: bad token".into()), "frontend: line 3"),
            (
                Divergence::Codegen {
                    machine: Machine::Baseline,
                    err: "spill failed".into(),
                },
                "codegen (baseline)",
            ),
            (
                Divergence::Emu {
                    machine: Machine::BranchReg,
                    err: EmuError::OutOfFuel,
                },
                "emulator (branch register)",
            ),
            (
                Divergence::Interp("interpreter ran out of fuel".into()),
                "interpreter: interpreter ran out of fuel",
            ),
            (
                Divergence::StoreMismatch {
                    pos: 2,
                    base: Some((0x400010, 7)),
                    br: None,
                },
                "baseline [0x400010] = 7 vs branch-reg stream ended",
            ),
            (
                Divergence::Budget {
                    stage: "baseline compile",
                    elapsed_ms: 120,
                    limit_ms: 100,
                },
                "120 ms elapsed (limit 100 ms) entering baseline compile",
            ),
            (
                Divergence::TierMismatch {
                    machine: Machine::BranchReg,
                    tier: "traced",
                    detail: "exit 3 vs 4".into(),
                },
                "tier `traced` diverged from interpreter (branch register): exit 3 vs 4",
            ),
            (
                Divergence::Ingest(br_ingest::IngestError::UnalignedEntry { entry: 0x1002 }),
                "ingest: rv32 entry point 0x1002 is not 4-byte aligned",
            ),
            (
                Divergence::RvStoreMismatch {
                    machine: Machine::Baseline,
                    pos: 4,
                    reference: Some((0x40, -1)),
                    got: None,
                },
                "rv32 store stream (baseline) diverges from reference at #4: reference [0x40] = -1 vs machine stream ended",
            ),
        ];
        for (d, want) in cases {
            let s = d.to_string();
            assert!(s.contains(want), "display `{s}` missing `{want}`");
            assert!(
                !s.contains("Some(") && !s.contains("None") && !s.contains("OutOfFuel"),
                "debug leak in `{s}`"
            );
        }
    }

    #[test]
    fn store_streams_match_on_globals() {
        // Both machines must store the same values to `g` in the same
        // order even though their stack traffic differs wildly.
        let src = "
            int g;
            int bump(int x) { g = g + x; return g; }
            int main() {
                int t = 0;
                for (int i = 1; i < 6; i++) { t = bump(i); }
                return t;
            }
        ";
        let a = check_src(src, DEFAULT_FUEL).expect("oracle should agree");
        assert_eq!(a.exit, 15);
        assert_eq!(a.global_stores, 5);
    }

    #[test]
    fn tiers_agree_on_a_looping_program() {
        // Hot enough (10 × 16+ iterations) that the traced tier forms
        // and executes real superblocks on both machines.
        let src = "
            int g;
            int main() {
                int s = 0;
                for (int i = 0; i < 200; i++) { s = s + i; g = s; }
                return s % 97;
            }
        ";
        check_src_tiers(src, DEFAULT_FUEL).expect("tiers must agree");
    }

    #[test]
    fn tiers_agree_on_errors_too() {
        // Fuel exhaustion mid-loop must produce the identical typed
        // error and identical measurements on every tier.
        let src = "int main() { int s = 0; while (1) { s = s + 1; } return s; }";
        let module = br_frontend::compile(src).unwrap();
        check_module_tiers(&module, 50_000).expect("tiers must agree on OutOfFuel");
    }

    #[test]
    fn deliberate_miscompile_is_caught() {
        let src = "
            int main() {
                int s = 0;
                for (int i = 0; i < 8; i++) { if (i < 4) { s = s + 10; } }
                return s;
            }
        ";
        let module = br_frontend::compile(src).unwrap();
        assert!(
            sabotaged_br_misbehaves(&module, DEFAULT_FUEL),
            "negating a compare-and-branch must change observable behaviour"
        );
    }
}
