//! `br-core` — the end-to-end experiment pipeline of the reproduction.
//!
//! This crate corresponds to the paper's methodology as a whole: MiniC
//! source is compiled for **both** machines, assembled, executed in the
//! measuring emulators, and the dynamic counts are compared — Table I,
//! the Section 7 prose statistics, and the Section 6/7 cycle estimates
//! all fall out of [`SuiteReport`].
//!
//! # Quickstart
//!
//! ```
//! use br_core::Experiment;
//!
//! let src = "int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s % 256; }";
//! let cmp = Experiment::new().run_comparison("demo", src)?;
//! assert_eq!(cmp.baseline.exit, cmp.brmach.exit);
//! assert!(cmp.brmach.meas.instructions < cmp.baseline.meas.instructions);
//! # Ok::<(), br_core::Error>(())
//! ```

use std::fmt;
use std::time::Instant;

use br_codegen::{GatedError, Stage};

pub mod parallel;

pub use br_codegen::{
    BaseOptions, BrOptions, CodegenError, CodegenStats, CompileMetrics, StageTimes,
};
pub use br_emu::{EmuError, FetchRecorder, FetchTrace, Measurements, TraceEvent};
pub use br_frontend::CompileError as FrontendError;
pub use br_icache::{replay, CacheConfig, CacheConfigError, CacheStats, ICacheSim};
pub use br_ingest::{IngestError, Rv32Program};
pub use br_isa::{Machine, Program};
pub use br_pipeline as pipeline;
pub use br_verify::VerifyError;
pub use br_workloads::{by_name, suite, Scale, Workload};

/// Any failure on the source → binary path. Every stage reports through
/// a typed variant so callers (and the torture harness) can distinguish
/// a user error in the source from an internal compiler defect.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// MiniC front-end error (parse, type check, lowering) with a line.
    Frontend(FrontendError),
    /// Code-generation error (isel, regalloc, emission).
    Codegen(CodegenError),
    /// A stage-gate checker rejected the compiler's own output — always
    /// an internal defect, never a user error.
    Verify(VerifyError),
    /// Assembler error (encoding, relocation, layout).
    Asm(String),
    /// Foreign-ISA ingest error (RV32 image rejected by `br-ingest`) —
    /// a user error in the supplied image, like [`CompileError::Frontend`].
    Ingest(br_ingest::IngestError),
    /// The caller's compile deadline expired between pipeline stages
    /// (see [`Experiment::compile_module_budgeted`]). Always a resource
    /// decision, never a defect: the same input compiles fine with a
    /// larger budget.
    Deadline {
        /// Milliseconds the compile had run when the budget check fired.
        elapsed_ms: u64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "codegen: {e}"),
            CompileError::Verify(e) => write!(f, "verify: {e}"),
            CompileError::Asm(e) => write!(f, "assembler: {e}"),
            CompileError::Ingest(e) => write!(f, "ingest: {e}"),
            CompileError::Deadline { elapsed_ms } => {
                write!(f, "compile deadline exceeded after {elapsed_ms} ms")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<FrontendError> for CompileError {
    fn from(e: FrontendError) -> CompileError {
        CompileError::Frontend(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> CompileError {
        CompileError::Codegen(e)
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> CompileError {
        CompileError::Verify(e)
    }
}

impl From<br_ingest::IngestError> for CompileError {
    fn from(e: br_ingest::IngestError) -> CompileError {
        CompileError::Ingest(e)
    }
}

/// Unified error type of the experiment pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Compilation failed (front end, codegen, or assembly).
    Compile(CompileError),
    /// Emulation error.
    Emu(EmuError),
    /// The two machines disagreed on a program's result — a codegen bug.
    Mismatch {
        name: String,
        baseline: i32,
        brmach: i32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Emu(e) => write!(f, "emulation error: {e}"),
            Error::Mismatch {
                name,
                baseline,
                brmach,
            } => write!(
                f,
                "machines disagree on {name}: baseline={baseline} branch-register={brmach}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Error {
        Error::Compile(e)
    }
}

impl From<FrontendError> for Error {
    fn from(e: FrontendError) -> Error {
        Error::Compile(CompileError::Frontend(e))
    }
}

impl From<CodegenError> for Error {
    fn from(e: CodegenError) -> Error {
        Error::Compile(CompileError::Codegen(e))
    }
}

impl From<EmuError> for Error {
    fn from(e: EmuError) -> Error {
        Error::Emu(e)
    }
}

/// The outcome of running one program on one machine.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Program exit value (from `r[1]`).
    pub exit: i32,
    /// Dynamic measurements.
    pub meas: Measurements,
    /// Static code-generation statistics.
    pub stats: CodegenStats,
    /// Static instruction count of the binary.
    pub static_insts: usize,
}

/// A program run on both machines.
#[derive(Debug, Clone)]
pub struct ProgramComparison {
    /// Program name.
    pub name: String,
    /// Baseline-machine results.
    pub baseline: RunResult,
    /// Branch-register-machine results.
    pub brmach: RunResult,
}

/// Experiment driver with configurable code-generation options.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Baseline codegen options.
    pub base_opts: BaseOptions,
    /// Branch-register codegen options.
    pub br_opts: BrOptions,
    /// Emulation instruction budget per run.
    pub fuel: u64,
    /// Run the `br-verify` stage gates (IR validator, regalloc replay,
    /// branch-register protocol lint) after every compilation stage.
    /// Defaults to on in debug builds, off in release builds.
    pub verify: bool,
    /// Worker threads for batched function compilation: register
    /// allocation and emission fan across `jobs` threads per module
    /// (`0` = auto-detect, `1` = serial, the default). Output is
    /// byte-identical at every level — instruction selection stays
    /// serial so the shared constant pool keeps its layout, and
    /// per-function results reassemble in module order.
    pub jobs: usize,
    /// Emulator execution tier for the experiment's runs. All tiers
    /// produce byte-identical [`br_emu::Measurements`] and differ only
    /// in speed. Defaults to the fastest, `Traced`.
    pub tier: br_emu::ExecTier,
}

impl Default for Experiment {
    fn default() -> Experiment {
        Experiment {
            base_opts: BaseOptions::default(),
            br_opts: BrOptions::default(),
            fuel: 4_000_000_000,
            verify: cfg!(debug_assertions),
            jobs: 1,
            tier: br_emu::ExecTier::default(),
        }
    }
}

impl Experiment {
    /// An experiment with the paper's configuration.
    pub fn new() -> Experiment {
        Experiment::default()
    }

    /// Compile MiniC source for one machine.
    ///
    /// # Errors
    ///
    /// Front-end, code-generation, or assembler errors.
    pub fn compile(&self, src: &str, machine: Machine) -> Result<(Program, CodegenStats), Error> {
        let module = br_frontend::compile(src)?;
        self.compile_module_for(&module, machine)
    }

    /// Compile an already-lowered IR module for one machine, batching
    /// per-function register allocation and emission across
    /// [`Experiment::jobs`] worker threads. The front end is machine-
    /// independent, so callers targeting both machines should lower once
    /// and call this twice rather than calling [`Experiment::compile`]
    /// with the same source twice.
    ///
    /// # Errors
    ///
    /// Code-generation, verification, or assembler errors. With multiple
    /// failing functions, the reported error is the earliest by pipeline
    /// stage then module order (selection errors of any function before
    /// allocation/emission errors of any function) — the same at every
    /// `jobs` level.
    pub fn compile_module_for(
        &self,
        module: &br_ir::Module,
        machine: Machine,
    ) -> Result<(Program, CodegenStats), Error> {
        let (prog, stats, _) = self.compile_gated(module, machine, None)?;
        Ok((prog, stats))
    }

    /// [`Experiment::compile_module_for`] under a wall-clock budget:
    /// identical output when the budget holds, a typed
    /// [`CompileError::Deadline`] when it expires. The check runs
    /// cooperatively at every pipeline-stage gate (before each
    /// function's selection, after its allocation and emission), so a
    /// pathological module stops within one stage of the deadline
    /// instead of hanging the caller — no threads are aborted. Verify
    /// gates still run when [`Experiment::verify`] is set. `None`
    /// disables the budget entirely.
    ///
    /// # Errors
    ///
    /// Same as [`Experiment::compile_module_for`], plus
    /// [`CompileError::Deadline`].
    pub fn compile_module_budgeted(
        &self,
        module: &br_ir::Module,
        machine: Machine,
        deadline: Option<Instant>,
    ) -> Result<(Program, CodegenStats), Error> {
        let (prog, stats, _) = self.compile_gated(module, machine, deadline)?;
        Ok((prog, stats))
    }

    /// [`Experiment::compile_module_for`], also returning the per-stage
    /// wall times and allocator counters every compile collects.
    ///
    /// # Errors
    ///
    /// Same as [`Experiment::compile_module_for`].
    pub fn compile_module_metered(
        &self,
        module: &br_ir::Module,
        machine: Machine,
    ) -> Result<(Program, CodegenStats, CompileMetrics), Error> {
        self.compile_gated(module, machine, None)
    }

    /// The one compile path behind every `compile*` entry point: serial
    /// selection, then allocation and emission fanned across
    /// `self.jobs` threads, then assembly. One stage gate first checks
    /// `deadline`, then runs the `br-verify` checker for the stage when
    /// [`Experiment::verify`] is set. `map_ordered` returns results in
    /// function order, so both the assembled module and the first-error
    /// choice are deterministic at every jobs level.
    fn compile_gated(
        &self,
        module: &br_ir::Module,
        machine: Machine,
        deadline: Option<Instant>,
    ) -> Result<(Program, CodegenStats, CompileMetrics), Error> {
        let started = Instant::now();
        let gate = |stage: Stage<'_>| -> Result<(), CompileError> {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let elapsed_ms = started.elapsed().as_millis() as u64;
                return Err(CompileError::Deadline { elapsed_ms });
            }
            if self.verify {
                br_verify::check_stage(stage)?;
            }
            Ok(())
        };
        let flatten = |e| match e {
            GatedError::Codegen(c) => CompileError::Codegen(c),
            GatedError::Gate(g) => g,
        };
        let batch = br_codegen::select_module_with(
            module,
            machine,
            self.base_opts,
            self.br_opts,
            &mut &gate,
        )
        .map_err(flatten)?;
        let indices: Vec<usize> = (0..batch.len()).collect();
        let parts =
            parallel::map_ordered(&indices, self.jobs, |_, &i| batch.compile_func(i, &gate))
                .into_iter()
                .collect::<Result<_, _>>()
                .map_err(flatten)?;
        let out = batch.finish(parts);
        let prog = out
            .asm
            .assemble()
            .map_err(|e| CompileError::Asm(e.to_string()))?;
        Ok((prog, out.stats, out.metrics))
    }

    /// Compile and run on one machine.
    ///
    /// # Errors
    ///
    /// Any pipeline error.
    pub fn run(&self, src: &str, machine: Machine) -> Result<RunResult, Error> {
        let module = br_frontend::compile(src)?;
        self.run_module(&module, machine)
    }

    /// Compile an already-lowered module and run it on one machine.
    fn run_module(&self, module: &br_ir::Module, machine: Machine) -> Result<RunResult, Error> {
        let (prog, stats) = self.compile_module_for(module, machine)?;
        self.run_program(&prog, stats, None::<&mut br_emu::NoHook>)
    }

    /// The one run path: emulate `prog` on [`Experiment::tier`] with
    /// [`Experiment::fuel`], reporting every fetch, prefetch and
    /// retirement to `hook` when one is given. `stats` are `prog`'s
    /// codegen statistics, carried into the result. It takes the program
    /// rather than a module so that callers can size a hook from the
    /// program first.
    ///
    /// # Errors
    ///
    /// Emulation errors.
    pub fn run_program<H: br_emu::ExecHook + ?Sized>(
        &self,
        prog: &Program,
        stats: CodegenStats,
        hook: Option<&mut H>,
    ) -> Result<RunResult, Error> {
        let mut emu = br_emu::Emulator::new(prog).with_tier(self.tier);
        let exit = match hook {
            Some(hook) => emu.run_with_hook(self.fuel, hook)?,
            // `Emulator::run` uses the hook-free loops compiled inside
            // br-emu. A `run_with_hook::<NoHook>` instance built in this
            // crate made the benchmark's `paper_suite` about 2% slower
            // (2-core Xeon VM).
            None => emu.run(self.fuel)?,
        };
        Ok(RunResult {
            exit,
            meas: emu.measurements().clone(),
            stats,
            static_insts: prog.static_inst_count(),
        })
    }

    /// Compile and run with an instruction-cache simulator attached.
    ///
    /// # Errors
    ///
    /// Any pipeline error.
    pub fn run_with_cache(
        &self,
        src: &str,
        machine: Machine,
        cfg: CacheConfig,
    ) -> Result<(RunResult, CacheStats), Error> {
        let (prog, stats) = self.compile(src, machine)?;
        let mut cache = ICacheSim::new(cfg);
        let run = self.run_program(&prog, stats, Some(&mut cache))?;
        Ok((run, *cache.stats()))
    }

    /// Run `src` on both machines and check they agree.
    ///
    /// # Errors
    ///
    /// Any pipeline error, or [`Error::Mismatch`] when the machines
    /// disagree.
    pub fn run_comparison(&self, name: &str, src: &str) -> Result<ProgramComparison, Error> {
        // The front end is machine-independent: lower once, codegen twice.
        let module = br_frontend::compile(src)?;
        self.compare_machines(name, &module)
    }

    /// Translate a foreign RV32I image into an IR module ready for
    /// either machine's pipeline (see `br-ingest` and INGEST.md).
    ///
    /// # Errors
    ///
    /// [`CompileError::Ingest`] when the image is rejected (truncated,
    /// bad entry, illegal or unsupported instruction words).
    pub fn ingest_rv32(&self, prog: &br_ingest::Rv32Program) -> Result<br_ir::Module, Error> {
        let module = br_ingest::translate(prog).map_err(CompileError::Ingest)?;
        Ok(module)
    }

    /// Translate an RV32I image and run it on both machines, checking
    /// that they agree (the translated analogue of [`run_comparison`]).
    ///
    /// [`run_comparison`]: Experiment::run_comparison
    ///
    /// # Errors
    ///
    /// Any ingest or pipeline error, or [`Error::Mismatch`] when the
    /// machines disagree.
    pub fn run_rv32_comparison(
        &self,
        name: &str,
        prog: &br_ingest::Rv32Program,
    ) -> Result<ProgramComparison, Error> {
        let module = self.ingest_rv32(prog)?;
        self.compare_machines(name, &module)
    }

    /// Run `module` on both machines and report [`Error::Mismatch`] when
    /// their exit values differ.
    fn compare_machines(
        &self,
        name: &str,
        module: &br_ir::Module,
    ) -> Result<ProgramComparison, Error> {
        let baseline = self.run_module(module, Machine::Baseline)?;
        let brmach = self.run_module(module, Machine::BranchReg)?;
        if baseline.exit != brmach.exit {
            return Err(Error::Mismatch {
                name: name.to_string(),
                baseline: baseline.exit,
                brmach: brmach.exit,
            });
        }
        Ok(ProgramComparison {
            name: name.to_string(),
            baseline,
            brmach,
        })
    }

    /// Run the full Appendix I suite at `scale`, serially.
    ///
    /// # Errors
    ///
    /// The first failing program's error.
    pub fn run_suite(&self, scale: Scale) -> Result<SuiteReport, Error> {
        self.run_suite_jobs(scale, 1)
    }

    /// Run the full Appendix I suite at `scale`, fanning the programs
    /// across `jobs` worker threads (`0` = auto-detect). Each program
    /// compiles and runs on both machines independently; rows come back
    /// in suite order, so reports are identical at every `jobs` level.
    ///
    /// # Errors
    ///
    /// The error of the earliest (by suite order) failing program —
    /// the same one a serial run would report.
    pub fn run_suite_jobs(&self, scale: Scale, jobs: usize) -> Result<SuiteReport, Error> {
        let workloads = suite(scale);
        let results = parallel::map_ordered(&workloads, jobs, |_, w| {
            self.run_comparison(w.name, &w.source)
        });
        let mut rows = Vec::with_capacity(results.len());
        for r in results {
            rows.push(r?);
        }
        Ok(SuiteReport { rows })
    }

    /// Statically prove a program's two emissions equivalent
    /// (translation validation; see `TV.md`).
    ///
    /// # Errors
    ///
    /// Front-end or code-generation errors. Proof failures are *not*
    /// errors — they come back as per-function findings in the report.
    pub fn tv_validate(&self, src: &str) -> Result<br_verify::tv::TvModuleReport, Error> {
        let module = br_frontend::compile(src)?;
        self.tv_validate_module(&module)
    }

    /// [`tv_validate`](Self::tv_validate) for an already-lowered module.
    ///
    /// # Errors
    ///
    /// Code-generation errors.
    pub fn tv_validate_module(
        &self,
        module: &br_ir::Module,
    ) -> Result<br_verify::tv::TvModuleReport, Error> {
        Ok(br_verify::tv::validate_module(
            module,
            self.base_opts,
            self.br_opts,
        )?)
    }

    /// Cross-check the static branch-cost model against a real emulated
    /// run: compile `module` for `machine`, run it once collecting
    /// per-word retire counts, and evaluate both the static model and
    /// the dynamic `br-pipeline` estimate at pipeline depth `stages`.
    ///
    /// # Errors
    ///
    /// Compilation or emulation errors.
    pub fn cost_check_module(
        &self,
        module: &br_ir::Module,
        machine: Machine,
        stages: u32,
    ) -> Result<CostCheck, Error> {
        let (prog, stats) = self.compile_module_for(module, machine)?;
        let mut hook = RetireCounts::new(&prog);
        let run = self.run_program(&prog, stats, Some(&mut hook))?;
        let static_est = br_verify::tv::static_cycles(&prog, &hook.counts, stages);
        let dynamic = pipeline::machine_cycles(machine, &run.meas, stages);
        Ok(CostCheck {
            machine,
            stages,
            static_est: static_est.total,
            dynamic,
        })
    }
}

/// Minimal retire-count hook for the static-cost cross-check (the full
/// [`br-obs` profiler] is not a `br-core` dependency).
struct RetireCounts {
    counts: Vec<u64>,
}

impl RetireCounts {
    fn new(prog: &Program) -> RetireCounts {
        RetireCounts {
            counts: vec![0; prog.text.len()],
        }
    }
}

impl br_emu::ExecHook for RetireCounts {
    fn retire(&mut self, pc: u32, _store: Option<(u32, i32)>) {
        let w = ((pc - br_isa::abi::TEXT_BASE) >> 2) as usize;
        if let Some(c) = self.counts.get_mut(w) {
            *c += 1;
        }
    }
}

/// One static-vs-dynamic cycle cross-check.
///
/// On the baseline machine the static model is exact (`static_est ==
/// dynamic`); on the branch-register machine it is a sound upper bound
/// (`static_est.total >= dynamic.total`), within the error band the
/// `br-tv` gate pins.
#[derive(Debug, Clone, Copy)]
pub struct CostCheck {
    /// Machine checked.
    pub machine: Machine,
    /// Pipeline depth.
    pub stages: u32,
    /// Static estimate from the machine code and retire counts.
    pub static_est: pipeline::CycleEstimate,
    /// Dynamic estimate from the emulator's measurements.
    pub dynamic: pipeline::CycleEstimate,
}

impl CostCheck {
    /// Relative slack of the static bound over the dynamic estimate
    /// (0.0 = exact).
    pub fn slack(&self) -> f64 {
        if self.dynamic.total == 0 {
            return 0.0;
        }
        self.static_est.total as f64 / self.dynamic.total as f64 - 1.0
    }
}

/// Results over the whole suite — the raw material of Table I and the
/// Section 7 statistics.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-program comparisons.
    pub rows: Vec<ProgramComparison>,
}

impl SuiteReport {
    /// Suite-total measurements for (baseline, branch-register).
    pub fn totals(&self) -> (Measurements, Measurements) {
        let mut base = Measurements::new();
        let mut brm = Measurements::new();
        for r in &self.rows {
            base.accumulate(&r.baseline.meas);
            brm.accumulate(&r.brmach.meas);
        }
        (base, brm)
    }

    /// Suite-total codegen statistics for (baseline, branch-register).
    pub fn stats_totals(&self) -> (CodegenStats, CodegenStats) {
        let mut base = CodegenStats::default();
        let mut brm = CodegenStats::default();
        for r in &self.rows {
            base.accumulate(&r.baseline.stats);
            brm.accumulate(&r.brmach.stats);
        }
        (base, brm)
    }

    /// Table I: (baseline instructions, BR instructions, instruction
    /// diff %, baseline data refs, BR data refs, data-ref diff %).
    pub fn table1(&self) -> Table1 {
        let (b, r) = self.totals();
        Table1 {
            baseline_insts: b.instructions,
            brmach_insts: r.instructions,
            inst_diff_pct: pct_change(b.instructions, r.instructions),
            baseline_refs: b.data_refs,
            brmach_refs: r.data_refs,
            refs_diff_pct: pct_change(b.data_refs, r.data_refs),
        }
    }
}

/// The dynamic-measurement summary corresponding to the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1 {
    pub baseline_insts: u64,
    pub brmach_insts: u64,
    /// Negative = the BR machine executed fewer (paper: −6.8%).
    pub inst_diff_pct: f64,
    pub baseline_refs: u64,
    pub brmach_refs: u64,
    /// Positive = the BR machine made more (paper: +2.0%).
    pub refs_diff_pct: f64,
}

fn pct_change(from: u64, to: u64) -> f64 {
    if from == 0 {
        0.0
    } else {
        (to as f64 - from as f64) / from as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::Interpreter;

    #[test]
    fn simple_program_agrees_across_all_three_executions() {
        let src = "int main() { int s = 1; for (int i = 1; i <= 10; i++) s = s * i % 97; return s; }";
        let module = br_frontend::compile(src).unwrap();
        let expected = Interpreter::new(&module).run("main", &[]).unwrap();
        let cmp = Experiment::new().run_comparison("t", src).unwrap();
        assert_eq!(cmp.baseline.exit, expected);
        assert_eq!(cmp.brmach.exit, expected);
    }

    /// The acid test of the reproduction: every Appendix I program must
    /// agree between the IR interpreter and both emulated machines.
    #[test]
    fn every_workload_is_consistent_across_all_three_executions() {
        let exp = Experiment::new();
        for w in suite(Scale::Test) {
            let module = br_frontend::compile(&w.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name));
            let expected = Interpreter::new(&module)
                .run("main", &[])
                .unwrap_or_else(|e| panic!("{} interpreter failed: {e}", w.name));
            let cmp = exp
                .run_comparison(w.name, &w.source)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert_eq!(cmp.baseline.exit, expected, "{} baseline", w.name);
            assert_eq!(cmp.brmach.exit, expected, "{} branch-register", w.name);
        }
    }

    #[test]
    fn suite_report_reproduces_table1_shape() {
        let report = Experiment::new().run_suite(Scale::Test).unwrap();
        let t = report.table1();
        // The headline result: fewer instructions on the BR machine,
        // slightly more data references.
        assert!(
            t.inst_diff_pct < 0.0,
            "expected fewer BR instructions, got {t:?}"
        );
        assert!(
            t.refs_diff_pct >= 0.0,
            "expected at least as many BR data refs, got {t:?}"
        );
        // ~14% of baseline instructions are transfers (paper's figure);
        // accept a generous band for the small test scale.
        let (b, _) = report.totals();
        let frac = b.transfer_fraction();
        assert!(
            frac > 0.05 && frac < 0.30,
            "baseline transfer fraction {frac}"
        );
    }

    #[test]
    fn cycle_estimates_favor_branch_registers() {
        let report = Experiment::new().run_suite(Scale::Test).unwrap();
        let (b, r) = report.totals();
        let c3 = pipeline::compare(&b, &r, 3);
        assert!(c3.saving > 0.0, "3-stage saving {c3:?}");
        let c4 = pipeline::compare(&b, &r, 4);
        assert!(c4.saving > c3.saving, "deeper pipeline saves more");
    }

    #[test]
    fn cache_simulation_attaches() {
        let src = "int main() { int s = 0; for (int i = 0; i < 200; i++) s += i; return s % 256; }";
        let exp = Experiment::new();
        let (run, cache) = exp
            .run_with_cache(src, Machine::BranchReg, CacheConfig::default())
            .unwrap();
        assert_eq!(cache.fetches, run.meas.instructions);
        assert!(cache.hits + cache.misses + cache.prefetch_hits + cache.late_prefetch_hits > 0);
    }

    #[test]
    fn verified_pipeline_accepts_the_suite() {
        let exp = Experiment {
            verify: true,
            ..Experiment::new()
        };
        for w in suite(Scale::Test) {
            for m in [Machine::Baseline, Machine::BranchReg] {
                exp.compile(&w.source, m)
                    .unwrap_or_else(|e| panic!("{} on {m:?}: {e}", w.name));
            }
        }
    }

    #[test]
    fn budgeted_compile_matches_unbudgeted_and_expires_typed() {
        let src = "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }";
        let module = br_frontend::compile(src).unwrap();
        for verify in [false, true] {
            let exp = Experiment {
                verify,
                ..Experiment::new()
            };
            for m in [Machine::Baseline, Machine::BranchReg] {
                // A generous budget produces byte-identical output.
                let far = Instant::now() + std::time::Duration::from_secs(600);
                let (plain, pstats) = exp.compile_module_for(&module, m).unwrap();
                let (budgeted, bstats) =
                    exp.compile_module_budgeted(&module, m, Some(far)).unwrap();
                assert_eq!(plain.code, budgeted.code, "{m} (verify={verify})");
                assert_eq!(pstats, bstats, "{m} (verify={verify})");
                // An already-expired budget reports the typed deadline error.
                let past = Instant::now();
                match exp.compile_module_budgeted(&module, m, Some(past)) {
                    Err(Error::Compile(CompileError::Deadline { .. })) => {}
                    other => panic!("expected Deadline on {m} (verify={verify}), got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn compile_error_displays_are_self_contained() {
        // Every variant renders a human sentence with no `{:?}` leakage —
        // these strings cross the br-serve wire to clients.
        let deadline = CompileError::Deadline { elapsed_ms: 41 };
        assert_eq!(deadline.to_string(), "compile deadline exceeded after 41 ms");
        let asm = CompileError::Asm("duplicate label".into());
        assert_eq!(asm.to_string(), "assembler: duplicate label");
        let ingest = CompileError::Ingest(br_ingest::IngestError::EmptyText);
        assert_eq!(ingest.to_string(), "ingest: rv32 image has no text words");
        let mismatch = Error::Mismatch {
            name: "wc".into(),
            baseline: 3,
            brmach: 4,
        };
        assert_eq!(
            mismatch.to_string(),
            "machines disagree on wc: baseline=3 branch-register=4"
        );
    }

    #[test]
    fn mismatch_error_is_reported() {
        // Sanity: identical programs cannot mismatch.
        let ok = Experiment::new().run_comparison("x", "int main() { return 3; }");
        assert!(ok.is_ok());
    }

    #[test]
    fn rv32_ingest_runs_on_both_machines() {
        use br_ingest::rv32::{asm::*, encode};
        // a0 = (7 << 3) - 2 = 54.
        let words = [addi(10, 0, 7), slli(10, 10, 3), addi(10, 10, -2), ecall()]
            .into_iter()
            .map(encode)
            .collect();
        let prog = br_ingest::Rv32Program::new(words);
        let cmp = Experiment::new().run_rv32_comparison("rv32/smoke", &prog).unwrap();
        assert_eq!(cmp.baseline.exit, 54);
        assert_eq!(cmp.brmach.exit, 54);
        // The translated binary really is branchy enough to differ
        // between machines only in cost, not in result.
        assert!(cmp.baseline.meas.instructions > 0);
    }

    #[test]
    fn rv32_ingest_rejects_bad_images_typed() {
        let prog = br_ingest::Rv32Program::new(vec![0xffff_ffff]);
        match Experiment::new().run_rv32_comparison("rv32/bad", &prog) {
            Err(Error::Compile(CompileError::Ingest(br_ingest::IngestError::BadWord {
                pc: 0x1000,
                ..
            }))) => {}
            other => panic!("expected typed BadWord, got {other:?}"),
        }
    }
}
