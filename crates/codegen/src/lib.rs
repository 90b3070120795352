//! `br-codegen` — code generation for the paper's two machines.
//!
//! The pipeline mirrors the authors' *vpo*-based compiler:
//!
//! 1. **Instruction selection** ([`isel`]) lowers the target-independent
//!    IR to virtual-register machine code, with strength reduction and a
//!    float constant pool.
//! 2. **Register allocation** ([`regalloc`]) is Chaitin-style graph
//!    coloring with spilling; the branch-register machine's 16-register
//!    file spills more often, which is the source of Table I's extra
//!    data memory references.
//! 3. **Finalization** is where the machines diverge:
//!    * [`baseline`] emits condition-code compares, delayed branches,
//!      and runs the classic fill-from-above delay-slot scheduler;
//!    * [`brmach`] emits branch-target address calculations and transfer
//!      *carriers*, hoists calculations into loop preheaders with branch-
//!      register allocation ([`hoist`]), and replaces noop carriers with
//!      pending calculations — the paper's Sections 4–5.
//!
//! # Example
//!
//! ```
//! use br_codegen::compile_module;
//! use br_isa::Machine;
//!
//! let module = br_frontend::compile("int main() { return 2 + 3; }")?;
//! let out = compile_module(&module, Machine::BranchReg, Default::default(), Default::default())?;
//! let program = out.asm.assemble()?;
//! assert!(program.static_inst_count() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baseline;
pub mod brmach;
pub mod data;
pub mod emit;
pub mod error;
pub mod hoist;
pub mod isel;
pub mod regalloc;
pub mod target;
pub mod vcode;

pub use emit::CodegenStats;
pub use error::CodegenError;
pub use target::{BaseOptions, BrOptions, TargetSpec};

use std::time::Instant;

use br_ir::{Cfg, Dominators, LoopForest, Module};
use br_isa::{AsmFunc, AsmProgram, Machine};

/// Frame geometry of one selected function, exported by
/// [`ModuleBatch::frame_geom`] for consumers (translation validation)
/// that need to reason about stack-slot addresses without replicating
/// the emitters' layout math.
#[derive(Debug, Clone)]
pub struct FuncGeom {
    /// Function name.
    pub name: String,
    /// Frame offset (from the adjusted sp) of each IR slot.
    pub slot_off: Vec<i32>,
    /// Size in bytes of each IR slot.
    pub slot_size: Vec<u32>,
    /// Outgoing-argument overflow words; the out-arg area is
    /// `[0, 4 * max_out_args)` in frame offsets.
    pub max_out_args: u32,
}

/// Output of compiling a module for one machine.
#[derive(Debug, Clone)]
pub struct CompiledModule {
    /// The symbolic program, ready to assemble.
    pub asm: AsmProgram,
    /// Static code-generation statistics, summed over all functions.
    pub stats: CodegenStats,
    /// Stage wall times and allocator counters, summed over all
    /// functions plus the module's selection time.
    pub metrics: CompileMetrics,
}

/// Per-stage wall times of one compilation, in nanoseconds. Every
/// compilation collects them (a few clock reads per function).
/// Deliberately *not* part of [`CodegenStats`], which is pinned
/// byte-identical across `--jobs` levels — wall times are inherently
/// nondeterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Instruction selection (serial front half, excluding `Ir` gates).
    pub isel_ns: u64,
    /// Register allocation (coloring + spill rewrite).
    pub regalloc_ns: u64,
    /// Hoist planning (branch-register machine only; part of `emit_ns`).
    pub hoist_ns: u64,
    /// Final emission, *including* hoist planning on the BR machine.
    pub emit_ns: u64,
}

impl StageTimes {
    /// Fold another function's times into this total.
    pub fn accumulate(&mut self, other: &StageTimes) {
        self.isel_ns += other.isel_ns;
        self.regalloc_ns += other.regalloc_ns;
        self.hoist_ns += other.hoist_ns;
        self.emit_ns += other.emit_ns;
    }
}

/// Stage wall times and allocator counters of one function, or, summed
/// by [`ModuleBatch::finish`], of one module on one machine. Profile
/// reports keep the wall times out of their deterministic sections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileMetrics {
    /// Stage wall times. Per function `isel_ns` is zero: selection is
    /// module-level, and [`ModuleBatch::finish`] adds it once.
    pub times: StageTimes,
    /// Spill slots inserted by the register allocator.
    pub spills: u32,
    /// Number of compiled functions.
    pub funcs: usize,
}

impl CompileMetrics {
    /// Fold another function's or module's metrics into this total.
    pub fn accumulate(&mut self, other: &CompileMetrics) {
        self.times.accumulate(&other.times);
        self.spills += other.spills;
        self.funcs += other.funcs;
    }
}

/// One observation point in the per-function compilation pipeline,
/// handed to the gate callback of [`compile_module_with`]. Each variant
/// is a read-only snapshot taken *after* the named stage ran, so a
/// checker can attribute an invariant violation to the pass that
/// introduced it.
pub enum Stage<'a> {
    /// Before instruction selection: the optimized IR function.
    Ir {
        /// The function about to be compiled.
        func: &'a br_ir::Function,
    },
    /// After register allocation (spills already rewritten in `vcode`).
    Regalloc {
        /// The source IR function.
        func: &'a br_ir::Function,
        /// Virtual code with allocator temps and spill traffic inserted.
        vcode: &'a vcode::VFunc,
        /// The assignment to audit.
        alloc: &'a regalloc::Allocation,
        /// Register conventions of the target machine.
        target: &'a TargetSpec,
    },
    /// After final emission: the symbolic instruction stream.
    Emit {
        /// The source IR function.
        func: &'a br_ir::Function,
        /// The emitted stream (labels, instructions, jump-table words).
        asm: &'a AsmFunc,
        /// Which machine the stream targets.
        machine: Machine,
        /// The hoisting plan (branch-register machine only).
        hoist: Option<&'a hoist::HoistPlan>,
        /// Branch-register options in effect (pools, fused compare).
        br_opts: BrOptions,
    },
}

/// Error from the gated pipeline: either the compiler itself failed, or
/// the gate rejected a stage's output.
#[derive(Debug, Clone, PartialEq)]
pub enum GatedError<E> {
    /// A codegen stage failed.
    Codegen(CodegenError),
    /// The gate callback reported a violation.
    Gate(E),
}

impl<E> From<CodegenError> for GatedError<E> {
    fn from(e: CodegenError) -> GatedError<E> {
        GatedError::Codegen(e)
    }
}

/// A module part-way through compilation: instruction selection has run
/// (serially — the float constant pool is shared across functions, so
/// selection order fixes the pool layout), leaving register allocation
/// and emission, which are independent across functions, to
/// [`ModuleBatch::compile_func`].
///
/// This split is what batched compilation fans across worker threads:
/// `compile_func` takes `&self` and a `Fn` gate, so any number of
/// threads may compile distinct functions concurrently, and the
/// per-function outputs reassemble into a byte-identical module in
/// [`ModuleBatch::finish`] regardless of completion order.
pub struct ModuleBatch<'a> {
    module: &'a Module,
    machine: Machine,
    base_opts: BaseOptions,
    br_opts: BrOptions,
    target: TargetSpec,
    /// (index into `module.functions`, selected virtual code).
    funcs: Vec<(usize, vcode::VFunc)>,
    pool: isel::ConstPool,
    /// Wall time of selection alone, summed over functions.
    isel_ns: u64,
}

/// Run the serial front half of codegen — the `Ir` gate and instruction
/// selection for every function with a body, in module order — and
/// return the batch of selected functions. The back half (allocation,
/// emission, the `Regalloc` and `Emit` gates) runs per function through
/// [`ModuleBatch::compile_func`].
pub fn select_module_with<'a, E, G>(
    module: &'a Module,
    machine: Machine,
    base_opts: BaseOptions,
    br_opts: BrOptions,
    gate: &mut G,
) -> Result<ModuleBatch<'a>, GatedError<E>>
where
    G: FnMut(Stage<'_>) -> Result<(), E>,
{
    let target = TargetSpec::for_machine(machine);
    let mut pool = isel::ConstPool::new();
    let mut funcs = Vec::new();
    let mut isel_ns = 0;
    for (fi, func) in module.functions.iter().enumerate() {
        if func.blocks.is_empty() {
            continue; // prototype without a body
        }
        gate(Stage::Ir { func }).map_err(GatedError::Gate)?;
        let t = Instant::now();
        let mut vf = isel::select(module, func, &target, &mut pool)?;
        vf.max_out_args = baseline::compute_max_out_args(&vf, &target);
        isel_ns += elapsed_ns(t);
        funcs.push((fi, vf));
    }
    Ok(ModuleBatch {
        module,
        machine,
        base_opts,
        br_opts,
        target,
        funcs,
        pool,
        isel_ns,
    })
}

/// [`select_module_with`] with a no-op gate.
pub fn select_module(
    module: &Module,
    machine: Machine,
    base_opts: BaseOptions,
    br_opts: BrOptions,
) -> Result<ModuleBatch<'_>, CodegenError> {
    let mut no_gate = |_: Stage<'_>| Ok::<(), std::convert::Infallible>(());
    select_module_with(module, machine, base_opts, br_opts, &mut no_gate).map_err(|e| match e {
        GatedError::Codegen(c) => c,
        GatedError::Gate(never) => match never {},
    })
}

impl ModuleBatch<'_> {
    /// Number of functions in the batch.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the batch has no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Per-function frame geometry of the selected code: where each IR
    /// stack slot lands relative to the adjusted stack pointer, and how
    /// wide the outgoing-argument overflow area is. Slot offsets depend
    /// only on selection results (`max_out_args` and the IR slot list),
    /// not on register allocation, so they are fixed before the back
    /// half runs. Translation validation uses this to give the two
    /// machines' differing frame layouts a common slot-level naming.
    pub fn frame_geom(&self) -> Vec<FuncGeom> {
        self.funcs
            .iter()
            .map(|(_, vf)| {
                let layout = emit::FrameLayout::new(vf, 0);
                FuncGeom {
                    name: vf.name.clone(),
                    slot_off: layout.slot_off,
                    slot_size: vf.slots.iter().map(|&(size, _)| size as u32).collect(),
                    max_out_args: vf.max_out_args,
                }
            })
            .collect()
    }

    /// Register-allocate and emit function `i` of the batch, running the
    /// `Regalloc` and `Emit` gates, and time allocation, hoist planning
    /// and emission (the gates are not timed). Reads `&self` only (the
    /// selected virtual code is cloned before the spill rewrite mutates
    /// it), so distinct indices may run on distinct threads; the gate
    /// must be `Fn` for the same reason.
    pub fn compile_func<E, G>(
        &self,
        i: usize,
        gate: &G,
    ) -> Result<(AsmFunc, CodegenStats, CompileMetrics), GatedError<E>>
    where
        G: Fn(Stage<'_>) -> Result<(), E>,
    {
        let (fi, ref selected) = self.funcs[i];
        let func = &self.module.functions[fi];
        let mut vf = selected.clone();

        // Loop depths for spill costs (and, on the BR machine, hoisting).
        let cfg = Cfg::new(func);
        let dom = Dominators::new(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let depth: Vec<u32> = (0..func.blocks.len())
            .map(|i| loops.depth(br_ir::BlockId(i as u32)))
            .collect();

        let mut metrics = CompileMetrics {
            funcs: 1,
            ..CompileMetrics::default()
        };
        let t = Instant::now();
        let alloc = regalloc::allocate(&mut vf, &self.target, &depth)?;
        metrics.times.regalloc_ns = elapsed_ns(t);
        metrics.spills = vf.num_spills;
        gate(Stage::Regalloc {
            func,
            vcode: &vf,
            alloc: &alloc,
            target: &self.target,
        })
        .map_err(GatedError::Gate)?;

        let t = Instant::now();
        let (afunc, fstats, plan) = match self.machine {
            Machine::Baseline => {
                let (a, s) = baseline::emit_baseline(&vf, &self.target, &alloc, self.base_opts)?;
                (a, s, None)
            }
            Machine::BranchReg => {
                let (a, s, p, hoist_ns) =
                    brmach::emit_brmach(func, &mut vf, &self.target, &alloc, self.br_opts, loops)?;
                metrics.times.hoist_ns = hoist_ns;
                (a, s, Some(p))
            }
        };
        metrics.times.emit_ns = elapsed_ns(t);
        gate(Stage::Emit {
            func,
            asm: &afunc,
            machine: self.machine,
            hoist: plan.as_ref(),
            br_opts: self.br_opts,
        })
        .map_err(GatedError::Gate)?;
        Ok((afunc, fstats, metrics))
    }

    /// Assemble the per-function outputs (one per batch function, in
    /// batch order) plus the module's globals and constant pool into the
    /// final compiled module, summing the functions' statistics and
    /// metrics and adding the module's selection time.
    pub fn finish(self, parts: Vec<(AsmFunc, CodegenStats, CompileMetrics)>) -> CompiledModule {
        debug_assert_eq!(parts.len(), self.funcs.len());
        let mut asm = AsmProgram::new(self.machine);
        let mut stats = CodegenStats::default();
        let mut metrics = CompileMetrics::default();
        metrics.times.isel_ns = self.isel_ns;
        for (afunc, fstats, fmetrics) in parts {
            stats.accumulate(&fstats);
            metrics.accumulate(&fmetrics);
            asm.funcs.push(afunc);
        }
        asm.data = data::lower_globals(self.module);
        asm.data.extend(data::lower_pool(self.pool.into_items()));
        CompiledModule {
            asm,
            stats,
            metrics,
        }
    }
}

pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Compile `module` for `machine`, calling `gate` after every pipeline
/// stage of every function. The gate sees the IR before selection, the
/// virtual code after register allocation, and the assembly stream after
/// emission; returning `Err` aborts compilation with
/// [`GatedError::Gate`]. [`compile_module`] is this function with a
/// no-op gate; `br_verify::check_stage` is the checking gate.
///
/// Stage order: the `Ir` gates of *all* functions run first (during
/// selection), then each function's `Regalloc` and `Emit` gates in
/// module order — the serial schedule of the batched pipeline
/// ([`select_module_with`] + [`ModuleBatch::compile_func`]), which this
/// function is a thin wrapper over.
pub fn compile_module_with<E, G>(
    module: &Module,
    machine: Machine,
    base_opts: BaseOptions,
    br_opts: BrOptions,
    gate: &G,
) -> Result<CompiledModule, GatedError<E>>
where
    G: Fn(Stage<'_>) -> Result<(), E>,
{
    let batch = select_module_with(module, machine, base_opts, br_opts, &mut &*gate)?;
    let parts = (0..batch.len())
        .map(|i| batch.compile_func(i, gate))
        .collect::<Result<_, _>>()?;
    Ok(batch.finish(parts))
}

/// Compile `module` for `machine`.
///
/// `base_opts` affects only the baseline machine; `br_opts` only the
/// branch-register machine (pass `Default::default()` for the paper's
/// configuration). Malformed input and pipeline-invariant violations are
/// reported as [`CodegenError`]s — this path never panics on program
/// shape, so differential drivers can compile arbitrary generated code.
pub fn compile_module(
    module: &Module,
    machine: Machine,
    base_opts: BaseOptions,
    br_opts: BrOptions,
) -> Result<CompiledModule, CodegenError> {
    let no_gate = |_: Stage<'_>| Ok::<(), std::convert::Infallible>(());
    compile_module_with(module, machine, base_opts, br_opts, &no_gate).map_err(|e| match e {
        GatedError::Codegen(c) => c,
        GatedError::Gate(never) => match never {},
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_emu::Emulator;
    use br_ir::Interpreter;

    /// Compile and run `src` on `machine`; return (exit value, emulator).
    fn run_on(src: &str, machine: Machine) -> (i32, br_emu::Measurements) {
        let module = br_frontend::compile(src).expect("frontend");
        let out = compile_module(&module, machine, Default::default(), Default::default())
            .expect("codegen");
        let prog = out.asm.assemble().unwrap_or_else(|e| {
            panic!("assemble failed on {machine}: {e}");
        });
        let mut emu = Emulator::new(&prog);
        let exit = emu.run(200_000_000).unwrap_or_else(|e| {
            panic!("run failed on {machine}: {e}\n{}", prog.listing());
        });
        (exit, emu.measurements().clone())
    }

    /// Differential check: IR interpreter and both machines must agree.
    fn check(src: &str) -> (br_emu::Measurements, br_emu::Measurements) {
        let module = br_frontend::compile(src).expect("frontend");
        let expected = Interpreter::new(&module)
            .run("main", &[])
            .expect("interpreter");
        let (base, mb) = run_on(src, Machine::Baseline);
        let (brm, mr) = run_on(src, Machine::BranchReg);
        assert_eq!(base, expected, "baseline disagrees with interpreter");
        assert_eq!(brm, expected, "BR machine disagrees with interpreter");
        (mb, mr)
    }

    #[test]
    fn constant_return() {
        check("int main() { return 42; }");
    }

    #[test]
    fn arithmetic() {
        check("int main() { return (7 * 9 - 3) / 2 % 13; }");
        check("int main() { int x = -5; return x * -3 + (x ^ 12) - (x & 6) + (x | 3); }");
        check("int main() { int x = 1000000; return x / 7 + x % 7 + (x >> 3) + (x << 2); }");
    }

    #[test]
    fn simple_loop() {
        let (mb, mr) = check(
            "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return s % 256; }",
        );
        // The BR machine should execute fewer instructions (hoisted
        // calcs + carriers) — the paper's headline effect.
        assert!(
            mr.instructions < mb.instructions,
            "BR {} vs baseline {}",
            mr.instructions,
            mb.instructions
        );
        // And the dominant loop branch should be fully prefetched
        // (distance bucket 0 = "far enough").
        assert!(mr.transfer_dist[0] > 0);
    }

    #[test]
    fn nested_loops_and_conditionals() {
        check(
            r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 20; i++) {
                    for (int j = 0; j < 20; j++) {
                        if ((i + j) % 3 == 0) s += i * j;
                        else if (j > i) s -= 1;
                    }
                }
                return s % 251;
            }
        "#,
        );
    }

    #[test]
    fn calls_and_recursion() {
        check(
            r#"
            int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            int main() { return fib(15) % 256; }
        "#,
        );
    }

    #[test]
    fn call_in_loop_uses_callee_saved_breg() {
        let src = r#"
            int inc(int x) { return x + 1; }
            int main() { int s = 0; for (int i = 0; i < 50; i++) s = inc(s); return s; }
        "#;
        let (_, mr) = check(src);
        // Branch-register saves/restores should appear (callee-saved
        // bregs + b7 spills), as the paper reports.
        assert!(mr.br_saves > 0);
        assert!(mr.br_restores > 0);
    }

    #[test]
    fn arrays_and_pointers() {
        check(
            r#"
            int a[50];
            int main() {
                for (int i = 0; i < 50; i++) a[i] = i * i;
                int *p = a;
                int s = 0;
                while (p < a + 50) s += *p++;
                return s % 256;
            }
        "#,
        );
    }

    #[test]
    fn strings_and_chars() {
        check(
            r#"
            int count(char *s, char c) {
                int n = 0;
                while (*s) { if (*s == c) n++; s++; }
                return n;
            }
            int main() { return count("abracadabra", 'a') * 10 + count("xyz", 'q'); }
        "#,
        );
    }

    #[test]
    fn floats_end_to_end() {
        check(
            r#"
            float scale(float x, float k) { return x * k + 0.5; }
            int main() {
                float s = 0.0;
                for (int i = 0; i < 10; i++) s = scale(s, 1.5);
                if (s > 170.0 && s < 172.0) return 1;
                return (int)s;
            }
        "#,
        );
    }

    #[test]
    fn switch_statement_both_dense_and_sparse() {
        check(
            r#"
            int dense(int c) {
                switch (c) {
                    case 0: return 1;
                    case 1: return 2;
                    case 2: return 4;
                    case 3: return 8;
                    case 4: return 16;
                    default: return 0;
                }
            }
            int sparse(int c) {
                switch (c) {
                    case 10: return 1;
                    case 1000: return 2;
                    default: return 3;
                }
            }
            int main() {
                int s = 0;
                for (int i = -2; i < 8; i++) s += dense(i);
                return s * 100 + sparse(10) + sparse(1000) + sparse(7);
            }
        "#,
        );
    }

    #[test]
    fn many_arguments_overflow_to_stack() {
        check(
            r#"
            int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
                return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h;
            }
            int main() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }
        "#,
        );
    }

    #[test]
    fn register_pressure_spills_work() {
        // Many values live across a call, re-created in a loop so spill
        // traffic dominates the dynamic data-reference count.
        let mut body = String::new();
        for i in 0..24 {
            body.push_str(&format!("int v{i} = n + {i};\n"));
        }
        body.push_str("n = helper(n) % 100;\n");
        let mut sum = String::from("s = (s");
        for i in 0..24 {
            sum.push_str(&format!(" + v{i}"));
        }
        sum.push_str(" + n) % 256;");
        let src = format!(
            "int helper(int x) {{ return x * 2 + 1; }}\n\
             int main() {{ int n = 5; int s = 0; \
             for (int k = 0; k < 20; k++) {{ {body} {sum} }} return s; }}"
        );
        let (mb, mr) = check(&src);
        // More spills on the BR machine → more data references.
        assert!(
            mr.data_refs > mb.data_refs,
            "BR {} vs baseline {}",
            mr.data_refs,
            mb.data_refs
        );
    }

    #[test]
    fn global_state_across_calls() {
        check(
            r#"
            int counter = 0;
            void tick() { counter++; }
            int main() {
                for (int i = 0; i < 13; i++) tick();
                return counter;
            }
        "#,
        );
    }

    #[test]
    fn two_dimensional_matrix() {
        check(
            r#"
            int m[8][8];
            int main() {
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++)
                        m[i][j] = i * 8 + j;
                int t = 0;
                for (int i = 0; i < 8; i++) t += m[i][i];
                return t;
            }
        "#,
        );
    }

    #[test]
    fn do_while_and_break_continue() {
        check(
            r#"
            int main() {
                int i = 0, s = 0;
                do {
                    i++;
                    if (i % 3 == 0) continue;
                    if (i > 17) break;
                    s += i;
                } while (i < 100);
                return s;
            }
        "#,
        );
    }

    #[test]
    fn ablation_no_hoisting_executes_more_instructions() {
        let src =
            "int main() { int s = 0; for (int i = 0; i < 200; i++) s += i; return s % 256; }";
        let module = br_frontend::compile(src).unwrap();
        let with = compile_module(
            &module,
            Machine::BranchReg,
            Default::default(),
            BrOptions::default(),
        )
        .unwrap();
        let without = compile_module(
            &module,
            Machine::BranchReg,
            Default::default(),
            BrOptions {
                hoisting: false,
                ..Default::default()
            },
        )
        .unwrap();
        let run = |cm: &CompiledModule| {
            let p = cm.asm.assemble().unwrap();
            let mut emu = Emulator::new(&p);
            let exit = emu.run(10_000_000).unwrap();
            (exit, emu.measurements().instructions)
        };
        let (e1, i1) = run(&with);
        let (e2, i2) = run(&without);
        assert_eq!(e1, e2);
        assert!(i1 < i2, "hoisting should reduce executed instructions");
    }

    #[test]
    fn delay_slot_filling_reduces_noops() {
        let src = r#"
            int f(int x) { return x * 3; }
            int main() { int s = 0; for (int i = 0; i < 50; i++) s += f(i); return s % 256; }
        "#;
        let module = br_frontend::compile(src).unwrap();
        let with = compile_module(
            &module,
            Machine::Baseline,
            BaseOptions::default(),
            Default::default(),
        )
        .unwrap();
        let without = compile_module(
            &module,
            Machine::Baseline,
            BaseOptions {
                fill_delay_slots: false,
            },
            Default::default(),
        )
        .unwrap();
        assert!(with.stats.slots_filled > 0);
        let run = |cm: &CompiledModule| {
            let p = cm.asm.assemble().unwrap();
            let mut emu = Emulator::new(&p);
            let exit = emu.run(10_000_000).unwrap();
            (exit, emu.measurements().noops)
        };
        let (e1, n1) = run(&with);
        let (e2, n2) = run(&without);
        assert_eq!(e1, e2);
        assert!(n1 < n2, "filling should reduce executed noops");
    }

    #[test]
    fn fused_fast_compare_agrees_and_saves_instructions() {
        // Section 9 future-work variant: every Appendix-I-style kernel
        // must agree, with fewer executed instructions (no carriers
        // after compares).
        let src = r#"
            int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            int main() {
                int s = fib(12);
                for (int i = 0; i < 40; i++) if (i % 3 == 0) s += i;
                return s % 256;
            }
        "#;
        let module = br_frontend::compile(src).unwrap();
        let run = |opts: BrOptions| {
            let out = compile_module(&module, Machine::BranchReg, Default::default(), opts).unwrap();
            let p = out.asm.assemble().unwrap();
            let mut emu = Emulator::new(&p);
            let exit = emu.run(10_000_000).unwrap();
            (exit, emu.measurements().instructions)
        };
        let (e0, i0) = run(BrOptions::default());
        let (e1, i1) = run(BrOptions {
            fused_compare: true,
            ..Default::default()
        });
        assert_eq!(e0, e1);
        assert!(i1 < i0, "fused {} vs carriered {}", i1, i0);
    }

    #[test]
    fn fused_compare_consistent_across_workloads() {
        let exp_opts = BrOptions {
            fused_compare: true,
            ..Default::default()
        };
        for name in ["wc", "sort", "vpcc", "puzzle"] {
            let w = br_workloads::by_name(name, br_workloads::Scale::Test).unwrap();
            let module = br_frontend::compile(&w.source).unwrap();
            let base = {
                let out =
                    compile_module(&module, Machine::Baseline, Default::default(), Default::default())
                        .unwrap();
                let p = out.asm.assemble().unwrap();
                let mut emu = Emulator::new(&p);
                emu.run(100_000_000).unwrap()
            };
            let fused = {
                let out = compile_module(&module, Machine::BranchReg, Default::default(), exp_opts)
                    .unwrap();
                let p = out.asm.assemble().unwrap();
                let mut emu = Emulator::new(&p);
                emu.run(100_000_000).unwrap()
            };
            assert_eq!(base, fused, "{name} disagrees under fused compare");
        }
    }

    #[test]
    fn isel_time_excludes_ir_gate_time() {
        // A gate that sleeps 20 ms before each function's selection: the
        // reported selection time must not include it.
        let module = br_frontend::compile("int main() { return 2 + 3; }").unwrap();
        let slow_ir_gate = |stage: Stage<'_>| {
            if let Stage::Ir { .. } = stage {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok::<(), std::convert::Infallible>(())
        };
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let out = compile_module_with(
                &module,
                machine,
                Default::default(),
                Default::default(),
                &slow_ir_gate,
            )
            .unwrap();
            assert_eq!(out.metrics.funcs, 1);
            assert!(
                out.metrics.times.isel_ns < 20_000_000,
                "isel_ns {} counts the gate's sleep on {machine}",
                out.metrics.times.isel_ns
            );
        }
    }

    #[test]
    fn stats_track_carrier_kinds() {
        let src =
            "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }";
        let module = br_frontend::compile(src).unwrap();
        let out = compile_module(
            &module,
            Machine::BranchReg,
            Default::default(),
            Default::default(),
        )
        .unwrap();
        let s = &out.stats;
        assert!(s.hoisted_calcs > 0);
        assert!(s.carriers_useful + s.carriers_noop + s.carriers_replaced_by_calc > 0);
    }
}
