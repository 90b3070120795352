//! `br-obs` — the observability layer of the reproduction.
//!
//! The paper's whole argument is an accounting exercise: where dynamic
//! instructions, transfers, and delay-slot noops go. This crate turns
//! that accounting into an instrument:
//!
//! * [`ProfileHook`] — an [`ExecHook`] that attributes every retired
//!   instruction to its opcode and to the basic block codegen emitted it
//!   from (via the assembler's retained [`BlockMark`] table), and, on
//!   the branch-register machine, tracks branch-register occupancy and
//!   assignment-to-use lifetimes.
//! * [`Coverage`] — static (ever emitted) vs dynamic (ever executed)
//!   ISA-encoding coverage over the legal opcode space of each machine
//!   (the paper's Figure 10/11 formats), with a gate that fails when an
//!   implemented encoding is never executed.
//! * [`Report`] — a deterministic merge of per-program profiles plus
//!   compiler per-stage metrics, filled by [`Report::profile`] and
//!   serialized to stable JSON by [`Report::to_json`].
//!
//! Zero cost when off: the hook rides the emulator's `run_with_hook`
//! instrumented paths, and the hook-free fast path never sees any of
//! this. Compile metrics cost a few clock reads per function, which
//! every compile pays; `Experiment::compile_module_metered` returns
//! them.
//!
//! [`ExecHook`]: br_emu::ExecHook
//! [`BlockMark`]: br_isa::BlockMark

use std::collections::BTreeMap;

use br_core::{CompileMetrics, Experiment, RunResult};
use br_emu::{ExecHook, Measurements};
use br_isa::{abi, decode, MInst, Machine, Program, TextWord};

pub mod json;

/// Number of opcode slots in the 6-bit primary opcode field.
pub const NUM_OPCODES: usize = 64;

/// Marker in the per-word opcode map for embedded data words.
const DATA_WORD: u8 = u8::MAX;

/// Stable mnemonic for the opcode slot `op` on `machine`, or `None` if
/// the slot is not a legal encoding there. Derived from the decoder
/// itself, so the name table can never drift from the implemented ISA.
pub fn mnemonic(machine: Machine, op: u8) -> Option<&'static str> {
    use br_isa::{AluOp, FpuOp, MemWidth};
    let inst = decode(machine, (op as u32) << 26).ok()?;
    Some(match inst {
        MInst::Nop { .. } => "nop",
        MInst::Halt => "halt",
        MInst::Alu { op, .. } => match op {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::OrLo => "orlo",
        },
        MInst::Sethi { .. } => "sethi",
        MInst::Load {
            w: MemWidth::Word, ..
        } => "ldw",
        MInst::Load {
            w: MemWidth::Byte, ..
        } => "ldb",
        MInst::LoadF { .. } => "ldf",
        MInst::Store {
            w: MemWidth::Word, ..
        } => "stw",
        MInst::Store {
            w: MemWidth::Byte, ..
        } => "stb",
        MInst::StoreF { .. } => "stf",
        MInst::Fpu { op, .. } => match op {
            FpuOp::FAdd => "fadd",
            FpuOp::FSub => "fsub",
            FpuOp::FMul => "fmul",
            FpuOp::FDiv => "fdiv",
        },
        MInst::FNeg { .. } => "fneg",
        MInst::FMov { .. } => "fmov",
        MInst::ItoF { .. } => "itof",
        MInst::FtoI { .. } => "ftoi",
        MInst::Cmp { .. } => "cmp",
        MInst::FCmp { .. } => "fcmp",
        MInst::Bcc { .. } => "bcc",
        MInst::Ba { .. } => "ba",
        MInst::Call { .. } => "call",
        MInst::Jmpl { .. } => "jmpl",
        MInst::Bcalc { .. } => "bcalc",
        MInst::CmpBr { .. } => "cmpbr",
        MInst::FCmpBr { .. } => "fcmpbr",
        MInst::BMovB { .. } => "bmovb",
        MInst::BMovR { .. } => "bmovr",
        MInst::BLoad { .. } => "bload",
        MInst::BStore { .. } => "bstore",
    })
}

/// Bitmask over opcode slots of every legal encoding of `machine` —
/// the machine's Figure 10 / Figure 11 format universe, as implemented.
pub fn opcode_universe(machine: Machine) -> u64 {
    let mut mask = 0u64;
    for op in 0..NUM_OPCODES as u8 {
        if mnemonic(machine, op).is_some() {
            mask |= 1 << op;
        }
    }
    mask
}

/// A tiny hand-built IR module that executes the ALU encodings MiniC
/// source cannot reach — `srl` (the frontend lowers `>>` on its signed
/// ints to `sra`) — plus `or`, in a short loop. It rides the full
/// isel→regalloc→emit pipeline like any other module, so profiling it
/// alongside the suite lets the coverage gate demand that *every*
/// implemented encoding of both machines executes.
pub fn coverage_kernel() -> br_ir::Module {
    use br_ir::{BinOp, Cond, FuncBuilder, Inst, Operand, RegClass, Ty};
    let mut b = FuncBuilder::new("main", Ty::Int, vec![]);
    let acc = b.new_vreg(RegClass::Int);
    let i = b.new_vreg(RegClass::Int);
    let t = b.new_vreg(RegClass::Int);
    // acc = -128 (negative, so a logical shift differs from `sra`).
    b.push(Inst::Copy {
        dst: acc,
        a: Operand::Const(-128),
    });
    b.push(Inst::Copy {
        dst: i,
        a: Operand::Const(0),
    });
    let body = b.new_block();
    let exit = b.new_block();
    b.terminate(Inst::Jump(body));
    b.switch_to(body);
    // acc = (acc >>u 1) | i — one `srl` and one `or` per iteration.
    b.push(Inst::Bin {
        op: BinOp::Shr,
        dst: t,
        a: Operand::Reg(acc),
        b: Operand::Const(1),
    });
    b.push(Inst::Bin {
        op: BinOp::Or,
        dst: acc,
        a: Operand::Reg(t),
        b: Operand::Reg(i),
    });
    b.push(Inst::Bin {
        op: BinOp::Add,
        dst: i,
        a: Operand::Reg(i),
        b: Operand::Const(1),
    });
    b.terminate(Inst::Branch {
        cond: Cond::Lt,
        a: Operand::Reg(i),
        b: Operand::Const(8),
        float: false,
        then_bb: body,
        else_bb: exit,
    });
    b.switch_to(exit);
    // acc is huge after the unsigned shift of a negative; fold it down.
    b.push(Inst::Bin {
        op: BinOp::And,
        dst: acc,
        a: Operand::Reg(acc),
        b: Operand::Const(0xFF),
    });
    b.terminate(Inst::Ret(Some(Operand::Reg(acc))));
    let mut module = br_ir::Module::new();
    module.add_function(b.finish());
    module
}

/// Static-vs-dynamic ISA-encoding coverage for one machine: which legal
/// opcode slots were ever *emitted* into a text segment, and which were
/// ever *executed*. Merge profiles from many programs with
/// [`Coverage::merge`]; the gate is [`Coverage::missing_executed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// The machine this coverage describes.
    pub machine: Machine,
    /// Opcode slots present in at least one text segment.
    pub emitted: u64,
    /// Opcode slots retired at least once.
    pub executed: u64,
}

impl Coverage {
    /// Empty coverage for `machine`.
    pub fn new(machine: Machine) -> Coverage {
        Coverage {
            machine,
            emitted: 0,
            executed: 0,
        }
    }

    /// OR another program's coverage into this one (same machine).
    pub fn merge(&mut self, other: &Coverage) {
        assert_eq!(self.machine, other.machine, "coverage machine mismatch");
        self.emitted |= other.emitted;
        self.executed |= other.executed;
    }

    /// Mnemonics of the legal opcode slots in `mask`, in encoding order.
    fn names(&self, mask: u64) -> Vec<&'static str> {
        (0..NUM_OPCODES as u8)
            .filter(|&op| mask & (1 << op) != 0)
            .filter_map(|op| mnemonic(self.machine, op))
            .collect()
    }

    /// Legal encodings never emitted by any profiled program.
    pub fn missing_emitted(&self) -> Vec<&'static str> {
        self.names(opcode_universe(self.machine) & !self.emitted)
    }

    /// Legal encodings never executed by any profiled program — the
    /// coverage gate fails when this is non-empty.
    pub fn missing_executed(&self) -> Vec<&'static str> {
        self.names(opcode_universe(self.machine) & !self.executed)
    }
}

/// Branch-register occupancy and lifetime statistics (BR machine only).
///
/// Tracks *explicit* assignments — `bcalc`, `bmovr`, `bmovb`, `bload` —
/// and reads through the `br` carrier field, compare-and-branch targets
/// (`b[bt]`), and branch-register moves/spills. `b[0]` (the PC) and
/// `b[7]` (implicitly rewritten by every transfer under the paper's
/// return-address rule, invisible to the retire stream) are excluded
/// from lifetime and occupancy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BregStats {
    /// Explicit assignments per branch register.
    pub assigns: [u64; 8],
    /// Reads per branch register (carrier `br` fields + `bt`/`bs` uses).
    pub uses: [u64; 8],
    /// Retired-instruction distance from an explicit assignment to its
    /// first use: bucket `d` for `1..=8`, bucket 0 for farther — the
    /// same bucketing as `Measurements::transfer_dist`.
    pub first_use_dist: [u64; 9],
    /// Explicit assignments overwritten before any use (`b[1..=6]`).
    pub dead_assigns: u64,
    /// Sum over retired instructions of how many of `b[1..=6]` held an
    /// assigned-but-not-yet-used target at that point; divide by total
    /// retires for mean occupancy.
    pub occupancy_sum: u64,
}

impl BregStats {
    /// Fold another program's stats into this total.
    pub fn accumulate(&mut self, other: &BregStats) {
        for i in 0..8 {
            self.assigns[i] += other.assigns[i];
            self.uses[i] += other.uses[i];
        }
        for i in 0..9 {
            self.first_use_dist[i] += other.first_use_dist[i];
        }
        self.dead_assigns += other.dead_assigns;
        self.occupancy_sum += other.occupancy_sum;
    }
}

/// Per-breg tracking window: which registers count toward lifetime and
/// occupancy stats (`b[0]` is the PC, `b[7]` is implicitly clobbered).
fn tracked(b: u8) -> bool {
    (1..=6).contains(&b)
}

/// Per-text-word facts precomputed at hook construction, so the retire
/// path is a few array reads.
struct WordInfo {
    /// Opcode slot of each word ([`DATA_WORD`] for embedded data).
    op: Vec<u8>,
    /// Index into the program's block table (`u32::MAX` = unattributed).
    block: Vec<u32>,
    /// Branch register explicitly assigned by the word (255 = none).
    assign_bd: Vec<u8>,
    /// Branch registers read by the word: carrier `br` field (0 = none)
    /// and `bt`/`bs` operand (255 = none).
    use_br: Vec<u8>,
    use_bt: Vec<u8>,
}

impl WordInfo {
    fn build(prog: &Program) -> WordInfo {
        let n = prog.text.len();
        let mut info = WordInfo {
            op: vec![DATA_WORD; n],
            block: vec![u32::MAX; n],
            assign_bd: vec![255; n],
            use_br: vec![0; n],
            use_bt: vec![255; n],
        };
        for (i, (tw, &enc)) in prog.text.iter().zip(&prog.code).enumerate() {
            let TextWord::Inst(inst) = tw else { continue };
            info.op[i] = (enc >> 26) as u8;
            info.use_br[i] = inst.br();
            match *inst {
                MInst::Bcalc { bd, .. } | MInst::BMovR { bd, .. } | MInst::BLoad { bd, .. } => {
                    info.assign_bd[i] = bd.0
                }
                MInst::BMovB { bd, bs, .. } => {
                    info.assign_bd[i] = bd.0;
                    info.use_bt[i] = bs.0;
                }
                MInst::CmpBr { bt, .. } | MInst::FCmpBr { bt, .. } => info.use_bt[i] = bt.0,
                MInst::BStore { bs, .. } => info.use_bt[i] = bs.0,
                _ => {}
            }
        }
        // Attribute words to block-table entries: the table is sorted by
        // word, so one forward walk covers the text.
        let mut cur = u32::MAX;
        let mut next = 0usize;
        for (w, slot) in info.block.iter_mut().enumerate() {
            while next < prog.blocks.len() && prog.blocks[next].word as usize <= w {
                cur = next as u32;
                next += 1;
            }
            *slot = cur;
        }
        info
    }
}

/// An [`ExecHook`] that builds a full execution profile of one program:
/// per-opcode retire histogram, per-block retire counts, and (on the BR
/// machine) branch-register stats. Construct with [`ProfileHook::new`],
/// run via `Emulator::run_with_hook`, then [`ProfileHook::finish`].
///
/// The hook only observes — a profiled run retires exactly the same
/// instruction stream and produces byte-identical `Measurements` to a
/// hook-free run (pinned by `tests/profile_equivalence.rs`).
pub struct ProfileHook {
    machine: Machine,
    info: WordInfo,
    block_names: Vec<String>,
    /// Retire count per text word.
    retired: Vec<u64>,
    /// Retire count per opcode slot.
    opcodes: [u64; NUM_OPCODES],
    total: u64,
    /// Per-breg state: retire index of the live explicit assignment.
    assign_at: [u64; 8],
    assigned: [bool; 8],
    used: [bool; 8],
    live_unused: u32,
    breg: BregStats,
}

impl ProfileHook {
    /// A profile hook for one assembled program.
    pub fn new(prog: &Program) -> ProfileHook {
        ProfileHook {
            machine: prog.machine,
            info: WordInfo::build(prog),
            block_names: prog.blocks.iter().map(|b| b.name()).collect(),
            retired: vec![0; prog.text.len()],
            opcodes: [0; NUM_OPCODES],
            total: 0,
            assign_at: [0; 8],
            assigned: [false; 8],
            used: [false; 8],
            live_unused: 0,
            breg: BregStats::default(),
        }
    }

    /// Per-text-word retire counts, indexed like `Program::text`. This
    /// is the weighting the static branch-cost model in `br-verify`
    /// rolls its per-block cycle bounds up with.
    pub fn retired_counts(&self) -> &[u64] {
        &self.retired
    }

    fn note_use(&mut self, b: u8) {
        if b == 0 {
            return;
        }
        self.breg.uses[b as usize] += 1;
        if tracked(b) && self.assigned[b as usize] && !self.used[b as usize] {
            self.used[b as usize] = true;
            self.live_unused -= 1;
            let d = self.total - self.assign_at[b as usize];
            let bucket = if (1..=8).contains(&d) { d as usize } else { 0 };
            self.breg.first_use_dist[bucket] += 1;
        }
    }

    /// Fold the counters into a [`ProgramProfile`] named `name`.
    pub fn finish(self, name: &str, meas: &Measurements) -> ProgramProfile {
        let mut blocks: BTreeMap<u32, u64> = BTreeMap::new();
        let mut emitted = 0u64;
        let mut executed = 0u64;
        for (w, &count) in self.retired.iter().enumerate() {
            let op = self.info.op[w];
            if op != DATA_WORD {
                emitted |= 1 << op;
            }
            if count == 0 {
                continue;
            }
            if op != DATA_WORD {
                executed |= 1 << op;
            }
            let b = self.info.block[w];
            if b != u32::MAX {
                *blocks.entry(b).or_default() += count;
            }
        }
        // Most-retired first; ties broken by block order for determinism.
        let mut hot: Vec<(String, u64)> = blocks
            .into_iter()
            .map(|(b, n)| (self.block_names[b as usize].clone(), n))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ProgramProfile {
            name: name.to_string(),
            machine: self.machine,
            retired: self.total,
            opcodes: self.opcodes,
            blocks: hot,
            breg: (self.machine == Machine::BranchReg).then_some(self.breg),
            coverage: Coverage {
                machine: self.machine,
                emitted,
                executed,
            },
            meas: meas.clone(),
        }
    }
}

impl ExecHook for ProfileHook {
    fn retire(&mut self, pc: u32, _store: Option<(u32, i32)>) {
        let w = ((pc - abi::TEXT_BASE) >> 2) as usize;
        if w >= self.retired.len() {
            return;
        }
        self.retired[w] += 1;
        let op = self.info.op[w];
        if op != DATA_WORD {
            self.opcodes[op as usize] += 1;
        }
        self.total += 1;
        if self.machine != Machine::BranchReg {
            return;
        }
        // Occupancy is sampled before this instruction's own effects.
        self.breg.occupancy_sum += self.live_unused as u64;
        // Reads happen at decode, before any assignment the word makes.
        self.note_use(self.info.use_br[w]);
        let bt = self.info.use_bt[w];
        if bt != 255 {
            self.note_use(bt);
        }
        let bd = self.info.assign_bd[w];
        if bd != 255 {
            let b = bd as usize;
            self.breg.assigns[b] += 1;
            if tracked(bd) {
                if self.assigned[b] && !self.used[b] {
                    self.breg.dead_assigns += 1;
                } else {
                    self.live_unused += 1;
                }
                self.assigned[b] = true;
                self.used[b] = false;
                self.assign_at[b] = self.total;
            }
        }
    }
}

/// One program's profile on one machine.
#[derive(Debug, Clone)]
pub struct ProgramProfile {
    /// Program name (suite or corpus file stem).
    pub name: String,
    /// The machine it ran on.
    pub machine: Machine,
    /// Total retired instructions observed by the hook.
    pub retired: u64,
    /// Retires per opcode slot.
    pub opcodes: [u64; NUM_OPCODES],
    /// `(block name, retired)` sorted most-retired first.
    pub blocks: Vec<(String, u64)>,
    /// Branch-register stats (BR machine only).
    pub breg: Option<BregStats>,
    /// This program's encoding coverage.
    pub coverage: Coverage,
    /// The emulator's own measurements for the run.
    pub meas: Measurements,
}

/// Compile-side metrics for one program on one machine.
#[derive(Debug, Clone)]
pub struct CompileProfile {
    /// Program name.
    pub name: String,
    /// The machine it was compiled for.
    pub machine: Machine,
    /// Per-stage wall times and allocator counters.
    pub metrics: CompileMetrics,
    /// Codegen counters (noops filled vs replaced, carriers, hoists).
    pub stats: br_core::CodegenStats,
}

/// A merged observability report over many programs and both machines.
/// Assembled in a fixed program order, so the deterministic sections of
/// [`Report::to_json`] are identical at any `--jobs` level.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-program execution profiles, in run order.
    pub programs: Vec<ProgramProfile>,
    /// Per-program compile metrics, in run order.
    pub compiles: Vec<CompileProfile>,
}

impl Report {
    /// Compile `module` for `machine` with stage metrics, run it under a
    /// [`ProfileHook`] through [`Experiment`], and append its execution
    /// and compile rows, both named `name`. This is the one profiled run
    /// behind `br-prof` and `brcc --profile`; it returns the run itself.
    ///
    /// # Errors
    ///
    /// Compilation or emulation errors.
    pub fn profile(
        &mut self,
        exp: &Experiment,
        name: &str,
        module: &br_ir::Module,
        machine: Machine,
    ) -> Result<RunResult, br_core::Error> {
        let (prog, stats, metrics) = exp.compile_module_metered(module, machine)?;
        let mut hook = ProfileHook::new(&prog);
        let run = exp.run_program_with(&prog, stats, &mut hook)?;
        self.programs.push(hook.finish(name, &run.meas));
        self.compiles.push(CompileProfile {
            name: name.to_string(),
            machine,
            metrics,
            stats,
        });
        Ok(run)
    }

    /// Merged coverage for `machine` across all profiled programs.
    pub fn coverage(&self, machine: Machine) -> Coverage {
        let mut cov = Coverage::new(machine);
        for p in self.programs.iter().filter(|p| p.machine == machine) {
            cov.merge(&p.coverage);
        }
        cov
    }

    /// Merged opcode histogram for `machine`.
    pub fn opcode_totals(&self, machine: Machine) -> [u64; NUM_OPCODES] {
        let mut totals = [0u64; NUM_OPCODES];
        for p in self.programs.iter().filter(|p| p.machine == machine) {
            for (t, &c) in totals.iter_mut().zip(&p.opcodes) {
                *t += c;
            }
        }
        totals
    }

    /// Merged branch-register stats across all BR-machine programs.
    pub fn breg_totals(&self) -> BregStats {
        let mut totals = BregStats::default();
        for p in &self.programs {
            if let Some(b) = &p.breg {
                totals.accumulate(b);
            }
        }
        totals
    }

    /// The coverage gate: mnemonics of legal encodings never executed,
    /// per machine. Empty means the gate passes.
    pub fn coverage_gaps(&self) -> Vec<(Machine, Vec<&'static str>)> {
        [Machine::Baseline, Machine::BranchReg]
            .into_iter()
            .map(|m| (m, self.coverage(m).missing_executed()))
            .filter(|(_, gaps)| !gaps.is_empty())
            .collect()
    }

    /// Serialize to stable JSON. `top` bounds the per-program hot-block
    /// list. With `times` false (the default for archived reports) the
    /// nondeterministic `*_ns` wall-time section is omitted and the
    /// output is byte-identical for identical inputs at any `--jobs`.
    pub fn to_json(&self, top: usize, times: bool) -> String {
        let mut w = json::Writer::new();
        w.open_obj();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let key = match machine {
                Machine::Baseline => "baseline",
                Machine::BranchReg => "branch_register",
            };
            w.key(key);
            w.open_obj();

            let totals = self.opcode_totals(machine);
            w.key("opcodes");
            w.open_obj();
            for op in 0..NUM_OPCODES as u8 {
                if totals[op as usize] > 0 {
                    if let Some(name) = mnemonic(machine, op) {
                        w.field_u64(name, totals[op as usize]);
                    }
                }
            }
            w.close_obj();

            let cov = self.coverage(machine);
            w.key("coverage");
            w.open_obj();
            w.field_u64("universe", opcode_universe(machine).count_ones() as u64);
            w.field_u64("emitted", cov.emitted.count_ones() as u64);
            w.field_u64("executed", cov.executed.count_ones() as u64);
            w.key("missing_emitted");
            w.str_array(&cov.missing_emitted());
            w.key("missing_executed");
            w.str_array(&cov.missing_executed());
            w.close_obj();

            if machine == Machine::BranchReg {
                let b = self.breg_totals();
                w.key("breg");
                w.open_obj();
                w.key("assigns");
                w.u64_array(&b.assigns);
                w.key("uses");
                w.u64_array(&b.uses);
                w.key("first_use_dist");
                w.u64_array(&b.first_use_dist);
                w.field_u64("dead_assigns", b.dead_assigns);
                w.field_u64("occupancy_sum", b.occupancy_sum);
                let retired: u64 = self
                    .programs
                    .iter()
                    .filter(|p| p.machine == machine)
                    .map(|p| p.retired)
                    .sum();
                if retired > 0 {
                    w.field_f64("mean_occupancy", b.occupancy_sum as f64 / retired as f64);
                }
                w.close_obj();
            }
            w.close_obj();
        }

        w.key("programs");
        w.open_arr();
        for p in &self.programs {
            w.open_obj();
            w.field_str("name", &p.name);
            w.field_str("machine", p.machine.name());
            w.field_u64("retired", p.retired);
            w.field_u64("data_refs", p.meas.data_refs);
            w.field_u64("transfers", p.meas.transfers);
            w.field_u64("noops", p.meas.noops);
            w.key("hot_blocks");
            w.open_arr();
            for (name, count) in p.blocks.iter().take(top) {
                w.open_obj();
                w.field_str("block", name);
                w.field_u64("retired", *count);
                w.close_obj();
            }
            w.close_arr();
            w.close_obj();
        }
        w.close_arr();

        w.key("compile");
        w.open_arr();
        for c in &self.compiles {
            w.open_obj();
            w.field_str("name", &c.name);
            w.field_str("machine", c.machine.name());
            w.field_u64("funcs", c.metrics.funcs as u64);
            w.field_u64("spills", c.metrics.spills as u64);
            w.field_u64("slots_filled", c.stats.slots_filled as u64);
            w.field_u64("slots_noop", c.stats.slots_noop as u64);
            w.field_u64("carriers_useful", c.stats.carriers_useful as u64);
            w.field_u64("carriers_noop", c.stats.carriers_noop as u64);
            w.field_u64(
                "carriers_replaced_by_calc",
                c.stats.carriers_replaced_by_calc as u64,
            );
            w.field_u64("hoisted_calcs", c.stats.hoisted_calcs as u64);
            if times {
                w.field_u64("isel_ns", c.metrics.times.isel_ns);
                w.field_u64("regalloc_ns", c.metrics.times.regalloc_ns);
                w.field_u64("hoist_ns", c.metrics.times.hoist_ns);
                w.field_u64("emit_ns", c.metrics.times.emit_ns);
            }
            w.close_obj();
        }
        w.close_arr();

        w.close_obj();
        w.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_emu::Emulator;

    fn profile(src: &str, machine: Machine) -> (ProgramProfile, i32) {
        let exp = Experiment::new();
        let (prog, _) = exp.compile(src, machine).expect("compile");
        let mut hook = ProfileHook::new(&prog);
        let mut emu = Emulator::new(&prog);
        let exit = emu.run_with_hook(100_000_000, &mut hook).expect("run");
        (hook.finish("t", emu.measurements()), exit)
    }

    const LOOP: &str =
        "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return s % 256; }";

    #[test]
    fn universe_matches_the_decoder() {
        // Shared ops + baseline-only control flow vs BR-only calc ops.
        let base = opcode_universe(Machine::Baseline);
        let brm = opcode_universe(Machine::BranchReg);
        assert_ne!(base, brm);
        for (m, mask) in [(Machine::Baseline, base), (Machine::BranchReg, brm)] {
            for op in 0..NUM_OPCODES as u8 {
                assert_eq!(
                    mask & (1 << op) != 0,
                    decode(m, (op as u32) << 26).is_ok(),
                    "universe bit {op} on {m}"
                );
            }
        }
        // Spot-checks against the paper's format split.
        assert!(mnemonic(Machine::Baseline, 30).is_some(), "bcc is baseline");
        assert!(mnemonic(Machine::BranchReg, 30).is_none());
        assert!(mnemonic(Machine::BranchReg, 34).is_some(), "bcalc is BR");
        assert!(mnemonic(Machine::Baseline, 34).is_none());
    }

    #[test]
    fn profile_attributes_every_retire() {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (p, exit) = profile(LOOP, machine);
            assert_eq!(exit, (0..100).sum::<i32>() % 256);
            assert_eq!(p.retired, p.meas.instructions, "hook saw every retire");
            let op_sum: u64 = p.opcodes.iter().sum();
            assert_eq!(op_sum, p.retired, "every retire has an opcode");
            let block_sum: u64 = p.blocks.iter().map(|(_, n)| n).sum();
            assert_eq!(block_sum, p.retired, "every retire has a block");
            // The loop body dominates: the hottest block outweighs _start.
            assert!(p.blocks[0].1 > 3, "hot block on {machine}: {:?}", p.blocks);
            assert!(p.coverage.executed & !p.coverage.emitted == 0);
        }
    }

    #[test]
    fn breg_stats_track_the_loop_branch() {
        let (p, _) = profile(LOOP, Machine::BranchReg);
        let b = p.breg.expect("BR run has breg stats");
        let assigns: u64 = b.assigns.iter().sum();
        let uses: u64 = b.uses.iter().sum();
        assert!(assigns > 0, "hoisted bcalc assigns a breg");
        assert!(uses > 0, "the loop carrier reads a breg");
        // The hoisted loop target is assigned once, used ~100 times, and
        // its first use is beyond the tracked 8-instruction window or
        // within it — either way the histogram saw it.
        assert!(b.first_use_dist.iter().sum::<u64>() > 0);
        assert!(b.occupancy_sum > 0, "a target sat live across the loop");
        let (pb, _) = profile(LOOP, Machine::Baseline);
        assert!(pb.breg.is_none(), "baseline runs carry no breg stats");
    }

    #[test]
    fn coverage_kernel_executes_the_minic_unreachable_encodings() {
        let module = coverage_kernel();
        let expected = br_ir::Interpreter::new(&module)
            .run("main", &[])
            .expect("kernel interprets");
        let exp = Experiment::new();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp.compile_module_for(&module, machine).expect("compile");
            let mut hook = ProfileHook::new(&prog);
            let mut emu = Emulator::new(&prog);
            let exit = emu.run_with_hook(1_000_000, &mut hook).expect("run");
            assert_eq!(exit, expected, "kernel agrees on {machine}");
            let p = hook.finish("kernel", emu.measurements());
            let missing = p.coverage.missing_executed();
            for op in ["or", "srl"] {
                assert!(
                    !missing.contains(&op),
                    "kernel must execute `{op}` on {machine}; missing: {missing:?}"
                );
            }
        }
    }

    #[test]
    fn report_merges_and_serializes_deterministically() {
        let mut report = Report::default();
        let exp = Experiment::new();
        let module = br_frontend::compile(LOOP).unwrap();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let run = report.profile(&exp, "t", &module, machine).unwrap();
            assert_eq!(report.programs.last().unwrap().meas, run.meas);
        }
        let gaps = report.coverage_gaps();
        assert!(!gaps.is_empty(), "one tiny loop cannot cover the ISA");
        let j1 = report.to_json(5, false);
        let j2 = report.to_json(5, false);
        assert_eq!(j1, j2);
        assert!(j1.contains("\"missing_executed\""));
        assert!(j1.contains("\"branch_register\""));
        assert!(!j1.contains("_ns\""), "no wall times unless asked");
        assert!(report.to_json(5, true).contains("isel_ns"));
    }
}
