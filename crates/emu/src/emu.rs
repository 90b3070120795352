//! Cycle-level functional emulators for both machines.

use std::cell::Cell;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use br_isa::{abi, AluOp, FpuOp, ImageError, MInst, Machine, MemWidth, Program, Src2, TextWord};

use crate::hooks::ExecHook;
use crate::measure::Measurements;

/// Runtime errors during emulation. Most indicate a code-generation bug,
/// so the error carries the faulting PC for debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// PC left the text segment.
    BadFetch(u32),
    /// Attempted to execute an embedded data word (jump table).
    ExecutedData(u32),
    /// Data access outside simulated memory.
    BadMem { pc: u32, addr: u32 },
    /// Integer division by zero.
    DivByZero(u32),
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Baseline: a branch appeared inside a delay slot.
    BranchInDelaySlot(u32),
    /// An instruction illegal for this machine reached execution.
    WrongMachine(u32),
    /// The program image does not fit the memory map, so it was never
    /// loaded (see [`Program::check_layout`]).
    Image(ImageError),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadFetch(pc) => write!(f, "bad instruction fetch at {pc:#x}"),
            EmuError::ExecutedData(pc) => write!(f, "executed data word at {pc:#x}"),
            EmuError::BadMem { pc, addr } => {
                write!(f, "bad memory access to {addr:#x} at pc {pc:#x}")
            }
            EmuError::DivByZero(pc) => write!(f, "division by zero at pc {pc:#x}"),
            EmuError::OutOfFuel => write!(f, "instruction budget exhausted"),
            EmuError::BranchInDelaySlot(pc) => write!(f, "branch in delay slot at {pc:#x}"),
            EmuError::WrongMachine(pc) => write!(f, "illegal instruction at {pc:#x}"),
            EmuError::Image(e) => write!(f, "program image not loaded: {e}"),
        }
    }
}

impl std::error::Error for EmuError {}

/// An injectable fault, for torture-testing the emulator's error paths.
/// Steps are 0-based dynamic instruction indices (the value of
/// [`Measurements::instructions`] when the instruction begins executing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR data register `reg` with `xor_mask` just before step
    /// `at_step` executes (writes to `r0` are ignored, as in hardware).
    CorruptReg {
        at_step: u64,
        reg: u8,
        xor_mask: i32,
    },
    /// XOR the fetched instruction word with `xor_mask` at step
    /// `at_step` and re-decode it. An undecodable result surfaces as
    /// [`EmuError::WrongMachine`] — never a panic.
    CorruptInst { at_step: u64, xor_mask: u32 },
    /// Fail the first memory access at or after step `at_step` with
    /// [`EmuError::BadMem`].
    FailMem { at_step: u64 },
}

impl Fault {
    /// The first dynamic step at which this fault can fire.
    fn at_step(self) -> u64 {
        match self {
            Fault::CorruptReg { at_step, .. }
            | Fault::CorruptInst { at_step, .. }
            | Fault::FailMem { at_step } => at_step,
        }
    }
}

/// Prefetch-state of one branch register (drives the Figure 9 distance
/// accounting).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BrState {
    /// Dynamic instruction index at which the current value's target
    /// prefetch was initiated.
    pub(crate) assign_time: u64,
    /// Whether the value was produced by a compare-with-assignment
    /// (meaning a transfer through it is a *conditional* transfer).
    pub(crate) from_cond: bool,
}

/// Which execution engine [`Emulator::run_with_hook`] uses for
/// fault-free runs. Every tier produces byte-identical [`Measurements`],
/// hook event streams, and [`EmuError`]s — the tiers differ only in
/// speed, so the default is the fastest, [`ExecTier::Traced`]. Runs with
/// armed [`Fault`]s always use the interpreter regardless of the
/// selected tier (fault injection rewrites fetched words mid-run, which
/// the predecoded tiers cannot see).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// The reference match-loop interpreter: the semantics the other
    /// tiers are checked against.
    Interp,
    /// Tier 1: function-pointer threaded dispatch over a predecoded
    /// constant-folded operand table (see `dispatch.rs`).
    Threaded,
    /// Tier 2 (the default): threaded dispatch plus runtime-profiled
    /// superblock traces executed as pre-linked handler runs (see
    /// `trace.rs`).
    #[default]
    Traced,
}

impl ExecTier {
    /// All tiers, in escalation order.
    pub const ALL: [ExecTier; 3] = [ExecTier::Interp, ExecTier::Threaded, ExecTier::Traced];

    /// Stable lowercase name (benchmark metric suffix, torture report).
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Threaded => "threaded",
            ExecTier::Traced => "traced",
        }
    }
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// log2 of the page size [`GuestMem`] tracks writes in (4 KiB).
const PAGE_SHIFT: u32 = 12;
/// Pages of guest memory: 2,048 of 4 KiB.
const PAGES: usize = (abi::MEM_SIZE >> PAGE_SHIFT) as usize;

/// A thread's one-slot spare: its parked guest-memory buffer, all zero.
struct Spare(Cell<Option<Vec<u8>>>);

impl Drop for Spare {
    /// The thread is exiting: leave its buffer to the next new thread.
    fn drop(&mut self) {
        if let Some(bytes) = self.0.take() {
            orphans().push(bytes);
        }
    }
}

thread_local! {
    static SPARE: Spare = const { Spare(Cell::new(None)) };
}

/// Parked buffers of threads that have exited, all zero.
static ORPHANS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

fn orphans() -> MutexGuard<'static, Vec<Vec<u8>>> {
    ORPHANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The guest's [`abi::MEM_SIZE`] bytes, reused within a thread and
/// handed on when the thread exits.
///
/// A new `GuestMem` takes this thread's parked buffer, else one that an
/// exited thread left behind, else allocates a zeroed one (a second
/// live emulator on the same thread, or more threads running emulators
/// at once than before). Handing buffers on matters for short-lived
/// threads, such as the workers of each br-serve server: the allocator
/// may carve a fresh 8 MiB buffer from memory another thread freed and
/// zero it in full, which makes every page resident. Every write goes
/// through [`GuestMem::write`] or
/// [`GuestMem::span_mut`], which set the bit of each page they touch;
/// on drop only those pages are zeroed and the buffer is parked for the
/// thread's next emulator. So a parked buffer is all zero, and a run
/// reads exactly as on fresh memory while paying for the pages it
/// wrote instead of all 8 MiB. Reads go through `Deref`; there is no
/// `DerefMut`, so no write can skip its mark.
///
/// The `Drop` lives here rather than on [`Emulator`]: this type has no
/// lifetime, so it leaves the emulator's drop-check, and with it every
/// caller's borrows, as they were.
pub(crate) struct GuestMem {
    bytes: Vec<u8>,
    /// Bit `p` set: page `p` may hold a non-zero byte.
    dirty: [u64; PAGES / 64],
}

impl GuestMem {
    fn new() -> GuestMem {
        let bytes = SPARE
            .try_with(|spare| spare.0.take())
            .ok()
            .flatten()
            .or_else(|| orphans().pop())
            .unwrap_or_else(|| vec![0; abi::MEM_SIZE as usize]);
        GuestMem {
            bytes,
            dirty: [0; PAGES / 64],
        }
    }

    /// Mark page `p`. Callers pass the page of a byte inside memory, so
    /// `p < PAGES` and the modulo only drops the index check.
    #[inline(always)]
    fn mark_page(&mut self, p: usize) {
        self.dirty[p / 64 % (PAGES / 64)] |= 1 << (p % 64);
    }

    /// The `len` bytes at `a`, with their pages marked. Panics when the
    /// span leaves memory, so the image load checks the layout first.
    fn span_mut(&mut self, a: usize, len: usize) -> &mut [u8] {
        for p in a >> PAGE_SHIFT..(a + len).div_ceil(1 << PAGE_SHIFT) {
            self.mark_page(p);
        }
        &mut self.bytes[a..a + len]
    }

    /// Write `v` at `a` and mark the pages of its first and last byte
    /// (stores need not be aligned, so a word may straddle two pages).
    /// `None`, with nothing written or marked, when any byte lies
    /// outside memory.
    #[inline(always)]
    fn write<const N: usize>(&mut self, a: usize, v: [u8; N]) -> Option<()> {
        self.bytes.get_mut(a..a + N)?.copy_from_slice(&v);
        self.mark_page(a >> PAGE_SHIFT);
        self.mark_page((a + N - 1) >> PAGE_SHIFT);
        Some(())
    }
}

impl std::ops::Deref for GuestMem {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for GuestMem {
    /// Zero the marked pages and park the buffer. It also runs while a
    /// panic unwinds through a run. During thread teardown the slot may
    /// already be gone, and the buffer is then simply freed.
    fn drop(&mut self) {
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                self.bytes[p << PAGE_SHIFT..(p + 1) << PAGE_SHIFT].fill(0);
                bits &= bits - 1;
            }
        }
        let bytes = std::mem::take(&mut self.bytes);
        let _ = SPARE.try_with(|spare| spare.0.set(Some(bytes)));
    }
}

/// An emulator instance bound to one assembled [`Program`].
///
/// # Example
///
/// ```no_run
/// use br_emu::Emulator;
/// # fn get_program() -> br_isa::Program { unimplemented!() }
/// let program = get_program();
/// let mut emu = Emulator::new(&program);
/// let exit = emu.run(1_000_000)?;
/// println!("exit={exit}, {} instructions", emu.measurements().instructions);
/// # Ok::<(), br_emu::EmuError>(())
/// ```
///
/// A run that stops with [`EmuError::OutOfFuel`] resumes exactly: the
/// next `run` (with a larger budget, since the budget counts every
/// instruction the emulator has retired) continues where the first
/// stopped, on either machine and every tier, and ends with the exit and
/// [`Measurements`] of an uninterrupted run. On the baseline machine
/// that includes a taken delayed branch whose delay slot has not run
/// yet. Any other error ends the run: registers, memory,
/// [`Emulator::pc`] and the measurements stay readable.
///
/// Guest memory is reused: dropping an emulator zeroes the pages its run
/// wrote and keeps the buffer for the thread's next one, or for a new
/// thread once this one exits, so every emulator's memory reads as
/// freshly zeroed outside its program image.
pub struct Emulator<'p> {
    pub(crate) prog: &'p Program,
    /// Predecoded text segment: one [`MInst`] per text word, built once
    /// at construction so the hot loop fetches by dense index instead of
    /// re-matching [`TextWord`] per dynamic instruction. Data words hold
    /// a placeholder and are marked in [`Emulator::data_word`]; fetching
    /// one still reports [`EmuError::ExecutedData`].
    decoded: Vec<MInst>,
    /// `data_word[i]` ⇔ text word `i` is embedded data (jump table).
    data_word: Vec<bool>,
    /// Flattened constant-folded operands for the threaded/traced tiers
    /// (one [`br_isa::decoded::Decoded`] per text word, data words
    /// included). Built lazily on the first non-interpreter run.
    pub(crate) ops: Vec<br_isa::decoded::Decoded>,
    /// Selected execution engine for fault-free runs.
    tier: ExecTier,
    /// Superblock cache of the traced tier (lazily created).
    pub(crate) engine: Option<Box<crate::trace::TraceEngine>>,
    pub(crate) mem: GuestMem,
    pub(crate) regs: [i32; 32],
    pub(crate) fregs: [f32; 32],
    pub(crate) bregs: [u32; 8],
    pub(crate) brstate: [BrState; 8],
    /// Last integer compare operands (baseline condition codes).
    pub(crate) cc: (i32, i32),
    /// Last float compare operands.
    pub(crate) fcc: (f32, f32),
    pub(crate) pc: u32,
    /// Baseline machine: the target of a taken delayed branch whose
    /// delay slot (at `pc`) has not run when a run stopped out of fuel.
    /// The run loops keep it in a local and store it here only on that
    /// return, so the next run resumes inside the delay slot.
    pub(crate) pending: Option<u32>,
    pub(crate) meas: Measurements,
    /// Pending injected faults (see [`Fault`]).
    faults: Vec<Fault>,
    /// Smallest `at_step` among the queued faults (`u64::MAX` when the
    /// queue is empty), so the instrumented loop pays one integer
    /// compare per instruction instead of a queue scan.
    next_fault_step: u64,
    /// Armed by [`Fault::FailMem`]: the next load/store reports `BadMem`.
    fail_mem: bool,
    /// The `(addr, value)` written by the currently executing
    /// instruction, reported to [`ExecHook::retire`].
    pub(crate) last_store: Option<(u32, i32)>,
    /// Diagnostic: instructions retired inside superblock traces
    /// (subset of `meas.instructions`; always 0 off the traced tier).
    pub(crate) trace_insts: u64,
    /// Why the image could not be loaded; every run reports it.
    image_error: Option<ImageError>,
}

impl<'p> Emulator<'p> {
    /// Create an emulator with the program loaded: text copied at
    /// [`abi::TEXT_BASE`] (so jump tables are readable), data at
    /// [`abi::DATA_BASE`], stack pointer at [`abi::STACK_TOP`].
    ///
    /// An image that does not fit the memory map (one that skipped
    /// [`Program::validate_image`], such as a decoded artifact) is not
    /// loaded; every run then fails with [`EmuError::Image`].
    pub fn new(prog: &'p Program) -> Emulator<'p> {
        let mut mem = GuestMem::new();
        let image_error = prog.check_layout().err();
        if image_error.is_none() {
            let text = mem.span_mut(abi::TEXT_BASE as usize, 4 * prog.code.len());
            for (dst, w) in text.chunks_exact_mut(4).zip(&prog.code) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            mem.span_mut(abi::DATA_BASE as usize, prog.data.len())
                .copy_from_slice(&prog.data);
        }
        let mut regs = [0i32; 32];
        let sp = match prog.machine {
            Machine::Baseline => abi::BASE_SP,
            Machine::BranchReg => abi::BR_SP,
        };
        regs[sp.0 as usize] = abi::STACK_TOP as i32;
        let mut decoded = Vec::with_capacity(prog.text.len());
        let mut data_word = vec![false; prog.text.len()];
        for (i, w) in prog.text.iter().enumerate() {
            match w {
                TextWord::Inst(inst) => decoded.push(*inst),
                TextWord::Data(_) => {
                    // Placeholder only; `fetch` checks `data_word` first,
                    // so this can never execute.
                    decoded.push(MInst::Halt);
                    data_word[i] = true;
                }
            }
        }
        Emulator {
            prog,
            decoded,
            data_word,
            ops: Vec::new(),
            tier: ExecTier::default(),
            engine: None,
            mem,
            regs,
            fregs: [0.0; 32],
            bregs: [0; 8],
            brstate: [BrState {
                assign_time: 0,
                from_cond: false,
            }; 8],
            cc: (0, 0),
            fcc: (0.0, 0.0),
            pc: prog.entry,
            pending: None,
            meas: Measurements::new(),
            faults: Vec::new(),
            next_fault_step: u64::MAX,
            fail_mem: false,
            last_store: None,
            trace_insts: 0,
            image_error,
        }
    }

    /// Select the execution engine for fault-free runs (default:
    /// [`ExecTier::Traced`]).
    pub fn with_tier(mut self, tier: ExecTier) -> Emulator<'p> {
        self.tier = tier;
        self
    }

    /// The selected execution tier.
    pub fn tier(&self) -> ExecTier {
        self.tier
    }

    /// Diagnostic: how many retired instructions ran inside superblock
    /// traces (a subset of [`Measurements::instructions`]; always 0 on
    /// the interpreter and threaded tiers). Exposed so benchmarks can
    /// report trace coverage.
    pub fn traced_insts(&self) -> u64 {
        self.trace_insts
    }

    /// The collected dynamic measurements.
    pub fn measurements(&self) -> &Measurements {
        &self.meas
    }

    /// The current program counter — the faulting address after an
    /// error, the halt address after a clean run.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Arm an injected [`Fault`]. Multiple faults may be queued; each
    /// fires once. The emulator must surface every injected fault as a
    /// typed [`EmuError`] (or survive it) — never panic or wedge.
    pub fn inject(&mut self, fault: Fault) {
        self.next_fault_step = self.next_fault_step.min(fault.at_step());
        self.faults.push(fault);
    }

    /// Read a 32-bit word from simulated memory (for checking results).
    /// Returns `None` when any byte of the word lies outside memory,
    /// including addresses where `addr + 4` would overflow.
    pub fn read_word(&self, addr: u32) -> Option<i32> {
        let end = addr.checked_add(4)? as usize;
        self.mem
            .get(addr as usize..end)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Value of a data register.
    pub fn reg(&self, n: u8) -> i32 {
        self.regs[n as usize]
    }

    /// Run to `halt` with no hooks.
    ///
    /// With no hook and no armed faults this takes the fully
    /// monomorphized fast path: [`NoHook`](crate::hooks::NoHook)'s empty
    /// callbacks inline to nothing and the fault queue is never scanned.
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    pub fn run(&mut self, fuel: u64) -> Result<i32, EmuError> {
        self.run_with_hook(fuel, &mut crate::hooks::NoHook)
    }

    /// Run to `halt`, reporting fetches, prefetches, and retirements to
    /// `hook` (used by the instruction-cache simulator and the torture
    /// oracle).
    ///
    /// The interpreter loop is generic over the hook type, so a concrete
    /// `H` (e.g. `NoHook`, `TraceHook`, `ICacheSim`) monomorphizes with
    /// its callbacks inlined; passing `&mut dyn ExecHook` still works and
    /// dispatches virtually. When no injected fault is armed, execution
    /// takes a fast path that never scans the fault queue; [`inject`]ing
    /// any fault routes the whole run through the instrumented loop.
    ///
    /// [`inject`]: Emulator::inject
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    pub fn run_with_hook<H: ExecHook + ?Sized>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<i32, EmuError> {
        if let Some(e) = &self.image_error {
            return Err(EmuError::Image(e.clone()));
        }
        let instrumented = !self.faults.is_empty() || self.fail_mem;
        if instrumented {
            // Fault injection rewrites fetched words and registers
            // mid-run; only the interpreter supports that, so armed
            // faults route every tier through the instrumented loop.
            return match self.prog.machine {
                Machine::Baseline => self.run_baseline::<H, true>(fuel, hook),
                Machine::BranchReg => self.run_brmachine::<H, true>(fuel, hook),
            };
        }
        match (self.tier, self.prog.machine) {
            (ExecTier::Interp, Machine::Baseline) => self.run_baseline::<H, false>(fuel, hook),
            (ExecTier::Interp, Machine::BranchReg) => self.run_brmachine::<H, false>(fuel, hook),
            (ExecTier::Threaded, machine) => {
                self.ensure_ops();
                match machine {
                    Machine::Baseline => self.run_baseline_threaded::<H, false>(fuel, hook),
                    Machine::BranchReg => self.run_brmachine_threaded::<H, false>(fuel, hook),
                }
            }
            (ExecTier::Traced, machine) => {
                self.ensure_ops();
                self.ensure_engine();
                match machine {
                    Machine::Baseline => self.run_baseline_threaded::<H, true>(fuel, hook),
                    Machine::BranchReg => self.run_brmachine_threaded::<H, true>(fuel, hook),
                }
            }
        }
    }

    /// Build the flattened operand table on first use by a
    /// non-interpreter tier.
    fn ensure_ops(&mut self) {
        if self.ops.len() != self.prog.text.len() {
            self.ops = br_isa::decoded::predecode(self.prog);
        }
    }

    /// Create the superblock cache on first use by the traced tier.
    fn ensure_engine(&mut self) {
        if self.engine.is_none() {
            self.engine = Some(Box::new(crate::trace::TraceEngine::new(self.ops.len())));
        }
    }

    /// Fetch from the predecoded side table: a wrapping subtract and one
    /// dense index, with data words trapped via the `data_word` mark.
    #[inline(always)]
    fn fetch(&self, pc: u32) -> Result<MInst, EmuError> {
        let off = pc.wrapping_sub(abi::TEXT_BASE);
        let idx = (off >> 2) as usize;
        if off & 3 != 0 || idx >= self.decoded.len() {
            return Err(EmuError::BadFetch(pc));
        }
        if self.data_word[idx] {
            return Err(EmuError::ExecutedData(pc));
        }
        Ok(self.decoded[idx])
    }

    /// Apply any injected faults due at the current step. Called after
    /// fetch, before execution; may replace the fetched instruction.
    /// The hot instrumented loop only calls this once
    /// `Measurements::instructions` reaches [`Emulator::next_fault_step`],
    /// so the per-instruction cost of an armed-but-not-yet-due fault is
    /// a single compare rather than a queue scan.
    #[cold]
    fn apply_faults(&mut self, pc: u32, inst: MInst) -> Result<MInst, EmuError> {
        if self.faults.is_empty() {
            return Ok(inst);
        }
        let step = self.meas.instructions;
        let mut inst = inst;
        let mut i = 0;
        while i < self.faults.len() {
            match self.faults[i] {
                Fault::CorruptReg {
                    at_step,
                    reg,
                    xor_mask,
                } if at_step == step => {
                    let r = (reg & 31) as usize;
                    if r != 0 {
                        self.regs[r] ^= xor_mask;
                    }
                    self.faults.remove(i);
                }
                Fault::CorruptInst { at_step, xor_mask } if at_step == step => {
                    let idx = pc.wrapping_sub(abi::TEXT_BASE) / 4;
                    let raw = *self
                        .prog
                        .code
                        .get(idx as usize)
                        .ok_or(EmuError::BadFetch(pc))?;
                    inst = br_isa::decode(self.prog.machine, raw ^ xor_mask)
                        .map_err(|_| EmuError::WrongMachine(pc))?;
                    self.faults.remove(i);
                }
                Fault::FailMem { at_step } if at_step <= step => {
                    self.fail_mem = true;
                    self.faults.remove(i);
                }
                _ => i += 1,
            }
        }
        self.next_fault_step = self
            .faults
            .iter()
            .map(|f| f.at_step())
            .min()
            .unwrap_or(u64::MAX);
        Ok(inst)
    }

    pub(crate) fn load(&mut self, pc: u32, addr: u32, w: MemWidth) -> Result<i32, EmuError> {
        self.meas.data_refs += 1;
        if self.fail_mem {
            self.fail_mem = false;
            return Err(EmuError::BadMem { pc, addr });
        }
        let a = addr as usize;
        match w {
            MemWidth::Byte => self
                .mem
                .get(a)
                .map(|&b| b as i32)
                .ok_or(EmuError::BadMem { pc, addr }),
            MemWidth::Word => self
                .mem
                .get(a..a + 4)
                .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
                .ok_or(EmuError::BadMem { pc, addr }),
        }
    }

    pub(crate) fn store(
        &mut self,
        pc: u32,
        addr: u32,
        v: i32,
        w: MemWidth,
    ) -> Result<(), EmuError> {
        self.meas.data_refs += 1;
        if self.fail_mem {
            self.fail_mem = false;
            return Err(EmuError::BadMem { pc, addr });
        }
        let a = addr as usize;
        let written = match w {
            MemWidth::Byte => self.mem.write(a, [v as u8]),
            MemWidth::Word => self.mem.write(a, v.to_le_bytes()),
        };
        written.ok_or(EmuError::BadMem { pc, addr })?;
        self.last_store = Some((addr, v));
        Ok(())
    }

    fn set_reg(&mut self, r: br_isa::Reg, v: i32) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    fn src2(&self, s: Src2) -> i32 {
        match s {
            Src2::Reg(r) => self.regs[r.0 as usize],
            Src2::Imm(v) => v,
        }
    }

    fn alu(&self, pc: u32, op: AluOp, a: i32, b: i32) -> Result<i32, EmuError> {
        Ok(match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return Err(EmuError::DivByZero(pc));
                }
                a.wrapping_div(b)
            }
            AluOp::Rem => {
                if b == 0 {
                    return Err(EmuError::DivByZero(pc));
                }
                a.wrapping_rem(b)
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 31),
            AluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
            AluOp::Sra => a >> (b as u32 & 31),
            AluOp::OrLo => a | b, // immediate already zero-extended
        })
    }

    /// Execute the machine-independent instruction body. Returns `true`
    /// if the instruction was handled.
    fn exec_shared(&mut self, pc: u32, inst: MInst) -> Result<bool, EmuError> {
        match inst {
            MInst::Nop { .. } => {
                self.meas.noops += 1;
            }
            MInst::Alu {
                op, rd, rs1, src2, ..
            } => {
                let v = self.alu(pc, op, self.regs[rs1.0 as usize], self.src2(src2))?;
                self.set_reg(rd, v);
            }
            MInst::Sethi { rd, imm } => self.set_reg(rd, (imm << 11) as i32),
            MInst::Load {
                w, rd, rs1, off, ..
            } => {
                let addr = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                let v = self.load(pc, addr, w)?;
                self.set_reg(rd, v);
            }
            MInst::LoadF { fd, rs1, off, .. } => {
                let addr = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                let v = self.load(pc, addr, MemWidth::Word)?;
                self.fregs[fd.0 as usize] = f32::from_bits(v as u32);
            }
            MInst::Store {
                w, rs, rs1, off, ..
            } => {
                let addr = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                self.store(pc, addr, self.regs[rs.0 as usize], w)?;
            }
            MInst::StoreF { fs, rs1, off, .. } => {
                let addr = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                self.store(
                    pc,
                    addr,
                    self.fregs[fs.0 as usize].to_bits() as i32,
                    MemWidth::Word,
                )?;
            }
            MInst::Fpu {
                op, fd, fs1, fs2, ..
            } => {
                let a = self.fregs[fs1.0 as usize];
                let b = self.fregs[fs2.0 as usize];
                self.fregs[fd.0 as usize] = match op {
                    FpuOp::FAdd => a + b,
                    FpuOp::FSub => a - b,
                    FpuOp::FMul => a * b,
                    FpuOp::FDiv => a / b,
                };
            }
            MInst::FNeg { fd, fs, .. } => self.fregs[fd.0 as usize] = -self.fregs[fs.0 as usize],
            MInst::FMov { fd, fs, .. } => self.fregs[fd.0 as usize] = self.fregs[fs.0 as usize],
            MInst::ItoF { fd, rs, .. } => {
                self.fregs[fd.0 as usize] = self.regs[rs.0 as usize] as f32
            }
            MInst::FtoI { rd, fs, .. } => {
                let v = self.fregs[fs.0 as usize];
                self.set_reg(rd, v as i32);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    // ---------------- baseline machine ----------------

    fn run_baseline<H: ExecHook + ?Sized, const INSTRUMENTED: bool>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<i32, EmuError> {
        // `pending`: target of a taken delayed branch; the instruction at
        // `pc` (the delay slot) executes first.
        let mut pending = self.pending.take();
        loop {
            if self.meas.instructions >= fuel {
                self.pending = pending;
                return Err(EmuError::OutOfFuel);
            }
            let pc = self.pc;
            let mut inst = self.fetch(pc)?;
            if INSTRUMENTED && self.meas.instructions >= self.next_fault_step {
                inst = self.apply_faults(pc, inst)?;
            }
            hook.fetch(pc);
            self.meas.instructions += 1;
            self.last_store = None;
            let in_delay_slot = pending.is_some();

            if self.exec_shared(pc, inst)? {
                // fall through
            } else {
                match inst {
                    MInst::Halt => {
                        hook.retire(pc, None);
                        return Ok(self.regs[1]);
                    }
                    MInst::Cmp { rs1, src2 } => {
                        self.cc = (self.regs[rs1.0 as usize], self.src2(src2));
                    }
                    MInst::FCmp { fs1, fs2 } => {
                        self.fcc = (self.fregs[fs1.0 as usize], self.fregs[fs2.0 as usize]);
                    }
                    MInst::Bcc { cc, float, disp } => {
                        if in_delay_slot {
                            return Err(EmuError::BranchInDelaySlot(pc));
                        }
                        self.meas.transfers += 1;
                        self.meas.cond_transfers += 1;
                        let taken = if float {
                            cc.eval_float(self.fcc.0, self.fcc.1)
                        } else {
                            cc.eval_int(self.cc.0, self.cc.1)
                        };
                        if taken {
                            self.meas.cond_taken += 1;
                            pending = Some(pc.wrapping_add((disp as u32) << 2));
                            hook.retire(pc, None);
                            self.pc = pc + 4;
                            continue;
                        }
                    }
                    MInst::Ba { disp } => {
                        if in_delay_slot {
                            return Err(EmuError::BranchInDelaySlot(pc));
                        }
                        self.meas.transfers += 1;
                        self.meas.uncond_transfers += 1;
                        pending = Some(pc.wrapping_add((disp as u32) << 2));
                        hook.retire(pc, None);
                        self.pc = pc + 4;
                        continue;
                    }
                    MInst::Call { disp } => {
                        if in_delay_slot {
                            return Err(EmuError::BranchInDelaySlot(pc));
                        }
                        self.meas.transfers += 1;
                        self.meas.uncond_transfers += 1;
                        self.regs[abi::BASE_LINK.0 as usize] = (pc + 8) as i32;
                        pending = Some(pc.wrapping_add((disp as u32) << 2));
                        hook.retire(pc, None);
                        self.pc = pc + 4;
                        continue;
                    }
                    MInst::Jmpl { rd, rs1, off } => {
                        if in_delay_slot {
                            return Err(EmuError::BranchInDelaySlot(pc));
                        }
                        self.meas.transfers += 1;
                        self.meas.uncond_transfers += 1;
                        let target = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                        self.set_reg(rd, (pc + 8) as i32);
                        pending = Some(target);
                        hook.retire(pc, None);
                        self.pc = pc + 4;
                        continue;
                    }
                    _ => return Err(EmuError::WrongMachine(pc)),
                }
            }

            // Advance: if we just executed a delay slot, complete the branch.
            hook.retire(pc, self.last_store.take());
            self.pc = match pending.take() {
                Some(t) => t,
                None => pc + 4,
            };
        }
    }

    // ---------------- branch-register machine ----------------

    fn assign_breg<H: ExecHook + ?Sized>(
        &mut self,
        bd: u8,
        value: u32,
        from_cond: bool,
        assign_time: u64,
        hook: &mut H,
    ) {
        self.bregs[bd as usize] = value;
        self.brstate[bd as usize] = BrState {
            assign_time,
            from_cond,
        };
        // Assigning a branch register directs the instruction cache to
        // prefetch the target line (paper Section 8).
        hook.prefetch(value);
    }

    fn run_brmachine<H: ExecHook + ?Sized, const INSTRUMENTED: bool>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<i32, EmuError> {
        loop {
            if self.meas.instructions >= fuel {
                return Err(EmuError::OutOfFuel);
            }
            let pc = self.pc;
            let mut inst = self.fetch(pc)?;
            if INSTRUMENTED && self.meas.instructions >= self.next_fault_step {
                inst = self.apply_faults(pc, inst)?;
            }
            hook.fetch(pc);
            self.meas.instructions += 1;
            self.last_store = None;
            let now = self.meas.instructions;
            let seq = pc + 4;

            // The br field is read during decode: the next-instruction
            // address comes from the branch register's *current* value.
            // Exception: a compare-with-assignment carrying its own br
            // field is the Section 9 "fast compare" — it tests the
            // condition during decode and transfers through the value it
            // just selected.
            let br = inst.br();
            let fused = br != 0 && matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. });
            let mut next = if br == 0 {
                seq
            } else {
                self.bregs[br as usize]
            };

            if self.exec_shared(pc, inst)? {
                // shared body done
            } else {
                match inst {
                    MInst::Halt => {
                        hook.retire(pc, None);
                        return Ok(self.regs[1]);
                    }
                    MInst::Bcalc { bd, disp, br: _ } => {
                        self.meas.addr_calcs += 1;
                        let target = pc.wrapping_add((disp as u32) << 2);
                        self.assign_breg(bd.0, target, false, now, hook);
                    }
                    MInst::BMovR { bd, rs1, off, .. } => {
                        self.meas.addr_calcs += 1;
                        let target = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                        self.assign_breg(bd.0, target, false, now, hook);
                    }
                    MInst::BMovB { bd, bs, .. } => {
                        self.meas.addr_calcs += 1;
                        // Reading b[0] yields the next sequential address.
                        let v = if bs.0 == 0 {
                            seq
                        } else {
                            self.bregs[bs.0 as usize]
                        };
                        let src_state = self.brstate[bs.0 as usize];
                        self.assign_breg(bd.0, v, false, now, hook);
                        // Moving an already-prefetched register preserves
                        // its prefetch time.
                        if bs.0 != 0 {
                            self.brstate[bd.0 as usize].assign_time = src_state.assign_time;
                        }
                    }
                    MInst::BLoad { bd, rs1, src2, .. } => {
                        self.meas.addr_calcs += 1;
                        self.meas.br_restores += 1;
                        let addr =
                            (self.regs[rs1.0 as usize] as u32).wrapping_add(self.src2(src2) as u32);
                        let v = self.load(pc, addr, MemWidth::Word)? as u32;
                        self.assign_breg(bd.0, v, false, now, hook);
                    }
                    MInst::BStore { bs, rs1, off, .. } => {
                        self.meas.br_saves += 1;
                        let addr = (self.regs[rs1.0 as usize] as u32).wrapping_add(off as u32);
                        self.store(pc, addr, self.bregs[bs.0 as usize] as i32, MemWidth::Word)?;
                    }
                    MInst::CmpBr {
                        cc, bt, rs1, src2, ..
                    } => {
                        let taken = cc.eval_int(self.regs[rs1.0 as usize], self.src2(src2));
                        self.exec_cmpbr(taken, bt.0, pc, now, fused);
                    }
                    MInst::FCmpBr {
                        cc, bt, fs1, fs2, ..
                    } => {
                        let taken =
                            cc.eval_float(self.fregs[fs1.0 as usize], self.fregs[fs2.0 as usize]);
                        self.exec_cmpbr(taken, bt.0, pc, now, fused);
                    }
                    _ => return Err(EmuError::WrongMachine(pc)),
                }
            }

            // A fused compare transfers through the value it just wrote.
            if fused {
                next = self.bregs[br as usize];
            }
            // Transfer bookkeeping and the b[7] return-address side effect.
            if br != 0 {
                self.meas.transfers += 1;
                let st = self.brstate[br as usize];
                if st.from_cond {
                    self.meas.cond_transfers += 1;
                } else {
                    self.meas.uncond_transfers += 1;
                }
                let dist = now.saturating_sub(st.assign_time);
                self.meas.record_dist(dist, st.from_cond);
                // "Every instruction that references a branch register that
                // is not the PC stores the address of the next physical
                // instruction into b[7]."
                self.bregs[7] = seq;
                self.brstate[7] = BrState {
                    assign_time: now,
                    from_cond: false,
                };
            }

            hook.retire(pc, self.last_store.take());
            self.pc = next;
        }
    }

    pub(crate) fn exec_cmpbr(&mut self, taken: bool, bt: u8, pc: u32, now: u64, fused: bool) {
        if taken {
            self.meas.cond_taken += 1;
            let target = self.bregs[bt as usize];
            let src_time = self.brstate[bt as usize].assign_time;
            self.bregs[7] = target;
            self.brstate[7] = BrState {
                // A taken conditional consumes the prefetch done when the
                // *target* register was assigned.
                assign_time: src_time,
                from_cond: true,
            };
            let _ = now;
        } else {
            // Fall-through address: past the carrier that follows this
            // compare (the compiler guarantees adjacency), or past the
            // compare itself in the fused fast-compare form.
            self.bregs[7] = if fused { pc + 4 } else { pc + 8 };
            self.brstate[7] = BrState {
                // Sequential instructions are always prefetched.
                assign_time: 0,
                from_cond: true,
            };
        }
        let _ = pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::{AsmFunc, AsmItem, AsmProgram, BReg, Cc, Label, Reg, Reloc, SymRef};

    fn asm_main(machine: Machine, items: Vec<AsmItem>) -> Program {
        let mut p = AsmProgram::new(machine);
        p.funcs.push(AsmFunc {
            name: "main".to_string(),
            items,
        });
        p.assemble().unwrap()
    }

    fn alu(rd: u8, rs1: u8, imm: i32, br: u8) -> MInst {
        MInst::Alu {
            op: AluOp::Add,
            rd: Reg(rd),
            rs1: Reg(rs1),
            src2: Src2::Imm(imm),
            br,
        }
    }

    /// Run `prog` hook-free on every [`ExecTier`] and assert that the
    /// tiers agree on the result, `pc()`, the register file and the
    /// [`Measurements`]. Returns the reference interpreter's run.
    fn run_every_tier(prog: &Program, fuel: u64) -> (Result<i32, EmuError>, Emulator<'_>) {
        let runs = ExecTier::ALL.map(|tier| {
            let mut emu = Emulator::new(prog).with_tier(tier);
            (emu.run(fuel), emu)
        });
        let [reference, rest @ ..] = runs;
        assert_eq!(reference.1.tier(), ExecTier::Interp);
        let regs = |emu: &Emulator| (0..32).map(|r| emu.reg(r)).collect::<Vec<_>>();
        for (res, emu) in &rest {
            let tier = emu.tier();
            assert_eq!(*res, reference.0, "result on {tier}");
            assert_eq!(emu.pc(), reference.1.pc(), "pc() on {tier}");
            assert_eq!(regs(emu), regs(&reference.1), "registers on {tier}");
            assert_eq!(
                emu.measurements(),
                reference.1.measurements(),
                "measurements on {tier}"
            );
        }
        reference
    }

    #[test]
    fn baseline_returns_value_via_r1() {
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(alu(1, 0, 7, 0), None),
                AsmItem::Inst(
                    MInst::Jmpl {
                        rd: Reg(0),
                        rs1: abi::BASE_LINK,
                        off: 0,
                    },
                    None,
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        let (res, emu) = run_every_tier(&prog, 1000);
        assert_eq!(res, Ok(7));
        // call, nop(delay), add, jmpl, nop(delay), halt = 6 instructions
        assert_eq!(emu.measurements().instructions, 6);
        assert_eq!(emu.measurements().transfers, 2); // call + jmpl
        assert_eq!(emu.measurements().noops, 2);
    }

    #[test]
    fn baseline_delay_slot_executes() {
        // ba over an add, with the delay slot still setting r1.
        let l = Label(0);
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(MInst::Ba { disp: 0 }, Some(Reloc::Disp(SymRef::Label(l)))),
                AsmItem::Inst(alu(1, 0, 5, 0), None), // delay slot: executes
                AsmItem::Inst(alu(1, 0, 99, 0), None), // skipped
                AsmItem::Label(l),
                AsmItem::Inst(
                    MInst::Jmpl {
                        rd: Reg(0),
                        rs1: abi::BASE_LINK,
                        off: 0,
                    },
                    None,
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        assert_eq!(run_every_tier(&prog, 1000).0, Ok(5));
    }

    #[test]
    fn baseline_conditional_branch_taken_and_not() {
        // r2 = 3; cmp r2, 3; beq L; (delay nop); r1 = 1; L: jmpl
        let l = Label(0);
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(alu(2, 0, 3, 0), None),
                AsmItem::Inst(
                    MInst::Cmp {
                        rs1: Reg(2),
                        src2: Src2::Imm(3),
                    },
                    None,
                ),
                AsmItem::Inst(
                    MInst::Bcc {
                        cc: Cc::Eq,
                        float: false,
                        disp: 0,
                    },
                    Some(Reloc::Disp(SymRef::Label(l))),
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
                AsmItem::Inst(alu(1, 0, 99, 0), None), // skipped when taken
                AsmItem::Label(l),
                AsmItem::Inst(
                    MInst::Jmpl {
                        rd: Reg(0),
                        rs1: abi::BASE_LINK,
                        off: 0,
                    },
                    None,
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        let (res, emu) = run_every_tier(&prog, 1000);
        assert_eq!(res, Ok(0));
        assert_eq!(emu.measurements().cond_transfers, 1);
        assert_eq!(emu.measurements().cond_taken, 1);
    }

    #[test]
    fn br_machine_returns_via_b7() {
        // main body: r1 = 7 with br=7 (return through b[7] set by the stub).
        let prog = asm_main(
            Machine::BranchReg,
            vec![AsmItem::Inst(alu(1, 0, 7, 7), None)],
        );
        let (res, emu) = run_every_tier(&prog, 1000);
        assert_eq!(res, Ok(7));
        // stub: sethi, bmovr, nop[br=1], then add[br=7], halt = 5
        assert_eq!(emu.measurements().instructions, 5);
        assert_eq!(emu.measurements().transfers, 2); // nop[br=1] + add[br=7]
        assert_eq!(emu.measurements().addr_calcs, 1); // the bmovr
        assert_eq!(emu.measurements().noops, 1);
    }

    #[test]
    fn br_machine_unconditional_loop_via_bcalc() {
        // r2 = 3; bcalc b2 = L; L: r1 += 1; r2 -= 1; cmpbr r2 != 0 -> b2;
        // carrier nop br=7; return via b1 (stub's b7 was moved to b1).
        let l = Label(0);
        let items = vec![
            // save return address: b1 is written by stub's bmovr... stub
            // uses b1 for the call target, so b[7] holds the return.
            // Move it to b3 for safekeeping.
            AsmItem::Inst(
                MInst::BMovB {
                    bd: BReg(3),
                    bs: BReg(7),
                    br: 0,
                },
                None,
            ),
            AsmItem::Inst(alu(2, 0, 3, 0), None),
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(2),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(l))),
            ),
            AsmItem::Label(l),
            AsmItem::Inst(alu(1, 1, 1, 0), None),
            AsmItem::Inst(alu(2, 2, -1, 0), None),
            AsmItem::Inst(
                MInst::CmpBr {
                    cc: Cc::Ne,
                    bt: BReg(2),
                    rs1: Reg(2),
                    src2: Src2::Imm(0),
                    br: 0,
                },
                None,
            ),
            AsmItem::Inst(MInst::Nop { br: 7 }, None),
            AsmItem::Inst(MInst::Nop { br: 3 }, None), // return
        ];
        let prog = asm_main(Machine::BranchReg, items);
        let (res, emu) = run_every_tier(&prog, 1000);
        assert_eq!(res, Ok(3));
        let m = emu.measurements();
        // 3 conditional transfers (2 taken + 1 fall-through).
        assert_eq!(m.cond_transfers, 3);
        assert_eq!(m.cond_taken, 2);
        // Address calcs: stub bmovr + bmovb + bcalc (each executed once —
        // the bcalc is "outside the loop").
        assert_eq!(m.addr_calcs, 3);
    }

    #[test]
    fn br_machine_b7_side_effect_is_return_address() {
        // Demonstrate call/return: main calls f via b4; f returns via b7.
        let mut p = AsmProgram::new(Machine::BranchReg);
        p.funcs.push(AsmFunc {
            name: "main".to_string(),
            items: vec![
                AsmItem::Inst(
                    MInst::BMovB {
                        bd: BReg(3),
                        bs: BReg(7),
                        br: 0,
                    },
                    None,
                ),
                AsmItem::Inst(
                    MInst::Sethi {
                        rd: abi::BR_TEMP,
                        imm: 0,
                    },
                    Some(Reloc::Hi(SymRef::Func("f".into()))),
                ),
                AsmItem::Inst(
                    MInst::BMovR {
                        bd: BReg(4),
                        rs1: abi::BR_TEMP,
                        off: 0,
                        br: 0,
                    },
                    Some(Reloc::Lo(SymRef::Func("f".into()))),
                ),
                AsmItem::Inst(MInst::Nop { br: 4 }, None), // call f
                AsmItem::Inst(alu(1, 1, 10, 3), None),     // r1 += 10; return
            ],
        });
        p.funcs.push(AsmFunc {
            name: "f".to_string(),
            items: vec![AsmItem::Inst(alu(1, 0, 5, 7), None)], // r1 = 5; ret
        });
        let prog = p.assemble().unwrap();
        assert_eq!(run_every_tier(&prog, 1000).0, Ok(15));
    }

    #[test]
    fn distance_histogram_records_bcalc_spacing() {
        // bcalc then immediately jump: distance 1 (would stall).
        let l = Label(0);
        let prog = asm_main(
            Machine::BranchReg,
            vec![
                // Save the return address before any internal transfer
                // clobbers b[7] (the paper's save/restore rule).
                AsmItem::Inst(
                    MInst::BMovB {
                        bd: BReg(3),
                        bs: BReg(7),
                        br: 0,
                    },
                    None,
                ),
                AsmItem::Inst(
                    MInst::Bcalc {
                        bd: BReg(2),
                        disp: 0,
                        br: 0,
                    },
                    Some(Reloc::Disp(SymRef::Label(l))),
                ),
                AsmItem::Inst(MInst::Nop { br: 2 }, None), // dist = 1
                AsmItem::Label(l),
                AsmItem::Inst(alu(1, 0, 1, 3), None), // return via saved b3
            ],
        );
        let (res, emu) = run_every_tier(&prog, 1000);
        assert_eq!(res, Ok(1));
        let m = emu.measurements();
        // Two dist-1 transfers: the stub's call (bmovr immediately before
        // its carrier) and our nop[br=2] right after the bcalc.
        assert_eq!(m.transfer_dist[1], 2);
        // required distance 2 → that transfer is "too close".
        assert!(m.frac_transfers_within(2) > 0.0);
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let l = Label(0);
        let prog = asm_main(
            Machine::BranchReg,
            vec![
                AsmItem::Inst(
                    MInst::Bcalc {
                        bd: BReg(2),
                        disp: 0,
                        br: 0,
                    },
                    Some(Reloc::Disp(SymRef::Label(l))),
                ),
                AsmItem::Label(l),
                AsmItem::Inst(MInst::Nop { br: 2 }, None),
            ],
        );
        let (res, emu) = run_every_tier(&prog, 100);
        assert_eq!(res, Err(EmuError::OutOfFuel));
        assert_eq!(emu.measurements().instructions, 100);
    }

    #[test]
    fn loads_and_stores_count_as_data_refs() {
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(
                    MInst::Store {
                        w: MemWidth::Word,
                        rs: Reg(0),
                        rs1: abi::BASE_SP,
                        off: -4,
                        br: 0,
                    },
                    None,
                ),
                AsmItem::Inst(
                    MInst::Load {
                        w: MemWidth::Word,
                        rd: Reg(1),
                        rs1: abi::BASE_SP,
                        off: -4,
                        br: 0,
                    },
                    None,
                ),
                AsmItem::Inst(
                    MInst::Jmpl {
                        rd: Reg(0),
                        rs1: abi::BASE_LINK,
                        off: 0,
                    },
                    None,
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        let (res, emu) = run_every_tier(&prog, 1000);
        assert_eq!(res, Ok(0));
        assert_eq!(emu.measurements().data_refs, 2);
    }

    // ----- typed-error coverage: one test per EmuError variant, all -----
    // ----- verifying the emulator stays inspectable after the fault -----

    /// A return sequence for baseline `main` (jmpl through the link).
    fn base_ret() -> Vec<AsmItem> {
        vec![
            AsmItem::Inst(
                MInst::Jmpl {
                    rd: Reg(0),
                    rs1: abi::BASE_LINK,
                    off: 0,
                },
                None,
            ),
            AsmItem::Inst(MInst::Nop { br: 0 }, None),
        ]
    }

    #[test]
    fn error_bad_fetch_reports_pc_and_state_survives() {
        // Falls off the end of the text segment.
        let prog = asm_main(
            Machine::Baseline,
            vec![AsmItem::Inst(alu(1, 0, 9, 0), None)],
        );
        let (res, emu) = run_every_tier(&prog, 100);
        let err = res.unwrap_err();
        let EmuError::BadFetch(at) = err else {
            panic!("expected BadFetch, got {err:?}");
        };
        assert_eq!(at, prog.text_end());
        assert_eq!(emu.pc(), at, "pc() points at the faulting fetch");
        assert_eq!(emu.reg(1), 9, "registers remain inspectable");
        assert!(emu.measurements().instructions > 0);
    }

    #[test]
    fn error_executed_data_reports_pc() {
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
                AsmItem::Word(0xDEAD_BEEF, None),
            ],
        );
        let main = prog.symbol("main").unwrap();
        let (res, emu) = run_every_tier(&prog, 100);
        assert_eq!(res, Err(EmuError::ExecutedData(main + 4)));
        assert_eq!(emu.pc(), main + 4);
    }

    #[test]
    fn error_bad_mem_reports_pc_and_addr() {
        let mut items = vec![
            AsmItem::Inst(alu(2, 0, -16, 0), None), // r2 = -16 (wild)
            AsmItem::Inst(
                MInst::Load {
                    w: MemWidth::Word,
                    rd: Reg(1),
                    rs1: Reg(2),
                    off: 0,
                    br: 0,
                },
                None,
            ),
        ];
        items.extend(base_ret());
        let prog = asm_main(Machine::Baseline, items);
        let main = prog.symbol("main").unwrap();
        let (res, emu) = run_every_tier(&prog, 100);
        match res {
            Err(EmuError::BadMem { pc, addr }) => {
                assert_eq!(pc, main + 4);
                assert_eq!(addr, (-16i32) as u32);
                assert_eq!(emu.pc(), pc);
            }
            other => panic!("expected BadMem, got {other:?}"),
        }
    }

    #[test]
    fn error_div_by_zero_reports_pc() {
        let mut items = vec![AsmItem::Inst(
            MInst::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                src2: Src2::Reg(Reg(0)),
                br: 0,
            },
            None,
        )];
        items.extend(base_ret());
        let prog = asm_main(Machine::Baseline, items);
        let main = prog.symbol("main").unwrap();
        let (res, emu) = run_every_tier(&prog, 100);
        assert_eq!(res, Err(EmuError::DivByZero(main)));
        assert_eq!(emu.pc(), main);
    }

    #[test]
    fn error_out_of_fuel_leaves_counts_inspectable() {
        let l = Label(0);
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Label(l),
                AsmItem::Inst(MInst::Ba { disp: 0 }, Some(Reloc::Disp(SymRef::Label(l)))),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        let (res, emu) = run_every_tier(&prog, 50);
        assert_eq!(res, Err(EmuError::OutOfFuel));
        assert_eq!(emu.measurements().instructions, 50);
    }

    #[test]
    fn error_branch_in_delay_slot_reports_pc() {
        let l = Label(0);
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Label(l),
                AsmItem::Inst(MInst::Ba { disp: 0 }, Some(Reloc::Disp(SymRef::Label(l)))),
                // A second branch in the delay slot is illegal.
                AsmItem::Inst(MInst::Ba { disp: 0 }, Some(Reloc::Disp(SymRef::Label(l)))),
            ],
        );
        let main = prog.symbol("main").unwrap();
        let (res, emu) = run_every_tier(&prog, 100);
        assert_eq!(res, Err(EmuError::BranchInDelaySlot(main + 4)));
        assert_eq!(emu.pc(), main + 4);
    }

    #[test]
    fn error_wrong_machine_reports_pc() {
        // Hand-build a program whose text claims to be for the BR machine
        // but contains a baseline-only branch (the assembler would refuse
        // to encode this, so bypass it).
        let prog = Program {
            machine: Machine::BranchReg,
            code: vec![0],
            text: vec![TextWord::Inst(MInst::Ba { disp: 0 })],
            data: vec![],
            entry: abi::TEXT_BASE,
            symbols: Default::default(),
            blocks: Default::default(),
        };
        let (res, emu) = run_every_tier(&prog, 100);
        assert_eq!(res, Err(EmuError::WrongMachine(abi::TEXT_BASE)));
        assert_eq!(emu.pc(), abi::TEXT_BASE);
    }

    #[test]
    fn image_outside_the_memory_map_is_a_typed_error_not_a_panic() {
        // Images that skipped `Program::validate_image`: text one word
        // past `DATA_BASE`, and data as large as all of memory.
        let halt = br_isa::encode(Machine::Baseline, MInst::Halt).unwrap();
        let words = ((abi::DATA_BASE - abi::TEXT_BASE) / 4 + 1) as usize;
        let long_text = Program {
            machine: Machine::Baseline,
            code: vec![halt; words],
            text: vec![TextWord::Inst(MInst::Halt); words],
            data: vec![],
            entry: abi::TEXT_BASE,
            symbols: Default::default(),
            blocks: Default::default(),
        };
        let big_data = Program {
            code: vec![halt],
            text: vec![TextWord::Inst(MInst::Halt)],
            data: vec![0; abi::MEM_SIZE as usize],
            ..long_text.clone()
        };
        let text_end = abi::DATA_BASE as u64 + 4;
        let data_end = abi::DATA_BASE as u64 + abi::MEM_SIZE as u64;
        let cases = [
            (long_text, ImageError::TextPastDataBase { end: text_end }),
            (big_data, ImageError::DataPastStackTop { end: data_end }),
        ];
        for (prog, want) in cases {
            let (res, emu) = run_every_tier(&prog, 100);
            assert_eq!(res, Err(EmuError::Image(want)));
            assert_eq!(emu.pc(), abi::TEXT_BASE);
            assert_eq!(emu.measurements().instructions, 0);
        }
    }

    // ----- fault injection -----

    #[test]
    fn inject_corrupt_reg_changes_the_result() {
        let mut items = vec![AsmItem::Inst(alu(1, 0, 7, 0), None)];
        items.extend(base_ret());
        let prog = asm_main(Machine::Baseline, items);
        let clean = Emulator::new(&prog).run(100).unwrap();
        assert_eq!(clean, 7);
        let mut emu = Emulator::new(&prog);
        // Flip a bit of r1 right before the return sequence executes.
        emu.inject(Fault::CorruptReg {
            at_step: 3,
            reg: 1,
            xor_mask: 1 << 4,
        });
        let corrupted = emu.run(100).unwrap();
        assert_eq!(corrupted, 7 ^ (1 << 4));
    }

    #[test]
    fn inject_corrupt_reg_to_r0_is_ignored() {
        let mut items = vec![AsmItem::Inst(alu(1, 0, 7, 0), None)];
        items.extend(base_ret());
        let prog = asm_main(Machine::Baseline, items);
        let mut emu = Emulator::new(&prog);
        emu.inject(Fault::CorruptReg {
            at_step: 1,
            reg: 0,
            xor_mask: -1,
        });
        assert_eq!(emu.run(100).unwrap(), 7);
    }

    #[test]
    fn inject_corrupt_inst_surfaces_typed_error_not_panic() {
        let mut items = vec![AsmItem::Inst(alu(1, 0, 7, 0), None)];
        items.extend(base_ret());
        let prog = asm_main(Machine::Baseline, items);
        let main = prog.symbol("main").unwrap();
        let idx = ((main - abi::TEXT_BASE) / 4) as usize;
        // Flip the word to all-ones: opcode 63 does not decode.
        let mask = prog.code[idx] ^ u32::MAX;
        let mut emu = Emulator::new(&prog);
        // The stub runs first; `main` begins at step 2 (call + delay nop).
        emu.inject(Fault::CorruptInst {
            at_step: 2,
            xor_mask: mask,
        });
        assert_eq!(emu.run(100), Err(EmuError::WrongMachine(main)));
        assert_eq!(emu.pc(), main);
    }

    #[test]
    fn inject_fail_mem_surfaces_bad_mem() {
        let mut items = vec![AsmItem::Inst(
            MInst::Store {
                w: MemWidth::Word,
                rs: Reg(0),
                rs1: abi::BASE_SP,
                off: -4,
                br: 0,
            },
            None,
        )];
        items.extend(base_ret());
        let prog = asm_main(Machine::Baseline, items);
        let main = prog.symbol("main").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.inject(Fault::FailMem { at_step: 0 });
        match emu.run(100) {
            Err(EmuError::BadMem { pc, .. }) => assert_eq!(pc, main),
            other => panic!("expected BadMem, got {other:?}"),
        }
    }

    #[test]
    fn inject_on_br_machine_also_surfaces_typed_errors() {
        let prog = asm_main(
            Machine::BranchReg,
            vec![AsmItem::Inst(alu(1, 0, 7, 7), None)],
        );
        let mut emu = Emulator::new(&prog);
        emu.inject(Fault::CorruptInst {
            at_step: 0,
            xor_mask: u32::MAX,
        });
        match emu.run(100) {
            // Either the flipped word fails to decode (WrongMachine) or it
            // decodes to something that runs astray — every outcome must be
            // a typed error or a clean exit, never a panic.
            Err(_) | Ok(_) => {}
        }
    }

    // ----- retire hook -----

    #[test]
    fn retire_hook_reports_stores_on_both_machines() {
        use crate::hooks::TraceHook;
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let mut items = vec![
                AsmItem::Inst(alu(2, 0, 77, 0), None),
                AsmItem::Inst(
                    MInst::Store {
                        w: MemWidth::Word,
                        rs: Reg(2),
                        rs1: match machine {
                            Machine::Baseline => abi::BASE_SP,
                            Machine::BranchReg => abi::BR_SP,
                        },
                        off: -8,
                        br: 0,
                    },
                    None,
                ),
            ];
            match machine {
                Machine::Baseline => {
                    items.push(AsmItem::Inst(alu(1, 2, 0, 0), None));
                    items.extend(base_ret());
                }
                Machine::BranchReg => items.push(AsmItem::Inst(alu(1, 2, 0, 7), None)),
            }
            let prog = asm_main(machine, items);
            let mut reference: Option<(TraceHook, Measurements)> = None;
            for tier in ExecTier::ALL {
                let mut emu = Emulator::new(&prog).with_tier(tier);
                let mut hook = TraceHook::default();
                assert_eq!(
                    emu.run_with_hook(100, &mut hook),
                    Ok(77),
                    "{machine}, {tier}"
                );
                assert_eq!(
                    hook.stores,
                    vec![(abi::STACK_TOP - 8, 77)],
                    "store stream on {machine}, {tier}"
                );
                assert_eq!(
                    hook.retires.len() as u64,
                    emu.measurements().instructions,
                    "every executed instruction retires on {machine}, {tier}"
                );
                let (ref_hook, ref_meas) =
                    reference.get_or_insert_with(|| (hook.clone(), emu.measurements().clone()));
                let streams =
                    |h: &TraceHook| [h.fetches.clone(), h.prefetches.clone(), h.retires.clone()];
                assert_eq!(
                    streams(&hook),
                    streams(ref_hook),
                    "hook streams on {machine}, {tier}"
                );
                assert_eq!(
                    emu.measurements(),
                    ref_meas,
                    "measurements on {machine}, {tier}"
                );
            }
        }
    }

    #[test]
    fn writes_to_r0_are_ignored() {
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(alu(0, 0, 42, 0), None),
                AsmItem::Inst(alu(1, 0, 0, 0), None), // r1 = r0 + 0
                AsmItem::Inst(
                    MInst::Jmpl {
                        rd: Reg(0),
                        rs1: abi::BASE_LINK,
                        off: 0,
                    },
                    None,
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        assert_eq!(run_every_tier(&prog, 1000).0, Ok(0));
    }

    #[test]
    fn read_word_boundaries() {
        let prog = asm_main(
            Machine::Baseline,
            vec![
                AsmItem::Inst(
                    MInst::Jmpl {
                        rd: Reg(0),
                        rs1: abi::BASE_LINK,
                        off: 0,
                    },
                    None,
                ),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
            ],
        );
        let emu = Emulator::new(&prog);
        // Last fully in-bounds word.
        assert_eq!(emu.read_word(abi::MEM_SIZE - 4), Some(0));
        // Word straddling the end of memory.
        assert_eq!(emu.read_word(abi::MEM_SIZE - 3), None);
        assert_eq!(emu.read_word(abi::MEM_SIZE), None);
        // Addresses where `addr + 4` overflows u32 must not panic.
        assert_eq!(emu.read_word(u32::MAX), None);
        assert_eq!(emu.read_word(u32::MAX - 3), None);
    }

    // ----- guest memory: the edge of memory, and reuse within a thread -----

    fn sp_of(machine: Machine) -> Reg {
        match machine {
            Machine::Baseline => abi::BASE_SP,
            Machine::BranchReg => abi::BR_SP,
        }
    }

    /// `main`'s return: through the link on the baseline machine,
    /// through `b[7]` on the branch-register machine. `r1` is kept.
    fn ret(machine: Machine) -> Vec<AsmItem> {
        match machine {
            Machine::Baseline => base_ret(),
            Machine::BranchReg => vec![AsmItem::Inst(alu(1, 1, 0, 7), None)],
        }
    }

    fn store(w: MemWidth, rs: u8, rs1: Reg, off: i32) -> AsmItem {
        let inst = MInst::Store {
            w,
            rs: Reg(rs),
            rs1,
            off,
            br: 0,
        };
        AsmItem::Inst(inst, None)
    }

    #[test]
    fn stores_at_the_top_of_memory() {
        // `sp` starts at `STACK_TOP`, 16 bytes below the end of memory.
        let top = |off: i32| abi::STACK_TOP.wrapping_add(off as u32);
        assert_eq!(top(16), abi::MEM_SIZE);
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let sp = sp_of(machine);
            // The last word, then the last byte over its top byte.
            let mut items = vec![
                AsmItem::Inst(alu(2, 0, 0x123, 0), None),
                store(MemWidth::Word, 2, sp, 12),
                AsmItem::Inst(alu(2, 0, 0x45, 0), None),
                store(MemWidth::Byte, 2, sp, 15),
                AsmItem::Inst(
                    MInst::Load {
                        w: MemWidth::Word,
                        rd: Reg(1),
                        rs1: sp,
                        off: 12,
                        br: 0,
                    },
                    None,
                ),
            ];
            items.extend(ret(machine));
            let prog = asm_main(machine, items);
            let (res, emu) = run_every_tier(&prog, 100);
            assert_eq!(res, Ok(0x4500_0123), "{machine}");
            assert_eq!(emu.read_word(top(12)), Some(0x4500_0123), "{machine}");

            // One byte past the end: a word at MEM_SIZE - 3, a byte at
            // MEM_SIZE. Neither writes anything.
            for (w, off) in [(MemWidth::Word, 13), (MemWidth::Byte, 16)] {
                let mut items = vec![AsmItem::Inst(alu(2, 0, -1, 0), None), store(w, 2, sp, off)];
                items.extend(ret(machine));
                let prog = asm_main(machine, items);
                let store_pc = prog.symbol("main").unwrap() + 4;
                let (res, emu) = run_every_tier(&prog, 100);
                assert_eq!(
                    res,
                    Err(EmuError::BadMem {
                        pc: store_pc,
                        addr: top(off),
                    }),
                    "{machine}, {w:?} at {:#x}",
                    top(off)
                );
                assert_eq!(emu.pc(), store_pc);
                assert_eq!(emu.read_word(top(12)), Some(0), "{machine}, {w:?}");
            }
        }
    }

    /// A word that straddles the page boundary at `0x11000`.
    const STRADDLE: u32 = 0x1_0FFE;

    /// Program A of the reuse test: stores -1 as a word across a page
    /// boundary, as words below `STACK_TOP` and as a byte at
    /// `MEM_SIZE - 1`, then returns 7 or, when `wild`, stores a byte at
    /// `MEM_SIZE` first.
    fn dirtying_program(machine: Machine, wild: bool) -> Program {
        let sp = sp_of(machine);
        let mut items = vec![
            AsmItem::Inst(alu(3, 0, -1, 0), None),
            AsmItem::Inst(
                MInst::Sethi {
                    rd: Reg(2),
                    imm: (STRADDLE + 2) >> 11,
                },
                None,
            ),
            store(MemWidth::Word, 3, Reg(2), -2),
            store(MemWidth::Word, 3, sp, -4),
            store(MemWidth::Word, 3, sp, -8),
            store(MemWidth::Byte, 3, sp, 15),
        ];
        if wild {
            items.push(store(MemWidth::Byte, 3, sp, 16));
        }
        items.push(AsmItem::Inst(alu(1, 0, 7, 0), None));
        items.extend(ret(machine));
        asm_main(machine, items)
    }

    /// Program B of the reuse test: returns at once, with 40 bytes of
    /// non-zero data.
    fn data_program(machine: Machine) -> Program {
        let mut p = AsmProgram::new(machine);
        let mut items = vec![AsmItem::Inst(alu(1, 0, 0, 0), None)];
        items.extend(ret(machine));
        p.funcs.push(AsmFunc {
            name: "main".to_string(),
            items,
        });
        p.data.push(br_isa::DataItem {
            name: "g".to_string(),
            align: 4,
            bytes: (1..=40).collect(),
        });
        p.assemble().unwrap()
    }

    /// What fresh memory holds for `prog`: its text and data on zero.
    fn fresh_image(prog: &Program) -> Vec<u8> {
        let mut mem = vec![0u8; abi::MEM_SIZE as usize];
        for (i, w) in prog.code.iter().enumerate() {
            let a = abi::TEXT_BASE as usize + 4 * i;
            mem[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
        let d = abi::DATA_BASE as usize;
        mem[d..d + prog.data.len()].copy_from_slice(&prog.data);
        mem
    }

    #[derive(Debug, Clone, Copy)]
    enum Ending {
        Halt,
        OutOfFuel,
        BadMem,
        HookPanic,
    }

    /// Panics when a store to its address retires: a panic mid-run, as
    /// br-serve's `catch_unwind` meets one.
    struct PanicOnStoreTo(u32);

    impl ExecHook for PanicOnStoreTo {
        fn retire(&mut self, _pc: u32, store: Option<(u32, i32)>) {
            if store.is_some_and(|(addr, _)| addr == self.0) {
                panic!("hook panics after the last store");
            }
        }
    }

    /// Run program A on `tier` to `ending` inside `catch_unwind`, with
    /// the emulator dropped inside it (during unwinding on a panic).
    /// Returns the address of the guest memory the run used.
    fn dirty_and_drop(machine: Machine, tier: ExecTier, ending: Ending) -> *const u8 {
        let prog = dirtying_program(machine, matches!(ending, Ending::BadMem));
        let halt_insts = {
            let mut emu = Emulator::new(&prog);
            emu.run(1000).ok();
            emu.measurements().instructions
        };
        let mut used = std::ptr::null();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut emu = Emulator::new(&prog).with_tier(tier);
            used = emu.mem.as_ptr();
            let res = match ending {
                Ending::OutOfFuel => emu.run(halt_insts - 1),
                Ending::HookPanic => {
                    emu.run_with_hook(1000, &mut PanicOnStoreTo(abi::MEM_SIZE - 1))
                }
                Ending::Halt | Ending::BadMem => emu.run(1000),
            };
            // Every store of A ran.
            assert_eq!(emu.read_word(STRADDLE), Some(-1));
            assert_eq!(emu.read_word(abi::STACK_TOP - 8), Some(-1));
            assert_eq!(
                emu.read_word(abi::MEM_SIZE - 4),
                Some(0xFF00_0000u32 as i32)
            );
            res
        }));
        let want = match ending {
            Ending::Halt => Ok(7),
            Ending::OutOfFuel => Err(EmuError::OutOfFuel),
            Ending::BadMem => Err(EmuError::BadMem {
                pc: prog.symbol("main").unwrap() + 24,
                addr: abi::MEM_SIZE,
            }),
            Ending::HookPanic => {
                assert!(outcome.is_err(), "{machine}, {tier}: the hook panics");
                return used;
            }
        };
        match outcome {
            Ok(res) => assert_eq!(res, want, "{machine}, {tier}, {ending:?}"),
            Err(payload) => std::panic::resume_unwind(payload),
        }
        used
    }

    /// Build an emulator for `prog` and check that it reuses the buffer
    /// at `used` and that all 8 MiB of it read as `want`.
    fn assert_reads_fresh(prog: &Program, want: &[u8], used: *const u8, what: &str) {
        let emu = Emulator::new(prog);
        assert_eq!(emu.mem.as_ptr(), used, "{what}: the buffer is reused");
        if emu.mem[..] != *want {
            let a = (0..want.len()).find(|&a| emu.mem[a] != want[a]).unwrap();
            panic!(
                "{what}: byte {a:#x} reads {:#04x}, fresh memory holds {:#04x}",
                emu.mem[a], want[a]
            );
        }
    }

    #[test]
    fn reused_guest_memory_reads_exactly_like_fresh_memory() {
        let endings = [
            Ending::Halt,
            Ending::OutOfFuel,
            Ending::BadMem,
            Ending::HookPanic,
        ];
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let b = data_program(machine);
            let want = fresh_image(&b);
            for tier in ExecTier::ALL {
                for ending in endings {
                    let used = dirty_and_drop(machine, tier, ending);
                    assert_reads_fresh(&b, &want, used, &format!("{machine}, {tier}, {ending:?}"));
                }
            }
            // The same on a thread that then exits with its buffer parked.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let used = dirty_and_drop(machine, ExecTier::default(), Ending::Halt);
                    assert_reads_fresh(&b, &want, used, &format!("{machine}, spawned thread"));
                    // Dirty the buffer again before the thread exits.
                    dirty_and_drop(machine, ExecTier::default(), Ending::Halt);
                });
            });
            // A new thread takes a buffer some exited thread left, maybe
            // that one: it reads fresh too.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let emu = Emulator::new(&b);
                    assert!(
                        emu.mem[..] == want[..],
                        "{machine}: a new thread reads fresh"
                    );
                });
            });
        }
    }

    /// Stop `sum 0..49` after each of its first 199 instructions and
    /// resume it: on both machines and every tier, the resumed run must
    /// end exactly like an uninterrupted one. On the baseline machine
    /// some stops land between a taken delayed branch and its delay
    /// slot, which only resumes because the run keeps the branch target.
    #[test]
    fn a_run_stopped_out_of_fuel_resumes_exactly() {
        let src = "int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }";
        let module = br_frontend::compile(src).expect("frontend");
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let prog = br_codegen::compile_module(
                &module,
                machine,
                Default::default(),
                Default::default(),
            )
            .expect("codegen")
            .asm
            .assemble()
            .expect("assemble");
            for tier in ExecTier::ALL {
                let mut whole = Emulator::new(&prog).with_tier(tier);
                assert_eq!(whole.run(1_000_000), Ok(1225), "{machine}, {tier}");
                let mut in_delay_slot = 0;
                let mut bad_stops = Vec::new();
                for stop in 1..200 {
                    let mut emu = Emulator::new(&prog).with_tier(tier);
                    assert_eq!(emu.run(stop), Err(EmuError::OutOfFuel));
                    assert_eq!(emu.measurements().instructions, stop);
                    in_delay_slot += emu.pending.is_some() as u32;
                    let res = emu.run(1_000_000);
                    if res != Ok(1225)
                        || emu.pc() != whole.pc()
                        || emu.measurements() != whole.measurements()
                    {
                        bad_stops.push((stop, res));
                    }
                }
                assert!(
                    bad_stops.is_empty(),
                    "{machine}, {tier}: resumed runs diverged after these stops: {bad_stops:?}"
                );
                if machine == Machine::Baseline {
                    assert!(in_delay_slot > 0, "{tier}: no stop fell in a delay slot");
                }
            }
        }
    }

    #[test]
    fn error_displays_are_self_contained() {
        // These messages cross the br-serve wire verbatim, so every
        // variant must read as a complete sentence fragment with its
        // context (pc/addr) inlined — no `{:?}` renderings.
        let cases = [
            (EmuError::BadFetch(0x40), "bad instruction fetch at 0x40"),
            (EmuError::ExecutedData(0x44), "executed data word at 0x44"),
            (
                EmuError::BadMem { pc: 0x48, addr: 0x1000 },
                "bad memory access to 0x1000 at pc 0x48",
            ),
            (EmuError::DivByZero(0x4c), "division by zero at pc 0x4c"),
            (EmuError::OutOfFuel, "instruction budget exhausted"),
            (
                EmuError::BranchInDelaySlot(0x50),
                "branch in delay slot at 0x50",
            ),
            (EmuError::WrongMachine(0x54), "illegal instruction at 0x54"),
            (
                EmuError::Image(ImageError::DataPastStackTop { end: 0x80_0000 }),
                "program image not loaded: data segment ends at 0x800000, past the stack top 0x7ffff0",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
        }
    }
}
