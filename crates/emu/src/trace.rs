//! Tier 2: profile-guided superblock traces.
//!
//! The threaded loops (`dispatch.rs`) call `Emulator::trace_dispatch`
//! every time a control transfer completes. The engine counts how often
//! each transfer target is reached; once a target crosses `HOT` it is
//! stitched into a **superblock** — a straight-line run of predecoded
//! ops spanning fused compare-and-branch pairs and delay slots — that
//! executes as one pre-linked handler run with a single guard per side
//! exit. Cold targets fall back to the threaded loop; fault-injection
//! runs never reach this module at all (the instrumented interpreter
//! handles them).
//!
//! Formation rules per machine:
//!
//! * **Baseline** — conditional delayed branches become
//!   `Ctl::GuardTaken` / `Ctl::GuardNot`: the trace follows the
//!   *predicted* side (backward-taken / forward-not-taken) across the
//!   delay slot, and a mispredict executes the delay slot then
//!   side-exits to the other destination. `ba`/`call` are folded
//!   completely (`Ctl::Uncond` keeps the transfer counters and
//!   `call`'s link write). `jmpl`, `halt`, and data words end the trace
//!   *before* themselves so the threaded loop replays their exact
//!   interpreter behavior.
//! * **Branch register** — every op stitches, and any op with `br != 0`
//!   becomes a `Ctl::BrXfer`: it replays the full transfer bookkeeping
//!   (fused fast-compare re-read, Figure 9 distance histogram, `b[7]`
//!   return address) and the trace continues only if the dynamic
//!   target is the next trace op's pc; otherwise it exits to that
//!   target. Formation follows each transfer's *predicted* target: it
//!   tracks every branch register through the stitched ops (`bcalc`
//!   sets its immediate, `bmovb` copies, `bmovr`/`bload` make the
//!   register unknown, each transfer sets `b[7]` to `pc + 4`, and a
//!   compare is predicted not taken, so `b[7]` gets its fall-through),
//!   starting from the emulator's branch registers at trace entry. That
//!   entry rule is what lets a loop run through: the compiler hoists
//!   target calculations out of loops (Section 5), so the value at
//!   entry is the loop's value. So a hot loop becomes one superblock
//!   with its carriers, static jumps, calls and returns, and unrolls
//!   like the baseline's. The trace ends at a transfer whose predicted
//!   target is unknown, outside the text, or already stitched and not
//!   the entry; a `BrXfer` that is the last op always exits.
//!
//! All trace ops live in one contiguous arena (`TraceEngine::arena`)
//! and each op is packed to 16 bytes (the control tag rides in the top
//! byte of the pc word — text addresses are far below 16 MiB), so
//! chaining between superblocks walks dense, cache-friendly memory
//! instead of pointer-hopping between per-trace allocations.
//!
//! Traces never need invalidation: `Program::text` is immutable for the
//! lifetime of the emulator (self-modifying code is not representable,
//! and fault-injected instruction corruption runs on the interpreter
//! tier), so a formed trace is valid forever.
//!
//! Equivalence: every op in a trace replays the interpreter's exact
//! per-instruction sequence — `hook.fetch`, fuel accounting via the
//! entry precheck, counter updates, `hook.prefetch`/`hook.retire` — so
//! `Measurements`, hook streams, and errors are byte-identical to the
//! interpreter. Near fuel exhaustion the precheck refuses the trace and
//! the threaded loop single-steps, keeping `OutOfFuel` exact.

use br_isa::decoded::{Decoded, Kind};
use br_isa::{abi, Machine};

use crate::dispatch::{exec_decoded, Step};
use crate::emu::{BrState, EmuError, Emulator};
use crate::hooks::ExecHook;

/// Transfer-target slot not yet counted hot.
const UNEXPLORED: u32 = u32::MAX;
/// Target found unprofitable (trace would be shorter than
/// [`MIN_TRACE_OPS`]); never try again.
const NEVER: u32 = u32::MAX - 1;
/// Dispatches to a target before a trace is formed for it. Low, because
/// suite programs are small: a high threshold leaves short runs mostly
/// on the threaded tier (formation itself is cheap — see the epoch
/// scratch in [`TraceEngine`]).
const HOT: u32 = 4;
/// Upper bound on ops stitched into one trace.
const MAX_TRACE_OPS: usize = 256;
/// Traces shorter than this don't pay for their dispatch.
const MIN_TRACE_OPS: usize = 2;
/// Whether baseline formation unrolls a loop that closes back on the
/// trace entry (amortizes trace dispatch, costs arena footprint).
const UNROLL: bool = true;

/// How control leaves (or threads through) a trace op. Packed into the
/// top byte of [`TOp::pc_ctl`]; side-exit targets are derived from the
/// op itself rather than stored (a mispredicted expected-taken guard
/// falls through to `pc + 8`, a mispredicted expected-not-taken guard
/// goes to the branch target in `d.imm`, and a `BrXfer`'s predicted
/// target is the next op's pc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Ctl {
    /// Fall-through op; no control decision.
    Plain = 0,
    /// Baseline conditional delayed branch predicted taken. The next
    /// trace op is its delay slot; a mispredict side-exits to `pc + 8`.
    GuardTaken = 1,
    /// Baseline conditional delayed branch predicted not taken. The
    /// next trace op is its delay slot; a mispredict side-exits to the
    /// branch target (`d.imm`).
    GuardNot = 2,
    /// Baseline `ba`/`call` (with `call`'s link write). The following
    /// trace op is its delay slot; the trace continues at the static
    /// target.
    Uncond = 3,
    /// Branch-register op with `br != 0`: replays the transfer
    /// bookkeeping, then continues if the dynamic target is the next
    /// trace op's pc and exits to that target otherwise (always, when
    /// it is the trace's last op).
    BrXfer = 4,
}

/// One predecoded instruction inside a trace: the flattened operands
/// plus its pc and control tag packed into one word (16 bytes total).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TOp {
    pub d: Decoded,
    pc_ctl: u32,
}

impl TOp {
    fn new(d: Decoded, pc: u32, ctl: Ctl) -> TOp {
        debug_assert!(pc < 1 << 24, "text pc {pc:#x} overflows the packed tag");
        TOp {
            d,
            pc_ctl: pc | ((ctl as u32) << 24),
        }
    }

    #[inline(always)]
    pub fn pc(&self) -> u32 {
        self.pc_ctl & 0x00ff_ffff
    }

    #[inline(always)]
    pub fn ctl(&self) -> Ctl {
        match self.pc_ctl >> 24 {
            0 => Ctl::Plain,
            1 => Ctl::GuardTaken,
            2 => Ctl::GuardNot,
            3 => Ctl::Uncond,
            _ => Ctl::BrXfer,
        }
    }
}

/// A formed superblock: a window into [`TraceEngine::arena`].
#[derive(Clone, Copy)]
pub(crate) struct Trace {
    start: u32,
    len: u32,
    /// Where control resumes when the trace runs off its end (never
    /// read when the last op is a [`Ctl::BrXfer`], which always exits
    /// to its dynamic target).
    exit_pc: u32,
}

/// Per-program trace store, indexed by text word.
pub(crate) struct TraceEngine {
    /// `text index -> trace id` (or [`UNEXPLORED`] / [`NEVER`]).
    map: Vec<u32>,
    /// Dispatch counts for unexplored targets.
    heat: Vec<u32>,
    traces: Vec<Trace>,
    /// Every trace's ops, contiguous.
    arena: Vec<TOp>,
    /// Loop-closure scratch for formation on both machines:
    /// `seen[i] == epoch` means text word `i` is already in the trace
    /// being formed. The epoch bump makes clearing free (no O(text)
    /// memset per trace — formation runs during warmup, which small
    /// programs re-pay on every fresh emulator).
    seen: Vec<u32>,
    epoch: u32,
    /// Reusable formation buffer, copied into `arena` on success.
    scratch: Vec<TOp>,
}

impl TraceEngine {
    pub(crate) fn new(text_len: usize) -> Self {
        TraceEngine {
            map: vec![UNEXPLORED; text_len],
            heat: vec![0; text_len],
            traces: Vec::new(),
            arena: Vec::new(),
            seen: vec![0; text_len],
            epoch: 0,
            scratch: Vec::new(),
        }
    }
}

#[inline]
fn pc_of(idx: usize) -> u32 {
    abi::TEXT_BASE + ((idx as u32) << 2)
}

/// Text index of `pc` when it is an aligned address inside the text.
#[inline]
fn text_idx(pc: u32, text_len: usize) -> Option<usize> {
    let off = pc.wrapping_sub(abi::TEXT_BASE);
    let idx = (off >> 2) as usize;
    (off & 3 == 0 && idx < text_len).then_some(idx)
}

/// Whether a kind may ride inside a trace (or a baseline delay slot)
/// with no control behavior of its own.
fn plain_ok(k: Kind) -> bool {
    !matches!(k, Kind::Data | Kind::Wrong | Kind::Halt) && !k.is_baseline_control()
}

impl TraceEngine {
    /// Stitch a superblock starting at text index `start` and commit it
    /// to the arena, or return `None` if too short to pay for itself.
    /// `bregs` are the emulator's branch registers at trace entry.
    fn form(
        &mut self,
        machine: Machine,
        ops: &[Decoded],
        start: usize,
        bregs: &[u32; 8],
    ) -> Option<u32> {
        self.scratch.clear();
        self.epoch += 1;
        let exit_pc = match machine {
            Machine::Baseline => self.form_baseline(ops, start),
            Machine::BranchReg => self.form_br(ops, start, bregs),
        };
        if self.scratch.len() < MIN_TRACE_OPS {
            return None;
        }
        let id = self.traces.len() as u32;
        self.traces.push(Trace {
            start: self.arena.len() as u32,
            len: self.scratch.len() as u32,
            exit_pc,
        });
        self.arena.extend_from_slice(&self.scratch);
        Some(id)
    }

    /// Whether formation stops at text index `idx` because the trace
    /// already holds it. Returning to the entry instead unrolls another
    /// lap (a fresh epoch lets the body be re-stitched) to amortize
    /// trace dispatch over many iterations; `MAX_TRACE_OPS` bounds the
    /// unroll. A cycle that doesn't pass through the entry stops the
    /// trace: its head gets its own trace once hot.
    fn closes_cycle(&mut self, idx: usize, start: usize) -> bool {
        if self.seen[idx] != self.epoch {
            return false;
        }
        if UNROLL && idx == start {
            self.epoch += 1;
            return false;
        }
        true
    }

    /// Fill `scratch` with the baseline superblock at `start`; returns
    /// its fall-off exit pc.
    fn form_baseline(&mut self, ops: &[Decoded], start: usize) -> u32 {
        let mut idx = start;
        loop {
            if self.scratch.len() >= MAX_TRACE_OPS
                || idx >= ops.len()
                || self.closes_cycle(idx, start)
            {
                break pc_of(idx);
            }
            let ep = self.epoch;
            let d = ops[idx];
            let k = d.kind;
            match k {
                Kind::Bcc | Kind::FBcc => {
                    // Needs an innocuous delay slot to fold across.
                    if idx + 1 >= ops.len() || !plain_ok(ops[idx + 1].kind) {
                        break pc_of(idx);
                    }
                    // Static prediction: backward taken, forward not
                    // taken.
                    let taken_idx = text_idx(d.imm as u32, ops.len()).filter(|&t| t <= idx);
                    let ctl = if taken_idx.is_some() {
                        Ctl::GuardTaken
                    } else {
                        Ctl::GuardNot
                    };
                    self.seen[idx] = ep;
                    self.scratch.push(TOp::new(d, pc_of(idx), ctl));
                    self.seen[idx + 1] = ep;
                    self.scratch
                        .push(TOp::new(ops[idx + 1], pc_of(idx + 1), Ctl::Plain));
                    idx = taken_idx.unwrap_or(idx + 2);
                }
                Kind::Ba | Kind::Call => {
                    let Some(t_idx) = text_idx(d.imm as u32, ops.len()) else {
                        break pc_of(idx);
                    };
                    if idx + 1 >= ops.len() || !plain_ok(ops[idx + 1].kind) {
                        break pc_of(idx);
                    }
                    self.seen[idx] = ep;
                    self.scratch.push(TOp::new(d, pc_of(idx), Ctl::Uncond));
                    self.seen[idx + 1] = ep;
                    self.scratch
                        .push(TOp::new(ops[idx + 1], pc_of(idx + 1), Ctl::Plain));
                    idx = t_idx;
                }
                _ if plain_ok(k) => {
                    self.seen[idx] = ep;
                    self.scratch.push(TOp::new(d, pc_of(idx), Ctl::Plain));
                    idx += 1;
                }
                // jmpl (indirect target), halt, data, wrong-machine: the
                // threaded loop replays these exactly.
                _ => break pc_of(idx),
            }
        }
    }

    /// Fill `scratch` with the branch-register superblock at `start`,
    /// following each transfer's predicted target; returns its fall-off
    /// exit pc.
    fn form_br(&mut self, ops: &[Decoded], start: usize, bregs: &[u32; 8]) -> u32 {
        // Predicted branch registers (`None`: unknown). One not yet
        // written in the trace keeps its value at entry, which for a
        // hoisted, loop-invariant target is the loop's value.
        let mut pred = bregs.map(Some);
        let mut idx = start;
        loop {
            if self.scratch.len() >= MAX_TRACE_OPS
                || idx >= ops.len()
                || self.closes_cycle(idx, start)
                || !plain_ok(ops[idx].kind)
            {
                break pc_of(idx);
            }
            self.seen[idx] = self.epoch;
            let d = ops[idx];
            let pc = pc_of(idx);
            // Like the threaded loop, a transfer reads b[br] before the
            // op executes.
            let read = pred[d.br as usize];
            match d.kind {
                Kind::Bcalc => pred[d.a as usize] = Some(d.imm as u32),
                Kind::BMovB if d.b == 0 => pred[d.a as usize] = Some(pc + 4),
                Kind::BMovB => pred[d.a as usize] = pred[d.b as usize],
                Kind::BMovR | Kind::BLoadRR | Kind::BLoadRI => pred[d.a as usize] = None,
                // Predicted not taken: b[7] gets the fall-through, past
                // the carrier, or past a fused compare itself.
                k if k.is_cmpbr() => pred[7] = Some(if d.br != 0 { pc + 4 } else { pc + 8 }),
                _ => {}
            }
            if d.br == 0 {
                self.scratch.push(TOp::new(d, pc, Ctl::Plain));
                idx += 1;
                continue;
            }
            self.scratch.push(TOp::new(d, pc, Ctl::BrXfer));
            // A fused compare transfers through the value it just wrote.
            let target = if d.kind.is_cmpbr() {
                pred[d.br as usize]
            } else {
                read
            };
            pred[7] = Some(pc + 4);
            // An unknown or out-of-text target ends the trace; the
            // `BrXfer` then exits to wherever control really goes.
            match target.and_then(|t| text_idx(t, ops.len())) {
                Some(t) => idx = t,
                None => break pc + 4,
            }
        }
    }
}

impl Emulator<'_> {
    /// Called by the threaded loops after each completed transfer:
    /// counts heat at `self.pc`, forms traces when hot, and chains
    /// consecutive superblocks without returning to the outer loop.
    pub(crate) fn trace_dispatch<H: ExecHook + ?Sized>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<(), EmuError> {
        // Move the engine out for the whole chain so `run_trace` can
        // borrow the emulator mutably while reading the trace, without
        // an Option round-trip per superblock.
        let mut engine = self.engine.take().expect("traced tier without engine");
        let r = self.trace_chain(&mut engine, fuel, hook);
        self.engine = Some(engine);
        r
    }

    fn trace_chain<H: ExecHook + ?Sized>(
        &mut self,
        engine: &mut TraceEngine,
        fuel: u64,
        hook: &mut H,
    ) -> Result<(), EmuError> {
        loop {
            let Some(idx) = text_idx(self.pc, self.ops.len()) else {
                // Let the threaded loop raise the exact BadFetch.
                return Ok(());
            };
            let tid = match engine.map[idx] {
                NEVER => return Ok(()),
                UNEXPLORED => {
                    engine.heat[idx] += 1;
                    if engine.heat[idx] < HOT {
                        return Ok(());
                    }
                    match engine.form(self.prog.machine, &self.ops, idx, &self.bregs) {
                        Some(id) => {
                            engine.map[idx] = id;
                            id
                        }
                        None => {
                            engine.map[idx] = NEVER;
                            return Ok(());
                        }
                    }
                }
                id => id,
            };
            let t = engine.traces[tid as usize];
            // Refuse traces that could cross the fuel limit; the
            // threaded loop single-steps to the exact OutOfFuel point.
            if self.meas.instructions + t.len as u64 > fuel {
                return Ok(());
            }
            let ops = &engine.arena[t.start as usize..(t.start + t.len) as usize];
            self.run_trace(ops, t.exit_pc, hook)?;
        }
    }

    /// Execute one superblock. Replays the interpreter's exact
    /// per-instruction event sequence; on any error, `self.pc` is left
    /// at the faulting instruction (as the interpreter would) and the
    /// instruction count includes the faulting op.
    ///
    /// One trim vs the threaded loop, invisible to observers:
    /// `meas.instructions` is kept in a local and written back at every
    /// exit (the dynamic index feeds the BR machine's `now`, so it is
    /// still tracked per op — just not through memory). `last_store` is
    /// handled exactly as the interpreter does — an unconditional
    /// `take()` at every retire. (A store-tag bit that let non-store
    /// retires skip the `take()` measured *slower* here: the extra
    /// branch cost more than the avoided store.)
    fn run_trace<H: ExecHook + ?Sized>(
        &mut self,
        ops: &[TOp],
        exit_pc: u32,
        hook: &mut H,
    ) -> Result<(), EmuError> {
        let entry = self.meas.instructions;
        let mut executed: u64 = 0;
        macro_rules! bail {
            ($pc:expr, $e:expr) => {{
                self.meas.instructions = entry + executed;
                self.trace_insts += executed;
                self.pc = $pc;
                return Err($e);
            }};
        }
        let mut i = 0;
        while i < ops.len() {
            let op = &ops[i];
            let pc = op.pc();
            hook.fetch(pc);
            executed += 1;
            let now = entry + executed;
            match op.ctl() {
                Ctl::Plain => {
                    match exec_decoded(self, &op.d, pc, now) {
                        Ok(_) => {}
                        Err(e) => bail!(pc, e),
                    }
                    if op.d.kind.assigns_breg() {
                        hook.prefetch(self.bregs[op.d.a as usize]);
                    }
                    hook.retire(pc, self.last_store.take());
                    i += 1;
                }
                ctl @ (Ctl::GuardTaken | Ctl::GuardNot) => {
                    let expect_taken = ctl == Ctl::GuardTaken;
                    // The condition is evaluated *here*, before the
                    // delay slot runs (the slot may overwrite cc).
                    let taken = match exec_decoded(self, &op.d, pc, 0) {
                        Ok(step) => matches!(step, Step::SetPending(_)),
                        Err(e) => bail!(pc, e),
                    };
                    hook.retire(pc, None);
                    // Delay slot (always the next trace op, both paths).
                    let ds = &ops[i + 1];
                    let dpc = ds.pc();
                    hook.fetch(dpc);
                    executed += 1;
                    match exec_decoded(self, &ds.d, dpc, entry + executed) {
                        Ok(_) => {}
                        Err(e) => bail!(dpc, e),
                    }
                    hook.retire(dpc, self.last_store.take());
                    if taken != expect_taken {
                        // Side exit: past the branch when it was
                        // expected taken, to the target otherwise.
                        let exit = if expect_taken {
                            pc + 8
                        } else {
                            op.d.imm as u32
                        };
                        self.meas.instructions = entry + executed;
                        self.trace_insts += executed;
                        self.pc = exit;
                        return Ok(());
                    }
                    i += 2;
                }
                Ctl::Uncond => {
                    // ba/call: counters and the link write, target is
                    // already stitched in.
                    if let Err(e) = exec_decoded(self, &op.d, pc, 0) {
                        bail!(pc, e);
                    }
                    hook.retire(pc, None);
                    i += 1;
                }
                Ctl::BrXfer => {
                    let next = match self.br_transfer(&op.d, pc, now, hook) {
                        Ok(n) => n,
                        Err(e) => bail!(pc, e),
                    };
                    // Continue where formation predicted the transfer
                    // goes: the next trace op.
                    match ops.get(i + 1) {
                        Some(n) if n.pc() == next => i += 1,
                        _ => {
                            self.meas.instructions = entry + executed;
                            self.trace_insts += executed;
                            self.pc = next;
                            return Ok(());
                        }
                    }
                }
            }
        }
        self.meas.instructions = entry + executed;
        self.trace_insts += executed;
        self.pc = exit_pc;
        Ok(())
    }

    /// Execute one branch-register op with `br != 0` inside a trace and
    /// replay the threaded loop's full transfer bookkeeping (fused
    /// fast-compare re-read, Figure 9 distance histogram, `b[7]` return
    /// address). Returns the dynamic next pc.
    #[inline(always)]
    fn br_transfer<H: ExecHook + ?Sized>(
        &mut self,
        d: &Decoded,
        pc: u32,
        now: u64,
        hook: &mut H,
    ) -> Result<u32, EmuError> {
        let br = d.br as usize;
        let mut next = self.bregs[br];
        exec_decoded(self, d, pc, now)?;
        if d.kind.assigns_breg() {
            hook.prefetch(self.bregs[d.a as usize]);
        }
        if d.kind.is_cmpbr() {
            next = self.bregs[br];
        }
        self.meas.transfers += 1;
        let st = self.brstate[br];
        if st.from_cond {
            self.meas.cond_transfers += 1;
        } else {
            self.meas.uncond_transfers += 1;
        }
        let dist = now.saturating_sub(st.assign_time);
        self.meas.record_dist(dist, st.from_cond);
        self.bregs[7] = pc + 4;
        self.brstate[7] = BrState {
            assign_time: now,
            from_cond: false,
        };
        hook.retire(pc, self.last_store.take());
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecTier, TraceHook};
    use br_codegen::BrOptions;
    use br_isa::Program;

    fn compile_br(src: &str, opts: BrOptions) -> Program {
        let module = br_frontend::compile(src).expect("frontend");
        br_codegen::compile_module(&module, Machine::BranchReg, Default::default(), opts)
            .expect("codegen")
            .asm
            .assemble()
            .expect("assemble")
    }

    fn has(prog: &Program, pred: impl Fn(&Decoded) -> bool) -> bool {
        br_isa::decoded::predecode(prog).iter().any(pred)
    }

    /// Run `prog` on the interpreter and on the traced tier: both must
    /// end alike and emit identical hook streams, and the traced run
    /// must spend most of its instructions inside traces.
    fn assert_traced_matches_interp(name: &str, prog: &Program, want: i32) {
        let run = |tier| {
            let mut emu = Emulator::new(prog).with_tier(tier);
            let mut hook = TraceHook::default();
            let exit = emu.run_with_hook(10_000_000, &mut hook);
            let meas = emu.measurements().clone();
            (exit, emu.pc(), meas, hook, emu.traced_insts())
        };
        let (exit, pc, meas, hook, _) = run(ExecTier::Interp);
        let (t_exit, t_pc, t_meas, t_hook, traced) = run(ExecTier::Traced);
        assert_eq!(exit, Ok(want), "{name}: interpreter exit");
        assert_eq!(t_exit, exit, "{name}: exit");
        assert_eq!(t_pc, pc, "{name}: pc");
        assert_eq!(t_meas, meas, "{name}: measurements");
        assert!(!hook.truncated(), "{name}: hook cap too small");
        assert_eq!(t_hook.fetches, hook.fetches, "{name}: fetch stream");
        assert_eq!(
            t_hook.prefetches, hook.prefetches,
            "{name}: prefetch stream"
        );
        assert_eq!(t_hook.retires, hook.retires, "{name}: retire stream");
        assert_eq!(t_hook.stores, hook.stores, "{name}: store stream");
        assert_eq!(t_hook.dropped, hook.dropped, "{name}: dropped events");
        assert!(
            2 * traced > meas.instructions,
            "{name}: only {traced} of {} instructions ran in traces",
            meas.instructions
        );
    }

    /// A leaf called from two sites in one hot loop: the trace formed
    /// at its entry predicts the return to whichever site made it hot,
    /// so entering it from the other site mispredicts the return.
    #[test]
    fn a_return_guard_formed_for_one_call_site_exits_at_the_other() {
        let src = "int leaf(int x) { return x + x + 1; }
            int main() {
                int s = 0;
                for (int i = 0; i < 300; i++) { s = s + leaf(i); s = s - leaf(s & 15); }
                return s;
            }";
        let prog = compile_br(src, BrOptions::default());
        assert_traced_matches_interp("two call sites", &prog, 84_948);
    }

    /// A dense `switch` jumps through a target `bload`ed from its
    /// table, which formation cannot predict: the trace ends there.
    #[test]
    fn a_jump_table_transfer_ends_the_trace() {
        let src = "int main() {
                int s = 0;
                for (int i = 0; i < 300; i++) {
                    switch (i % 5) {
                        case 0: s += 3; break;
                        case 1: s ^= i; break;
                        case 2: s -= 7; break;
                        case 3: s += i * 2; break;
                        case 4: s = s * 3 % 1000; break;
                    }
                }
                return s;
            }";
        let prog = compile_br(src, BrOptions::default());
        assert!(has(&prog, |d| d.kind == Kind::BLoadRR && d.br == 0));
        assert_traced_matches_interp("jump table", &prog, 136);
    }

    /// Fused fast compares transfer through the `b[7]` they just wrote;
    /// formation predicts them not taken, and these go both ways.
    #[test]
    fn fused_compares_taken_and_not_taken_match_the_interpreter() {
        let src = "int main() {
                int s = 0;
                for (int i = 0; i < 300; i++) {
                    if (i % 3 == 0) s += i; else s -= 1;
                    if (s > 100) s = s - 50;
                }
                return s;
            }";
        let opts = BrOptions {
            fused_compare: true,
            ..BrOptions::default()
        };
        let prog = compile_br(src, opts);
        assert!(has(&prog, |d| d.kind.is_cmpbr() && d.br != 0));
        assert_traced_matches_interp("fused compare", &prog, 3650);
    }

    /// With four branch registers, targets live across calls are saved
    /// and restored through `bstore`/`bload`, so restored registers are
    /// unknown to formation.
    #[test]
    fn saved_and_restored_targets_match_the_interpreter() {
        let src = "int leaf(int x) { int t = 0; for (int j = 0; j < x % 4; j++) t += j; return t; }
            int mid(int x) { int s = 0; for (int k = 0; k < 3; k++) s += leaf(x + k); return s; }
            int main() { int s = 0; for (int i = 0; i < 100; i++) s += mid(i); return s; }";
        let opts = BrOptions {
            num_bregs: 4,
            ..BrOptions::default()
        };
        let prog = compile_br(src, opts);
        assert!(has(&prog, |d| d.kind == Kind::BStore), "no bstore emitted");
        assert_traced_matches_interp("four bregs", &prog, 300);
    }

    /// `sum 0..49` forms a superblock that runs through a predicted
    /// transfer and unrolls its loop: it passes the loop head twice.
    #[test]
    fn a_loop_runs_through_its_predicted_transfers_and_unrolls() {
        let src = "int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }";
        let prog = compile_br(src, BrOptions::default());
        let mut emu = Emulator::new(&prog).with_tier(ExecTier::Traced);
        assert_eq!(emu.run(1_000_000), Ok(1225));
        let engine = emu.engine.as_ref().expect("traced run keeps its engine");
        let unrolled = engine.traces.iter().any(|t| {
            let ops = &engine.arena[t.start as usize..(t.start + t.len) as usize];
            let inner_xfer = ops[..ops.len() - 1].iter().any(|o| o.ctl() == Ctl::BrXfer);
            let head = ops[0].pc();
            inner_xfer && ops.iter().filter(|o| o.pc() == head).count() >= 2
        });
        assert!(
            unrolled,
            "no trace runs through a transfer around the loop twice"
        );
    }

    #[test]
    fn top_is_16_bytes_and_roundtrips() {
        assert_eq!(std::mem::size_of::<TOp>(), 16);
        let d = Decoded {
            kind: Kind::Nop,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            br: 0,
            imm: 0,
        };
        for ctl in [
            Ctl::Plain,
            Ctl::GuardTaken,
            Ctl::GuardNot,
            Ctl::Uncond,
            Ctl::BrXfer,
        ] {
            let op = TOp::new(d, 0x0012_3454, ctl);
            assert_eq!(op.pc(), 0x0012_3454);
            assert_eq!(op.ctl(), ctl);
        }
    }
}
