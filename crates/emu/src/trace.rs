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
//! * **Branch register** — instructions with `br == 0` fall through and
//!   stitch as `Ctl::Plain`. A compare-and-branch (`br != 0`) usually
//!   falls through too, so it becomes a `Ctl::BrGuard`: the full
//!   transfer bookkeeping (fused fast-compare re-read, Figure 9
//!   distance histogram, `b[7]` side effect) runs, and the trace
//!   continues unless control actually left the fall-through path. Any
//!   other `br != 0` op (calls, returns, computed jumps) has a
//!   genuinely dynamic target: it ends the superblock as a
//!   `Ctl::BrTail`, which hands that target back to
//!   `Emulator::trace_dispatch` to chain straight into the next
//!   superblock without touching the outer loop.
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
/// goes to the branch target in `d.imm`).
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
    /// Branch-register compare-and-branch (`br != 0`), predicted to
    /// fall through: replays the full transfer bookkeeping, then
    /// side-exits unless control lands at `pc + 4` (the next trace op).
    BrGuard = 4,
    /// Branch-register op with `br != 0`: replays the transfer
    /// bookkeeping and ends the trace at the dynamic target.
    BrTail = 5,
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
            4 => Ctl::BrGuard,
            _ => Ctl::BrTail,
        }
    }
}

/// A formed superblock: a window into [`TraceEngine::arena`].
#[derive(Clone, Copy)]
pub(crate) struct Trace {
    start: u32,
    len: u32,
    /// Where control resumes when the trace runs off its end (never
    /// read when the last op is a [`Ctl::BrTail`]).
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
    /// Loop-closure scratch for baseline formation: `seen[i] == epoch`
    /// means text word `i` is already in the trace being formed. The
    /// epoch bump makes clearing free (no O(text) memset per trace —
    /// formation runs during warmup, which small programs re-pay on
    /// every fresh emulator).
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

/// A warmed superblock cache detached from its emulator, so a fresh run
/// of the *same program* can start with every hot trace already formed
/// instead of re-paying heat counting and formation (see
/// [`Emulator::take_trace_cache`]). The cache is keyed to the program
/// text: installing it into an emulator for different code is a no-op.
pub struct TraceCache {
    pub(crate) engine: Box<TraceEngine>,
    pub(crate) fingerprint: u64,
}

/// FNV-1a over the encoded text (plus machine and length), identifying
/// the code a [`TraceCache`] was formed for. Traces embed absolute pcs
/// and predecoded operands, so reuse is only sound on identical text.
pub(crate) fn text_fingerprint(prog: &br_isa::Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(prog.machine as u64);
    mix(prog.code.len() as u64);
    for &w in &prog.code {
        mix(w as u64);
    }
    h
}

#[inline]
fn pc_of(idx: usize) -> u32 {
    abi::TEXT_BASE + ((idx as u32) << 2)
}

/// Whether a kind may ride inside a trace (or a baseline delay slot)
/// with no control behavior of its own.
fn plain_ok(k: Kind) -> bool {
    !matches!(k, Kind::Data | Kind::Wrong | Kind::Halt) && !k.is_baseline_control()
}

impl TraceEngine {
    /// Stitch a superblock starting at text index `start` and commit it
    /// to the arena, or return `None` if too short to pay for itself.
    fn form(&mut self, machine: Machine, ops: &[Decoded], start: usize) -> Option<u32> {
        self.scratch.clear();
        let exit_pc = match machine {
            Machine::Baseline => self.form_baseline(ops, start),
            Machine::BranchReg => self.form_br(ops, start),
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

    /// Fill `scratch` with the baseline superblock at `start`; returns
    /// its fall-off exit pc.
    fn form_baseline(&mut self, ops: &[Decoded], start: usize) -> u32 {
        self.epoch += 1;
        let mut ep = self.epoch;
        let mut idx = start;
        loop {
            if self.scratch.len() >= MAX_TRACE_OPS || idx >= ops.len() {
                break pc_of(idx);
            }
            if self.seen[idx] == ep {
                if UNROLL && idx == start {
                    // The trace closed a loop back to its own entry:
                    // unroll another lap (fresh epoch so the body can
                    // be re-stitched) to amortize trace dispatch over
                    // many iterations. MAX_TRACE_OPS bounds the unroll.
                    self.epoch += 1;
                    ep = self.epoch;
                } else {
                    // Closed a cycle that doesn't pass through the
                    // entry; its head will get its own trace once hot.
                    break pc_of(idx);
                }
            }
            let d = ops[idx];
            let k = d.kind;
            match k {
                Kind::Bcc | Kind::FBcc => {
                    // Needs an innocuous delay slot to fold across.
                    if idx + 1 >= ops.len() || !plain_ok(ops[idx + 1].kind) {
                        break pc_of(idx);
                    }
                    let target = d.imm as u32;
                    let t_off = target.wrapping_sub(abi::TEXT_BASE);
                    let t_idx = (t_off >> 2) as usize;
                    let target_ok = t_off & 3 == 0 && t_idx < ops.len();
                    // Static prediction: backward taken, forward not
                    // taken.
                    let expect_taken = target_ok && t_idx <= idx;
                    let ctl = if expect_taken {
                        Ctl::GuardTaken
                    } else {
                        Ctl::GuardNot
                    };
                    self.seen[idx] = ep;
                    self.scratch.push(TOp::new(d, pc_of(idx), ctl));
                    self.seen[idx + 1] = ep;
                    self.scratch
                        .push(TOp::new(ops[idx + 1], pc_of(idx + 1), Ctl::Plain));
                    idx = if expect_taken { t_idx } else { idx + 2 };
                }
                Kind::Ba | Kind::Call => {
                    let target = d.imm as u32;
                    let t_off = target.wrapping_sub(abi::TEXT_BASE);
                    let t_idx = (t_off >> 2) as usize;
                    let target_ok = t_off & 3 == 0 && t_idx < ops.len();
                    if idx + 1 >= ops.len() || !plain_ok(ops[idx + 1].kind) || !target_ok {
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

    /// Fill `scratch` with the branch-register superblock at `start`;
    /// returns its fall-off exit pc.
    fn form_br(&mut self, ops: &[Decoded], start: usize) -> u32 {
        let mut idx = start;
        loop {
            if self.scratch.len() >= MAX_TRACE_OPS || idx >= ops.len() {
                break pc_of(idx);
            }
            let d = ops[idx];
            if !plain_ok(d.kind) {
                break pc_of(idx);
            }
            if d.br != 0 {
                // A conditional (compare-and-branch) transfer usually
                // falls through, so guard it and keep stitching;
                // anything else (calls, returns, computed jumps through
                // a breg) has a genuinely dynamic target and ends the
                // superblock.
                if d.kind.is_cmpbr() {
                    self.scratch.push(TOp::new(d, pc_of(idx), Ctl::BrGuard));
                    idx += 1;
                    continue;
                }
                self.scratch.push(TOp::new(d, pc_of(idx), Ctl::BrTail));
                break pc_of(idx + 1);
            }
            self.scratch.push(TOp::new(d, pc_of(idx), Ctl::Plain));
            idx += 1;
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
            let pc = self.pc;
            let off = pc.wrapping_sub(abi::TEXT_BASE);
            let idx = (off >> 2) as usize;
            if off & 3 != 0 || idx >= self.ops.len() {
                // Let the threaded loop raise the exact BadFetch.
                return Ok(());
            }
            let tid = match engine.map[idx] {
                NEVER => return Ok(()),
                UNEXPLORED => {
                    engine.heat[idx] += 1;
                    if engine.heat[idx] < HOT {
                        return Ok(());
                    }
                    match engine.form(self.prog.machine, &self.ops, idx) {
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
                Ctl::BrGuard => {
                    let next = match self.br_transfer(&op.d, pc, now, hook) {
                        Ok(n) => n,
                        Err(e) => bail!(pc, e),
                    };
                    if next == pc + 4 {
                        i += 1;
                    } else {
                        self.meas.instructions = entry + executed;
                        self.trace_insts += executed;
                        self.pc = next;
                        return Ok(());
                    }
                }
                Ctl::BrTail => {
                    let next = match self.br_transfer(&op.d, pc, now, hook) {
                        Ok(n) => n,
                        Err(e) => bail!(pc, e),
                    };
                    self.meas.instructions = entry + executed;
                    self.trace_insts += executed;
                    self.pc = next;
                    return Ok(());
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
            Ctl::BrGuard,
            Ctl::BrTail,
        ] {
            let op = TOp::new(d, 0x0012_3454, ctl);
            assert_eq!(op.pc(), 0x0012_3454);
            assert_eq!(op.ctl(), ctl);
        }
    }
}
