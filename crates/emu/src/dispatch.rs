//! Tier 1: function-pointer threaded dispatch.
//!
//! The interpreter (`emu.rs`) re-matches a 26-variant [`MInst`] — with
//! nested `AluOp`/`Src2`/`MemWidth` matches — on every dynamic
//! instruction. This tier instead predecodes each text word once into a
//! flat [`Decoded`] record ([`br_isa::decoded`]) whose dense
//! [`Kind`] indexes a static table of handler function pointers, so the
//! per-instruction work is one bounds check, one table load, and one
//! indirect call over constant-folded operands.
//!
//! Handlers deliberately take **no hook parameter** — all hook events
//! (`fetch`, `prefetch`, `retire`) are emitted from the monomorphized
//! loops, which statically know the hook type. The branch-register
//! `prefetch` event is reconstructed after the handler returns: every
//! breg-assigning kind leaves the assigned value in `bregs[d.a]`, so
//! the loop emits `hook.prefetch(bregs[d.a])` exactly where the
//! interpreter's `assign_breg` would have.
//!
//! Equivalence contract: for every program and fuel, each loop here
//! produces byte-identical [`Measurements`], hook event streams,
//! results, and `pc()` values to the interpreter. The unit tests at the
//! bottom and `tests/profile_equivalence.rs` pin this, and
//! `br-torture --tiers` fuzzes it.
//!
//! [`MInst`]: br_isa::MInst
//! [`Measurements`]: crate::Measurements

use br_isa::decoded::{Decoded, Kind, KIND_COUNT};
use br_isa::{abi, Cc, MemWidth};

use crate::emu::{BrState, EmuError, Emulator};
use crate::hooks::ExecHook;

/// Handler outcome consumed by the threaded loops.
pub(crate) enum Step {
    /// Fall through (or, on the BR machine, let the loop finish the
    /// `br`-field transfer bookkeeping).
    Next,
    /// Baseline delayed branch taken: the delay slot at `pc + 4` runs
    /// next, then control moves to the carried target.
    SetPending(u32),
    /// `halt` — the loop returns `regs[1]`.
    Halt,
}

/// The baseline loop passes `pending.is_some()` (are we in a delay
/// slot?) through `x`; the BR loop passes `now` (the 1-based dynamic
/// instruction index, never 0). Baseline control handlers read `x` as
/// the delay-slot flag — they must raise [`EmuError::BranchInDelaySlot`]
/// *before* any side effect, exactly like the interpreter — and
/// breg-assigning handlers read `x` as the prefetch timestamp. No kind
/// reads both.
type Handler = fn(&mut Emulator<'_>, &Decoded, u32, u64) -> Result<Step, EmuError>;

impl Emulator<'_> {
    /// `set_reg` over a raw register number.
    #[inline(always)]
    fn write_reg(&mut self, r: u8, v: i32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// The interpreter's `assign_breg` minus the hook call (the loop
    /// emits `prefetch` after the handler returns).
    #[inline(always)]
    fn write_breg(&mut self, bd: u8, value: u32, assign_time: u64) {
        self.bregs[bd as usize] = value;
        self.brstate[bd as usize] = BrState {
            assign_time,
            from_cond: false,
        };
    }
}

// ------------------------------------------------------------- handlers

fn h_data(_e: &mut Emulator<'_>, _d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
    // The loops trap data words before dispatch; this exists so the
    // table is total.
    Err(EmuError::ExecutedData(pc))
}

fn h_wrong(_e: &mut Emulator<'_>, _d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
    Err(EmuError::WrongMachine(pc))
}

fn h_nop(e: &mut Emulator<'_>, _d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.meas.noops += 1;
    Ok(Step::Next)
}

fn h_halt(_e: &mut Emulator<'_>, _d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    Ok(Step::Halt)
}

fn h_sethi(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.write_reg(d.a, d.imm);
    Ok(Step::Next)
}

/// ALU handlers: one pair (register / immediate `src2`) per operation,
/// with the operation body constant-folded into the handler.
macro_rules! alu_handlers {
    ($rr:ident, $ri:ident, |$a:ident, $b:ident| $body:expr) => {
        fn $rr(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
            let $a = e.regs[d.b as usize];
            let $b = e.regs[d.c as usize];
            let v = $body;
            e.write_reg(d.a, v);
            Ok(Step::Next)
        }
        fn $ri(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
            let $a = e.regs[d.b as usize];
            let $b = d.imm;
            let v = $body;
            e.write_reg(d.a, v);
            Ok(Step::Next)
        }
    };
}

/// Division-family handlers (need the pc for `DivByZero`).
macro_rules! div_handlers {
    ($rr:ident, $ri:ident, $method:ident) => {
        fn $rr(e: &mut Emulator<'_>, d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
            let b = e.regs[d.c as usize];
            if b == 0 {
                return Err(EmuError::DivByZero(pc));
            }
            let v = e.regs[d.b as usize].$method(b);
            e.write_reg(d.a, v);
            Ok(Step::Next)
        }
        fn $ri(e: &mut Emulator<'_>, d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
            if d.imm == 0 {
                return Err(EmuError::DivByZero(pc));
            }
            let v = e.regs[d.b as usize].$method(d.imm);
            e.write_reg(d.a, v);
            Ok(Step::Next)
        }
    };
}

alu_handlers!(h_add_rr, h_add_ri, |a, b| a.wrapping_add(b));
alu_handlers!(h_sub_rr, h_sub_ri, |a, b| a.wrapping_sub(b));
alu_handlers!(h_mul_rr, h_mul_ri, |a, b| a.wrapping_mul(b));
div_handlers!(h_div_rr, h_div_ri, wrapping_div);
div_handlers!(h_rem_rr, h_rem_ri, wrapping_rem);
alu_handlers!(h_and_rr, h_and_ri, |a, b| a & b);
alu_handlers!(h_or_rr, h_or_ri, |a, b| a | b);
alu_handlers!(h_xor_rr, h_xor_ri, |a, b| a ^ b);
alu_handlers!(h_sll_rr, h_sll_ri, |a, b| a.wrapping_shl(b as u32 & 31));
alu_handlers!(h_srl_rr, h_srl_ri, |a, b| ((a as u32) >> (b as u32 & 31))
    as i32);
alu_handlers!(h_sra_rr, h_sra_ri, |a, b| a >> (b as u32 & 31));
// The orlo immediate is already zero-extended at decode.
alu_handlers!(h_orlo_rr, h_orlo_ri, |a, b| a | b);

macro_rules! load_handlers {
    ($name:ident, $w:expr, |$v:ident, $e:ident, $d:ident| $sink:expr) => {
        fn $name(e: &mut Emulator<'_>, d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
            let addr = (e.regs[d.b as usize] as u32).wrapping_add(d.imm as u32);
            let $v = e.load(pc, addr, $w)?;
            let $e = e;
            let $d = d;
            $sink;
            Ok(Step::Next)
        }
    };
}

load_handlers!(h_load_byte, MemWidth::Byte, |v, e, d| e.write_reg(d.a, v));
load_handlers!(h_load_word, MemWidth::Word, |v, e, d| e.write_reg(d.a, v));
load_handlers!(h_load_f, MemWidth::Word, |v, e, d| {
    e.fregs[d.a as usize] = f32::from_bits(v as u32)
});

macro_rules! store_handlers {
    ($name:ident, $w:expr, |$e:ident, $d:ident| $src:expr) => {
        fn $name(e: &mut Emulator<'_>, d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
            let addr = (e.regs[d.b as usize] as u32).wrapping_add(d.imm as u32);
            let v = {
                let $e = &*e;
                let $d = d;
                $src
            };
            e.store(pc, addr, v, $w)?;
            Ok(Step::Next)
        }
    };
}

store_handlers!(h_store_byte, MemWidth::Byte, |e, d| e.regs[d.a as usize]);
store_handlers!(h_store_word, MemWidth::Word, |e, d| e.regs[d.a as usize]);
store_handlers!(
    h_store_f,
    MemWidth::Word,
    |e, d| e.fregs[d.a as usize].to_bits() as i32
);

macro_rules! fpu_handlers {
    ($name:ident, $op:tt) => {
        fn $name(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
            e.fregs[d.a as usize] = e.fregs[d.b as usize] $op e.fregs[d.c as usize];
            Ok(Step::Next)
        }
    };
}

fpu_handlers!(h_fadd, +);
fpu_handlers!(h_fsub, -);
fpu_handlers!(h_fmul, *);
fpu_handlers!(h_fdiv, /);

fn h_fneg(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.fregs[d.a as usize] = -e.fregs[d.b as usize];
    Ok(Step::Next)
}

fn h_fmov(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.fregs[d.a as usize] = e.fregs[d.b as usize];
    Ok(Step::Next)
}

fn h_itof(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.fregs[d.a as usize] = e.regs[d.b as usize] as f32;
    Ok(Step::Next)
}

fn h_ftoi(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    let v = e.fregs[d.b as usize];
    e.write_reg(d.a, v as i32);
    Ok(Step::Next)
}

// ----------------------------------------------------- baseline control

fn h_cmp_rr(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.cc = (e.regs[d.b as usize], e.regs[d.c as usize]);
    Ok(Step::Next)
}

fn h_cmp_ri(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.cc = (e.regs[d.b as usize], d.imm);
    Ok(Step::Next)
}

fn h_fcmp(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.fcc = (e.fregs[d.b as usize], e.fregs[d.c as usize]);
    Ok(Step::Next)
}

fn h_bcc(e: &mut Emulator<'_>, d: &Decoded, pc: u32, in_delay: u64) -> Result<Step, EmuError> {
    if in_delay != 0 {
        return Err(EmuError::BranchInDelaySlot(pc));
    }
    e.meas.transfers += 1;
    e.meas.cond_transfers += 1;
    if Cc::ALL[d.d as usize].eval_int(e.cc.0, e.cc.1) {
        e.meas.cond_taken += 1;
        Ok(Step::SetPending(d.imm as u32))
    } else {
        Ok(Step::Next)
    }
}

fn h_fbcc(e: &mut Emulator<'_>, d: &Decoded, pc: u32, in_delay: u64) -> Result<Step, EmuError> {
    if in_delay != 0 {
        return Err(EmuError::BranchInDelaySlot(pc));
    }
    e.meas.transfers += 1;
    e.meas.cond_transfers += 1;
    if Cc::ALL[d.d as usize].eval_float(e.fcc.0, e.fcc.1) {
        e.meas.cond_taken += 1;
        Ok(Step::SetPending(d.imm as u32))
    } else {
        Ok(Step::Next)
    }
}

fn h_ba(e: &mut Emulator<'_>, d: &Decoded, pc: u32, in_delay: u64) -> Result<Step, EmuError> {
    if in_delay != 0 {
        return Err(EmuError::BranchInDelaySlot(pc));
    }
    e.meas.transfers += 1;
    e.meas.uncond_transfers += 1;
    Ok(Step::SetPending(d.imm as u32))
}

fn h_call(e: &mut Emulator<'_>, d: &Decoded, pc: u32, in_delay: u64) -> Result<Step, EmuError> {
    if in_delay != 0 {
        return Err(EmuError::BranchInDelaySlot(pc));
    }
    e.meas.transfers += 1;
    e.meas.uncond_transfers += 1;
    e.regs[abi::BASE_LINK.0 as usize] = (pc + 8) as i32;
    Ok(Step::SetPending(d.imm as u32))
}

fn h_jmpl(e: &mut Emulator<'_>, d: &Decoded, pc: u32, in_delay: u64) -> Result<Step, EmuError> {
    if in_delay != 0 {
        return Err(EmuError::BranchInDelaySlot(pc));
    }
    e.meas.transfers += 1;
    e.meas.uncond_transfers += 1;
    let target = (e.regs[d.b as usize] as u32).wrapping_add(d.imm as u32);
    e.write_reg(d.a, (pc + 8) as i32);
    Ok(Step::SetPending(target))
}

// ------------------------------------------------ branch-register forms

fn h_bcalc(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, now: u64) -> Result<Step, EmuError> {
    e.meas.addr_calcs += 1;
    e.write_breg(d.a, d.imm as u32, now);
    Ok(Step::Next)
}

fn h_bmovr(e: &mut Emulator<'_>, d: &Decoded, _pc: u32, now: u64) -> Result<Step, EmuError> {
    e.meas.addr_calcs += 1;
    let target = (e.regs[d.b as usize] as u32).wrapping_add(d.imm as u32);
    e.write_breg(d.a, target, now);
    Ok(Step::Next)
}

fn h_bmovb(e: &mut Emulator<'_>, d: &Decoded, pc: u32, now: u64) -> Result<Step, EmuError> {
    e.meas.addr_calcs += 1;
    // Reading b[0] yields the next sequential address.
    let (v, src_time) = if d.b == 0 {
        (pc + 4, 0)
    } else {
        (e.bregs[d.b as usize], e.brstate[d.b as usize].assign_time)
    };
    e.write_breg(d.a, v, now);
    // Moving an already-prefetched register preserves its prefetch time.
    if d.b != 0 {
        e.brstate[d.a as usize].assign_time = src_time;
    }
    Ok(Step::Next)
}

macro_rules! bload_handlers {
    ($name:ident, |$e:ident, $d:ident| $src2:expr) => {
        fn $name(e: &mut Emulator<'_>, d: &Decoded, pc: u32, now: u64) -> Result<Step, EmuError> {
            e.meas.addr_calcs += 1;
            e.meas.br_restores += 1;
            let src2 = {
                let $e = &*e;
                let $d = d;
                $src2
            };
            let addr = (e.regs[d.b as usize] as u32).wrapping_add(src2 as u32);
            let v = e.load(pc, addr, MemWidth::Word)? as u32;
            e.write_breg(d.a, v, now);
            Ok(Step::Next)
        }
    };
}

bload_handlers!(h_bload_rr, |e, d| e.regs[d.c as usize]);
bload_handlers!(h_bload_ri, |_e, d| d.imm);

fn h_bstore(e: &mut Emulator<'_>, d: &Decoded, pc: u32, _x: u64) -> Result<Step, EmuError> {
    e.meas.br_saves += 1;
    let addr = (e.regs[d.b as usize] as u32).wrapping_add(d.imm as u32);
    let v = e.bregs[d.a as usize] as i32;
    e.store(pc, addr, v, MemWidth::Word)?;
    Ok(Step::Next)
}

macro_rules! cmpbr_handlers {
    ($name:ident, |$e:ident, $d:ident| $taken:expr) => {
        fn $name(e: &mut Emulator<'_>, d: &Decoded, pc: u32, now: u64) -> Result<Step, EmuError> {
            let taken = {
                let $e = &*e;
                let $d = d;
                $taken
            };
            let fused = d.br != 0;
            e.exec_cmpbr(taken, d.a, pc, now, fused);
            Ok(Step::Next)
        }
    };
}

cmpbr_handlers!(h_cmpbr_rr, |e, d| Cc::ALL[d.d as usize]
    .eval_int(e.regs[d.b as usize], e.regs[d.c as usize]));
cmpbr_handlers!(h_cmpbr_ri, |e, d| Cc::ALL[d.d as usize]
    .eval_int(e.regs[d.b as usize], d.imm));
cmpbr_handlers!(h_fcmpbr, |e, d| Cc::ALL[d.d as usize]
    .eval_float(e.fregs[d.b as usize], e.fregs[d.c as usize]));

// ----------------------------------------------------------- the table

/// One handler list, two dispatchers: the function-pointer table the
/// threaded loops index (tier 1), and an inlinable match the superblock
/// executor uses so handler bodies fold into the trace loop (tier 2).
/// Compile-time asserts pin each table entry to its [`Kind`]
/// discriminant, so the two dispatchers cannot drift apart.
macro_rules! handlers {
    ($(($k:path, $h:expr)),* $(,)?) => {
        const _: () = {
            let mut i = 0usize;
            $(
                assert!($k as usize == i, "handler table out of order");
                i += 1;
            )*
            assert!(i == KIND_COUNT, "handler table incomplete");
        };

        pub(crate) static HANDLERS: [Handler; KIND_COUNT] = [$($h),*];

        /// Direct-dispatch twin of [`HANDLERS`].
        #[inline(always)]
        pub(crate) fn exec_decoded(
            e: &mut Emulator<'_>,
            d: &Decoded,
            pc: u32,
            x: u64,
        ) -> Result<Step, EmuError> {
            match d.kind {
                $($k => $h(e, d, pc, x),)*
            }
        }
    };
}

handlers![
    (Kind::Data, h_data),
    (Kind::Wrong, h_wrong),
    (Kind::Nop, h_nop),
    (Kind::Halt, h_halt),
    (Kind::Sethi, h_sethi),
    (Kind::AddRR, h_add_rr),
    (Kind::AddRI, h_add_ri),
    (Kind::SubRR, h_sub_rr),
    (Kind::SubRI, h_sub_ri),
    (Kind::MulRR, h_mul_rr),
    (Kind::MulRI, h_mul_ri),
    (Kind::DivRR, h_div_rr),
    (Kind::DivRI, h_div_ri),
    (Kind::RemRR, h_rem_rr),
    (Kind::RemRI, h_rem_ri),
    (Kind::AndRR, h_and_rr),
    (Kind::AndRI, h_and_ri),
    (Kind::OrRR, h_or_rr),
    (Kind::OrRI, h_or_ri),
    (Kind::XorRR, h_xor_rr),
    (Kind::XorRI, h_xor_ri),
    (Kind::SllRR, h_sll_rr),
    (Kind::SllRI, h_sll_ri),
    (Kind::SrlRR, h_srl_rr),
    (Kind::SrlRI, h_srl_ri),
    (Kind::SraRR, h_sra_rr),
    (Kind::SraRI, h_sra_ri),
    (Kind::OrLoRR, h_orlo_rr),
    (Kind::OrLoRI, h_orlo_ri),
    (Kind::LoadByte, h_load_byte),
    (Kind::LoadWord, h_load_word),
    (Kind::LoadF, h_load_f),
    (Kind::StoreByte, h_store_byte),
    (Kind::StoreWord, h_store_word),
    (Kind::StoreF, h_store_f),
    (Kind::FAdd, h_fadd),
    (Kind::FSub, h_fsub),
    (Kind::FMul, h_fmul),
    (Kind::FDiv, h_fdiv),
    (Kind::FNeg, h_fneg),
    (Kind::FMov, h_fmov),
    (Kind::ItoF, h_itof),
    (Kind::FtoI, h_ftoi),
    (Kind::CmpRR, h_cmp_rr),
    (Kind::CmpRI, h_cmp_ri),
    (Kind::FCmp, h_fcmp),
    (Kind::Bcc, h_bcc),
    (Kind::FBcc, h_fbcc),
    (Kind::Ba, h_ba),
    (Kind::Call, h_call),
    (Kind::Jmpl, h_jmpl),
    (Kind::Bcalc, h_bcalc),
    (Kind::CmpBrRR, h_cmpbr_rr),
    (Kind::CmpBrRI, h_cmpbr_ri),
    (Kind::FCmpBr, h_fcmpbr),
    (Kind::BMovB, h_bmovb),
    (Kind::BMovR, h_bmovr),
    (Kind::BLoadRR, h_bload_rr),
    (Kind::BLoadRI, h_bload_ri),
    (Kind::BStore, h_bstore),
];

// -------------------------------------------------------- the two loops

impl Emulator<'_> {
    /// Threaded-dispatch baseline loop (`TRACED` additionally routes
    /// completed transfers through the superblock engine).
    pub(crate) fn run_baseline_threaded<H: ExecHook + ?Sized, const TRACED: bool>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<i32, EmuError> {
        let mut pending = self.pending.take();
        loop {
            if self.meas.instructions >= fuel {
                self.pending = pending;
                return Err(EmuError::OutOfFuel);
            }
            let pc = self.pc;
            let off = pc.wrapping_sub(abi::TEXT_BASE);
            let idx = (off >> 2) as usize;
            if off & 3 != 0 || idx >= self.ops.len() {
                return Err(EmuError::BadFetch(pc));
            }
            let d = self.ops[idx];
            if d.kind == Kind::Data {
                return Err(EmuError::ExecutedData(pc));
            }
            hook.fetch(pc);
            self.meas.instructions += 1;
            self.last_store = None;
            match HANDLERS[d.kind as usize](self, &d, pc, pending.is_some() as u64)? {
                Step::Next => {
                    hook.retire(pc, self.last_store.take());
                    match pending.take() {
                        Some(t) => {
                            self.pc = t;
                            if TRACED {
                                self.trace_dispatch(fuel, hook)?;
                            }
                        }
                        None => self.pc = pc + 4,
                    }
                }
                Step::SetPending(t) => {
                    pending = Some(t);
                    hook.retire(pc, None);
                    self.pc = pc + 4;
                }
                Step::Halt => {
                    hook.retire(pc, None);
                    return Ok(self.regs[1]);
                }
            }
        }
    }

    /// Threaded-dispatch branch-register loop.
    pub(crate) fn run_brmachine_threaded<H: ExecHook + ?Sized, const TRACED: bool>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<i32, EmuError> {
        loop {
            if self.meas.instructions >= fuel {
                return Err(EmuError::OutOfFuel);
            }
            let pc = self.pc;
            let off = pc.wrapping_sub(abi::TEXT_BASE);
            let idx = (off >> 2) as usize;
            if off & 3 != 0 || idx >= self.ops.len() {
                return Err(EmuError::BadFetch(pc));
            }
            let d = self.ops[idx];
            if d.kind == Kind::Data {
                return Err(EmuError::ExecutedData(pc));
            }
            hook.fetch(pc);
            self.meas.instructions += 1;
            self.last_store = None;
            let now = self.meas.instructions;
            let br = d.br as usize;
            // The br field is read during decode (before execution) —
            // except for the fused fast compare, re-read below.
            let mut next = if br == 0 { pc + 4 } else { self.bregs[br] };
            match HANDLERS[d.kind as usize](self, &d, pc, now)? {
                Step::Next => {}
                Step::Halt => {
                    hook.retire(pc, None);
                    return Ok(self.regs[1]);
                }
                // Baseline control flattens to Kind::Wrong on this
                // machine, so no handler can return SetPending here.
                Step::SetPending(_) => unreachable!("baseline control on the BR machine"),
            }
            if d.kind.assigns_breg() {
                hook.prefetch(self.bregs[d.a as usize]);
            }
            if br != 0 {
                // A fused compare transfers through the value it just
                // wrote.
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
            }
            hook.retire(pc, self.last_store.take());
            self.pc = next;
            if TRACED && br != 0 {
                self.trace_dispatch(fuel, hook)?;
            }
        }
    }
}
