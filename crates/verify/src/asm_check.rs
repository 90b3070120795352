//! Checker 3: lint over emitted symbolic machine code.
//!
//! For both machines, every instruction must encode (register indices,
//! immediate and displacement ranges, machine-exclusive variants). On
//! the baseline, every delayed transfer must be followed by exactly one
//! non-transfer instruction (the delay slot). On the branch-register
//! machine, the checker runs a small abstract interpretation of the
//! branch-register file over the instruction stream, mirroring the
//! emulator's semantics:
//!
//! * the `br` field of a non-compare instruction reads the branch
//!   register *before* the instruction executes;
//! * a compare-with-assignment carrying its own `br` field (a fused
//!   compare) re-reads it *after* writing `b[7]`;
//! * after any transferring instruction the hardware writes the
//!   sequential address into `b[7]` — this is the call/return linkage.
//!
//! Each branch register abstractly holds either "undefined" or the set
//! of targets it may name (a local label, a specific instruction
//! address, a function entry, or the caller's return address). Any
//! transfer through an undefined register on some path is an error, as
//! is a compare whose taken-target register is undefined. On top of the
//! dataflow, the checker enforces compare/carrier pairing and — given
//! the emitter's [`HoistPlan`] — that branch registers holding hoisted
//! targets are not clobbered inside the loops they serve, including the
//! callee-saved discipline across calls.
//!
//! Target sets are hash-consed per function ([`Sets`]): equal sets share
//! one id and unions are memoized, so a register's value is an
//! `Option<u32>`, the whole register file is a `Copy` array, and the
//! per-instruction transfer function copies 64 bytes instead of cloning
//! eight trees.

use std::collections::{BTreeSet, HashMap};

use br_codegen::hoist::HoistPlan;
use br_codegen::BrOptions;
use br_isa::{
    encode, AsmFunc, AsmItem, Label, MInst, Machine, Reloc, Src2, SymRef, FRESH_LABEL_BASE,
};

use crate::VerifyError;

/// What a branch register may name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Tgt {
    /// A function-local label.
    Label(u32),
    /// A specific item index in this function's stream.
    Addr(usize),
    /// Some other function's entry (transferring is a call).
    Func,
    /// The caller's return address (transferring is a return).
    Ret,
}

/// Id of the empty set in every [`Sets`].
const EMPTY: u32 = 0;

/// One function's hash-consed target sets. Each set is stored once,
/// sorted, under a dense id, so set equality is id equality.
struct Sets {
    sets: Vec<Vec<Tgt>>,
    ids: HashMap<Vec<Tgt>, u32>,
    /// Memoized unions, keyed by `(smaller id, larger id)`.
    unions: HashMap<(u32, u32), u32>,
}

impl Sets {
    fn new() -> Sets {
        let mut s = Sets {
            sets: Vec::new(),
            ids: HashMap::new(),
            unions: HashMap::new(),
        };
        s.intern(&[]);
        s
    }

    /// The id of a sorted, duplicate-free set.
    fn intern(&mut self, ts: &[Tgt]) -> u32 {
        if let Some(&id) = self.ids.get(ts) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(ts.to_vec());
        self.ids.insert(ts.to_vec(), id);
        id
    }

    fn one(&mut self, t: Tgt) -> u32 {
        self.intern(&[t])
    }

    fn get(&self, id: u32) -> &[Tgt] {
        &self.sets[id as usize]
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&u) = self.unions.get(&key) {
            return u;
        }
        let (x, y) = (self.get(a), self.get(b));
        let mut merged = Vec::with_capacity(x.len() + y.len());
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(x[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(y[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(x[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&x[i..]);
        merged.extend_from_slice(&y[j..]);
        let u = self.intern(&merged);
        self.unions.insert(key, u);
        u
    }
}

/// Abstract value of one branch register: `None` when it is not written
/// on some path, else the id of the set of targets it may name.
type BVal = Option<u32>;

/// The branch-register file at a program point.
type BState = [BVal; 8];

/// Merge `o` into `s` (undefined wins, sets unite); whether `s` changed.
fn merge_into(sets: &mut Sets, s: &mut BState, o: &BState) -> bool {
    let mut changed = false;
    for (a, b) in s.iter_mut().zip(o) {
        let m = match (*a, *b) {
            (Some(x), Some(y)) => Some(sets.union(x, y)),
            _ => None,
        };
        changed |= m != *a;
        *a = m;
    }
    changed
}

/// The branch register an instruction writes, if any. Compares always
/// write `b[7]`.
fn breg_def(inst: &MInst) -> Option<u8> {
    match inst {
        MInst::Bcalc { bd, .. }
        | MInst::BMovB { bd, .. }
        | MInst::BMovR { bd, .. }
        | MInst::BLoad { bd, .. } => Some(bd.0),
        MInst::CmpBr { .. } | MInst::FCmpBr { .. } => Some(7),
        _ => None,
    }
}

/// Verify one emitted function. `hoist` is the emitter's plan on the
/// branch-register machine (`None` on the baseline or when hoisting is
/// disabled produces an empty default plan upstream).
pub fn check_asm(
    asm: &AsmFunc,
    machine: Machine,
    hoist: Option<&HoistPlan>,
    opts: &BrOptions,
) -> Result<(), VerifyError> {
    match check_asm_all(asm, machine, hoist, opts).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// [`check_asm`], but collecting *every* protocol violation in the
/// function instead of stopping at the first. Violations come back in
/// scan order per checker (encoding first, then the machine-specific
/// discipline), so the first element is exactly what [`check_asm`]
/// would have returned. An empty vector means the function is clean.
pub fn check_asm_all(
    asm: &AsmFunc,
    machine: Machine,
    hoist: Option<&HoistPlan>,
    opts: &BrOptions,
) -> Vec<VerifyError> {
    let mut sink = Vec::new();
    check_encoding(asm, machine, &mut sink);
    match machine {
        Machine::Baseline => check_delay_slots(asm, &mut sink),
        Machine::BranchReg => {
            let mut lint = BrLint::new(asm, opts);
            let states = lint.dataflow();
            lint.check_uses(&states, &mut sink);
            lint.check_pairing(&mut sink);
            if let Some(plan) = hoist {
                lint.check_hoist(plan, opts, &states, &mut sink);
            }
        }
    }
    sink
}

/// Every instruction must encode for the target machine. Unpatched
/// relocation fields hold zero, which always encodes; the assembler
/// re-checks patched values at link time.
fn check_encoding(asm: &AsmFunc, machine: Machine, sink: &mut Vec<VerifyError>) {
    for (index, item) in asm.items.iter().enumerate() {
        if let AsmItem::Inst(inst, _) = item {
            if let Err(err) = encode(machine, *inst) {
                sink.push(VerifyError::Encoding {
                    func: asm.name.clone(),
                    index,
                    err,
                });
            }
        }
    }
}

/// Baseline delay-slot discipline: every delayed transfer is followed by
/// exactly one instruction that is neither a transfer nor a join point.
fn check_delay_slots(asm: &AsmFunc, sink: &mut Vec<VerifyError>) {
    for (index, item) in asm.items.iter().enumerate() {
        let AsmItem::Inst(inst, _) = item else {
            continue;
        };
        if !inst.is_baseline_transfer() {
            continue;
        }
        let err = |detail: String| VerifyError::DelaySlot {
            func: asm.name.clone(),
            index,
            detail,
        };
        match asm.items.get(index + 1) {
            Some(AsmItem::Inst(slot, _)) => {
                if slot.is_baseline_transfer() {
                    sink.push(err(format!("transfer `{slot}` in the delay slot")));
                }
            }
            Some(AsmItem::Label(l)) => {
                sink.push(err(format!("label {l} in the delay slot")));
            }
            Some(AsmItem::Word(..)) => {
                sink.push(err("data word in the delay slot".into()));
            }
            None => sink.push(err("transfer at the end of the stream".into())),
        }
    }
}

/// The branch-register protocol analysis for one function.
struct BrLint<'a> {
    asm: &'a AsmFunc,
    sets: Sets,
    /// Label id → item index of the label.
    label_at: HashMap<u32, usize>,
    /// Per item: the next address-occupying item (labels take no space,
    /// so `pc + 4` skips them).
    next: Vec<Option<usize>>,
    /// Labels named by any jump-table word in the function: the fallback
    /// result set of an indexed `bload` whose table is not identified.
    table_targets: u32,
    /// Per-`bload` result sets, resolved to the specific jump table the
    /// load indexes (identified by the `%lo(table)` reloc that
    /// materialized its base address). Without this, a function with two
    /// switches would let each dispatch "jump" into the other's targets.
    bload_table: HashMap<usize, u32>,
    /// Caller-saved branch registers (clobbered across calls).
    caller_pool: Vec<u8>,
}

impl<'a> BrLint<'a> {
    fn new(asm: &'a AsmFunc, opts: &BrOptions) -> BrLint<'a> {
        let mut sets = Sets::new();
        let mut label_at = HashMap::new();
        let mut table_targets = BTreeSet::new();
        let mut tables: HashMap<u32, BTreeSet<Tgt>> = HashMap::new();
        let mut cur_table: Option<u32> = None;
        for (i, item) in asm.items.iter().enumerate() {
            match item {
                AsmItem::Label(Label(l)) => {
                    label_at.insert(*l, i);
                    cur_table = Some(*l);
                }
                AsmItem::Word(_, Some(Reloc::Abs(SymRef::Label(Label(l))))) => {
                    table_targets.insert(Tgt::Label(*l));
                    if let Some(t) = cur_table {
                        tables.entry(t).or_default().insert(Tgt::Label(*l));
                    }
                }
                _ => cur_table = None,
            }
        }
        let mut bload_table = HashMap::new();
        for (i, item) in asm.items.iter().enumerate() {
            if let AsmItem::Inst(
                MInst::BLoad {
                    src2: Src2::Reg(_), ..
                },
                _,
            ) = item
            {
                // The dispatch sequence (sethi/orlo/bload) is contiguous
                // within a block, so the nearest preceding `%lo(label)`
                // reloc names this load's table.
                for j in (0..i).rev() {
                    match &asm.items[j] {
                        AsmItem::Label(_) | AsmItem::Word(..) => break,
                        AsmItem::Inst(_, Some(Reloc::Lo(SymRef::Label(Label(l))))) => {
                            if let Some(ts) = tables.get(l) {
                                let ts: Vec<Tgt> = ts.iter().copied().collect();
                                bload_table.insert(i, sets.intern(&ts));
                            }
                            break;
                        }
                        AsmItem::Inst(..) => {}
                    }
                }
            }
        }
        let table_targets: Vec<Tgt> = table_targets.into_iter().collect();
        let table_targets = sets.intern(&table_targets);
        let mut next = vec![None; asm.items.len()];
        let mut after = None;
        for (i, item) in asm.items.iter().enumerate().rev() {
            next[i] = after;
            if !matches!(item, AsmItem::Label(_)) {
                after = Some(i);
            }
        }
        BrLint {
            asm,
            sets,
            label_at,
            next,
            table_targets,
            bload_table,
            caller_pool: opts.pools().1,
        }
    }

    /// The set naming only the next address after item `i` (empty at
    /// the end of the stream).
    fn next_set(&mut self, i: usize) -> u32 {
        match self.next[i] {
            Some(n) => self.sets.one(Tgt::Addr(n)),
            None => EMPTY,
        }
    }

    /// Append to `out` the successor item indices and their
    /// branch-register states after item `i` executes with in-state `s`.
    fn step(&mut self, i: usize, s: &BState, out: &mut Vec<(usize, BState)>) {
        let asm = self.asm;
        match &asm.items[i] {
            AsmItem::Label(_) => {
                if i + 1 < asm.items.len() {
                    out.push((i + 1, *s));
                }
            }
            // Data words are never executed; the stream ahead of them
            // always transfers away.
            AsmItem::Word(..) => {}
            AsmItem::Inst(inst, reloc) => self.step_inst(i, *inst, reloc.as_ref(), s, out),
        }
    }

    fn step_inst(
        &mut self,
        i: usize,
        inst: MInst,
        reloc: Option<&Reloc>,
        s: &BState,
        out: &mut Vec<(usize, BState)>,
    ) {
        let k = inst.br() as usize;
        // Definitions. The emulator reads a non-compare's `br` register
        // before execution, so the jump value for those is taken from
        // the *incoming* state below.
        let mut s2 = *s;
        match inst {
            MInst::Bcalc { bd, .. } => {
                s2[bd.0 as usize] = Some(match reloc {
                    Some(Reloc::Disp(SymRef::Label(Label(l)))) => self.sets.one(Tgt::Label(*l)),
                    _ => EMPTY,
                });
            }
            MInst::BMovR { bd, .. } => {
                s2[bd.0 as usize] = Some(match reloc {
                    Some(Reloc::Lo(SymRef::Func(_))) => self.sets.one(Tgt::Func),
                    _ => EMPTY,
                });
            }
            MInst::BMovB { bd, bs, .. } => {
                s2[bd.0 as usize] = if bs.0 == 0 {
                    // b[0] is the PC: reading it yields the sequential
                    // address.
                    Some(self.next_set(i))
                } else {
                    s[bs.0 as usize]
                };
            }
            MInst::BLoad { bd, src2, .. } => {
                s2[bd.0 as usize] = Some(match src2 {
                    // Fixed-offset loads restore a saved register from
                    // the frame: the return address or a caller's
                    // callee-saved value, both opaque here.
                    Src2::Imm(_) => self.sets.one(Tgt::Ret),
                    // Indexed loads read a word of this load's jump
                    // table (all of the function's tables when the
                    // table could not be identified).
                    Src2::Reg(_) => *self.bload_table.get(&i).unwrap_or(&self.table_targets),
                });
            }
            MInst::CmpBr { bt, .. } | MInst::FCmpBr { bt, .. } => {
                // Taken: b[7] = b[bt]. Not taken: b[7] = the address
                // past the compare (fused) or past its carrier.
                let taken = s[bt.0 as usize].unwrap_or(EMPTY); // Undef: reported by check_uses
                let not_taken = if k != 0 {
                    self.next[i]
                } else {
                    self.next[i].and_then(|n| self.next[n])
                };
                s2[7] = Some(match not_taken {
                    Some(n) => {
                        let n = self.sets.one(Tgt::Addr(n));
                        self.sets.union(taken, n)
                    }
                    None => taken,
                });
            }
            _ => {}
        }

        if k == 0 {
            if !matches!(inst, MInst::Halt) && i + 1 < self.asm.items.len() {
                out.push((i + 1, s2));
            }
            return;
        }

        // Transferring instruction. A fused compare re-reads its own
        // result; everything else latched the pre-execution value.
        let fused = matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. });
        let jump = if fused { s2[k] } else { s[k] };
        // The hardware then writes the sequential address into b[7]
        // (the linkage that makes calls return).
        let mut s3 = s2;
        s3[7] = Some(self.next_set(i));

        let Some(targets) = jump else { return };
        for &t in self.sets.get(targets) {
            match t {
                Tgt::Label(l) => {
                    if let Some(&j) = self.label_at.get(&l) {
                        out.push((j, s3));
                    }
                }
                Tgt::Addr(j) => out.push((j, s3)),
                Tgt::Func => {
                    // A call: control returns to the sequential address
                    // with every caller-saved branch register — and b[7]
                    // itself — clobbered by the callee. Callee-saved
                    // registers survive; their preservation is the
                    // callee's own saved/restored discipline, checked per
                    // function.
                    if let Some(ret) = self.next[i] {
                        let mut cs = s3;
                        for &r in &self.caller_pool {
                            cs[r as usize] = None;
                        }
                        cs[7] = None;
                        out.push((ret, cs));
                    }
                }
                Tgt::Ret => {} // leaves the function
            }
        }
    }

    /// Run the abstract interpretation to a fixed point; returns the
    /// converged in-state per item (`None` = unreachable).
    ///
    /// The item worklist terminates: an item is pushed only when its
    /// in-state is first set or changes under the merge, which only
    /// grows target sets (bounded by the function's labels, items and
    /// the two opaque targets) or turns a register undefined, and never
    /// undoes either.
    fn dataflow(&mut self) -> Vec<Option<BState>> {
        let n = self.asm.items.len();
        let mut states: Vec<Option<BState>> = vec![None; n];
        if n == 0 {
            return states;
        }
        let mut entry: BState = [None; 8];
        entry[0] = Some(EMPTY);
        entry[7] = Some(self.sets.one(Tgt::Ret));
        states[0] = Some(entry);
        let mut work = vec![0usize];
        let mut succ = Vec::new();
        while let Some(i) = work.pop() {
            let Some(s) = states[i] else { continue };
            succ.clear();
            self.step(i, &s, &mut succ);
            for &(j, t) in &succ {
                if j >= n {
                    continue;
                }
                match &mut states[j] {
                    None => {
                        states[j] = Some(t);
                        work.push(j);
                    }
                    Some(old) => {
                        if merge_into(&mut self.sets, old, &t) {
                            work.push(j);
                        }
                    }
                }
            }
        }
        states
    }

    /// With converged states, flag every read of an undefined branch
    /// register: transfers through `br`, compare taken-targets, and
    /// register-to-register moves. `bstore` is exempt — prologues save
    /// caller-saved registers whose incoming value is legitimately
    /// meaningless.
    fn check_uses(&self, states: &[Option<BState>], sink: &mut Vec<VerifyError>) {
        for (index, item) in self.asm.items.iter().enumerate() {
            let AsmItem::Inst(inst, _) = item else {
                continue;
            };
            let Some(s) = &states[index] else {
                continue; // unreachable code is vacuously fine
            };
            let unset = |breg: u8| VerifyError::UnsetBranchReg {
                func: self.asm.name.clone(),
                index,
                breg,
            };
            let k = inst.br();
            let fused = matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. });
            if k != 0 && !fused && s[k as usize].is_none() {
                sink.push(unset(k));
            }
            match inst {
                MInst::CmpBr { bt, .. } | MInst::FCmpBr { bt, .. }
                    if bt.0 != 0 && s[bt.0 as usize].is_none() =>
                {
                    sink.push(unset(bt.0));
                }
                MInst::BMovB { bs, .. } if bs.0 != 0 && s[bs.0 as usize].is_none() => {
                    sink.push(unset(bs.0));
                }
                _ => {}
            }
        }
    }

    /// A compare with `br == 0` computes a conditional target into
    /// `b[7]` for the *next* instruction to consume: that carrier must
    /// exist, transfer through `b[7]`, not redefine `b[7]`, and not be
    /// another compare (which would overwrite the pending result).
    fn check_pairing(&self, sink: &mut Vec<VerifyError>) {
        for (index, item) in self.asm.items.iter().enumerate() {
            let AsmItem::Inst(inst, _) = item else {
                continue;
            };
            if !matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. }) || inst.br() != 0 {
                continue;
            }
            let err = |detail: String| VerifyError::CarrierPairing {
                func: self.asm.name.clone(),
                index,
                detail,
            };
            match self.asm.items.get(index + 1) {
                Some(AsmItem::Inst(carrier, _)) => {
                    if matches!(carrier, MInst::CmpBr { .. } | MInst::FCmpBr { .. }) {
                        sink.push(err(format!("carrier `{carrier}` is itself a compare")));
                    } else if carrier.br() != 7 {
                        sink.push(err(format!(
                            "next instruction `{carrier}` does not transfer through b[7]"
                        )));
                    } else if breg_def(carrier) == Some(7) {
                        sink.push(err(format!("carrier `{carrier}` redefines b[7]")));
                    }
                }
                Some(AsmItem::Label(l)) => {
                    sink.push(err(format!("label {l} between compare and carrier")));
                }
                Some(AsmItem::Word(..)) => {
                    sink.push(err("data word between compare and carrier".into()));
                }
                None => sink.push(err("compare at the end of the stream".into())),
            }
        }
    }

    /// Hoist discipline: inside every block where the plan reserves a
    /// branch register for a hoisted target, nothing may redefine that
    /// register (except the hoisted calculation in its own preheader),
    /// and calls may only appear if the register is callee-saved.
    fn check_hoist(
        &self,
        plan: &HoistPlan,
        opts: &BrOptions,
        states: &[Option<BState>],
        sink: &mut Vec<VerifyError>,
    ) {
        let (_, caller_pool) = opts.pools();
        let mut cur_block: Option<u32> = None;
        for (index, item) in self.asm.items.iter().enumerate() {
            let inst = match item {
                AsmItem::Label(Label(l)) if *l < FRESH_LABEL_BASE => {
                    cur_block = Some(*l);
                    continue;
                }
                AsmItem::Inst(inst, _) => inst,
                _ => continue,
            };
            let Some(b) = cur_block else { continue };
            let reserved = plan.reserved_in(b);
            if reserved.is_empty() {
                continue;
            }
            let clobbered = |breg: u8| VerifyError::HoistClobbered {
                func: self.asm.name.clone(),
                index,
                breg,
            };
            if let Some(d) = breg_def(inst) {
                let is_hoisted_calc = plan.preheader(b).iter().any(|h| h.breg == d);
                if reserved.contains(&d) && !is_hoisted_calc {
                    sink.push(clobbered(d));
                }
            }
            // A call inside the protected region destroys every
            // caller-saved branch register.
            let k = inst.br();
            if k != 0 {
                if let Some(Some(s)) = states.get(index) {
                    let is_call =
                        s[k as usize].is_some_and(|ts| self.sets.get(ts).contains(&Tgt::Func));
                    if is_call {
                        // In a preheader the calls precede the hoisted
                        // calculations (which sit at the block's end),
                        // so registers this block itself computes are
                        // not yet live across the call.
                        let computed_here = plan.preheader(b);
                        let live_reserved = reserved.iter().find(|&&r| {
                            caller_pool.contains(&r) && !computed_here.iter().any(|h| h.breg == r)
                        });
                        if let Some(&r) = live_reserved {
                            sink.push(clobbered(r));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::{AluOp, BReg, Cc, Reg};

    fn func(items: Vec<AsmItem>) -> AsmFunc {
        AsmFunc {
            name: "t".into(),
            items,
        }
    }

    fn inst(i: MInst) -> AsmItem {
        AsmItem::Inst(i, None)
    }

    #[test]
    fn transfer_through_undefined_breg_is_rejected() {
        let f = func(vec![inst(MInst::Nop { br: 1 })]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Err(VerifyError::UnsetBranchReg {
                func: "t".into(),
                index: 0,
                breg: 1,
            })
        );
    }

    #[test]
    fn check_asm_all_collects_every_violation() {
        // Two independent undefined-register reads on one straight-line
        // path: the collecting variant reports both; `check_asm` still
        // reports only the first, and the first collected error matches
        // it exactly.
        let f = func(vec![
            inst(MInst::BMovB {
                bd: BReg(1),
                bs: BReg(2),
                br: 0,
            }),
            inst(MInst::BMovB {
                bd: BReg(3),
                bs: BReg(4),
                br: 0,
            }),
            inst(MInst::Halt),
        ]);
        let all = check_asm_all(&f, Machine::BranchReg, None, &BrOptions::default());
        assert_eq!(
            all,
            vec![
                VerifyError::UnsetBranchReg {
                    func: "t".into(),
                    index: 0,
                    breg: 2,
                },
                VerifyError::UnsetBranchReg {
                    func: "t".into(),
                    index: 1,
                    breg: 4,
                },
            ]
        );
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Err(all[0].clone())
        );
    }

    #[test]
    fn check_asm_all_spans_checkers() {
        // A baseline stream with a delay-slot violation *and* an
        // encoding violation: both checkers contribute, encoding first.
        let f = func(vec![
            inst(MInst::Bcc {
                cc: Cc::Eq,
                float: false,
                disp: 1 << 24, // out of Bcc's displacement range
            }),
            AsmItem::Label(Label(3)),
            inst(MInst::Halt),
        ]);
        let all = check_asm_all(&f, Machine::Baseline, None, &BrOptions::default());
        assert_eq!(all.len(), 2, "{all:?}");
        assert!(matches!(all[0], VerifyError::Encoding { index: 0, .. }));
        assert!(matches!(all[1], VerifyError::DelaySlot { index: 0, .. }));
    }

    #[test]
    fn bcalc_then_transfer_is_clean() {
        let f = func(vec![
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(9)))),
            ),
            inst(MInst::Nop { br: 1 }),
            AsmItem::Label(Label(9)),
            inst(MInst::Halt),
        ]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Ok(())
        );
    }

    #[test]
    fn return_through_b7_is_clean() {
        // b[7] holds the caller's return address on entry.
        let f = func(vec![inst(MInst::Nop { br: 7 })]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Ok(())
        );
    }

    #[test]
    fn immediate_out_of_range_is_an_encoding_error() {
        // 100000 does not fit the BR machine's 11-bit immediate.
        let f = func(vec![inst(MInst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(1),
            src2: Src2::Imm(100_000),
            br: 0,
        })]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Err(VerifyError::Encoding {
                func: "t".into(),
                index: 0,
                err: br_isa::EncodeError::ImmOutOfRange,
            })
        );
    }

    #[test]
    fn compare_without_carrier_is_rejected() {
        let f = func(vec![
            inst(MInst::CmpBr {
                cc: Cc::Eq,
                bt: BReg(7),
                rs1: Reg(1),
                src2: Src2::Imm(0),
                br: 0,
            }),
            inst(MInst::Nop { br: 0 }), // does not consume b[7]
            inst(MInst::Halt),
        ]);
        // bt = b7 is defined (return address), so the pairing check is
        // what fires.
        assert!(matches!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Err(VerifyError::CarrierPairing { .. })
        ));
    }

    #[test]
    fn compare_with_carrier_is_clean() {
        // if (r1 == 0) goto L9 else fall through — paired form.
        let f = func(vec![
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(9)))),
            ),
            inst(MInst::CmpBr {
                cc: Cc::Eq,
                bt: BReg(1),
                rs1: Reg(1),
                src2: Src2::Imm(0),
                br: 0,
            }),
            inst(MInst::Nop { br: 7 }),
            inst(MInst::Halt),
            AsmItem::Label(Label(9)),
            inst(MInst::Halt),
        ]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Ok(())
        );
    }

    #[test]
    fn undefined_on_one_path_is_rejected() {
        // The taken path defines b[2]; the fall-through path does not.
        // The join then transfers through b[2].
        let f = func(vec![
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(9)))),
            ),
            inst(MInst::CmpBr {
                cc: Cc::Eq,
                bt: BReg(1),
                rs1: Reg(1),
                src2: Src2::Imm(0),
                br: 0,
            }),
            inst(MInst::Nop { br: 7 }),
            // fall-through: jump to join without defining b[2]
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(3),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(10)))),
            ),
            inst(MInst::Nop { br: 3 }),
            // taken path: define b[2], then join
            AsmItem::Label(Label(9)),
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(2),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(10)))),
            ),
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(3),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(10)))),
            ),
            inst(MInst::Nop { br: 3 }),
            AsmItem::Label(Label(10)),
            inst(MInst::Nop { br: 2 }), // b[2] undefined on one path
        ]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Err(VerifyError::UnsetBranchReg {
                func: "t".into(),
                index: 10,
                breg: 2,
            })
        );
    }

    #[test]
    fn baseline_delay_slot_violations_are_rejected() {
        let branch = MInst::Ba { disp: 4 };
        // Transfer in the delay slot.
        let f = func(vec![inst(branch), inst(branch), inst(MInst::Halt)]);
        assert!(matches!(
            check_asm(&f, Machine::Baseline, None, &BrOptions::default()),
            Err(VerifyError::DelaySlot { .. })
        ));
        // Label in the delay slot (a join point would execute it twice).
        let f = func(vec![
            inst(branch),
            AsmItem::Label(Label(1)),
            inst(MInst::Halt),
        ]);
        assert!(matches!(
            check_asm(&f, Machine::Baseline, None, &BrOptions::default()),
            Err(VerifyError::DelaySlot { .. })
        ));
        // Proper slot.
        let f = func(vec![
            inst(branch),
            inst(MInst::Nop { br: 0 }),
            inst(MInst::Halt),
        ]);
        assert_eq!(
            check_asm(&f, Machine::Baseline, None, &BrOptions::default()),
            Ok(())
        );
    }

    #[test]
    fn wrong_machine_instruction_is_an_encoding_error() {
        let f = func(vec![
            inst(MInst::Ba { disp: 4 }),
            inst(MInst::Nop { br: 0 }),
        ]);
        assert!(matches!(
            check_asm(&f, Machine::BranchReg, None, &BrOptions::default()),
            Err(VerifyError::Encoding {
                err: br_isa::EncodeError::WrongMachine,
                ..
            })
        ));
    }

    #[test]
    fn hoisted_register_clobber_is_rejected() {
        use br_codegen::hoist::{Hoisted, HoistedWhat};
        let mut plan = HoistPlan::default();
        plan.add_reserved(2, 1);
        plan.add_preheader(
            0,
            Hoisted {
                breg: 1,
                what: HoistedWhat::Block(2),
            },
        );
        // Block 2 (the loop body) redefines b[1], which the plan
        // reserved for the loop's hoisted target.
        let f = func(vec![
            AsmItem::Label(Label(0)),
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(2)))),
            ),
            AsmItem::Label(Label(2)),
            AsmItem::Inst(
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 0,
                    br: 0,
                },
                Some(Reloc::Disp(SymRef::Label(Label(2)))),
            ),
            inst(MInst::Halt),
        ]);
        assert_eq!(
            check_asm(&f, Machine::BranchReg, Some(&plan), &BrOptions::default()),
            Err(VerifyError::HoistClobbered {
                func: "t".into(),
                index: 3,
                breg: 1,
            })
        );
    }
}
