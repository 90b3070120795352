//! Per-side symbolic execution of emitted assembly.
//!
//! The executor runs one *segment* of one side's code — from the
//! function entry or an IR block label to the next IR block label,
//! return, or fork — over the abstract store of [`SideState`]. Both
//! machines' control conventions are modeled exactly as the emulator
//! implements them: the baseline's latched condition codes, delayed
//! branches and delay slots, and the branch-register machine's
//! pre-execution branch-register reads, fused compares, and the
//! sequential-address write to `b[7]` after every taken transfer.
//!
//! Anything the executor cannot model precisely (indirect stores
//! through an escaped stack pointer, unbounded forks, executing data
//! words) surfaces as a typed [`Stuck`] — never a panic — which the
//! engine reports as an *unproven* function.

use std::collections::{BTreeMap, HashMap};

use br_codegen::{FuncGeom, TargetSpec};
use br_isa::{
    AluOp, AsmFunc, AsmItem, Cc, MInst, Machine, MemWidth, Reloc, Src2, SymRef, FRESH_LABEL_BASE,
};

use super::expr::{disjoint, Arena, Expr, ExprId, HiSym, LocKind, Side};

/// Per-path executed-instruction cap; beyond this a segment is unproven.
pub const MAX_STEPS: u32 = 4096;
/// Cap on recorded branch decisions along one path.
pub const MAX_GUARDS: usize = 16;
/// Cap on exits produced by one segment.
pub const MAX_EXITS: usize = 128;
/// Store-forwarding walk depth.
const MAX_FORWARD: u32 = 64;

/// Why a segment could not be executed to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stuck {
    /// Function-relative instruction word where execution stopped.
    pub word: u32,
    /// Human-readable reason.
    pub why: String,
}

impl Stuck {
    fn new(word: u32, why: impl Into<String>) -> Stuck {
        Stuck {
            word,
            why: why.into(),
        }
    }
}

/// One branch decision along a path: the compared operands and the
/// condition, as the machine evaluated them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Condition code of the compare-and-branch.
    pub cc: Cc,
    /// Whether the compare was a float compare.
    pub float: bool,
    /// Left operand.
    pub lhs: ExprId,
    /// Right operand.
    pub rhs: ExprId,
}

/// Where a segment exit hands control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arrival {
    /// Fell into or jumped to the IR block label.
    Anchor(u32),
    /// Returned to the caller.
    Return,
}

/// One exit of a segment: the branch decisions that selected this path,
/// where it arrived, and the abstract store on arrival.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Branch decisions along the path, in execution order.
    pub guards: Vec<(Guard, bool)>,
    /// Where the path handed control.
    pub arrival: Arrival,
    /// The store on arrival.
    pub state: SideState,
}

/// The abstract store of one side at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideState {
    /// Integer registers (`r0` is pinned to zero).
    pub regs: [ExprId; 32],
    /// Float registers (bit-level values).
    pub fregs: [ExprId; 32],
    /// Branch registers (baseline side carries them inert).
    pub bregs: [ExprId; 8],
    /// Latched integer compare operands (baseline `cmp`).
    pub cc: [ExprId; 2],
    /// Latched float compare operands (baseline `fcmp`).
    pub fcc: [ExprId; 2],
    /// Observable memory: the store chain over `Mem0`.
    pub chain: ExprId,
    /// Private frame memory, keyed by entry-sp-relative byte offset.
    pub private: BTreeMap<i32, ExprId>,
}

/// Signature of a callee, extracted from the IR module.
#[derive(Debug, Clone)]
pub struct CallSig {
    /// Per parameter: is it a float?
    pub params: Vec<bool>,
    /// Return kind.
    pub ret: RetKind,
}

/// How a function returns its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetKind {
    /// No value.
    Void,
    /// Integer/pointer in `r1`.
    Int,
    /// Float in `f1`.
    Float,
}

/// Where one logical argument travels under a target's conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgSlot {
    /// Integer argument register.
    Int(u8),
    /// Float argument register.
    Float(u8),
    /// Outgoing-argument stack word (frame offset `4 * word`).
    Stack(u32),
}

/// Replicate the emitters' argument plan: ints to `int_args`, floats to
/// `float_args`, overflow to outgoing stack words with a counter shared
/// between the two classes.
pub fn arg_slots(target: &TargetSpec, params: &[bool]) -> Vec<ArgSlot> {
    let mut out = Vec::with_capacity(params.len());
    let (mut ni, mut nf, mut nw) = (0usize, 0usize, 0u32);
    for &is_float in params {
        if is_float {
            if nf < target.float_args.len() {
                out.push(ArgSlot::Float(target.float_args[nf]));
                nf += 1;
            } else {
                out.push(ArgSlot::Stack(nw));
                nw += 1;
            }
        } else if ni < target.int_args.len() {
            out.push(ArgSlot::Int(target.int_args[ni].0));
            ni += 1;
        } else {
            out.push(ArgSlot::Stack(nw));
            nw += 1;
        }
    }
    out
}

/// One side's code, indexed for symbolic execution.
pub struct SideCode {
    /// Which machine's stream this is.
    pub side: Side,
    /// The emitted items.
    pub items: Vec<AsmItem>,
    /// Instruction-word index of each item (labels bind to the word of
    /// the next instruction).
    pub word_of_item: Vec<u32>,
    /// First item (label or instruction) bound to each word.
    pub item_at_word: Vec<usize>,
    /// Label number → item index *after* the label item.
    pub label_item: HashMap<u32, usize>,
    /// Jump tables: binding label → target label per table word.
    pub tables: HashMap<u32, Vec<u32>>,
    /// IR block labels present, sorted.
    pub anchors: Vec<u32>,
    /// Total code words.
    pub nwords: u32,
}

impl SideCode {
    /// Index one side's emitted function.
    pub fn build(side: Side, af: &AsmFunc) -> SideCode {
        let items = af.items.clone();
        let mut word_of_item = Vec::with_capacity(items.len());
        let mut item_at_word = Vec::new();
        let mut label_item = HashMap::new();
        let mut anchors = Vec::new();
        let mut word = 0u32;
        for (i, item) in items.iter().enumerate() {
            word_of_item.push(word);
            if item_at_word.len() == word as usize {
                item_at_word.push(i);
            }
            match item {
                AsmItem::Label(l) => {
                    label_item.insert(l.0, i + 1);
                    if l.0 < FRESH_LABEL_BASE {
                        anchors.push(l.0);
                    }
                }
                AsmItem::Inst(..) | AsmItem::Word(..) => word += 1,
            }
        }
        anchors.sort_unstable();
        // Jump tables: a label immediately followed by a run of data
        // words whose relocations are all absolute label references.
        let mut tables = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            let AsmItem::Label(l) = item else { continue };
            let mut targets = Vec::new();
            for it in &items[i + 1..] {
                match it {
                    AsmItem::Word(_, Some(Reloc::Abs(SymRef::Label(t)))) => targets.push(t.0),
                    _ => break,
                }
            }
            if !targets.is_empty() {
                tables.insert(l.0, targets);
            }
        }
        SideCode {
            side,
            items,
            word_of_item,
            item_at_word,
            label_item,
            tables,
            anchors,
            nwords: word,
        }
    }
}

/// Immutable context of one side's execution.
pub struct Ctx<'a> {
    /// Which side this is.
    pub side: Side,
    /// The machine the stream targets.
    pub machine: Machine,
    /// Register conventions of this side.
    pub target: &'a TargetSpec,
    /// Frame geometry of this side's selected code.
    pub geom: &'a FuncGeom,
    /// Callee signatures, by name.
    pub sigs: &'a HashMap<String, CallSig>,
    /// The indexed code.
    pub code: &'a SideCode,
    /// Caller-saved branch registers to havoc at calls (BR side only).
    pub caller_bregs: &'a [u8],
    /// Callee-saved branch registers the return checks verify (BR side
    /// only).
    pub callee_bregs: &'a [u8],
}

/// Seed the entry store: parameters per the argument plan, the stack
/// pointer at offset zero, the return target in the link location, and
/// unconstrained [`Expr::Entry`] symbols everywhere else.
pub fn seed_entry(arena: &mut Arena, cx: &Ctx<'_>, params: &[bool]) -> SideState {
    let side = cx.side;
    let mut regs = [0u32; 32];
    let mut fregs = [0u32; 32];
    let mut bregs = [0u32; 8];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = arena.mk(Expr::Entry {
            side,
            kind: LocKind::Reg,
            loc: i as u32,
        });
    }
    for (i, f) in fregs.iter_mut().enumerate() {
        *f = arena.mk(Expr::Entry {
            side,
            kind: LocKind::FReg,
            loc: i as u32,
        });
    }
    for (i, b) in bregs.iter_mut().enumerate() {
        *b = arena.mk(Expr::Entry {
            side,
            kind: LocKind::BReg,
            loc: i as u32,
        });
    }
    regs[0] = arena.c(0);
    regs[cx.target.sp.0 as usize] = arena.mk(Expr::SpRel { side, off: 0 });
    let ret = arena.mk(Expr::RetTarget(side));
    match cx.machine {
        Machine::Baseline => {
            if let Some(link) = cx.target.link {
                regs[link.0 as usize] = ret;
            }
        }
        Machine::BranchReg => bregs[7] = ret,
    }
    let latch = |arena: &mut Arena, loc: u32| {
        arena.mk(Expr::Entry {
            side,
            kind: LocKind::Latch,
            loc,
        })
    };
    let cc = [latch(arena, 0), latch(arena, 1)];
    let fcc = [latch(arena, 2), latch(arena, 3)];
    let mut state = SideState {
        regs,
        fregs,
        bregs,
        cc,
        fcc,
        chain: arena.mk(Expr::Mem0),
        private: BTreeMap::new(),
    };
    for (j, slot) in arg_slots(cx.target, params).into_iter().enumerate() {
        let p = arena.mk(Expr::Param(j as u32));
        match slot {
            ArgSlot::Int(r) => state.regs[r as usize] = p,
            ArgSlot::Float(f) => state.fregs[f as usize] = p,
            ArgSlot::Stack(w) => {
                state.private.insert(4 * w as i32, p);
            }
        }
    }
    state
}

/// One in-flight path of a segment.
#[derive(Clone)]
struct Frame {
    item: usize,
    state: SideState,
    guards: Vec<(Guard, bool)>,
    steps: u32,
}

enum Place {
    Chain(ExprId),
    Priv(i32),
    Table(u32, ExprId),
}

/// The symbolic executor for one side of one function.
pub struct Exec<'a, 'b> {
    cx: &'a Ctx<'b>,
    arena: &'a mut Arena,
}

impl<'a, 'b> Exec<'a, 'b> {
    /// A new executor over `cx` and the shared arena.
    pub fn new(cx: &'a Ctx<'b>, arena: &'a mut Arena) -> Exec<'a, 'b> {
        Exec { cx, arena }
    }

    /// Run the entry segment (prologue up to the first block label).
    pub fn run_entry(&mut self, state: SideState) -> Result<Vec<Exit>, Stuck> {
        self.run(0, state)
    }

    /// Run the segment starting at IR block label `l`.
    pub fn run_anchor(&mut self, l: u32, state: SideState) -> Result<Vec<Exit>, Stuck> {
        let start = *self
            .cx
            .code
            .label_item
            .get(&l)
            .ok_or_else(|| Stuck::new(0, format!("label L{l} not emitted")))?;
        self.run(start, state)
    }

    fn run(&mut self, start: usize, state: SideState) -> Result<Vec<Exit>, Stuck> {
        let mut exits = Vec::new();
        let mut stack = vec![Frame {
            item: start,
            state,
            guards: Vec::new(),
            steps: 0,
        }];
        while let Some(fr) = stack.pop() {
            self.run_path(fr, &mut exits, &mut stack)?;
            if exits.len() > MAX_EXITS {
                return Err(Stuck::new(0, "segment exit cap exceeded"));
            }
        }
        Ok(exits)
    }

    fn run_path(
        &mut self,
        mut fr: Frame,
        exits: &mut Vec<Exit>,
        stack: &mut Vec<Frame>,
    ) -> Result<(), Stuck> {
        loop {
            let word = self
                .cx
                .code
                .word_of_item
                .get(fr.item)
                .copied()
                .unwrap_or(self.cx.code.nwords);
            let Some(item) = self.cx.code.items.get(fr.item) else {
                return Err(Stuck::new(word, "fell off the end of the function"));
            };
            match item.clone() {
                AsmItem::Label(l) if l.0 < FRESH_LABEL_BASE => {
                    exits.push(Exit {
                        guards: fr.guards,
                        arrival: Arrival::Anchor(l.0),
                        state: fr.state,
                    });
                    return Ok(());
                }
                AsmItem::Label(_) => {
                    fr.item += 1;
                    continue;
                }
                AsmItem::Word(..) => {
                    return Err(Stuck::new(word, "executed a data word"));
                }
                AsmItem::Inst(inst, reloc) => {
                    fr.steps += 1;
                    if fr.steps > MAX_STEPS {
                        return Err(Stuck::new(word, "path step cap exceeded"));
                    }
                    match self.cx.machine {
                        Machine::Baseline => {
                            match self.step_baseline(fr, inst, &reloc, word, exits, stack)? {
                                Some(next) => fr = next,
                                None => return Ok(()),
                            }
                        }
                        Machine::BranchReg => {
                            match self.step_br(fr, inst, &reloc, word, exits, stack)? {
                                Some(next) => fr = next,
                                None => return Ok(()),
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- baseline control ----

    fn step_baseline(
        &mut self,
        mut fr: Frame,
        inst: MInst,
        reloc: &Option<Reloc>,
        word: u32,
        exits: &mut Vec<Exit>,
        stack: &mut Vec<Frame>,
    ) -> Result<Option<Frame>, Stuck> {
        match inst {
            MInst::Halt => Err(Stuck::new(word, "halt inside a function body")),
            MInst::Bcc { cc, float, disp } => {
                let [lhs, rhs] = if float { fr.state.fcc } else { fr.state.cc };
                let target = self.reloc_label(reloc, word, disp)?;
                self.exec_slot(&mut fr)?;
                // Constant-fold an integer condition: both sides share
                // the arena, so folding is symmetric across sides.
                if !float {
                    if let (Expr::Const(a), Expr::Const(b)) =
                        (self.arena.get(lhs).clone(), self.arena.get(rhs).clone())
                    {
                        if cc.eval_int(a, b) {
                            return self.goto_label(fr, target, word, exits, stack);
                        }
                        fr.item += 2;
                        return Ok(Some(fr));
                    }
                }
                if fr.guards.len() >= MAX_GUARDS {
                    return Err(Stuck::new(word, "branch fork cap exceeded"));
                }
                let g = Guard {
                    cc,
                    float,
                    lhs,
                    rhs,
                };
                let mut taken = fr.clone();
                taken.guards.push((g, true));
                if let Some(t) = self.goto_label(taken, target, word, exits, stack)? {
                    stack.push(t);
                }
                fr.guards.push((g, false));
                fr.item += 2;
                Ok(Some(fr))
            }
            MInst::Ba { disp } => {
                let target = self.reloc_label(reloc, word, disp)?;
                self.exec_slot(&mut fr)?;
                self.goto_label(fr, target, word, exits, stack)
            }
            MInst::Call { .. } => {
                let Some(Reloc::Disp(SymRef::Func(name))) = reloc else {
                    return Err(Stuck::new(word, "call without a function target"));
                };
                let name = name.clone();
                if let Some(link) = self.cx.target.link {
                    fr.state.regs[link.0 as usize] = self.arena.mk(Expr::CodeAddr {
                        side: self.cx.side,
                        word: word + 2,
                    });
                }
                self.exec_slot(&mut fr)?;
                self.do_call(&mut fr.state, &name, word)?;
                fr.item += 2;
                Ok(Some(fr))
            }
            MInst::Jmpl { rd, rs1, off } => {
                let base = self.rv(&fr.state, rs1);
                let k = self.arena.c(off);
                let target = self.arena.alu(AluOp::Add, base, k);
                let ra = self.arena.mk(Expr::CodeAddr {
                    side: self.cx.side,
                    word: word + 2,
                });
                self.set_reg(&mut fr.state, rd, ra);
                self.exec_slot(&mut fr)?;
                fr.item += 2;
                match self.dispatch(fr, target, word, exits, stack)? {
                    Disp::Ended => Ok(None),
                    Disp::Continue(next) => Ok(Some(next)),
                    Disp::Call(..) => Err(Stuck::new(word, "indirect call through jmpl")),
                }
            }
            _ => {
                self.exec_body(&mut fr.state, &inst, reloc, word)?;
                fr.item += 1;
                Ok(Some(fr))
            }
        }
    }

    /// Execute the delay slot of the baseline instruction at `fr.item`.
    fn exec_slot(&mut self, fr: &mut Frame) -> Result<(), Stuck> {
        let word = self.cx.code.word_of_item[fr.item];
        let Some(AsmItem::Inst(slot, sreloc)) = self.cx.code.items.get(fr.item + 1).cloned() else {
            return Err(Stuck::new(word, "missing delay slot"));
        };
        fr.steps += 1;
        self.exec_body(&mut fr.state, &slot, &sreloc, word + 1)
    }

    /// Resolve a baseline branch target relocation to a label or word.
    fn reloc_label(
        &mut self,
        reloc: &Option<Reloc>,
        word: u32,
        disp: i32,
    ) -> Result<BTarget, Stuck> {
        match reloc {
            Some(Reloc::Disp(SymRef::Label(l))) => Ok(BTarget::Label(l.0)),
            None => Ok(BTarget::Word((word as i64 + disp as i64) as u32)),
            _ => Err(Stuck::new(word, "unexpected branch relocation")),
        }
    }

    /// Hand `fr` to a label or word target: an IR label is an arrival
    /// exit, anything else continues in-segment.
    fn goto_label(
        &mut self,
        mut fr: Frame,
        t: BTarget,
        word: u32,
        exits: &mut Vec<Exit>,
        _stack: &mut [Frame],
    ) -> Result<Option<Frame>, Stuck> {
        match t {
            BTarget::Label(l) if l < FRESH_LABEL_BASE => {
                exits.push(Exit {
                    guards: fr.guards,
                    arrival: Arrival::Anchor(l),
                    state: fr.state,
                });
                Ok(None)
            }
            BTarget::Label(l) => {
                fr.item = *self
                    .cx
                    .code
                    .label_item
                    .get(&l)
                    .ok_or_else(|| Stuck::new(word, format!("jump to unbound label L{l}")))?;
                Ok(Some(fr))
            }
            BTarget::Word(w) => {
                fr.item = *self
                    .cx
                    .code
                    .item_at_word
                    .get(w as usize)
                    .ok_or_else(|| Stuck::new(word, "jump past the end of the function"))?;
                Ok(Some(fr))
            }
        }
    }

    // ---- branch-register control ----

    fn step_br(
        &mut self,
        mut fr: Frame,
        inst: MInst,
        reloc: &Option<Reloc>,
        word: u32,
        exits: &mut Vec<Exit>,
        stack: &mut Vec<Frame>,
    ) -> Result<Option<Frame>, Stuck> {
        match inst {
            MInst::Halt => Err(Stuck::new(word, "halt inside a function body")),
            MInst::Bcc { .. } | MInst::Ba { .. } | MInst::Call { .. } | MInst::Jmpl { .. } => {
                Err(Stuck::new(word, "baseline control on the BR machine"))
            }
            MInst::CmpBr {
                cc,
                bt,
                rs1,
                src2,
                br,
            } => {
                let lhs = self.rv(&fr.state, rs1);
                let rhs = self.src2val(&fr.state, src2, reloc);
                self.finish_cmpbr(fr, cc, false, lhs, rhs, bt.0, br, word, exits, stack)
            }
            MInst::FCmpBr {
                cc,
                bt,
                fs1,
                fs2,
                br,
            } => {
                let lhs = fr.state.fregs[fs1.0 as usize];
                let rhs = fr.state.fregs[fs2.0 as usize];
                self.finish_cmpbr(fr, cc, true, lhs, rhs, bt.0, br, word, exits, stack)
            }
            _ => {
                let br = inst.br();
                // The emulator reads the transfer target before the
                // instruction executes.
                let target = (br != 0).then(|| fr.state.bregs[br as usize]);
                self.exec_body(&mut fr.state, &inst, reloc, word)?;
                match target {
                    None => {
                        fr.item += 1;
                        Ok(Some(fr))
                    }
                    Some(t) => {
                        fr.state.bregs[7] = self.arena.mk(Expr::CodeAddr {
                            side: self.cx.side,
                            word: word + 1,
                        });
                        fr.item = word as usize + 1; // placeholder; dispatch overrides
                        match self.dispatch(fr, t, word, exits, stack)? {
                            Disp::Ended => Ok(None),
                            Disp::Continue(next) => Ok(Some(next)),
                            Disp::Call(mut next, name) => {
                                self.do_call(&mut next.state, &name, word)?;
                                next.item = *self
                                    .cx
                                    .code
                                    .item_at_word
                                    .get(word as usize + 1)
                                    .ok_or_else(|| {
                                        Stuck::new(word, "call at the end of the function")
                                    })?;
                                Ok(Some(next))
                            }
                        }
                    }
                }
            }
        }
    }

    /// Compare-with-assignment: fork on the guard, write `b[7]`, and —
    /// when fused (`br != 0`) — transfer through the freshly written
    /// register, exactly as the emulator sequences it.
    #[allow(clippy::too_many_arguments)]
    fn finish_cmpbr(
        &mut self,
        fr: Frame,
        cc: Cc,
        float: bool,
        lhs: ExprId,
        rhs: ExprId,
        bt: u8,
        br: u8,
        word: u32,
        exits: &mut Vec<Exit>,
        stack: &mut Vec<Frame>,
    ) -> Result<Option<Frame>, Stuck> {
        let fused = br != 0;
        // Integer guards over shared constants fold symmetrically.
        if !float {
            if let (Expr::Const(a), Expr::Const(b)) =
                (self.arena.get(lhs).clone(), self.arena.get(rhs).clone())
            {
                let taken = cc.eval_int(a, b);
                return self.cmpbr_arm(fr, taken, bt, br, fused, word, exits, stack);
            }
        }
        if fr.guards.len() >= MAX_GUARDS {
            return Err(Stuck::new(word, "branch fork cap exceeded"));
        }
        let g = Guard {
            cc,
            float,
            lhs,
            rhs,
        };
        let mut taken = fr.clone();
        taken.guards.push((g, true));
        if let Some(t) = self.cmpbr_arm(taken, true, bt, br, fused, word, exits, stack)? {
            stack.push(t);
        }
        let mut fall = fr;
        fall.guards.push((g, false));
        self.cmpbr_arm(fall, false, bt, br, fused, word, exits, stack)
    }

    #[allow(clippy::too_many_arguments)]
    fn cmpbr_arm(
        &mut self,
        mut fr: Frame,
        taken: bool,
        bt: u8,
        br: u8,
        fused: bool,
        word: u32,
        exits: &mut Vec<Exit>,
        stack: &mut Vec<Frame>,
    ) -> Result<Option<Frame>, Stuck> {
        let seq_word = word + if fused { 1 } else { 2 };
        let b7 = if taken {
            fr.state.bregs[bt as usize]
        } else {
            self.arena.mk(Expr::CodeAddr {
                side: self.cx.side,
                word: seq_word,
            })
        };
        fr.state.bregs[7] = b7;
        if !fused {
            fr.item += 1;
            return Ok(Some(fr));
        }
        let target = fr.state.bregs[br as usize];
        fr.state.bregs[7] = self.arena.mk(Expr::CodeAddr {
            side: self.cx.side,
            word: word + 1,
        });
        match self.dispatch(fr, target, word, exits, stack)? {
            Disp::Ended => Ok(None),
            Disp::Continue(next) => Ok(Some(next)),
            Disp::Call(mut next, name) => {
                self.do_call(&mut next.state, &name, word)?;
                next.item = *self
                    .cx
                    .code
                    .item_at_word
                    .get(word as usize + 1)
                    .ok_or_else(|| Stuck::new(word, "call at the end of the function"))?;
                Ok(Some(next))
            }
        }
    }

    // ---- shared transfer dispatch ----

    fn dispatch(
        &mut self,
        mut fr: Frame,
        target: ExprId,
        word: u32,
        exits: &mut Vec<Exit>,
        stack: &mut Vec<Frame>,
    ) -> Result<Disp, Stuck> {
        let side = self.cx.side;
        match self.arena.get(target).clone() {
            Expr::RetTarget(s) if s == side => {
                exits.push(Exit {
                    guards: fr.guards,
                    arrival: Arrival::Return,
                    state: fr.state,
                });
                Ok(Disp::Ended)
            }
            Expr::LabelAddr { side: s, label } if s == side => {
                if label < FRESH_LABEL_BASE {
                    exits.push(Exit {
                        guards: fr.guards,
                        arrival: Arrival::Anchor(label),
                        state: fr.state,
                    });
                    Ok(Disp::Ended)
                } else {
                    fr.item = *self.cx.code.label_item.get(&label).ok_or_else(|| {
                        Stuck::new(word, format!("transfer to unbound label L{label}"))
                    })?;
                    Ok(Disp::Continue(fr))
                }
            }
            Expr::FuncAddr { side: s, name } if s == side => {
                let name = self.arena.name(name).to_string();
                Ok(Disp::Call(fr, name))
            }
            Expr::CodeAddr { side: s, word: w } if s == side => {
                fr.item = *self
                    .cx
                    .code
                    .item_at_word
                    .get(w as usize)
                    .ok_or_else(|| Stuck::new(word, "transfer past the end of the function"))?;
                Ok(Disp::Continue(fr))
            }
            Expr::TableEntry { side: s, label, .. } if s == side => {
                let targets = self
                    .cx
                    .code
                    .tables
                    .get(&label)
                    .ok_or_else(|| Stuck::new(word, "indirect jump through a non-table"))?
                    .clone();
                let mut seen = Vec::new();
                for t in targets {
                    if seen.contains(&t) {
                        continue;
                    }
                    seen.push(t);
                    let arm = fr.clone();
                    if let Some(next) =
                        self.goto_label(arm, BTarget::Label(t), word, exits, stack)?
                    {
                        stack.push(next);
                    }
                }
                Ok(Disp::Ended)
            }
            _ => Err(Stuck::new(word, "transfer through an unresolved address")),
        }
    }

    // ---- instruction bodies ----

    /// Execute one non-control instruction body against `state`.
    fn exec_body(
        &mut self,
        state: &mut SideState,
        inst: &MInst,
        reloc: &Option<Reloc>,
        word: u32,
    ) -> Result<(), Stuck> {
        match *inst {
            MInst::Nop { .. } => Ok(()),
            MInst::Alu {
                op, rd, rs1, src2, ..
            } => {
                let a = self.rv(state, rs1);
                let b = self.src2val(state, src2, reloc);
                let mut v = self.arena.alu(op, a, b);
                if rd != self.cx.target.sp {
                    v = self.slotify(state, v);
                }
                self.set_reg(state, rd, v);
                Ok(())
            }
            MInst::Sethi { rd, imm } => {
                let v = match reloc {
                    Some(Reloc::Hi(sym)) => {
                        let s = self.hisym(sym);
                        self.arena.mk(Expr::Hi(s))
                    }
                    _ => self.arena.c((imm << 11) as i32),
                };
                self.set_reg(state, rd, v);
                Ok(())
            }
            MInst::Load {
                w, rd, rs1, off, ..
            } => {
                let addr = self.mem_addr(state, rs1, off, reloc);
                let v = self.do_load(state, addr, w, word)?;
                self.set_reg(state, rd, v);
                Ok(())
            }
            MInst::LoadF { fd, rs1, off, .. } => {
                let addr = self.mem_addr(state, rs1, off, reloc);
                let v = self.do_load(state, addr, MemWidth::Word, word)?;
                state.fregs[fd.0 as usize] = v;
                Ok(())
            }
            MInst::Store {
                w, rs, rs1, off, ..
            } => {
                let addr = self.mem_addr(state, rs1, off, reloc);
                let val = self.rv(state, rs);
                self.do_store(state, addr, val, w, word)
            }
            MInst::StoreF { fs, rs1, off, .. } => {
                let addr = self.mem_addr(state, rs1, off, reloc);
                let val = state.fregs[fs.0 as usize];
                self.do_store(state, addr, val, MemWidth::Word, word)
            }
            MInst::Fpu {
                op, fd, fs1, fs2, ..
            } => {
                let a = state.fregs[fs1.0 as usize];
                let b = state.fregs[fs2.0 as usize];
                state.fregs[fd.0 as usize] = self.arena.mk(Expr::Fpu { op, a, b });
                Ok(())
            }
            MInst::FNeg { fd, fs, .. } => {
                let a = state.fregs[fs.0 as usize];
                state.fregs[fd.0 as usize] = self.arena.mk(Expr::FNeg(a));
                Ok(())
            }
            MInst::FMov { fd, fs, .. } => {
                state.fregs[fd.0 as usize] = state.fregs[fs.0 as usize];
                Ok(())
            }
            MInst::ItoF { fd, rs, .. } => {
                let a = self.rv(state, rs);
                state.fregs[fd.0 as usize] = self.arena.mk(Expr::ItoF(a));
                Ok(())
            }
            MInst::FtoI { rd, fs, .. } => {
                let a = state.fregs[fs.0 as usize];
                let v = self.arena.mk(Expr::FtoI(a));
                self.set_reg(state, rd, v);
                Ok(())
            }
            MInst::Cmp { rs1, src2 } => {
                state.cc = [self.rv(state, rs1), self.src2val(state, src2, reloc)];
                Ok(())
            }
            MInst::FCmp { fs1, fs2 } => {
                state.fcc = [state.fregs[fs1.0 as usize], state.fregs[fs2.0 as usize]];
                Ok(())
            }
            MInst::Bcalc { bd, disp, .. } => {
                let v = match reloc {
                    Some(Reloc::Disp(SymRef::Label(l))) => self.arena.mk(Expr::LabelAddr {
                        side: self.cx.side,
                        label: l.0,
                    }),
                    Some(Reloc::Disp(SymRef::Func(n))) => {
                        let name = self.arena.intern(n);
                        self.arena.mk(Expr::FuncAddr {
                            side: self.cx.side,
                            name,
                        })
                    }
                    None => self.arena.mk(Expr::CodeAddr {
                        side: self.cx.side,
                        word: (word as i64 + disp as i64) as u32,
                    }),
                    _ => return Err(Stuck::new(word, "unexpected bcalc relocation")),
                };
                state.bregs[bd.0 as usize] = v;
                Ok(())
            }
            MInst::BMovB { bd, bs, .. } => {
                let v = if bs.0 == 0 {
                    self.arena.mk(Expr::CodeAddr {
                        side: self.cx.side,
                        word: word + 1,
                    })
                } else {
                    state.bregs[bs.0 as usize]
                };
                state.bregs[bd.0 as usize] = v;
                Ok(())
            }
            MInst::BMovR { bd, rs1, off, .. } => {
                let base = self.rv(state, rs1);
                let k = self.imm_expr(off, reloc);
                state.bregs[bd.0 as usize] = self.arena.alu(AluOp::Add, base, k);
                Ok(())
            }
            MInst::BLoad { bd, rs1, src2, .. } => {
                let base = self.rv(state, rs1);
                let k = self.src2val(state, src2, reloc);
                let addr = self.arena.alu(AluOp::Add, base, k);
                let v = self.do_load(state, addr, MemWidth::Word, word)?;
                state.bregs[bd.0 as usize] = v;
                Ok(())
            }
            MInst::BStore { bs, rs1, off, .. } => {
                let addr = self.mem_addr(state, rs1, off, reloc);
                let val = state.bregs[bs.0 as usize];
                self.do_store(state, addr, val, MemWidth::Word, word)
            }
            MInst::Halt
            | MInst::Bcc { .. }
            | MInst::Ba { .. }
            | MInst::Call { .. }
            | MInst::Jmpl { .. }
            | MInst::CmpBr { .. }
            | MInst::FCmpBr { .. } => Err(Stuck::new(word, "control instruction in a delay slot")),
        }
    }

    // ---- operand helpers ----

    fn rv(&mut self, state: &SideState, r: br_isa::Reg) -> ExprId {
        state.regs[r.0 as usize]
    }

    fn set_reg(&mut self, state: &mut SideState, r: br_isa::Reg, v: ExprId) {
        if r.0 != 0 {
            state.regs[r.0 as usize] = v;
        }
    }

    fn src2val(&mut self, state: &SideState, src2: Src2, reloc: &Option<Reloc>) -> ExprId {
        match src2 {
            Src2::Reg(r) => state.regs[r.0 as usize],
            Src2::Imm(v) => self.imm_expr(v, reloc),
        }
    }

    /// The value of an immediate operand, honoring a `Lo` relocation.
    fn imm_expr(&mut self, imm: i32, reloc: &Option<Reloc>) -> ExprId {
        match reloc {
            Some(Reloc::Lo(sym)) => {
                let s = self.hisym(sym);
                self.arena.mk(Expr::Lo(s))
            }
            _ => self.arena.c(imm),
        }
    }

    fn hisym(&mut self, sym: &SymRef) -> HiSym {
        match sym {
            SymRef::Data(n) => HiSym::Data(self.arena.intern(n)),
            SymRef::Func(n) => HiSym::Func(self.cx.side, self.arena.intern(n)),
            SymRef::Label(l) => HiSym::Label(self.cx.side, l.0),
        }
    }

    fn mem_addr(
        &mut self,
        state: &SideState,
        rs1: br_isa::Reg,
        off: i32,
        reloc: &Option<Reloc>,
    ) -> ExprId {
        let base = state.regs[rs1.0 as usize];
        let k = self.imm_expr(off, reloc);
        self.arena.alu(AluOp::Add, base, k)
    }

    // ---- memory model ----

    /// Rewrite an sp-relative value landing inside an IR slot to the
    /// shared [`Expr::SlotAddr`] naming, so materialized slot addresses
    /// (including ones passed to callees) compare across sides.
    fn slotify(&mut self, state: &SideState, v: ExprId) -> ExprId {
        let Expr::SpRel { side, off } = *self.arena.get(v) else {
            return v;
        };
        if side != self.cx.side {
            return v;
        }
        let Some(c) = self.sp_off(state) else {
            return v;
        };
        let f = off.wrapping_sub(c);
        match self.slot_at(f) {
            Some((slot, delta)) => self.arena.mk(Expr::SlotAddr { slot, off: delta }),
            None => v,
        }
    }

    /// The IR slot covering frame offset `f`, if any.
    fn slot_at(&self, f: i32) -> Option<(u32, i32)> {
        for (i, (&off, &size)) in self
            .cx
            .geom
            .slot_off
            .iter()
            .zip(&self.cx.geom.slot_size)
            .enumerate()
        {
            if f >= off && f < off + size as i32 {
                return Some((i as u32, f - off));
            }
        }
        None
    }

    /// Current entry-sp-relative offset of the stack pointer.
    fn sp_off(&self, state: &SideState) -> Option<i32> {
        match *self.arena.get(state.regs[self.cx.target.sp.0 as usize]) {
            Expr::SpRel { side, off } if side == self.cx.side => Some(off),
            _ => None,
        }
    }

    /// Classify an access address: observable chain, private frame
    /// word, or jump-table read.
    fn place(&mut self, state: &SideState, addr: ExprId, word: u32) -> Result<Place, Stuck> {
        if self.arena.region_of(addr).is_some() {
            return Ok(Place::Chain(addr));
        }
        match self.arena.get(addr).clone() {
            Expr::SpRel { side, off } if side == self.cx.side => {
                let c = self
                    .sp_off(state)
                    .ok_or_else(|| Stuck::new(word, "stack pointer escaped"))?;
                let f = off.wrapping_sub(c);
                match self.slot_at(f) {
                    Some((slot, delta)) => {
                        let a = self.arena.mk(Expr::SlotAddr { slot, off: delta });
                        Ok(Place::Chain(a))
                    }
                    None => Ok(Place::Priv(off)),
                }
            }
            Expr::LabelAddr { side, label } if side == self.cx.side => {
                let zero = self.arena.c(0);
                Ok(Place::Table(label, zero))
            }
            Expr::Alu {
                op: AluOp::Add,
                a,
                b,
            } => match *self.arena.get(a) {
                Expr::LabelAddr { side, label } if side == self.cx.side => {
                    Ok(Place::Table(label, b))
                }
                _ => Ok(Place::Chain(addr)),
            },
            _ => Ok(Place::Chain(addr)),
        }
    }

    fn do_load(
        &mut self,
        state: &mut SideState,
        addr: ExprId,
        w: MemWidth,
        word: u32,
    ) -> Result<ExprId, Stuck> {
        match self.place(state, addr, word)? {
            Place::Chain(a) => Ok(self.chain_load(state, a, w)),
            Place::Priv(z) => {
                if w != MemWidth::Word {
                    return Err(Stuck::new(word, "sub-word access to private frame memory"));
                }
                if let Some(&v) = state.private.get(&z) {
                    return Ok(v);
                }
                let v = self.arena.mk(Expr::Entry {
                    side: self.cx.side,
                    kind: LocKind::Priv,
                    loc: z as u32,
                });
                state.private.insert(z, v);
                Ok(v)
            }
            Place::Table(label, idx) => {
                let targets = self
                    .cx
                    .code
                    .tables
                    .get(&label)
                    .ok_or_else(|| Stuck::new(word, "load from code outside a jump table"))?;
                if let Expr::Const(k) = *self.arena.get(idx) {
                    let slot = k / 4;
                    if k % 4 != 0 || slot < 0 || slot as usize >= targets.len() {
                        return Err(Stuck::new(word, "constant table index out of bounds"));
                    }
                    let t = targets[slot as usize];
                    return Ok(self.arena.mk(Expr::LabelAddr {
                        side: self.cx.side,
                        label: t,
                    }));
                }
                Ok(self.arena.mk(Expr::TableEntry {
                    side: self.cx.side,
                    label,
                    idx,
                }))
            }
        }
    }

    fn do_store(
        &mut self,
        state: &mut SideState,
        addr: ExprId,
        val: ExprId,
        w: MemWidth,
        word: u32,
    ) -> Result<(), Stuck> {
        match self.place(state, addr, word)? {
            Place::Chain(a) => {
                state.chain = self.arena.mk(Expr::Store {
                    mem: state.chain,
                    addr: a,
                    val,
                    w,
                });
                Ok(())
            }
            Place::Priv(z) => {
                if w != MemWidth::Word {
                    return Err(Stuck::new(word, "sub-word access to private frame memory"));
                }
                state.private.insert(z, val);
                Ok(())
            }
            Place::Table(..) => Err(Stuck::new(word, "store into code")),
        }
    }

    /// Load from the observable chain with store forwarding: an exact
    /// width-and-address match forwards the stored value; provably
    /// disjoint stores are skipped; anything else leaves an opaque
    /// [`Expr::Load`].
    fn chain_load(&mut self, state: &SideState, addr: ExprId, w: MemWidth) -> ExprId {
        let mut m = state.chain;
        for _ in 0..MAX_FORWARD {
            match self.arena.get(m).clone() {
                Expr::Store {
                    mem,
                    addr: sa,
                    val,
                    w: sw,
                } => {
                    if sa == addr && sw == w {
                        return match w {
                            MemWidth::Word => val,
                            MemWidth::Byte => {
                                let mask = self.arena.c(0xFF);
                                self.arena.alu(AluOp::And, val, mask)
                            }
                        };
                    }
                    if disjoint(self.arena, addr, w, sa, sw) {
                        m = mem;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.arena.mk(Expr::Load {
            mem: state.chain,
            addr,
            w,
        })
    }

    // ---- call events ----

    /// Model a call: gather the logical arguments under this side's
    /// conventions, append the call to the observable chain, havoc the
    /// caller-saved state, and bind the return value.
    fn do_call(&mut self, state: &mut SideState, name: &str, word: u32) -> Result<(), Stuck> {
        let side = self.cx.side;
        let sig = self
            .cx
            .sigs
            .get(name)
            .ok_or_else(|| Stuck::new(word, format!("call to unknown function `{name}`")))?
            .clone();
        let c = self
            .sp_off(state)
            .ok_or_else(|| Stuck::new(word, "stack pointer escaped at a call"))?;
        let mut args = Vec::with_capacity(sig.params.len());
        for slot in arg_slots(self.cx.target, &sig.params) {
            match slot {
                ArgSlot::Int(r) => args.push(state.regs[r as usize]),
                ArgSlot::Float(f) => args.push(state.fregs[f as usize]),
                ArgSlot::Stack(wd) => {
                    let z = c + 4 * wd as i32;
                    let v = match state.private.get(&z) {
                        Some(&v) => v,
                        None => self.arena.mk(Expr::Entry {
                            side,
                            kind: LocKind::Priv,
                            loc: z as u32,
                        }),
                    };
                    args.push(v);
                }
            }
        }
        let nm = self.arena.intern(name);
        let call = self.arena.mk(Expr::Call {
            name: nm,
            args: args.into_boxed_slice(),
            mem: state.chain,
        });
        state.chain = self.arena.mk(Expr::MemAfter(call));
        // Havoc the caller-saved state with per-call-site junk.
        let junk = |arena: &mut Arena, kind: LocKind, loc: u32| {
            arena.mk(Expr::Junk {
                side,
                word,
                kind,
                loc,
            })
        };
        for r in self.cx.target.int_caller.clone() {
            state.regs[r.0 as usize] = junk(self.arena, LocKind::Reg, r.0 as u32);
        }
        for r in [self.cx.target.temp, self.cx.target.temp2] {
            state.regs[r.0 as usize] = junk(self.arena, LocKind::Reg, r.0 as u32);
        }
        for f in self.cx.target.float_caller.clone() {
            state.fregs[f as usize] = junk(self.arena, LocKind::FReg, f as u32);
        }
        let ftemp = self.cx.target.ftemp;
        state.fregs[ftemp as usize] = junk(self.arena, LocKind::FReg, ftemp as u32);
        if self.cx.machine == Machine::BranchReg {
            for b in self.cx.caller_bregs.iter().copied() {
                state.bregs[b as usize] = junk(self.arena, LocKind::BReg, b as u32);
            }
            state.bregs[7] = junk(self.arena, LocKind::BReg, 7);
        }
        // The callee owns the latches and the outgoing-argument words.
        state.cc = [
            junk(self.arena, LocKind::Latch, 0),
            junk(self.arena, LocKind::Latch, 1),
        ];
        state.fcc = [
            junk(self.arena, LocKind::Latch, 2),
            junk(self.arena, LocKind::Latch, 3),
        ];
        let hi = c + 4 * self.cx.geom.max_out_args as i32;
        state.private.retain(|&z, _| !(z >= c && z < hi));
        // Bind the return value after the havoc.
        match sig.ret {
            RetKind::Void => {}
            RetKind::Int => {
                let v = self.arena.mk(Expr::RetVal(call));
                state.regs[self.cx.target.int_ret().0 as usize] = v;
            }
            RetKind::Float => {
                let v = self.arena.mk(Expr::RetVal(call));
                state.fregs[self.cx.target.float_ret() as usize] = v;
            }
        }
        Ok(())
    }
}

enum Disp {
    Ended,
    Continue(Frame),
    Call(Frame, String),
}

enum BTarget {
    Label(u32),
    Word(u32),
}
