//! Checker 4: the protocol lint over a loaded [`Program`] image.
//!
//! br-serve's artifact cache deserializes compiled programs straight
//! from disk, so a corrupted or stale entry can reach the emulator
//! without ever passing through [`check_asm_all`] — that lint runs on
//! the emitter's symbolic stream, which a decoded image no longer has.
//! This module re-derives a symbolic stream per function from the text
//! segment and block marks and runs the same checkers over it.
//!
//! A decoded image carries no relocations, but every address the lint
//! needs is already resolved into instruction fields, so the relocs are
//! reconstructed rather than lost:
//!
//! * a `bcalc` displacement landing inside its own function becomes a
//!   `%disp(label)` against a synthesized label at the target word;
//! * a `sethi`/`orlo` or `sethi`/`bmovr` pair is constant-folded by a
//!   linear scan; an address naming a function entry becomes
//!   `%lo(func)` (the call linkage the dataflow models as a clobber),
//!   one landing inside the function becomes `%lo(label)` (a jump-table
//!   base, re-keying the table to its dispatching `bload`);
//! * a text data word whose value is an in-function address becomes an
//!   absolute jump-table entry for that label.
//!
//! Synthesized label ids are the target's word offset within its
//! function, so the same image always reconstructs the same stream. On
//! the baseline no labels are synthesized at all: its checks (encoding,
//! delay slots) are positional, and a label item in a delay slot would
//! be reported as a violation that the original stream never contained.
//!
//! The round trip compile → assemble → `lint_program` is asserted clean
//! over the whole suite in tests, so a violation reported on a cache
//! artifact indicates corruption or toolchain skew, not reconstruction
//! noise.

use std::collections::{BTreeSet, HashMap};

use br_codegen::BrOptions;
use br_isa::{abi, AluOp, AsmFunc, AsmItem, Label, MInst, Program, Reloc, Src2, SymRef, TextWord};

use crate::asm_check::check_asm_all;
use crate::VerifyError;

/// One function's extent in the text segment.
struct FuncSpan {
    name: String,
    /// First text word.
    start: usize,
    /// One past the last text word.
    end: usize,
}

/// Split the text segment into per-function spans using the entry marks
/// (label `None`) the assembler retains.
fn func_spans(prog: &Program) -> Vec<FuncSpan> {
    let mut spans: Vec<FuncSpan> = Vec::new();
    for mark in &prog.blocks {
        if mark.label.is_none() {
            if let Some(prev) = spans.last_mut() {
                prev.end = mark.word as usize;
            }
            spans.push(FuncSpan {
                name: mark.func.clone(),
                start: mark.word as usize,
                end: prog.text.len(),
            });
        }
    }
    spans
}

/// The integer register an instruction writes, if any — used to
/// invalidate `sethi` tracking.
fn int_def(inst: &MInst) -> Option<u8> {
    match inst {
        MInst::Alu { rd, .. }
        | MInst::Sethi { rd, .. }
        | MInst::Load { rd, .. }
        | MInst::FtoI { rd, .. }
        | MInst::Jmpl { rd, .. } => Some(rd.0),
        _ => None,
    }
}

/// Reconstruct one function's symbolic stream from its decoded words.
fn rebuild_func(prog: &Program, span: &FuncSpan) -> AsmFunc {
    let in_span = |addr: u32| -> Option<usize> {
        if addr < abi::TEXT_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        let w = ((addr - abi::TEXT_BASE) / 4) as usize;
        (span.start <= w && w < span.end).then_some(w)
    };
    let entries: HashMap<u32, &str> = prog
        .blocks
        .iter()
        .filter(|m| m.label.is_none())
        .map(|m| (m.addr(), m.func.as_str()))
        .collect();
    // Labels are synthesized only where a reconstructed reloc points;
    // ids are the target's word offset so the stream is deterministic.
    let label_id = |w: usize| (w - span.start) as u32;

    // Pass 1: fold `sethi` highs forward, resolve each word's reloc,
    // and collect the words that need a label bound.
    let mut relocs: HashMap<usize, Reloc> = HashMap::new();
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    let mut hi: HashMap<u8, u32> = HashMap::new();
    for w in span.start..span.end {
        match &prog.text[w] {
            TextWord::Data(v) => {
                if let Some(t) = in_span(*v) {
                    relocs.insert(w, Reloc::Abs(SymRef::Label(Label(label_id(t)))));
                    targets.insert(t);
                }
            }
            TextWord::Inst(inst) => {
                match inst {
                    MInst::Bcalc { disp, .. } => {
                        let addr = (abi::TEXT_BASE as i64 + 4 * w as i64) + 4 * i64::from(*disp);
                        if let Some(t) = u32::try_from(addr).ok().and_then(in_span) {
                            relocs.insert(w, Reloc::Disp(SymRef::Label(Label(label_id(t)))));
                            targets.insert(t);
                        }
                    }
                    MInst::Alu {
                        op: AluOp::OrLo,
                        rs1,
                        src2: Src2::Imm(lo),
                        ..
                    } => {
                        if let Some(&h) = hi.get(&rs1.0) {
                            let addr = h | (*lo as u32 & 0x7FF);
                            if let Some(&f) = entries.get(&addr) {
                                relocs.insert(w, Reloc::Lo(SymRef::Func(f.to_string())));
                            } else if let Some(t) = in_span(addr) {
                                relocs.insert(w, Reloc::Lo(SymRef::Label(Label(label_id(t)))));
                                targets.insert(t);
                            }
                        }
                    }
                    MInst::BMovR { rs1, off, .. } => {
                        if let Some(&h) = hi.get(&rs1.0) {
                            let addr = h | (*off as u32 & 0x7FF);
                            if let Some(&f) = entries.get(&addr) {
                                relocs.insert(w, Reloc::Lo(SymRef::Func(f.to_string())));
                            }
                        }
                    }
                    _ => {}
                }
                match inst {
                    MInst::Sethi { rd, imm } => {
                        hi.insert(rd.0, imm << 11);
                    }
                    _ => {
                        if let Some(rd) = int_def(inst) {
                            hi.remove(&rd);
                        }
                    }
                }
            }
        }
    }

    // Pass 2: emit the stream, binding a label ahead of each target.
    let mut items = Vec::with_capacity(span.end - span.start);
    for w in span.start..span.end {
        if targets.contains(&w) {
            items.push(AsmItem::Label(Label(label_id(w))));
        }
        let reloc = relocs.get(&w).cloned();
        match &prog.text[w] {
            TextWord::Inst(inst) => items.push(AsmItem::Inst(*inst, reloc)),
            TextWord::Data(v) => items.push(AsmItem::Word(*v, reloc)),
        }
    }
    AsmFunc {
        name: span.name.clone(),
        items,
    }
}

/// Run the protocol lint over every function of a loaded program,
/// collecting all violations. An empty vector means the image is clean.
///
/// `opts` must describe the branch-register configuration the program
/// was compiled with (the caller-saved pool feeds the call-clobber
/// model); artifacts produced under default options lint with the
/// default options. The hoist-plan check is skipped — the plan is a
/// compile-time artifact that does not survive encoding.
pub fn lint_program(prog: &Program, opts: &BrOptions) -> Vec<VerifyError> {
    let mut sink = Vec::new();
    for span in func_spans(prog) {
        let asm = rebuild_func(prog, &span);
        sink.extend(check_asm_all(&asm, prog.machine, None, opts));
    }
    sink
}
