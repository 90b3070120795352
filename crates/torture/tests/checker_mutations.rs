//! Seeded checker-mutation differential.
//!
//! br-verify's regalloc replay and branch-register lint run on flat
//! state (a bitset per program point, hash-consed target sets). This
//! test pins their verdicts to the `BTreeSet` checkers they replaced,
//! kept verbatim under `reference/`. Seeded MiniC and RV32 modules are
//! compiled on both machines with a gate that records each function's
//! allocation and emitted stream; then one gate input at a time is
//! corrupted and both checkers must return exactly the same result:
//! the same `Result<(), VerifyError>` from the replay and the same
//! `Vec<VerifyError>` from `check_asm_all`.
//!
//! Allocation mutations: swap two assignments; move a vreg to another
//! pool register; unassign one; assign `sp`; drop one spill store; flip
//! a reload's float flag; move a value that lives across a call into a
//! caller-saved register. Stream mutations: delete an item; retarget a
//! transfer's `br`; insert a label after a compare; swap two items;
//! redefine a hoist-reserved branch register. Every rejection variant
//! of both checkers must turn up at least once, so the corpus is known
//! to reach each of them.

mod reference;

use std::cell::RefCell;
use std::collections::BTreeSet;

use br_codegen::hoist::HoistPlan;
use br_codegen::regalloc::Allocation;
use br_codegen::vcode::{FrameRef, VFunc, VInst, VR};
use br_codegen::{compile_module_with, BaseOptions, BrOptions, Stage, TargetSpec};
use br_ir::RegClass;
use br_isa::{AsmFunc, AsmItem, BReg, Label, MInst, Machine, Reloc, SymRef, FRESH_LABEL_BASE};
use br_torture::{generate, generate_rv32, iter_seed, render, GenConfig};
use br_verify::VerifyError;
use br_workloads::rng::Rng64;

/// MiniC and RV32 modules drawn, each compiled on both machines.
const MINIC_MODULES: u64 = 16;
const RV32_MODULES: u64 = 6;
/// Mutations drawn per function and kind.
const DRAWS: u64 = 2;
const BASE_SEED: u64 = 0xc4ec;

/// One function's regalloc gate input.
struct RaSnap {
    vf: VFunc,
    alloc: Allocation,
    target: TargetSpec,
}

/// One function's emit gate input.
struct EmitSnap {
    asm: AsmFunc,
    machine: Machine,
    hoist: Option<HoistPlan>,
    opts: BrOptions,
}

/// Compile `module` for `machine`, recording every regalloc and emit
/// gate input.
fn snapshots(module: &br_ir::Module, machine: Machine) -> (Vec<RaSnap>, Vec<EmitSnap>) {
    let ra = RefCell::new(Vec::new());
    let em = RefCell::new(Vec::new());
    let gate = |stage: Stage<'_>| -> Result<(), ()> {
        match stage {
            Stage::Regalloc {
                vcode,
                alloc,
                target,
                ..
            } => ra.borrow_mut().push(RaSnap {
                vf: vcode.clone(),
                alloc: alloc.clone(),
                target: target.clone(),
            }),
            Stage::Emit {
                asm,
                machine,
                hoist,
                br_opts,
                ..
            } => em.borrow_mut().push(EmitSnap {
                asm: asm.clone(),
                machine,
                hoist: hoist.cloned(),
                opts: br_opts,
            }),
            Stage::Ir { .. } => {}
        }
        Ok(())
    };
    compile_module_with(
        module,
        machine,
        BaseOptions::default(),
        BrOptions::default(),
        &gate,
    )
    .unwrap_or_else(|e| panic!("{machine:?}: {e:?}"));
    (ra.into_inner(), em.into_inner())
}

/// The variant name of a verdict, for the coverage tally.
fn variant(e: &VerifyError) -> String {
    let dbg = format!("{e:?}");
    dbg.split([' ', '{', '('])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Every vreg an instruction or terminator reads or writes.
fn referenced(vf: &VFunc) -> Vec<VR> {
    let mut all = BTreeSet::new();
    let mut uses = Vec::new();
    for b in &vf.blocks {
        for inst in &b.insts {
            uses.clear();
            inst.uses(&mut uses);
            uses.extend(inst.def());
            all.extend(uses.iter().copied());
        }
        uses.clear();
        b.term().uses(&mut uses);
        all.extend(uses.iter().copied());
    }
    all.into_iter().collect()
}

fn pool(t: &TargetSpec, class: RegClass) -> Vec<u8> {
    match class {
        RegClass::Int => t
            .int_caller
            .iter()
            .chain(&t.int_callee)
            .chain(&t.int_args)
            .map(|r| r.0)
            .collect(),
        RegClass::Float => t
            .float_caller
            .iter()
            .chain(&t.float_callee)
            .chain(&t.float_args)
            .copied()
            .collect(),
    }
}

/// Vregs read after a call in the same block with no redefinition in
/// between: values that live across that call.
fn across_call(vf: &VFunc) -> Vec<VR> {
    let mut out = BTreeSet::new();
    let mut uses = Vec::new();
    for b in &vf.blocks {
        for (ci, call) in b.insts.iter().enumerate() {
            if !call.is_call() {
                continue;
            }
            let mut killed: BTreeSet<VR> = call.def().into_iter().collect();
            for inst in &b.insts[ci + 1..] {
                uses.clear();
                inst.uses(&mut uses);
                out.extend(uses.iter().filter(|u| !killed.contains(u)));
                killed.extend(inst.def());
            }
            uses.clear();
            b.term().uses(&mut uses);
            out.extend(uses.iter().filter(|u| !killed.contains(u)));
        }
    }
    out.into_iter().collect()
}

const ALLOC_KINDS: u64 = 7;

/// Corrupt one allocation input; `None` when the function offers no
/// site for this kind.
fn mutate_alloc(s: &RaSnap, kind: u64, r: &mut Rng64) -> Option<(VFunc, Allocation)> {
    let mut vf = s.vf.clone();
    let mut alloc = s.alloc.clone();
    let assigned: Vec<VR> = referenced(&vf)
        .into_iter()
        .filter(|&v| alloc.assign.get(v as usize).copied().flatten().is_some())
        .collect();
    if assigned.is_empty() {
        return None;
    }
    match kind {
        0 => {
            // Swap two assignments.
            let a = *r.pick(&assigned);
            let b = *r.pick(&assigned);
            alloc.assign.swap(a as usize, b as usize);
        }
        1 => {
            // Move a vreg to another register of its pools.
            let v = *r.pick(&assigned);
            let regs = pool(&s.target, vf.class_of(v));
            alloc.assign[v as usize] = Some(*r.pick(&regs));
        }
        2 => {
            // Unassign one.
            let v = *r.pick(&assigned);
            alloc.assign[v as usize] = None;
        }
        3 => {
            // Assign the stack pointer.
            let ints: Vec<VR> = assigned
                .iter()
                .copied()
                .filter(|&v| vf.class_of(v) == RegClass::Int)
                .collect();
            if ints.is_empty() {
                return None;
            }
            alloc.assign[*r.pick(&ints) as usize] = Some(s.target.sp.0);
        }
        4 | 5 => {
            // Drop one spill store / flip one reload's float flag.
            let sites: Vec<(usize, usize)> = vf
                .blocks
                .iter()
                .enumerate()
                .flat_map(|(bi, b)| {
                    b.insts.iter().enumerate().filter_map(move |(ii, inst)| {
                        let hit = match inst {
                            VInst::FrameStore {
                                fref: FrameRef::Spill(_),
                                ..
                            } => kind == 4,
                            VInst::FrameLoad { .. } => kind == 5,
                            _ => false,
                        };
                        hit.then_some((bi, ii))
                    })
                })
                .collect();
            if sites.is_empty() {
                return None;
            }
            let (bi, ii) = *r.pick(&sites);
            let insts = &mut vf.blocks[bi].insts;
            if kind == 4 {
                insts.remove(ii);
            } else if let VInst::FrameLoad { float, .. } = &mut insts[ii] {
                *float = !*float;
            }
        }
        _ => {
            // Keep a value that lives across a call in a caller-saved
            // register.
            let live: Vec<VR> = across_call(&vf)
                .into_iter()
                .filter(|&v| alloc.assign.get(v as usize).copied().flatten().is_some())
                .collect();
            if live.is_empty() {
                return None;
            }
            let v = *r.pick(&live);
            let regs: Vec<u8> = match vf.class_of(v) {
                RegClass::Int => s.target.int_caller.iter().map(|r| r.0).collect(),
                RegClass::Float => s.target.float_caller.clone(),
            };
            alloc.assign[v as usize] = Some(*r.pick(&regs));
        }
    }
    Some((vf, alloc))
}

const STREAM_KINDS: u64 = 5;

fn is_compare(inst: &MInst) -> bool {
    matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. })
}

/// Corrupt one emitted stream; `None` when the function offers no site
/// for this kind.
fn mutate_stream(s: &EmitSnap, kind: u64, r: &mut Rng64) -> Option<AsmFunc> {
    let mut asm = s.asm.clone();
    let n = asm.items.len();
    if n == 0 {
        return None;
    }
    let sites = |pred: &dyn Fn(&AsmItem) -> bool| -> Vec<usize> {
        (0..n).filter(|&i| pred(&asm.items[i])).collect()
    };
    match kind {
        0 => {
            // Delete an item.
            asm.items.remove(r.random_range(0..n));
        }
        1 => {
            // Retarget a transfer's branch register.
            let ts = sites(&|it| matches!(it, AsmItem::Inst(i, _) if i.br() != 0));
            if ts.is_empty() {
                return None;
            }
            let i = *r.pick(&ts);
            if let AsmItem::Inst(inst, _) = &mut asm.items[i] {
                let old = inst.br();
                let new = 1 + (old + r.random_range(0u8..6)) % 7;
                *inst = inst.with_br(new);
            }
        }
        2 => {
            // Insert a label right after a compare.
            let cs = sites(&|it| matches!(it, AsmItem::Inst(i, _) if is_compare(i)));
            if cs.is_empty() {
                return None;
            }
            let i = *r.pick(&cs);
            asm.items.insert(i + 1, AsmItem::Label(Label(u32::MAX)));
        }
        3 => {
            // Swap two items (adjacent half of the time).
            if n < 2 {
                return None;
            }
            let i = r.random_range(0..n - 1);
            let j = if r.chance(1, 2) {
                i + 1
            } else {
                r.random_range(0..n)
            };
            asm.items.swap(i, j);
        }
        _ => {
            // Redefine a hoist-reserved branch register inside a block
            // that reserves it.
            let plan = s.hoist.as_ref()?;
            let mut spots = Vec::new();
            let mut cur = None;
            for (i, it) in asm.items.iter().enumerate() {
                if let AsmItem::Label(Label(l)) = it {
                    if *l < FRESH_LABEL_BASE {
                        cur = Some(*l);
                    }
                }
                if let Some(b) = cur {
                    for &breg in plan.reserved_in(b) {
                        spots.push((i + 1, b, breg));
                    }
                }
            }
            if spots.is_empty() {
                return None;
            }
            let (at, b, breg) = *r.pick(&spots);
            asm.items.insert(
                at,
                AsmItem::Inst(
                    MInst::Bcalc {
                        bd: BReg(breg),
                        disp: 0,
                        br: 0,
                    },
                    Some(Reloc::Disp(SymRef::Label(Label(b)))),
                ),
            );
        }
    }
    Some(asm)
}

#[derive(Default)]
struct Tally {
    mutations: usize,
    rejected: usize,
    variants: BTreeSet<String>,
}

impl Tally {
    fn note(&mut self, errs: &[VerifyError]) {
        self.mutations += 1;
        self.rejected += usize::from(!errs.is_empty());
        self.variants.extend(errs.iter().map(variant));
    }
}

/// A distinct RNG stream per (checker, function, kind, draw).
fn draw_id(checker: u64, func: usize, kind: u64, draw: u64) -> u64 {
    checker << 48 | (func as u64) << 16 | kind << 8 | draw
}

fn check_module(module: &br_ir::Module, seed: u64, tally: &mut Tally) {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let (ras, ems) = snapshots(module, machine);
        for (fi, s) in ras.iter().enumerate() {
            for (kind, draw) in (0..ALLOC_KINDS).flat_map(|k| (0..DRAWS).map(move |d| (k, d))) {
                let mut r = Rng64::seed_from_u64(iter_seed(seed, draw_id(0, fi, kind, draw)));
                let Some((vf, alloc)) = mutate_alloc(s, kind, &mut r) else {
                    continue;
                };
                let got = br_verify::check_regalloc(&vf, &alloc, &s.target);
                let want = reference::regalloc_check::check_regalloc(&vf, &alloc, &s.target);
                assert_eq!(
                    got, want,
                    "seed {seed:#x} {machine:?} {} alloc mutation {kind}",
                    vf.name
                );
                tally.note(got.err().as_slice());
            }
        }
        for (fi, s) in ems.iter().enumerate() {
            for (kind, draw) in (0..STREAM_KINDS).flat_map(|k| (0..DRAWS).map(move |d| (k, d))) {
                let mut r = Rng64::seed_from_u64(iter_seed(seed, draw_id(1, fi, kind, draw)));
                let Some(asm) = mutate_stream(s, kind, &mut r) else {
                    continue;
                };
                let hoist = s.hoist.as_ref();
                let got = br_verify::check_asm_all(&asm, s.machine, hoist, &s.opts);
                let want = reference::asm_check::check_asm_all(&asm, s.machine, hoist, &s.opts);
                assert_eq!(
                    got, want,
                    "seed {seed:#x} {machine:?} {} stream mutation {kind}",
                    asm.name
                );
                assert_eq!(
                    br_verify::check_asm(&asm, s.machine, hoist, &s.opts),
                    got.first().cloned().map_or(Ok(()), Err),
                    "check_asm is not the first collected violation"
                );
                tally.note(&got);
            }
        }
    }
}

#[test]
fn flat_checkers_match_the_reference_on_seeded_mutations() {
    let mut tally = Tally::default();
    for i in 0..MINIC_MODULES {
        let seed = iter_seed(BASE_SEED, i);
        let src = render(&generate(seed, GenConfig::default()));
        let module = br_frontend::compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed:#x} does not compile: {e}"));
        check_module(&module, seed, &mut tally);
    }
    for i in 0..RV32_MODULES {
        let seed = iter_seed(BASE_SEED ^ 0x32, i);
        let module = br_ingest::translate(&generate_rv32(seed))
            .unwrap_or_else(|e| panic!("rv32 seed {seed:#x} does not translate: {e}"));
        check_module(&module, seed, &mut tally);
    }
    eprintln!(
        "{} mutations, {} rejected, variants {:?}",
        tally.mutations, tally.rejected, tally.variants
    );
    for v in [
        "UnrewrittenSpill",
        "UndefinedRead",
        "ClobberedRead",
        "SpillClobbered",
        "BadAssignment",
        "UnsetBranchReg",
        "CarrierPairing",
        "HoistClobbered",
    ] {
        assert!(
            tally.variants.contains(v),
            "no mutation produced {v}; saw {:?}",
            tally.variants
        );
    }
}
