//! Differential property tests for the register allocator's and the
//! IR's fast paths.
//!
//! Three rewrites are checked against the code they replaced, each kept
//! below as a reference and asserted to produce *exactly* the same
//! facts, not merely equivalent ones, over a corpus of
//! torture-generated modules covering loops, calls, floats, switches,
//! and deep expression nesting on both machines:
//!
//! - the allocator's liveness, interference graph, across-call markers,
//!   and spill costs, rewritten from `HashSet` sweeps to dense bitsets
//!   with a worklist fixpoint (`reference::snapshot`), plus one
//!   hand-written module with nested loops, calls and float values;
//! - the allocator's simplify/select loop, whose low-degree pick moved
//!   from a scan over all vregs to a bitset (`reference::try_color`),
//!   over every colouring round, spill rounds included;
//! - `br_ir::Liveness`, rewritten from round-robin sweeps to a worklist
//!   over flat bit rows (`reference::ir_liveness`), plus one hand-built
//!   function whose unreachable block must keep empty sets.

use br_codegen::vcode::{VFunc, VR};
use br_codegen::{isel, regalloc, TargetSpec};
use br_ir::{
    BinOp, Block, BlockId, Cfg, Cond, Dominators, Function, Inst, Liveness, LoopForest, Module,
    Operand, RegClass, Ty, VReg,
};
use br_isa::Machine;
use br_torture::gen::{generate, render, GenConfig};

/// The 200-seed torture corpus, through the frontend.
fn corpus() -> impl Iterator<Item = (u64, Module)> {
    (0..200u64).map(|seed| {
        let src = render(&generate(seed, GenConfig::default()));
        let module = br_frontend::compile(&src)
            .unwrap_or_else(|e| panic!("torture seed {seed} does not compile: {e}\n{src}"));
        (seed, module)
    })
}

/// Call `visit` with every corpus function that has a body, selected
/// for both machines, and its loop depths (the allocator's spill-cost
/// weights, as `compile_func` computes them).
fn for_each_selected(mut visit: impl FnMut(u64, Machine, &TargetSpec, &str, &VFunc, &[u32])) {
    for (seed, module) in corpus() {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let target = TargetSpec::for_machine(machine);
            let mut pool = isel::ConstPool::new();
            for func in &module.functions {
                if func.blocks.is_empty() {
                    continue;
                }
                let vf = isel::select(&module, func, &target, &mut pool)
                    .unwrap_or_else(|e| panic!("seed {seed} {machine:?} {}: {e}", func.name));
                let cfg = Cfg::new(func);
                let dom = Dominators::new(&cfg);
                let loops = LoopForest::new(&cfg, &dom);
                let depth: Vec<u32> = (0..func.blocks.len())
                    .map(|i| loops.depth(BlockId(i as u32)))
                    .collect();
                visit(seed, machine, &target, &func.name, &vf, &depth);
            }
        }
    }
}

#[test]
fn bitset_dataflow_matches_hashset_reference_on_torture_corpus() {
    let mut funcs_checked = 0usize;
    for_each_selected(|seed, machine, _, name, vf, depth| {
        let fast = regalloc::dataflow_snapshot(vf, depth);
        let slow = reference::snapshot(vf, depth);
        assert_eq!(
            fast, slow,
            "dataflow diverges on seed {seed}, {machine:?}, function {name}"
        );
        funcs_checked += 1;
    });
    // The corpus must actually exercise the comparison; 200 seeds yield
    // a few hundred functions per machine.
    assert!(
        funcs_checked >= 400,
        "only {funcs_checked} functions checked"
    );
}

#[test]
fn worklist_coloring_matches_quadratic_reference_on_torture_corpus() {
    let (mut funcs, mut rounds, mut spill_rounds, mut spill_picks) = (0usize, 0, 0, 0);
    for_each_selected(|seed, machine, target, name, vf, depth| {
        let no_spill_from = vf.classes.len() as VR;
        let seen = regalloc::coloring_rounds(vf, target, depth);
        for (round, (f, verdict)) in seen.iter().enumerate() {
            // The graph is the production one: the test above pins it
            // to the seed dataflow, and building the `HashSet` graph
            // for every round would double this test's time.
            let graph = regalloc::dataflow_snapshot(f, depth);
            let (want, picks) = reference::try_color(f, target, &graph, no_spill_from);
            assert_eq!(
                verdict, &want,
                "coloring diverges on seed {seed}, {machine:?}, function {name}, round {round}"
            );
            rounds += 1;
            spill_rounds += verdict.is_err() as usize;
            spill_picks += picks;
        }
        assert!(
            seen.last().is_some_and(|(_, v)| v.is_ok()),
            "seed {seed}, {machine:?}, function {name}: allocation did not converge"
        );
        funcs += 1;
    });
    assert!(funcs >= 400, "only {funcs} functions checked");
    // The spill path must be compared too: candidate picks (optimistic
    // or not) and rounds that end in a spill rewrite. The corpus makes
    // about 2,300 and 200 of them.
    assert!(
        spill_picks >= 1000 && spill_rounds >= 100,
        "{rounds} rounds made only {spill_picks} spill-candidate picks and {spill_rounds} spill rounds"
    );
}

#[test]
fn worklist_ir_liveness_matches_round_robin_reference_on_torture_corpus() {
    let mut blocks_checked = 0usize;
    for (seed, module) in corpus() {
        for f in module.functions.iter().filter(|f| !f.blocks.is_empty()) {
            let cfg = Cfg::new(f);
            let fast = Liveness::new(f, &cfg);
            let (live_in, live_out) = reference::ir_liveness(f, &cfg);
            for b in 0..f.blocks.len() {
                let id = BlockId(b as u32);
                assert_eq!(
                    (fast.live_in(id), fast.live_out(id)),
                    (&live_in[b], &live_out[b]),
                    "IR liveness diverges on seed {seed}, function {}, block {id}",
                    f.name
                );
            }
            blocks_checked += f.blocks.len();
        }
    }
    assert!(
        blocks_checked >= 2000,
        "only {blocks_checked} blocks checked"
    );
}

/// A loop counting `v0` to 10, plus an unreachable block that reads
/// `v0` and the never-defined `v2` and jumps into the loop header, so
/// it is a predecessor of a reachable block.
#[test]
fn ir_liveness_leaves_unreachable_blocks_empty() {
    let f = Function {
        name: "t".into(),
        ret_ty: Ty::Int,
        params: vec![],
        blocks: vec![
            Block {
                insts: vec![
                    Inst::Copy {
                        dst: VReg(0),
                        a: Operand::Const(0),
                    },
                    Inst::Jump(BlockId(1)),
                ],
            },
            Block {
                insts: vec![Inst::Branch {
                    cond: Cond::Eq,
                    a: Operand::Reg(VReg(0)),
                    b: Operand::Const(10),
                    float: false,
                    then_bb: BlockId(3),
                    else_bb: BlockId(2),
                }],
            },
            Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(0),
                        a: Operand::Reg(VReg(0)),
                        b: Operand::Const(1),
                    },
                    Inst::Jump(BlockId(1)),
                ],
            },
            Block {
                insts: vec![Inst::Ret(Some(Operand::Reg(VReg(0))))],
            },
            Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: VReg(1),
                        a: Operand::Reg(VReg(0)),
                        b: Operand::Reg(VReg(2)),
                    },
                    Inst::Jump(BlockId(1)),
                ],
            },
        ],
        vregs: vec![RegClass::Int; 3],
        slots: vec![],
    };
    let cfg = Cfg::new(&f);
    assert!(!cfg.is_reachable(BlockId(4)));
    assert_eq!(cfg.preds(BlockId(1)), [BlockId(0), BlockId(2), BlockId(4)]);
    let fast = Liveness::new(&f, &cfg);
    let (live_in, live_out) = reference::ir_liveness(&f, &cfg);
    for b in 0..f.blocks.len() {
        let id = BlockId(b as u32);
        assert_eq!(fast.live_in(id), &live_in[b], "live-in of {id}");
        assert_eq!(fast.live_out(id), &live_out[b], "live-out of {id}");
    }
    assert!(fast.live_in(BlockId(4)).is_empty());
    assert!(fast.live_out(BlockId(4)).is_empty());
    assert!(fast.live_in(BlockId(1)).contains(VReg(0)));
    assert!(fast.live_out(BlockId(2)).contains(VReg(0)));
    assert!(fast.live_in(BlockId(0)).is_empty());
}

/// A function with loops, calls, floats, and spills, at synthetic loop
/// depths `b % 3`.
#[test]
fn bitset_dataflow_matches_reference_on_nested_loops_and_calls() {
    let src = r#"
        int g(int x) { return x + 1; }
        float h(float x) { return x * 2.0; }
        int f(int a, int b) {
            int s = 0;
            float fs = 0.0;
            for (int i = 0; i < a; i++) {
                s += g(i) * b;
                fs = fs + h(1.5);
                for (int j = 0; j < b; j++) s += j;
            }
            return s + (int)fs;
        }
    "#;
    let m = br_frontend::compile(src).unwrap();
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let t = TargetSpec::for_machine(machine);
        let mut pool = isel::ConstPool::new();
        for name in ["g", "h", "f"] {
            let f = m.function(name).unwrap();
            let vf = isel::select(&m, f, &t, &mut pool).unwrap();
            let depth: Vec<u32> = (0..vf.blocks.len() as u32).map(|b| b % 3).collect();
            assert_eq!(
                regalloc::dataflow_snapshot(&vf, &depth),
                reference::snapshot(&vf, &depth),
                "bitset dataflow diverged from reference on {name} ({machine:?})"
            );
        }
    }
}

/// The code each fast path replaced, kept as differential oracles: the
/// seed `HashSet` dataflow and quadratic simplify/select loop of the
/// allocator, and the round-robin `br_ir::Liveness`.
mod reference {
    use std::collections::HashSet;

    use br_codegen::regalloc::{Allocation, DataflowSnapshot};
    use br_codegen::vcode::{VFunc, VInst, VR};
    use br_codegen::TargetSpec;
    use br_ir::liveness::RegSet;
    use br_ir::{BlockId, Cfg, Function, RegClass};

    /// Snapshot the reference dataflow for `f` (same shape as
    /// `regalloc::dataflow_snapshot`).
    pub fn snapshot(f: &VFunc, depth: &[u32]) -> DataflowSnapshot {
        let (live_in, live_out) = liveness(f);
        let n = f.classes.len();
        let mut adj: Vec<HashSet<VR>> = vec![HashSet::new(); n];
        let mut across_call = vec![false; n];
        let mut cost = vec![0u64; n];
        let add_edge = |adj: &mut [HashSet<VR>], a: VR, b: VR| {
            if a != b && f.class_of(a) == f.class_of(b) {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        };
        for i in 0..f.params.len() {
            for j in i + 1..f.params.len() {
                add_edge(&mut adj, f.params[i].0, f.params[j].0);
            }
        }
        let mut uses = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            let w = 10u64.pow(depth.get(bi).copied().unwrap_or(0).min(9));
            let mut live: HashSet<VR> = live_out[bi].iter().copied().collect();
            uses.clear();
            b.term().uses(&mut uses);
            for &u in &uses {
                cost[u as usize] += w;
                live.insert(u);
            }
            for inst in b.insts.iter().rev() {
                if let Some(d) = inst.def() {
                    cost[d as usize] += w;
                    live.remove(&d);
                    let move_src = match inst {
                        VInst::Mov { src, .. } | VInst::FMov { src, .. } => Some(*src),
                        _ => None,
                    };
                    for &l in &live {
                        if Some(l) != move_src {
                            add_edge(&mut adj, d, l);
                        }
                    }
                }
                if inst.is_call() {
                    for &l in &live {
                        across_call[l as usize] = true;
                    }
                }
                uses.clear();
                inst.uses(&mut uses);
                for &u in &uses {
                    cost[u as usize] += w;
                    live.insert(u);
                }
            }
        }
        let mut edges = Vec::new();
        for (v, s) in adj.iter().enumerate() {
            for &w in s {
                if (v as VR) < w {
                    edges.push((v as VR, w));
                }
            }
        }
        edges.sort_unstable();
        DataflowSnapshot {
            live_in,
            live_out,
            edges,
            across_call,
            cost,
        }
    }

    /// The seed whole-program-sweep liveness, returning sorted vreg
    /// lists per block.
    #[allow(clippy::type_complexity)]
    fn liveness(f: &VFunc) -> (Vec<Vec<VR>>, Vec<Vec<VR>>) {
        let n = f.blocks.len();
        let mut gen = vec![HashSet::new(); n];
        let mut kill = vec![HashSet::new(); n];
        let mut uses = Vec::new();
        for (i, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                uses.clear();
                inst.uses(&mut uses);
                for &u in &uses {
                    if !kill[i].contains(&u) {
                        gen[i].insert(u);
                    }
                }
                if let Some(d) = inst.def() {
                    kill[i].insert(d);
                }
            }
            uses.clear();
            b.term().uses(&mut uses);
            for &u in &uses {
                if !kill[i].contains(&u) {
                    gen[i].insert(u);
                }
            }
        }
        let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term().successors()).collect();
        let mut live_in: Vec<HashSet<VR>> = vec![HashSet::new(); n];
        let mut live_out: Vec<HashSet<VR>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out: HashSet<VR> = HashSet::new();
                for s in &succs[i] {
                    out.extend(live_in[s.0 as usize].iter().copied());
                }
                let mut inn = out.clone();
                for k in &kill[i] {
                    inn.remove(k);
                }
                inn.extend(gen[i].iter().copied());
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        let sorted = |sets: Vec<HashSet<VR>>| -> Vec<Vec<VR>> {
            sets.into_iter()
                .map(|s| {
                    let mut v: Vec<VR> = s.into_iter().collect();
                    v.sort_unstable();
                    v
                })
                .collect()
        };
        (sorted(live_in), sorted(live_out))
    }

    /// The seed simplify/select loop, quadratic in the vreg count: each
    /// simplify step scans the vregs from 0 for a low-degree node.
    /// Colours the graph of `g`; returns the verdict and the number of
    /// spill-candidate picks made.
    pub fn try_color(
        f: &VFunc,
        target: &TargetSpec,
        g: &DataflowSnapshot,
        no_spill_from: VR,
    ) -> (Result<Allocation, Vec<VR>>, usize) {
        let n = f.classes.len();
        let mut adj: Vec<Vec<VR>> = vec![Vec::new(); n];
        for &(a, b) in &g.edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let int_callee: Vec<u8> = target.int_callee.iter().map(|r| r.0).collect();
        let int_any: Vec<u8> = target
            .int_caller
            .iter()
            .map(|r| r.0)
            .chain(int_callee.iter().copied())
            .collect();
        let float_callee: Vec<u8> = target.float_callee.clone();
        let float_any: Vec<u8> = target
            .float_caller
            .iter()
            .chain(float_callee.iter())
            .copied()
            .collect();
        let avail = |v: VR| -> &[u8] {
            match (f.class_of(v), g.across_call[v as usize]) {
                (RegClass::Int, true) => &int_callee,
                (RegClass::Int, false) => &int_any,
                (RegClass::Float, true) => &float_callee,
                (RegClass::Float, false) => &float_any,
            }
        };

        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut removed = vec![false; n];
        let mut stack: Vec<(VR, bool)> = Vec::new(); // (vreg, may_spill)
        let mut remaining: usize = n;
        let mut spill_picks = 0;

        while remaining > 0 {
            // Find a low-degree node.
            let mut picked = None;
            for v in 0..n as VR {
                if !removed[v as usize] && degree[v as usize] < avail(v).len() {
                    picked = Some((v, false));
                    break;
                }
            }
            // Otherwise pick the cheapest spill candidate, passing over
            // spill temps while any original range remains.
            if picked.is_none() {
                let mut best: Option<(f64, VR)> = None;
                let mut best_any: Option<(f64, VR)> = None;
                for v in 0..n as VR {
                    if removed[v as usize] {
                        continue;
                    }
                    let d = degree[v as usize].max(1) as f64;
                    let score = g.cost[v as usize] as f64 / d;
                    if best_any.map(|(s, _)| score < s).unwrap_or(true) {
                        best_any = Some((score, v));
                    }
                    if v < no_spill_from && best.map(|(s, _)| score < s).unwrap_or(true) {
                        best = Some((score, v));
                    }
                }
                picked = best.or(best_any).map(|(_, v)| (v, true));
                spill_picks += 1;
            }
            let (v, may_spill) = picked.expect("nonempty");
            removed[v as usize] = true;
            remaining -= 1;
            for &w in &adj[v as usize] {
                if !removed[w as usize] {
                    degree[w as usize] -= 1;
                }
            }
            stack.push((v, may_spill));
        }

        let mut assign: Vec<Option<u8>> = vec![None; n];
        let mut spilled: Vec<VR> = Vec::new();
        while let Some((v, _)) = stack.pop() {
            let mut taken: u64 = 0;
            for &w in &adj[v as usize] {
                if let Some(c) = assign[w as usize] {
                    taken |= 1 << c;
                }
            }
            match avail(v).iter().find(|&&c| taken & (1 << c) == 0) {
                Some(&c) => assign[v as usize] = Some(c),
                None => spilled.push(v),
            }
        }
        if !spilled.is_empty() {
            return (Err(spilled), spill_picks);
        }

        let mut used_int_callee: Vec<u8> = Vec::new();
        let mut used_float_callee: Vec<u8> = Vec::new();
        for v in 0..n as VR {
            if let Some(c) = assign[v as usize] {
                match f.class_of(v) {
                    RegClass::Int => {
                        if target.int_callee.iter().any(|r| r.0 == c)
                            && !used_int_callee.contains(&c)
                        {
                            used_int_callee.push(c);
                        }
                    }
                    RegClass::Float => {
                        if target.float_callee.contains(&c) && !used_float_callee.contains(&c) {
                            used_float_callee.push(c);
                        }
                    }
                }
            }
        }
        used_int_callee.sort_unstable();
        used_float_callee.sort_unstable();
        let alloc = Allocation {
            assign,
            used_int_callee,
            used_float_callee,
        };
        (Ok(alloc), spill_picks)
    }

    /// The round-robin `br_ir::Liveness::new`: sweeps the reachable
    /// blocks in postorder, rebuilding every block's sets, until a
    /// sweep changes none. Returns live-in and live-out per block.
    pub fn ir_liveness(f: &Function, cfg: &Cfg) -> (Vec<RegSet>, Vec<RegSet>) {
        let nb = f.blocks.len();
        let nv = f.num_vregs();
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![RegSet::new(nv); nb];
        let mut kill = vec![RegSet::new(nv); nb];
        let mut uses = Vec::new();
        for (id, b) in f.iter_blocks() {
            let i = id.0 as usize;
            for inst in &b.insts {
                uses.clear();
                inst.uses(&mut uses);
                for &u in &uses {
                    if !kill[i].contains(u) {
                        gen[i].insert(u);
                    }
                }
                if let Some(d) = inst.def() {
                    kill[i].insert(d);
                }
            }
        }
        let mut live_in = vec![RegSet::new(nv); nb];
        let mut live_out = vec![RegSet::new(nv); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let i = b.0 as usize;
                let mut out = RegSet::new(nv);
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.0 as usize]);
                }
                let mut inn = out.clone();
                for v in kill[i].iter() {
                    inn.remove(v);
                }
                inn.union_with(&gen[i]);
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        (live_in, live_out)
    }
}
