//! Differential property test for the register allocator's dataflow
//! fast path.
//!
//! The allocator's liveness, interference graph, across-call markers,
//! and spill costs were rewritten from `HashSet` sweeps to dense bitsets
//! with a worklist fixpoint. The seed implementation is kept verbatim
//! below as `reference`; these tests assert the two produce *exactly*
//! the same facts — not merely equivalent allocations — over a corpus
//! of torture-generated modules covering loops, calls, floats, switches,
//! and deep expression nesting on both machines, plus one hand-written
//! module with nested loops, calls and float values.

use br_codegen::{isel, regalloc, TargetSpec};
use br_ir::{BlockId, Cfg, Dominators, LoopForest};
use br_isa::Machine;
use br_torture::gen::{generate, render, GenConfig};

#[test]
fn bitset_dataflow_matches_hashset_reference_on_torture_corpus() {
    let mut funcs_checked = 0usize;
    for seed in 0..200u64 {
        let src = render(&generate(seed, GenConfig::default()));
        let module = br_frontend::compile(&src)
            .unwrap_or_else(|e| panic!("torture seed {seed} does not compile: {e}\n{src}"));
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
                let fast = regalloc::dataflow_snapshot(&vf, &depth);
                let slow = reference::snapshot(&vf, &depth);
                assert_eq!(
                    fast, slow,
                    "dataflow diverges on seed {seed}, {machine:?}, function {}",
                    func.name
                );
                funcs_checked += 1;
            }
        }
    }
    // The corpus must actually exercise the comparison; 200 seeds yield
    // a few hundred functions per machine.
    assert!(
        funcs_checked >= 400,
        "only {funcs_checked} functions checked"
    );
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

/// The seed `HashSet` dataflow, kept verbatim as a differential oracle
/// for the allocator's bitset fast path.
mod reference {
    use std::collections::HashSet;

    use br_codegen::regalloc::DataflowSnapshot;
    use br_codegen::vcode::{VFunc, VInst, VR};
    use br_ir::BlockId;

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
}
