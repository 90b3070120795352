//! Chaitin-style graph-coloring register allocation with spilling.
//!
//! Virtual registers that live across a call are restricted to
//! callee-saved registers; everything else prefers caller-saved ones.
//! Spill costs are weighted by `10^loop-depth`, the same static estimate
//! the paper's compiler uses for its branch-frequency ordering, so the
//! registers (data *and*, later, branch) go to the innermost loops first.

use br_ir::{BlockId, RegClass};

use crate::error::CodegenError;
use crate::target::TargetSpec;
use crate::vcode::{FrameRef, VBlock, VFunc, VInst, VR};

/// Dense bitset keyed by vreg index — the vcode twin of `br_ir`'s
/// `RegSet`. Sets are sized once per allocation round (the vreg count is
/// fixed within a round; spill rewriting grows it *between* rounds).
#[derive(Debug, Clone, PartialEq, Eq)]
struct VrSet {
    bits: Vec<u64>,
}

impl VrSet {
    /// Empty set sized for `n` vregs.
    fn new(n: usize) -> VrSet {
        VrSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, v: VR) {
        self.bits[v as usize / 64] |= 1 << (v % 64);
    }

    fn remove(&mut self, v: VR) {
        self.bits[v as usize / 64] &= !(1 << (v % 64));
    }

    /// Iterate over members in ascending vreg order.
    fn iter(&self) -> BitIter<'_> {
        iter_bits(&self.bits)
    }
}

/// Iterate the set bits of a bitset row in ascending order, one
/// `trailing_zeros` per member rather than one test per bit position.
fn iter_bits(words: &[u64]) -> BitIter<'_> {
    BitIter {
        words,
        w: 0,
        cur: words.first().copied().unwrap_or(0),
    }
}

struct BitIter<'a> {
    words: &'a [u64],
    w: usize,
    cur: u64,
}

impl Iterator for BitIter<'_> {
    type Item = VR;

    fn next(&mut self) -> Option<VR> {
        while self.cur == 0 {
            self.w += 1;
            if self.w >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.w];
        }
        let b = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some((self.w * 64 + b) as VR)
    }
}

/// Dense bit matrix: `rows` rows of `cols` bits in one flat allocation.
/// The allocator's per-block and per-vreg set families (`gen`/`kill`/
/// `live_in`/`live_out`, interference adjacency) live here — a
/// `Vec<VrSet>` layout pays one heap allocation per row, which dominates
/// allocation time on the many small functions of a typical module.
struct BitMatrix {
    /// Words per row.
    wpr: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(rows: usize, cols: usize) -> BitMatrix {
        let wpr = cols.div_ceil(64);
        BitMatrix {
            wpr,
            bits: vec![0; rows * wpr],
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.wpr..(r + 1) * self.wpr]
    }

    fn insert(&mut self, r: usize, c: VR) {
        self.bits[r * self.wpr + c as usize / 64] |= 1 << (c % 64);
    }

    fn contains(&self, r: usize, c: VR) -> bool {
        self.bits[r * self.wpr + c as usize / 64] & (1 << (c % 64)) != 0
    }

    /// `self[dst] |= other[src]`, word-parallel.
    fn union_row_from(&mut self, dst: usize, other: &BitMatrix, src: usize) {
        let d = dst * self.wpr;
        let s = src * other.wpr;
        for w in 0..self.wpr {
            self.bits[d + w] |= other.bits[s + w];
        }
    }
}

/// Result of register allocation for one function.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Physical register (within the vreg's class) per vreg; `None` for
    /// spilled vregs (which have a slot in `spill_slot` instead).
    pub assign: Vec<Option<u8>>,
    /// Callee-saved integer registers actually used (must be saved in
    /// the prologue).
    pub used_int_callee: Vec<u8>,
    /// Callee-saved float registers actually used.
    pub used_float_callee: Vec<u8>,
}

impl Allocation {
    /// The physical register assigned to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was spilled (spills are rewritten before emission,
    /// so any remaining reference to a spilled vreg is a bug).
    pub fn reg(&self, v: VR) -> u8 {
        self.assign[v as usize].expect("vreg was spilled but not rewritten")
    }
}

/// Block-level liveness over a [`VFunc`] (row = block, column = vreg).
struct VLiveness {
    live_in: BitMatrix,
    live_out: BitMatrix,
}

/// Postorder over the successor graph from block 0, with any
/// unreachable blocks appended in index order. Processing blocks in
/// this sequence visits successors before predecessors — the fast
/// direction for a backward data-flow problem — and covers *every*
/// block, reachable or not, because [`build_graph`] reads the live-out
/// of all of them.
fn postorder_all(nb: usize, succs: &[Vec<BlockId>]) -> Vec<u32> {
    let mut seen = vec![false; nb];
    let mut out: Vec<u32> = Vec::with_capacity(nb);
    if nb > 0 {
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        seen[0] = true;
        while let Some(top) = stack.last_mut() {
            let ss = &succs[top.0 as usize];
            if top.1 < ss.len() {
                let s = ss[top.1].0;
                top.1 += 1;
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                out.push(top.0);
                stack.pop();
            }
        }
    }
    for (b, s) in seen.iter().enumerate() {
        if !s {
            out.push(b as u32);
        }
    }
    out
}

fn compute_liveness(f: &VFunc) -> VLiveness {
    let nb = f.blocks.len();
    let nv = f.classes.len();
    let mut gen = BitMatrix::new(nb, nv);
    let mut kill = BitMatrix::new(nb, nv);
    let mut uses = Vec::new();
    for (i, b) in f.blocks.iter().enumerate() {
        for inst in &b.insts {
            uses.clear();
            inst.uses(&mut uses);
            for &u in &uses {
                if !kill.contains(i, u) {
                    gen.insert(i, u);
                }
            }
            if let Some(d) = inst.def() {
                kill.insert(i, d);
            }
        }
        uses.clear();
        b.term().uses(&mut uses);
        for &u in &uses {
            if !kill.contains(i, u) {
                gen.insert(i, u);
            }
        }
    }
    let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term().successors()).collect();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for (i, ss) in succs.iter().enumerate() {
        for s in ss {
            preds[s.0 as usize].push(i as u32);
        }
    }

    // Worklist fixpoint. The sets only grow, and the least fixpoint is
    // unique, so visiting order affects speed but never the result —
    // the seed implementation's whole-program sweeps computed exactly
    // these sets.
    let mut live_in = BitMatrix::new(nb, nv);
    let mut live_out = BitMatrix::new(nb, nv);
    let wpr = live_in.wpr;
    let order = postorder_all(nb, &succs);
    let mut on_list = vec![true; nb];
    // Stack; seeded reversed so blocks pop in postorder sequence.
    let mut work: Vec<u32> = order.iter().rev().copied().collect();
    while let Some(i) = work.pop() {
        let i = i as usize;
        on_list[i] = false;
        // live_out[i] = ∪ live_in[succ] (monotone: only ever grows; a
        // self-loop reads the current in-set, and the block re-queues
        // via preds when live_in[i] changes, so it needs no special
        // case).
        for s in &succs[i] {
            live_out.union_row_from(i, &live_in, s.0 as usize);
        }
        // live_in[i] = gen[i] ∪ (live_out[i] − kill[i]), word-parallel.
        let mut changed = false;
        let base = i * wpr;
        for w in base..base + wpr {
            let new = gen.bits[w] | (live_out.bits[w] & !kill.bits[w]);
            if new != live_in.bits[w] {
                live_in.bits[w] = new;
                changed = true;
            }
        }
        if changed {
            for &p in &preds[i] {
                if !on_list[p as usize] {
                    on_list[p as usize] = true;
                    work.push(p);
                }
            }
        }
    }
    VLiveness { live_in, live_out }
}

/// Interference graph (adjacency bit matrix) plus across-call markers.
struct Graph {
    adj: BitMatrix,
    across_call: Vec<bool>,
    cost: Vec<u64>,
}

fn build_graph(f: &VFunc, lv: &VLiveness, depth: &[u32]) -> Graph {
    let n = f.classes.len();
    let mut g = Graph {
        adj: BitMatrix::new(n, n),
        across_call: vec![false; n],
        cost: vec![0; n],
    };
    let add_edge = |adj: &mut BitMatrix, a: VR, b: VR| {
        if a != b && f.class_of(a) == f.class_of(b) {
            adj.insert(a as usize, b);
            adj.insert(b as usize, a);
        }
    };
    // Parameters are defined "simultaneously" at entry.
    for i in 0..f.params.len() {
        for j in i + 1..f.params.len() {
            add_edge(&mut g.adj, f.params[i].0, f.params[j].0);
        }
    }
    let mut uses = Vec::new();
    // One working set reused across blocks (no per-block clone).
    let mut live = VrSet::new(n);
    for (bi, b) in f.blocks.iter().enumerate() {
        let w = 10u64.pow(depth.get(bi).copied().unwrap_or(0).min(9));
        live.bits.copy_from_slice(lv.live_out.row(bi));
        uses.clear();
        b.term().uses(&mut uses);
        for &u in &uses {
            g.cost[u as usize] += w;
            live.insert(u);
        }
        for inst in b.insts.iter().rev() {
            if let Some(d) = inst.def() {
                g.cost[d as usize] += w;
                live.remove(d);
                // Move sources don't interfere with the destination
                // (enables natural coalescing by same-color assignment).
                let move_src = match inst {
                    VInst::Mov { src, .. } | VInst::FMov { src, .. } => Some(*src),
                    _ => None,
                };
                for l in live.iter() {
                    if Some(l) != move_src {
                        add_edge(&mut g.adj, d, l);
                    }
                }
            }
            if inst.is_call() {
                for l in live.iter() {
                    g.across_call[l as usize] = true;
                }
            }
            uses.clear();
            inst.uses(&mut uses);
            for &u in &uses {
                g.cost[u as usize] += w;
                live.insert(u);
            }
        }
    }
    g
}

/// Maximum spill rounds before allocation reports divergence.
const MAX_ROUNDS: u32 = 40;

/// Allocate registers for `f`, rewriting spills in place.
///
/// `depth[b]` is the loop-nesting depth of block `b` (spill-cost weight).
///
/// Fails with [`CodegenError::RegallocDiverged`] if allocation does not
/// converge within `MAX_ROUNDS` (40) spill rounds — that indicates a bug
/// rather than a hard program, but it must surface as an error, not an
/// abort, so differential drivers can report and minimize it.
pub fn allocate(
    f: &mut VFunc,
    target: &TargetSpec,
    depth: &[u32],
) -> Result<Allocation, CodegenError> {
    // Vregs created by `rewrite_spills` (>= the entry count) are reload/
    // store temps with minimal live ranges. Re-spilling one produces an
    // identically-shaped temp the next round chooses again — an infinite
    // spill loop under sustained pressure (dozens of simultaneously live
    // values, as translated foreign code produces). They are excluded
    // from spill-candidate selection so rounds always spill an original
    // range and make real progress.
    let no_spill_from = f.classes.len() as VR;
    for _ in 0..MAX_ROUNDS {
        let lv = compute_liveness(f);
        let g = build_graph(f, &lv, depth);
        match try_color(f, target, &g, no_spill_from) {
            Ok(alloc) => return Ok(alloc),
            Err(spills) => rewrite_spills(f, &spills),
        }
    }
    Err(CodegenError::RegallocDiverged {
        func: f.name.clone(),
        rounds: MAX_ROUNDS,
    })
}

/// Attempt to color; on failure return the set of vregs to spill.
fn try_color(
    f: &VFunc,
    target: &TargetSpec,
    g: &Graph,
    no_spill_from: VR,
) -> Result<Allocation, Vec<VR>> {
    let n = f.classes.len();
    // Preference-ordered color pools, one per (class, across-call)
    // combination, materialized once per coloring attempt instead of a
    // fresh Vec per query. Order matches the seed implementation:
    // caller-saved first (free), callee-saved fallback; across-call
    // nodes are restricted to callee-saved.
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

    let row_count =
        |r: &[u64]| -> usize { r.iter().map(|w| w.count_ones() as usize).sum() };
    let mut degree: Vec<usize> = (0..n).map(|v| row_count(g.adj.row(v))).collect();
    let mut removed = vec![false; n];
    let mut stack: Vec<(VR, bool)> = Vec::new(); // (vreg, may_spill)
    let mut remaining: usize = n;

    while remaining > 0 {
        // Find a low-degree node.
        let mut picked = None;
        for v in 0..n as VR {
            if !removed[v as usize] && degree[v as usize] < avail(v).len() {
                picked = Some((v, false));
                break;
            }
        }
        // Otherwise pick the cheapest spill candidate. Spill temps
        // (vregs >= `no_spill_from`) are passed over while any original
        // range remains: spilling them again cannot reduce pressure.
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
        }
        let (v, may_spill) = picked.expect("nonempty");
        removed[v as usize] = true;
        remaining -= 1;
        for w in iter_bits(g.adj.row(v as usize)) {
            if !removed[w as usize] {
                degree[w as usize] -= 1;
            }
        }
        stack.push((v, may_spill));
    }

    let mut assign: Vec<Option<u8>> = vec![None; n];
    let mut spilled: Vec<VR> = Vec::new();
    while let Some((v, may_spill)) = stack.pop() {
        // Physical register numbers on both machines fit in 0..32, so
        // the taken-color set is one machine word.
        let mut taken: u64 = 0;
        for w in iter_bits(g.adj.row(v as usize)) {
            if let Some(c) = assign[w as usize] {
                taken |= 1 << c;
            }
        }
        // Color-preference: reuse the source color of a move when free
        // would require move metadata; keep it simple and take the first
        // free color in preference order.
        match avail(v).iter().find(|&&c| taken & (1 << c) == 0) {
            Some(&c) => assign[v as usize] = Some(c),
            None => {
                debug_assert!(may_spill || row_count(g.adj.row(v as usize)) >= avail(v).len());
                spilled.push(v);
            }
        }
    }
    if !spilled.is_empty() {
        return Err(spilled);
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
    Ok(Allocation {
        assign,
        used_int_callee,
        used_float_callee,
    })
}

/// Rewrite spilled vregs: each use reloads into a fresh temp, each def
/// stores from a fresh temp. Parameters that spill are handled by the
/// prologue (emission), which stores the incoming argument directly.
fn rewrite_spills(f: &mut VFunc, spills: &[VR]) {
    let mut slot_of: Vec<Option<u32>> = vec![None; f.classes.len()];
    for &v in spills {
        let s = f.num_spills;
        f.num_spills += 1;
        slot_of[v as usize] = Some(s);
    }
    // Spilled parameters are stored by the prologue at emission time
    // (the incoming argument register or stack word goes straight to the
    // spill slot).
    for &(p, _) in &f.params {
        if let Some(s) = slot_of[p as usize] {
            f.spilled_params.push((p, s));
        }
    }

    let nblocks = f.blocks.len();
    for bi in 0..nblocks {
        let mut old = std::mem::take(&mut f.blocks[bi]);
        let mut new = VBlock::default();
        let mut uses = Vec::new();
        for mut inst in old.insts.drain(..) {
            uses.clear();
            inst.uses(&mut uses);
            // Reload spilled uses into temps. Dedupe in first-use order:
            // the reload sequence (and the temp vreg numbering it creates)
            // must be deterministic, or later spill rounds see different
            // graphs on every run.
            dedup_in_order(&mut uses);
            for &u in &uses {
                if let Some(s) = slot_of[u as usize] {
                    let class = f.class_of(u);
                    let t = f.new_vreg(class);
                    new.insts.push(VInst::FrameLoad {
                        dst: t,
                        fref: FrameRef::Spill(s),
                        float: class == RegClass::Float,
                    });
                    substitute(&mut inst, u, t);
                }
            }
            // Def → temp + store.
            if let Some(d) = inst.def() {
                if let Some(s) = slot_of[d as usize] {
                    let class = f.class_of(d);
                    let t = f.new_vreg(class);
                    substitute_def(&mut inst, d, t);
                    new.insts.push(inst);
                    new.insts.push(VInst::FrameStore {
                        src: t,
                        fref: FrameRef::Spill(s),
                        float: class == RegClass::Float,
                    });
                    continue;
                }
            }
            new.insts.push(inst);
        }
        // Terminator uses.
        let mut term = old.term.take().expect("terminated");
        uses.clear();
        term.uses(&mut uses);
        dedup_in_order(&mut uses);
        for &u in &uses {
            if let Some(s) = slot_of[u as usize] {
                let class = f.class_of(u);
                let t = f.new_vreg(class);
                new.insts.push(VInst::FrameLoad {
                    dst: t,
                    fref: FrameRef::Spill(s),
                    float: class == RegClass::Float,
                });
                substitute_term(&mut term, u, t);
            }
        }
        new.term = Some(term);
        f.blocks[bi] = new;
    }
}

/// Remove duplicates keeping the first occurrence of each value (the
/// lists are a handful of entries, so the quadratic scan is fine).
fn dedup_in_order(v: &mut Vec<VR>) {
    let mut i = 0;
    while i < v.len() {
        if v[..i].contains(&v[i]) {
            v.remove(i);
        } else {
            i += 1;
        }
    }
}

fn substitute(inst: &mut VInst, from: VR, to: VR) {
    let fix = |v: &mut VR| {
        if *v == from {
            *v = to;
        }
    };
    let fix_src = |s: &mut crate::vcode::VSrc| {
        if let crate::vcode::VSrc::V(v) = s {
            if *v == from {
                *v = to;
            }
        }
    };
    match inst {
        VInst::Alu { a, b, .. } => {
            fix(a);
            fix_src(b);
        }
        VInst::Mov { src, .. }
        | VInst::FMov { src, .. }
        | VInst::FNeg { src, .. }
        | VInst::ItoF { src, .. }
        | VInst::FtoI { src, .. } => fix(src),
        VInst::Load { base, .. } | VInst::LoadF { base, .. } => fix(base),
        VInst::Store { src, base, .. } | VInst::StoreF { src, base, .. } => {
            fix(src);
            fix(base);
        }
        VInst::FrameStore { src, .. } => fix(src),
        VInst::Fpu { a, b, .. } => {
            fix(a);
            fix(b);
        }
        VInst::Call { args, .. } => args.iter_mut().for_each(fix),
        VInst::Li { .. } | VInst::La { .. } | VInst::FrameAddr { .. } | VInst::FrameLoad { .. } => {}
    }
}

fn substitute_def(inst: &mut VInst, from: VR, to: VR) {
    match inst {
        VInst::Alu { dst, .. }
        | VInst::Li { dst, .. }
        | VInst::La { dst, .. }
        | VInst::Mov { dst, .. }
        | VInst::Load { dst, .. }
        | VInst::LoadF { dst, .. }
        | VInst::FrameAddr { dst, .. }
        | VInst::FrameLoad { dst, .. }
        | VInst::Fpu { dst, .. }
        | VInst::FNeg { dst, .. }
        | VInst::FMov { dst, .. }
        | VInst::ItoF { dst, .. }
        | VInst::FtoI { dst, .. } if *dst == from => *dst = to,
        VInst::Call { dst, .. } if *dst == Some(from) => *dst = Some(to),
        _ => {}
    }
}

/// Order-independent view of the dataflow facts feeding the allocator:
/// per-block live-in/live-out (sorted vreg lists), interference edges
/// (sorted, deduped, `a < b`), across-call markers, and spill costs.
///
/// Produced by both [`dataflow_snapshot`] (the production bitset
/// implementation) and [`reference::snapshot`] (the retained `HashSet`
/// seed implementation) so differential tests can assert the two agree
/// bit for bit on arbitrary programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowSnapshot {
    pub live_in: Vec<Vec<VR>>,
    pub live_out: Vec<Vec<VR>>,
    pub edges: Vec<(VR, VR)>,
    pub across_call: Vec<bool>,
    pub cost: Vec<u64>,
}

/// Snapshot the production (dense bitset, worklist) dataflow for `f`.
pub fn dataflow_snapshot(f: &VFunc, depth: &[u32]) -> DataflowSnapshot {
    let lv = compute_liveness(f);
    let g = build_graph(f, &lv, depth);
    let n = f.classes.len();
    let nb = f.blocks.len();
    let mut edges = Vec::new();
    for v in 0..n {
        for w in iter_bits(g.adj.row(v)) {
            if (v as VR) < w {
                edges.push((v as VR, w));
            }
        }
    }
    DataflowSnapshot {
        live_in: (0..nb).map(|i| iter_bits(lv.live_in.row(i)).collect()).collect(),
        live_out: (0..nb).map(|i| iter_bits(lv.live_out.row(i)).collect()).collect(),
        edges,
        across_call: g.across_call,
        cost: g.cost,
    }
}

/// The seed `HashSet` dataflow, retained verbatim as a differential
/// oracle for the bitset fast path. Not used by compilation.
pub mod reference {
    use std::collections::HashSet;

    use br_ir::BlockId;

    use super::{DataflowSnapshot, VFunc, VInst, VR};

    /// Snapshot the reference dataflow for `f` (same shape as
    /// [`super::dataflow_snapshot`]).
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

fn substitute_term(term: &mut crate::vcode::VTerm, from: VR, to: VR) {
    use crate::vcode::{VSrc, VTerm};
    match term {
        VTerm::Branch { a, b, .. } => {
            if *a == from {
                *a = to;
            }
            if let VSrc::V(v) = b {
                if *v == from {
                    *v = to;
                }
            }
        }
        VTerm::Switch { idx, .. } if *idx == from => *idx = to,
        VTerm::Ret(Some((VSrc::V(v), _))) if *v == from => *v = to,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{select, ConstPool};
    use br_frontend::compile;
    use br_isa::Machine;

    fn alloc_for(src: &str, name: &str, machine: Machine) -> (VFunc, Allocation) {
        let m = compile(src).unwrap();
        let f = m.function(name).unwrap();
        let t = TargetSpec::for_machine(machine);
        let mut pool = ConstPool::new();
        let mut vf = select(&m, f, &t, &mut pool).unwrap();
        let depth = vec![0u32; vf.blocks.len()];
        let a = allocate(&mut vf, &t, &depth).unwrap();
        (vf, a)
    }

    /// Check that no two interfering vregs share a register by re-running
    /// liveness on the rewritten function.
    fn check_valid(f: &VFunc, a: &Allocation) {
        let lv = compute_liveness(f);
        let depth = vec![0; f.blocks.len()];
        let g = build_graph(f, &lv, &depth);
        for v in 0..f.classes.len() as VR {
            for w in iter_bits(g.adj.row(v as usize)) {
                let (cv, cw) = (a.assign[v as usize], a.assign[w as usize]);
                if let (Some(cv), Some(cw)) = (cv, cw) {
                    assert!(
                        cv != cw,
                        "interfering vregs {v} and {w} share register {cv}"
                    );
                }
            }
        }
    }

    /// The taken-color bitmask must preserve the seed behaviour: colors
    /// are picked first-free in preference order (caller-saved pool in
    /// target order, then callee-saved). Chained adds keep every
    /// intermediate live, so successive vregs walk the preference list.
    #[test]
    fn register_choice_follows_preference_order() {
        let src = "int f(int a, int b, int c, int d) {
            int e = a + b; int g = e + c; int h = g + d;
            return h + e + g + a;
        }";
        let (vf, a) = alloc_for(src, "f", Machine::Baseline);
        check_valid(&vf, &a);
        let t = TargetSpec::for_machine(Machine::Baseline);
        let pref: Vec<u8> = t.int_caller.iter().map(|r| r.0).collect();
        // No calls: every assigned register must come from the
        // caller-saved pool, and the set used must be a prefix of the
        // preference order (first-free semantics never skips a color
        // while a later one is in use).
        let mut used: Vec<u8> = a.assign.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        assert!(!used.is_empty());
        let mut prefix: Vec<u8> = pref[..used.len()].to_vec();
        prefix.sort_unstable();
        assert_eq!(used, prefix, "colors used are not a preference-order prefix");
    }

    /// The dense bitset dataflow must agree with the retained HashSet
    /// reference on a function with loops, calls, floats, and spills.
    #[test]
    fn bitset_dataflow_matches_reference() {
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
        let m = compile(src).unwrap();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let t = TargetSpec::for_machine(machine);
            let mut pool = ConstPool::new();
            for name in ["g", "h", "f"] {
                let f = m.function(name).unwrap();
                let vf = select(&m, f, &t, &mut pool).unwrap();
                let depth: Vec<u32> = (0..vf.blocks.len() as u32).map(|b| b % 3).collect();
                assert_eq!(
                    dataflow_snapshot(&vf, &depth),
                    super::reference::snapshot(&vf, &depth),
                    "bitset dataflow diverged from reference on {name} ({machine:?})"
                );
            }
        }
    }

    #[test]
    fn simple_function_allocates_without_spills() {
        let (vf, a) = alloc_for("int f(int x, int y) { return x * y + x; }", "f", Machine::Baseline);
        assert_eq!(vf.num_spills, 0);
        check_valid(&vf, &a);
    }

    #[test]
    fn values_across_calls_get_callee_saved_registers() {
        let src = r#"
            int g(int x) { return x + 1; }
            int f(int a, int b) { int c = a * b; g(a); return c + b; }
        "#;
        let (vf, a) = alloc_for(src, "f", Machine::BranchReg);
        check_valid(&vf, &a);
        let t = TargetSpec::for_machine(Machine::BranchReg);
        // Some callee-saved register must be in use (c and b live across).
        assert!(!a.used_int_callee.is_empty());
        for &c in &a.used_int_callee {
            assert!(t.int_callee.iter().any(|r| r.0 == c));
        }
    }

    #[test]
    fn high_pressure_forces_spills_on_br_machine() {
        // 20 simultaneously-live sums exceed the BR machine's ~13
        // allocatable integer registers.
        let mut body = String::new();
        for i in 0..20 {
            body.push_str(&format!("int v{i} = a + {i};\n"));
        }
        body.push_str("g(a);\n");
        let mut sum = String::from("return 0");
        for i in 0..20 {
            sum.push_str(&format!(" + v{i}"));
        }
        sum.push(';');
        let src = format!(
            "int g(int x) {{ return x; }}\nint f(int a) {{ {body} {sum} }}"
        );
        let (vf_base, ab) = alloc_for(&src, "f", Machine::Baseline);
        let (vf_br, abr) = alloc_for(&src, "f", Machine::BranchReg);
        check_valid(&vf_base, &ab);
        check_valid(&vf_br, &abr);
        // The BR machine must spill more than the baseline — this is the
        // mechanism behind Table I's extra data references.
        assert!(vf_br.num_spills > vf_base.num_spills);
    }

    #[test]
    fn float_registers_allocated_separately() {
        let (vf, a) = alloc_for(
            "float f(float x, float y) { return x * y + x / y; }",
            "f",
            Machine::Baseline,
        );
        check_valid(&vf, &a);
        assert_eq!(vf.num_spills, 0);
    }

    #[test]
    fn spilled_code_still_colors() {
        let mut body = String::new();
        for i in 0..40 {
            body.push_str(&format!("int v{i} = a * {i};\n"));
        }
        let mut sum = String::from("return 0");
        for i in 0..40 {
            sum.push_str(&format!(" + v{i}"));
        }
        sum.push(';');
        let src = format!("int f(int a) {{ {body} {sum} }}");
        let (vf, a) = alloc_for(&src, "f", Machine::BranchReg);
        check_valid(&vf, &a);
        // Every original vreg is either assigned or was rewritten away.
        for v in 0..vf.classes.len() {
            let referenced = vf.blocks.iter().any(|b| {
                let mut u = Vec::new();
                b.insts.iter().for_each(|i| {
                    i.uses(&mut u);
                    if let Some(d) = i.def() {
                        u.push(d);
                    }
                });
                b.term().uses(&mut u);
                u.contains(&(v as VR))
            });
            if referenced {
                assert!(a.assign[v].is_some(), "live vreg {v} lacks a register");
            }
        }
    }
}
