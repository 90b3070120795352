//! Branch-register allocation and loop hoisting of branch-target address
//! calculations — the paper's Section 5 optimization.
//!
//! Branch targets are ordered by estimated execution frequency (`10^depth`
//! summed over all branches to the same target within a loop); the
//! highest-frequency calculation is moved to the preheader of the
//! outermost enclosing loop for which a branch register can be allocated.
//! Loops containing calls require callee-saved branch registers; branch
//! registers may be shared between non-overlapping loops.

use br_ir::{FreqEstimate, Function, LoopForest};

use crate::target::BrOptions;
use crate::vcode::{VFunc, VInst, VTerm};

/// What a hoisted calculation computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HoistedWhat {
    /// A branch target inside the function (one `bcalc`).
    Block(u32),
    /// A function entry (a `sethi` + `bmovr` pair).
    Func(String),
}

/// One calculation placed in a preheader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hoisted {
    /// Branch register holding the target.
    pub breg: u8,
    /// The target.
    pub what: HoistedWhat,
}

/// The complete hoisting plan for one function.
///
/// All per-block tables are vectors indexed by block id (the seed kept
/// hash maps keyed by block and `(block, target)` tuples); short vectors
/// read as empty, so a `Default` plan is the valid "nothing hoisted"
/// plan. Consumers go through the accessor methods.
#[derive(Debug, Clone, Default)]
pub struct HoistPlan {
    /// Per branch block: hoisted `(target block, branch register)` for
    /// the block's terminator. One terminator per block ⇒ at most one
    /// hoisted target per block.
    target_breg: Vec<Option<(u32, u8)>>,
    /// Per call block: `(callee name, branch register)` pairs.
    call_breg: Vec<Vec<(String, u8)>>,
    /// Per preheader block: calculations to place there.
    preheader: Vec<Vec<Hoisted>>,
    /// Callee-saved branch registers used (must be saved/restored).
    pub used_callee: Vec<u8>,
    /// Per block: branch registers live in some enclosing loop
    /// (unavailable as local scratch).
    reserved_in: Vec<Vec<u8>>,
    /// Total number of hoisted calculations.
    pub count: u32,
}

impl HoistPlan {
    /// Empty plan with per-block tables sized for `nblocks`.
    fn with_blocks(nblocks: usize) -> HoistPlan {
        HoistPlan {
            target_breg: vec![None; nblocks],
            call_breg: vec![Vec::new(); nblocks],
            preheader: vec![Vec::new(); nblocks],
            reserved_in: vec![Vec::new(); nblocks],
            ..HoistPlan::default()
        }
    }

    /// Branch register hoisted for the transfer `block` → `target`.
    pub fn target_breg(&self, block: u32, target: u32) -> Option<u8> {
        match self.target_breg.get(block as usize) {
            Some(&Some((t, r))) if t == target => Some(r),
            _ => None,
        }
    }

    /// Branch register hoisted for a call to `func` from `block`.
    pub fn call_breg(&self, block: u32, func: &str) -> Option<u8> {
        self.call_breg
            .get(block as usize)?
            .iter()
            .find(|(f, _)| f == func)
            .map(|&(_, r)| r)
    }

    /// Calculations placed in `block` (empty unless it is a preheader).
    pub fn preheader(&self, block: u32) -> &[Hoisted] {
        self.preheader
            .get(block as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Branch registers reserved (live for an enclosing loop) in `block`.
    pub fn reserved_in(&self, block: u32) -> &[u8] {
        self.reserved_in
            .get(block as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every hoisted calculation, across all preheaders.
    pub fn iter_hoisted(&self) -> impl Iterator<Item = &Hoisted> {
        self.preheader.iter().flatten()
    }

    fn grow(&mut self, block: u32) {
        let need = block as usize + 1;
        if self.target_breg.len() < need {
            self.target_breg.resize(need, None);
            self.call_breg.resize(need, Vec::new());
            self.preheader.resize(need, Vec::new());
            self.reserved_in.resize(need, Vec::new());
        }
    }

    /// Record a hoisted calculation in `block`'s preheader list (grows
    /// the tables; also used by verifier tests to build plans by hand).
    pub fn add_preheader(&mut self, block: u32, h: Hoisted) {
        self.grow(block);
        self.preheader[block as usize].push(h);
    }

    /// Reserve `breg` in `block` (grows the tables; also used by
    /// verifier tests to build plans by hand).
    pub fn add_reserved(&mut self, block: u32, breg: u8) {
        self.grow(block);
        self.reserved_in[block as usize].push(breg);
    }

    fn set_target_breg(&mut self, block: u32, target: u32, breg: u8) {
        self.grow(block);
        let slot = &mut self.target_breg[block as usize];
        debug_assert!(
            slot.is_none() || *slot == Some((target, breg)),
            "block {block} hoists two distinct targets"
        );
        *slot = Some((target, breg));
    }

    fn add_call_breg(&mut self, block: u32, func: String, breg: u8) {
        self.grow(block);
        self.call_breg[block as usize].push((func, breg));
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CalcKey {
    Block(u32),
    Func(String),
}

/// Build the plan. `ir` must be the IR function `vf` was selected from
/// (block ids are shared), and `loops` must be the loop forest of `ir`'s
/// CFG — the caller already has it for spill-cost depths, so the plan
/// takes it over instead of rebuilding the CFG, dominators, and forest.
/// When `reserve_stash` is set, one caller-saved branch register is
/// withheld from the pools so a leaf function can stash its return
/// address without memory traffic (the paper's `b[1]=b[7]` pattern in
/// Figure 4).
pub fn plan(
    ir: &Function,
    vf: &VFunc,
    opts: &BrOptions,
    reserve_stash: bool,
    mut loops: LoopForest,
) -> HoistPlan {
    if !opts.hoisting {
        return HoistPlan::default();
    }
    let (callee_pool, mut caller_pool) = opts.pools();
    if reserve_stash {
        caller_pool.pop();
    }
    if callee_pool.is_empty() && caller_pool.is_empty() {
        return HoistPlan::default();
    }
    let mut plan = HoistPlan::with_blocks(ir.blocks.len());

    // Frequencies are estimated on the unmarked forest; `mark_calls`
    // below only flags loops for the callee-save constraint.
    let freq = FreqEstimate::new(ir, &loops);

    // Which blocks contain calls (for the callee-save constraint).
    let call_blocks: Vec<br_ir::BlockId> = vf
        .iter_blocks()
        .filter(|(_, b)| b.insts.iter().any(VInst::is_call))
        .map(|(id, _)| id)
        .collect();
    loops.mark_calls(&call_blocks);

    // ---- gather candidates: (loop, what) → (freq, blocks) ----
    struct Cand {
        freq: u64,
        blocks: Vec<u32>,
    }
    // Keyed by loop index; a loop hosts only a handful of distinct
    // targets, so a linear probe beats hashing.
    let mut cands: Vec<Vec<(CalcKey, Cand)>> = (0..loops.loops.len()).map(|_| Vec::new()).collect();
    for (bid, block) in vf.iter_blocks() {
        let Some(li) = loops.innermost(bid) else {
            continue;
        };
        let f = freq.of(bid);
        let mut add = |key: CalcKey| {
            let list = &mut cands[li];
            match list.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => {
                    c.freq += f;
                    c.blocks.push(bid.0);
                }
                None => list.push((
                    key,
                    Cand {
                        freq: f,
                        blocks: vec![bid.0],
                    },
                )),
            }
        };
        match block.term() {
            VTerm::Jump(t) => add(CalcKey::Block(t.0)),
            VTerm::Branch { then_bb, .. } => add(CalcKey::Block(then_bb.0)),
            _ => {}
        }
        for inst in &block.insts {
            if let VInst::Call { func, .. } = inst {
                add(CalcKey::Func(func.clone()));
            }
        }
    }
    let mut ordered: Vec<((usize, CalcKey), Cand)> = cands
        .into_iter()
        .enumerate()
        .flat_map(|(li, list)| list.into_iter().map(move |(k, c)| ((li, k), c)))
        .collect();
    // The tie-break must be a *total* order over candidates, so the
    // hoisting plan (and hence dynamic instruction counts) cannot vary
    // from process to process — and stays byte-for-byte what the seed's
    // HashMap-gathered ordering produced.
    ordered.sort_by(|a, b| {
        b.1.freq
            .cmp(&a.1.freq)
            .then_with(|| a.1.blocks.cmp(&b.1.blocks))
            .then_with(|| a.0.cmp(&b.0))
    });

    // ---- allocate branch registers, outermost-feasible level first ----
    // A register allocated for loop L is live over L's body *plus* L's
    // preheader (where the calculation is placed). Two allocations
    // interfere when those regions intersect — checking bodies alone is
    // not enough: a sibling loop's preheader may sit inside another
    // loop's body. Regions are precomputed per loop as block bitsets
    // (the seed rebuilt BTreeSets per disjointness query).
    let words = ir.blocks.len().div_ceil(64);
    let region: Vec<Vec<u64>> = loops
        .loops
        .iter()
        .map(|l| {
            let mut r = vec![0u64; words];
            for b in &l.body {
                r[b.0 as usize / 64] |= 1 << (b.0 % 64);
            }
            if let Some(ph) = l.preheader {
                r[ph.0 as usize / 64] |= 1 << (ph.0 % 64);
            }
            r
        })
        .collect();
    let disjoint = |a: usize, b: usize| region[a].iter().zip(&region[b]).all(|(x, y)| x & y == 0);
    // Preference-ordered pools, materialized once.
    let any_pool: Vec<u8> = caller_pool
        .iter()
        .chain(callee_pool.iter())
        .copied()
        .collect();
    // Loops assigned per branch register, indexed by register number.
    let max_breg = any_pool.iter().copied().max().unwrap_or(0) as usize;
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); max_breg + 1];
    for ((li, key), cand) in ordered {
        // Chain of loops from the innermost outward while preheaders exist.
        let mut chain = vec![li];
        let mut cur = li;
        while let Some(p) = loops.loops[cur].parent {
            if loops.loops[p].preheader.is_none() {
                break;
            }
            chain.push(p);
            cur = p;
        }
        if loops.loops[li].preheader.is_none() {
            continue; // cannot place even at the innermost level
        }
        // Try outermost first (maximum code motion).
        let mut choice: Option<(usize, u8)> = None;
        for &lvl in chain.iter().rev() {
            if loops.loops[lvl].preheader.is_none() {
                continue;
            }
            let needs_callee = loops.loops[lvl].has_call || matches!(key, CalcKey::Func(_));
            let pool: &[u8] = if needs_callee {
                &callee_pool
            } else {
                &any_pool
            };
            let free = pool
                .iter()
                .copied()
                .find(|&b| assigned[b as usize].iter().all(|&l| disjoint(l, lvl)));
            if let Some(b) = free {
                choice = Some((lvl, b));
                break;
            }
        }
        let Some((lvl, breg)) = choice else {
            continue; // no register: the calc stays local
        };
        let Some(ph) = loops.loops[lvl].preheader else {
            continue; // chain candidates are preheader-checked; stay safe anyway
        };
        assigned[breg as usize].push(lvl);
        if callee_pool.contains(&breg) && !plan.used_callee.contains(&breg) {
            plan.used_callee.push(breg);
        }
        let what = match &key {
            CalcKey::Block(t) => HoistedWhat::Block(*t),
            CalcKey::Func(f) => HoistedWhat::Func(f.clone()),
        };
        plan.add_preheader(ph.0, Hoisted { breg, what });
        plan.count += 1;
        for b in cand.blocks {
            match &key {
                CalcKey::Block(t) => plan.set_target_breg(b, *t, breg),
                CalcKey::Func(f) => plan.add_call_breg(b, f.clone(), breg),
            }
        }
    }
    plan.used_callee.sort_unstable();

    // ---- reserved registers per block (for scratch selection) ----
    for (breg, ls) in assigned.iter().enumerate() {
        for &l in ls {
            for b in &loops.loops[l].body {
                plan.add_reserved(b.0, breg as u8);
            }
            if let Some(ph) = loops.loops[l].preheader {
                plan.add_reserved(ph.0, breg as u8);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{select, ConstPool};
    use crate::target::TargetSpec;
    use br_frontend::compile;
    use br_isa::Machine;

    fn plan_for(src: &str, name: &str, opts: &BrOptions) -> (HoistPlan, VFunc) {
        let m = compile(src).unwrap();
        let f = m.function(name).unwrap();
        let t = TargetSpec::for_machine(Machine::BranchReg);
        let mut pool = ConstPool::new();
        let vf = select(&m, f, &t, &mut pool).unwrap();
        let cfg = br_ir::Cfg::new(f);
        let dom = br_ir::Dominators::new(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        (plan(f, &vf, opts, false, loops), vf)
    }

    #[test]
    fn loop_branch_target_is_hoisted() {
        let src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }";
        let (p, _) = plan_for(src, "f", &BrOptions::default());
        assert!(p.count >= 1, "expected at least one hoisted calc: {p:?}");
        assert!(p.iter_hoisted().next().is_some());
        // No calls → caller-saved registers suffice.
        assert!(p.used_callee.is_empty());
    }

    #[test]
    fn loop_with_call_uses_callee_saved_breg() {
        let src = r#"
            int g(int x) { return x + 1; }
            int f(int n) { int s = 0; while (n > 0) { s = g(s); n--; } return s; }
        "#;
        let (p, _) = plan_for(src, "f", &BrOptions::default());
        assert!(p.count >= 1);
        assert!(
            !p.used_callee.is_empty(),
            "loop with a call must allocate callee-saved bregs: {p:?}"
        );
        // The call target itself should be hoisted.
        assert!(p
            .iter_hoisted()
            .any(|h| matches!(&h.what, HoistedWhat::Func(f) if f == "g")));
    }

    #[test]
    fn hoisting_disabled_yields_empty_plan() {
        let src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }";
        let opts = BrOptions {
            hoisting: false,
            ..Default::default()
        };
        let (p, _) = plan_for(src, "f", &opts);
        assert_eq!(p.count, 0);
        assert!(p.iter_hoisted().next().is_none());
    }

    #[test]
    fn nested_loops_allocate_distinct_registers() {
        let src = r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += i * j;
                return s;
            }
        "#;
        let (p, _) = plan_for(src, "f", &BrOptions::default());
        assert!(p.count >= 2, "inner and outer loop targets: {p:?}");
        // Registers assigned to overlapping (nested) loops must differ.
        let regs: Vec<u8> = p.iter_hoisted().map(|h| h.breg).collect();
        let mut uniq = regs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(regs.len(), uniq.len(), "{p:?}");
    }

    #[test]
    fn tiny_breg_file_limits_hoisting() {
        let src = r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        for (int k = 0; k < n; k++)
                            s += i * j * k;
                return s;
            }
        "#;
        let full = plan_for(src, "f", &BrOptions::default()).0;
        let tiny = plan_for(
            src,
            "f",
            &BrOptions {
                num_bregs: 3,
                ..Default::default()
            },
        )
        .0;
        assert!(tiny.count < full.count);
    }

    #[test]
    fn disjoint_loops_share_a_register() {
        // The straight-line block between the loops keeps the second
        // loop's preheader outside the first loop, so one register can
        // serve both (back-to-back loops would conflict: the second
        // preheader would be the first loop's header).
        let src = r#"
            int g;
            int f(int n) {
                int s = 0;
                while (n > 0) { s += n; n--; }
                g = s;
                s = g + 1;
                while (s > 10) { s -= 10; }
                return s;
            }
        "#;
        let opts = BrOptions {
            num_bregs: 3, // pool = {b1}
            ..Default::default()
        };
        let (p, _) = plan_for(src, "f", &opts);
        assert!(p.count >= 2, "{p:?}");
    }

    #[test]
    fn back_to_back_loops_do_not_share_when_preheader_is_inside() {
        // Regression test for the qsort bug: the second loop's preheader
        // is the first loop's header, so sharing one register would let
        // the second loop's calculation clobber the first loop's target.
        let src = r#"
            int f(int n) {
                int s = 0;
                while (n > 0) { s += n; n--; }
                while (s > 10) { s -= 10; }
                return s;
            }
        "#;
        let opts = BrOptions {
            num_bregs: 3, // pool = {b1}
            ..Default::default()
        };
        let (p, _) = plan_for(src, "f", &opts);
        // Only one of the two loop targets can be hoisted safely.
        assert_eq!(p.count, 1, "{p:?}");
    }
}
