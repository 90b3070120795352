//! Natural-loop detection.
//!
//! The paper's key optimization — moving branch-target-address calculations
//! "to the preheader of the innermost loop in which the branch occurs" —
//! needs exactly this analysis: natural loops from back edges, loop nesting
//! depth, and a preheader block per loop.

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::dom::Dominators;
use crate::inst::BlockId;

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// Nesting depth: 1 for an outermost loop, 2 for a loop inside it, …
    pub depth: u32,
    /// Index of the enclosing loop in [`LoopForest::loops`], if any.
    pub parent: Option<usize>,
    /// The unique predecessor of the header outside the loop, if one
    /// exists. Code hoisted out of the loop lands here.
    pub preheader: Option<BlockId>,
    /// Whether the loop body contains a call instruction (set by the
    /// caller via [`LoopForest::mark_calls`]; loops with calls need
    /// callee-saved branch registers in the paper's scheme).
    pub has_call: bool,
}

impl Loop {
    /// Whether `b` is inside this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// All natural loops of a function, with nesting resolved.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops, outermost-first within each nest (parents precede children).
    pub loops: Vec<Loop>,
    depth_of: Vec<u32>,
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Find the natural loops of `cfg`.
    ///
    /// Back edges `t → h` with `h` dominating `t` define loops; loops with
    /// the same header are merged (as in the classical construction).
    pub fn new(cfg: &Cfg, dom: &Dominators) -> LoopForest {
        // Collect loop bodies keyed by header.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut bodies: Vec<BTreeSet<BlockId>> = Vec::new();
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    // back edge b → s
                    let idx = match headers.iter().position(|&h| h == s) {
                        Some(i) => i,
                        None => {
                            headers.push(s);
                            bodies.push(BTreeSet::from([s]));
                            headers.len() - 1
                        }
                    };
                    // Walk predecessors backwards from the latch.
                    let mut stack = vec![b];
                    while let Some(x) = stack.pop() {
                        if bodies[idx].insert(x) {
                            for &p in cfg.preds(x) {
                                if cfg.is_reachable(p) {
                                    stack.push(p);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Sort loops by body size descending so parents come first.
        let mut order: Vec<usize> = (0..headers.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(bodies[i].len()));

        let mut loops: Vec<Loop> = Vec::with_capacity(order.len());
        for &i in &order {
            let header = headers[i];
            let body = bodies[i].clone();
            // Parent: the smallest already-placed loop that strictly
            // contains this one.
            let mut parent: Option<usize> = None;
            for (j, l) in loops.iter().enumerate() {
                if l.body.len() > body.len() && l.contains(header) {
                    match parent {
                        Some(p) if loops[p].body.len() <= l.body.len() => {}
                        _ => parent = Some(j),
                    }
                }
            }
            let depth = parent.map(|p| loops[p].depth + 1).unwrap_or(1);
            // Preheader: unique out-of-loop predecessor of the header.
            let outside: Vec<BlockId> = cfg
                .preds(header)
                .iter()
                .copied()
                .filter(|p| !body.contains(p) && cfg.is_reachable(*p))
                .collect();
            let preheader = match outside.as_slice() {
                [single] => Some(*single),
                _ => None,
            };
            loops.push(Loop {
                header,
                body,
                depth,
                parent,
                preheader,
                has_call: false,
            });
        }

        let n = cfg.len();
        let mut depth_of = vec![0u32; n];
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.body {
                if l.depth > depth_of[b.0 as usize] {
                    depth_of[b.0 as usize] = l.depth;
                    innermost[b.0 as usize] = Some(i);
                }
            }
        }
        LoopForest {
            loops,
            depth_of,
            innermost,
        }
    }

    /// Loop-nesting depth of a block (0 when not inside any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth_of.get(b.0 as usize).copied().unwrap_or(0)
    }

    /// Index of the innermost loop containing `b`.
    pub fn innermost(&self, b: BlockId) -> Option<usize> {
        self.innermost.get(b.0 as usize).copied().flatten()
    }

    /// Record which loops contain calls. `call_blocks` lists every block
    /// containing at least one call instruction.
    pub fn mark_calls(&mut self, call_blocks: &[BlockId]) {
        for l in &mut self.loops {
            l.has_call = call_blocks.iter().any(|b| l.contains(*b));
        }
    }

    /// Whether two loops overlap (share any block). Used by branch-register
    /// allocation: registers can be shared between non-overlapping loops.
    pub fn overlap(&self, a: usize, b: usize) -> bool {
        let (small, large) = if self.loops[a].body.len() <= self.loops[b].body.len() {
            (&self.loops[a], &self.loops[b])
        } else {
            (&self.loops[b], &self.loops[a])
        };
        small.body.iter().any(|x| large.contains(*x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Cond, Inst, Operand};
    use crate::module::{Block, Function};
    use crate::types::Ty;

    fn branch(t: u32, e: u32) -> Inst {
        Inst::Branch {
            cond: Cond::Eq,
            a: Operand::Const(0),
            b: Operand::Const(0),
            float: false,
            then_bb: BlockId(t),
            else_bb: BlockId(e),
        }
    }

    fn func(blocks: Vec<Vec<Inst>>) -> (Cfg, Dominators) {
        let f = Function {
            name: "t".into(),
            ret_ty: Ty::Void,
            params: vec![],
            blocks: blocks.into_iter().map(|insts| Block { insts }).collect(),
            vregs: vec![],
            slots: vec![],
        };
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        (cfg, dom)
    }

    #[test]
    fn single_loop_detected_with_preheader() {
        // 0 (pre) → 1 (hdr) → {2 body, 3 exit}; 2 → 1
        let (cfg, dom) = func(vec![
            vec![Inst::Jump(BlockId(1))],
            vec![branch(2, 3)],
            vec![Inst::Jump(BlockId(1))],
            vec![Inst::Ret(None)],
        ]);
        let lf = LoopForest::new(&cfg, &dom);
        assert_eq!(lf.loops.len(), 1);
        let l = &lf.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.preheader, Some(BlockId(0)));
        assert_eq!(l.depth, 1);
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(3)));
        assert_eq!(lf.depth(BlockId(2)), 1);
        assert_eq!(lf.depth(BlockId(3)), 0);
    }

    #[test]
    fn nested_loops_get_increasing_depth() {
        // 0 → 1 (outer hdr) → 2 (inner hdr) → {2, 3}; 3 → {1, 4}
        let (cfg, dom) = func(vec![
            vec![Inst::Jump(BlockId(1))],
            vec![Inst::Jump(BlockId(2))],
            vec![branch(2, 3)],
            vec![branch(1, 4)],
            vec![Inst::Ret(None)],
        ]);
        let lf = LoopForest::new(&cfg, &dom);
        assert_eq!(lf.loops.len(), 2);
        let outer = lf.loops.iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = lf.loops.iter().find(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(lf.depth(BlockId(2)), 2);
        assert_eq!(lf.depth(BlockId(3)), 1);
        assert!(inner.parent.is_some());
    }

    #[test]
    fn self_loop() {
        let (cfg, dom) = func(vec![
            vec![Inst::Jump(BlockId(1))],
            vec![branch(1, 2)],
            vec![Inst::Ret(None)],
        ]);
        let lf = LoopForest::new(&cfg, &dom);
        assert_eq!(lf.loops.len(), 1);
        assert_eq!(lf.loops[0].body.len(), 1);
        assert_eq!(lf.loops[0].preheader, Some(BlockId(0)));
    }

    #[test]
    fn disjoint_loops_do_not_overlap() {
        // 0→1; 1→{1,2}; 2→{2,3}
        let (cfg, dom) = func(vec![
            vec![Inst::Jump(BlockId(1))],
            vec![branch(1, 2)],
            vec![branch(2, 3)],
            vec![Inst::Ret(None)],
        ]);
        let lf = LoopForest::new(&cfg, &dom);
        assert_eq!(lf.loops.len(), 2);
        assert!(!lf.overlap(0, 1));
    }

    #[test]
    fn mark_calls_sets_flag() {
        let (cfg, dom) = func(vec![
            vec![Inst::Jump(BlockId(1))],
            vec![branch(1, 2)],
            vec![Inst::Ret(None)],
        ]);
        let mut lf = LoopForest::new(&cfg, &dom);
        assert!(!lf.loops[0].has_call);
        lf.mark_calls(&[BlockId(1)]);
        assert!(lf.loops[0].has_call);
    }
}
