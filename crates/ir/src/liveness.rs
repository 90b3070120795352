//! Backward liveness analysis over virtual registers.

use crate::cfg::Cfg;
use crate::inst::{BlockId, VReg};
use crate::module::Function;

/// Dense bitset keyed by virtual-register index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// Empty set sized for `n` registers.
    pub fn new(n: usize) -> RegSet {
        RegSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Insert `v`; returns true if it was newly added.
    pub fn insert(&mut self, v: VReg) -> bool {
        let (w, b) = (v.0 as usize / 64, v.0 as usize % 64);
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !had
    }

    /// Remove `v`.
    pub fn remove(&mut self, v: VReg) {
        let (w, b) = (v.0 as usize / 64, v.0 as usize % 64);
        self.bits[w] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, v: VReg) -> bool {
        let (w, b) = (v.0 as usize / 64, v.0 as usize % 64);
        self.bits.get(w).map(|x| x & (1 << b) != 0).unwrap_or(false)
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Iterate over members in ascending order, one `trailing_zeros`
    /// per member rather than one test per bit position.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    VReg((w * 64 + b) as u32)
                })
            })
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Per-block live-in / live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Run the classic backward data-flow analysis to its least fixed
    /// point over the blocks reachable from the entry; unreachable
    /// blocks keep empty sets.
    ///
    /// The sets live in flat per-block bit rows and a worklist re-queues
    /// a block only when the live-in of one of its successors grows.
    /// It terminates because live sets only grow, and they are bounded
    /// by blocks × vregs bits. The least fixed point is unique, so the
    /// visiting order changes the work done, never the sets.
    pub fn new(f: &Function, cfg: &Cfg) -> Liveness {
        let nb = f.blocks.len();
        let nv = f.num_vregs();
        let wpr = nv.div_ceil(64);
        let row = |b: BlockId| b.0 as usize * wpr..(b.0 as usize + 1) * wpr;
        let bit = |v: VReg| (v.0 as usize / 64, 1u64 << (v.0 % 64));
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![0u64; nb * wpr];
        let mut kill = vec![0u64; nb * wpr];
        let mut uses = Vec::new();
        for &b in cfg.rpo() {
            let base = row(b).start;
            for inst in &f.blocks[b.0 as usize].insts {
                uses.clear();
                inst.uses(&mut uses);
                for &u in &uses {
                    let (w, m) = bit(u);
                    if kill[base + w] & m == 0 {
                        gen[base + w] |= m;
                    }
                }
                if let Some(d) = inst.def() {
                    let (w, m) = bit(d);
                    kill[base + w] |= m;
                }
            }
        }
        let mut live_in = vec![0u64; nb * wpr];
        let mut live_out = vec![0u64; nb * wpr];
        let mut queued = vec![false; nb];
        // A stack seeded with the reverse postorder pops blocks in
        // postorder: successors first, the fast direction here.
        let mut work: Vec<BlockId> = cfg.rpo().to_vec();
        for &b in &work {
            queued[b.0 as usize] = true;
        }
        while let Some(b) = work.pop() {
            queued[b.0 as usize] = false;
            let out = row(b);
            for &s in cfg.succs(b) {
                let succ_in = &live_in[row(s)];
                for (o, &i) in live_out[out.clone()].iter_mut().zip(succ_in) {
                    *o |= i;
                }
            }
            let mut changed = false;
            for w in out {
                let new = gen[w] | (live_out[w] & !kill[w]);
                changed |= new != live_in[w];
                live_in[w] = new;
            }
            if changed {
                for &p in cfg.preds(b) {
                    if cfg.is_reachable(p) && !queued[p.0 as usize] {
                        queued[p.0 as usize] = true;
                        work.push(p);
                    }
                }
            }
        }
        let sets = |rows: &[u64]| -> Vec<RegSet> {
            (0..nb as u32)
                .map(|b| RegSet {
                    bits: rows[row(BlockId(b))].to_vec(),
                })
                .collect()
        };
        Liveness {
            live_in: sets(&live_in),
            live_out: sets(&live_out),
        }
    }

    /// Registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.0 as usize]
    }

    /// Registers live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Cond, Inst, Operand, RegClass};
    use crate::module::Block;
    use crate::types::Ty;

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(VReg(0)));
        assert!(s.insert(VReg(129)));
        assert!(!s.insert(VReg(0)));
        assert!(s.contains(VReg(129)));
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![VReg(0), VReg(129)]);
        s.remove(VReg(0));
        assert!(!s.contains(VReg(0)));
    }

    #[test]
    fn loop_variable_is_live_around_the_loop() {
        // v0 = 0
        // L1: if v0 == 10 goto L2 else L1b
        // L1b: v0 = v0 + 1; jump L1
        // L2: ret v0
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
            ],
            vregs: vec![RegClass::Int],
            slots: vec![],
        };
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(!lv.live_in(BlockId(0)).contains(VReg(0)));
        assert!(lv.live_in(BlockId(1)).contains(VReg(0)));
        assert!(lv.live_out(BlockId(2)).contains(VReg(0)));
        assert!(lv.live_in(BlockId(3)).contains(VReg(0)));
        assert!(lv.live_out(BlockId(3)).is_empty());
    }

    #[test]
    fn dead_def_is_not_live() {
        let f = Function {
            name: "t".into(),
            ret_ty: Ty::Void,
            params: vec![],
            blocks: vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: VReg(0),
                        a: Operand::Const(1),
                    },
                    Inst::Ret(None),
                ],
            }],
            vregs: vec![RegClass::Int],
            slots: vec![],
        };
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(lv.live_in(BlockId(0)).is_empty());
    }

    #[test]
    fn use_before_def_in_block_is_upward_exposed() {
        let f = Function {
            name: "t".into(),
            ret_ty: Ty::Int,
            params: vec![(VReg(0), Ty::Int)],
            blocks: vec![
                Block {
                    insts: vec![Inst::Jump(BlockId(1))],
                },
                Block {
                    insts: vec![
                        Inst::Bin {
                            op: BinOp::Add,
                            dst: VReg(1),
                            a: Operand::Reg(VReg(0)),
                            b: Operand::Const(1),
                        },
                        Inst::Ret(Some(Operand::Reg(VReg(1)))),
                    ],
                },
            ],
            vregs: vec![RegClass::Int, RegClass::Int],
            slots: vec![],
        };
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(lv.live_in(BlockId(1)).contains(VReg(0)));
        assert!(!lv.live_in(BlockId(1)).contains(VReg(1)));
        assert!(lv.live_out(BlockId(0)).contains(VReg(0)));
    }
}
