//! The joint equivalence engine.
//!
//! Both sides' segments are executed independently ([`super::exec`]);
//! this module couples them: it aligns segment exits across sides by
//! their *decision keys* (canonicalized branch guards plus arrival
//! point), merges arriving states into each anchor's joint in-state by
//! partition refinement, iterates to a fixpoint, and finally checks the
//! paired return states — same return value, same observable store
//! chain, callee-saved state restored.
//!
//! Soundness rests on the shared expression arena: cross-side equality
//! is [`ExprId`] equality, and the join introduces one fresh
//! [`Expr::Class`] symbol per *pair* of (current, incoming) values, so
//! two locations stay provably equal after a join exactly when they
//! were pairwise equal on every path in.

use std::collections::{BTreeMap, HashMap};

use br_isa::Cc;

use super::exec::{seed_entry, Arrival, Ctx, Exec, Exit, Guard, RetKind, SideState};
use super::expr::{Arena, Expr, ExprId, LocKind};

/// Fixpoint round cap; a function that has not converged by then is
/// reported unproven.
pub const MAX_ROUNDS: u32 = 50;

/// One engine finding: `refuted` distinguishes a demonstrated
/// inequivalence from an incompleteness of the prover.
#[derive(Debug, Clone)]
pub struct EngineFinding {
    /// True when the two sides provably disagree; false when the engine
    /// merely could not complete the proof.
    pub refuted: bool,
    /// Human-readable description.
    pub detail: String,
}

/// Outcome of validating one function pair.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Findings; empty means proven equivalent.
    pub findings: Vec<EngineFinding>,
    /// Fixpoint rounds used.
    pub rounds: u32,
}

/// Joint state of the two sides at one anchor.
#[derive(Clone)]
struct Joint {
    a: SideState,
    b: SideState,
}

/// A location in the joint state, for the partition-refinement meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Space {
    Reg(u8),
    FReg(u8),
    BReg(u8),
    Latch(u8),
    Chain,
    Priv(i32),
}

type Loc = (u8, Space);

fn encode(l: Loc) -> u64 {
    let (side, sp) = l;
    let (k, v): (u64, u64) = match sp {
        Space::Reg(r) => (0, r as u64),
        Space::FReg(r) => (1, r as u64),
        Space::BReg(r) => (2, r as u64),
        Space::Latch(r) => (3, r as u64),
        Space::Chain => (4, 0),
        Space::Priv(z) => (5, z as u32 as u64),
    };
    ((side as u64) << 40) | (k << 32) | v
}

fn side_state(j: &Joint, side: u8) -> &SideState {
    if side == 0 {
        &j.a
    } else {
        &j.b
    }
}

fn side_state_mut(j: &mut Joint, side: u8) -> &mut SideState {
    if side == 0 {
        &mut j.a
    } else {
        &mut j.b
    }
}

fn get_loc(j: &Joint, l: Loc) -> Option<ExprId> {
    let s = side_state(j, l.0);
    Some(match l.1 {
        Space::Reg(r) => s.regs[r as usize],
        Space::FReg(r) => s.fregs[r as usize],
        Space::BReg(r) => s.bregs[r as usize],
        Space::Latch(r) => {
            if r < 2 {
                s.cc[r as usize]
            } else {
                s.fcc[(r - 2) as usize]
            }
        }
        Space::Chain => s.chain,
        Space::Priv(z) => return s.private.get(&z).copied(),
    })
}

fn set_loc(j: &mut Joint, l: Loc, v: ExprId) {
    let s = side_state_mut(j, l.0);
    match l.1 {
        Space::Reg(r) => s.regs[r as usize] = v,
        Space::FReg(r) => s.fregs[r as usize] = v,
        Space::BReg(r) => s.bregs[r as usize] = v,
        Space::Latch(r) => {
            if r < 2 {
                s.cc[r as usize] = v
            } else {
                s.fcc[(r - 2) as usize] = v
            }
        }
        Space::Chain => s.chain = v,
        Space::Priv(z) => {
            s.private.insert(z, v);
        }
    }
}

/// All locations of a joint state, in a fixed deterministic order.
fn locations(j: &Joint) -> Vec<Loc> {
    let mut out = Vec::new();
    for side in 0..2u8 {
        for r in 0..32 {
            out.push((side, Space::Reg(r)));
        }
        for r in 0..32 {
            out.push((side, Space::FReg(r)));
        }
        for r in 0..8 {
            out.push((side, Space::BReg(r)));
        }
        for r in 0..4 {
            out.push((side, Space::Latch(r)));
        }
        out.push((side, Space::Chain));
        for &z in side_state(j, side).private.keys() {
            out.push((side, Space::Priv(z)));
        }
    }
    out
}

/// Merge `inc` into `cur` at `anchor` by partition refinement: private
/// keys absent from either input are dropped; locations whose values
/// differ are grouped by their `(current, incoming)` value pair and
/// every group gets one fresh class symbol, keyed by its smallest
/// member, so pairwise-equal locations stay equal through the join.
fn meet(arena: &mut Arena, anchor: u32, cur: &mut Joint, inc: &Joint) -> bool {
    let mut changed = false;
    for side in 0..2u8 {
        let inc_keys: Vec<i32> = side_state(inc, side).private.keys().copied().collect();
        let s = side_state_mut(cur, side);
        let before = s.private.len();
        s.private.retain(|z, _| inc_keys.contains(z));
        changed |= s.private.len() != before;
    }
    let locs = locations(cur);
    let mut diffs: Vec<(Loc, ExprId, ExprId)> = Vec::new();
    for l in locs {
        let a = get_loc(cur, l).expect("cur location present");
        let Some(b) = get_loc(inc, l) else {
            // Key present in cur but not inc: already dropped above.
            continue;
        };
        if a != b {
            diffs.push((l, a, b));
        }
    }
    if diffs.is_empty() {
        return changed;
    }
    let mut groups: HashMap<(ExprId, ExprId), u64> = HashMap::new();
    for &(l, a, b) in &diffs {
        let e = encode(l);
        groups
            .entry((a, b))
            .and_modify(|m| *m = (*m).min(e))
            .or_insert(e);
    }
    for (l, a, b) in diffs {
        let rep = groups[&(a, b)];
        let v = arena.mk(Expr::Class { anchor, rep });
        if get_loc(cur, l) != Some(v) {
            set_loc(cur, l, v);
            changed = true;
        }
    }
    changed
}

/// A canonicalized guard, comparable across sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CanonGuard {
    code: u32,
    float: bool,
    a: ExprId,
    b: ExprId,
}

/// Canonicalize one (guard, decision): integer guards normalize both
/// the condition (negation absorbed into the decision) and operand
/// order; float guards only swap operands (`a < b  ≡  b > a` holds for
/// NaN too, but negation does not), so `Eq`/`Ne` swap symmetrically and
/// `Gt`/`Ge` become swapped `Lt`/`Le`.
fn canon(g: Guard, dec: bool) -> (CanonGuard, bool) {
    let Guard {
        cc,
        float,
        lhs,
        rhs,
    } = g;
    if float {
        let (cc, a, b) = match cc {
            Cc::Gt => (Cc::Lt, rhs, lhs),
            Cc::Ge => (Cc::Le, rhs, lhs),
            Cc::Eq | Cc::Ne if lhs > rhs => (cc, rhs, lhs),
            _ => (cc, lhs, rhs),
        };
        return (
            CanonGuard {
                code: cc.code(),
                float,
                a,
                b,
            },
            dec,
        );
    }
    let (mut cc, mut dec) = match cc {
        Cc::Ne => (Cc::Eq, !dec),
        Cc::Ge => (Cc::Lt, !dec),
        Cc::Gt => (Cc::Le, !dec),
        c => (c, dec),
    };
    let (a, b) = if lhs > rhs {
        match cc {
            Cc::Eq => {}
            // a < b  ≡  !(b <= a);  a <= b  ≡  !(b < a)
            Cc::Lt => {
                cc = Cc::Le;
                dec = !dec;
            }
            Cc::Le => {
                cc = Cc::Lt;
                dec = !dec;
            }
            _ => unreachable!("normalized above"),
        }
        (rhs, lhs)
    } else {
        (lhs, rhs)
    };
    (
        CanonGuard {
            code: cc.code(),
            float,
            a,
            b,
        },
        dec,
    )
}

type ArmKey = (Vec<(CanonGuard, bool)>, Arrival);

/// One cross-side-paired segment arm.
struct Paired {
    arrival: Arrival,
    a: SideState,
    b: SideState,
}

/// Pair the two sides' exits by decision key. Every key must appear on
/// both sides with exactly one distinct state; otherwise the sides'
/// control structure diverged beyond what the engine can align.
fn pair_exits(ea: Vec<Exit>, eb: Vec<Exit>, at: &str) -> Result<Vec<Paired>, String> {
    fn index(
        exits: Vec<Exit>,
        side: &str,
        at: &str,
    ) -> Result<BTreeMap<ArmKey, SideState>, String> {
        let mut m: BTreeMap<ArmKey, SideState> = BTreeMap::new();
        for e in exits {
            let key: ArmKey = (
                e.guards.iter().map(|&(g, d)| canon(g, d)).collect(),
                e.arrival,
            );
            match m.get(&key) {
                None => {
                    m.insert(key, e.state);
                }
                Some(prev) if *prev == e.state => {}
                Some(_) => {
                    return Err(format!(
                        "{at}: {side} side reaches {:?} twice with different states",
                        key.1
                    ));
                }
            }
        }
        Ok(m)
    }
    let ma = index(ea, "baseline", at)?;
    let mut mb = index(eb, "br", at)?;
    let mut out = Vec::new();
    for (key, sa) in ma {
        let Some(sb) = mb.remove(&key) else {
            return Err(format!(
                "{at}: baseline arm {:?} with {} guards has no BR counterpart",
                key.1,
                key.0.len()
            ));
        };
        out.push(Paired {
            arrival: key.1,
            a: sa,
            b: sb,
        });
    }
    if let Some((key, _)) = mb.into_iter().next() {
        return Err(format!(
            "{at}: BR arm {:?} with {} guards has no baseline counterpart",
            key.1,
            key.0.len()
        ));
    }
    Ok(out)
}

/// Best-effort refutation of a value or chain mismatch: returns true
/// only when the two expressions provably differ (unequal constants, or
/// parallel store chains writing different constants to the same
/// address).
/// View `id` as `base + k`, splitting off a constant addend.
fn base_off(arena: &Arena, id: ExprId) -> (ExprId, i32) {
    if let Expr::Alu {
        op: br_isa::AluOp::Add,
        a,
        b,
    } = arena.get(id)
    {
        if let Expr::Const(k) = arena.get(*b) {
            return (*a, *k);
        }
    }
    (id, 0)
}

fn refute(arena: &Arena, a: ExprId, b: ExprId) -> bool {
    // `x + k1` vs `x + k2` with k1 != k2 differ for every x (the
    // difference is a nonzero constant mod 2^32).
    let (ba, ka) = base_off(arena, a);
    let (bb, kb) = base_off(arena, b);
    if ba == bb && ka != kb {
        return true;
    }
    match (arena.get(a), arena.get(b)) {
        (Expr::Const(x), Expr::Const(y)) => x != y,
        (
            Expr::Store {
                mem: ma,
                addr: aa,
                val: va,
                w: wa,
            },
            Expr::Store {
                mem: mb,
                addr: ab,
                val: vb,
                w: wb,
            },
        ) => {
            if aa == ab && wa == wb {
                if va == vb {
                    return refute(arena, *ma, *mb);
                }
                if let (Expr::Const(x), Expr::Const(y)) = (arena.get(*va), arena.get(*vb)) {
                    return x != y && *ma == *mb;
                }
            }
            false
        }
        _ => false,
    }
}

/// Validate one function pair to a fixpoint and check its returns.
///
/// `cxa` is the baseline side, `cxb` the branch-register side; `params`
/// and `ret` come from the IR signature. The outcome's findings are
/// empty iff the two emissions are proven store- and return-equivalent.
pub fn validate_func(
    arena: &mut Arena,
    cxa: &Ctx<'_>,
    cxb: &Ctx<'_>,
    params: &[bool],
    ret: RetKind,
) -> EngineOutcome {
    let mut findings = Vec::new();
    if cxa.code.anchors != cxb.code.anchors {
        findings.push(EngineFinding {
            refuted: false,
            detail: format!(
                "block label sets differ: baseline {:?} vs br {:?}",
                cxa.code.anchors, cxb.code.anchors
            ),
        });
        return EngineOutcome {
            findings,
            rounds: 0,
        };
    }
    let entry_a = seed_entry(arena, cxa, params);
    let entry_b = seed_entry(arena, cxb, params);
    let mut in_state: BTreeMap<u32, Joint> = BTreeMap::new();
    let mut rounds = 0u32;
    let mut returns: Vec<Paired> = Vec::new();
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            findings.push(EngineFinding {
                refuted: false,
                detail: format!("fixpoint did not converge in {MAX_ROUNDS} rounds"),
            });
            return EngineOutcome {
                findings,
                rounds: rounds - 1,
            };
        }
        let mut changed = false;
        returns.clear();
        // Entry segment plus every anchor that has an in-state, in
        // deterministic order. Anchors discovered mid-round run next
        // round.
        let mut work: Vec<Option<u32>> = vec![None];
        work.extend(in_state.keys().copied().map(Some));
        for seg in work {
            let (label, sa, sb) = match seg {
                None => ("entry".to_string(), entry_a.clone(), entry_b.clone()),
                Some(l) => {
                    let j = in_state.get(&l).expect("worklist anchor has state");
                    (format!("block L{l}"), j.a.clone(), j.b.clone())
                }
            };
            let run = |cx: &Ctx<'_>, arena: &mut Arena, st: SideState| match seg {
                None => Exec::new(cx, arena).run_entry(st),
                Some(l) => Exec::new(cx, arena).run_anchor(l, st),
            };
            let ea = match run(cxa, arena, sa) {
                Ok(e) => e,
                Err(s) => {
                    findings.push(EngineFinding {
                        refuted: false,
                        detail: format!("{label}: baseline stuck at word {}: {}", s.word, s.why),
                    });
                    return EngineOutcome { findings, rounds };
                }
            };
            let eb = match run(cxb, arena, sb) {
                Ok(e) => e,
                Err(s) => {
                    findings.push(EngineFinding {
                        refuted: false,
                        detail: format!("{label}: br stuck at word {}: {}", s.word, s.why),
                    });
                    return EngineOutcome { findings, rounds };
                }
            };
            let pairs = match pair_exits(ea, eb, &label) {
                Ok(p) => p,
                Err(e) => {
                    findings.push(EngineFinding {
                        refuted: false,
                        detail: e,
                    });
                    return EngineOutcome { findings, rounds };
                }
            };
            for p in pairs {
                match p.arrival {
                    Arrival::Return => returns.push(p),
                    Arrival::Anchor(d) => match in_state.get_mut(&d) {
                        None => {
                            in_state.insert(d, Joint { a: p.a, b: p.b });
                            changed = true;
                        }
                        Some(cur) => {
                            let inc = Joint { a: p.a, b: p.b };
                            changed |= meet(arena, d, cur, &inc);
                        }
                    },
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Converged: check the final round's return states.
    for (i, p) in returns.iter().enumerate() {
        check_return(arena, cxa, cxb, ret, i, p, &mut findings);
    }
    EngineOutcome { findings, rounds }
}

/// Check one paired return: value, observable chain, and each side's
/// ABI contract (sp restored, callee-saved registers preserved).
fn check_return(
    arena: &mut Arena,
    cxa: &Ctx<'_>,
    cxb: &Ctx<'_>,
    ret: RetKind,
    i: usize,
    p: &Paired,
    findings: &mut Vec<EngineFinding>,
) {
    match ret {
        RetKind::Void => {}
        RetKind::Int => {
            let va = p.a.regs[cxa.target.int_ret().0 as usize];
            let vb = p.b.regs[cxb.target.int_ret().0 as usize];
            if va != vb {
                findings.push(EngineFinding {
                    refuted: refute(arena, va, vb),
                    detail: format!("return #{i}: return values differ"),
                });
            }
        }
        RetKind::Float => {
            let va = p.a.fregs[cxa.target.float_ret() as usize];
            let vb = p.b.fregs[cxb.target.float_ret() as usize];
            if va != vb {
                findings.push(EngineFinding {
                    refuted: refute(arena, va, vb),
                    detail: format!("return #{i}: float return values differ"),
                });
            }
        }
    }
    if p.a.chain != p.b.chain {
        findings.push(EngineFinding {
            refuted: refute(arena, p.a.chain, p.b.chain),
            detail: format!("return #{i}: observable store chains differ"),
        });
    }
    for (cx, st) in [(cxa, &p.a), (cxb, &p.b)] {
        let side = cx.side;
        let sp0 = arena.mk(Expr::SpRel { side, off: 0 });
        if st.regs[cx.target.sp.0 as usize] != sp0 {
            findings.push(EngineFinding {
                refuted: false,
                detail: format!(
                    "return #{i}: {} side does not restore the stack pointer",
                    side.tag()
                ),
            });
        }
        for r in &cx.target.int_callee {
            let want = arena.mk(Expr::Entry {
                side,
                kind: LocKind::Reg,
                loc: r.0 as u32,
            });
            if st.regs[r.0 as usize] != want {
                findings.push(EngineFinding {
                    refuted: false,
                    detail: format!(
                        "return #{i}: {} side clobbers callee-saved r{}",
                        side.tag(),
                        r.0
                    ),
                });
            }
        }
        for &f in &cx.target.float_callee {
            let want = arena.mk(Expr::Entry {
                side,
                kind: LocKind::FReg,
                loc: f as u32,
            });
            if st.fregs[f as usize] != want {
                findings.push(EngineFinding {
                    refuted: false,
                    detail: format!(
                        "return #{i}: {} side clobbers callee-saved f{}",
                        side.tag(),
                        f
                    ),
                });
            }
        }
        for &b in cx.callee_bregs {
            let want = arena.mk(Expr::Entry {
                side,
                kind: LocKind::BReg,
                loc: b as u32,
            });
            if st.bregs[b as usize] != want {
                findings.push(EngineFinding {
                    refuted: false,
                    detail: format!(
                        "return #{i}: {} side clobbers callee-saved b{}",
                        side.tag(),
                        b
                    ),
                });
            }
        }
    }
}
