//! Static branch-cost model over an assembled [`Program`].
//!
//! Mirrors the emulator's transfer accounting (`br-emu`) and the
//! analytic delay tables (`br-pipeline::delays`) without running the
//! program: given per-word retired counts from a profiling run, it
//! reconstructs the cycle decomposition purely from the machine code.
//!
//! Two guarantees, asserted by the property tests in this crate and the
//! `br-tv` CI gate:
//!
//! * **Baseline (delayed-branch) machine: exact.** Every executed `Bcc`
//!   is a conditional transfer and every executed `Ba`/`Call`/`Jmpl` an
//!   unconditional one, so the static total equals
//!   `delays::cycles(Delayed, m, stages).total` whenever the counts
//!   came from the same run as `m`.
//! * **Branch-register machine: a sound upper bound.** Every executed
//!   word with `br != 0` is a transfer. The static target-distance for
//!   a transfer is computed by scanning backwards through the
//!   straight-line window (bounded by block marks and preceding
//!   transfers) for the defining instruction of the carried branch
//!   register; when the definition lies outside the window the distance
//!   is clamped to the window length. Both cases produce a distance
//!   that is a *lower bound* on the dynamic prefetch distance, and
//!   [`prefetch_stall`] is non-increasing in distance, so static stalls
//!   dominate dynamic stalls. Not-taken conditional carriers never
//!   stall dynamically (the fall-through address is always prefetched)
//!   but are charged the taken-path distance here — again only an
//!   overestimate.

use std::collections::HashMap;

use br_icache::CacheConfig;
use br_isa::{abi, BReg, MInst, Machine, Program, TextWord};
use br_pipeline::delays::{cond_delay, prefetch_stall, uncond_delay, BranchScheme, CycleEstimate};

/// Static cycle estimate attributed to one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCost {
    /// Owning function (block-mark attribution; the startup stub shows
    /// up under `_start`).
    pub func: String,
    /// Retired instructions, structural delays, and prefetch stalls
    /// charged to this function's words.
    pub estimate: CycleEstimate,
}

/// Whole-program static cost report for one pipeline depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// Which machine the program was compiled for.
    pub machine: Machine,
    /// Pipeline depth the delays were evaluated at.
    pub stages: u32,
    /// Program-wide totals.
    pub total: CycleEstimate,
    /// Per-function breakdown, in text order.
    pub funcs: Vec<FuncCost>,
}

fn zero_estimate() -> CycleEstimate {
    CycleEstimate {
        instructions: 0,
        transfer_stalls: 0,
        prefetch_stalls: 0,
        total: 0,
    }
}

fn add(into: &mut CycleEstimate, insts: u64, structural: u64, prefetch: u64) {
    into.instructions += insts;
    into.transfer_stalls += structural;
    into.prefetch_stalls += prefetch;
    into.total += insts + structural + prefetch;
}

/// Decoded instruction at word `w`, if it is one.
fn inst_at(prog: &Program, w: usize) -> Option<MInst> {
    match prog.text.get(w) {
        Some(TextWord::Inst(i)) => Some(*i),
        _ => None,
    }
}

/// Whether `inst` ends a straight-line window on its machine (any word
/// after it may be reached by a control transfer rather than
/// fall-through).
fn is_control(machine: Machine, inst: MInst) -> bool {
    match machine {
        Machine::Baseline => inst.is_baseline_transfer(),
        Machine::BranchReg => inst.br() != 0,
    }
}

/// Per-word "a transfer may land here" flags: block marks, the text
/// start, and the words following a control instruction (two words on
/// the baseline machine, covering the delay slot and the `Call`/`Jmpl`
/// return address). Over-approximating entries only weakens the bounds
/// in the sound direction.
fn entry_flags(prog: &Program) -> Vec<bool> {
    let mut entry = vec![false; prog.text.len()];
    if !entry.is_empty() {
        entry[0] = true;
    }
    for b in &prog.blocks {
        if let Some(e) = entry.get_mut(b.word as usize) {
            *e = true;
        }
    }
    let reach = match prog.machine {
        Machine::Baseline => 2usize,
        Machine::BranchReg => 1usize,
    };
    for w in 0..prog.text.len() {
        let Some(inst) = inst_at(prog, w) else {
            continue;
        };
        if is_control(prog.machine, inst) {
            for d in 1..=reach {
                if let Some(e) = entry.get_mut(w + d) {
                    *e = true;
                }
            }
        }
    }
    entry
}

/// Whether `inst` writes branch register `b` (explicit writes only; the
/// implicit `b[7] = seq` after a transfer is modelled by the window
/// boundary in [`def_distance`]).
fn defines_breg(inst: MInst, b: BReg) -> bool {
    match inst {
        MInst::Bcalc { bd, .. }
        | MInst::BMovB { bd, .. }
        | MInst::BMovR { bd, .. }
        | MInst::BLoad { bd, .. } => bd == b,
        MInst::CmpBr { .. } | MInst::FCmpBr { .. } => b == BReg(7),
        _ => false,
    }
}

/// Distance from the transfer at `w` back to the instruction that
/// defined branch register `target`, scanning from `scan_from`
/// backwards. Stops at window boundaries (entry words), yielding the
/// clamped window-length distance — a lower bound on the dynamic
/// prefetch distance in every case:
///
/// * definition found at word `a`: straight-line execution retires
///   exactly `w - a` instructions between them (exact);
/// * boundary hit at entry word `e`: the dynamic definition (or the
///   implicit `b[7] = seq` write at the preceding transfer) retired at
///   least `(w - e) + 1` instructions ago.
fn def_distance(
    prog: &Program,
    entry: &[bool],
    w: usize,
    scan_from: usize,
    target: BReg,
) -> (u64, Option<usize>) {
    let mut a = scan_from;
    loop {
        if let Some(inst) = inst_at(prog, a) {
            if defines_breg(inst, target) {
                return ((w - a) as u64, Some(a));
            }
        }
        if entry[a] || a == 0 {
            return ((w - a) as u64 + 1, None);
        }
        a -= 1;
    }
}

/// Classification of one BR-machine transfer word.
struct Transfer {
    /// Counts toward `cond_transfers` (pays the structural `N-3`
    /// conditional delay and the reduced prefetch shortfall).
    cond: bool,
    /// Static prefetch distance (lower bound on the dynamic one).
    dist: u64,
}

/// Classify the transfer carried by `inst` at word `w`. Conditional iff
/// the carried register is `b7` and its last explicit writer inside the
/// straight-line window is a compare-with-assignment — exactly when the
/// emulator's `from_cond` flag would be set. For conditional transfers
/// the distance chases the compare's *source* register `bt`, matching
/// the emulator's assign-time inheritance on the taken path.
fn classify_transfer(prog: &Program, entry: &[bool], w: usize, inst: MInst) -> Transfer {
    let br = inst.br();
    debug_assert_ne!(br, 0);
    let fused = matches!(inst, MInst::CmpBr { .. } | MInst::FCmpBr { .. });
    if fused {
        // The compare itself transfers; on the taken path b7 inherits
        // the assign time of bt's definition.
        let bt = match inst {
            MInst::CmpBr { bt, .. } | MInst::FCmpBr { bt, .. } => bt,
            _ => unreachable!(),
        };
        let dist = if w == 0 || entry[w] {
            1
        } else {
            def_distance(prog, entry, w, w - 1, bt).0
        };
        return Transfer { cond: true, dist };
    }
    if entry[w] || w == 0 {
        // Directly post-transfer (or a window head): the carried
        // register was last written outside the window; for b7 that is
        // the implicit sequential-address write (never from a compare).
        return Transfer {
            cond: false,
            dist: 1,
        };
    }
    if br != 7 {
        let (dist, _) = def_distance(prog, entry, w, w - 1, BReg(br));
        return Transfer { cond: false, dist };
    }
    // b7 carrier: find b7's last in-window writer. A compare makes the
    // transfer conditional (continue chasing bt for the distance); any
    // other writer, or none, leaves it unconditional.
    let (dist, def) = def_distance(prog, entry, w, w - 1, BReg(7));
    match def.and_then(|a| inst_at(prog, a)) {
        Some(MInst::CmpBr { bt, .. }) | Some(MInst::FCmpBr { bt, .. }) => {
            let a = def.unwrap();
            let dist = if a == 0 || entry[a] {
                (w - a) as u64 + 1
            } else {
                let (d_src, _) = def_distance(prog, entry, w, a - 1, bt);
                d_src
            };
            Transfer { cond: true, dist }
        }
        _ => Transfer { cond: false, dist },
    }
}

/// Map each text word to the function that owns it (index into the
/// returned name list), via the block-mark table.
fn func_of_word(prog: &Program) -> (Vec<String>, Vec<usize>) {
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut of_word = vec![0usize; prog.text.len()];
    let mut cur = 0usize;
    let mut marks = prog.blocks.iter().peekable();
    for (w, slot) in of_word.iter_mut().enumerate() {
        while let Some(b) = marks.peek() {
            if b.word as usize > w {
                break;
            }
            cur = *index.entry(&b.func).or_insert_with(|| {
                names.push(b.func.clone());
                names.len() - 1
            });
            marks.next();
        }
        *slot = cur;
    }
    if names.is_empty() {
        names.push("_start".to_string());
    }
    (names, of_word)
}

/// Compute the static cycle estimate for `prog` at pipeline depth
/// `stages`, weighting each text word by its retired count.
///
/// `counts` must be parallel to `prog.text` (one entry per word), as
/// produced by the observability layer's per-word profile.
pub fn static_cycles(prog: &Program, counts: &[u64], stages: u32) -> CostReport {
    assert_eq!(
        counts.len(),
        prog.text.len(),
        "retired-count vector must be parallel to the text segment"
    );
    let (names, of_word) = func_of_word(prog);
    let mut per_func = vec![zero_estimate(); names.len()];
    let entry = entry_flags(prog);

    for w in 0..prog.text.len() {
        let n = counts[w];
        if n == 0 {
            continue;
        }
        let Some(inst) = inst_at(prog, w) else {
            continue;
        };
        let (structural, prefetch) = match prog.machine {
            Machine::Baseline => {
                let s = match inst {
                    MInst::Bcc { .. } => cond_delay(BranchScheme::Delayed, stages) as u64,
                    MInst::Ba { .. } | MInst::Call { .. } | MInst::Jmpl { .. } => {
                        uncond_delay(BranchScheme::Delayed, stages) as u64
                    }
                    _ => 0,
                };
                (n * s, 0)
            }
            Machine::BranchReg => {
                if inst.br() == 0 {
                    (0, 0)
                } else {
                    let t = classify_transfer(prog, &entry, w, inst);
                    let s = if t.cond {
                        cond_delay(BranchScheme::BranchRegisters, stages) as u64
                    } else {
                        0
                    };
                    (n * s, n * prefetch_stall(stages, t.dist, t.cond))
                }
            }
        };
        add(&mut per_func[of_word[w]], n, structural, prefetch);
    }

    let mut total = zero_estimate();
    for f in &per_func {
        add(
            &mut total,
            f.instructions,
            f.transfer_stalls,
            f.prefetch_stalls,
        );
    }
    let funcs = names
        .into_iter()
        .zip(per_func)
        .map(|(func, estimate)| FuncCost { func, estimate })
        .collect();
    CostReport {
        machine: prog.machine,
        stages,
        total,
        funcs,
    }
}

/// Conservative static bound on instruction-cache misses (prefetching
/// disabled). Every miss of a line is preceded by an entry into that
/// line from outside — sequentially through its first word, or by a
/// transfer landing on one of its entry words — so the per-line miss
/// count is bounded by the sum of those entry counts. Sets whose
/// executed lines all fit within the associativity never evict, so each
/// such line misses exactly once (cold).
///
/// The bound only holds against [`br_icache::ICacheSim`] runs with
/// `prefetch` off: the prefetcher changes *when* lines are brought in
/// (and can pollute conflict sets), so its miss stream is not
/// entry-bounded.
pub fn icache_miss_bound(prog: &Program, counts: &[u64], cfg: &CacheConfig) -> u64 {
    assert_eq!(counts.len(), prog.text.len());
    let entry = entry_flags(prog);
    // set index -> line base address -> (entry-count bound for the line)
    let mut sets: HashMap<usize, HashMap<u32, u64>> = HashMap::new();
    let lw = cfg.line_words;
    let mut w = 0usize;
    while w < prog.text.len() {
        let line_end = (w / lw * lw + lw).min(prog.text.len());
        let executed = counts[w..line_end].iter().any(|&c| c > 0);
        if executed {
            let addr = abi::TEXT_BASE + (w / lw * lw * 4) as u32;
            let (set, _) = cfg.set_and_tag(addr);
            // Entries into the line: its first word (sequential flow and
            // direct landings) plus every other landing word inside it.
            let first = w / lw * lw;
            let mut entries = counts[first];
            for x in (first + 1)..line_end {
                if entry[x] {
                    entries += counts[x];
                }
            }
            // A line that executes at all is entered at least once.
            sets.entry(set)
                .or_default()
                .insert(cfg.line_addr(addr), entries.max(1));
        }
        w = line_end;
    }
    let mut bound = 0u64;
    for lines in sets.values() {
        if lines.len() <= cfg.assoc {
            bound += lines.len() as u64;
        } else {
            bound += lines.values().sum::<u64>();
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(machine: Machine, insts: Vec<MInst>) -> Program {
        let code = insts
            .iter()
            .map(|&i| br_isa::encode(machine, i).unwrap())
            .collect();
        let text = insts.into_iter().map(TextWord::Inst).collect::<Vec<_>>();
        Program {
            machine,
            code,
            text,
            data: vec![],
            entry: abi::TEXT_BASE,
            symbols: HashMap::new(),
            blocks: vec![br_isa::BlockMark {
                word: 0,
                func: "f".to_string(),
                label: None,
            }],
        }
    }

    #[test]
    fn baseline_counts_are_exact_per_class() {
        use br_isa::{Cc, Reg, Src2};
        // cmp; bcc; slot(nop=add r0); halt
        let p = prog(
            Machine::Baseline,
            vec![
                MInst::Cmp {
                    rs1: Reg(1),
                    src2: Src2::Imm(0),
                },
                MInst::Bcc {
                    cc: Cc::Eq,
                    float: false,
                    disp: 2,
                },
                MInst::Alu {
                    op: br_isa::AluOp::Add,
                    rd: Reg(0),
                    rs1: Reg(0),
                    src2: Src2::Imm(0),
                    br: 0,
                },
                MInst::Halt,
            ],
        );
        let counts = vec![5, 5, 5, 1];
        let r = static_cycles(&p, &counts, 5);
        assert_eq!(r.total.instructions, 16);
        // 5 executed Bcc at cond_delay(Delayed, 5) = 3 cycles each.
        assert_eq!(r.total.transfer_stalls, 15);
        assert_eq!(r.total.prefetch_stalls, 0);
        assert_eq!(r.total.total, 31);
        assert_eq!(r.funcs.len(), 1);
        assert_eq!(r.funcs[0].func, "f");
    }

    #[test]
    fn br_conditional_chases_the_compare_source() {
        use br_isa::{Cc, Reg, Src2};
        // bcalc b1, +3; nop; cmpbr b1; nop{br=7}; halt
        let p = prog(
            Machine::BranchReg,
            vec![
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 3,
                    br: 0,
                },
                MInst::Nop { br: 0 },
                MInst::CmpBr {
                    cc: Cc::Eq,
                    bt: BReg(1),
                    rs1: Reg(1),
                    src2: Src2::Imm(0),
                    br: 0,
                },
                MInst::Nop { br: 7 },
                MInst::Halt,
            ],
        );
        let counts = vec![2, 2, 2, 2, 1];
        // Carrier at word 3; compare at word 2; bt defined at word 0:
        // distance 3. At 6 stages: required 5, shortfall 2, minus the
        // structural cond delay 3 -> 0 extra stall, structural 2*3.
        let r6 = static_cycles(&p, &counts, 6);
        assert_eq!(r6.total.transfer_stalls, 6);
        assert_eq!(r6.total.prefetch_stalls, 0);
        // At 8 stages: required 7, shortfall 4, minus structural 5 -> 0.
        let r8 = static_cycles(&p, &counts, 8);
        assert_eq!(r8.total.prefetch_stalls, 0);
        assert_eq!(r8.total.transfer_stalls, 10);
    }

    #[test]
    fn br_uncond_distance_and_window_clamp() {
        // bcalc b1,+2; nop{br=1}; halt  — distance 1 at the carrier.
        let p = prog(
            Machine::BranchReg,
            vec![
                MInst::Bcalc {
                    bd: BReg(1),
                    disp: 2,
                    br: 0,
                },
                MInst::Nop { br: 1 },
                MInst::Halt,
            ],
        );
        let counts = vec![3, 3, 1];
        // 4 stages: required 3, d=1 -> shortfall 2, uncond pays it all.
        let r = static_cycles(&p, &counts, 4);
        assert_eq!(r.total.transfer_stalls, 0);
        assert_eq!(r.total.prefetch_stalls, 6);
    }

    #[test]
    fn post_transfer_carrier_is_unconditional_distance_one() {
        // nop{br=1} at word 0 is a window head: carried register defined
        // outside the window, clamped distance 1, unconditional.
        let p = prog(Machine::BranchReg, vec![MInst::Nop { br: 7 }, MInst::Halt]);
        let counts = vec![4, 1];
        let r = static_cycles(&p, &counts, 8);
        // required 7, d=1, shortfall 6, uncond: 4 * 6.
        assert_eq!(r.total.transfer_stalls, 0);
        assert_eq!(r.total.prefetch_stalls, 24);
    }

    #[test]
    fn icache_bound_cold_when_fits() {
        let p = prog(Machine::BranchReg, vec![MInst::Nop { br: 0 }, MInst::Halt]);
        let counts = vec![10, 1];
        let cfg = CacheConfig {
            sets: 4,
            assoc: 2,
            line_words: 4,
            miss_penalty: 10,
            prefetch_queue: 0,
            prefetch: false,
        };
        assert_eq!(icache_miss_bound(&p, &counts, &cfg), 1);
    }
}
