//! RV32 ingest torture: a seeded RV32I instruction-stream generator plus
//! the *third* differential oracle the ingest path makes possible —
//!
//! 1. the in-crate RV32I reference interpreter (`br_ingest::interp`),
//! 2. the translated program on the baseline machine,
//! 3. the translated program on the branch-register machine,
//!
//! cross-checked on exit value, final guest memory (all 16 K words), and
//! the guest store-event stream (machine addresses normalised by the
//! `mem` symbol so all three streams are guest-relative).
//!
//! Generated programs are correct by construction and always terminate:
//! loops are counted down in reserved registers (`x29`/`x30`) the body
//! never touches, branches inside a body only jump forward, calls go to
//! straight-line leaves that return through `x1`, and every *wild* `jalr`
//! is deliberately steered to a trapping target (misaligned or far out of
//! text) so it exercises the dispatcher's trap edges deterministically.

use crate::oracle::{self, Divergence};
use br_ingest::rv32::asm::*;
use br_ingest::rv32::{encode, AluOp, BrCond, Label, MemW, Rv32Builder};
use br_ingest::translate::MEM_SYMBOL;
use br_ingest::{interp, translate, Rv32Program};
use br_isa::Machine;
use br_workloads::rng::Rng64;

/// Everything the three RV32 executions agreed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rv32Agreement {
    /// The common exit value.
    pub exit: i32,
    /// Reference-interpreter RV32 instructions retired.
    pub ref_steps: u64,
    /// Dynamic machine instructions, baseline.
    pub base_instructions: u64,
    /// Dynamic machine instructions, branch-register.
    pub br_instructions: u64,
    /// Guest store events (identical across all three by construction
    /// once the oracle passes).
    pub guest_stores: usize,
}

/// Machine fuel per reference step: one RV32 instruction expands to a
/// bounded handful of machine instructions (worst case the `slt` diamond
/// plus dispatch), so this leaves generous headroom without letting a
/// translator bug hang the harness.
const MACHINE_FUEL_FACTOR: u64 = 64;

/// Run the full three-way differential check on one RV32 program.
///
/// `fuel` bounds the reference interpreter in RV32 steps; the machine
/// runs get `fuel * MACHINE_FUEL_FACTOR` machine instructions.
pub fn check_rv32(
    prog: &Rv32Program,
    fuel: u64,
    verify: bool,
) -> Result<Rv32Agreement, Divergence> {
    let module = translate(prog).map_err(Divergence::Ingest)?;

    // 1. Reference execution.
    let reference = interp::run(prog, fuel).map_err(|e| match e {
        interp::RefError::Untranslatable(i) => Divergence::Ingest(i),
        oof @ interp::RefError::OutOfFuel { .. } => Divergence::Interp(oof.to_string()),
    })?;

    // 2. Both machines, via the shared pipeline + store-capturing runner.
    let machine_fuel = fuel.saturating_mul(MACHINE_FUEL_FACTOR);
    let base_prog = oracle::compile_for_with(&module, Machine::Baseline, verify, None)?;
    let br_prog = oracle::compile_for_with(&module, Machine::BranchReg, verify, None)?;
    let base = oracle::run_machine(&module, &base_prog, machine_fuel)?;
    let br = oracle::run_machine(&module, &br_prog, machine_fuel)?;

    // 3. Exit values.
    if reference.exit != base.exit || reference.exit != br.exit {
        return Err(Divergence::ExitMismatch {
            interp: reference.exit,
            base: base.exit,
            br: br.exit,
        });
    }

    // 4. Final guest memory, word by word, across all three.
    for (gi, g) in module.globals.iter().enumerate() {
        for w in 0..g.size() / 4 {
            let rv = reference.mem_word(w);
            let bv = base.globals[gi].1[w];
            let mv = br.globals[gi].1[w];
            if rv != bv || rv != mv {
                return Err(Divergence::GlobalMismatch {
                    name: g.name.clone(),
                    word: w,
                    interp: rv,
                    base: bv,
                    br: mv,
                });
            }
        }
    }

    // 5. Store streams, guest-normalised, each machine vs the reference.
    for (machine, bin, run) in [
        (Machine::Baseline, &base_prog, &base),
        (Machine::BranchReg, &br_prog, &br),
    ] {
        let mem_base = bin.symbol(MEM_SYMBOL).unwrap_or(0);
        let n = reference.stores.len().max(run.global_stores.len());
        for pos in 0..n {
            let want = reference.stores.get(pos).copied();
            let got = run
                .global_stores
                .get(pos)
                .map(|&(a, v)| (a.wrapping_sub(mem_base), v));
            if want != got {
                return Err(Divergence::RvStoreMismatch {
                    machine,
                    pos,
                    reference: want,
                    got,
                });
            }
        }
    }

    Ok(Rv32Agreement {
        exit: reference.exit,
        ref_steps: reference.steps,
        base_instructions: base.instructions,
        br_instructions: br.instructions,
        guest_stores: reference.stores.len(),
    })
}

/// General-purpose scratch registers the generator draws from.  Excludes
/// `x0` (hardwired), `x1` (call link), `x29`/`x30` (loop counters) and
/// `x31` (wild-`jalr` staging), so structured control flow can never be
/// corrupted by body instructions.
const GP: [u8; 14] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

struct Gen {
    rng: Rng64,
    b: Rv32Builder,
    /// Leaf-call labels whose bodies are emitted after the main `ecall`.
    leaves: Vec<Label>,
}

impl Gen {
    fn reg(&mut self) -> u8 {
        *self.rng.pick(&GP)
    }

    fn imm12(&mut self) -> i32 {
        self.rng.random_range(-2048i32..2048)
    }

    fn alu_inst(&mut self) {
        const OPS: [AluOp; 10] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ];
        let op = *self.rng.pick(&OPS);
        let (rd, rs1) = (self.reg(), self.reg());
        if self.rng.chance(1, 2) && op != AluOp::Sub {
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => self.rng.random_range(0i32..32),
                _ => self.imm12(),
            };
            self.b.push(br_ingest::rv32::Rv32Inst::AluImm { op, rd, rs1, imm });
        } else {
            let rs2 = self.reg();
            self.b.push(alu(op, rd, rs1, rs2));
        }
    }

    fn mem_inst(&mut self) {
        let (r1, r2) = (self.reg(), self.reg());
        let imm = self.imm12();
        if self.rng.chance(1, 2) {
            let w = *self.rng.pick(&[MemW::B, MemW::H, MemW::W, MemW::Bu, MemW::Hu]);
            self.b.push(load(w, r1, r2, imm));
        } else {
            let w = *self.rng.pick(&[MemW::B, MemW::H, MemW::W]);
            self.b.push(store(w, r1, r2, imm));
        }
    }

    fn cond(&mut self) -> BrCond {
        *self.rng.pick(&[
            BrCond::Eq,
            BrCond::Ne,
            BrCond::Lt,
            BrCond::Ge,
            BrCond::Ltu,
            BrCond::Geu,
        ])
    }

    /// Emit a structured body of roughly `budget` instructions.
    fn body(&mut self, depth: u8, budget: u32) {
        let mut left = budget;
        while left > 0 {
            left -= 1;
            match self.rng.random_range(0u32..100) {
                // Straight-line compute: the bulk of every program.
                0..=49 => self.alu_inst(),
                50..=64 => self.mem_inst(),
                // Forward skip over a short sub-block.
                65..=74 if left >= 3 => {
                    let (a, b2) = (self.reg(), self.reg());
                    let c = self.cond();
                    let skip = self.b.label();
                    self.b.br(c, a, b2, skip);
                    let inner = 1 + self.rng.random_range(0u32..left.min(5));
                    self.body(depth, inner);
                    left = left.saturating_sub(inner);
                    self.b.bind(skip);
                }
                // Bounded counted loop (reserved counter register).
                75..=84 if depth < 2 && left >= 5 => {
                    let counter = 29 + depth;
                    let count = self.rng.random_range(2i32..6);
                    self.b.push(addi(counter, 0, count));
                    let top = self.b.label();
                    self.b.bind(top);
                    let inner = 1 + self.rng.random_range(0u32..left.min(8));
                    self.body(depth + 1, inner);
                    left = left.saturating_sub(inner + 2);
                    self.b.push(addi(counter, counter, -1));
                    self.b.br(BrCond::Ne, counter, 0, top);
                }
                // Call a straight-line leaf (body emitted after ecall).
                85..=89 => {
                    let leaf = self.b.label();
                    self.b.jal_to(1, leaf);
                    self.leaves.push(leaf);
                }
                // Upper-immediate coverage.
                90..=93 => {
                    let rd = self.reg();
                    let hi = self.rng.random_range(0i32..0x10_0000);
                    if self.rng.chance(1, 2) {
                        self.b.push(lui(rd, hi));
                    } else {
                        self.b.push(auipc(rd, hi));
                    }
                }
                // jal over exactly one instruction: link-register write
                // plus an architecturally skipped slot.
                _ => {
                    let rd = self.reg();
                    self.b.push(jal(rd, 8));
                    self.alu_inst();
                }
            }
        }
    }
}

/// Generate a seeded, always-terminating RV32I torture program.
pub fn generate_rv32(seed: u64) -> Rv32Program {
    let mut g = Gen {
        rng: Rng64::seed_from_u64(seed),
        b: Rv32Builder::new(),
        leaves: Vec::new(),
    };

    // Prologue: give the register pool varied, seed-dependent contents.
    for _ in 0..g.rng.random_range(4u32..9) {
        let rd = g.reg();
        match g.rng.random_range(0u32..3) {
            0 => {
                let imm = g.imm12();
                g.b.push(addi(rd, 0, imm));
            }
            1 => {
                let hi = g.rng.random_range(0i32..0x10_0000);
                g.b.push(lui(rd, hi));
            }
            _ => {
                let hi = g.rng.random_range(0i32..0x10_0000);
                let lo = g.imm12();
                g.b.push(lui(rd, hi));
                g.b.push(addi(rd, rd, lo));
            }
        }
    }

    let budget = g.rng.random_range(16u32..56);
    g.body(0, budget);

    // Rarely, end the program with a wild jalr steered to a target that
    // traps deterministically (misaligned, or far outside text), so the
    // dispatcher's trap edges stay in the differential corpus without
    // cutting most programs short of their ecall.
    if g.rng.chance(1, 6) {
        let src = g.reg();
        if g.rng.chance(1, 2) {
            g.b.push(ori(31, src, 2));
        } else {
            g.b.push(lui(31, 0x40000));
        }
        g.b.push(jalr(0, 31, 0));
    }

    // Epilogue: fold live state into a0 and halt.
    let (ra, rb) = (g.reg(), g.reg());
    g.b.push(add(10, 10, ra));
    g.b.push(xor(10, 10, rb));
    g.b.push(ecall());

    // Leaf bodies: short straight-line compute, return through x1.
    let leaves = std::mem::take(&mut g.leaves);
    for leaf in leaves {
        g.b.bind(leaf);
        for _ in 0..g.rng.random_range(1u32..4) {
            g.alu_inst();
        }
        g.b.push(jalr(0, 1, 0));
    }
    g.b.finish()
}

/// Greedily shrink a failing RV32 program by NOP-ing out instruction
/// words, to a fixpoint.  Replacement (rather than deletion) keeps every
/// pc and branch offset stable, so the candidate stays decodable and the
/// failure stays reachable.
pub fn minimize_rv32(
    prog: &Rv32Program,
    mut still_failing: impl FnMut(&Rv32Program) -> bool,
) -> Rv32Program {
    let nop_word = encode(nop());
    let mut cur = prog.clone();
    loop {
        let mut changed = false;
        for i in 0..cur.words.len() {
            if cur.words[i] == nop_word {
                continue;
            }
            let mut cand = cur.clone();
            cand.words[i] = nop_word;
            if still_failing(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if !changed {
            return cur;
        }
    }
}

/// Whether a deliberately sabotaged branch-register binary (first
/// compare-and-branch negated) visibly misbehaves against the RV32
/// reference — the ingest analogue of
/// [`oracle::sabotaged_br_misbehaves`], used to prove the oracle and
/// minimizer detect real wrong-code bugs.
pub fn sabotaged_rv32_misbehaves(prog: &Rv32Program, fuel: u64) -> bool {
    let Ok(module) = translate(prog) else {
        return false;
    };
    let Ok(reference) = interp::run(prog, fuel) else {
        return false;
    };
    let Ok(mut bin) = oracle::compile_for(&module, Machine::BranchReg) else {
        return false;
    };
    if !oracle::flip_first_cmpbr(&mut bin) {
        return false;
    }
    let mem_base = bin.symbol(MEM_SYMBOL).unwrap_or(0);
    match oracle::run_machine(&module, &bin, fuel.saturating_mul(MACHINE_FUEL_FACTOR)) {
        Ok(run) => {
            if run.exit != reference.exit {
                return true;
            }
            // Exit values can survive a negated branch by luck (much of
            // a random program's data flow is dead); the store stream and
            // final memory are far more sensitive witnesses.
            let guest: Vec<(u32, i32)> = run
                .global_stores
                .iter()
                .map(|&(a, v)| (a.wrapping_sub(mem_base), v))
                .collect();
            if guest != reference.stores {
                return true;
            }
            (0..run.globals[0].1.len())
                .any(|w| run.globals[0].1[w] != reference.mem_word(w))
        }
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter_seed;

    #[test]
    fn generated_programs_translate_and_terminate() {
        for i in 0..25 {
            let seed = iter_seed(0xC0FFEE, i);
            let prog = generate_rv32(seed);
            assert!(translate(&prog).is_ok(), "seed {seed:#x} untranslatable");
            let r = interp::run(&prog, 200_000)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
            assert!(r.steps > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_rv32(7), generate_rv32(7));
        assert_ne!(generate_rv32(7), generate_rv32(8));
    }

    #[test]
    fn three_way_oracle_agrees_on_generated_programs() {
        for i in 0..10 {
            let seed = iter_seed(0xBEEF, i);
            let prog = generate_rv32(seed);
            check_rv32(&prog, 200_000, false)
                .unwrap_or_else(|d| panic!("seed {seed:#x}: {d}"));
        }
    }

    #[test]
    fn oracle_catches_a_sabotaged_binary() {
        // Find a generated program whose sabotage visibly misbehaves,
        // then check the minimizer preserves the failure.
        let mut found = false;
        for i in 0..40 {
            let prog = generate_rv32(iter_seed(0x5AB0, i));
            if !sabotaged_rv32_misbehaves(&prog, 200_000) {
                continue;
            }
            found = true;
            let min = minimize_rv32(&prog, |p| sabotaged_rv32_misbehaves(p, 200_000));
            assert!(
                sabotaged_rv32_misbehaves(&min, 200_000),
                "minimized program must still fail"
            );
            let nops = |p: &Rv32Program| {
                p.words.iter().filter(|&&w| w == encode(nop())).count()
            };
            assert!(nops(&min) >= nops(&prog), "minimizer must not grow the program");
            break;
        }
        assert!(found, "no sabotage-detectable program in 40 seeds");
    }

    #[test]
    fn wild_jalr_traps_identically_everywhere() {
        // Distil the generator's wild-jalr idiom and check all three
        // executions agree it traps.
        let words = [lui(5, 0x40000), jalr(0, 5, 0), ecall()]
            .into_iter()
            .map(encode)
            .collect();
        let a = check_rv32(&Rv32Program::new(words), 10_000, false).unwrap();
        assert_eq!(a.exit, br_ingest::TRAP_EXIT);
        let words = [addi(5, 0, 0x32), jalr(0, 5, 0), ecall()]
            .into_iter()
            .map(encode)
            .collect();
        let a = check_rv32(&Rv32Program::new(words), 10_000, false).unwrap();
        assert_eq!(a.exit, br_ingest::TRAP_EXIT);
    }
}
