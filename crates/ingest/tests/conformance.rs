//! Encoding-exhaustive RV32I conformance gate.
//!
//! Mirrors the emulator's 35/35 `--check-coverage` discipline: a corpus
//! of small directed programs is executed three ways — the in-crate
//! reference interpreter, the translated module on the baseline machine,
//! and the translated module on the branch-register machine — and the
//! union of instruction kinds the reference actually *retired* must be
//! every kind in [`ALL_KINDS`].  A translator that silently mistranslates
//! (or a corpus that silently stops exercising) any encoding fails here,
//! not in a downstream benchmark.

use br_core::Experiment;
use br_ingest::interp::{self, RefOutcome};
use br_ingest::rv32::asm::*;
use br_ingest::rv32::{BrCond, Rv32Builder, Rv32Inst, ALL_KINDS};
use br_ingest::{Rv32Program, TRAP_EXIT};
use std::collections::BTreeSet;

/// Run `prog` three ways and require exit agreement; returns the
/// reference outcome (with its executed-kind set).
fn agree(name: &str, prog: &Rv32Program) -> RefOutcome {
    let reference = interp::run(prog, 100_000).expect(name);
    let cmp = Experiment::new()
        .run_rv32_comparison(name, prog)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        reference.exit, cmp.baseline.exit,
        "{name}: reference vs machines disagree"
    );
    reference
}

fn prog(insts: &[Rv32Inst]) -> Rv32Program {
    Rv32Program::new(insts.iter().copied().map(br_ingest::rv32::encode).collect())
}

/// The directed corpus: each program exercises a cluster of encodings
/// with hand-checkable results.
fn corpus() -> Vec<(&'static str, Rv32Program)> {
    let mut out = Vec::new();

    // 1. Immediate ALU forms.
    out.push((
        "alu-imm",
        prog(&[
            addi(5, 0, 100),
            slti(6, 5, 101),   // 1
            sltiu(7, 5, 99),   // 0
            xori(8, 5, 0xff),  // 27
            ori(9, 8, 0x10),   // 27
            andi(11, 9, 0x7f), // 27
            slli(12, 5, 3),    // 800
            srli(13, 12, 1),   // 400
            srai(14, 13, 2),   // 100
            add(10, 6, 7),
            add(10, 10, 11),
            add(10, 10, 14),
            ecall(), // 1 + 0 + 27 + 100 = 128
        ]),
    ));

    // 2. Register ALU forms, signed/unsigned asymmetry included.
    out.push((
        "alu-reg",
        prog(&[
            addi(5, 0, -7),
            addi(6, 0, 3),
            add(7, 5, 6),   // -4
            sub(8, 5, 6),   // -10
            sll(9, 6, 6),   // 24
            slt(11, 5, 6),  // 1   (signed)
            sltu(12, 5, 6), // 0   (-7 wraps huge)
            xor(13, 5, 6),  // -6
            srl(14, 5, 6),  // 0x1ffffffe
            sra(15, 5, 6),  // -1
            or(16, 5, 6),   // -5
            and(17, 5, 6),  // 1
            add(10, 11, 12),
            add(10, 10, 15),
            add(10, 10, 17),
            ecall(), // 1 + 0 + (-1) + 1 = 1
        ]),
    ));

    // 3. Upper immediates.
    out.push((
        "upper",
        prog(&[
            lui(5, 0x12345),
            auipc(6, 0x1), // pc 0x1004 + 0x1000 = 0x2004
            sub(10, 6, 0),
            ecall(), // 0x2004
        ]),
    ));

    // 4. All six branch conditions, each in its taken direction (the
    //    skipped slot poisons the result if the branch mispredicates),
    //    plus one not-taken instance.
    out.push(("branches", {
        let mut b = Rv32Builder::new();
        b.push(addi(5, 0, 1));
        b.push(addi(6, 0, 2));
        b.push(addi(7, 0, -1)); // 0xffffffff: unsigned max
        for (cond, a, c) in [
            (BrCond::Eq, 5u8, 5u8),
            (BrCond::Ne, 5, 6),
            (BrCond::Lt, 7, 5), // -1 < 1 signed
            (BrCond::Ge, 6, 5),
            (BrCond::Ltu, 5, 7), // 1 < 0xffffffff unsigned
            (BrCond::Geu, 7, 6), // 0xffffffff >= 2 unsigned
        ] {
            let skip = b.label();
            b.br(cond, a, c, skip);
            b.push(addi(10, 10, 100)); // poison: must be skipped
            b.bind(skip);
        }
        // Not-taken: falls through into the increment.
        let skip = b.label();
        b.br(BrCond::Eq, 5, 6, skip);
        b.push(addi(10, 10, 7));
        b.bind(skip);
        b.push(ecall()); // 7
        b.finish()
    }));

    // 5. Every load/store width, signed and unsigned reloads.
    out.push((
        "memory",
        prog(&[
            addi(5, 0, -2), // 0xfffffffe
            sb(0, 5, 4),
            lb(6, 0, 4),  // -2
            lbu(7, 0, 4), // 254
            sh(0, 5, 8),
            lh(8, 0, 8),  // -2
            lhu(9, 0, 8), // 0xfffe
            sw(0, 5, 12),
            lw(11, 0, 12),   // -2
            add(10, 6, 7),   // 252
            add(10, 10, 8),  // 250
            add(10, 10, 9),  // 65784
            add(10, 10, 11), // 65782
            ecall(),
        ]),
    ));

    // 6. Call and return: jal links, jalr dispatches on the link.
    out.push(("control", {
        let mut b = Rv32Builder::new();
        let leaf = b.label();
        b.push(addi(5, 0, 30));
        b.jal_to(1, leaf);
        b.push(add(10, 10, 5)); // runs after return: 12 + 30
        b.push(ecall()); // 42
        b.bind(leaf);
        b.push(addi(10, 0, 12));
        b.push(jalr(0, 1, 0));
        b.finish()
    }));

    out
}

#[test]
fn every_rv32_encoding_executes_and_agrees() {
    let mut executed: BTreeSet<&'static str> = BTreeSet::new();
    let mut expected_exits = vec![128, 1, 0x2004, 7, 65782, 42].into_iter();
    for (name, p) in corpus() {
        let r = agree(name, &p);
        assert_eq!(r.exit, expected_exits.next().unwrap(), "{name}: wrong exit");
        executed.extend(r.kinds.iter());
    }
    let all: BTreeSet<&'static str> = ALL_KINDS.iter().copied().collect();
    let missing: Vec<_> = all.difference(&executed).collect();
    assert!(
        missing.is_empty(),
        "corpus never executed: {missing:?} ({}/{} kinds)",
        executed.len(),
        all.len()
    );
    println!("{}/{} rv32 encodings executed", executed.len(), all.len());
}

#[test]
fn lb_vs_lbu_sign_handling() {
    let r = agree(
        "lb-lbu",
        &prog(&[
            addi(5, 0, 0x80),
            sb(0, 5, 0),
            lb(6, 0, 0),
            lbu(7, 0, 0),
            sub(10, 7, 6), // 128 - (-128) = 256
            ecall(),
        ]),
    );
    assert_eq!(r.exit, 256);
}

#[test]
fn sltu_at_the_sign_boundary() {
    // x5 = i32::MIN: signed smallest, unsigned large.
    let r = agree(
        "sltu-edge",
        &prog(&[
            lui(5, 0x80000),
            addi(6, 0, 1),
            slt(7, 5, 6),    // 1: signed MIN < 1
            sltu(8, 5, 6),   // 0: 0x80000000 not < 1
            sltiu(9, 5, -1), // 1: imm sign-extends to 0xffffffff, MIN < it
            add(10, 7, 8),
            add(10, 10, 9),
            ecall(), // 2
        ]),
    );
    assert_eq!(r.exit, 2);
}

#[test]
fn shift_amounts_mask_to_five_bits() {
    let r = agree(
        "shamt-mask",
        &prog(&[
            addi(5, 0, 1),
            addi(6, 0, 33), // & 31 == 1
            sll(10, 5, 6),
            ecall(), // 2
        ]),
    );
    assert_eq!(r.exit, 2);
}

#[test]
fn sh_lh_roundtrip_negative_halfword() {
    let r = agree(
        "sh-lh",
        &prog(&[
            lui(5, 0xfffff),
            addi(5, 5, 0x611), // 0xfffff611
            sh(0, 5, 0x20),
            lh(10, 0, 0x20), // sign-extends 0xf611
            ecall(),
        ]),
    );
    assert_eq!(r.exit, 0xf611u32 as u16 as i16 as i32);
}

#[test]
fn misaligned_jalr_traps_on_all_three() {
    let r = agree(
        "jalr-misaligned",
        &prog(&[lui(5, 0x1), addi(5, 5, 2), jalr(0, 5, 0), ecall()]),
    );
    assert_eq!(r.exit, TRAP_EXIT);
}

#[test]
fn out_of_text_jalr_traps_on_all_three() {
    let r = agree(
        "jalr-out-of-range",
        &prog(&[lui(5, 0x40000), jalr(0, 5, 0), ecall()]),
    );
    assert_eq!(r.exit, TRAP_EXIT);
}

#[test]
fn falling_off_the_end_traps_on_all_three() {
    let r = agree("fall-off", &prog(&[addi(10, 0, 9)]));
    assert_eq!(r.exit, TRAP_EXIT);
}

#[test]
fn srai_vs_srli_on_negative_input() {
    let r = agree(
        "sra-srl",
        &prog(&[
            addi(5, 0, -16),
            srai(6, 5, 2),  // -4
            srli(7, 5, 28), // 0xf
            add(10, 6, 7),
            ecall(), // 11
        ]),
    );
    assert_eq!(r.exit, 11);
}
