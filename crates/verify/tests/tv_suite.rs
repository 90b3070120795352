//! Acceptance: whole-suite translation validation and static-cost
//! cross-checks against the emulator.

use br_codegen::{BaseOptions, BrOptions};
use br_verify::tv;

/// Every function of every suite program proves baseline <-> BR
/// store-equivalent statically (the headline tentpole property).
#[test]
fn suite_proves_equivalent() {
    let mut bad = Vec::new();
    for w in br_workloads::suite(br_workloads::Scale::Test) {
        let module = br_frontend::compile(&w.source)
            .unwrap_or_else(|e| panic!("{}: frontend: {e}", w.name));
        let report = tv::validate_module(&module, BaseOptions::default(), BrOptions::default())
            .unwrap_or_else(|e| panic!("{}: codegen: {e}", w.name));
        for f in &report.funcs {
            if f.status != tv::TvStatus::Proven {
                bad.push(format!("{}/{}: {}", w.name, f.func, f.status.name()));
                for finding in &f.findings {
                    bad.push(format!("    {}", finding.detail));
                }
            }
        }
    }
    assert!(bad.is_empty(), "unproven functions:\n{}", bad.join("\n"));
}

/// A deliberately tampered BR emission is caught: the engine must not
/// prove a function whose code was mutated after compilation.
#[test]
fn tampered_emission_is_caught() {
    use br_codegen::{select_module, TargetSpec};
    use br_isa::{AluOp, AsmItem, Machine, MInst, Src2};
    use br_verify::tv::engine::validate_func;
    use br_verify::tv::exec::{Ctx, SideCode};
    use br_verify::tv::expr::{Arena, Side};

    let src = "int f(int a, int b) { if (a < b) return a + 3; return b - 1; }";
    let module = br_frontend::compile(src).unwrap();
    let base_opts = BaseOptions::default();
    let br_opts = BrOptions::default();
    let batch_a = select_module(&module, Machine::Baseline, base_opts, br_opts).unwrap();
    let batch_b = select_module(&module, Machine::BranchReg, base_opts, br_opts).unwrap();
    let geoms_a = batch_a.frame_geom();
    let geoms_b = batch_b.frame_geom();
    let gate = |_: br_codegen::Stage<'_>| Ok::<(), std::convert::Infallible>(());
    let (af_a, ..) = batch_a.compile_func(0, &gate).unwrap();
    let (mut af_b, ..) = batch_b.compile_func(0, &gate).unwrap();

    // Flip one ALU immediate in the BR stream: `a + 3` becomes `a + 4`.
    let mut tampered = false;
    for item in &mut af_b.items {
        if let AsmItem::Inst(
            MInst::Alu {
                op: AluOp::Add,
                src2: Src2::Imm(imm @ 3),
                ..
            },
            _,
        ) = item
        {
            *imm = 4;
            tampered = true;
            break;
        }
    }
    assert!(tampered, "expected an `add ..., 3` in the BR emission");

    let target_a = TargetSpec::for_machine(Machine::Baseline);
    let target_b = TargetSpec::for_machine(Machine::BranchReg);
    let sigs = std::collections::HashMap::new();
    let (callee_bregs, caller_bregs) = br_opts.pools();
    let code_a = SideCode::build(Side::Base, &af_a);
    let code_b = SideCode::build(Side::Br, &af_b);
    let cxa = Ctx {
        side: Side::Base,
        machine: Machine::Baseline,
        target: &target_a,
        geom: &geoms_a[0],
        sigs: &sigs,
        code: &code_a,
        caller_bregs: &[],
        callee_bregs: &[],
    };
    let cxb = Ctx {
        side: Side::Br,
        machine: Machine::BranchReg,
        target: &target_b,
        geom: &geoms_b[0],
        sigs: &sigs,
        code: &code_b,
        caller_bregs: &caller_bregs,
        callee_bregs: &callee_bregs,
    };
    let mut arena = Arena::new();
    let outcome = validate_func(&mut arena, &cxa, &cxb, &[false, false], br_verify::tv::exec::RetKind::Int);
    assert!(
        !outcome.findings.is_empty(),
        "tampered code must not prove"
    );
    assert!(
        outcome.findings.iter().any(|f| f.refuted),
        "constant mismatch should be a refutation, got: {:?}",
        outcome.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
    );
}
