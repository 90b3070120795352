//! Error-path integration tests: the pipeline must fail loudly and
//! precisely, never silently.

use br_core::{CompileError, Error, Experiment, Machine};
use br_emu::{EmuError, Emulator};
use br_isa::{abi, AluOp, AsmFunc, AsmItem, AsmProgram, MInst, Reg, Src2};

fn asm_main(machine: Machine, items: Vec<AsmItem>) -> br_isa::Program {
    let mut p = AsmProgram::new(machine);
    p.funcs.push(AsmFunc {
        name: "main".to_string(),
        items,
    });
    p.assemble().unwrap()
}

#[test]
fn executing_a_jump_table_word_is_detected() {
    // main: fall into a data word.
    let prog = asm_main(
        Machine::Baseline,
        vec![
            AsmItem::Inst(MInst::Nop { br: 0 }, None),
            AsmItem::Word(0xDEAD_BEEF, None),
        ],
    );
    let main = prog.symbol("main").unwrap();
    let mut emu = Emulator::new(&prog);
    assert_eq!(emu.run(100), Err(EmuError::ExecutedData(main + 4)));
}

#[test]
fn running_off_the_text_segment_is_detected() {
    let prog = asm_main(
        Machine::Baseline,
        vec![AsmItem::Inst(MInst::Nop { br: 0 }, None)],
    );
    let mut emu = Emulator::new(&prog);
    match emu.run(100) {
        Err(EmuError::BadFetch(_)) => {}
        other => panic!("expected BadFetch, got {other:?}"),
    }
}

#[test]
fn wild_memory_access_reports_pc_and_address() {
    let prog = asm_main(
        Machine::Baseline,
        vec![
            AsmItem::Inst(
                MInst::Alu {
                    op: AluOp::Add,
                    rd: Reg(2),
                    rs1: Reg(0),
                    src2: Src2::Imm(-1),
                    br: 0,
                },
                None,
            ),
            AsmItem::Inst(
                MInst::Load {
                    w: br_isa::MemWidth::Word,
                    rd: Reg(1),
                    rs1: Reg(2),
                    off: 0,
                    br: 0,
                },
                None,
            ),
        ],
    );
    let main = prog.symbol("main").unwrap();
    let mut emu = Emulator::new(&prog);
    match emu.run(100) {
        Err(EmuError::BadMem { pc, addr }) => {
            assert_eq!(pc, main + 4);
            assert_eq!(addr, u32::MAX);
        }
        other => panic!("expected BadMem, got {other:?}"),
    }
}

#[test]
fn division_by_zero_reports_pc() {
    let prog = asm_main(
        Machine::BranchReg,
        vec![AsmItem::Inst(
            MInst::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                src2: Src2::Reg(Reg(0)),
                br: 0,
            },
            None,
        )],
    );
    let main = prog.symbol("main").unwrap();
    let mut emu = Emulator::new(&prog);
    assert_eq!(emu.run(100), Err(EmuError::DivByZero(main)));
}

#[test]
fn minic_divide_by_zero_surfaces_through_the_experiment_api() {
    let src = "int main() { int z = 0; return 5 / z; }";
    let exp = Experiment::new();
    match exp.run(src, Machine::Baseline) {
        Err(Error::Emu(EmuError::DivByZero(_))) => {}
        other => panic!("expected divide-by-zero, got {other:?}"),
    }
}

#[test]
fn data_segment_past_the_stack_top_is_a_typed_error() {
    // 12,000,000 bytes of globals cannot load below `abi::STACK_TOP`.
    let src = "int a[3000000]; int main() { a[5] = 3; return a[5]; }";
    for machine in [Machine::Baseline, Machine::BranchReg] {
        match Experiment::new().run(src, machine) {
            Err(Error::Compile(CompileError::Asm(msg))) => {
                assert!(msg.contains("past the stack top"), "{msg}")
            }
            other => panic!("expected an image error on {machine}, got {other:?}"),
        }
    }
}

#[test]
fn text_past_the_data_base_is_a_typed_error() {
    // A valid module whose text outgrows the 15,360 words below
    // `abi::DATA_BASE`: loading its data would overwrite the end of the
    // text, `sel`'s jump table included.
    let mut src = String::from("int big[60000];\n\nint pad() {\n");
    for i in 0..6000 {
        let (dst, src_idx) = (i % 997, (i + 1) % 997);
        src.push_str(&format!("    big[{dst}] = big[{src_idx}] + {i};\n"));
    }
    src.push_str("    return big[0];\n}\n\nint sel(int k) {\n    switch (k) {\n");
    for k in 0..8 {
        src.push_str(&format!("        case {k}: return {};\n", 12 + k));
    }
    src.push_str("        default: return 0;\n    }\n}\n\n");
    src.push_str("int main() { return sel(3) + sel(5) + big[7]; }\n");
    let module = br_frontend::compile(&src).expect("valid MiniC");
    let exit = br_ir::Interpreter::new(&module).run("main", &[]);
    assert_eq!(exit.ok(), Some(32));
    for machine in [Machine::Baseline, Machine::BranchReg] {
        match Experiment::new().run(&src, machine) {
            Err(Error::Compile(CompileError::Asm(msg))) => {
                assert!(msg.contains("past the data segment base"), "{msg}")
            }
            other => panic!("expected an image error on {machine}, got {other:?}"),
        }
    }
}

#[test]
fn infinite_loop_exhausts_fuel() {
    let src = "int main() { while (1) { } return 0; }";
    let exp = Experiment {
        fuel: 10_000,
        ..Experiment::new()
    };
    for machine in [Machine::Baseline, Machine::BranchReg] {
        match exp.run(src, machine) {
            Err(Error::Emu(EmuError::OutOfFuel)) => {}
            other => panic!("expected OutOfFuel on {machine}, got {other:?}"),
        }
    }
}

#[test]
fn compile_errors_carry_line_numbers() {
    let exp = Experiment::new();
    match exp.run("int main() {\n  return 1 +;\n}", Machine::Baseline) {
        Err(Error::Compile(CompileError::Frontend(e))) => assert_eq!(e.line, 2),
        other => panic!("expected compile error, got {other:?}"),
    }
}

#[test]
fn stack_registers_initialized() {
    let prog = asm_main(
        Machine::Baseline,
        vec![
            AsmItem::Inst(
                MInst::Alu {
                    op: AluOp::Add,
                    rd: Reg(1),
                    rs1: abi::BASE_SP,
                    src2: Src2::Imm(0),
                    br: 0,
                },
                None,
            ),
            AsmItem::Inst(
                MInst::Jmpl {
                    rd: Reg(0),
                    rs1: abi::BASE_LINK,
                    off: 0,
                },
                None,
            ),
            AsmItem::Inst(MInst::Nop { br: 0 }, None),
        ],
    );
    let mut emu = Emulator::new(&prog);
    assert_eq!(emu.run(100).unwrap(), abi::STACK_TOP as i32);
    assert_eq!(emu.reg(0), 0, "r0 stays zero");
    // read_word sees the data segment.
    assert!(emu.read_word(abi::DATA_BASE).is_some());
    assert!(emu.read_word(u32::MAX - 2).is_none());
}
