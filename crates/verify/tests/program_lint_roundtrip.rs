//! Acceptance for the whole-program lint: the reconstruction from a
//! decoded [`Program`] image must be faithful enough that every
//! compiler-produced program lints clean (no false positives, even on
//! switch-heavy code whose jump tables must be re-identified without
//! relocations), while images tampered with after assembly are caught.

use br_codegen::{compile_module, BaseOptions, BrOptions};
use br_isa::{Machine, Program};
use br_verify::lint_program;

fn build(src: &str, machine: Machine) -> Program {
    let module = br_frontend::compile(src).expect("frontend");
    compile_module(
        &module,
        machine,
        BaseOptions::default(),
        BrOptions::default(),
    )
    .expect("codegen")
    .asm
    .assemble()
    .expect("assemble")
}

/// Every suite program, on both machines, round-trips through
/// compile -> assemble -> `lint_program` with zero violations.
#[test]
fn suite_round_trips_clean() {
    let opts = BrOptions::default();
    let mut bad = Vec::new();
    for w in br_workloads::suite(br_workloads::Scale::Test) {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let prog = build(&w.source, machine);
            for e in lint_program(&prog, &opts) {
                bad.push(format!("{}/{machine:?}: {e}", w.name));
            }
        }
    }
    assert!(bad.is_empty(), "false positives:\n{}", bad.join("\n"));
}

/// The torture-corpus programs exercise the reconstruction's hardest
/// cases (dense and nested switch tables, deep call chains); they must
/// also lint clean from the decoded image alone.
#[test]
fn corpus_round_trips_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no corpus sources found");
    let opts = BrOptions::default();
    let mut bad = Vec::new();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("read corpus source");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let prog = build(&src, machine);
            for e in lint_program(&prog, &opts) {
                bad.push(format!("{name}/{machine:?}: {e}"));
            }
        }
    }
    assert!(bad.is_empty(), "false positives:\n{}", bad.join("\n"));
}

/// An image whose text was corrupted after assembly is flagged: a
/// transfer through a branch register that is undefined at function
/// entry cannot have come from the emitter.
#[test]
fn tampered_image_is_flagged() {
    use br_isa::{MInst, TextWord};

    let src = "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) s = s + i; return s; }";
    let mut prog = build(src, Machine::BranchReg);
    assert!(lint_program(&prog, &BrOptions::default()).is_empty());

    // Overwrite main's entry instruction with a transfer through b[6]
    // (caller-saved: undefined on entry).
    let entry = prog
        .blocks
        .iter()
        .find(|m| m.func == "main" && m.label.is_none())
        .expect("main entry mark")
        .word as usize;
    prog.text[entry] = TextWord::Inst(MInst::Nop { br: 6 });

    let errs = lint_program(&prog, &BrOptions::default());
    assert!(
        errs.iter().any(|e| e.to_string().contains("main")),
        "tamper not attributed to main: {errs:?}"
    );
    assert!(!errs.is_empty(), "tampered image linted clean");
}
