//! The two-pass assembler: symbolic instruction streams → [`Program`].

use std::collections::HashMap;
use std::fmt;

use crate::encode::{encode, EncodeError};
use crate::minst::{AluOp, MInst, Src2};
use crate::program::{BlockMark, Program, TextWord};
use crate::{abi, Machine};

/// A function-local label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// First label number used for emission-internal labels (jump tables,
/// out-of-line sequences). Labels below this base are IR block labels,
/// which both machine emitters bind in the same order for the same
/// module; labels at or above it are private to one emitter's stream.
/// Static analyses (the protocol lint, translation validation) rely on
/// this split to align the two machines' code block-for-block.
pub const FRESH_LABEL_BASE: u32 = 1_000_000;

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A symbolic reference used in relocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymRef {
    /// A data-segment symbol (global variable).
    Data(String),
    /// A function entry point.
    Func(String),
    /// A label in the current function.
    Label(Label),
}

/// A relocation: which value to compute from a [`SymRef`] and patch into
/// the instruction or data word it is attached to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reloc {
    /// High 21 address bits (patches `sethi`).
    Hi(SymRef),
    /// Low 11 address bits (patches `orlo` immediates and `bmovr`
    /// offsets).
    Lo(SymRef),
    /// Word displacement from the instruction's own address (patches
    /// `bcc`/`ba`/`call`/`bcalc`).
    Disp(SymRef),
    /// Absolute 32-bit address (patches `.word` jump-table entries).
    Abs(SymRef),
}

impl Reloc {
    fn sym(&self) -> &SymRef {
        match self {
            Reloc::Hi(s) | Reloc::Lo(s) | Reloc::Disp(s) | Reloc::Abs(s) => s,
        }
    }
}

/// One element of a function's instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmItem {
    /// Bind a label to the current address.
    Label(Label),
    /// An instruction, optionally patched by a relocation.
    Inst(MInst, Option<Reloc>),
    /// An embedded data word (jump tables), optionally relocated.
    Word(u32, Option<Reloc>),
}

/// A function's assembly stream.
#[derive(Debug, Clone, Default)]
pub struct AsmFunc {
    /// Function name (becomes a text symbol).
    pub name: String,
    /// Items in layout order.
    pub items: Vec<AsmItem>,
}

/// A named, aligned chunk of the data segment.
#[derive(Debug, Clone, PartialEq)]
pub struct DataItem {
    /// Symbol name.
    pub name: String,
    /// Required alignment in bytes.
    pub align: usize,
    /// Contents (length = size).
    pub bytes: Vec<u8>,
}

/// Assembler errors.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmError {
    /// A relocation referenced an unknown symbol.
    Undefined(String),
    /// An instruction failed to encode.
    Encode {
        func: String,
        index: usize,
        err: EncodeError,
    },
    /// A relocation was attached to an instruction it cannot patch.
    BadReloc { func: String, index: usize },
    /// No `main` function was provided.
    NoMain,
    /// The assembled image failed structural validation.
    Image(crate::program::ImageError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Undefined(s) => write!(f, "undefined symbol '{s}'"),
            AsmError::Encode { func, index, err } => {
                write!(f, "in {func} at item {index}: {err}")
            }
            AsmError::BadReloc { func, index } => {
                write!(
                    f,
                    "in {func} at item {index}: relocation cannot patch instruction"
                )
            }
            AsmError::NoMain => write!(f, "program has no 'main' function"),
            AsmError::Image(e) => write!(f, "invalid image: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// A whole program in symbolic form.
#[derive(Debug, Clone)]
pub struct AsmProgram {
    /// Target machine.
    pub machine: Machine,
    /// Functions, laid out in order after the entry stub.
    pub funcs: Vec<AsmFunc>,
    /// Data-segment items, laid out in order.
    pub data: Vec<DataItem>,
}

impl AsmProgram {
    /// Create an empty program for `machine`.
    pub fn new(machine: Machine) -> AsmProgram {
        AsmProgram {
            machine,
            funcs: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Assemble into a loadable [`Program`].
    ///
    /// A `_start` stub is synthesized at the entry that calls `main` and
    /// halts; `main`'s return value is left in `r[1]` as the exit value.
    ///
    /// # Errors
    ///
    /// See [`AsmError`].
    pub fn assemble(&self) -> Result<Program, AsmError> {
        if !self.funcs.iter().any(|f| f.name == "main") {
            return Err(AsmError::NoMain);
        }
        let stub = self.entry_stub();

        // ---- data layout ----
        let mut symbols: HashMap<String, u32> = HashMap::new();
        let mut data: Vec<u8> = Vec::new();
        for item in &self.data {
            let align = item.align.max(1) as u32;
            while !(abi::DATA_BASE + data.len() as u32).is_multiple_of(align) {
                data.push(0);
            }
            symbols.insert(item.name.clone(), abi::DATA_BASE + data.len() as u32);
            data.extend_from_slice(&item.bytes);
        }

        // ---- pass 1: text layout ----
        let all_funcs: Vec<&AsmFunc> = std::iter::once(&stub).chain(self.funcs.iter()).collect();
        let mut labels: Vec<HashMap<Label, u32>> = Vec::with_capacity(all_funcs.len());
        let mut blocks: Vec<BlockMark> = Vec::new();
        let mut addr = abi::TEXT_BASE;
        for f in &all_funcs {
            symbols.insert(f.name.clone(), addr);
            blocks.push(BlockMark {
                word: (addr - abi::TEXT_BASE) / 4,
                func: f.name.clone(),
                label: None,
            });
            let mut lmap = HashMap::new();
            for item in &f.items {
                match item {
                    AsmItem::Label(l) => {
                        lmap.insert(*l, addr);
                        // Retain the bound label for profile attribution;
                        // when several labels bind one address (or a label
                        // binds the entry), the first mark wins.
                        let word = (addr - abi::TEXT_BASE) / 4;
                        if blocks.last().map(|b| b.word) != Some(word) {
                            blocks.push(BlockMark {
                                word,
                                func: f.name.clone(),
                                label: Some(l.0),
                            });
                        }
                    }
                    AsmItem::Inst(..) | AsmItem::Word(..) => addr += 4,
                }
            }
            labels.push(lmap);
        }

        // ---- pass 2: resolve and encode ----
        let mut code = Vec::new();
        let mut text = Vec::new();
        let mut addr = abi::TEXT_BASE;
        for (fi, f) in all_funcs.iter().enumerate() {
            for (ii, item) in f.items.iter().enumerate() {
                match item {
                    AsmItem::Label(_) => {}
                    AsmItem::Inst(inst, reloc) => {
                        let inst = match reloc {
                            None => *inst,
                            Some(r) => {
                                let target = self.resolve(r.sym(), &symbols, &labels[fi])?;
                                apply_reloc(*inst, r, target, addr).ok_or(AsmError::BadReloc {
                                    func: f.name.clone(),
                                    index: ii,
                                })?
                            }
                        };
                        let w = encode(self.machine, inst).map_err(|err| AsmError::Encode {
                            func: f.name.clone(),
                            index: ii,
                            err,
                        })?;
                        code.push(w);
                        text.push(TextWord::Inst(inst));
                        addr += 4;
                    }
                    AsmItem::Word(v, reloc) => {
                        let v = match reloc {
                            None => *v,
                            Some(r) => self.resolve(r.sym(), &symbols, &labels[fi])?,
                        };
                        code.push(v);
                        text.push(TextWord::Data(v));
                        addr += 4;
                    }
                }
            }
        }

        let program = Program {
            machine: self.machine,
            code,
            text,
            data,
            entry: abi::TEXT_BASE,
            symbols,
            blocks,
        };
        program.validate_image().map_err(AsmError::Image)?;
        Ok(program)
    }

    fn resolve(
        &self,
        sym: &SymRef,
        symbols: &HashMap<String, u32>,
        labels: &HashMap<Label, u32>,
    ) -> Result<u32, AsmError> {
        match sym {
            SymRef::Data(n) | SymRef::Func(n) => symbols
                .get(n)
                .copied()
                .ok_or_else(|| AsmError::Undefined(n.clone())),
            SymRef::Label(l) => labels
                .get(l)
                .copied()
                .ok_or_else(|| AsmError::Undefined(l.to_string())),
        }
    }

    /// The synthesized `_start`: call `main`, then halt. The BR-machine
    /// variant demonstrates the two-instruction address calculation the
    /// paper describes for calls.
    fn entry_stub(&self) -> AsmFunc {
        let main = SymRef::Func("main".to_string());
        let items = match self.machine {
            Machine::Baseline => vec![
                AsmItem::Inst(MInst::Call { disp: 0 }, Some(Reloc::Disp(main))),
                AsmItem::Inst(MInst::Nop { br: 0 }, None), // delay slot
                AsmItem::Inst(MInst::Halt, None),
            ],
            Machine::BranchReg => vec![
                AsmItem::Inst(
                    MInst::Sethi {
                        rd: abi::BR_TEMP,
                        imm: 0,
                    },
                    Some(Reloc::Hi(main.clone())),
                ),
                AsmItem::Inst(
                    MInst::BMovR {
                        bd: crate::minst::BReg(1),
                        rs1: abi::BR_TEMP,
                        off: 0,
                        br: 0,
                    },
                    Some(Reloc::Lo(main)),
                ),
                // The transfer rides on a nop; its side effect leaves the
                // return address (the halt) in b[7].
                AsmItem::Inst(MInst::Nop { br: 1 }, None),
                AsmItem::Inst(MInst::Halt, None),
            ],
        };
        AsmFunc {
            name: "_start".to_string(),
            items,
        }
    }
}

/// Patch the field a relocation targets. Returns `None` if the reloc kind
/// does not match the instruction.
fn apply_reloc(inst: MInst, reloc: &Reloc, target: u32, inst_addr: u32) -> Option<MInst> {
    match (reloc, inst) {
        (Reloc::Hi(_), MInst::Sethi { rd, .. }) => Some(MInst::Sethi {
            rd,
            imm: target >> 11,
        }),
        (
            Reloc::Lo(_),
            MInst::Alu {
                op: AluOp::OrLo,
                rd,
                rs1,
                br,
                ..
            },
        ) => Some(MInst::Alu {
            op: AluOp::OrLo,
            rd,
            rs1,
            src2: Src2::Imm((target & 0x7FF) as i32),
            br,
        }),
        (Reloc::Lo(_), MInst::BMovR { bd, rs1, br, .. }) => Some(MInst::BMovR {
            bd,
            rs1,
            off: (target & 0x7FF) as i32,
            br,
        }),
        (Reloc::Disp(_), i) => {
            let disp = (target as i64 - inst_addr as i64) / 4;
            let disp = i32::try_from(disp).ok()?;
            match i {
                MInst::Bcc { cc, float, .. } => Some(MInst::Bcc { cc, float, disp }),
                MInst::Ba { .. } => Some(MInst::Ba { disp }),
                MInst::Call { .. } => Some(MInst::Call { disp }),
                MInst::Bcalc { bd, br, .. } => Some(MInst::Bcalc { bd, disp, br }),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minst::{BReg, Cc, Reg};

    fn ret42(machine: Machine) -> AsmFunc {
        // main: r1 = 42; return
        let items = match machine {
            Machine::Baseline => vec![
                AsmItem::Inst(
                    MInst::Alu {
                        op: AluOp::Add,
                        rd: Reg(1),
                        rs1: Reg(0),
                        src2: Src2::Imm(42),
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
            Machine::BranchReg => vec![AsmItem::Inst(
                MInst::Alu {
                    op: AluOp::Add,
                    rd: Reg(1),
                    rs1: Reg(0),
                    src2: Src2::Imm(42),
                    br: 7,
                },
                None,
            )],
        };
        AsmFunc {
            name: "main".to_string(),
            items,
        }
    }

    #[test]
    fn assembles_minimal_program_both_machines() {
        for m in [Machine::Baseline, Machine::BranchReg] {
            let mut p = AsmProgram::new(m);
            p.funcs.push(ret42(m));
            let prog = p.assemble().unwrap();
            assert_eq!(prog.entry, abi::TEXT_BASE);
            assert!(prog.symbol("main").unwrap() > abi::TEXT_BASE);
            assert_eq!(prog.code.len(), prog.text.len());
            assert!(prog.static_inst_count() >= 4);
        }
    }

    #[test]
    fn out_of_range_raw_branch_is_rejected_at_assembly() {
        // A hand-written `ba` with no relocation escapes the label
        // machinery entirely; image validation must still catch it.
        let mut p = AsmProgram::new(Machine::Baseline);
        let mut f = ret42(Machine::Baseline);
        f.items
            .insert(0, AsmItem::Inst(MInst::Ba { disp: 1000 }, None));
        p.funcs.push(f);
        match p.assemble() {
            Err(AsmError::Image(crate::program::ImageError::BranchTargetOutOfRange { .. })) => {}
            other => panic!("expected image error, got {other:?}"),
        }
    }

    #[test]
    fn missing_main_is_an_error() {
        let p = AsmProgram::new(Machine::Baseline);
        assert_eq!(p.assemble().unwrap_err(), AsmError::NoMain);
    }

    #[test]
    fn call_reloc_points_at_main() {
        let mut p = AsmProgram::new(Machine::Baseline);
        p.funcs.push(ret42(Machine::Baseline));
        let prog = p.assemble().unwrap();
        let main_addr = prog.symbol("main").unwrap();
        // First stub word is the call.
        match prog.fetch(abi::TEXT_BASE) {
            Some(TextWord::Inst(MInst::Call { disp })) => {
                assert_eq!(abi::TEXT_BASE as i64 + *disp as i64 * 4, main_addr as i64);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn labels_resolve_within_function() {
        let mut p = AsmProgram::new(Machine::Baseline);
        let l = Label(0);
        p.funcs.push(AsmFunc {
            name: "main".to_string(),
            items: vec![
                AsmItem::Inst(MInst::Ba { disp: 0 }, Some(Reloc::Disp(SymRef::Label(l)))),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
                AsmItem::Label(l),
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
        });
        let prog = p.assemble().unwrap();
        let main_addr = prog.symbol("main").unwrap();
        match prog.fetch(main_addr) {
            Some(TextWord::Inst(MInst::Ba { disp })) => assert_eq!(*disp, 2),
            other => panic!("expected ba, got {other:?}"),
        }
    }

    #[test]
    fn block_table_retains_function_entries_and_labels() {
        let mut p = AsmProgram::new(Machine::Baseline);
        let l = Label(0);
        p.funcs.push(AsmFunc {
            name: "main".to_string(),
            items: vec![
                AsmItem::Inst(MInst::Ba { disp: 0 }, Some(Reloc::Disp(SymRef::Label(l)))),
                AsmItem::Inst(MInst::Nop { br: 0 }, None),
                AsmItem::Label(l),
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
        });
        let prog = p.assemble().unwrap();
        // _start entry, main entry, main's bound label — sorted by word.
        let names: Vec<String> = prog.blocks.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["_start", "main", "main.L0"]);
        assert!(prog.blocks.windows(2).all(|w| w[0].word <= w[1].word));
        // The label mark sits two words into main.
        let main_addr = prog.symbol("main").unwrap();
        assert_eq!(prog.block_at(main_addr + 8).unwrap().name(), "main.L0");
        assert_eq!(prog.block_at(main_addr + 4).unwrap().name(), "main");
        // Every text word attributes to some block.
        for w in 0..prog.text.len() as u32 {
            assert!(prog.block_at(abi::TEXT_BASE + 4 * w).is_some());
        }
    }

    #[test]
    fn data_symbols_are_laid_out_with_alignment() {
        let mut p = AsmProgram::new(Machine::BranchReg);
        p.funcs.push(ret42(Machine::BranchReg));
        p.data.push(DataItem {
            name: "c".into(),
            align: 1,
            bytes: vec![1],
        });
        p.data.push(DataItem {
            name: "w".into(),
            align: 4,
            bytes: vec![2, 0, 0, 0],
        });
        let prog = p.assemble().unwrap();
        assert_eq!(prog.symbol("c"), Some(abi::DATA_BASE));
        assert_eq!(prog.symbol("w"), Some(abi::DATA_BASE + 4));
        assert_eq!(prog.data.len(), 8);
        assert_eq!(prog.data[4], 2);
    }

    #[test]
    fn undefined_symbol_reported() {
        let mut p = AsmProgram::new(Machine::Baseline);
        let mut f = ret42(Machine::Baseline);
        f.items.insert(
            0,
            AsmItem::Inst(
                MInst::Sethi { rd: Reg(1), imm: 0 },
                Some(Reloc::Hi(SymRef::Data("nope".into()))),
            ),
        );
        p.funcs.push(f);
        assert_eq!(
            p.assemble().unwrap_err(),
            AsmError::Undefined("nope".into())
        );
    }

    #[test]
    fn word_abs_reloc_builds_jump_tables() {
        let mut p = AsmProgram::new(Machine::BranchReg);
        let l = Label(3);
        p.funcs.push(AsmFunc {
            name: "main".to_string(),
            items: vec![
                AsmItem::Label(l),
                AsmItem::Inst(
                    MInst::Alu {
                        op: AluOp::Add,
                        rd: Reg(1),
                        rs1: Reg(0),
                        src2: Src2::Imm(0),
                        br: 7,
                    },
                    None,
                ),
                AsmItem::Word(0, Some(Reloc::Abs(SymRef::Label(l)))),
            ],
        });
        let prog = p.assemble().unwrap();
        let main_addr = prog.symbol("main").unwrap();
        match prog.fetch(main_addr + 4) {
            Some(TextWord::Data(v)) => assert_eq!(*v, main_addr),
            other => panic!("expected data word, got {other:?}"),
        }
    }

    #[test]
    fn hi_lo_reconstruct_address() {
        // sethi+orlo on baseline against a data symbol at a known address.
        let mut p = AsmProgram::new(Machine::Baseline);
        let mut f = ret42(Machine::Baseline);
        f.items.insert(
            0,
            AsmItem::Inst(
                MInst::Sethi { rd: Reg(2), imm: 0 },
                Some(Reloc::Hi(SymRef::Data("g".into()))),
            ),
        );
        f.items.insert(
            1,
            AsmItem::Inst(
                MInst::Alu {
                    op: AluOp::OrLo,
                    rd: Reg(2),
                    rs1: Reg(2),
                    src2: Src2::Imm(0),
                    br: 0,
                },
                Some(Reloc::Lo(SymRef::Data("g".into()))),
            ),
        );
        p.funcs.push(f);
        p.data.push(DataItem {
            name: "g".into(),
            align: 4,
            bytes: vec![0; 4],
        });
        let prog = p.assemble().unwrap();
        let g = prog.symbol("g").unwrap();
        let main_addr = prog.symbol("main").unwrap();
        let (hi, lo) = match (prog.fetch(main_addr), prog.fetch(main_addr + 4)) {
            (
                Some(TextWord::Inst(MInst::Sethi { imm, .. })),
                Some(TextWord::Inst(MInst::Alu {
                    src2: Src2::Imm(lo),
                    ..
                })),
            ) => (*imm, *lo),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!((hi << 11) | lo as u32, g);
    }

    #[test]
    fn br_entry_stub_shape() {
        let mut p = AsmProgram::new(Machine::BranchReg);
        p.funcs.push(ret42(Machine::BranchReg));
        let prog = p.assemble().unwrap();
        // stub: sethi, bmovr, nop[br=1], halt
        match prog.fetch(abi::TEXT_BASE + 8) {
            Some(TextWord::Inst(MInst::Nop { br: 1 })) => {}
            other => panic!("expected nop carrier, got {other:?}"),
        }
        match prog.fetch(abi::TEXT_BASE + 12) {
            Some(TextWord::Inst(MInst::Halt)) => {}
            other => panic!("expected halt, got {other:?}"),
        }
        // The bmovr's hi/lo must reconstruct main's address.
        let main_addr = prog.symbol("main").unwrap();
        match (prog.fetch(abi::TEXT_BASE), prog.fetch(abi::TEXT_BASE + 4)) {
            (
                Some(TextWord::Inst(MInst::Sethi { imm, .. })),
                Some(TextWord::Inst(MInst::BMovR {
                    off, bd: BReg(1), ..
                })),
            ) => {
                assert_eq!((imm << 11) | *off as u32, main_addr);
            }
            other => panic!("unexpected stub {other:?}"),
        }
        let _ = Cc::Eq; // keep import used
    }
}
