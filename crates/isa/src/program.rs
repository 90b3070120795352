//! Loadable program images produced by the assembler.

use std::collections::HashMap;
use std::fmt;

use crate::minst::MInst;
use crate::{abi, Machine};

/// Why a program image fails structural validation.
///
/// These are loader-grade checks: every image the assembler emits must
/// pass, and any image an emulator or profiler is handed should be run
/// through [`Program::validate_image`] first so corruption surfaces as a
/// typed error here rather than as a panic (or silent misattribution)
/// deeper in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// `code` and `text` are not parallel — the image was truncated or
    /// corrupted after assembly.
    TruncatedText {
        /// Encoded words present.
        code: usize,
        /// Decoded words present.
        text: usize,
    },
    /// The entry address is not word-aligned.
    UnalignedEntry { entry: u32 },
    /// The entry address lies outside the text segment.
    EntryOutOfRange { entry: u32, end: u32 },
    /// A block mark points past the last text word.
    BlockMarkOutOfRange {
        /// `BlockMark::name()` of the offending mark.
        name: String,
        /// Its claimed word index.
        word: u32,
        /// Text words actually present.
        words: usize,
    },
    /// A pc-relative control transfer targets an address outside text.
    BranchTargetOutOfRange {
        /// Address of the branch instruction.
        addr: u32,
        /// Where it would transfer to.
        target: i64,
        /// End of the text segment.
        end: u32,
    },
    /// The text segment ends past [`abi::DATA_BASE`], so loading the
    /// data segment would overwrite it.
    TextPastDataBase {
        /// Address just past the last text word.
        end: u64,
    },
    /// The data segment ends past [`abi::STACK_TOP`].
    DataPastStackTop {
        /// Address just past the last data byte.
        end: u64,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::TruncatedText { code, text } => write!(
                f,
                "image truncated: {code} encoded words but {text} decoded words"
            ),
            ImageError::UnalignedEntry { entry } => {
                write!(f, "entry address {entry:#x} is not 4-byte aligned")
            }
            ImageError::EntryOutOfRange { entry, end } => write!(
                f,
                "entry address {entry:#x} is outside the text segment [{:#x}, {end:#x})",
                abi::TEXT_BASE
            ),
            ImageError::BlockMarkOutOfRange { name, word, words } => write!(
                f,
                "block mark `{name}` claims word {word} but the image has {words} text words"
            ),
            ImageError::BranchTargetOutOfRange { addr, target, end } => write!(
                f,
                "branch at {addr:#x} targets {target:#x}, outside the text segment [{:#x}, {end:#x})",
                abi::TEXT_BASE
            ),
            ImageError::TextPastDataBase { end } => write!(
                f,
                "text segment ends at {end:#x}, past the data segment base {:#x}",
                abi::DATA_BASE
            ),
            ImageError::DataPastStackTop { end } => write!(
                f,
                "data segment ends at {end:#x}, past the stack top {:#x}",
                abi::STACK_TOP
            ),
        }
    }
}

impl std::error::Error for ImageError {}

/// One word of the text segment: an instruction or embedded data
/// (jump tables live in text, as in the paper's indirect-jump example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TextWord {
    /// A decoded instruction.
    Inst(MInst),
    /// A raw data word (never executed).
    Data(u32),
}

/// One emitted code region retained from the assembler's label table: a
/// function entry or a bound label inside a function. Profilers use these
/// to attribute an executed address back to the block codegen emitted it
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMark {
    /// Index of the region's first text word (`addr = TEXT_BASE + 4*word`).
    pub word: u32,
    /// Name of the owning function.
    pub func: String,
    /// Emitted label id within the function; `None` marks the function
    /// entry itself.
    pub label: Option<u32>,
}

impl BlockMark {
    /// Address of the region's first instruction.
    pub fn addr(&self) -> u32 {
        abi::TEXT_BASE + self.word * 4
    }

    /// Human-readable `func` or `func.Ln` name.
    pub fn name(&self) -> String {
        match self.label {
            None => self.func.clone(),
            Some(l) => format!("{}.L{l}", self.func),
        }
    }
}

/// A fully assembled program ready to load into an emulator.
#[derive(Debug, Clone)]
pub struct Program {
    /// The target machine.
    pub machine: Machine,
    /// Encoded text segment, one `u32` per word, loaded at
    /// [`abi::TEXT_BASE`].
    pub code: Vec<u32>,
    /// Pre-decoded text (parallel to `code`), so emulation need not
    /// re-decode on every fetch.
    pub text: Vec<TextWord>,
    /// Data segment, loaded at [`abi::DATA_BASE`].
    pub data: Vec<u8>,
    /// Entry address (the synthesized `_start` stub).
    pub entry: u32,
    /// Function and global symbol addresses.
    pub symbols: HashMap<String, u32>,
    /// Emitted code regions (function entries and bound labels), sorted
    /// by text-word index — the assembler's pass-1 label table, retained
    /// for profile attribution.
    pub blocks: Vec<BlockMark>,
}

impl Program {
    /// Base address of the text segment.
    pub fn text_base(&self) -> u32 {
        abi::TEXT_BASE
    }

    /// Address just past the last text word.
    pub fn text_end(&self) -> u32 {
        abi::TEXT_BASE + (self.code.len() * 4) as u32
    }

    /// The decoded text word at `addr`, if it is inside the text segment.
    pub fn fetch(&self, addr: u32) -> Option<&TextWord> {
        if addr < abi::TEXT_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        self.text.get(((addr - abi::TEXT_BASE) / 4) as usize)
    }

    /// Address of a symbol.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The emitted code region containing `addr`: the last block mark at
    /// or before it. `None` outside the text segment or when the program
    /// carries no block table.
    pub fn block_at(&self, addr: u32) -> Option<&BlockMark> {
        if addr < abi::TEXT_BASE || !addr.is_multiple_of(4) || addr >= self.text_end() {
            return None;
        }
        let word = (addr - abi::TEXT_BASE) / 4;
        let n = self.blocks.partition_point(|b| b.word <= word);
        self.blocks[..n].last()
    }

    /// Check that the image fits the memory map: text ends at or below
    /// [`abi::DATA_BASE`] and data at or below [`abi::STACK_TOP`]. This
    /// is the part of [`Program::validate_image`] that loading needs.
    ///
    /// # Errors
    ///
    /// [`ImageError::TextPastDataBase`] or
    /// [`ImageError::DataPastStackTop`].
    pub fn check_layout(&self) -> Result<(), ImageError> {
        let text_end = abi::TEXT_BASE as u64 + 4 * self.code.len() as u64;
        if text_end > abi::DATA_BASE as u64 {
            return Err(ImageError::TextPastDataBase { end: text_end });
        }
        let data_end = abi::DATA_BASE as u64 + self.data.len() as u64;
        if data_end > abi::STACK_TOP as u64 {
            return Err(ImageError::DataPastStackTop { end: data_end });
        }
        Ok(())
    }

    /// Structurally validate the image: parallel `code`/`text`, segments
    /// inside the memory map, aligned in-range entry, in-range block
    /// marks, and every pc-relative control transfer landing inside the
    /// text segment.
    ///
    /// Indirect transfers (`jmpl`, branch-register jumps) are runtime
    /// properties and are checked by the emulator, not here.
    ///
    /// # Errors
    ///
    /// The first [`ImageError`] found, scanning header then marks then
    /// text in address order.
    pub fn validate_image(&self) -> Result<(), ImageError> {
        if self.code.len() != self.text.len() {
            return Err(ImageError::TruncatedText {
                code: self.code.len(),
                text: self.text.len(),
            });
        }
        self.check_layout()?;
        let end = self.text_end();
        if !self.entry.is_multiple_of(4) {
            return Err(ImageError::UnalignedEntry { entry: self.entry });
        }
        if self.entry < abi::TEXT_BASE || self.entry >= end {
            return Err(ImageError::EntryOutOfRange {
                entry: self.entry,
                end,
            });
        }
        for b in &self.blocks {
            if b.word as usize >= self.text.len() {
                return Err(ImageError::BlockMarkOutOfRange {
                    name: b.name(),
                    word: b.word,
                    words: self.text.len(),
                });
            }
        }
        for (i, w) in self.text.iter().enumerate() {
            let addr = abi::TEXT_BASE + 4 * i as u32;
            let disp = match w {
                TextWord::Inst(
                    MInst::Bcc { disp, .. }
                    | MInst::Ba { disp }
                    | MInst::Call { disp }
                    | MInst::Bcalc { disp, .. },
                ) => *disp,
                _ => continue,
            };
            let target = addr as i64 + 4 * disp as i64;
            if target < abi::TEXT_BASE as i64 || target >= end as i64 {
                return Err(ImageError::BranchTargetOutOfRange { addr, target, end });
            }
        }
        Ok(())
    }

    /// Number of static instructions (excluding embedded data words).
    pub fn static_inst_count(&self) -> usize {
        self.text
            .iter()
            .filter(|w| matches!(w, TextWord::Inst(_)))
            .count()
    }

    /// Produce a human-readable listing (addresses, encodings, RTLs),
    /// annotated with symbol names — handy for examples and debugging.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut by_addr: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, &addr) in &self.symbols {
            by_addr.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (i, (w, enc)) in self.text.iter().zip(&self.code).enumerate() {
            let addr = abi::TEXT_BASE + (i * 4) as u32;
            if let Some(names) = by_addr.get(&addr) {
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            match w {
                TextWord::Inst(inst) => {
                    let _ = writeln!(out, "  {addr:#07x}: {enc:08x}  {inst}");
                }
                TextWord::Data(v) => {
                    let _ = writeln!(out, "  {addr:#07x}: {enc:08x}  .word {v:#x}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        Program {
            machine: Machine::Baseline,
            code: vec![crate::encode(Machine::Baseline, MInst::Halt).unwrap()],
            text: vec![TextWord::Inst(MInst::Halt)],
            data: vec![],
            entry: abi::TEXT_BASE,
            symbols: [("_start".to_string(), abi::TEXT_BASE)].into(),
            blocks: vec![BlockMark {
                word: 0,
                func: "_start".to_string(),
                label: None,
            }],
        }
    }

    #[test]
    fn fetch_bounds() {
        let p = tiny();
        assert!(p.fetch(abi::TEXT_BASE).is_some());
        assert!(p.fetch(abi::TEXT_BASE + 4).is_none());
        assert!(p.fetch(abi::TEXT_BASE - 4).is_none());
        assert!(p.fetch(abi::TEXT_BASE + 1).is_none());
        assert_eq!(p.text_end(), abi::TEXT_BASE + 4);
    }

    #[test]
    fn listing_contains_symbols_and_rtl() {
        let p = tiny();
        let l = p.listing();
        assert!(l.contains("_start:"));
        assert!(l.contains("halt"));
    }

    #[test]
    fn static_inst_count_skips_data() {
        let mut p = tiny();
        p.text.push(TextWord::Data(0x1234));
        p.code.push(0x1234);
        assert_eq!(p.static_inst_count(), 1);
    }

    #[test]
    fn validate_accepts_a_well_formed_image() {
        assert_eq!(tiny().validate_image(), Ok(()));
    }

    #[test]
    fn validate_rejects_truncated_text() {
        let mut p = tiny();
        p.code.push(0); // encoded word with no decoded counterpart
        assert_eq!(
            p.validate_image(),
            Err(ImageError::TruncatedText { code: 2, text: 1 })
        );
        let msg = p.validate_image().unwrap_err().to_string();
        assert!(msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn validate_rejects_unaligned_entry() {
        let mut p = tiny();
        p.entry = abi::TEXT_BASE + 2;
        assert_eq!(
            p.validate_image(),
            Err(ImageError::UnalignedEntry {
                entry: abi::TEXT_BASE + 2
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_entry() {
        let mut p = tiny();
        p.entry = p.text_end(); // one past the last word
        assert!(matches!(
            p.validate_image(),
            Err(ImageError::EntryOutOfRange { .. })
        ));
        p.entry = abi::TEXT_BASE - 4;
        assert!(matches!(
            p.validate_image(),
            Err(ImageError::EntryOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_block_mark_past_text() {
        let mut p = tiny();
        p.blocks.push(BlockMark {
            word: 1,
            func: "ghost".to_string(),
            label: Some(3),
        });
        let err = p.validate_image().unwrap_err();
        assert_eq!(
            err,
            ImageError::BlockMarkOutOfRange {
                name: "ghost.L3".to_string(),
                word: 1,
                words: 1,
            }
        );
        assert!(err.to_string().contains("ghost.L3"), "{err}");
    }

    #[test]
    fn validate_rejects_segments_outside_the_memory_map() {
        // Text may fill every word below DATA_BASE, but not one more.
        let halt = crate::encode(Machine::Baseline, MInst::Halt).unwrap();
        let mut p = tiny();
        let words = ((abi::DATA_BASE - abi::TEXT_BASE) / 4) as usize;
        p.code = vec![halt; words];
        p.text = vec![TextWord::Inst(MInst::Halt); words];
        assert_eq!(p.validate_image(), Ok(()));
        p.code.push(halt);
        p.text.push(TextWord::Inst(MInst::Halt));
        let err = p.validate_image().unwrap_err();
        let end = abi::DATA_BASE as u64 + 4;
        assert_eq!(err, ImageError::TextPastDataBase { end });
        assert!(err.to_string().contains("data segment base"), "{err}");

        // Data may end at STACK_TOP, but not one byte past it.
        let mut p = tiny();
        p.data = vec![0; (abi::STACK_TOP - abi::DATA_BASE) as usize];
        assert_eq!(p.validate_image(), Ok(()));
        p.data.push(0);
        let err = p.validate_image().unwrap_err();
        let end = abi::STACK_TOP as u64 + 1;
        assert_eq!(err, ImageError::DataPastStackTop { end });
        assert!(err.to_string().contains("past the stack top"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_branch_targets() {
        // Forward past the end, and backward before the base — for each
        // pc-relative transfer kind.
        for inst in [
            MInst::Ba { disp: 99 },
            MInst::Ba { disp: -99 },
            MInst::Call { disp: 1000 },
            MInst::Bcc {
                cc: crate::minst::Cc::Eq,
                float: false,
                disp: -1000,
            },
        ] {
            let mut p = tiny();
            p.text.insert(0, TextWord::Inst(inst));
            p.code.insert(0, 0);
            assert!(
                matches!(
                    p.validate_image(),
                    Err(ImageError::BranchTargetOutOfRange { .. })
                ),
                "{inst:?} should be rejected"
            );
        }
        // An embedded data word is never a branch, whatever its bits.
        let mut p = tiny();
        p.text.insert(0, TextWord::Data(0xFFFF_FFFF));
        p.code.insert(0, 0xFFFF_FFFF);
        p.entry = abi::TEXT_BASE + 4;
        assert_eq!(p.validate_image(), Ok(()));
    }

    #[test]
    fn block_at_picks_the_enclosing_mark() {
        let mut p = tiny();
        // Extend the program: words 0..4, marks at words 0 and 2.
        for _ in 0..3 {
            p.text.push(TextWord::Inst(MInst::Halt));
            p.code
                .push(crate::encode(Machine::Baseline, MInst::Halt).unwrap());
        }
        p.blocks.push(BlockMark {
            word: 2,
            func: "main".to_string(),
            label: Some(5),
        });
        let at = |off: u32| p.block_at(abi::TEXT_BASE + off).map(|b| b.name());
        assert_eq!(at(0).as_deref(), Some("_start"));
        assert_eq!(at(4).as_deref(), Some("_start"));
        assert_eq!(at(8).as_deref(), Some("main.L5"));
        assert_eq!(at(12).as_deref(), Some("main.L5"));
        assert_eq!(at(16), None, "past text end");
        assert_eq!(p.block_at(abi::TEXT_BASE + 2), None, "unaligned");
        assert_eq!(p.block_at(abi::TEXT_BASE - 4), None, "below text");
        assert_eq!(
            p.block_at(abi::TEXT_BASE + 8).unwrap().addr(),
            abi::TEXT_BASE + 8
        );
    }
}
