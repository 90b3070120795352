//! br-ingest: a translator from a flat RV32I subset into baseline-machine IR.
//!
//! The repo's two study machines (baseline RISC and branch-register RISC)
//! so far only ran code produced by the MiniC frontend.  This crate ingests
//! a *foreign* ISA — a flat RV32I text segment — and lowers it to `br_ir`
//! so translated binaries flow through the existing isel → regalloc →
//! hoist → emit pipeline and execute on both machines.
//!
//! Supported subset (see INGEST.md for the boundary rationale):
//!
//! * integer ALU: `add sub sll slt sltu xor srl sra or and` and their
//!   immediate forms (`addi slti sltiu xori ori andi slli srli srai`)
//! * `lui`, `auipc` (pc is static, so auipc folds to a constant)
//! * loads/stores: `lb lh lw lbu lhu sb sh sw` against a private, zeroed
//!   64 KiB memory (addresses are masked, so every access is in bounds)
//! * branches: `beq bne blt bge bltu bgeu`
//! * `jal`, `jalr` (indirect jumps go through a dispatch switch over the
//!   text segment; misaligned or out-of-range targets trap)
//! * `ecall` halts the program with the value of `x10`/`a0`
//!
//! Everything else (`fence`, `ebreak`, CSRs, the M extension, RV64) is
//! rejected up front with a typed [`IngestError`] — never a panic.

pub mod interp;
pub mod rv32;
pub mod translate;
pub mod workloads;

use std::fmt;

/// Address of the first text word in the guest address space.  Nonzero so
/// that a `jalr` through an uninitialised (zero) register traps instead of
/// silently re-entering the program.
pub const RV_TEXT_BASE: u32 = 0x1000;

/// Size of the guest data memory in bytes.  Power of two: effective
/// addresses are masked with `RV_MEM_BYTES - 1`, making every access legal
/// and keeping the reference interpreter and the translated code
/// byte-for-byte equivalent.
pub const RV_MEM_BYTES: u32 = 0x1_0000;

/// Exit value produced when a translated program traps (misaligned or
/// out-of-range `jalr`, or control falling off the end of the text
/// segment).  The reference interpreter returns the same sentinel so traps
/// are themselves differential-tested.
pub const TRAP_EXIT: i32 = 0x0BAD_CA11;

/// Typed ingest failure.  Everything the translator can reject is listed
/// here; the variants carry enough context to locate the offending word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The raw image's byte length is not a multiple of 4.
    Truncated { bytes: usize },
    /// The image decoded to zero text words.
    EmptyText,
    /// The entry point is not 4-byte aligned.
    UnalignedEntry { entry: u32 },
    /// The entry point lies outside `[RV_TEXT_BASE, text end)`.
    EntryOutOfRange { entry: u32, end: u32 },
    /// The word at `pc` is not a legal encoding of the supported subset.
    BadWord { pc: u32, word: u32 },
    /// The word at `pc` is legal RV32 but outside the supported subset.
    Unsupported {
        pc: u32,
        word: u32,
        what: &'static str,
    },
    /// A line of a `.hex` corpus file did not parse.
    Corpus { line: usize, msg: String },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Truncated { bytes } => write!(
                f,
                "rv32 image truncated: {bytes} bytes is not a whole number of 32-bit words"
            ),
            IngestError::EmptyText => write!(f, "rv32 image has no text words"),
            IngestError::UnalignedEntry { entry } => {
                write!(f, "rv32 entry point {entry:#x} is not 4-byte aligned")
            }
            IngestError::EntryOutOfRange { entry, end } => write!(
                f,
                "rv32 entry point {entry:#x} outside text [{RV_TEXT_BASE:#x}, {end:#x})"
            ),
            IngestError::BadWord { pc, word } => {
                write!(f, "illegal rv32 instruction {word:#010x} at pc {pc:#x}")
            }
            IngestError::Unsupported { pc, word, what } => write!(
                f,
                "unsupported rv32 instruction {word:#010x} at pc {pc:#x}: {what}"
            ),
            IngestError::Corpus { line, msg } => {
                write!(f, "rv32 corpus line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// A flat RV32I program: a text segment of raw instruction words starting
/// at [`RV_TEXT_BASE`], plus an entry address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rv32Program {
    pub words: Vec<u32>,
    pub entry: u32,
}

impl Rv32Program {
    /// Program entered at the first text word.
    pub fn new(words: Vec<u32>) -> Self {
        Rv32Program {
            words,
            entry: RV_TEXT_BASE,
        }
    }

    /// Address one past the last text word.
    pub fn text_end(&self) -> u32 {
        RV_TEXT_BASE + 4 * self.words.len() as u32
    }

    /// Decode a little-endian raw image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IngestError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(IngestError::Truncated { bytes: bytes.len() });
        }
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        if words.is_empty() {
            return Err(IngestError::EmptyText);
        }
        Ok(Rv32Program::new(words))
    }

    /// Parse the `.hex` corpus format: one 8-hex-digit word per line,
    /// `#` starts a comment, blank lines ignored.
    pub fn from_hex(text: &str) -> Result<Self, IngestError> {
        let mut words = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.len() != 8 || !line.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(IngestError::Corpus {
                    line: i + 1,
                    msg: format!("expected 8 hex digits, got {line:?}"),
                });
            }
            let w = u32::from_str_radix(line, 16).map_err(|e| IngestError::Corpus {
                line: i + 1,
                msg: e.to_string(),
            })?;
            words.push(w);
        }
        if words.is_empty() {
            return Err(IngestError::EmptyText);
        }
        Ok(Rv32Program::new(words))
    }

    /// Render to the `.hex` corpus format with a disassembly comment per
    /// word.  `from_hex(to_hex(p)) == p` for any program entered at the
    /// text base.
    pub fn to_hex(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# rv32 text, entry {:#x}", self.entry);
        for (i, &w) in self.words.iter().enumerate() {
            let pc = RV_TEXT_BASE + 4 * i as u32;
            match rv32::decode(w) {
                Ok(inst) => {
                    let _ = writeln!(out, "{w:08x}  # {pc:#x}: {inst}");
                }
                Err(_) => {
                    let _ = writeln!(out, "{w:08x}  # {pc:#x}: <illegal>");
                }
            }
        }
        out
    }

    /// Validate the image header invariants (entry alignment and range,
    /// non-empty text).  Word legality is checked by `translate`.
    pub fn validate(&self) -> Result<(), IngestError> {
        if self.words.is_empty() {
            return Err(IngestError::EmptyText);
        }
        if !self.entry.is_multiple_of(4) {
            return Err(IngestError::UnalignedEntry { entry: self.entry });
        }
        if self.entry < RV_TEXT_BASE || self.entry >= self.text_end() {
            return Err(IngestError::EntryOutOfRange {
                entry: self.entry,
                end: self.text_end(),
            });
        }
        Ok(())
    }
}

pub use translate::translate;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_rejects_truncated_images() {
        for n in [1usize, 2, 3, 5, 7] {
            let e = Rv32Program::from_bytes(&vec![0u8; n]).unwrap_err();
            assert_eq!(e, IngestError::Truncated { bytes: n });
        }
    }

    #[test]
    fn from_bytes_rejects_empty_images() {
        assert_eq!(
            Rv32Program::from_bytes(&[]).unwrap_err(),
            IngestError::EmptyText
        );
    }

    #[test]
    fn validate_rejects_bad_entries() {
        let mut p = Rv32Program::new(vec![0x0000_0013; 4]);
        p.entry = RV_TEXT_BASE + 2;
        assert!(matches!(
            p.validate(),
            Err(IngestError::UnalignedEntry { .. })
        ));
        p.entry = RV_TEXT_BASE + 16;
        assert!(matches!(
            p.validate(),
            Err(IngestError::EntryOutOfRange { .. })
        ));
        p.entry = 0;
        assert!(matches!(
            p.validate(),
            Err(IngestError::EntryOutOfRange { .. })
        ));
        p.entry = RV_TEXT_BASE;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn hex_roundtrip() {
        let p = Rv32Program::new(vec![0x0010_0093, 0x0000_0073, 0xdead_beef]);
        let q = Rv32Program::from_hex(&p.to_hex()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn hex_rejects_garbage() {
        let e = Rv32Program::from_hex("0010009\n").unwrap_err();
        assert!(matches!(e, IngestError::Corpus { line: 1, .. }));
        let e = Rv32Program::from_hex("# only comments\n\n").unwrap_err();
        assert_eq!(e, IngestError::EmptyText);
    }

    #[test]
    fn ingest_error_displays_are_self_contained() {
        let errs = [
            IngestError::Truncated { bytes: 7 },
            IngestError::EmptyText,
            IngestError::UnalignedEntry { entry: 0x1002 },
            IngestError::EntryOutOfRange {
                entry: 0,
                end: 0x1010,
            },
            IngestError::BadWord {
                pc: 0x1000,
                word: 0xffff_ffff,
            },
            IngestError::Unsupported {
                pc: 0x1004,
                word: 0x0000_100f,
                what: "fence",
            },
            IngestError::Corpus {
                line: 3,
                msg: "expected 8 hex digits".into(),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.contains("Some("), "debug leak in {s:?}");
            assert!(!s.contains("None"), "debug leak in {s:?}");
        }
    }
}
