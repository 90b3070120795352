//! On-disk artifact format for cached compilations.
//!
//! An artifact file is `b"BRA2"` + an FNV-1a 64 checksum + a body
//! holding everything needed to rebuild a [`Program`] and its
//! [`CodegenStats`]. The checksum covers the whole body, so a flipped
//! bit, truncated write, or partially overwritten file is detected on
//! load and the cache quarantines the file instead of serving garbage.
//!
//! The pre-decoded `text` segment is *not* stored: an instruction word
//! and a jump-table data word can carry identical bit patterns, so the
//! body records a data-word bitmap and the loader re-decodes every
//! non-data word through [`br_isa::decode`]. That also means a stale
//! artifact written by an older encoder fails loudly (decode error →
//! quarantine) rather than silently misexecuting.
//!
//! The data segment is stored sparsely: its length, a bitmap of its
//! 4 KiB chunks, and only the chunks that hold a non-zero byte.
//! Zero-initialised arrays are most of some programs' data (a 64 KiB
//! buffer is common), and the loader zero-fills them back.

use crate::wire::{fnv1a, Dec, Enc, WireError};
use br_core::CodegenStats;
use br_isa::{abi, BlockMark, Machine, Program, TextWord};

/// File magic: "branch-register artifact, version 2" (version 1 stored
/// the data segment densely).
pub const MAGIC: &[u8; 4] = b"BRA2";

/// Granule of the sparse data-segment encoding.
const DATA_CHUNK: usize = 4096;

/// Why an artifact failed to load. Every variant means "recompile";
/// the cache additionally quarantines the file for the corrupt ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file does not start with [`MAGIC`] — not an artifact at all,
    /// or a format-versioned one from a different encoder.
    BadMagic,
    /// The body checksum did not match: bit rot or a torn write.
    Checksum { expected: u64, found: u64 },
    /// The body parsed incompletely or inconsistently.
    Malformed(String),
    /// A text word failed instruction decode — the artifact was
    /// written for a different ISA revision.
    Decode(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "artifact: bad magic"),
            ArtifactError::Checksum { expected, found } => write!(
                f,
                "artifact: checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
            ArtifactError::Malformed(m) => write!(f, "artifact: malformed body: {m}"),
            ArtifactError::Decode(m) => write!(f, "artifact: undecodable text word: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<WireError> for ArtifactError {
    fn from(e: WireError) -> ArtifactError {
        ArtifactError::Malformed(e.0)
    }
}

fn machine_tag(m: Machine) -> u8 {
    match m {
        Machine::Baseline => 0,
        Machine::BranchReg => 1,
    }
}

/// Serialize a compiled program and its stats into artifact bytes.
/// The output is deterministic for a given input (symbols are sorted),
/// so identical compiles produce byte-identical artifacts.
pub fn serialize(prog: &Program, stats: &CodegenStats) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(machine_tag(prog.machine));
    e.u32(prog.entry);

    e.u32(prog.code.len() as u32);
    for &w in &prog.code {
        e.u32(w);
    }
    // Data-word bitmap: bit i set ⇔ text word i is embedded data.
    let mut bitmap = vec![0u8; prog.code.len().div_ceil(8)];
    for (i, w) in prog.text.iter().enumerate() {
        if matches!(w, TextWord::Data(_)) {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    e.bytes(&bitmap);

    // Data segment: length, bitmap of non-zero chunks, those chunks.
    e.u32(prog.data.len() as u32);
    let mut chunk_map = vec![0u8; prog.data.len().div_ceil(DATA_CHUNK).div_ceil(8)];
    let mut chunks = Vec::new();
    for (i, chunk) in prog.data.chunks(DATA_CHUNK).enumerate() {
        if chunk.iter().any(|&b| b != 0) {
            chunk_map[i / 8] |= 1 << (i % 8);
            chunks.extend_from_slice(chunk);
        }
    }
    e.bytes(&chunk_map);
    e.bytes(&chunks);

    let mut symbols: Vec<(&String, &u32)> = prog.symbols.iter().collect();
    symbols.sort();
    e.u32(symbols.len() as u32);
    for (name, &addr) in symbols {
        e.str(name);
        e.u32(addr);
    }

    e.u32(prog.blocks.len() as u32);
    for b in &prog.blocks {
        e.u32(b.word);
        e.str(&b.func);
        match b.label {
            None => e.u8(0),
            Some(l) => {
                e.u8(1);
                e.u32(l);
            }
        }
    }

    for v in [
        stats.slots_filled,
        stats.slots_noop,
        stats.carriers_useful,
        stats.carriers_replaced_by_calc,
        stats.carriers_noop,
        stats.hoisted_calcs,
    ] {
        e.u32(v);
    }

    seal(&e.finish())
}

/// Frame a body as an artifact file: magic, checksum, body.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Load an artifact, verifying magic and checksum, re-decoding the
/// text segment from code words. Counts read from the body reserve
/// nothing up front: a checksum-valid body may still claim `u32::MAX`
/// entries, and only reading them proves they are there.
pub fn deserialize(bytes: &[u8]) -> Result<(Program, CodegenStats), ArtifactError> {
    if bytes.len() < 12 || &bytes[..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let expected = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let body = &bytes[12..];
    let found = fnv1a(body);
    if found != expected {
        return Err(ArtifactError::Checksum { expected, found });
    }

    let mut d = Dec::new(body);
    let machine = match d.u8()? {
        0 => Machine::Baseline,
        1 => Machine::BranchReg,
        other => return Err(ArtifactError::Malformed(format!("bad machine tag {other}"))),
    };
    let entry = d.u32()?;

    let ncode = d.u32()? as usize;
    let mut code = Vec::new();
    for _ in 0..ncode {
        code.push(d.u32()?);
    }
    let bitmap = d.bytes()?;
    if bitmap.len() != ncode.div_ceil(8) {
        return Err(ArtifactError::Malformed(format!(
            "data bitmap holds {} bytes for {ncode} words",
            bitmap.len()
        )));
    }
    let mut text = Vec::with_capacity(code.len());
    for (i, &w) in code.iter().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            text.push(TextWord::Data(w));
        } else {
            let inst = br_isa::decode(machine, w)
                .map_err(|e| ArtifactError::Decode(format!("word {i}: {e}")))?;
            text.push(TextWord::Inst(inst));
        }
    }

    let data = sparse_data(&mut d)?;

    let nsyms = d.u32()? as usize;
    let mut symbols = std::collections::HashMap::new();
    for _ in 0..nsyms {
        let name = d.str()?;
        let addr = d.u32()?;
        symbols.insert(name, addr);
    }

    let nblocks = d.u32()? as usize;
    let mut blocks = Vec::new();
    for _ in 0..nblocks {
        let word = d.u32()?;
        let func = d.str()?;
        let label = match d.u8()? {
            0 => None,
            1 => Some(d.u32()?),
            other => return Err(ArtifactError::Malformed(format!("bad label tag {other}"))),
        };
        blocks.push(BlockMark { word, func, label });
    }

    let stats = CodegenStats {
        slots_filled: d.u32()?,
        slots_noop: d.u32()?,
        carriers_useful: d.u32()?,
        carriers_replaced_by_calc: d.u32()?,
        carriers_noop: d.u32()?,
        hoisted_calcs: d.u32()?,
    };
    d.done()?;

    Ok((
        Program {
            machine,
            code,
            text,
            data,
            entry,
            symbols,
            blocks,
        },
        stats,
    ))
}

/// Read the sparse data segment [`serialize`] writes. Its length is
/// checked against the memory map before anything is allocated, since
/// a checksum-valid body may still claim `u32::MAX` bytes.
fn sparse_data(d: &mut Dec<'_>) -> Result<Vec<u8>, ArtifactError> {
    let len = d.u32()?;
    if len > abi::MEM_SIZE - abi::DATA_BASE {
        return Err(ArtifactError::Malformed(format!(
            "data segment of {len} bytes exceeds memory"
        )));
    }
    let len = len as usize;
    let nchunks = len.div_ceil(DATA_CHUNK);
    let chunk_map = d.bytes()?;
    let chunks = d.bytes()?;
    if chunk_map.len() != nchunks.div_ceil(8) {
        return Err(ArtifactError::Malformed(format!(
            "data chunk bitmap holds {} bytes for {nchunks} chunks",
            chunk_map.len()
        )));
    }
    let mut data = vec![0u8; len];
    let (mut rest, mut present) = (chunks, 0);
    for (i, chunk) in data.chunks_mut(DATA_CHUNK).enumerate() {
        if chunk_map[i / 8] & (1 << (i % 8)) == 0 {
            continue;
        }
        let Some((head, tail)) = rest.split_at_checked(chunk.len()) else {
            return Err(ArtifactError::Malformed(format!(
                "data chunk {i} is past the {} stored bytes",
                chunks.len()
            )));
        };
        chunk.copy_from_slice(head);
        rest = tail;
        present += 1;
    }
    let marked: u32 = chunk_map.iter().map(|b| b.count_ones()).sum();
    if !rest.is_empty() || marked != present {
        return Err(ArtifactError::Malformed(
            "data chunks disagree with their bitmap".into(),
        ));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_core::{Experiment, Machine};

    fn compiled() -> (Program, CodegenStats) {
        // A program with a switch so the text segment contains real
        // jump-table data words — the case the bitmap exists for.
        let src = r#"
            int pick(int x) {
                switch (x) {
                    case 0: return 10;
                    case 1: return 22;
                    case 2: return 31;
                    case 3: return 44;
                    case 4: return 59;
                    default: return -1;
                }
            }
            int main() {
                int i; int acc;
                acc = 0;
                for (i = 0; i < 6; i = i + 1) acc = acc + pick(i);
                return acc;
            }
        "#;
        Experiment::new()
            .compile(src, Machine::BranchReg)
            .expect("fixture compiles")
    }

    #[test]
    fn roundtrip_preserves_program_and_stats() {
        let (prog, stats) = compiled();
        assert!(
            prog.text.iter().any(|w| matches!(w, TextWord::Data(_))),
            "fixture must embed jump-table data words"
        );
        let bytes = serialize(&prog, &stats);
        let (p2, s2) = deserialize(&bytes).expect("roundtrip");
        assert_eq!(p2.machine, prog.machine);
        assert_eq!(p2.code, prog.code);
        assert_eq!(p2.text, prog.text, "data words survive as data");
        assert_eq!(p2.data, prog.data);
        assert_eq!(p2.entry, prog.entry);
        assert_eq!(p2.symbols, prog.symbols);
        assert_eq!(p2.blocks, prog.blocks);
        assert_eq!(s2, stats);

        // Deserialized artifact runs identically to the original.
        let mut a = br_emu::Emulator::new(&prog);
        let mut b = br_emu::Emulator::new(&p2);
        assert_eq!(a.run(1_000_000).unwrap(), b.run(1_000_000).unwrap());
        assert_eq!(a.measurements(), b.measurements());
    }

    #[test]
    fn zero_data_chunks_are_not_stored_and_load_back_as_zeros() {
        let (mut prog, stats) = compiled();
        prog.data.clear();
        let empty = serialize(&prog, &stats).len();
        let mut data = vec![0u8; 5 * DATA_CHUNK + 100];
        data[3] = 1;
        // A zero chunk on each side, and a partial last chunk.
        data[3 * DATA_CHUNK + 7] = 2;
        data[5 * DATA_CHUNK + 99] = 3;
        prog.data = data;
        let bytes = serialize(&prog, &stats);
        let (p2, _) = deserialize(&bytes).expect("roundtrip");
        assert_eq!(p2.data, prog.data);
        // One bitmap byte for six chunks, and three chunks stored.
        assert_eq!(bytes.len() - empty, 1 + 2 * DATA_CHUNK + 100);
    }

    #[test]
    fn a_version_one_file_reads_as_bad_magic() {
        let (prog, stats) = compiled();
        let mut bytes = serialize(&prog, &stats);
        bytes[..4].copy_from_slice(b"BRA1");
        assert_eq!(deserialize(&bytes).unwrap_err(), ArtifactError::BadMagic);
    }

    #[test]
    fn serialization_is_deterministic() {
        let (prog, stats) = compiled();
        assert_eq!(serialize(&prog, &stats), serialize(&prog, &stats));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (prog, stats) = compiled();
        let bytes = serialize(&prog, &stats);
        // Flip one bit in a sample of positions across the file; the
        // loader must never return Ok (magic, checksum, or parse error).
        for pos in (0..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                deserialize(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let (prog, stats) = compiled();
        let bytes = serialize(&prog, &stats);
        for cut in [0, 3, 4, 11, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(deserialize(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn huge_counts_are_malformed_not_an_allocation_abort() {
        // Checksum-valid bodies that stop right after a count of
        // u32::MAX code words, data bytes, symbols, or block marks. The
        // zeros before it are the earlier fields, left empty: code
        // count, text bitmap, data length, chunk bitmap, chunks, symbol
        // count.
        for zeros in [0, 2, 5, 6] {
            let mut e = Enc::new();
            e.u8(0);
            e.u32(0);
            for _ in 0..zeros {
                e.u32(0);
            }
            e.u32(u32::MAX);
            assert!(
                matches!(
                    deserialize(&seal(&e.finish())),
                    Err(ArtifactError::Malformed(_))
                ),
                "count after {zeros} empty fields"
            );
        }
    }

    /// Where a body's code count, data length, symbol count and block
    /// count sit, each with the fewest bytes one of its entries takes,
    /// and where its stored data chunks sit.
    fn layout(body: &[u8]) -> ([(usize, usize); 4], std::ops::Range<usize>) {
        let u32_at = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
        let code = 5;
        let bitmap = code + 4 + 4 * u32_at(code);
        let data_len = bitmap + 4 + u32_at(bitmap);
        let chunk_map = data_len + 4;
        let chunks = chunk_map + 4 + u32_at(chunk_map);
        let symbols = chunks + 4 + u32_at(chunks);
        let mut blocks = symbols + 4;
        for _ in 0..u32_at(symbols) {
            blocks += 4 + u32_at(blocks) + 4;
        }
        // Code word; data byte; name length and address; mark word,
        // function name length and label tag.
        let counts = [(code, 4), (data_len, 1), (symbols, 8), (blocks, 9)];
        (counts, chunks + 4..symbols)
    }

    /// A checksum stops a mutated artifact before its body is decoded,
    /// so these mutations are re-sealed: each Test-scale suite binary,
    /// on both machines, with seeded single-bit flips, cut at every
    /// length (at a stride inside the stored data chunks), and with
    /// each count and the data length at 0, at `u32::MAX` and one past
    /// the body. Every input
    /// must load or give an `ArtifactError`, and every program that
    /// loads must validate and run at small fuel to a typed result,
    /// never a panic.
    #[test]
    fn resealed_mutations_load_and_run_without_panicking() {
        use br_workloads::rng::Rng64;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let exp = Experiment {
            fuel: 10_000,
            ..Experiment::new()
        };
        let mut bodies = Vec::new();
        for w in br_core::suite(br_core::Scale::Test) {
            for m in [Machine::Baseline, Machine::BranchReg] {
                let (prog, stats) = exp.compile(&w.source, m).expect("suite compiles");
                bodies.push((
                    format!("{} on {m:?}", w.name),
                    serialize(&prog, &stats)[12..].to_vec(),
                ));
            }
        }
        let (mut loaded, mut checked) = (0, 0);
        let mut check = |body: &[u8], what: &dyn Fn() -> String| {
            checked += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (prog, stats) = deserialize(&seal(body)).ok()?;
                let _ = prog.validate_image();
                let _ = exp.run_program(&prog, stats);
                Some(())
            }));
            match outcome {
                Ok(run) => loaded += usize::from(run.is_some()),
                Err(_) => panic!("{} panicked", what()),
            }
        };
        for (name, body) in &bodies {
            let (counts, data) = layout(body);
            // The loader takes the stored data chunks as one slice, so
            // every cut inside it fails at the same read: a stride
            // covers them and keeps the test fast.
            let cuts =
                (0..body.len()).filter(|cut| !data.contains(cut) || (cut - data.start) % 4096 == 0);
            for cut in cuts {
                check(&body[..cut], &|| format!("{name} cut at {cut}"));
            }
            for (at, entry) in counts {
                let past = (body.len() - at - 4) / entry + 1;
                for v in [0, u32::MAX, past as u32] {
                    let mut m = body.clone();
                    m[at..at + 4].copy_from_slice(&v.to_le_bytes());
                    check(&m, &|| format!("{name} with the count at {at} set to {v}"));
                }
            }
        }
        for seed in 0..6 {
            let mut rng = Rng64::seed_from_u64(seed);
            for (name, body) in &bodies {
                for _ in 0..16 {
                    let bit = rng.random_range(0..8 * body.len());
                    let mut m = body.clone();
                    m[bit / 8] ^= 1 << (bit % 8);
                    check(&m, &|| {
                        format!("{name} with bit {bit} flipped (seed {seed})")
                    });
                }
            }
        }
        // The flips must reach the loader's success path, not only its
        // errors.
        assert!(loaded > 0, "none of {checked} mutations loaded");
    }

    #[test]
    fn error_displays_are_self_contained() {
        let errs = [
            ArtifactError::BadMagic,
            ArtifactError::Checksum {
                expected: 1,
                found: 2,
            },
            ArtifactError::Malformed("x".into()),
            ArtifactError::Decode("y".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(s.starts_with("artifact: "), "{s}");
            assert!(!s.contains("{:?}"));
        }
    }
}
