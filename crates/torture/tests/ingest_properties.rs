//! Property tests for the RV32I ingest path — the acceptance gate for
//! the foreign-ISA translator:
//!
//! * 1000 seeded instruction streams execute with **zero divergence**
//!   across the reference interpreter, the translated baseline binary,
//!   and the translated branch-register binary (exit value, full final
//!   guest memory, and the guest store-event stream all equal);
//! * every image in the checked-in regression corpus
//!   (`tests/corpus/rv32/*.hex`) replays clean with the stage verifier
//!   on;
//! * the NOP-out minimizer preserves a genuine wrong-code failure;
//! * mutated `.hex` text never panics `Rv32Program::from_hex` or
//!   `br_ingest::translate`: every input gets a typed error or `Ok`.

use br_torture::{check_rv32, generate_rv32, iter_seed, minimize_rv32, rv32};
use br_workloads::rng::Rng64;

const FUEL: u64 = 1 << 20;

#[test]
fn thousand_seeded_streams_have_zero_divergence() {
    let idxs: Vec<u64> = (0..1000).collect();
    let jobs = br_core::parallel::available_jobs();
    let results = br_core::parallel::map_ordered(&idxs, jobs, |_, &i| {
        let seed = iter_seed(0x1256_CA5E, i);
        let prog = generate_rv32(seed);
        check_rv32(&prog, FUEL, false).map_err(|d| (seed, d))
    });
    let mut ref_steps = 0u64;
    for r in results {
        let a = r.unwrap_or_else(|(seed, d)| {
            panic!(
                "seed {seed:#x} diverged: {d}\nreplay: cargo run -p br-torture -- \
                 --rv32 --seed {seed:#x} --iters 1"
            )
        });
        ref_steps += a.ref_steps;
    }
    assert!(
        ref_steps > 10_000,
        "streams did too little work: {ref_steps}"
    );
}

/// The checked-in regression corpus, sorted by path.
fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/rv32");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hex"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn regression_corpus_replays_clean_with_verify() {
    let entries = corpus_files();
    assert!(entries.len() >= 4, "corpus unexpectedly small: {entries:?}");
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let prog = br_ingest::Rv32Program::from_hex(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        check_rv32(&prog, FUEL, true).unwrap_or_else(|d| panic!("{}: {d}", path.display()));
    }
}

#[test]
fn minimizer_preserves_a_real_wrong_code_failure() {
    // Negating the first compare-and-branch of the BR binary is a real
    // miscompile; find a seed whose program witnesses it, then shrink.
    let nop = br_ingest::rv32::encode(br_ingest::rv32::asm::nop());
    for i in 0..60u64 {
        let prog = generate_rv32(iter_seed(0x313_713, i));
        if !rv32::sabotaged_rv32_misbehaves(&prog, FUEL) {
            continue;
        }
        let min = minimize_rv32(&prog, |p| rv32::sabotaged_rv32_misbehaves(p, FUEL));
        assert!(
            rv32::sabotaged_rv32_misbehaves(&min, FUEL),
            "minimized program no longer witnesses the miscompile"
        );
        assert_eq!(
            min.words.len(),
            prog.words.len(),
            "minimizer must not resize"
        );
        let nops = min.words.iter().filter(|&&w| w == nop).count();
        assert!(nops > 0, "nothing was minimized away");
        return;
    }
    panic!("no sabotage-detectable program in 60 seeds");
}

/// `from_hex`, then `translate` on what it accepts: a typed error or
/// `Ok`, never a panic. Returns whether both stages accepted the text.
fn ingest(what: &str, text: &str) -> bool {
    let outcome = std::panic::catch_unwind(|| {
        br_ingest::Rv32Program::from_hex(text)
            .and_then(|p| br_ingest::translate(&p))
            .is_ok()
    });
    outcome.unwrap_or_else(|_| panic!("{what} panicked the ingest path on:\n{text}"))
}

/// `lines` with line `i` replaced by `with`, joined back into text.
fn splice(lines: &[&str], i: usize, with: &[&str]) -> String {
    let mut out = String::new();
    for l in lines[..i].iter().chain(with).chain(&lines[i + 1..]) {
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[test]
fn mutated_hex_images_never_panic_the_ingest_path() {
    let mut images: Vec<(String, String)> = br_ingest::workloads::all()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p.to_hex()))
        .collect();
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        images.push((path.display().to_string(), text));
    }
    assert!(!ingest("the empty image", ""));
    assert!(!ingest("a comment-only image", "# rv32 text\n\n"));

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut tally = |ok: bool| {
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    };
    for (name, text) in &images {
        assert!(ingest(name, text), "{name}: the unmutated image ingests");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            // Drop the line, then duplicate it.
            let dropped = splice(&lines, i, &[]);
            tally(ingest(&format!("{name}: drop line {i}"), &dropped));
            let dup = splice(&lines, i, &[line, line]);
            tally(ingest(&format!("{name}: duplicate line {i}"), &dup));
            // Every bit of the line's word, flipped.
            let body = line.split('#').next().unwrap_or("").trim();
            if let Ok(word) = u32::from_str_radix(body, 16) {
                for bit in 0..32 {
                    let flipped = format!("{:08x}", word ^ (1 << bit));
                    let what = format!("{name}: line {i} bit {bit}");
                    tally(ingest(&what, &splice(&lines, i, &[&flipped])));
                }
            }
        }
        // Six seeds pick where each line is truncated, and stack a few
        // drops, duplicates and bit flips into one image.
        for s in 0..6u64 {
            let mut rng = Rng64::seed_from_u64(iter_seed(0x4E57_1BAD, s));
            for (i, line) in lines.iter().enumerate() {
                let mut cut = rng.random_range(0..line.len() + 1);
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                let what = format!("{name}: seed {s} line {i} cut at {cut}");
                tally(ingest(&what, &splice(&lines, i, &[&line[..cut]])));
            }
            let mut stacked: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            for _ in 0..rng.random_range(2..6usize) {
                let i = rng.random_range(0..stacked.len());
                match rng.random_range(0..3u32) {
                    0 if stacked.len() > 1 => {
                        stacked.remove(i);
                    }
                    1 => stacked.insert(i, stacked[i].clone()),
                    _ => {
                        let body = stacked[i].split('#').next().unwrap_or("").trim();
                        if let Ok(word) = u32::from_str_radix(body, 16) {
                            let bit = rng.random_range(0..32u32);
                            stacked[i] = format!("{:08x}", word ^ (1 << bit));
                        }
                    }
                }
            }
            let what = format!("{name}: seed {s} stacked mutations");
            tally(ingest(&what, &(stacked.join("\n") + "\n")));
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "mutations should both pass and fail ingest: {accepted} accepted, {rejected} rejected"
    );
}
