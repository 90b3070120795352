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
//! * the NOP-out minimizer preserves a genuine wrong-code failure.

use br_torture::{check_rv32, generate_rv32, iter_seed, minimize_rv32, rv32};

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

#[test]
fn regression_corpus_replays_clean_with_verify() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/rv32");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hex"))
        .collect();
    entries.sort();
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
