//! Cache prefetch demo (Section 8): run one workload through the
//! instruction-cache simulator with and without branch-register
//! prefetching and compare fetch stalls and pollution.
//!
//! ```text
//! cargo run --example cache_prefetch [workload]
//! ```

use br_core::{by_name, CacheConfig, CacheStats, Experiment, ICacheSim, Machine, Scale};

fn main() -> Result<(), br_core::Error> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "puzzle".to_string());
    let w = by_name(&name, Scale::Test).unwrap_or_else(|| panic!("unknown workload '{name}'"));
    let exp = Experiment::new();

    // Use a deliberately tiny cache so misses matter.
    let small = CacheConfig {
        sets: 16,
        assoc: 2,
        line_words: 4,
        miss_penalty: 8,
        prefetch_queue: 8,
        prefetch: true,
    };
    println!(
        "workload {} on a {}-byte, {}-way cache ({}-cycle miss penalty)",
        w.name,
        small.capacity(),
        small.assoc,
        small.miss_penalty
    );
    println!();

    let run = |machine, cfg| -> Result<CacheStats, br_core::Error> {
        let (prog, stats) = exp.compile(&w.source, machine)?;
        let mut sim = ICacheSim::new(cfg);
        exp.run_program_with(&prog, stats, &mut sim)?;
        Ok(*sim.stats())
    };
    let base = run(Machine::Baseline, small)?;
    let off = run(
        Machine::BranchReg,
        CacheConfig {
            prefetch: false,
            ..small
        },
    )?;
    let on = run(Machine::BranchReg, small)?;

    println!(
        "{:<26} {:>10} {:>10} {:>12} {:>10}",
        "configuration", "fetches", "misses", "stall cyc", "pollution"
    );
    for (label, s) in [
        ("baseline machine", base),
        ("br machine, no prefetch", off),
        ("br machine, prefetch", on),
    ] {
        println!(
            "{:<26} {:>10} {:>10} {:>12} {:>10}",
            label, s.fetches, s.misses, s.stall_cycles, s.pollution
        );
    }
    println!();
    println!(
        "prefetching hid {} full misses and shortened {} more; \
         {} prefetched lines were evicted unused",
        on.prefetch_hits, on.late_prefetch_hits, on.pollution
    );
    Ok(())
}
