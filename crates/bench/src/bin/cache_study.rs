//! Experiment E9 — the Sections 8–9 instruction-cache study: prefetch
//! benefit, cache pollution, and the associativity / line-size / capacity
//! sweep the paper lists as future work.

use br_bench::{human, suite_args};
use br_core::{suite, CacheConfig, Experiment, Machine};

fn run_config(
    exp: &Experiment,
    machine: Machine,
    cfg: CacheConfig,
    scale: br_core::Scale,
) -> br_core::CacheStats {
    let mut total = br_core::CacheStats::default();
    for w in suite(scale) {
        let (_, stats) = exp
            .run_with_cache(&w.source, machine, cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        total.fetches += stats.fetches;
        total.hits += stats.hits;
        total.misses += stats.misses;
        total.late_prefetch_hits += stats.late_prefetch_hits;
        total.prefetch_hits += stats.prefetch_hits;
        total.prefetches += stats.prefetches;
        total.prefetch_dropped += stats.prefetch_dropped;
        total.prefetch_redundant += stats.prefetch_redundant;
        total.pollution += stats.pollution;
        total.stall_cycles += stats.stall_cycles;
        total.cycles += stats.cycles;
    }
    total
}

fn main() {
    let scale = suite_args().scale;
    let exp = Experiment::new();

    println!("Sections 8-9 instruction-cache study ({scale:?} scale)");
    println!();

    // 1. Prefetch benefit on the BR machine.
    let on = run_config(&exp, Machine::BranchReg, CacheConfig::default(), scale);
    let off = run_config(
        &exp,
        Machine::BranchReg,
        CacheConfig {
            prefetch: false,
            ..CacheConfig::default()
        },
        scale,
    );
    let base = run_config(&exp, Machine::Baseline, CacheConfig::default(), scale);
    println!("prefetch benefit (default 2 KiB 2-way cache, 8-cycle miss):");
    println!(
        "  {:<28} {:>14} {:>12} {:>12}",
        "configuration", "fetch stalls", "misses", "pollution"
    );
    println!(
        "  {:<28} {:>14} {:>12} {:>12}",
        "baseline machine",
        human(base.stall_cycles),
        human(base.misses),
        "-"
    );
    println!(
        "  {:<28} {:>14} {:>12} {:>12}",
        "br machine, no prefetch",
        human(off.stall_cycles),
        human(off.misses),
        "-"
    );
    println!(
        "  {:<28} {:>14} {:>12} {:>12}",
        "br machine, prefetch",
        human(on.stall_cycles),
        human(on.misses),
        human(on.pollution)
    );
    println!(
        "  prefetch removes {:.1}% of the BR machine's fetch stalls \
         ({} full hits + {} partial)",
        100.0 * (1.0 - on.stall_cycles as f64 / off.stall_cycles.max(1) as f64),
        human(on.prefetch_hits),
        human(on.late_prefetch_hits),
    );
    println!(
        "  pollution: {} prefetched lines evicted unused ({:.2}% of prefetches; \
         the paper conjectured this penalty would not be significant)",
        human(on.pollution),
        100.0 * on.pollution as f64 / on.prefetches.max(1) as f64
    );
    println!();

    // 2. Associativity sweep (paper: "an associativity of at least two
    //    would ensure a branch target could be prefetched without
    //    displacing the current instructions").
    println!("associativity sweep (capacity fixed at 2 KiB):");
    println!(
        "  {:<8} {:>14} {:>12}",
        "assoc", "fetch stalls", "pollution"
    );
    for (sets, assoc) in [(128, 1), (64, 2), (32, 4)] {
        let s = run_config(
            &exp,
            Machine::BranchReg,
            CacheConfig {
                sets,
                assoc,
                ..CacheConfig::default()
            },
            scale,
        );
        println!(
            "  {:<8} {:>14} {:>12}",
            assoc,
            human(s.stall_cycles),
            human(s.pollution)
        );
    }
    println!();

    // 3. Line-size sweep.
    println!("line-size sweep (2 KiB, 2-way):");
    println!(
        "  {:<12} {:>14} {:>12}",
        "line words", "fetch stalls", "misses"
    );
    for (sets, line_words) in [(128, 2), (64, 4), (32, 8)] {
        let s = run_config(
            &exp,
            Machine::BranchReg,
            CacheConfig {
                sets,
                line_words,
                ..CacheConfig::default()
            },
            scale,
        );
        println!(
            "  {:<12} {:>14} {:>12}",
            line_words,
            human(s.stall_cycles),
            human(s.misses)
        );
    }
    println!();

    // 4. Capacity sweep (paper: smaller loops may improve small caches).
    println!("capacity sweep (2-way, 4-word lines), both machines:");
    println!(
        "  {:<10} {:>16} {:>16}",
        "capacity", "baseline stalls", "br stalls"
    );
    for sets in [8usize, 16, 32, 64, 128] {
        let cfg = CacheConfig {
            sets,
            ..CacheConfig::default()
        };
        let b = run_config(&exp, Machine::Baseline, cfg, scale);
        let r = run_config(&exp, Machine::BranchReg, cfg, scale);
        println!(
            "  {:<10} {:>16} {:>16}",
            format!("{} B", cfg.capacity()),
            human(b.stall_cycles),
            human(r.stall_cycles)
        );
    }
}
