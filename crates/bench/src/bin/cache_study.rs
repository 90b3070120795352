//! Experiment E9 — the Sections 8–9 instruction-cache study: prefetch
//! benefit, cache pollution, and the associativity / line-size / capacity
//! sweep the paper lists as future work.

use br_bench::{human, suite_args};
use br_core::parallel::map_ordered;
use br_core::{replay, suite, CacheConfig, CacheStats, Experiment, FetchTrace, Machine, Scale};

/// Suite totals for each geometry the study reads on one machine.
struct Totals {
    cfgs: Vec<CacheConfig>,
    stats: Vec<CacheStats>,
}

impl Totals {
    /// Compile and record each program once on `machine`, then replay
    /// its trace through every geometry in `cfgs`. The programs fan over
    /// `jobs` workers, each of which drops its trace before taking the
    /// next program, so at most `jobs` traces are live at a time. The
    /// per-program stats are summed in suite order.
    fn of(
        exp: &Experiment,
        machine: Machine,
        cfgs: &[CacheConfig],
        scale: Scale,
        jobs: usize,
    ) -> Totals {
        let mut distinct: Vec<CacheConfig> = Vec::new();
        for &cfg in cfgs {
            if !distinct.contains(&cfg) {
                distinct.push(cfg);
            }
        }
        let per_program = map_ordered(&suite(scale), jobs, |_, w| {
            let (prog, _) = exp
                .compile(&w.source, machine)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let (_, trace) = FetchTrace::record(&prog, exp.fuel, exp.tier)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            distinct
                .iter()
                .map(|&cfg| replay(cfg, &trace).expect("the study's geometries are valid"))
                .collect::<Vec<CacheStats>>()
        });
        let mut stats = vec![CacheStats::default(); distinct.len()];
        for program in &per_program {
            for (total, s) in stats.iter_mut().zip(program) {
                total.accumulate(s);
            }
        }
        Totals {
            cfgs: distinct,
            stats,
        }
    }

    fn get(&self, cfg: CacheConfig) -> CacheStats {
        let i = self
            .cfgs
            .iter()
            .position(|&c| c == cfg)
            .expect("every geometry read was replayed");
        self.stats[i]
    }
}

fn main() {
    let args = suite_args();
    let scale = args.scale;
    let exp = Experiment::new();

    let paper = CacheConfig::default();
    let no_prefetch = CacheConfig {
        prefetch: false,
        ..paper
    };
    let assoc_sweep = [(128, 1), (64, 2), (32, 4)].map(|(sets, assoc)| CacheConfig {
        sets,
        assoc,
        ..paper
    });
    let line_sweep = [(128, 2), (64, 4), (32, 8)].map(|(sets, line_words)| CacheConfig {
        sets,
        line_words,
        ..paper
    });
    let capacity_sweep = [8usize, 16, 32, 64, 128].map(|sets| CacheConfig { sets, ..paper });
    let br_cfgs: Vec<CacheConfig> = [paper, no_prefetch]
        .into_iter()
        .chain(assoc_sweep)
        .chain(line_sweep)
        .chain(capacity_sweep)
        .collect();
    let br = Totals::of(&exp, Machine::BranchReg, &br_cfgs, scale, args.jobs);
    let base_cfgs: Vec<CacheConfig> = [paper].into_iter().chain(capacity_sweep).collect();
    let baseline = Totals::of(&exp, Machine::Baseline, &base_cfgs, scale, args.jobs);

    println!("Sections 8-9 instruction-cache study ({scale:?} scale)");
    println!();

    // 1. Prefetch benefit on the BR machine.
    let on = br.get(paper);
    let off = br.get(no_prefetch);
    let base = baseline.get(paper);
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
    for cfg in assoc_sweep {
        let s = br.get(cfg);
        println!(
            "  {:<8} {:>14} {:>12}",
            cfg.assoc,
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
    for cfg in line_sweep {
        let s = br.get(cfg);
        println!(
            "  {:<12} {:>14} {:>12}",
            cfg.line_words,
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
    for cfg in capacity_sweep {
        let b = baseline.get(cfg);
        let r = br.get(cfg);
        println!(
            "  {:<10} {:>16} {:>16}",
            format!("{} B", cfg.capacity()),
            human(b.stall_cycles),
            human(r.stall_cycles)
        );
    }
}
