//! Differential test of br-icache's simulator against the one it
//! replaced, kept under `reference/icache.rs`.
//!
//! The simulator keeps its ways in one flat `Vec` with an invalid-tag
//! sentinel, looks each line a fetch run touches up once, and derives
//! `fetches`, `hits` and `cycles` from its other counters. None of that
//! may change a statistic, so both simulators must return identical
//! `CacheStats`:
//!
//! - through `replay`, on every (trace, geometry) pair of br-explore's
//!   default matrix at Test scale: the baseline and branch-register
//!   files of 2/4/6/8 over the 19 suite programs and the 3 RV32 images,
//!   each through the six br-explore geometries (660 pairs);
//! - through the live hook, one geometry per configuration;
//! - after every call of seeded `fetch`/`fetch_run`/`prefetch` streams
//!   on direct-mapped, 4-way, 8-way and 1-word-line geometries, with
//!   runs that wrap past `u32::MAX`, and through `replay` of their
//!   recordings.

#[allow(dead_code)]
mod reference {
    pub mod icache;
}

use br_core::{BrOptions, CacheConfig, CacheStats, Experiment, Machine, Program, Scale};
use br_emu::{Emulator, ExecHook, FetchRecorder, FetchTrace, Measurements};
use br_icache::{replay, ICacheSim};
use br_workloads::rng::Rng64;
use reference::icache as old;

/// br-explore's six geometries: (sets, assoc, line words, prefetch),
/// with timing and queue depth from `CacheConfig::for_bregs`.
const SWEEP_GEOMS: [(usize, usize, usize, bool); 6] = [
    (64, 2, 4, true),
    (128, 1, 4, true),
    (32, 4, 4, true),
    (64, 2, 8, true),
    (16, 2, 4, true),
    (64, 2, 4, false),
];

/// br-explore's default matrix: the baseline, then branch-register
/// files of 2/4/6/8, each with its six geometries.
fn configs() -> Vec<(Machine, Experiment, Vec<CacheConfig>)> {
    let geoms = |bregs: usize| -> Vec<CacheConfig> {
        SWEEP_GEOMS
            .iter()
            .map(|&(sets, assoc, line_words, prefetch)| CacheConfig {
                sets,
                assoc,
                line_words,
                prefetch,
                ..CacheConfig::for_bregs(bregs)
            })
            .collect()
    };
    let mut out = vec![(Machine::Baseline, Experiment::new(), geoms(8))];
    for n in [2u8, 4, 6, 8] {
        let exp = Experiment {
            br_opts: BrOptions {
                num_bregs: n,
                ..Default::default()
            },
            ..Experiment::new()
        };
        out.push((Machine::BranchReg, exp, geoms(n as usize)));
    }
    out
}

/// The suite at Test scale and the RV32 images, lowered once.
fn modules() -> Vec<(String, br_ir::Module)> {
    let mut out: Vec<_> = br_workloads::suite(Scale::Test)
        .into_iter()
        .map(|w| {
            let m = br_frontend::compile(&w.source).expect("suite program lowers");
            (w.name.to_string(), m)
        })
        .collect();
    for (name, prog) in br_ingest::workloads::all() {
        let m = br_ingest::translate(&prog).expect("RV32 image translates");
        out.push((name.to_string(), m));
    }
    out
}

/// Feeds one emulation's events to both simulators.
struct Both<'a>(&'a mut ICacheSim, &'a mut old::ICacheSim);

impl ExecHook for Both<'_> {
    fn fetch(&mut self, addr: u32) {
        self.0.fetch(addr);
        self.1.fetch(addr);
    }

    fn prefetch(&mut self, addr: u32) {
        self.0.prefetch(addr);
        self.1.prefetch(addr);
    }
}

#[test]
fn replay_and_live_hook_match_the_reference_on_the_explore_matrix() {
    let mods = modules();
    assert_eq!(mods.len(), 22, "19 suite programs and 3 RV32 images");
    let mut pairs = 0;
    for (c, (machine, exp, geoms)) in configs().iter().enumerate() {
        let live_cfg = geoms[c % geoms.len()];
        let jobs = br_core::parallel::available_jobs();
        let rows = br_core::parallel::map_ordered(&mods, jobs, |_, (name, module)| {
            let (prog, _): (Program, _) = exp
                .compile_module_for(module, *machine)
                .unwrap_or_else(|e| panic!("{name} on {machine}: {e}"));
            let (_, trace) = FetchTrace::record(&prog, exp.fuel, exp.tier)
                .unwrap_or_else(|e| panic!("{name} on {machine}: {e}"));
            for &cfg in geoms {
                let new = replay(cfg, &trace).expect("valid geometry");
                let reference = old::replay(cfg, &trace).expect("valid geometry");
                assert_eq!(new, reference, "{name} config {c} {cfg:?}: replay diverged");
            }

            let mut sim = ICacheSim::new(live_cfg);
            let mut reference = old::ICacheSim::new(live_cfg);
            Emulator::new(&prog)
                .with_tier(exp.tier)
                .run_with_hook(exp.fuel, &mut Both(&mut sim, &mut reference))
                .unwrap_or_else(|e| panic!("{name} on {machine}: {e}"));
            assert_eq!(
                sim.stats(),
                reference.stats(),
                "{name} config {c} {live_cfg:?}: live hook diverged"
            );
            assert_eq!(
                *sim.stats(),
                replay(live_cfg, &trace).expect("valid geometry"),
                "{name} config {c} {live_cfg:?}: replay diverged from the live hook"
            );
            geoms.len()
        });
        pairs += rows.iter().sum::<usize>();
    }
    assert_eq!(pairs, 660, "5 configurations x 22 programs x 6 geometries");
}

/// Drive the same seeded stream of demand fetches, fetch runs and
/// prefetches with loop-like locality through both simulators,
/// comparing their statistics after every call, then replay a recording
/// of the stream through both. A tenth of the jumps land just below
/// `u32::MAX`, so runs there wrap to address 0; returns the final
/// statistics and the number of runs that wrapped.
fn drive_both(cfg: CacheConfig, seed: u64, events: usize) -> (CacheStats, u32) {
    let mut new = ICacheSim::new(cfg);
    let mut reference = old::ICacheSim::new(cfg);
    let mut rec = FetchRecorder::new();
    let mut rng = Rng64::seed_from_u64(seed);
    let mut pc: u32 = 0x1000;
    let mut wrapped = 0;
    for step in 0..events {
        if rng.chance(1, 5) {
            let target = if rng.chance(1, 10) {
                0u32.wrapping_sub(4 * rng.random_range(1..24u32))
            } else {
                (0x1000 + (rng.next_u64() as u32 % 0x1000)) & !3
            };
            // Up to three prefetches in a row, as a run of branch
            // register assignments makes, install lines in one cycle.
            let mut prefetch = target;
            for _ in 0..rng.random_range(0..4u32) {
                new.prefetch(prefetch);
                reference.prefetch(prefetch);
                rec.prefetch(prefetch);
                assert_eq!(
                    new.stats(),
                    reference.stats(),
                    "{cfg:?} seed {seed} step {step}: prefetch({prefetch:#x})"
                );
                prefetch = (0x1000 + (rng.next_u64() as u32 % 0x1000)) & !3;
            }
            pc = target;
        }
        if rng.chance(1, 2) {
            new.fetch(pc);
            reference.fetch(pc);
            rec.fetch(pc);
            pc = pc.wrapping_add(4);
        } else {
            let len = rng.random_range(1..40u32);
            wrapped += u32::from(pc.checked_add(4 * (len - 1)).is_none());
            new.fetch_run(pc, len);
            reference.fetch_run(pc, len);
            for k in 0..len {
                rec.fetch(pc.wrapping_add(4 * k));
            }
            pc = pc.wrapping_add(4 * len);
        }
        assert_eq!(
            new.stats(),
            reference.stats(),
            "{cfg:?} seed {seed} step {step}: fetch at {pc:#x}"
        );
    }
    let trace = rec.finish(&Measurements::new());
    let replayed = replay(cfg, &trace).expect("valid geometry");
    assert_eq!(
        replayed,
        old::replay(cfg, &trace).expect("valid geometry"),
        "{cfg:?} seed {seed}: replay diverged"
    );
    assert_eq!(
        &replayed,
        new.stats(),
        "{cfg:?} seed {seed}: replay vs live"
    );
    (replayed, wrapped)
}

#[test]
fn seeded_streams_match_the_reference_after_every_call() {
    let base = CacheConfig {
        sets: 16,
        assoc: 2,
        line_words: 4,
        miss_penalty: 8,
        prefetch_queue: 4,
        prefetch: true,
    };
    let geoms = [
        base,
        CacheConfig { assoc: 1, ..base },
        CacheConfig {
            sets: 8,
            assoc: 4,
            ..base
        },
        CacheConfig {
            sets: 4,
            assoc: 8,
            ..base
        },
        CacheConfig {
            sets: 32,
            line_words: 1,
            ..base
        },
        CacheConfig {
            sets: 4,
            assoc: 1,
            line_words: 1,
            prefetch_queue: 2,
            ..base
        },
        CacheConfig {
            prefetch: false,
            ..base
        },
        CacheConfig::default(),
    ];
    let mut wrapped = 0;
    for cfg in geoms {
        for seed in 0..6u64 {
            let (s, w) = drive_both(cfg, seed, 3000);
            wrapped += w;
            assert!(
                s.misses > 0 && s.misses < s.fetches,
                "{cfg:?} seed {seed}: {s:?}"
            );
            if cfg.prefetch {
                assert!(s.prefetches > 0, "{cfg:?} seed {seed} issued no prefetches");
            }
        }
    }
    assert!(wrapped > 0, "no fetch run wrapped past u32::MAX");
}
