//! `explore_sweep`: the default `br-explore` design-space matrix.
//!
//! The baseline plus four branch-register file sizes (2/4/6/8) over the
//! Appendix I suite and the three RV32 workloads at br-explore's default
//! Test scale: each program compiled per configuration, recorded once
//! with `FetchTrace::record` on br-explore's traced tier, replayed
//! through six cache geometries, and priced at pipeline depths 2–8 with
//! `br_pipeline::depth_sweep`. Replay takes most of the time and hooked
//! recording most of the rest. It is the only workload that exercises
//! `br-icache`, and the only one that runs the emulator with a hook on a
//! non-default tier. The seed permutes program order and picks the
//! configuration and geometry the oracle re-runs live.
//!
//! Oracle (any scale other than Paper): for the sampled configuration
//! and geometry, every program's replayed cache statistics and recorded
//! measurements equal a live `ICacheSim` hook on the interp tier; and
//! every configuration's exit equals the baseline's.

use std::ops::RangeInclusive;
use std::time::Instant;

use br_core::{
    BrOptions, CacheConfig, CacheStats, CodegenStats, Experiment, Machine, Program, Scale,
};
use br_emu::{Emulator, ExecTier, FetchTrace, Measurements};
use br_icache::ICacheSim;
use br_workloads::rng::Rng64;

use crate::batch::Job;
use crate::host::PassClock;
use crate::layers::{self, Source};
use crate::stats::{another_pass, paper_gap, pass_metrics, peak_rss_mb, repeat_setup, shuffle};
use crate::trace::Tracer;
use crate::{Args, Report};

const DEPTHS: RangeInclusive<u32> = 2..=8;
const SWEEP_BREGS: [u8; 4] = [2, 4, 6, 8];
/// br-explore's recording tier.
const RECORD_TIER: ExecTier = ExecTier::Traced;

/// br-explore's six geometries: (sets, assoc, line words, prefetch).
const SWEEP_GEOMS: [(usize, usize, usize, bool); 6] = [
    (64, 2, 4, true),
    (128, 1, 4, true),
    (32, 4, 4, true),
    (64, 2, 8, true),
    (16, 2, 4, true),
    (64, 2, 4, false),
];

/// One compiler configuration of the matrix and its replay geometries.
struct Config {
    label: String,
    machine: Machine,
    exp: Experiment,
    caches: Vec<CacheConfig>,
}

fn configs() -> Vec<Config> {
    let caches = |bregs: u8| -> Vec<CacheConfig> {
        SWEEP_GEOMS
            .iter()
            .map(|&(sets, assoc, line_words, prefetch)| CacheConfig {
                sets,
                assoc,
                line_words,
                prefetch,
                ..CacheConfig::for_bregs(bregs as usize)
            })
            .collect()
    };
    let exp = |br_opts| Experiment {
        br_opts,
        tier: RECORD_TIER,
        ..Experiment::new()
    };
    let mut out = vec![Config {
        label: "base".into(),
        machine: Machine::Baseline,
        exp: exp(BrOptions::default()),
        caches: caches(8),
    }];
    for n in SWEEP_BREGS {
        out.push(Config {
            label: format!("br{n}"),
            machine: Machine::BranchReg,
            exp: exp(BrOptions {
                num_bregs: n,
                ..Default::default()
            }),
            caches: caches(n),
        });
    }
    out
}

fn setup(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = br_workloads::suite(Scale::Test)
        .into_iter()
        .map(|w| Job {
            name: w.name.to_string(),
            src: Source::MiniC(w.source),
        })
        .collect();
    jobs.extend(
        br_ingest::workloads::all()
            .into_iter()
            .map(|(name, p)| Job {
                name: name.to_string(),
                src: Source::Rv32(p),
            }),
    );
    shuffle(&mut jobs, &mut Rng64::seed_from_u64(seed));
    jobs
}

/// One program under one configuration.
#[derive(PartialEq)]
struct Row {
    exit: i32,
    meas: Measurements,
    stats: Vec<CacheStats>,
    words: u64,
}

type Rows = Vec<Vec<Result<Row, String>>>;
/// The traced path's binaries, per configuration and program.
type Bins = Vec<Vec<Option<(Program, CodegenStats)>>>;

/// One pass of the recipe through its entry points; `clock` times each
/// (configuration, program) job.
fn pass(cfgs: &[Config], jobs: &[Job], clock: &mut PassClock) -> Rows {
    let modules: Vec<_> = jobs.iter().map(|j| layers::lower_entry(&j.src)).collect();
    let mut rows = Vec::with_capacity(cfgs.len());
    for c in cfgs {
        let mut per = Vec::with_capacity(jobs.len());
        for (job, module) in jobs.iter().zip(&modules) {
            let row = clock.job(|| {
                module.as_ref().map_err(Clone::clone).and_then(|m| {
                    let (prog, _) = c
                        .exp
                        .compile_module_for(m, c.machine)
                        .map_err(|e| e.to_string())?;
                    let (exit, trace) = FetchTrace::record(&prog, c.exp.fuel, RECORD_TIER)
                        .map_err(|e| e.to_string())?;
                    let stats = c
                        .caches
                        .iter()
                        .map(|g| br_core::replay(*g, &trace))
                        .collect::<Result<_, _>>();
                    Ok(Row {
                        exit,
                        meas: trace.measurements().clone(),
                        stats: stats.map_err(|e| e.to_string())?,
                        words: trace.packed_len() as u64,
                    })
                })
            });
            per.push(row.map_err(|e| format!("{} on {}: {e}", job.name, c.label)));
        }
        let total = suite_meas(&per);
        std::hint::black_box(br_pipeline::depth_sweep(c.machine, &total, DEPTHS));
        rows.push(per);
    }
    rows
}

fn suite_meas(rows: &[Result<Row, String>]) -> Measurements {
    let mut total = Measurements::new();
    for r in rows.iter().flatten() {
        total.accumulate(&r.meas);
    }
    total
}

/// The same pass, call by call, with spans.
fn traced_pass(tr: &mut Tracer, cfgs: &[Config], jobs: &[Job]) -> (Rows, Bins) {
    let modules: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let core = tr.enter("core", "program", i as u32);
            let m = layers::lower(tr, i as u32, &j.src);
            tr.exit(core);
            m
        })
        .collect();
    let (mut rows, mut bins) = (Vec::new(), Vec::new());
    for c in cfgs {
        let (mut per, mut per_bins) = (Vec::new(), Vec::new());
        for (i, module) in modules.iter().enumerate() {
            let id = i as u32;
            let core = tr.enter("core", "program", id);
            let mut bin = None;
            let row = (|| {
                let m = module.as_ref().map_err(Clone::clone)?;
                let (prog, stats) = layers::compile(tr, id, &c.exp, m, c.machine)?;
                let rec = tr.span("emu", "record", id, || {
                    FetchTrace::record(&prog, c.exp.fuel, RECORD_TIER)
                });
                let (exit, trace) = rec.map_err(|e| e.to_string())?;
                tr.count("emu.sim_insts", trace.measurements().instructions as f64);
                tr.count("emu.trace_words", trace.packed_len() as f64);
                let mut cache_stats = Vec::with_capacity(c.caches.len());
                for g in &c.caches {
                    let s = tr.span("icache", "replay", id, || br_core::replay(*g, &trace));
                    let s = s.map_err(|e| e.to_string())?;
                    tr.count("icache.replays", 1.0);
                    tr.count("icache.fetches", trace.fetches() as f64);
                    tr.count("icache.sim_misses", s.misses as f64);
                    tr.count("icache.sim_stall_cycles", s.stall_cycles as f64);
                    cache_stats.push(s);
                }
                bin = Some((prog, stats));
                Ok(Row {
                    exit,
                    meas: trace.measurements().clone(),
                    stats: cache_stats,
                    words: trace.packed_len() as u64,
                })
            })();
            tr.exit(core);
            per.push(row.map_err(|e: String| format!("{} on {}: {e}", jobs[i].name, c.label)));
            per_bins.push(bin);
        }
        let total = suite_meas(&per);
        let sweep = tr.span("pipeline", "sweep", 0, || {
            br_pipeline::depth_sweep(c.machine, &total, DEPTHS)
        });
        std::hint::black_box(sweep);
        rows.push(per);
        bins.push(per_bins);
    }
    (rows, bins)
}

/// Oracle: a live `ICacheSim` hook on the sampled (configuration,
/// geometry) for every program, and every configuration's exit equal to
/// the baseline's. One check per program.
fn check(report: &mut Report, seed: u64, cfgs: &[Config], jobs: &[Job], rows: &Rows) {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0ca7e);
    let c = (rng.next_u64() % cfgs.len() as u64) as usize;
    let g = (rng.next_u64() % SWEEP_GEOMS.len() as u64) as usize;
    for (i, job) in jobs.iter().enumerate() {
        report.check((|| {
            let row = rows[c][i].as_ref().map_err(Clone::clone)?;
            for (k, other) in rows.iter().enumerate() {
                let exit = other[i].as_ref().map_err(Clone::clone)?.exit;
                if exit != rows[0][i].as_ref().map_err(Clone::clone)?.exit {
                    return Err(format!(
                        "{}: {} exit {exit} differs from the baseline's",
                        job.name, cfgs[k].label
                    ));
                }
            }
            let cfg = &cfgs[c];
            let module = layers::lower_entry(&job.src)?;
            let (prog, _) = cfg
                .exp
                .compile_module_for(&module, cfg.machine)
                .map_err(|e| e.to_string())?;
            let mut sim = ICacheSim::new(cfg.caches[g]);
            let mut emu = Emulator::new(&prog);
            emu.run_with_hook(cfg.exp.fuel, &mut sim)
                .map_err(|e| e.to_string())?;
            if *sim.stats() != row.stats[g] || *emu.measurements() != row.meas {
                return Err(format!(
                    "{} on {} geometry {g}: replay differs from a live cache hook",
                    job.name, cfg.label
                ));
            }
            Ok(())
        })());
    }
}

/// Table I totals over the 19 Appendix I programs: the baseline and the
/// paper's 8-register configuration.
fn gap(report: &mut Report, cfgs: &[Config], jobs: &[Job], rows: &Rows) {
    let br8 = cfgs
        .iter()
        .position(|c| c.label == "br8")
        .expect("br8 is in the matrix");
    let pairs = jobs.iter().enumerate().filter_map(|(i, job)| {
        match (&job.src, &rows[0][i], &rows[br8][i]) {
            (Source::MiniC(_), Ok(b), Ok(r)) => Some((&b.meas, &r.meas)),
            _ => None,
        }
    });
    paper_gap(report, pairs);
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (jobs, setup_s) = repeat_setup(|| Ok(setup(args.seed)))?;
    let cfgs = configs();
    let mut report = Report::default();
    if args.trace {
        traced(args, &cfgs, &jobs, &mut report)?;
        return Ok(report);
    }
    let start = Instant::now();
    let (mut walls, mut passes, mut last) = (Vec::new(), Vec::new(), Vec::new());
    while another_pass(start, &walls, args.seconds) {
        let t = Instant::now();
        let mut clock = PassClock::start();
        last = pass(&cfgs, &jobs, &mut clock);
        passes.push(clock.finish());
        walls.push(t.elapsed().as_secs_f64());
        for row in last.iter().flatten() {
            report.check(row.as_ref().map(|_| ()).map_err(Clone::clone));
        }
    }
    check(&mut report, args.seed, &cfgs, &jobs, &last);
    pass_metrics(&mut report, &setup_s, &passes, peak_rss_mb());
    gap(&mut report, &cfgs, &jobs, &last);
    Ok(report)
}

fn traced(args: &Args, cfgs: &[Config], jobs: &[Job], report: &mut Report) -> Result<(), String> {
    let end = Instant::now() + args.seconds;
    let modules = jobs
        .iter()
        .map(|j| layers::lower_entry(&j.src).map_err(|e| format!("{}: {e}", j.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut entry_bins = Vec::new();
    for c in cfgs {
        for (j, m) in jobs.iter().zip(&modules) {
            let bin = c
                .exp
                .compile_module_for(m, c.machine)
                .map_err(|e| format!("{}: {e}", j.name))?;
            entry_bins.push(bin);
        }
    }
    let progs: Vec<&Program> = entry_bins.iter().map(|(p, _)| p).collect();
    let tiers = layers::tier_rows(report, &progs, Experiment::new().fuel);

    let mut tr = Tracer::new();
    let (mut plain_rows, mut traced_rows, mut traced_bins) = (Vec::new(), Vec::new(), Vec::new());
    let (plain, traced) = layers::alternate(&mut tr, end, |tr| match tr {
        None => plain_rows = pass(cfgs, jobs, &mut PassClock::unsampled()),
        Some(tr) => (traced_rows, traced_bins) = traced_pass(tr, cfgs, jobs),
    });
    check(report, args.seed, cfgs, jobs, &plain_rows);
    let traced_flat = traced_rows
        .iter()
        .flatten()
        .zip(traced_bins.iter().flatten());
    for ((t, bin), (p, entry)) in traced_flat.zip(plain_rows.iter().flatten().zip(&entry_bins)) {
        report.check(match (t, p, bin) {
            (Err(e), _, _) | (_, Err(e), _) => Err(e.clone()),
            (Ok(t), Ok(p), Some(bin)) => {
                let same_bin = layers::program_bytes(&bin.0, &bin.1)
                    == layers::program_bytes(&entry.0, &entry.1);
                if same_bin && t == p {
                    Ok(())
                } else {
                    Err(format!(
                        "traced path differs from the entry point (program identical: {same_bin})"
                    ))
                }
            }
            (Ok(_), Ok(_), None) => Err("traced path kept no program".into()),
        });
    }
    layers::layer_metrics(report, &tr, traced.len(), &plain, &traced, &tiers, &[]);
    tr.write(&format!("explore_sweep-seed{}", args.seed))?;
    Ok(())
}
