//! `br-explore` — record-once / replay-many design-space exploration
//! (ROADMAP item 3): what if Davidson–Whalley had 4 branch registers,
//! a direct-mapped cache, or a 6-stage pipeline?
//!
//! ```text
//! br-explore            [--paper] [--jobs N] [--pareto FILE]
//! br-explore --section9 [--paper] [--jobs N]
//! br-explore --smoke    [--jobs N]
//! ```
//!
//! The **default mode** sweeps the full parameter matrix — branch
//! register file size (2/4/6/8; the ISA's 3-bit `br` field caps the
//! file at 8, so the paper's hypothetical 16 is unencodable) × icache
//! geometry (sets/associativity/line size/prefetch policy) × pipeline
//! depth 2–8 — and prints the Pareto frontier of total cycles vs
//! hardware cost. `--pareto FILE` writes the full deterministic report
//! (golden: `results/explore_pareto.json`).
//!
//! Instead of one emulation per configuration, each compiler
//! configuration is executed **once** under a `FetchRecorder`
//! (`br_emu::FetchTrace`, on `Experiment`'s tier); every cache
//! geometry is then evaluated by `br_icache::replay` over the packed
//! trace and every pipeline depth by `br_pipeline::depth_sweep` over the
//! recorded measurements — byte-identical to live-hook runs (pinned by
//! `crates/torture/tests/replay_properties.rs` and re-checked here by
//! `--smoke`). Compiled artifacts are shared between
//! configurations with identical compiler settings through a
//! content-hash keyed store (the br-serve cache's keying discipline).
//!
//! `--section9` reproduces the legacy `results/br_sweep.txt` report
//! (experiment E10) from the same machinery. `--smoke` checks
//! record+replay on a 6-geometry matrix against one live-hook emulation
//! of the suite per geometry on the reference interpreter, and exits 1
//! unless every cache stat, measurement and per-depth cycle total is
//! identical.

use std::collections::HashMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use br_bench::{human, pct};
use br_core::{
    parallel, replay, suite, BrOptions, CacheConfig, CacheStats, CodegenStats, Experiment, Machine,
    Program, Scale,
};
use br_emu::{ExecTier, FetchTrace, Measurements};
use br_icache::ICacheSim;
use br_obs::json;
use br_pipeline::machine_cycles;

const DEPTHS: std::ops::RangeInclusive<u32> = 2..=8;

/// The tier `--smoke` runs its live reference side on: the interpreter
/// the faster tiers are checked against.
const REFERENCE_TIER: ExecTier = ExecTier::Interp;

/// Branch-register file sizes swept by the default matrix. The ISA
/// encodes branch registers in a 3-bit field, so 8 is the hard ceiling
/// (`BrOptions::pools` clamps to 2..=8); the issue's "16" point is not
/// encodable without a different instruction format.
const SWEEP_BREGS: [u8; 4] = [2, 4, 6, 8];

/// A cache geometry axis point (timing and queue depth come from
/// [`CacheConfig::for_bregs`]).
struct Geom {
    label: &'static str,
    sets: usize,
    assoc: usize,
    line_words: usize,
    prefetch: bool,
}

/// The default sweep's six geometries: the paper's 2 KiB 2-way point,
/// same-capacity associativity trades, a capacity step in each
/// direction, and a prefetch ablation.
const SWEEP_GEOMS: [Geom; 6] = [
    Geom {
        label: "2KiB 2-way 16B (paper)",
        sets: 64,
        assoc: 2,
        line_words: 4,
        prefetch: true,
    },
    Geom {
        label: "2KiB direct 16B",
        sets: 128,
        assoc: 1,
        line_words: 4,
        prefetch: true,
    },
    Geom {
        label: "2KiB 4-way 16B",
        sets: 32,
        assoc: 4,
        line_words: 4,
        prefetch: true,
    },
    Geom {
        label: "4KiB 2-way 32B",
        sets: 64,
        assoc: 2,
        line_words: 8,
        prefetch: true,
    },
    Geom {
        label: "512B 2-way 16B",
        sets: 16,
        assoc: 2,
        line_words: 4,
        prefetch: true,
    },
    Geom {
        label: "2KiB 2-way 16B no-prefetch",
        sets: 64,
        assoc: 2,
        line_words: 4,
        prefetch: false,
    },
];

fn geom_cfg(g: &Geom, bregs: u8) -> CacheConfig {
    CacheConfig {
        sets: g.sets,
        assoc: g.assoc,
        line_words: g.line_words,
        prefetch: g.prefetch,
        ..CacheConfig::for_bregs(bregs as usize)
    }
}

/// The `--smoke` geometry matrix: 16 sets × 3 associativities × 2 line
/// sizes, prefetch on.
fn smoke_geoms() -> Vec<(String, CacheConfig)> {
    let mut v = Vec::new();
    for &assoc in &[1usize, 2, 4] {
        for &line_words in &[4usize, 8] {
            v.push((
                format!("16x{assoc}x{line_words}w"),
                CacheConfig {
                    sets: 16,
                    assoc,
                    line_words,
                    ..CacheConfig::for_bregs(8)
                },
            ));
        }
    }
    v
}

struct Args {
    scale: Scale,
    jobs: usize,
    section9: bool,
    smoke: bool,
    pareto: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Test,
        jobs: 0,
        section9: false,
        smoke: false,
        pareto: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => args.scale = Scale::Paper,
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs a number")?
            }
            "--section9" => args.section9 = true,
            "--smoke" => args.smoke = true,
            "--pareto" => args.pareto = Some(it.next().ok_or("--pareto needs a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The Appendix I suite lowered once (the front end is
/// machine-independent), plus a content hash over the module set.
struct Suite {
    names: Vec<&'static str>,
    modules: Vec<br_ir::Module>,
    content_fp: u64,
}

/// splitmix64 finalizer — the same mixing the br-serve compile cache
/// uses for its content-hash keys.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Lower the MiniC suite (and, for the design-space sweep, the
/// translated RV32I workloads) into IR modules. `--section9` keeps
/// `include_rv32` off so the legacy `br_sweep.txt` report, which
/// predates the translator, stays byte-comparable; `--smoke` checks the
/// MiniC suite only.
fn lower_suite(scale: Scale, include_rv32: bool) -> Result<Suite, String> {
    let mut names = Vec::new();
    let mut modules = Vec::new();
    let mut content_fp = 0u64;
    for (i, w) in suite(scale).into_iter().enumerate() {
        let module =
            br_frontend::compile(&w.source).map_err(|e| format!("{}: frontend: {e}", w.name))?;
        content_fp ^= mix(module.fingerprint().wrapping_add(i as u64));
        names.push(w.name);
        modules.push(module);
    }
    if include_rv32 {
        for (name, prog) in br_ingest::workloads::all() {
            let module = br_ingest::translate(&prog).map_err(|e| format!("{name}: ingest: {e}"))?;
            content_fp ^= mix(module.fingerprint().wrapping_add(names.len() as u64));
            names.push(name);
            modules.push(module);
        }
    }
    Ok(Suite {
        names,
        modules,
        content_fp,
    })
}

/// Compiled-artifact store keyed by content hash: machine ⊕ option
/// fingerprints ⊕ the suite's module fingerprints. Sweep configurations
/// that share compiler settings share one compile (the Section 9
/// ablation list and the breg sweep overlap at the paper
/// configuration, and `--smoke` shares everything between its two
/// passes).
#[derive(Default)]
struct ArtifactStore {
    map: HashMap<u64, Rc<Vec<Program>>>,
    compiles: u64,
    hits: u64,
}

impl ArtifactStore {
    fn key(exp: &Experiment, machine: Machine, su: &Suite) -> u64 {
        let tag = match machine {
            Machine::Baseline => 1,
            Machine::BranchReg => 2,
        };
        mix(tag ^ mix(exp.base_opts.fingerprint() ^ mix(exp.br_opts.fingerprint()))) ^ su.content_fp
    }

    fn progs(
        &mut self,
        exp: &Experiment,
        machine: Machine,
        su: &Suite,
        jobs: usize,
    ) -> Result<Rc<Vec<Program>>, String> {
        let key = Self::key(exp, machine, su);
        if let Some(p) = self.map.get(&key) {
            self.hits += 1;
            return Ok(p.clone());
        }
        let idx: Vec<usize> = (0..su.modules.len()).collect();
        let compiled = parallel::map_ordered(&idx, jobs, |_, &i| {
            exp.compile_module_for(&su.modules[i], machine)
                .map(|(prog, _)| prog)
                .map_err(|e| format!("{} on {machine}: {e}", su.names[i]))
        });
        let mut progs = Vec::with_capacity(compiled.len());
        for p in compiled {
            progs.push(p?);
        }
        let progs = Rc::new(progs);
        self.map.insert(key, progs.clone());
        self.compiles += 1;
        Ok(progs)
    }
}

/// Suite totals from one record pass replayed through `cfgs`.
struct ReplayOutcome {
    meas: Measurements,
    per_geom: Vec<CacheStats>,
    trace_words: u64,
}

/// Record each program once with `exp`'s fuel and tier, replay its
/// trace through every geometry, and fold suite totals in suite order.
fn record_replay(
    progs: &[Program],
    names: &[&'static str],
    cfgs: &[CacheConfig],
    exp: &Experiment,
    jobs: usize,
) -> Result<ReplayOutcome, String> {
    let idx: Vec<usize> = (0..progs.len()).collect();
    let rows = parallel::map_ordered(&idx, jobs, |_, &i| {
        let (_, trace) = FetchTrace::record(&progs[i], exp.fuel, exp.tier)
            .map_err(|e| format!("{}: {e}", names[i]))?;
        let stats = cfgs
            .iter()
            .map(|c| replay(*c, &trace).map_err(|e| format!("{}: {e}", names[i])))
            .collect::<Result<Vec<CacheStats>, String>>()?;
        Ok::<_, String>((
            trace.measurements().clone(),
            stats,
            trace.packed_len() as u64,
        ))
    });
    let mut out = ReplayOutcome {
        meas: Measurements::new(),
        per_geom: vec![CacheStats::default(); cfgs.len()],
        trace_words: 0,
    };
    for row in rows {
        let (m, stats, words) = row?;
        out.meas.accumulate(&m);
        for (acc, s) in out.per_geom.iter_mut().zip(&stats) {
            acc.accumulate(s);
        }
        out.trace_words += words;
    }
    Ok(out)
}

/// One live-hook emulation of the suite through `exp` for a single
/// cache configuration, an `ICacheSim` attached through
/// `Experiment::run_program_with`. The artifact store keeps no codegen
/// stats, and nothing here reads them.
fn live_suite(
    progs: &[Program],
    names: &[&'static str],
    cfg: CacheConfig,
    exp: &Experiment,
    jobs: usize,
) -> Result<(Measurements, CacheStats), String> {
    let idx: Vec<usize> = (0..progs.len()).collect();
    let rows = parallel::map_ordered(&idx, jobs, |_, &i| {
        let mut sim = ICacheSim::new(cfg);
        let run = exp
            .run_program_with(&progs[i], CodegenStats::default(), &mut sim)
            .map_err(|e| format!("{}: {e}", names[i]))?;
        Ok::<_, String>((run.meas, *sim.stats()))
    });
    let mut meas = Measurements::new();
    let mut stats = CacheStats::default();
    for row in rows {
        let (m, s) = row?;
        meas.accumulate(&m);
        stats.accumulate(&s);
    }
    Ok((meas, stats))
}

/// Plain functional suite totals (instructions, data refs) through
/// `exp` — the Section 9 report's quantities.
fn suite_insts_refs(
    progs: &[Program],
    names: &[&'static str],
    exp: &Experiment,
    jobs: usize,
) -> Result<(u64, u64), String> {
    let idx: Vec<usize> = (0..progs.len()).collect();
    let rows = parallel::map_ordered(&idx, jobs, |_, &i| {
        let run = exp
            .run_program(&progs[i], CodegenStats::default())
            .map_err(|e| format!("{}: {e}", names[i]))?;
        Ok::<_, String>((run.meas.instructions, run.meas.data_refs))
    });
    let mut insts = 0u64;
    let mut refs = 0u64;
    for row in rows {
        let (i, r) = row?;
        insts += i;
        refs += r;
    }
    Ok((insts, refs))
}

/// Hardware-cost model for the Pareto axis, in storage bits: cache
/// arrays (data + tag + valid + prefetched-state per line), the branch
/// register file (32-bit address registers), the prefetch queue (one
/// 32-bit address slot per entry, absent with prefetch off), and one
/// 64-bit latch set per pipeline stage. Deliberately simple and fully
/// deterministic — it ranks configurations, it does not price silicon.
fn cost_bits(cfg: &CacheConfig, bregs: u32, stages: u32) -> u64 {
    let lines = (cfg.sets * cfg.assoc) as u64;
    let tag_bits =
        32 - u64::from((cfg.sets.trailing_zeros()) + (cfg.line_words.trailing_zeros()) + 2);
    let cache = lines * (cfg.line_words as u64 * 32 + tag_bits + 2);
    let queue = if cfg.prefetch {
        cfg.prefetch_queue as u64 * 32
    } else {
        0
    };
    cache + u64::from(bregs) * 32 + queue + u64::from(stages) * 64
}

/// One fully-expanded design point of the BR machine.
struct Point {
    bregs: u8,
    geom: usize,
    stages: u32,
    instructions: u64,
    transfer_stalls: u64,
    prefetch_stalls: u64,
    cache_stalls: u64,
    total: u64,
    cost: u64,
    pareto: bool,
}

fn mark_pareto(points: &mut [Point]) {
    for i in 0..points.len() {
        let dominated = points.iter().any(|q| {
            q.total <= points[i].total
                && q.cost <= points[i].cost
                && (q.total < points[i].total || q.cost < points[i].cost)
        });
        points[i].pareto = !dominated;
    }
}

// ---------------------------------------------------------------------
// default mode: the full matrix sweep + Pareto report
// ---------------------------------------------------------------------

fn run_sweep(args: &Args) -> Result<bool, String> {
    let t0 = Instant::now();
    let su = lower_suite(args.scale, true)?;
    let mut store = ArtifactStore::default();

    // Baseline machine reference: one recording, replayed through the
    // same geometries (its trace carries no prefetch events).
    let base_exp = Experiment::new();
    let base_progs = store.progs(&base_exp, Machine::Baseline, &su, args.jobs)?;
    let base_cfgs: Vec<CacheConfig> = SWEEP_GEOMS.iter().map(|g| geom_cfg(g, 8)).collect();
    let base = record_replay(&base_progs, &su.names, &base_cfgs, &base_exp, args.jobs)?;

    // BR machine: one recording per register-file size.
    let mut outs: Vec<(u8, ReplayOutcome)> = Vec::new();
    for &n in &SWEEP_BREGS {
        let exp = Experiment {
            br_opts: BrOptions {
                num_bregs: n,
                ..Default::default()
            },
            ..Experiment::new()
        };
        let progs = store.progs(&exp, Machine::BranchReg, &su, args.jobs)?;
        let cfgs: Vec<CacheConfig> = SWEEP_GEOMS.iter().map(|g| geom_cfg(g, n)).collect();
        outs.push((n, record_replay(&progs, &su.names, &cfgs, &exp, args.jobs)?));
    }

    // Expand to points: pipeline estimate + cache fetch stalls. The
    // pipeline model already charges one cycle per instruction (and the
    // cache's base cycle per fetch is exactly one per instruction), so
    // the combined total adds only the cache's *stall* cycles.
    let mut points = Vec::new();
    for (n, out) in &outs {
        for (g, stats) in out.per_geom.iter().enumerate() {
            let cfg = geom_cfg(&SWEEP_GEOMS[g], *n);
            for stages in DEPTHS {
                let est = machine_cycles(Machine::BranchReg, &out.meas, stages);
                points.push(Point {
                    bregs: *n,
                    geom: g,
                    stages,
                    instructions: est.instructions,
                    transfer_stalls: est.transfer_stalls,
                    prefetch_stalls: est.prefetch_stalls,
                    cache_stalls: stats.stall_cycles,
                    total: est.total + stats.stall_cycles,
                    cost: cost_bits(&cfg, u32::from(*n), stages),
                    pareto: false,
                });
            }
        }
    }
    mark_pareto(&mut points);
    let frontier = points.iter().filter(|p| p.pareto).count();

    println!("br-explore design-space sweep ({:?} scale)", args.scale);
    println!(
        "matrix: {} breg sizes x {} cache geometries x {} depths = {} points",
        SWEEP_BREGS.len(),
        SWEEP_GEOMS.len(),
        DEPTHS.count(),
        points.len()
    );
    println!(
        "suite: {} programs; compiles: {} (artifact-store hits: {}); recorded {} trace words",
        su.names.len(),
        store.compiles,
        store.hits,
        human(points_trace_words(&outs) + base.trace_words),
    );
    println!();
    println!(
        "{:>6} {:<28} {:>6} {:>16} {:>14}",
        "bregs", "geometry", "depth", "cycles", "cost-bits"
    );
    for p in points.iter().filter(|p| p.pareto) {
        println!(
            "{:>6} {:<28} {:>6} {:>16} {:>14}",
            p.bregs,
            SWEEP_GEOMS[p.geom].label,
            p.stages,
            human(p.total),
            human(p.cost)
        );
    }
    println!();
    println!(
        "pareto frontier: {} of {} points ({:.1}s)",
        frontier,
        points.len(),
        t0.elapsed().as_secs_f64()
    );

    if let Some(path) = &args.pareto {
        let json = pareto_json(args.scale, &su, &base, &base_cfgs, &outs, &points);
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(true)
}

fn points_trace_words(outs: &[(u8, ReplayOutcome)]) -> u64 {
    outs.iter().map(|(_, o)| o.trace_words).sum()
}

fn pareto_json(
    scale: Scale,
    su: &Suite,
    base: &ReplayOutcome,
    base_cfgs: &[CacheConfig],
    outs: &[(u8, ReplayOutcome)],
    points: &[Point],
) -> String {
    let mut w = json::Writer::new();
    w.open_obj();
    w.field_str("schema", "br-explore-pareto-v1");
    w.field_str("scale", &format!("{scale:?}"));
    w.field_u64("suite_programs", su.names.len() as u64);
    w.field_str(
        "cost_model",
        "bits: cache lines*(data+tag+valid+prefetched) + 32*bregs + 32*prefetch_queue (prefetch on) + 64*stages",
    );
    w.field_str(
        "cycle_model",
        "br_pipeline::machine_cycles(meas, stages).total + icache stall_cycles",
    );
    w.key("depths");
    w.u64_array(&DEPTHS.map(u64::from).collect::<Vec<u64>>());
    w.key("geometries");
    w.open_arr();
    for (g, cfg) in SWEEP_GEOMS.iter().zip(base_cfgs) {
        w.open_obj();
        w.field_str("label", g.label);
        w.field_u64("sets", g.sets as u64);
        w.field_u64("assoc", g.assoc as u64);
        w.field_u64("line_words", g.line_words as u64);
        w.field_u64("prefetch", u64::from(g.prefetch));
        w.field_u64("capacity_bytes", cfg.capacity() as u64);
        w.close_obj();
    }
    w.close_arr();
    // Baseline machine reference: no branch registers, prefetch inert.
    w.key("baseline");
    w.open_obj();
    w.field_u64("instructions", base.meas.instructions);
    w.key("per_geom_stall_cycles");
    w.u64_array(
        &base
            .per_geom
            .iter()
            .map(|s| s.stall_cycles)
            .collect::<Vec<u64>>(),
    );
    w.key("per_depth_cycles");
    w.open_arr();
    for stages in DEPTHS {
        let est = machine_cycles(Machine::Baseline, &base.meas, stages);
        w.open_obj();
        w.field_u64("stages", u64::from(stages));
        w.field_u64("cycles", est.total);
        w.close_obj();
    }
    w.close_arr();
    w.close_obj();
    // Per-breg cache stats (geometry-resolved, depth-independent).
    w.key("br_configs");
    w.open_arr();
    for (n, out) in outs {
        w.open_obj();
        w.field_u64("bregs", u64::from(*n));
        w.field_u64("prefetch_queue", u64::from(*n));
        w.field_u64("instructions", out.meas.instructions);
        w.field_u64("trace_words", out.trace_words);
        w.key("per_geom");
        w.open_arr();
        for s in &out.per_geom {
            w.open_obj();
            w.field_u64("fetches", s.fetches);
            w.field_u64("misses", s.misses);
            w.field_u64("prefetch_hits", s.prefetch_hits);
            w.field_u64("late_prefetch_hits", s.late_prefetch_hits);
            w.field_u64("prefetch_dropped", s.prefetch_dropped);
            w.field_u64("pollution", s.pollution);
            w.field_u64("stall_cycles", s.stall_cycles);
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
    }
    w.close_arr();
    w.key("points");
    w.open_arr();
    for p in points {
        w.open_obj();
        w.field_u64("bregs", u64::from(p.bregs));
        w.field_u64("geom", p.geom as u64);
        w.field_u64("stages", u64::from(p.stages));
        w.field_u64("instructions", p.instructions);
        w.field_u64("transfer_stalls", p.transfer_stalls);
        w.field_u64("prefetch_stalls", p.prefetch_stalls);
        w.field_u64("cache_stall_cycles", p.cache_stalls);
        w.field_u64("total_cycles", p.total);
        w.field_u64("cost_bits", p.cost);
        w.field_u64("pareto", u64::from(p.pareto));
        w.close_obj();
    }
    w.close_arr();
    w.field_u64(
        "pareto_count",
        points.iter().filter(|p| p.pareto).count() as u64,
    );
    w.close_obj();
    w.into_string()
}

// ---------------------------------------------------------------------
// --section9: the legacy results/br_sweep.txt report (experiment E10)
// ---------------------------------------------------------------------

fn run_section9(args: &Args) -> Result<bool, String> {
    let scale = args.scale;
    let su = lower_suite(scale, false)?;
    let mut store = ArtifactStore::default();

    let base_exp = Experiment::new();
    let base_progs = store.progs(&base_exp, Machine::Baseline, &su, args.jobs)?;
    let (base_insts, _) = suite_insts_refs(&base_progs, &su.names, &base_exp, args.jobs)?;

    println!("Section 9 branch-register-count sweep ({scale:?} scale)");
    println!("baseline machine: {} instructions", human(base_insts));
    println!();
    println!(
        "{:>7} {:>16} {:>16} {:>10}",
        "bregs", "br insts", "data refs", "vs base"
    );
    for n in [2u8, 3, 4, 5, 6, 8] {
        let exp = Experiment {
            br_opts: BrOptions {
                num_bregs: n,
                ..Default::default()
            },
            ..Experiment::new()
        };
        let progs = store.progs(&exp, Machine::BranchReg, &su, args.jobs)?;
        let (insts, refs) = suite_insts_refs(&progs, &su.names, &exp, args.jobs)?;
        println!(
            "{:>7} {:>16} {:>16} {:>10}",
            n,
            human(insts),
            human(refs),
            pct((insts as f64 - base_insts as f64) / base_insts as f64 * 100.0)
        );
    }
    println!();

    println!("compiler-optimization ablations (8 branch registers):");
    println!(
        "{:<38} {:>16} {:>10}",
        "configuration", "br insts", "vs base"
    );
    let configs = [
        ("full (paper configuration)", BrOptions::default()),
        (
            "no loop hoisting",
            BrOptions {
                hoisting: false,
                ..Default::default()
            },
        ),
        (
            "no noop replacement",
            BrOptions {
                noop_replacement: false,
                ..Default::default()
            },
        ),
        (
            "neither optimization",
            BrOptions {
                hoisting: false,
                noop_replacement: false,
                ..Default::default()
            },
        ),
        (
            "fused fast compare (Section 9)",
            BrOptions {
                fused_compare: true,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in configs {
        let exp = Experiment {
            br_opts: opts,
            ..Experiment::new()
        };
        let progs = store.progs(&exp, Machine::BranchReg, &su, args.jobs)?;
        let (insts, _) = suite_insts_refs(&progs, &su.names, &exp, args.jobs)?;
        println!(
            "{:<38} {:>16} {:>10}",
            name,
            human(insts),
            pct((insts as f64 - base_insts as f64) / base_insts as f64 * 100.0)
        );
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// --smoke: record+replay checked against live hooks on the interpreter
// ---------------------------------------------------------------------

fn run_smoke(args: &Args) -> Result<bool, String> {
    let su = lower_suite(args.scale, false)?;
    let mut store = ArtifactStore::default();
    let geoms = smoke_geoms();
    // Both sides share one compiled artifact set (paper BR config).
    let exp = Experiment::new();
    let progs = store.progs(&exp, Machine::BranchReg, &su, args.jobs)?;
    let cfgs: Vec<CacheConfig> = geoms.iter().map(|(_, c)| *c).collect();

    let depths = DEPTHS.count();
    println!(
        "br-explore smoke ({:?} scale): {} cache geometries x {} depths = {} design points, {} programs",
        args.scale,
        geoms.len(),
        depths,
        geoms.len() * depths,
        su.names.len()
    );

    // Live: one live-hook emulation of the suite per geometry on the
    // reference tier, every depth priced from that run's measurements.
    let live_exp = Experiment {
        tier: REFERENCE_TIER,
        ..Experiment::new()
    };
    let mut live = Vec::with_capacity(cfgs.len());
    for cfg in &cfgs {
        let (meas, stats) = live_suite(&progs, &su.names, *cfg, &live_exp, args.jobs)?;
        let per_depth: Vec<u64> = DEPTHS
            .map(|stages| {
                machine_cycles(Machine::BranchReg, &meas, stages).total + stats.stall_cycles
            })
            .collect();
        live.push((meas, stats, per_depth));
    }

    // Replay: record once per program on the default tier, replay the
    // packed trace once per geometry, and price every depth from the one
    // recorded measurement set.
    let out = record_replay(&progs, &su.names, &cfgs, &exp, args.jobs)?;
    let replay_points: Vec<Vec<u64>> = out
        .per_geom
        .iter()
        .map(|stats| {
            br_pipeline::depth_sweep(Machine::BranchReg, &out.meas, DEPTHS)
                .into_iter()
                .map(|(_, est)| est.total + stats.stall_cycles)
                .collect()
        })
        .collect();

    // Byte-identity: every replayed stat and cycle total must equal the
    // live hook's, point for point.
    let mut mismatches = Vec::new();
    for (i, (label, _)) in geoms.iter().enumerate() {
        if live[i].1 != out.per_geom[i] {
            mismatches.push(format!(
                "{label}: live {:?} != replay {:?}",
                live[i].1, out.per_geom[i]
            ));
        }
        if live[i].0 != out.meas {
            mismatches.push(format!(
                "{label}: measurements diverged between live and recorded runs"
            ));
        }
        for (d, stages) in DEPTHS.enumerate() {
            if live[i].2[d] != replay_points[i][d] {
                mismatches.push(format!(
                    "{label} stages {stages}: cycles {} != {}",
                    live[i].2[d], replay_points[i][d]
                ));
            }
        }
    }
    for m in &mismatches {
        eprintln!("MISMATCH {m}");
    }
    let identical = mismatches.is_empty();

    println!(
        "live: {} suite runs on the {REFERENCE_TIER} tier  record+replay: {} recordings, {} replays",
        cfgs.len(),
        su.names.len(),
        cfgs.len()
    );
    println!(
        "replayed stats identical: {identical}  trace: {} words",
        human(out.trace_words)
    );

    Ok(identical)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("br-explore: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.section9 {
        run_section9(&args)
    } else if args.smoke {
        run_smoke(&args)
    } else {
        run_sweep(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("br-explore: {e}");
            ExitCode::from(2)
        }
    }
}
