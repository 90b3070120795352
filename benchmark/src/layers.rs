//! The traced path: each entry point split into the layers' public
//! calls, with a span around every call.
//!
//! `Experiment::run_comparison` is `br_frontend::compile` followed by
//! `compile_module_for` and `Emulator::run` per machine. Here the same
//! work is done call by call: `parser::parse`, `lower::lower`,
//! `br_ir::optimize_module`, `select_module_with`,
//! `ModuleBatch::compile_func` and `finish`, `assemble`, `Emulator::run`.
//! The gate callback belongs to the benchmark: its timestamps at the
//! `Ir`/`Regalloc`/`Emit` stage boundaries split instruction selection,
//! register allocation and emission, and it times `br_verify::check_stage`
//! when the experiment has gates on. Workloads check that this path
//! yields byte-identical programs and measurements to the entry point.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use br_codegen::Stage;
use br_core::{CodegenStats, Experiment, Machine, Program};
use br_emu::{Emulator, ExecTier, Measurements};
use br_ingest::Rv32Program;
use br_ir::Module;

use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use crate::Report;

/// A program as the user hands it over.
pub enum Source {
    MiniC(String),
    Rv32(Rv32Program),
}

/// The entry point's front half: `br_frontend::compile` or
/// `br_ingest::translate`.
pub fn lower_entry(src: &Source) -> Result<Module, String> {
    match src {
        Source::MiniC(s) => br_frontend::compile(s).map_err(|e| format!("frontend: {e}")),
        Source::Rv32(p) => br_ingest::translate(p).map_err(|e| format!("ingest: {e}")),
    }
}

/// The same front half, call by call.
pub fn lower(tr: &mut Tracer, id: u32, src: &Source) -> Result<Module, String> {
    let module = match src {
        Source::MiniC(s) => {
            let ast = tr
                .span("frontend", "parse", id, || br_frontend::parser::parse(s))
                .map_err(|e| format!("parse: {e}"))?;
            let mut m = tr
                .span("frontend", "lower", id, || br_frontend::lower::lower(&ast))
                .map_err(|e| format!("lower: {e}"))?;
            tr.span("ir", "opt", id, || br_ir::optimize_module(&mut m));
            m
        }
        Source::Rv32(p) => tr
            .span("ingest", "translate", id, || br_ingest::translate(p))
            .map_err(|e| format!("ingest: {e}"))?,
    };
    let insts: usize = module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len())
        .sum();
    tr.count("ir.insts", insts as f64);
    Ok(module)
}

#[derive(Clone, Copy, PartialEq)]
enum Gate {
    Ir,
    Regalloc,
    Emit,
}

/// `Experiment::compile_module_for`, call by call.
pub fn compile(
    tr: &mut Tracer,
    id: u32,
    exp: &Experiment,
    module: &Module,
    machine: Machine,
) -> Result<(Program, CodegenStats), String> {
    let events: RefCell<Vec<(Gate, Instant, Instant)>> = RefCell::new(Vec::new());
    let rejects = Cell::new(0u32);
    let gate = |stage: Stage<'_>| {
        let kind = match stage {
            Stage::Ir { .. } => Gate::Ir,
            Stage::Regalloc { .. } => Gate::Regalloc,
            Stage::Emit { .. } => Gate::Emit,
        };
        let t = Instant::now();
        let verdict = if exp.verify {
            br_verify::check_stage(stage)
        } else {
            Ok(())
        };
        events.borrow_mut().push((kind, t, Instant::now()));
        if verdict.is_err() {
            rejects.set(rejects.get() + 1);
        }
        verdict
    };
    let gate_spans = |tr: &mut Tracer, evs: &[(Gate, Instant, Instant)]| {
        if exp.verify {
            for &(_, a, b) in evs {
                tr.record("verify", "gate", id, a, b);
            }
            tr.count("verify.gate_calls", evs.len() as f64);
        }
    };

    let isel = tr.enter("codegen", "isel", id);
    let mut select_gate = &gate;
    let batch = br_codegen::select_module_with(
        module,
        machine,
        exp.base_opts,
        exp.br_opts,
        &mut select_gate,
    );
    gate_spans(tr, &events.take());
    tr.exit(isel);
    let batch = batch.map_err(|e| format!("{machine} isel: {e:?}"))?;

    let mut parts = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        let t0 = Instant::now();
        let part = batch.compile_func(i, &gate);
        let t1 = Instant::now();
        let evs = events.take();
        let at = |g| evs.iter().find(|e| e.0 == g).copied();
        match (at(Gate::Regalloc), at(Gate::Emit)) {
            (Some(r), Some(e)) => {
                tr.record("codegen", "regalloc", id, t0, r.1);
                tr.record("codegen", "emit", id, r.2, e.1);
            }
            (Some(r), None) => {
                tr.record("codegen", "regalloc", id, t0, r.1);
                tr.record("codegen", "emit", id, r.2, t1);
            }
            _ => tr.record("codegen", "regalloc", id, t0, t1),
        }
        gate_spans(tr, &evs);
        parts.push(part.map_err(|e| format!("{machine} func {i}: {e:?}"))?);
    }
    tr.count("codegen.funcs", batch.len() as f64);
    tr.count("verify.rejects", f64::from(rejects.get()));
    let out = tr.span("codegen", "finish", id, || batch.finish(parts));
    let prog = tr
        .span("isa", "assemble", id, || out.asm.assemble())
        .map_err(|e| format!("{machine} assemble: {e}"))?;
    tr.count("codegen.hoisted_calcs", f64::from(out.stats.hoisted_calcs));
    tr.count("codegen.slots_noop", f64::from(out.stats.slots_noop));
    tr.count("isa.static_insts", prog.static_inst_count() as f64);
    Ok((prog, out.stats))
}

/// `Emulator::run` on `tier`, traced.
pub fn emulate(
    tr: &mut Tracer,
    id: u32,
    prog: &Program,
    tier: ExecTier,
    fuel: u64,
) -> Result<(i32, Measurements), String> {
    let (exit, meas) = tr.span("emu", "run", id, || {
        let mut emu = Emulator::new(prog).with_tier(tier);
        let exit = emu.run(fuel);
        (exit, emu.measurements().clone())
    });
    let exit = exit.map_err(|e| format!("{} emulate: {e}", prog.machine))?;
    tr.count("emu.sim_insts", meas.instructions as f64);
    Ok((exit, meas))
}

/// Canonical bytes of a compiled program (the br-serve artifact
/// format, whose symbol table is sorted), for byte-identity checks.
pub fn program_bytes(prog: &Program, stats: &CodegenStats) -> Vec<u8> {
    br_serve::artifact::serialize(prog, stats)
}

/// Time `Emulator::run` on every `ExecTier` over `progs`, check that the
/// tiers agree on every binary, and return simulated MIPS per tier. The
/// tiers take turns on each binary, so a drift in host speed lands on
/// all of them alike.
pub fn tier_rows(report: &mut Report, progs: &[&Program], fuel: u64) -> Vec<(ExecTier, f64)> {
    let (mut secs, mut insts) = ([0.0; 3], [0u64; 3]);
    for (i, p) in progs.iter().enumerate() {
        let mut outs = Vec::with_capacity(3);
        for (k, tier) in ExecTier::ALL.into_iter().enumerate() {
            let mut emu = Emulator::new(p).with_tier(tier);
            let t = Instant::now();
            let exit = emu.run(fuel);
            secs[k] += t.elapsed().as_secs_f64();
            insts[k] += emu.measurements().instructions;
            outs.push(exit.map(|x| (x, emu.measurements().clone())));
        }
        report.check(match &outs[..] {
            [Ok(a), Ok(b), Ok(c)] if a == b && a == c => Ok(()),
            _ => Err(format!("binary {i}: the execution tiers disagree or fail")),
        });
    }
    ExecTier::ALL
        .into_iter()
        .enumerate()
        .map(|(k, tier)| (tier, ratio(insts[k] as f64, secs[k]) / 1e6))
        .collect()
}

/// Metrics only the serve workload fills in; zero elsewhere.
const SERVE_METRICS: [(&str, &str); 10] = [
    ("serve.rtt_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.overloaded", "count"),
    ("serve.errors", "count"),
    ("serve.codec_us", "us"),
    ("serve.warm_est_frontend_ms", "ms"),
    ("serve.warm_est_emu_ms", "ms"),
];

/// Emit every per-layer metric. Span times and counters are per traced
/// pass; `serve` supplies the `serve.*` values (absent ones read 0).
pub fn layer_metrics(
    report: &mut Report,
    tr: &Tracer,
    traced_passes: usize,
    untraced_walls: &[f64],
    traced_walls: &[f64],
    tiers: &[(ExecTier, f64)],
    serve: &[(&str, f64)],
) {
    let n = traced_passes.max(1) as f64;
    let selfs = tr.self_times();
    let t = |k: &str| selfs.get(k).copied().unwrap_or(0.0) / n;
    let c = |k: &str| tr.counter(k) / n;
    let time_rows = [
        ("frontend.parse_s", t("frontend.parse")),
        ("frontend.lower_s", t("frontend.lower")),
        ("ir.opt_s", t("ir.opt")),
        ("codegen.isel_s", t("codegen.isel")),
        ("codegen.regalloc_s", t("codegen.regalloc")),
        ("codegen.emit_s", t("codegen.emit") + t("codegen.finish")),
        ("isa.assemble_s", t("isa.assemble")),
        ("verify.gate_s", t("verify.gate")),
        ("emu.run_s", t("emu.run")),
        ("emu.record_s", t("emu.record")),
        ("icache.replay_s", t("icache.replay")),
        ("ingest.translate_s", t("ingest.translate")),
        ("pipeline.sweep_s", t("pipeline.sweep")),
        ("core.self_s", t("core.program")),
    ];
    for (name, v) in time_rows {
        report.metric(name, v, "s");
    }
    for name in [
        "ir.insts",
        "codegen.funcs",
        "codegen.hoisted_calcs",
        "codegen.slots_noop",
        "isa.static_insts",
        "verify.gate_calls",
        "verify.rejects",
        "emu.sim_insts",
        "emu.trace_words",
        "icache.replays",
        "icache.sim_misses",
        "icache.sim_stall_cycles",
    ] {
        report.metric(name, c(name), "count");
    }
    report.metric(
        "emu.ns_per_inst",
        ratio((t("emu.run") + t("emu.record")) * 1e9, c("emu.sim_insts")),
        "ns",
    );
    report.metric(
        "icache.ns_per_fetch",
        ratio(t("icache.replay") * 1e9, c("icache.fetches")),
        "ns",
    );
    for (tier, mips) in tiers {
        report.metric(&format!("emu.mips.{}", tier.name()), *mips, "M/s");
    }
    for (name, unit) in SERVE_METRICS {
        let v = serve
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v);
        report.metric(name, v, unit);
    }
    let overhead = (median(traced_walls) / median(untraced_walls) - 1.0) * 100.0;
    report.metric("trace.overhead_pct", overhead, "%");
}

/// Alternate untraced and traced passes while another round fits before
/// `end` (at least one of each), swapping which goes first every round
/// so neither side always meets cold caches; each traced pass sits under
/// one `bench.pass` root span. Returns (untraced walls, traced walls) in
/// seconds.
pub fn alternate(
    tr: &mut Tracer,
    end: Instant,
    mut pass: impl FnMut(Option<&mut Tracer>),
) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut traced) = (Vec::<f64>::new(), Vec::<f64>::new());
    let round = |p: &[f64], t: &[f64]| Duration::from_secs_f64(mean(p) + mean(t));
    while plain.is_empty() || Instant::now() + round(&plain, &traced) <= end {
        let traced_first = plain.len() % 2 == 1;
        for traced_now in [traced_first, !traced_first] {
            let t = Instant::now();
            if traced_now {
                let root = tr.enter("bench", "pass", 0);
                pass(Some(&mut *tr));
                tr.exit(root);
                traced.push(t.elapsed().as_secs_f64());
            } else {
                pass(None);
                plain.push(t.elapsed().as_secs_f64());
            }
        }
    }
    (plain, traced)
}
