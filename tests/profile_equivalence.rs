//! Guards the observability tentpole's core invariant: profiling only
//! *observes*. Every Appendix I program, on both machines, must produce
//! byte-identical exit values and [`Measurements`] whether it runs on
//! the hook-free fast path or under the full [`ProfileHook`] — and the
//! profile itself must account for every retired instruction.

use br_core::{suite, Experiment, Machine, Scale};
use br_emu::{Emulator, ExecTier, TraceHook};
use br_obs::ProfileHook;

const FUEL: u64 = 1_000_000_000;

/// Every Appendix I program, on both machines, must be bit-for-bit
/// indistinguishable across execution tiers: same exit value, same
/// [`Measurements`], and the same fetch/prefetch/retire/store event
/// streams in the same order.
#[test]
fn suite_tiers_are_byte_identical() {
    let exp = Experiment::new();
    for w in suite(Scale::Test) {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp
                .compile(&w.source, machine)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", w.name));

            let mut interp = Emulator::new(&prog).with_tier(ExecTier::Interp);
            let mut ref_hook = TraceHook::default();
            let ref_exit = interp.run_with_hook(FUEL, &mut ref_hook).expect("interp");
            assert!(!ref_hook.truncated(), "{} trace capped", w.name);

            for tier in [ExecTier::Threaded, ExecTier::Traced] {
                let mut emu = Emulator::new(&prog).with_tier(tier);
                let mut hook = TraceHook::default();
                let exit = emu
                    .run_with_hook(FUEL, &mut hook)
                    .unwrap_or_else(|e| panic!("{} {tier} on {machine}: {e}", w.name));
                assert_eq!(ref_exit, exit, "{} exit under {tier} on {machine}", w.name);
                assert_eq!(
                    interp.measurements(),
                    emu.measurements(),
                    "{} measurements under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    ref_hook.fetches, hook.fetches,
                    "{} fetch stream under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    ref_hook.prefetches, hook.prefetches,
                    "{} prefetch stream under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    ref_hook.retires, hook.retires,
                    "{} retire stream under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    ref_hook.stores, hook.stores,
                    "{} store stream under {tier} on {machine}",
                    w.name
                );

                // The hook-free fast path of the same tier agrees too.
                let mut fast = Emulator::new(&prog).with_tier(tier);
                let fast_exit = fast.run(FUEL).expect("fast run");
                assert_eq!(ref_exit, fast_exit, "{} fast exit under {tier}", w.name);
                assert_eq!(
                    interp.measurements(),
                    fast.measurements(),
                    "{} fast measurements under {tier} on {machine}",
                    w.name
                );
            }
        }
    }
}

/// The profiler's attribution invariants hold on every tier, not just
/// the interpreter.
#[test]
fn suite_profile_attribution_holds_on_every_tier() {
    let exp = Experiment::new();
    for w in suite(Scale::Test).into_iter().take(4) {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp
                .compile(&w.source, machine)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", w.name));
            for tier in ExecTier::ALL {
                let mut emu = Emulator::new(&prog).with_tier(tier);
                let mut hook = ProfileHook::new(&prog);
                emu.run_with_hook(FUEL, &mut hook)
                    .unwrap_or_else(|e| panic!("{} {tier} on {machine}: {e}", w.name));
                let m = emu.measurements().clone();
                let p = hook.finish(w.name, &m);
                assert_eq!(
                    p.retired, m.instructions,
                    "{} retires under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    p.blocks.iter().map(|(_, n)| n).sum::<u64>(),
                    p.retired,
                    "{} block attribution under {tier} on {machine}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn suite_measurements_identical_under_profiling() {
    let exp = Experiment::new();
    for w in suite(Scale::Test) {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp
                .compile(&w.source, machine)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", w.name));

            for tier in ExecTier::ALL {
                // Hook-free fast path.
                let mut fast = Emulator::new(&prog).with_tier(tier);
                let fast_exit = fast.run(FUEL).expect("fast run");

                // The same binary under the profiler.
                let mut profiled = Emulator::new(&prog).with_tier(tier);
                let mut hook = ProfileHook::new(&prog);
                let prof_exit = profiled
                    .run_with_hook(FUEL, &mut hook)
                    .expect("profiled run");

                assert_eq!(
                    fast_exit, prof_exit,
                    "{} exit under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    fast.measurements(),
                    profiled.measurements(),
                    "{} measurements under ProfileHook, {tier}, on {machine}",
                    w.name
                );

                // Full attribution: one retire per instruction, every retire
                // lands in an opcode bucket and a codegen basic block, and
                // nothing executed that was never emitted.
                let m = profiled.measurements().clone();
                let p = hook.finish(w.name, &m);
                assert_eq!(p.retired, m.instructions, "{} retires on {machine}", w.name);
                assert_eq!(
                    p.opcodes.iter().sum::<u64>(),
                    p.retired,
                    "{} opcode attribution on {machine}",
                    w.name
                );
                assert_eq!(
                    p.blocks.iter().map(|(_, n)| n).sum::<u64>(),
                    p.retired,
                    "{} block attribution on {machine}",
                    w.name
                );
                assert_eq!(
                    p.coverage.executed & !p.coverage.emitted,
                    0,
                    "{} executed ⊆ emitted on {machine}",
                    w.name
                );
                assert_eq!(
                    p.breg.is_some(),
                    machine == Machine::BranchReg,
                    "{} breg stats only on the BR machine",
                    w.name
                );
            }
        }
    }
}

/// The metered compile must emit the same binary as the plain one —
/// metering reads the clock, never the program — with the verify gates
/// off (the release and `br-serve` default) and on, at every jobs level,
/// and the allocator counters must not depend on the jobs level.
#[test]
fn metered_compile_is_byte_identical() {
    for verify in [false, true] {
        for w in suite(Scale::Test).into_iter().take(6) {
            let module = br_frontend::compile(&w.source).expect("frontend");
            for machine in [Machine::Baseline, Machine::BranchReg] {
                let mut serial = None;
                for jobs in [1, 4] {
                    let exp = Experiment {
                        verify,
                        jobs,
                        ..Experiment::new()
                    };
                    let ctx = format!("{} on {machine} (verify={verify}, jobs={jobs})", w.name);
                    let (plain, plain_stats) = exp
                        .compile_module_for(&module, machine)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let (metered, metered_stats, metrics) = exp
                        .compile_module_metered(&module, machine)
                        .unwrap_or_else(|e| panic!("{ctx} metered: {e}"));
                    assert_eq!(plain.code, metered.code, "code: {ctx}");
                    assert_eq!(plain_stats, metered_stats, "stats: {ctx}");
                    assert_eq!(
                        metrics.funcs,
                        module.functions.len(),
                        "metered every function: {ctx}"
                    );
                    let (code, spills, funcs) =
                        serial.get_or_insert((metered.code.clone(), metrics.spills, metrics.funcs));
                    assert_eq!(*code, metered.code, "code vs jobs=1: {ctx}");
                    assert_eq!(*spills, metrics.spills, "spills vs jobs=1: {ctx}");
                    assert_eq!(*funcs, metrics.funcs, "funcs vs jobs=1: {ctx}");
                }
            }
        }
    }
}

/// A warmed superblock cache adopted by a fresh emulator of the same
/// program must change nothing observable — and a cache from different
/// program text must be rejected.
#[test]
fn trace_cache_reuse_is_byte_identical() {
    let exp = Experiment::new();
    for w in suite(Scale::Test).into_iter().take(4) {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp
                .compile(&w.source, machine)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", w.name));

            let mut cold = Emulator::new(&prog).with_tier(ExecTier::Traced);
            let mut cold_hook = TraceHook::default();
            let cold_exit = cold.run_with_hook(FUEL, &mut cold_hook).expect("cold run");
            let cache = cold
                .take_trace_cache()
                .expect("traced run leaves a cache behind");

            let mut warm = Emulator::new(&prog).with_tier(ExecTier::Traced);
            assert!(
                warm.set_trace_cache(cache),
                "{} cache accepted for identical text on {machine}",
                w.name
            );
            let mut warm_hook = TraceHook::default();
            let warm_exit = warm.run_with_hook(FUEL, &mut warm_hook).expect("warm run");

            assert_eq!(cold_exit, warm_exit, "{} exit on {machine}", w.name);
            assert_eq!(
                cold.measurements(),
                warm.measurements(),
                "{} measurements on {machine}",
                w.name
            );
            assert_eq!(cold_hook.fetches, warm_hook.fetches, "{} fetches", w.name);
            assert_eq!(cold_hook.retires, warm_hook.retires, "{} retires", w.name);
            assert_eq!(cold_hook.stores, warm_hook.stores, "{} stores", w.name);
            assert!(
                warm.traced_insts() >= cold.traced_insts(),
                "{} warm start must not lose trace coverage on {machine}",
                w.name
            );

            // A cache formed for other text must be dropped untouched.
            let other = match machine {
                Machine::Baseline => Machine::BranchReg,
                Machine::BranchReg => Machine::Baseline,
            };
            let (other_prog, _) = exp
                .compile(&w.source, other)
                .unwrap_or_else(|e| panic!("{} on {other}: {e}", w.name));
            let cache = warm.take_trace_cache().expect("cache still present");
            let mut wrong = Emulator::new(&other_prog).with_tier(ExecTier::Traced);
            assert!(
                !wrong.set_trace_cache(cache),
                "{} cache rejected across machines",
                w.name
            );
        }
    }
}
