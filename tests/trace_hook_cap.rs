//! Regression test for the `TraceHook` unbounded-growth fix: tracing a
//! long-running program with a small cap must keep memory bounded (the
//! kept prefix) while still counting every dropped event, and a capped
//! trace must never change what the program computes.

use br_core::{by_name, Experiment, Machine, Scale};
use br_emu::{Emulator, TraceHook, TRACE_HOOK_DEFAULT_CAP};

const FUEL: u64 = 1_000_000_000;

#[test]
fn capped_trace_bounds_memory_and_counts_drops() {
    let w = by_name("sieve", Scale::Test).expect("sieve workload");
    let exp = Experiment::new();
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let (prog, _) = exp.compile(&w.source, machine).expect("compile");

        let mut fast = Emulator::new(&prog);
        let fast_exit = fast.run(FUEL).expect("fast run");
        let insts = fast.measurements().instructions;
        assert!(
            insts > 1_000,
            "sieve must be long enough to overflow the cap"
        );

        let cap = 256;
        let mut emu = Emulator::new(&prog);
        let mut hook = TraceHook::with_cap(cap);
        let exit = emu.run_with_hook(FUEL, &mut hook).expect("traced run");

        // Observing never perturbs: same exit, same measurements.
        assert_eq!(exit, fast_exit, "exit under capped trace on {machine}");
        assert_eq!(fast.measurements(), emu.measurements());

        // Every stream respects the cap; the prefix is kept in order.
        assert!(hook.fetches.len() <= cap, "fetches capped on {machine}");
        assert!(hook.prefetches.len() <= cap);
        assert!(hook.retires.len() <= cap);
        assert!(hook.stores.len() <= cap);
        assert!(hook.truncated(), "a long run must truncate at cap {cap}");

        // Nothing vanishes silently: kept + dropped covers at least one
        // fetch and one retire per executed instruction.
        let kept =
            (hook.fetches.len() + hook.prefetches.len() + hook.retires.len() + hook.stores.len())
                as u64;
        assert!(
            kept + hook.dropped >= 2 * insts,
            "kept {kept} + dropped {} events vs {insts} instructions on {machine}",
            hook.dropped
        );

        // The kept prefix is the *start* of the run: the first fetch is
        // the entry point, and retires are monotonically observed.
        assert_eq!(hook.fetches[0], prog.entry, "trace keeps the first events");
    }
}

#[test]
fn default_cap_leaves_short_runs_untruncated() {
    let w = by_name("wc", Scale::Test).expect("wc workload");
    let exp = Experiment::new();
    let (prog, _) = exp.compile(&w.source, Machine::BranchReg).expect("compile");
    let mut emu = Emulator::new(&prog);
    let mut hook = TraceHook::default();
    emu.run_with_hook(FUEL, &mut hook).expect("run");
    assert_eq!(hook.cap, TRACE_HOOK_DEFAULT_CAP);
    assert!(!hook.truncated(), "test-scale wc fits the default cap");
    assert_eq!(hook.dropped, 0);
    assert_eq!(
        hook.retires.len() as u64,
        emu.measurements().instructions,
        "untruncated trace holds every retire"
    );
}
