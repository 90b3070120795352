//! Torture-regression coverage for the fault-free/instrumented loop
//! split: arming *any* fault must route execution through the
//! instrumented loop, the fault must actually fire there, and the
//! instrumented loop must count exactly like the fast path when the
//! fired fault is a semantic no-op.
//!
//! Each [`Fault`] variant is exercised at step 0 and at a late
//! (mid-execution) step, on both machines, through the real compiler
//! pipeline rather than hand-assembled stubs.

use br_core::{Experiment, Machine};
use br_emu::{EmuError, Emulator, ExecTier, Fault, Measurements, TraceHook};
use br_isa::Program;

const FUEL: u64 = 100_000_000;

/// A workload small enough to replay many times but with loops, calls,
/// and global stores spread across its whole execution (so a late-step
/// `FailMem` always has a memory access left to fail).
const SRC: &str = "
    int acc[8];
    int mix(int a, int b) { return a * 3 + b; }
    int main() {
        int s = 0;
        for (int i = 0; i < 40; i++) {
            s = mix(s, i);
            acc[i & 7] = s;
            if (s > 100000) s = s - 100000;
        }
        return s & 255;
    }
";

fn compile(machine: Machine) -> Program {
    let (prog, _) = Experiment::new()
        .compile(SRC, machine)
        .expect("fixture compiles");
    prog
}

/// The fault-free fast path of the reference interpreter.
fn clean_run(prog: &Program) -> (i32, Measurements) {
    let mut emu = Emulator::new(prog).with_tier(ExecTier::Interp);
    let exit = emu.run(FUEL).expect("clean run");
    (exit, emu.measurements().clone())
}

/// Run with one armed fault; every outcome must be a clean exit or a
/// typed error — never a panic or an out-of-fuel wedge.
fn run_armed(prog: &Program, fault: Fault) -> Result<(i32, Measurements), EmuError> {
    let mut emu = Emulator::new(prog);
    emu.inject(fault);
    match emu.run(FUEL) {
        Ok(exit) => Ok((exit, emu.measurements().clone())),
        Err(EmuError::OutOfFuel) => panic!("armed {fault:?} wedged the emulator"),
        Err(e) => Err(e),
    }
}

#[test]
fn armed_but_never_firing_fault_counts_like_the_fast_path() {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = compile(machine);
        let (exit, meas) = clean_run(&prog);
        // The armed queue forces the instrumented loop for the whole
        // run; with the fault parked at an unreachable step the counts
        // must match the fast path bit for bit.
        let (armed_exit, armed_meas) = run_armed(
            &prog,
            Fault::CorruptReg {
                at_step: u64::MAX,
                reg: 1,
                xor_mask: -1,
            },
        )
        .expect("never-firing fault must not alter the run");
        assert_eq!(exit, armed_exit, "exit on {machine}");
        assert_eq!(meas, armed_meas, "measurements on {machine}");
    }
}

#[test]
fn corrupt_reg_fires_at_step_zero_and_late() {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = compile(machine);
        let (exit, meas) = clean_run(&prog);
        let late = meas.instructions / 2;
        for at_step in [0, late] {
            // xor_mask 0 makes the firing fault a semantic no-op: it
            // proves the instrumented loop both fires the fault at the
            // right step and still counts exactly like the fast path.
            let (e, m) = run_armed(
                &prog,
                Fault::CorruptReg {
                    at_step,
                    reg: 1,
                    xor_mask: 0,
                },
            )
            .expect("no-op corruption completes");
            assert_eq!(
                (e, &m),
                (exit, &meas),
                "no-op at step {at_step} on {machine}"
            );

            // A destructive mask must still end in a typed outcome.
            let _ = run_armed(
                &prog,
                Fault::CorruptReg {
                    at_step,
                    reg: 3,
                    xor_mask: 0x5555_0000,
                },
            );
        }
    }
}

#[test]
fn corrupt_inst_fires_at_step_zero_and_late() {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = compile(machine);
        let (exit, meas) = clean_run(&prog);
        let late = meas.instructions / 2;
        for at_step in [0, late] {
            // xor_mask 0 re-decodes the same word: the run must be
            // untouched even though the fault fired.
            let (e, m) = run_armed(
                &prog,
                Fault::CorruptInst {
                    at_step,
                    xor_mask: 0,
                },
            )
            .expect("identity re-decode completes");
            assert_eq!(
                (e, &m),
                (exit, &meas),
                "no-op at step {at_step} on {machine}"
            );

            // Flipping the whole word either fails to decode
            // (WrongMachine) or runs astray into another typed error —
            // assert it stays typed.
            let _ = run_armed(
                &prog,
                Fault::CorruptInst {
                    at_step,
                    xor_mask: u32::MAX,
                },
            );
        }
    }
}

/// Fault injection is *tier-invariant*: arming any fault routes the run
/// to the instrumented interpreter no matter which [`ExecTier`] was
/// requested (the threaded and traced tiers never see faulted state).
/// Every [`Fault`] variant × hook shape × tier combination must
/// therefore reproduce the interpreter reference bit for bit — the same
/// exit and [`Measurements`] on success, the same typed [`EmuError`] on
/// failure, and under a hook the same event streams.
#[test]
fn faults_are_tier_invariant_across_hook_shapes() {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = compile(machine);
        let (_, meas) = clean_run(&prog);
        let late = meas.instructions / 2;

        // Every variant, firing early, firing late, and (for the
        // armed-but-parked instrumented path) never firing at all.
        let faults = [
            Fault::CorruptReg {
                at_step: 0,
                reg: 1,
                xor_mask: 0,
            },
            Fault::CorruptReg {
                at_step: late,
                reg: 3,
                xor_mask: 0x5555_0000,
            },
            Fault::CorruptReg {
                at_step: u64::MAX,
                reg: 1,
                xor_mask: -1,
            },
            Fault::CorruptInst {
                at_step: 0,
                xor_mask: 0,
            },
            Fault::CorruptInst {
                at_step: late,
                xor_mask: u32::MAX,
            },
            Fault::FailMem { at_step: 0 },
            Fault::FailMem { at_step: late },
        ];

        for fault in faults {
            // Interpreter reference, hook-free and hooked.
            let reference = run_armed_tiered(&prog, fault, ExecTier::Interp, None);
            let mut ref_hook = TraceHook::default();
            let ref_hooked = run_armed_tiered(&prog, fault, ExecTier::Interp, Some(&mut ref_hook));
            assert_eq!(
                reference, ref_hooked,
                "{fault:?} hooked interp diverges on {machine}"
            );

            for tier in ExecTier::ALL {
                let bare = run_armed_tiered(&prog, fault, tier, None);
                assert_eq!(
                    reference, bare,
                    "{fault:?} hook-free under {tier} on {machine}"
                );

                let mut hook = TraceHook::default();
                let hooked = run_armed_tiered(&prog, fault, tier, Some(&mut hook));
                assert_eq!(
                    reference, hooked,
                    "{fault:?} hooked under {tier} on {machine}"
                );
                assert_eq!(
                    ref_hook.fetches, hook.fetches,
                    "{fault:?} fetch stream under {tier} on {machine}"
                );
                assert_eq!(
                    ref_hook.retires, hook.retires,
                    "{fault:?} retire stream under {tier} on {machine}"
                );
                assert_eq!(
                    ref_hook.stores, hook.stores,
                    "{fault:?} store stream under {tier} on {machine}"
                );
            }
        }
    }
}

/// One armed run on a chosen tier, hook-free or under a [`TraceHook`];
/// panics on an out-of-fuel wedge like [`run_armed`].
fn run_armed_tiered(
    prog: &Program,
    fault: Fault,
    tier: ExecTier,
    hook: Option<&mut TraceHook>,
) -> Result<(i32, Measurements), EmuError> {
    let mut emu = Emulator::new(prog).with_tier(tier);
    emu.inject(fault);
    let res = match hook {
        Some(h) => emu.run_with_hook(FUEL, h),
        None => emu.run(FUEL),
    };
    match res {
        Ok(exit) => Ok((exit, emu.measurements().clone())),
        Err(EmuError::OutOfFuel) => panic!("armed {fault:?} wedged the emulator on {tier}"),
        Err(e) => Err(e),
    }
}

#[test]
fn fail_mem_fires_at_step_zero_and_late() {
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = compile(machine);
        let (_, meas) = clean_run(&prog);
        assert!(meas.data_refs > 0, "fixture must touch memory on {machine}");
        let late = meas.instructions / 2;
        for at_step in [0, late] {
            // The fixture stores a global every loop iteration, so a
            // memory access always remains after `late`; the first one
            // at or after `at_step` must report `BadMem`.
            match run_armed(&prog, Fault::FailMem { at_step }) {
                Err(EmuError::BadMem { .. }) => {}
                other => panic!("expected BadMem at step {at_step} on {machine}, got {other:?}"),
            }
        }
    }
}
