//! Guards the hook-monomorphization refactor: the emulator's measured
//! counts must not depend on *how* the hook is dispatched. The full
//! Appendix I suite runs three ways on both machines and every
//! [`ExecTier`] — the hook-free fast path (`Emulator::run`), a
//! statically-dispatched counting hook, and the same hook behind
//! `&mut dyn ExecHook` — and every way must produce identical exit
//! values and [`Measurements`].

use br_core::{suite, Experiment, Machine, Scale};
use br_emu::{Emulator, ExecHook, ExecTier, NoHook};

const FUEL: u64 = 1_000_000_000;

#[derive(Default)]
struct CountingHook {
    fetches: u64,
    prefetches: u64,
    retires: u64,
    stores: u64,
}

impl ExecHook for CountingHook {
    fn fetch(&mut self, _addr: u32) {
        self.fetches += 1;
    }

    fn prefetch(&mut self, _addr: u32) {
        self.prefetches += 1;
    }

    fn retire(&mut self, _pc: u32, store: Option<(u32, i32)>) {
        self.retires += 1;
        if store.is_some() {
            self.stores += 1;
        }
    }
}

#[test]
fn suite_measurements_identical_with_and_without_hooks() {
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

                // Statically-dispatched counting hook (monomorphized).
                let mut counted = Emulator::new(&prog).with_tier(tier);
                let mut hook = CountingHook::default();
                let counted_exit = counted.run_with_hook(FUEL, &mut hook).expect("hooked run");

                // The same hook through virtual dispatch (the dyn-compat path
                // the icache simulator and oracle use).
                let mut virt = Emulator::new(&prog).with_tier(tier);
                let mut dyn_hook = CountingHook::default();
                let dyn_ref: &mut dyn ExecHook = &mut dyn_hook;
                let virt_exit = virt.run_with_hook(FUEL, dyn_ref).expect("dyn hooked run");

                assert_eq!(
                    fast_exit, counted_exit,
                    "{} exit under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    fast_exit, virt_exit,
                    "{} dyn exit under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    fast.measurements(),
                    counted.measurements(),
                    "{} measurements under counting hook, {tier}, on {machine}",
                    w.name
                );
                assert_eq!(
                    fast.measurements(),
                    virt.measurements(),
                    "{} measurements under dyn hook, {tier}, on {machine}",
                    w.name
                );

                // The hook really observed the run: one retire per executed
                // instruction, and at least as many fetches as retires.
                let m = counted.measurements();
                assert_eq!(
                    hook.retires, m.instructions,
                    "{} retire count under {tier} on {machine}",
                    w.name
                );
                assert!(
                    hook.fetches >= hook.retires,
                    "{} fetches under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    hook.retires, dyn_hook.retires,
                    "{} dyn retires under {tier}",
                    w.name
                );
                assert_eq!(
                    hook.fetches, dyn_hook.fetches,
                    "{} dyn fetches under {tier}",
                    w.name
                );
                assert_eq!(
                    hook.stores, dyn_hook.stores,
                    "{} dyn stores under {tier}",
                    w.name
                );
                if machine == Machine::BranchReg {
                    assert_eq!(
                        hook.prefetches, m.addr_calcs,
                        "{} prefetch per address calculation under {tier} on {machine}",
                        w.name
                    );
                } else {
                    assert_eq!(
                        hook.prefetches, 0,
                        "{} baseline prefetches under {tier}",
                        w.name
                    );
                }

                // NoHook through the generic path still agrees (this is the
                // monomorphized no-op instantiation the fast path relies on).
                let mut nohook = Emulator::new(&prog).with_tier(tier);
                let nohook_exit = nohook.run_with_hook(FUEL, &mut NoHook).expect("nohook run");
                assert_eq!(
                    fast_exit, nohook_exit,
                    "{} NoHook exit under {tier} on {machine}",
                    w.name
                );
                assert_eq!(
                    fast.measurements(),
                    nohook.measurements(),
                    "{} NoHook measurements under {tier} on {machine}",
                    w.name
                );
            }
        }
    }
}
