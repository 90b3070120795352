//! Cross-checks for `br-pipeline`: the analytic delay tables are pinned
//! against hand-computed Figure 5/7 values for every depth from 2 to 8
//! stages, the Figure 5–8 stage diagrams must agree cycle-for-cycle with
//! those tables, and whole-run cycle estimates must be consistent with
//! the emulator's [`Measurements`] on a real workload.

use br_core::{by_name, Experiment, Machine, Scale};
use br_pipeline::{
    br_machine_cycles, compare, cond_delay, cond_trace, cycles, uncond_delay, uncond_trace,
    BranchScheme,
};

/// Figure 5: unconditional-transfer delay per scheme, hand-computed for
/// pipelines of 2..=8 stages. The jump's target is known after decode,
/// so a conventional machine refetches `N-1` deep; the delayed branch
/// hides one slot; the branch-register machine's prefetched target
/// streams in with no bubble at any depth.
#[test]
fn figure5_unconditional_delay_table() {
    let expect = [
        (BranchScheme::NoDelayed, [1, 2, 3, 4, 5, 6, 7]),
        (BranchScheme::Delayed, [0, 1, 2, 3, 4, 5, 6]),
        (BranchScheme::BranchRegisters, [0, 0, 0, 0, 0, 0, 0]),
    ];
    for (scheme, row) in expect {
        for (i, &want) in row.iter().enumerate() {
            let stages = i as u32 + 2;
            assert_eq!(
                uncond_delay(scheme, stages),
                want,
                "{} at {stages} stages",
                scheme.name()
            );
        }
    }
}

/// Figure 7: conditional-transfer delay per scheme for 2..=8 stages.
/// The condition resolves one stage later than a jump target, so the
/// branch-register machine pays `N-3` (saturating) instead of zero.
#[test]
fn figure7_conditional_delay_table() {
    let expect = [
        (BranchScheme::NoDelayed, [1, 2, 3, 4, 5, 6, 7]),
        (BranchScheme::Delayed, [0, 1, 2, 3, 4, 5, 6]),
        (BranchScheme::BranchRegisters, [0, 0, 1, 2, 3, 4, 5]),
    ];
    for (scheme, row) in expect {
        for (i, &want) in row.iter().enumerate() {
            let stages = i as u32 + 2;
            assert_eq!(
                cond_delay(scheme, stages),
                want,
                "{} at {stages} stages",
                scheme.name()
            );
        }
    }
}

/// The rendered Figure 5/7 stage diagrams and the analytic tables are
/// two views of one model: in the diagrams' 3-stage pipeline, the last
/// instruction drains `rows + 2 + delay` cycles after the first fetch.
#[test]
fn stage_diagrams_agree_with_the_delay_tables() {
    for scheme in BranchScheme::ALL {
        let t = uncond_trace(scheme);
        assert_eq!(
            t.cycles(),
            t.rows.len() + 2 + uncond_delay(scheme, 3) as usize,
            "unconditional diagram vs table for {}",
            scheme.name()
        );
        let t = cond_trace(scheme);
        assert_eq!(
            t.cycles(),
            t.rows.len() + 2 + cond_delay(scheme, 3) as usize,
            "conditional diagram vs table for {}",
            scheme.name()
        );
    }
}

/// Whole-run estimates on a real workload must be consistent with the
/// measurements they are derived from: the baseline total is exactly
/// instructions + per-transfer delays, the BR total decomposes into its
/// three published parts, and deeper pipelines never get cheaper.
#[test]
fn cycle_estimates_are_consistent_with_measurements() {
    let w = by_name("wc", Scale::Test).expect("wc workload");
    let exp = Experiment::new();
    let base = exp.run(&w.source, Machine::Baseline).expect("baseline run");
    let brm = exp.run(&w.source, Machine::BranchReg).expect("BR run");

    for stages in 2..=8u32 {
        let e = cycles(BranchScheme::Delayed, &base.meas, stages);
        assert_eq!(
            e.total,
            base.meas.instructions
                + base.meas.cond_transfers * cond_delay(BranchScheme::Delayed, stages) as u64
                + base.meas.uncond_transfers * uncond_delay(BranchScheme::Delayed, stages) as u64,
            "baseline decomposition at {stages} stages"
        );
        assert_eq!(
            e.total,
            e.instructions + e.transfer_stalls + e.prefetch_stalls
        );
        assert_eq!(e.prefetch_stalls, 0, "baseline never prefetches");

        let b = br_machine_cycles(&brm.meas, stages);
        assert_eq!(
            b.total,
            b.instructions + b.transfer_stalls + b.prefetch_stalls
        );
        assert_eq!(b.instructions, brm.meas.instructions);
        assert_eq!(
            b.transfer_stalls,
            brm.meas.cond_transfers * cond_delay(BranchScheme::BranchRegisters, stages) as u64,
            "BR structural stalls are conditional-only at {stages} stages"
        );
    }

    // Monotonicity in depth, and the paper's headline direction: the BR
    // machine wins at every modelled depth on this workload.
    let mut prev_base = 0;
    let mut prev_br = 0;
    for stages in 2..=8u32 {
        let c = compare(&base.meas, &brm.meas, stages);
        assert!(c.baseline_cycles >= prev_base, "baseline monotone in depth");
        assert!(c.br_cycles >= prev_br, "BR monotone in depth");
        assert!(
            c.saving > 0.0,
            "BR machine must win on wc at {stages} stages: {c:?}"
        );
        assert!((c.saving - (1.0 - c.br_cycles as f64 / c.baseline_cycles as f64)).abs() < 1e-12);
        prev_base = c.baseline_cycles;
        prev_br = c.br_cycles;
    }
}
