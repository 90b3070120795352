//! Analytic per-transfer delays (Figures 5 and 7) and whole-run cycle
//! estimates (Section 7).

use br_emu::{Measurements, MAX_DIST_BUCKET};

/// The three branch-handling schemes the paper contrasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchScheme {
    /// Conventional RISC, no delayed branch (Figures 5a/7a).
    NoDelayed,
    /// Delayed branch with one delay slot — the baseline machine
    /// (Figures 5b/7b).
    Delayed,
    /// The branch-register machine (Figures 5c/7c).
    BranchRegisters,
}

impl BranchScheme {
    /// All schemes, in the figures' order.
    pub const ALL: [BranchScheme; 3] = [
        BranchScheme::NoDelayed,
        BranchScheme::Delayed,
        BranchScheme::BranchRegisters,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BranchScheme::NoDelayed => "no delayed branch",
            BranchScheme::Delayed => "delayed branch",
            BranchScheme::BranchRegisters => "branch registers",
        }
    }
}

/// Pipeline delay of an *unconditional* transfer (Figure 5), assuming the
/// branch-register machine's target was prefetched in time.
pub fn uncond_delay(scheme: BranchScheme, stages: u32) -> u32 {
    match scheme {
        BranchScheme::NoDelayed => stages.saturating_sub(1),
        BranchScheme::Delayed => stages.saturating_sub(2),
        BranchScheme::BranchRegisters => 0,
    }
}

/// Pipeline delay of a *conditional* transfer (Figure 7).
pub fn cond_delay(scheme: BranchScheme, stages: u32) -> u32 {
    match scheme {
        BranchScheme::NoDelayed => stages.saturating_sub(1),
        BranchScheme::Delayed => stages.saturating_sub(2),
        BranchScheme::BranchRegisters => stages.saturating_sub(3),
    }
}

/// Prefetch bubble of a *single* branch-register transfer whose target
/// address was computed `d` dynamic instructions before use (Figure 9).
/// A distance of 0 encodes "further back than any bucket" and never
/// stalls. Conditional transfers already pay the structural delay, so
/// only the part of the bubble beyond it surfaces as extra stall.
///
/// Both [`br_machine_cycles`] (dynamic distance histogram) and the
/// static branch-cost model in `br-verify` sum this same per-transfer
/// formula, so the two accountings cannot drift apart.
pub fn prefetch_stall(stages: u32, d: u64, cond: bool) -> u64 {
    let required = stages.saturating_sub(1) as u64;
    if d == 0 || d >= required {
        return 0;
    }
    let shortfall = required - d;
    if cond {
        shortfall.saturating_sub(cond_delay(BranchScheme::BranchRegisters, stages) as u64)
    } else {
        shortfall
    }
}

/// A cycle estimate decomposed into its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEstimate {
    /// One cycle per executed instruction.
    pub instructions: u64,
    /// Structural transfer delays (Figures 5/7).
    pub transfer_stalls: u64,
    /// Additional stalls from late address calculations (Figure 9;
    /// branch-register machine only).
    pub prefetch_stalls: u64,
    /// Sum of the above.
    pub total: u64,
}

/// Estimate cycles for a machine using `scheme` over measurements `m`
/// (the paper's "each instruction executes in one machine cycle, and no
/// other pipeline delays except for transfers of control").
pub fn cycles(scheme: BranchScheme, m: &Measurements, stages: u32) -> CycleEstimate {
    assert!(
        scheme != BranchScheme::BranchRegisters,
        "use br_machine_cycles for the branch-register machine"
    );
    let transfer_stalls = m.cond_transfers * cond_delay(scheme, stages) as u64
        + m.uncond_transfers * uncond_delay(scheme, stages) as u64;
    CycleEstimate {
        instructions: m.instructions,
        transfer_stalls,
        prefetch_stalls: 0,
        total: m.instructions + transfer_stalls,
    }
}

/// Estimate cycles for the branch-register machine: structural
/// conditional delays plus Figure 9 prefetch bubbles. A transfer whose
/// target address was computed `d` dynamic instructions earlier needs
/// `d ≥ stages - 1` to hide the prefetch entirely; otherwise the bubble
/// is `(stages - 1) - d`, floored by the structural delay.
pub fn br_machine_cycles(m: &Measurements, stages: u32) -> CycleEstimate {
    let structural_cond = cond_delay(BranchScheme::BranchRegisters, stages) as u64;
    let transfer_stalls = m.cond_transfers * structural_cond;
    let mut prefetch_stalls = 0u64;
    // Bucket 0 (distance > MAX_DIST_BUCKET or always-ready) never stalls
    // for any pipeline up to MAX_DIST_BUCKET + 1 stages.
    for d in 1..=MAX_DIST_BUCKET as u64 {
        let cond = m.cond_transfer_dist[d as usize];
        let uncond = m.transfer_dist[d as usize] - cond;
        prefetch_stalls += cond * prefetch_stall(stages, d, true);
        prefetch_stalls += uncond * prefetch_stall(stages, d, false);
    }
    CycleEstimate {
        instructions: m.instructions,
        transfer_stalls,
        prefetch_stalls,
        total: m.instructions + transfer_stalls + prefetch_stalls,
    }
}

/// Estimate cycles for whichever machine produced `m`: the baseline's
/// delayed-branch table or the branch-register model. The one
/// machine→timing-model mapping shared by the cost oracle
/// (`br-core`), `br-tv`, and the `br-explore` replay engine, so they
/// can never disagree about which delay rules a machine pays.
pub fn machine_cycles(machine: br_isa::Machine, m: &Measurements, stages: u32) -> CycleEstimate {
    match machine {
        br_isa::Machine::Baseline => cycles(BranchScheme::Delayed, m, stages),
        br_isa::Machine::BranchReg => br_machine_cycles(m, stages),
    }
}

/// Replay one recorded run's measurements across a range of pipeline
/// depths. Every estimate is a pure function of `m`, so a depth sweep
/// needs no re-emulation — this is the pipeline half of the
/// record-once / replay-many contract (the icache half is
/// `br_icache::replay`).
pub fn depth_sweep(
    machine: br_isa::Machine,
    m: &Measurements,
    depths: std::ops::RangeInclusive<u32>,
) -> Vec<(u32, CycleEstimate)> {
    depths
        .map(|stages| (stages, machine_cycles(machine, m, stages)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_unconditional_delays() {
        // 3-stage pipeline: 2 / 1 / 0 — exactly Figure 5.
        assert_eq!(uncond_delay(BranchScheme::NoDelayed, 3), 2);
        assert_eq!(uncond_delay(BranchScheme::Delayed, 3), 1);
        assert_eq!(uncond_delay(BranchScheme::BranchRegisters, 3), 0);
        // "regardless of the number of stages in the pipeline"
        assert_eq!(uncond_delay(BranchScheme::BranchRegisters, 7), 0);
    }

    #[test]
    fn figure7_conditional_delays() {
        // 3-stage: 2 / 1 / 0.
        assert_eq!(cond_delay(BranchScheme::NoDelayed, 3), 2);
        assert_eq!(cond_delay(BranchScheme::Delayed, 3), 1);
        assert_eq!(cond_delay(BranchScheme::BranchRegisters, 3), 0);
        // 4-stage: the BR machine pays N-3 = 1.
        assert_eq!(cond_delay(BranchScheme::BranchRegisters, 4), 1);
        assert_eq!(cond_delay(BranchScheme::Delayed, 4), 2);
    }

    #[test]
    fn prefetch_bubbles_follow_figure9() {
        let mut m = Measurements::new();
        m.instructions = 100;
        m.transfers = 3;
        m.uncond_transfers = 3;
        m.transfer_dist[1] = 2; // calculated 1 instruction before use
        m.transfer_dist[0] = 1; // far enough
                                // 3 stages: required distance 2 → one-cycle bubble each.
        let e = br_machine_cycles(&m, 3);
        assert_eq!(e.prefetch_stalls, 2);
        assert_eq!(e.total, 102);
        // 4 stages: required 3 → two-cycle bubbles.
        let e4 = br_machine_cycles(&m, 4);
        assert_eq!(e4.prefetch_stalls, 4);
    }

    #[test]
    fn conditional_structural_delay_subsumes_small_bubbles() {
        let mut m = Measurements::new();
        m.instructions = 100;
        m.transfers = 1;
        m.cond_transfers = 1;
        m.transfer_dist[2] = 1;
        m.cond_transfer_dist[2] = 1;
        // 4 stages: required 3, shortfall 1, structural cond delay 1 →
        // the bubble hides inside the structural delay.
        let e = br_machine_cycles(&m, 4);
        assert_eq!(e.transfer_stalls, 1);
        assert_eq!(e.prefetch_stalls, 0);
    }

    #[test]
    fn baseline_cycle_accounting() {
        let mut m = Measurements::new();
        m.instructions = 1000;
        m.cond_transfers = 80;
        m.uncond_transfers = 20;
        m.transfers = 100;
        let e = cycles(BranchScheme::Delayed, &m, 3);
        assert_eq!(e.total, 1100);
        let e0 = cycles(BranchScheme::NoDelayed, &m, 3);
        assert_eq!(e0.total, 1200);
    }

    #[test]
    #[should_panic(expected = "br_machine_cycles")]
    fn wrong_scheme_panics() {
        let m = Measurements::new();
        let _ = cycles(BranchScheme::BranchRegisters, &m, 3);
    }

    #[test]
    fn machine_cycles_picks_the_right_model() {
        let mut m = Measurements::new();
        m.instructions = 1000;
        m.cond_transfers = 80;
        m.uncond_transfers = 20;
        m.transfers = 100;
        m.transfer_dist[0] = 100;
        assert_eq!(
            machine_cycles(br_isa::Machine::Baseline, &m, 3),
            cycles(BranchScheme::Delayed, &m, 3)
        );
        assert_eq!(
            machine_cycles(br_isa::Machine::BranchReg, &m, 3),
            br_machine_cycles(&m, 3)
        );
    }

    #[test]
    fn depth_sweep_covers_every_depth_in_order() {
        let mut m = Measurements::new();
        m.instructions = 500;
        m.cond_transfers = 40;
        m.transfers = 40;
        m.transfer_dist[1] = 40;
        m.cond_transfer_dist[1] = 40;
        let sweep = depth_sweep(br_isa::Machine::BranchReg, &m, 2..=8);
        assert_eq!(sweep.len(), 7);
        for (i, (stages, est)) in sweep.iter().enumerate() {
            assert_eq!(*stages, 2 + i as u32);
            assert_eq!(est, &br_machine_cycles(&m, *stages));
        }
        // Deeper pipelines can only cost more for the same measurements.
        for w in sweep.windows(2) {
            assert!(w[1].1.total >= w[0].1.total);
        }
    }
}
