//! Per-machine register conventions and code-generation options.

use br_isa::{abi, Machine, Reg};

/// Calling-convention and register-file description for one target.
///
/// The asymmetry between the two machines is the point of the experiment:
/// the branch-register machine has half the data registers (its callee-
/// and caller-save pools are correspondingly smaller, producing the extra
/// data memory references Table I reports) but gains the branch-register
/// file described by [`BrOptions`].
#[derive(Debug, Clone)]
pub struct TargetSpec {
    /// Which machine this spec describes.
    pub machine: Machine,
    /// Integer argument registers, in order.
    pub int_args: Vec<Reg>,
    /// Float argument registers, in order (FReg numbers).
    pub float_args: Vec<u8>,
    /// Caller-saved integer registers available for allocation.
    pub int_caller: Vec<Reg>,
    /// Callee-saved integer registers available for allocation.
    pub int_callee: Vec<Reg>,
    /// Caller-saved float registers (numbers).
    pub float_caller: Vec<u8>,
    /// Callee-saved float registers (numbers).
    pub float_callee: Vec<u8>,
    /// Stack pointer.
    pub sp: Reg,
    /// Assembler temporary (never allocated).
    pub temp: Reg,
    /// Second assembler temporary (jump tables need two).
    pub temp2: Reg,
    /// Float assembler temporary (never allocated).
    pub ftemp: u8,
    /// Link register (baseline only).
    pub link: Option<Reg>,
}

impl TargetSpec {
    /// The conventions used throughout this reproduction.
    pub fn for_machine(machine: Machine) -> TargetSpec {
        match machine {
            Machine::Baseline => TargetSpec {
                machine,
                int_args: (1..=6).map(Reg).collect(),
                float_args: (1..=6).collect(),
                int_caller: (1..=15).map(Reg).collect(),
                int_callee: (16..=27).map(Reg).collect(),
                float_caller: (1..=15).collect(),
                float_callee: (16..=30).collect(),
                sp: abi::BASE_SP,
                temp: abi::BASE_TEMP,
                temp2: Reg(28),
                ftemp: 31,
                link: Some(abi::BASE_LINK),
            },
            Machine::BranchReg => TargetSpec {
                machine,
                int_args: (1..=4).map(Reg).collect(),
                float_args: (1..=4).collect(),
                int_caller: (1..=7).map(Reg).collect(),
                int_callee: vec![Reg(8), Reg(9), Reg(10), Reg(11), Reg(15)],
                float_caller: (1..=7).collect(),
                float_callee: (8..=14).collect(),
                sp: abi::BR_SP,
                temp: abi::BR_TEMP,
                temp2: Reg(12),
                ftemp: 15,
                link: None,
            },
        }
    }

    /// Integer return-value register.
    pub fn int_ret(&self) -> Reg {
        Reg(1)
    }

    /// Float return-value register number.
    pub fn float_ret(&self) -> u8 {
        1
    }
}

/// Options controlling branch-register code generation (for the paper's
/// Section 9 sweeps and our ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrOptions {
    /// Number of architected branch registers (2..=8). `b[0]` is always
    /// the PC and `b[7]` the scratch/return register; shrinking the file
    /// shrinks the allocatable pool `b[1]..` (paper Section 9: "the
    /// available number of these registers ... could be varied").
    pub num_bregs: u8,
    /// Enable hoisting branch-target address calculations into loop
    /// preheaders (Section 5). Disabled only for ablation runs.
    pub hoisting: bool,
    /// Enable replacing noop transfer carriers with pending address
    /// calculations (Section 5). Disabled only for ablation runs.
    pub noop_replacement: bool,
    /// Section 9 future-work variant: a "fast compare" that tests the
    /// condition during decode and updates the PC directly, removing the
    /// separate carrier instruction after every conditional compare.
    pub fused_compare: bool,
}

impl Default for BrOptions {
    fn default() -> BrOptions {
        BrOptions {
            num_bregs: 8,
            hoisting: true,
            noop_replacement: true,
            fused_compare: false,
        }
    }
}

impl BrOptions {
    /// Allocatable branch registers (excludes `b[0]` PC and `b[7]`
    /// scratch), split into (callee-saved, caller-saved) halves.
    ///
    /// With the full file of 8 this yields `b1-b3` callee-saved and
    /// `b4-b6` caller-saved, matching DESIGN.md.
    pub fn pools(&self) -> (Vec<u8>, Vec<u8>) {
        let n = self.num_bregs.clamp(2, 8);
        let avail: Vec<u8> = (1..n.saturating_sub(1)).collect(); // b1..b(n-2)
        let half = avail.len().div_ceil(2);
        let callee = avail[..half].to_vec();
        let caller = avail[half..].to_vec();
        (callee, caller)
    }

    /// A stable, dense encoding of every field, for content-addressed
    /// artifact caching: two option sets produce the same fingerprint
    /// iff they generate identical code for the same IR. Bit layout:
    /// `num_bregs` in the low byte, then one bit per toggle.
    pub fn fingerprint(&self) -> u64 {
        u64::from(self.num_bregs)
            | (u64::from(self.hoisting) << 8)
            | (u64::from(self.noop_replacement) << 9)
            | (u64::from(self.fused_compare) << 10)
    }
}

/// Options for baseline code generation (ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseOptions {
    /// Fill branch delay slots with useful instructions when possible
    /// (disabled only for ablation runs).
    pub fill_delay_slots: bool,
}

impl Default for BaseOptions {
    fn default() -> BaseOptions {
        BaseOptions {
            fill_delay_slots: true,
        }
    }
}

impl BaseOptions {
    /// Stable dense field encoding for artifact caching; see
    /// [`BrOptions::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        u64::from(self.fill_delay_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_fingerprints_separate_every_field() {
        let base = BrOptions::default();
        let variants = [
            BrOptions {
                num_bregs: 4,
                ..base
            },
            BrOptions {
                hoisting: false,
                ..base
            },
            BrOptions {
                noop_replacement: false,
                ..base
            },
            BrOptions {
                fused_compare: true,
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{v:?}");
        }
        assert_ne!(
            BaseOptions {
                fill_delay_slots: false
            }
            .fingerprint(),
            BaseOptions::default().fingerprint()
        );
    }

    #[test]
    fn register_pools_do_not_overlap_reserved() {
        for m in [Machine::Baseline, Machine::BranchReg] {
            let t = TargetSpec::for_machine(m);
            for r in t.int_caller.iter().chain(&t.int_callee) {
                assert_ne!(*r, t.sp);
                assert_ne!(*r, t.temp);
                assert_ne!(*r, t.temp2);
                assert_ne!(r.0, 0, "r0 is hardwired zero");
                if let Some(l) = t.link {
                    assert_ne!(*r, l);
                }
                assert!(r.0 < m.num_regs());
            }
            for f in t.float_caller.iter().chain(&t.float_callee) {
                assert_ne!(*f, t.ftemp);
                assert!(*f < m.num_fregs());
            }
        }
    }

    #[test]
    fn br_machine_has_fewer_allocatable_registers() {
        let b = TargetSpec::for_machine(Machine::Baseline);
        let r = TargetSpec::for_machine(Machine::BranchReg);
        assert!(b.int_caller.len() + b.int_callee.len() > r.int_caller.len() + r.int_callee.len());
    }

    #[test]
    fn default_br_pools_match_design() {
        let (callee, caller) = BrOptions::default().pools();
        assert_eq!(callee, vec![1, 2, 3]);
        assert_eq!(caller, vec![4, 5, 6]);
    }

    #[test]
    fn shrunken_br_file() {
        let o = BrOptions {
            num_bregs: 4,
            ..Default::default()
        };
        let (callee, caller) = o.pools();
        assert_eq!(callee, vec![1]);
        assert_eq!(caller, vec![2]);
        let o2 = BrOptions {
            num_bregs: 2,
            ..Default::default()
        };
        let (ce, ca) = o2.pools();
        assert!(ce.is_empty() && ca.is_empty());
    }
}
