//! `br-torture` — differential torture harness for the compile→emulate
//! pipeline.
//!
//! The paper's claims rest on the two machines computing *identical*
//! results from identical source; only the dynamic instruction mix may
//! differ. This crate stresses that invariant:
//!
//! * [`gen`] produces seeded, random-but-well-formed MiniC programs
//!   (nested branches, bounded loops, switch dispatch, call DAGs, global
//!   arrays);
//! * [`oracle`] runs each program through the IR interpreter, the
//!   baseline machine, and the branch-register machine under a fuel
//!   watchdog and cross-checks exit values, final global memory, and the
//!   per-instruction store streams;
//! * [`minimize`](mod@minimize) greedily shrinks any failing program to
//!   a minimal reproduction.
//!
//! Run it with `cargo run -p br-torture -- --seed 42 --iters 1000`.

pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod rv32;

pub use gen::{generate, render, GenConfig, TortureAst};
pub use minimize::{count_stmts, minimize};
pub use rv32::{check_rv32, generate_rv32, minimize_rv32, Rv32Agreement};
pub use oracle::{
    check_module, check_module_budgeted, check_module_tiers, check_module_tv, check_module_with,
    check_src, check_src_budgeted, check_src_tiers, check_src_tv, check_src_with, check_tiers,
    Agreement, Divergence, DEFAULT_FUEL,
};

/// Derive the seed for iteration `i` of a run started with `seed`.
///
/// SplitMix64 finalizer over the pair, so consecutive iterations get
/// decorrelated generator streams and any single iteration can be
/// replayed with `--seed <iter_seed> --iters 1`.
pub fn iter_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_seed_is_deterministic_and_spread() {
        assert_eq!(iter_seed(42, 0), iter_seed(42, 0));
        assert_ne!(iter_seed(42, 0), iter_seed(42, 1));
        assert_ne!(iter_seed(42, 0), iter_seed(43, 0));
    }

    /// The tentpole invariant, in miniature: many seeds, all three
    /// executions agree. The CLI run extends this to thousands.
    #[test]
    fn torture_smoke_100_seeds_agree() {
        for i in 0..100u64 {
            let s = iter_seed(0xD1FF, i);
            let src = render(&generate(s, GenConfig::default()));
            if let Err(d) = check_src(&src, DEFAULT_FUEL) {
                panic!("seed {s:#x} (iter {i}) diverged: {d}\n{src}");
            }
        }
    }

    /// The `--tv` oracle stack over a band of seeds: the static
    /// translation validator must never refute a module the dynamic
    /// executions agree on (and proofs must never contradict them).
    #[test]
    fn torture_tv_smoke_25_seeds_agree() {
        for i in 0..25u64 {
            let s = iter_seed(0x7111, i);
            let src = render(&generate(s, GenConfig::default()));
            if let Err(d) = check_src_tv(&src, DEFAULT_FUEL, false, None) {
                panic!("seed {s:#x} (iter {i}) diverged under --tv: {d}\n{src}");
            }
        }
    }
}
