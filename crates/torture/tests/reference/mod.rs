//! Reference oracles for `checker_mutations.rs`: br-verify's regalloc
//! replay and branch-register lint as they stood before their abstract
//! states moved onto flat bitsets and hash-consed target sets (one
//! `BTreeSet` per physical or branch register, cloned on every step).
//! Only their `crate::` imports differ from those originals; their own
//! fixture tests run here too.
#![allow(dead_code)]

pub mod asm_check;
pub mod regalloc_check;
