//! `br-emu` — functional emulators with dynamic measurement.
//!
//! This crate plays the role of the authors' *ease* environment
//! \[DAVI89b\]: it executes the encoded instructions of an assembled
//! [`br_isa::Program`] on either machine and collects the dynamic counts
//! the paper's Section 7 reports — instructions executed, data memory
//! references, transfers of control (conditional/unconditional,
//! taken/untaken), noops, branch-target address calculations, branch
//! register saves/restores, and the distance histogram between an address
//! calculation and the transfer that consumes it (the paper's Figure 9
//! prefetch rule).
//!
//! The emulator is *functional* (one instruction at a time, no timing);
//! timing is derived afterwards by `br-pipeline` from the measurements,
//! exactly as the paper derives its cycle estimates. Cache behaviour is
//! observed through the [`ExecHook`] trait by `br-icache`.

pub mod dispatch;
pub mod emu;
pub mod fetch_trace;
pub mod hooks;
pub mod measure;
pub mod trace;

pub use emu::{EmuError, Emulator, ExecTier, Fault};
pub use fetch_trace::{FetchRecorder, FetchTrace, TraceEvent};
pub use hooks::{ExecHook, NoHook, TraceHook, TRACE_HOOK_DEFAULT_CAP};
pub use measure::{Measurements, MAX_DIST_BUCKET};
