//! The `br-serve` message vocabulary and its wire encoding.
//!
//! One request frame in, one response frame out, repeated until either
//! side closes the connection. Every failure the pipeline can produce
//! has a typed [`ErrorKind`] so clients can distinguish "your program
//! is wrong" (don't retry) from "the server is busy" (retry with
//! backoff) — the full mapping is tabulated in `SERVE.md`.

use crate::wire::{Dec, Enc, WireError};
use br_core::{CodegenStats, CompileError, EmuError, Error, Measurements};
use br_emu::MAX_DIST_BUCKET;

/// Which machine(s) a [`Request::Run`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Baseline (delayed-branch) machine only.
    Baseline,
    /// Branch-register machine only.
    BranchReg,
    /// Both machines, with the server cross-checking their exit values
    /// (an in-server differential run).
    Both,
}

impl Target {
    fn to_u8(self) -> u8 {
        match self {
            Target::Baseline => 0,
            Target::BranchReg => 1,
            Target::Both => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Target, WireError> {
        match v {
            0 => Ok(Target::Baseline),
            1 => Ok(Target::BranchReg),
            2 => Ok(Target::Both),
            other => Err(WireError(format!("bad target {other}"))),
        }
    }
}

/// One compile-and-emulate job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Client-chosen job name, echoed in diagnostics.
    pub name: String,
    /// MiniC source text.
    pub src: String,
    /// Machine(s) to run on.
    pub target: Target,
    /// Emulation step budget; `0` uses the server default. The server
    /// clamps to its configured maximum either way — a client cannot
    /// buy an unbounded run.
    pub fuel: u64,
    /// Compile wall-clock budget in milliseconds; `0` = server default.
    pub compile_budget_ms: u32,
    /// Bypass the artifact cache for this request (used by the
    /// cache-on/cache-off equivalence tests).
    pub no_cache: bool,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile and emulate.
    Run(RunSpec),
    /// Fetch the server's counters.
    Stats,
    /// Begin a graceful drain: stop accepting, finish queued work, exit.
    Shutdown,
    /// Panic the handling worker (honored only when the server runs
    /// with chaos enabled) — the panic-isolation probe.
    ChaosPanic,
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Ping => e.u8(0),
            Request::Run(spec) => {
                e.u8(1);
                e.str(&spec.name);
                e.str(&spec.src);
                e.u8(spec.target.to_u8());
                e.u64(spec.fuel);
                e.u32(spec.compile_budget_ms);
                e.u8(u8::from(spec.no_cache));
            }
            Request::Stats => e.u8(2),
            Request::Shutdown => e.u8(3),
            Request::ChaosPanic => e.u8(4),
        }
        e.finish()
    }

    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut d = Dec::new(payload);
        let req = match d.u8()? {
            0 => Request::Ping,
            1 => Request::Run(RunSpec {
                name: d.str()?,
                src: d.str()?,
                target: Target::from_u8(d.u8()?)?,
                fuel: d.u64()?,
                compile_budget_ms: d.u32()?,
                no_cache: d.u8()? != 0,
            }),
            2 => Request::Stats,
            3 => Request::Shutdown,
            4 => Request::ChaosPanic,
            other => return Err(WireError(format!("bad request tag {other}"))),
        };
        d.done()?;
        Ok(req)
    }
}

/// Typed failure classes a response can carry. The first group mirrors
/// the pipeline's own error taxonomy; the second group is the server's
/// survival vocabulary (shedding, deadlines, isolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// MiniC front-end rejected the source (user error; don't retry).
    Frontend,
    /// Code generation failed (internal defect; don't retry).
    Codegen,
    /// A br-verify stage gate rejected compiler output (internal).
    Verify,
    /// The assembler rejected the generated stream (internal).
    Asm,
    /// The compile wall-clock budget expired (retry with more budget).
    DeadlineCompile,
    /// The emulation step budget expired (retry with more fuel).
    DeadlineEmu,
    /// The emulator faulted on the program (user/codegen error).
    Emu,
    /// The two machines disagreed in a [`Target::Both`] run.
    Mismatch,
    /// The server's request queue is full (retry with backoff).
    Overloaded,
    /// The server is draining for shutdown (retry elsewhere).
    ShuttingDown,
    /// The request frame did not parse (client bug; don't retry).
    BadRequest,
    /// The handling worker panicked; the job died but the server —
    /// and even the worker — survived (report upstream, don't retry).
    Internal,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::Frontend => 0,
            ErrorKind::Codegen => 1,
            ErrorKind::Verify => 2,
            ErrorKind::Asm => 3,
            ErrorKind::DeadlineCompile => 4,
            ErrorKind::DeadlineEmu => 5,
            ErrorKind::Emu => 6,
            ErrorKind::Mismatch => 7,
            ErrorKind::Overloaded => 8,
            ErrorKind::ShuttingDown => 9,
            ErrorKind::BadRequest => 10,
            ErrorKind::Internal => 11,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorKind, WireError> {
        Ok(match v {
            0 => ErrorKind::Frontend,
            1 => ErrorKind::Codegen,
            2 => ErrorKind::Verify,
            3 => ErrorKind::Asm,
            4 => ErrorKind::DeadlineCompile,
            5 => ErrorKind::DeadlineEmu,
            6 => ErrorKind::Emu,
            7 => ErrorKind::Mismatch,
            8 => ErrorKind::Overloaded,
            9 => ErrorKind::ShuttingDown,
            10 => ErrorKind::BadRequest,
            11 => ErrorKind::Internal,
            other => return Err(WireError(format!("bad error kind {other}"))),
        })
    }

    /// Whether a client should retry the same request after a delay.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorKind::Overloaded | ErrorKind::ShuttingDown)
    }
}

/// Classify a pipeline error into its wire kind. Every typed error the
/// compile-and-emulate path can produce maps to exactly one kind —
/// a failure is always a response, never a connection drop.
pub fn classify(err: &Error) -> ErrorKind {
    match err {
        Error::Compile(CompileError::Frontend(_)) => ErrorKind::Frontend,
        // Foreign-ISA ingest rejections are user errors in the supplied
        // image — same client semantics as a frontend error (don't retry).
        Error::Compile(CompileError::Ingest(_)) => ErrorKind::Frontend,
        Error::Compile(CompileError::Codegen(_)) => ErrorKind::Codegen,
        Error::Compile(CompileError::Verify(_)) => ErrorKind::Verify,
        Error::Compile(CompileError::Asm(_)) => ErrorKind::Asm,
        Error::Compile(CompileError::Deadline { .. }) => ErrorKind::DeadlineCompile,
        Error::Emu(EmuError::OutOfFuel) => ErrorKind::DeadlineEmu,
        Error::Emu(_) => ErrorKind::Emu,
        Error::Mismatch { .. } => ErrorKind::Mismatch,
    }
}

/// The result of one machine's run inside a [`Response::RunOk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineReply {
    /// Which machine produced this.
    pub target: Target,
    /// Program exit value.
    pub exit: i32,
    /// Static instruction count of the compiled binary.
    pub static_insts: u32,
    /// Whether the compiled artifact came from the cache.
    pub cached: bool,
    /// Static codegen statistics.
    pub stats: CodegenStats,
    /// Full dynamic measurements.
    pub meas: Measurements,
}

/// Server counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub requests: u64,
    pub ok: u64,
    pub errors: u64,
    pub overloaded: u64,
    pub deadline_compile: u64,
    pub deadline_emu: u64,
    pub worker_panics: u64,
    pub workers_respawned: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_disk_hits: u64,
    pub cache_quarantined: u64,
    pub disconnects: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful run: one entry per machine, baseline first.
    RunOk(Vec<MachineReply>),
    /// Typed failure with a self-contained human message.
    Error { kind: ErrorKind, message: String },
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
    /// Reply to [`Request::Shutdown`]: the drain has begun.
    ShutdownAck,
}

fn enc_stats(e: &mut Enc, s: &CodegenStats) {
    e.u32(s.slots_filled);
    e.u32(s.slots_noop);
    e.u32(s.carriers_useful);
    e.u32(s.carriers_replaced_by_calc);
    e.u32(s.carriers_noop);
    e.u32(s.hoisted_calcs);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<CodegenStats, WireError> {
    Ok(CodegenStats {
        slots_filled: d.u32()?,
        slots_noop: d.u32()?,
        carriers_useful: d.u32()?,
        carriers_replaced_by_calc: d.u32()?,
        carriers_noop: d.u32()?,
        hoisted_calcs: d.u32()?,
    })
}

fn enc_meas(e: &mut Enc, m: &Measurements) {
    e.u64(m.instructions);
    e.u64(m.data_refs);
    e.u64(m.transfers);
    e.u64(m.cond_transfers);
    e.u64(m.uncond_transfers);
    e.u64(m.cond_taken);
    e.u64(m.noops);
    e.u64(m.addr_calcs);
    e.u64(m.br_saves);
    e.u64(m.br_restores);
    for v in m.transfer_dist {
        e.u64(v);
    }
    for v in m.cond_transfer_dist {
        e.u64(v);
    }
}

fn dec_meas(d: &mut Dec<'_>) -> Result<Measurements, WireError> {
    let mut m = Measurements::new();
    m.instructions = d.u64()?;
    m.data_refs = d.u64()?;
    m.transfers = d.u64()?;
    m.cond_transfers = d.u64()?;
    m.uncond_transfers = d.u64()?;
    m.cond_taken = d.u64()?;
    m.noops = d.u64()?;
    m.addr_calcs = d.u64()?;
    m.br_saves = d.u64()?;
    m.br_restores = d.u64()?;
    for i in 0..=MAX_DIST_BUCKET {
        m.transfer_dist[i] = d.u64()?;
    }
    for i in 0..=MAX_DIST_BUCKET {
        m.cond_transfer_dist[i] = d.u64()?;
    }
    Ok(m)
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Response::RunOk(replies) => {
                e.u8(0);
                e.u8(replies.len() as u8);
                for r in replies {
                    e.u8(r.target.to_u8());
                    e.i32(r.exit);
                    e.u32(r.static_insts);
                    e.u8(u8::from(r.cached));
                    enc_stats(&mut e, &r.stats);
                    enc_meas(&mut e, &r.meas);
                }
            }
            Response::Error { kind, message } => {
                e.u8(1);
                e.u8(kind.to_u8());
                e.str(message);
            }
            Response::Pong => e.u8(2),
            Response::Stats(s) => {
                e.u8(3);
                for v in [
                    s.requests,
                    s.ok,
                    s.errors,
                    s.overloaded,
                    s.deadline_compile,
                    s.deadline_emu,
                    s.worker_panics,
                    s.workers_respawned,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_disk_hits,
                    s.cache_quarantined,
                    s.disconnects,
                ] {
                    e.u64(v);
                }
            }
            Response::ShutdownAck => e.u8(4),
        }
        e.finish()
    }

    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut d = Dec::new(payload);
        let resp = match d.u8()? {
            0 => {
                let n = d.u8()?;
                let mut replies = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    replies.push(MachineReply {
                        target: Target::from_u8(d.u8()?)?,
                        exit: d.i32()?,
                        static_insts: d.u32()?,
                        cached: d.u8()? != 0,
                        stats: dec_stats(&mut d)?,
                        meas: dec_meas(&mut d)?,
                    });
                }
                Response::RunOk(replies)
            }
            1 => Response::Error {
                kind: ErrorKind::from_u8(d.u8()?)?,
                message: d.str()?,
            },
            2 => Response::Pong,
            3 => Response::Stats(ServerStats {
                requests: d.u64()?,
                ok: d.u64()?,
                errors: d.u64()?,
                overloaded: d.u64()?,
                deadline_compile: d.u64()?,
                deadline_emu: d.u64()?,
                worker_panics: d.u64()?,
                workers_respawned: d.u64()?,
                cache_hits: d.u64()?,
                cache_misses: d.u64()?,
                cache_disk_hits: d.u64()?,
                cache_quarantined: d.u64()?,
                disconnects: d.u64()?,
            }),
            4 => Response::ShutdownAck,
            other => return Err(WireError(format!("bad response tag {other}"))),
        };
        d.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meas() -> Measurements {
        let mut m = Measurements::new();
        m.instructions = 123_456;
        m.data_refs = 777;
        m.transfers = 88;
        m.cond_transfers = 44;
        m.uncond_transfers = 44;
        m.cond_taken = 33;
        m.noops = 5;
        m.addr_calcs = 17;
        m.br_saves = 2;
        m.br_restores = 3;
        for i in 0..=MAX_DIST_BUCKET {
            m.transfer_dist[i] = i as u64 * 7;
            m.cond_transfer_dist[i] = i as u64 * 3;
        }
        m
    }

    #[test]
    fn every_request_roundtrips() {
        let reqs = [
            Request::Ping,
            Request::Run(RunSpec {
                name: "wc".into(),
                src: "int main() { return 0; }".into(),
                target: Target::Both,
                fuel: 9_999,
                compile_budget_ms: 250,
                no_cache: true,
            }),
            Request::Stats,
            Request::Shutdown,
            Request::ChaosPanic,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let reply = MachineReply {
            target: Target::BranchReg,
            exit: -7,
            static_insts: 321,
            cached: true,
            stats: CodegenStats {
                slots_filled: 1,
                slots_noop: 2,
                carriers_useful: 3,
                carriers_replaced_by_calc: 4,
                carriers_noop: 5,
                hoisted_calcs: 6,
            },
            meas: sample_meas(),
        };
        let resps = [
            Response::RunOk(vec![reply.clone()]),
            Response::RunOk(vec![
                MachineReply {
                    target: Target::Baseline,
                    ..reply.clone()
                },
                reply,
            ]),
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "queue full (cap 64)".into(),
            },
            Response::Pong,
            Response::Stats(ServerStats {
                requests: 10,
                ok: 8,
                errors: 2,
                overloaded: 1,
                deadline_compile: 1,
                deadline_emu: 1,
                worker_panics: 1,
                workers_respawned: 1,
                cache_hits: 5,
                cache_misses: 3,
                cache_disk_hits: 2,
                cache_quarantined: 1,
                disconnects: 4,
            }),
            Response::ShutdownAck,
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn error_kinds_roundtrip_and_classify_retryability() {
        for k in [
            ErrorKind::Frontend,
            ErrorKind::Codegen,
            ErrorKind::Verify,
            ErrorKind::Asm,
            ErrorKind::DeadlineCompile,
            ErrorKind::DeadlineEmu,
            ErrorKind::Emu,
            ErrorKind::Mismatch,
            ErrorKind::Overloaded,
            ErrorKind::ShuttingDown,
            ErrorKind::BadRequest,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_u8(k.to_u8()).unwrap(), k);
            // Only capacity conditions invite a retry of the same job.
            assert_eq!(
                k.retryable(),
                matches!(k, ErrorKind::Overloaded | ErrorKind::ShuttingDown)
            );
        }
    }

    #[test]
    fn classify_maps_the_whole_error_taxonomy() {
        use br_core::FrontendError;
        let fe: Error = CompileError::Frontend(FrontendError::new(1, "x")).into();
        assert_eq!(classify(&fe), ErrorKind::Frontend);
        let dl: Error = Error::Compile(CompileError::Deadline { elapsed_ms: 9 });
        assert_eq!(classify(&dl), ErrorKind::DeadlineCompile);
        assert_eq!(
            classify(&Error::Emu(EmuError::OutOfFuel)),
            ErrorKind::DeadlineEmu
        );
        assert_eq!(
            classify(&Error::Emu(EmuError::DivByZero(64))),
            ErrorKind::Emu
        );
        let mm = Error::Mismatch {
            name: "x".into(),
            baseline: 0,
            brmach: 1,
        };
        assert_eq!(classify(&mm), ErrorKind::Mismatch);
    }

    #[test]
    fn truncated_response_decodes_to_typed_error() {
        let buf = Response::Pong.encode();
        assert!(Response::decode(&buf[..0]).is_err());
        let run = Response::RunOk(vec![]).encode();
        let mut trailing = run.clone();
        trailing.push(0);
        assert!(
            Response::decode(&trailing).is_err(),
            "trailing bytes rejected"
        );
    }
}
