//! No wire input can panic a decoder. Seeded encodings of every
//! `Request` and `Response` variant are mutated: every single-bit flip,
//! every truncation, and each length or count field set to 0, to its
//! maximum and to one past what the payload holds. Every mutation must
//! decode to a value or a typed `WireError`, and `wire::read_frame`
//! must read the same payloads behind their length prefix.

use std::panic::{catch_unwind, AssertUnwindSafe};

use br_core::{CodegenStats, Measurements};
use br_emu::MAX_DIST_BUCKET;
use br_serve::proto::{ErrorKind, MachineReply, Request, Response, RunSpec, ServerStats, Target};
use br_serve::wire::{read_frame, MAX_FRAME};
use br_workloads::rng::Rng64;

const SEEDS: std::ops::Range<u64> = 0..6;

/// A length or count field of an encoding.
struct Field {
    /// Byte offset in the payload.
    at: usize,
    /// 4 for a `u32` length, 1 for a `u8` count.
    width: usize,
    /// The smallest value that claims more than the payload holds.
    past: u32,
}

impl Field {
    /// A `u32` byte length at `at` whose bytes end the payload's first
    /// `end` bytes.
    fn len(at: usize, end: usize) -> Field {
        Field {
            at,
            width: 4,
            past: (end - at - 4 + 1) as u32,
        }
    }

    fn set(&self, payload: &[u8], v: u32) -> Vec<u8> {
        let mut m = payload.to_vec();
        m[self.at..self.at + self.width].copy_from_slice(&v.to_le_bytes()[..self.width]);
        m
    }
}

enum Message {
    Request(Request),
    Response(Response),
}

/// One encoding under test.
struct Sample {
    label: String,
    message: Message,
    payload: Vec<u8>,
    fields: Vec<Field>,
}

impl Sample {
    /// Decode `bytes` as this sample's message type: `None` for a typed
    /// error, else whether the result equals the sample's message.
    fn decode(&self, bytes: &[u8]) -> Option<bool> {
        match &self.message {
            Message::Request(r) => Request::decode(bytes).ok().map(|d| d == *r),
            Message::Response(r) => Response::decode(bytes).ok().map(|d| d == *r),
        }
    }
}

fn text(rng: &mut Rng64) -> String {
    const ALPHABET: [char; 8] = ['a', 'Z', '0', ' ', '{', ';', 'ü', '—'];
    let n = rng.random_range(0..24usize);
    (0..n).map(|_| *rng.pick(&ALPHABET)).collect()
}

fn reply(rng: &mut Rng64) -> MachineReply {
    let mut u32s = [0u32; 8];
    u32s.iter_mut().for_each(|v| *v = rng.next_u64() as u32);
    let mut meas = Measurements::new();
    meas.instructions = rng.next_u64();
    meas.data_refs = rng.next_u64();
    meas.transfers = rng.next_u64();
    meas.cond_taken = rng.next_u64();
    meas.br_restores = rng.next_u64();
    for i in 0..=MAX_DIST_BUCKET {
        meas.transfer_dist[i] = rng.next_u64() >> 40;
        meas.cond_transfer_dist[i] = rng.next_u64() >> 40;
    }
    MachineReply {
        target: *rng.pick(&[Target::Baseline, Target::BranchReg, Target::Both]),
        exit: u32s[0] as i32,
        static_insts: u32s[1],
        cached: rng.chance(1, 2),
        stats: CodegenStats {
            slots_filled: u32s[2],
            slots_noop: u32s[3],
            carriers_useful: u32s[4],
            carriers_replaced_by_calc: u32s[5],
            carriers_noop: u32s[6],
            hoisted_calcs: u32s[7],
        },
        meas,
    }
}

fn request(label: &str, req: Request, fields: Vec<Field>) -> Sample {
    Sample {
        label: format!("request {label}"),
        payload: req.encode(),
        message: Message::Request(req),
        fields,
    }
}

fn response(label: &str, resp: Response, fields: Vec<Field>) -> Sample {
    Sample {
        label: format!("response {label}"),
        payload: resp.encode(),
        message: Message::Response(resp),
        fields,
    }
}

/// Every variant of both messages, with seeded contents.
fn samples(seed: u64) -> Vec<Sample> {
    let mut rng = Rng64::seed_from_u64(seed);
    let spec = RunSpec {
        name: text(&mut rng),
        src: text(&mut rng),
        target: *rng.pick(&[Target::Baseline, Target::BranchReg, Target::Both]),
        fuel: rng.next_u64(),
        compile_budget_ms: rng.next_u64() as u32,
        no_cache: rng.chance(1, 2),
    };
    // tag, name length, name, source length, source, then 14 fixed bytes.
    let src_at = 1 + 4 + spec.name.len();
    let run_len = src_at + 4 + spec.src.len() + 14;
    let run_fields = vec![Field::len(1, run_len), Field::len(src_at, run_len)];

    let mut out = vec![
        request("Ping", Request::Ping, vec![]),
        request("Run", Request::Run(spec), run_fields),
        request("Stats", Request::Stats, vec![]),
        request("Shutdown", Request::Shutdown, vec![]),
        request("ChaosPanic", Request::ChaosPanic, vec![]),
    ];
    for n in 0..=2u32 {
        let replies = (0..n).map(|_| reply(&mut rng)).collect();
        let count = Field {
            at: 1,
            width: 1,
            past: n + 1,
        };
        out.push(response(
            &format!("RunOk({n})"),
            Response::RunOk(replies),
            vec![count],
        ));
    }
    let message = text(&mut rng);
    let err_len = 2 + 4 + message.len();
    out.push(response(
        "Error",
        Response::Error {
            kind: *rng.pick(&[
                ErrorKind::Frontend,
                ErrorKind::Overloaded,
                ErrorKind::Internal,
            ]),
            message,
        },
        vec![Field::len(2, err_len)],
    ));
    out.push(response("Pong", Response::Pong, vec![]));
    let mut c = [0u64; 13];
    c.iter_mut().for_each(|v| *v = rng.next_u64());
    let stats = ServerStats {
        requests: c[0],
        ok: c[1],
        errors: c[2],
        overloaded: c[3],
        deadline_compile: c[4],
        deadline_emu: c[5],
        worker_panics: c[6],
        workers_respawned: c[7],
        cache_hits: c[8],
        cache_misses: c[9],
        cache_disk_hits: c[10],
        cache_quarantined: c[11],
        disconnects: c[12],
    };
    out.push(response("Stats", Response::Stats(stats), vec![]));
    out.push(response("ShutdownAck", Response::ShutdownAck, vec![]));
    out
}

/// Every mutation of `s.payload`, each with a description.
fn mutations(s: &Sample) -> Vec<(String, Vec<u8>)> {
    let p = &s.payload;
    let mut out = Vec::new();
    for bit in 0..p.len() * 8 {
        let mut m = p.clone();
        m[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bit {bit} flipped"), m));
    }
    for cut in 0..p.len() {
        out.push((format!("truncated to {cut} bytes"), p[..cut].to_vec()));
    }
    for f in &s.fields {
        let max = if f.width == 4 { u32::MAX } else { 0xFF };
        for v in [0, max, f.past] {
            out.push((format!("field at byte {} set to {v}", f.at), f.set(p, v)));
        }
    }
    out
}

/// Run `f`, naming `what` if it panics.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what}: panicked"))
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

#[test]
fn mutated_encodings_decode_or_fail_typed_never_panic() {
    let mut decoded = [0usize; 2];
    for seed in SEEDS {
        for s in samples(seed) {
            assert_eq!(
                s.decode(&s.payload),
                Some(true),
                "seed {seed}: {} does not round-trip",
                s.label
            );
            for (what, m) in mutations(&s) {
                let what = format!("seed {seed}: {} with {what}", s.label);
                let ok = no_panic(&what, || s.decode(&m)).is_some();
                decoded[usize::from(ok)] += 1;
            }
        }
    }
    // Both outcomes occur, so the mutations reach past the first byte.
    assert!(decoded[0] > 0 && decoded[1] > 0, "{decoded:?}");
}

#[test]
fn read_frame_carries_mutated_payloads_and_rejects_bad_prefixes() {
    for seed in SEEDS {
        for s in samples(seed) {
            let whole = frame(&s.payload);
            for (what, m) in mutations(&s) {
                let what = format!("seed {seed}: {} with {what}", s.label);
                let f = frame(&m);
                let read = no_panic(&what, || read_frame(&mut &f[..]));
                let payload = read.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(payload.as_deref(), Some(&m[..]), "{what}");
            }
            for cut in 0..whole.len() {
                let what = format!("seed {seed}: {} frame cut at {cut}", s.label);
                let read = no_panic(&what, || read_frame(&mut &whole[..cut]));
                match cut {
                    0 => assert!(matches!(read, Ok(None)), "{what}: {read:?}"),
                    _ => assert!(read.is_err(), "{what}: {read:?}"),
                }
            }
            let len = s.payload.len() as u32;
            for prefix in [0, u32::MAX, MAX_FRAME + 1, len + 1] {
                let what = format!("seed {seed}: {} frame prefix {prefix}", s.label);
                let mut f = whole.clone();
                f[..4].copy_from_slice(&prefix.to_le_bytes());
                let read = no_panic(&what, || read_frame(&mut &f[..]));
                if prefix == 0 {
                    let empty = read.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(empty.as_deref(), Some(&[][..]), "{what}");
                    assert_eq!(s.decode(&[]), None, "{what}: empty payload");
                } else {
                    assert!(read.is_err(), "{what}: {read:?}");
                }
            }
        }
    }
}
