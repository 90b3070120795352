//! Durability proofs for the artifact cache: corruption round-trips,
//! exactly-once concurrent compilation, and cache-transparency of
//! results.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use br_core::{Error, Experiment, Machine};
use br_serve::cache::{Cache, Origin};
use br_serve::proto::{Request, Response, RunSpec, Target};
use br_serve::{spawn, Client, ServeConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("br-serve-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

const SRC: &str = "
    int g;
    int main() {
        int i; int s;
        s = 0;
        for (i = 0; i < 50; i = i + 1) { s = s + i; g = s; }
        return s & 255;
    }
";

fn compile_src() -> Result<(br_isa::Program, br_core::CodegenStats), Error> {
    Experiment::new().compile(SRC, Machine::BranchReg)
}

#[test]
fn corrupt_disk_entry_is_quarantined_and_recompiled() {
    let dir = tmpdir("quarantine");
    let key = 0xfeed_beef_u64;

    // Populate the disk store.
    {
        let cache = Cache::new(Some(dir.clone()));
        let (_, origin) = cache.get_or_compile(key, compile_src).unwrap();
        assert_eq!(origin, Origin::Compiled);
    }
    let path = dir.join(format!("{key:016x}.bra"));
    assert!(path.exists(), "artifact written to disk");

    // A fresh cache (new process, in effect) loads it from disk.
    {
        let cache = Cache::new(Some(dir.clone()));
        let (_, origin) = cache.get_or_compile(key, compile_src).unwrap();
        assert_eq!(origin, Origin::Disk);
        assert_eq!(cache.counters.compiles.load(Ordering::Relaxed), 0);
    }

    // Corrupt one byte mid-file (past the header, inside the body).
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // The corrupt entry must be detected, quarantined, and the module
    // transparently recompiled — the caller never sees an error.
    let cache = Cache::new(Some(dir.clone()));
    let (artifact, origin) = cache.get_or_compile(key, compile_src).unwrap();
    assert_eq!(origin, Origin::Compiled, "corrupt entry forced a recompile");
    assert_eq!(cache.counters.quarantined.load(Ordering::Relaxed), 1);
    let quarantined = dir.join(format!("{key:016x}.bra.quarantined"));
    assert!(quarantined.exists(), "corrupt file kept for post-mortems");

    // The recompile rewrote a valid artifact: yet another fresh cache
    // loads from disk again, and the program behaves identically.
    let cache2 = Cache::new(Some(dir.clone()));
    let (artifact2, origin2) = cache2.get_or_compile(key, compile_src).unwrap();
    assert_eq!(origin2, Origin::Disk, "store healed itself");
    let exit1 = br_emu::Emulator::new(&artifact.0).run(1_000_000).unwrap();
    let exit2 = br_emu::Emulator::new(&artifact2.0).run(1_000_000).unwrap();
    assert_eq!(exit1, exit2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_disk_entry_is_also_healed() {
    let dir = tmpdir("truncated");
    let key = 0xabad_cafe_u64;
    {
        let cache = Cache::new(Some(dir.clone()));
        cache.get_or_compile(key, compile_src).unwrap();
    }
    let path = dir.join(format!("{key:016x}.bra"));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap(); // torn write

    let cache = Cache::new(Some(dir.clone()));
    let (_, origin) = cache.get_or_compile(key, compile_src).unwrap();
    assert_eq!(origin, Origin::Compiled);
    assert_eq!(cache.counters.quarantined.load(Ordering::Relaxed), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk entry whose bytes checksum and decode cleanly but whose code
/// violates the branch-register discipline (bit-rot inside instruction
/// fields, or an artifact from a skewed toolchain) is caught by the
/// protocol lint, quarantined, and transparently recompiled.
#[test]
fn lint_rejecting_entry_is_quarantined_and_recompiled() {
    use br_isa::{MInst, TextWord};

    let dir = tmpdir("lint-reject");
    let key = 0xdead_10cc_u64;
    {
        let cache = Cache::new(Some(dir.clone()));
        cache.get_or_compile(key, compile_src).unwrap();
    }
    let path = dir.join(format!("{key:016x}.bra"));

    // Rewrite the entry with a *checksum-valid* payload whose code is
    // broken: main's first instruction becomes a transfer through
    // b[6], which is caller-saved and so undefined at entry.
    let bytes = std::fs::read(&path).unwrap();
    let (mut prog, stats) = br_serve::artifact::deserialize(&bytes).unwrap();
    let entry = prog
        .blocks
        .iter()
        .find(|m| m.func == "main" && m.label.is_none())
        .unwrap()
        .word as usize;
    let broken = MInst::Nop { br: 6 };
    prog.text[entry] = TextWord::Inst(broken);
    prog.code[entry] = br_isa::encode(Machine::BranchReg, broken).unwrap();
    std::fs::write(&path, br_serve::artifact::serialize(&prog, &stats)).unwrap();

    let cache = Cache::new(Some(dir.clone()));
    let (_, origin) = cache.get_or_compile(key, compile_src).unwrap();
    assert_eq!(origin, Origin::Compiled, "lint reject forced a recompile");
    assert_eq!(cache.counters.quarantined.load(Ordering::Relaxed), 1);
    assert_eq!(cache.counters.lint_rejects.load(Ordering::Relaxed), 1);
    let quarantined = dir.join(format!("{key:016x}.bra.quarantined"));
    assert!(quarantined.exists(), "rejected file kept for post-mortems");

    // The healed store serves a clean artifact from disk again.
    let cache2 = Cache::new(Some(dir.clone()));
    let (_, origin2) = cache2.get_or_compile(key, compile_src).unwrap();
    assert_eq!(origin2, Origin::Disk, "store healed itself");
    assert_eq!(cache2.counters.lint_rejects.load(Ordering::Relaxed), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_requests_compile_exactly_once() {
    let cache = Cache::new(None);
    let key = 0x5eed_u64;
    let compiles = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(s.spawn(|| {
                cache.get_or_compile(key, || {
                    compiles.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so waiters really do pile
                    // up behind the in-flight compile.
                    std::thread::sleep(Duration::from_millis(50));
                    compile_src()
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            compiles.load(Ordering::SeqCst),
            1,
            "coalesced: one compile serves all concurrent requesters"
        );
        let origins: Vec<Origin> = results.iter().map(|r| r.as_ref().unwrap().1).collect();
        assert_eq!(
            origins.iter().filter(|o| **o == Origin::Compiled).count(),
            1
        );
        // Everyone got the same artifact (same Arc or equal bytes).
        let first = &results[0].as_ref().unwrap().0;
        for r in &results {
            assert_eq!(r.as_ref().unwrap().0 .0.code, first.0.code);
        }
    });
}

/// Cache on vs cache off must be invisible in the results: byte-equal
/// exits, measurements, and codegen stats, with only the `cached` flag
/// differing.
#[test]
fn cache_is_transparent_to_measurements_over_the_wire() {
    let handle = spawn(ServeConfig {
        workers: 2,
        verify: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr;

    let run = |no_cache: bool| {
        Request::Run(RunSpec {
            name: "transparency".into(),
            src: SRC.into(),
            target: Target::Both,
            fuel: 0,
            compile_budget_ms: 0,
            no_cache,
        })
    };

    let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let uncached = match c.request(&run(true)).unwrap() {
        Response::RunOk(r) => r,
        other => panic!("uncached run failed: {other:?}"),
    };
    let warm = match c.request(&run(false)).unwrap() {
        Response::RunOk(r) => r,
        other => panic!("first cached run failed: {other:?}"),
    };
    let hit = match c.request(&run(false)).unwrap() {
        Response::RunOk(r) => r,
        other => panic!("second cached run failed: {other:?}"),
    };

    assert!(!uncached[0].cached && !uncached[1].cached);
    assert!(hit[0].cached && hit[1].cached, "second cached run must hit");
    for (a, b) in uncached.iter().zip(&warm).chain(uncached.iter().zip(&hit)) {
        assert_eq!(a.exit, b.exit);
        assert_eq!(a.static_insts, b.static_insts);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.meas, b.meas, "cache must not perturb measurements");
    }

    handle.stop();
    handle.join();
}
