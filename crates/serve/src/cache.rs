//! Content-addressed artifact cache: sharded in-memory map over an
//! optional on-disk store.
//!
//! A cache key is a fingerprint of everything that determines the
//! compiled bytes: the IR module (via [`br_ir::Module::fingerprint`]),
//! the codegen option sets, the target machine, and whether the verify
//! gates run. Keys are content hashes, so two requests with different
//! names but identical sources share one artifact.
//!
//! Survival properties:
//!
//! - **Exactly-once compilation.** Concurrent misses on the same key
//!   coalesce: one thread compiles, the rest wait on a condvar and read
//!   the published result. Failed compiles are *not* cached — a
//!   deadline-limited compile must not poison the key for a later
//!   request with a bigger budget — so a waiter that finds nothing
//!   published claims the in-flight slot and tries again itself.
//! - **Self-healing disk store.** Disk entries carry the artifact
//!   checksum; a corrupt or truncated file is renamed to
//!   `<name>.quarantined` (kept for post-mortems, never re-read) and
//!   the module is transparently recompiled and rewritten. Entries
//!   that pass the checksum are additionally vetted by the
//!   whole-program protocol lint ([`br_verify::lint_program`]) before
//!   they are served, closing the gap where a decodable payload
//!   carries discipline-violating code.
//! - **Torn-write-free publication.** Disk writes go to a `.tmp` file
//!   first and are published with an atomic rename.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use br_core::{CodegenStats, Error};
use br_isa::{Machine, Program};

use crate::artifact;

const SHARDS: usize = 16;

/// Where a served artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// In-memory hit.
    Memory,
    /// Loaded (and checksum-verified) from the disk store.
    Disk,
    /// Freshly compiled this request.
    Compiled,
}

/// Monotonic cache counters (all relaxed; they feed stats reporting,
/// not synchronization).
#[derive(Debug, Default)]
pub struct CacheCounters {
    pub hits: AtomicU64,
    pub disk_hits: AtomicU64,
    pub misses: AtomicU64,
    pub quarantined: AtomicU64,
    /// Subset of `quarantined`: entries that decoded cleanly but failed
    /// the branch-register protocol lint — bit-rot or toolchain skew
    /// that the checksum alone did not catch.
    pub lint_rejects: AtomicU64,
    /// Number of times the compile closure actually ran — the
    /// exactly-once tests assert on this.
    pub compiles: AtomicU64,
}

impl CacheCounters {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

type Artifact = Arc<(Program, CodegenStats)>;

/// The cache. Cheap to share: wrap in an `Arc` and clone handles.
pub struct Cache {
    shards: Vec<Mutex<HashMap<u64, Artifact>>>,
    /// Keys with a compile in flight. Guards the gap between "not in
    /// the map" and "published": everyone else waits on `cv`.
    inflight: Mutex<HashSet<u64>>,
    cv: Condvar,
    dir: Option<PathBuf>,
    pub counters: CacheCounters,
}

/// Removes `key` from the in-flight set on drop — including when the
/// compile closure panics — so waiters can never deadlock on a key
/// whose owner died.
struct InflightGuard<'a> {
    cache: &'a Cache,
    key: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.cache.inflight.lock().unwrap().remove(&self.key);
        self.cache.cv.notify_all();
    }
}

impl Cache {
    /// A cache with an optional on-disk store rooted at `dir` (created
    /// on first write; loads from a missing dir are plain misses).
    pub fn new(dir: Option<PathBuf>) -> Cache {
        Cache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            inflight: Mutex::new(HashSet::new()),
            cv: Condvar::new(),
            dir,
            counters: CacheCounters::default(),
        }
    }

    /// Build the cache key for one compile request.
    pub fn key(module_fp: u64, opts_fp: u64, machine: Machine, verify: bool) -> u64 {
        // Mix with splitmix-style finalization so related fingerprints
        // (option bitmaps differ in one bit) spread across shards.
        let mut x = module_fp
            ^ opts_fp.rotate_left(17)
            ^ (match machine {
                Machine::Baseline => 0x9e37_79b9_7f4a_7c15,
                Machine::BranchReg => 0xbf58_476d_1ce4_e5b9,
            })
            ^ u64::from(verify);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Artifact>> {
        &self.shards[(key as usize) % SHARDS]
    }

    fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key:016x}.bra")))
    }

    /// Look up `key`, or compile-and-publish via `compile`. Returns the
    /// artifact and where it came from. Errors from `compile` propagate
    /// and leave the key uncached.
    pub fn get_or_compile<F>(&self, key: u64, compile: F) -> Result<(Artifact, Origin), Error>
    where
        F: FnOnce() -> Result<(Program, CodegenStats), Error>,
    {
        // Fast path: memory hit.
        if let Some(a) = self.shard(key).lock().unwrap().get(&key) {
            self.counters.bump(&self.counters.hits);
            return Ok((a.clone(), Origin::Memory));
        }

        // Claim the in-flight slot, waiting out any current owner.
        {
            let mut inflight = self.inflight.lock().unwrap();
            while inflight.contains(&key) {
                inflight = self.cv.wait(inflight).unwrap();
                // The owner finished: success published to the shard,
                // failure published nothing. Check before re-claiming.
                if let Some(a) = self.shard(key).lock().unwrap().get(&key) {
                    self.counters.bump(&self.counters.hits);
                    return Ok((a.clone(), Origin::Memory));
                }
            }
            inflight.insert(key);
        }
        let _guard = InflightGuard { cache: self, key };

        // Re-check memory: the previous owner may have published
        // between our fast path and the claim.
        if let Some(a) = self.shard(key).lock().unwrap().get(&key) {
            self.counters.bump(&self.counters.hits);
            return Ok((a.clone(), Origin::Memory));
        }

        // Disk store.
        if let Some((prog, stats)) = self.try_load_disk(key) {
            let a: Artifact = Arc::new((prog, stats));
            self.shard(key).lock().unwrap().insert(key, a.clone());
            self.counters.bump(&self.counters.disk_hits);
            return Ok((a, Origin::Disk));
        }

        // Compile. On error: publish nothing (guard releases the slot).
        self.counters.bump(&self.counters.compiles);
        let (prog, stats) = compile()?;
        self.store_disk(key, &prog, &stats);
        let a: Artifact = Arc::new((prog, stats));
        self.shard(key).lock().unwrap().insert(key, a.clone());
        self.counters.bump(&self.counters.misses);
        Ok((a, Origin::Compiled))
    }

    /// Read and verify a disk entry; quarantine anything that fails.
    ///
    /// Verification is two layers: the artifact checksum (catches torn
    /// or truncated files) and, for entries that decode cleanly, the
    /// whole-program protocol lint (catches payloads whose bytes are
    /// internally consistent but whose *code* violates the machine's
    /// discipline — a stale artifact from an older emitter, or
    /// corruption that landed inside instruction fields). Daemon
    /// artifacts are always compiled under default codegen options
    /// (the option fingerprint is part of the key), so the lint runs
    /// with the default branch-register pools.
    fn try_load_disk(&self, key: u64) -> Option<(Program, CodegenStats)> {
        let path = self.path_for(key)?;
        let bytes = std::fs::read(&path).ok()?;
        let quarantine = |counter: Option<&AtomicU64>| {
            // Move it aside (best effort — a lost race with another
            // quarantine just deletes the evidence) and recompile.
            let aside = path.with_extension("bra.quarantined");
            let _ = std::fs::rename(&path, &aside);
            self.counters.bump(&self.counters.quarantined);
            if let Some(c) = counter {
                self.counters.bump(c);
            }
        };
        match artifact::deserialize(&bytes) {
            Ok((prog, stats)) => {
                if br_verify::lint_program(&prog, &br_codegen::BrOptions::default()).is_empty() {
                    Some((prog, stats))
                } else {
                    quarantine(Some(&self.counters.lint_rejects));
                    None
                }
            }
            Err(_) => {
                quarantine(None);
                None
            }
        }
    }

    /// Publish an artifact to disk atomically (tmp + rename).
    /// Best-effort: a full disk degrades to a memory-only cache.
    fn store_disk(&self, key: u64, prog: &Program, stats: &CodegenStats) {
        let Some(path) = self.path_for(key) else {
            return;
        };
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let tmp = path.with_extension("bra.tmp");
        let bytes = artifact::serialize(prog, stats);
        if std::fs::write(&tmp, &bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Number of artifacts resident in memory.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn compile_fixture() -> Result<(Program, CodegenStats), Error> {
        br_core::Experiment::new().compile("int main() { return 41; }", Machine::BranchReg)
    }

    #[test]
    fn memory_hit_after_miss() {
        let cache = Cache::new(None);
        let key = 42;
        let (_, o1) = cache.get_or_compile(key, compile_fixture).unwrap();
        let (_, o2) = cache.get_or_compile(key, compile_fixture).unwrap();
        assert_eq!(o1, Origin::Compiled);
        assert_eq!(o2, Origin::Memory);
        assert_eq!(cache.counters.compiles.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = Cache::new(None);
        let key = 7;
        let calls = AtomicUsize::new(0);
        let fail = || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(Error::Compile(br_core::CompileError::Deadline {
                elapsed_ms: 1,
            }))
        };
        assert!(cache.get_or_compile(key, fail).is_err());
        assert!(
            cache.get_or_compile(key, fail).is_err(),
            "retried, not poisoned"
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        // And a later success on the same key still lands.
        let (_, o) = cache.get_or_compile(key, compile_fixture).unwrap();
        assert_eq!(o, Origin::Compiled);
    }

    #[test]
    fn key_mixes_all_inputs() {
        let k = Cache::key(1, 2, Machine::Baseline, true);
        for other in [
            Cache::key(9, 2, Machine::Baseline, true),
            Cache::key(1, 9, Machine::Baseline, true),
            Cache::key(1, 2, Machine::BranchReg, true),
            Cache::key(1, 2, Machine::Baseline, false),
        ] {
            assert_ne!(k, other);
        }
    }
}
