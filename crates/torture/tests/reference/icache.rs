//! Reference oracle for `icache_reference.rs`: br-icache's simulator as
//! it stood before its ways moved into one flat `Vec` with an
//! invalid-tag sentinel, derived counters and one lookup per line. Each
//! fetch updates every counter it touches, and `fetch_run` looks a line
//! up again after its first fetch. Only the imports differ from that
//! original.

use br_emu::{ExecHook, FetchTrace, TraceEvent};
use br_icache::{CacheConfig, CacheConfigError, CacheStats};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u32,
    /// Cycle at which the fill completes.
    ready_at: u64,
    /// LRU timestamp.
    last_used: u64,
    /// Filled by prefetch and not yet demanded.
    prefetched_unused: bool,
}

/// The cache simulator. Attach to an emulator via
/// [`Emulator::run_with_hook`](br_emu::Emulator::run_with_hook).
#[derive(Debug, Clone)]
pub struct ICacheSim {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * assoc, row-major by set
    stats: CacheStats,
    cycle: u64,
    /// `log2(line bytes)` — placement is shift/mask, not division
    /// (geometry is validated power-of-two at construction).
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// Candidate in-flight prefetches as `(ready_at, line index)`,
    /// pushed at install time. An entry goes stale when its line is
    /// overwritten (the line's `ready_at` no longer matches) or the
    /// clock passes `ready_at`; [`in_flight`](Self::in_flight) filters
    /// entries against the live line state, so the count equals the
    /// full-scan definition (valid lines with `ready_at > now`) at
    /// O(queue depth) cost instead of O(lines) per prefetch.
    pending: Vec<(u64, u32)>,
}

impl ICacheSim {
    /// Create an empty (cold) cache, rejecting impossible geometries
    /// with a typed error (see [`CacheConfig::validate`]).
    pub fn try_new(cfg: CacheConfig) -> Result<ICacheSim, CacheConfigError> {
        cfg.validate()?;
        Ok(ICacheSim {
            cfg,
            lines: vec![Line::default(); cfg.sets * cfg.assoc],
            stats: CacheStats::default(),
            cycle: 0,
            line_shift: 2 + (cfg.line_words as u32).trailing_zeros(),
            set_mask: cfg.sets as u32 - 1,
            set_shift: (cfg.sets as u32).trailing_zeros(),
            pending: Vec::new(),
        })
    }

    /// Create an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero or `sets`/`line_words`
    /// are not powers of two; use [`try_new`](Self::try_new) to handle
    /// generated configurations gracefully.
    pub fn new(cfg: CacheConfig) -> ICacheSim {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The collected statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Shift/mask placement — identical to [`CacheConfig::set_and_tag`]
    /// for the validated power-of-two geometries this simulator holds
    /// (pinned by a test below), but cheap enough for the replay hot
    /// loop.
    fn set_and_tag(&self, addr: u32) -> (usize, u32) {
        let line_addr = addr >> self.line_shift;
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.set_shift,
        )
    }

    fn lookup(&mut self, set: usize, tag: u32) -> Option<usize> {
        let base = set * self.cfg.assoc;
        (0..self.cfg.assoc)
            .map(|i| base + i)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Pick a victim way in `set` (invalid first, else LRU).
    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.cfg.assoc;
        if let Some(i) = (0..self.cfg.assoc)
            .map(|i| base + i)
            .find(|&i| !self.lines[i].valid)
        {
            return i;
        }
        let i = (0..self.cfg.assoc)
            .map(|i| base + i)
            .min_by_key(|&i| self.lines[i].last_used)
            .expect("assoc > 0");
        if self.lines[i].prefetched_unused {
            self.stats.pollution += 1;
        }
        i
    }

    /// Valid lines whose fill has not completed — the full-scan
    /// definition `lines.iter().filter(|l| l.valid && l.ready_at > now)`
    /// evaluated through the `pending` candidate list (every line with a
    /// future `ready_at` was installed by a prefetch, the only writer of
    /// future ready times, so it has a matching candidate entry).
    fn in_flight(&mut self) -> usize {
        let now = self.cycle;
        let lines = &self.lines;
        self.pending.retain(|&(ready, i)| {
            let l = &lines[i as usize];
            l.valid && l.ready_at == ready && ready > now
        });
        self.pending.len()
    }

    /// Simulate `len` sequential fetches starting at `addr` (addresses
    /// `addr, addr+4, …`) — one recorded straight-line extent.
    ///
    /// Byte-identical to calling [`fetch`](ExecHook::fetch) `len` times,
    /// but only the first fetch of each cache line takes the full
    /// lookup path: once a line has been demand-fetched, the remaining
    /// fetches inside it are guaranteed plain hits (the line is valid,
    /// its fill is complete — `fetch` never returns with
    /// `ready_at > cycle` — it is MRU, and no other access intervenes
    /// within a run), so they are charged in one batched step. This is
    /// what makes trace replay line-granular rather than
    /// instruction-granular.
    pub fn fetch_run(&mut self, addr: u32, len: u32) {
        let line_bytes = (self.cfg.line_words as u32) << 2;
        let mut addr = addr;
        let mut remaining = len;
        while remaining > 0 {
            self.fetch(addr);
            remaining -= 1;
            let in_line = (line_bytes - (addr & (line_bytes - 1))) / 4 - 1;
            let batched = in_line.min(remaining);
            if batched > 0 {
                let k = u64::from(batched);
                self.cycle += k;
                self.stats.cycles += k;
                self.stats.fetches += k;
                self.stats.hits += k;
                let (set, tag) = self.set_and_tag(addr);
                let i = self.lookup(set, tag).expect("line fetched above");
                self.lines[i].last_used = self.cycle;
                remaining -= batched;
            }
            addr = addr.wrapping_add((1 + batched) << 2);
        }
    }
}

/// Replay a recorded [`FetchTrace`] through one cache geometry,
/// returning the statistics a live [`ICacheSim`] hook would have
/// collected on the recorded execution — byte-identical, per the replay
/// contract pinned in `crates/torture/tests/replay_properties.rs` —
/// without re-executing the program.
pub fn replay(cfg: CacheConfig, trace: &FetchTrace) -> Result<CacheStats, CacheConfigError> {
    let mut sim = ICacheSim::try_new(cfg)?;
    for ev in trace.events() {
        match ev {
            TraceEvent::FetchRun { addr, len } => sim.fetch_run(addr, len),
            TraceEvent::Prefetch { addr } => sim.prefetch(addr),
        }
    }
    Ok(sim.stats)
}

impl ExecHook for ICacheSim {
    fn fetch(&mut self, addr: u32) {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.stats.fetches += 1;
        let (set, tag) = self.set_and_tag(addr);
        match self.lookup(set, tag) {
            Some(i) => {
                let line = &mut self.lines[i];
                if line.ready_at > self.cycle {
                    // Line still filling (late prefetch): partial stall.
                    let stall = line.ready_at - self.cycle;
                    self.stats.late_prefetch_hits += 1;
                    self.stats.stall_cycles += stall;
                    self.stats.cycles += stall;
                    self.cycle = line.ready_at;
                } else if line.prefetched_unused {
                    self.stats.prefetch_hits += 1;
                } else {
                    self.stats.hits += 1;
                }
                let line = &mut self.lines[i];
                line.prefetched_unused = false;
                line.last_used = self.cycle;
            }
            None => {
                self.stats.misses += 1;
                let stall = self.cfg.miss_penalty as u64;
                self.stats.stall_cycles += stall;
                self.stats.cycles += stall;
                self.cycle += stall;
                let now = self.cycle;
                let i = self.victim(set);
                self.lines[i] = Line {
                    valid: true,
                    tag,
                    ready_at: now,
                    last_used: now,
                    prefetched_unused: false,
                };
            }
        }
    }

    fn prefetch(&mut self, addr: u32) {
        if !self.cfg.prefetch {
            return;
        }
        let (set, tag) = self.set_and_tag(addr);
        if self.lookup(set, tag).is_some() {
            self.stats.prefetch_redundant += 1;
            return;
        }
        if self.in_flight() >= self.cfg.prefetch_queue {
            self.stats.prefetch_dropped += 1;
            return;
        }
        self.stats.prefetches += 1;
        let ready = self.cycle + self.cfg.miss_penalty as u64;
        let i = self.victim(set);
        self.lines[i] = Line {
            valid: true,
            tag,
            ready_at: ready,
            last_used: self.cycle,
            prefetched_unused: true,
        };
        if ready > self.cycle {
            // Overwriting a line retires its old candidate entry (a
            // direct-mapped set can evict a same-cycle prefetch).
            self.pending.retain(|&(_, j)| j as usize != i);
            self.pending.push((ready, i as u32));
        }
    }
}
