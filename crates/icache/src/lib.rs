//! `br-icache` — an instruction-cache simulator with branch-register
//! prefetch, modelling the paper's Sections 8–9.
//!
//! Assigning a branch register "has the side effect of directing the
//! instruction cache to prefetch the line associated with the instruction
//! address". The cache honours prefetch requests through a queue whose
//! depth equals the number of branch registers; a line being filled
//! carries a *busy* time, and a demand fetch that arrives while its line
//! is still busy stalls only for the remaining cycles. Prefetched lines
//! that are evicted before ever being used count as *cache pollution*
//! (Section 9's open question).
//!
//! The simulator implements [`br_emu::ExecHook`], so it can ride along
//! any emulation:
//!
//! ```no_run
//! use br_emu::Emulator;
//! use br_icache::{CacheConfig, ICacheSim};
//! # fn get_program() -> br_isa::Program { unimplemented!() }
//! let program = get_program();
//! let mut cache = ICacheSim::new(CacheConfig::default());
//! let mut emu = Emulator::new(&program);
//! emu.run_with_hook(u64::MAX, &mut cache)?;
//! println!("{:?}", cache.stats());
//! # Ok::<(), br_emu::EmuError>(())
//! ```

use br_emu::{ExecHook, FetchTrace, TraceEvent};
use std::fmt;

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (lines per set).
    pub assoc: usize,
    /// Words (4 bytes each) per line.
    pub line_words: usize,
    /// Cycles to fill a line from main memory.
    pub miss_penalty: u32,
    /// Maximum in-flight prefetches ("the size of the queue equal to the
    /// number of available branch registers").
    pub prefetch_queue: usize,
    /// Whether prefetch requests are honoured at all (off for the
    /// baseline machine).
    pub prefetch: bool,
}

impl Default for CacheConfig {
    /// A small late-1980s on-chip cache: 2 KiB, 2-way, 4-word lines,
    /// with an 8-entry prefetch queue (one slot per branch register).
    fn default() -> CacheConfig {
        CacheConfig {
            sets: 64,
            assoc: 2,
            line_words: 4,
            miss_penalty: 8,
            prefetch_queue: 8,
            prefetch: true,
        }
    }
}

/// A rejected [`CacheConfig`]: a geometry the simulator cannot model.
///
/// Every reject is typed so sweep drivers can report *which* axis of a
/// generated configuration was invalid instead of dying on an assert
/// (or a divide-by-zero) deep inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// `sets == 0` — the placement function divides by the set count.
    ZeroSets,
    /// `assoc == 0` — every set needs at least one line.
    ZeroAssoc,
    /// `line_words == 0` — lines must hold at least one instruction.
    ZeroLineWords,
    /// `sets` is not a power of two (set indexing is a mask).
    SetsNotPowerOfTwo(usize),
    /// `line_words` is not a power of two (line offset is a mask).
    LineWordsNotPowerOfTwo(usize),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CacheConfigError::ZeroSets => write!(f, "cache must have at least one set"),
            CacheConfigError::ZeroAssoc => {
                write!(f, "cache associativity must be at least 1")
            }
            CacheConfigError::ZeroLineWords => {
                write!(f, "cache lines must hold at least one word")
            }
            CacheConfigError::SetsNotPowerOfTwo(n) => {
                write!(f, "sets must be a power of two (got {n})")
            }
            CacheConfigError::LineWordsNotPowerOfTwo(n) => {
                write!(f, "line_words must be a power of two (got {n})")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

impl CacheConfig {
    /// Check the geometry the simulator requires: nonzero `sets`,
    /// `assoc` and `line_words`, with `sets` and `line_words` powers of
    /// two. Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.sets == 0 {
            return Err(CacheConfigError::ZeroSets);
        }
        if self.assoc == 0 {
            return Err(CacheConfigError::ZeroAssoc);
        }
        if self.line_words == 0 {
            return Err(CacheConfigError::ZeroLineWords);
        }
        if !self.sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(self.sets));
        }
        if !self.line_words.is_power_of_two() {
            return Err(CacheConfigError::LineWordsNotPowerOfTwo(self.line_words));
        }
        Ok(())
    }

    /// The default geometry sized for a machine with `num_bregs` branch
    /// registers: the paper's "size of the queue equal to the number of
    /// available branch registers" rule, so breg sweeps shrink the
    /// prefetch queue along with the register file instead of keeping
    /// the 8-register machine's queue.
    pub fn for_bregs(num_bregs: usize) -> CacheConfig {
        CacheConfig {
            prefetch_queue: num_bregs,
            ..CacheConfig::default()
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.assoc * self.line_words * 4
    }

    /// The line-granular address (`addr / line bytes`) a byte address
    /// falls into. Line addresses identify cache lines uniquely.
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr / (self.line_words as u32 * 4)
    }

    /// The set a byte address maps to and the tag stored for it. This
    /// is the one placement function shared by the simulator and the
    /// static conflict classifier in `br-verify`, so the two can never
    /// disagree about which lines compete.
    pub fn set_and_tag(&self, addr: u32) -> (usize, u32) {
        let line_addr = self.line_addr(addr);
        let set = (line_addr as usize) % self.sets;
        let tag = line_addr / self.sets as u32;
        (set, tag)
    }
}

/// Dynamic cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand instruction fetches.
    pub fetches: u64,
    /// Demand fetches that hit a ready line.
    pub hits: u64,
    /// Demand fetches that missed entirely.
    pub misses: u64,
    /// Demand fetches that hit a line still being prefetched
    /// (partial stall).
    pub late_prefetch_hits: u64,
    /// Demand fetches whose line was fully prefetched in time.
    pub prefetch_hits: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Prefetch requests dropped because the queue was full.
    pub prefetch_dropped: u64,
    /// Prefetch requests for lines already present.
    pub prefetch_redundant: u64,
    /// Prefetched lines evicted before any use (pollution).
    pub pollution: u64,
    /// Total stall cycles charged to instruction fetch.
    pub stall_cycles: u64,
    /// Total simulated cycles (1 per fetch + stalls).
    pub cycles: u64,
}

impl CacheStats {
    /// Miss ratio over demand fetches.
    pub fn miss_ratio(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.misses as f64 / self.fetches as f64
        }
    }

    /// Accumulate another run's counters into this one (suite totals).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.fetches += other.fetches;
        self.hits += other.hits;
        self.misses += other.misses;
        self.late_prefetch_hits += other.late_prefetch_hits;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetches += other.prefetches;
        self.prefetch_dropped += other.prefetch_dropped;
        self.prefetch_redundant += other.prefetch_redundant;
        self.pollution += other.pollution;
        self.stall_cycles += other.stall_cycles;
        self.cycles += other.cycles;
    }
}

/// Tag of an empty way. A real tag is a line address shifted right by
/// the set bits, and a line holds at least one 4-byte word, so real
/// tags stay below 2^30 and never equal this.
const INVALID: u32 = u32::MAX;

/// One way of a set. All ways live in one `Vec`, so a lookup reads one
/// contiguous run of these.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// The resident line's tag, or [`INVALID`].
    tag: u32,
    /// Filled by prefetch and not yet demanded.
    prefetched: bool,
    /// Cycle at which the fill completes.
    ready_at: u64,
    /// LRU timestamp.
    last_used: u64,
}

impl Way {
    const EMPTY: Way = Way {
        tag: INVALID,
        prefetched: false,
        ready_at: 0,
        last_used: 0,
    };
}

/// The cache simulator. Attach to an emulator via
/// [`Emulator::run_with_hook`](br_emu::Emulator::run_with_hook), or
/// drive it from a recorded trace with [`replay`]; both run the same
/// state machine.
#[derive(Debug, Clone)]
pub struct ICacheSim {
    cfg: CacheConfig,
    /// `sets * assoc` ways, row-major by set.
    ways: Vec<Way>,
    /// The counters. `fetches`, `hits` and `cycles` follow from the
    /// clock and the others, so the hot paths leave them alone and
    /// [`publish`](Self::publish) writes them at the end of each public
    /// call.
    stats: CacheStats,
    /// The clock: one cycle per fetch plus stalls, which is `cycles`.
    cycle: u64,
    /// `log2(line bytes)` — placement is shift/mask, not division
    /// (geometry is validated power-of-two at construction).
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// Candidate in-flight prefetches as `(ready_at, way index)`,
    /// pushed at install time. An entry goes stale when its way is
    /// overwritten (the way's `ready_at` no longer matches) or the
    /// clock passes `ready_at`; [`in_flight`](Self::in_flight) filters
    /// entries against the live way state, so the count equals the
    /// full-scan definition (valid ways with `ready_at > now`) at
    /// O(queue depth) cost instead of O(ways) per prefetch.
    pending: Vec<(u64, u32)>,
}

impl ICacheSim {
    /// Create an empty (cold) cache, rejecting impossible geometries
    /// with a typed error (see [`CacheConfig::validate`]).
    pub fn try_new(cfg: CacheConfig) -> Result<ICacheSim, CacheConfigError> {
        cfg.validate()?;
        Ok(ICacheSim {
            cfg,
            ways: vec![Way::EMPTY; cfg.sets * cfg.assoc],
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

    /// The ways of `set`: `A` of them when the caller fixed the
    /// associativity at compile time, else `cfg.assoc` (`A == 0`).
    fn set_ways<const A: usize>(&self, set: usize) -> std::ops::Range<usize> {
        let assoc = if A == 0 { self.cfg.assoc } else { A };
        let base = set * assoc;
        base..base + assoc
    }

    /// The way of `set` holding `tag`, if any.
    fn lookup<const A: usize>(&self, set: usize, tag: u32) -> Option<usize> {
        let ways = self.set_ways::<A>(set);
        let base = ways.start;
        self.ways[ways]
            .iter()
            .position(|w| w.tag == tag)
            .map(|i| base + i)
    }

    /// Pick a victim way in `set` (invalid first, else LRU with ties to
    /// the first way), counting pollution when it evicts a prefetched
    /// line that was never used.
    fn victim<const A: usize>(&mut self, set: usize) -> usize {
        let ways = self.set_ways::<A>(set);
        let base = ways.start;
        let row = &self.ways[ways];
        let mut lru = 0;
        for (i, w) in row.iter().enumerate() {
            if w.tag == INVALID {
                return base + i;
            }
            if w.last_used < row[lru].last_used {
                lru = i;
            }
        }
        if row[lru].prefetched {
            self.stats.pollution += 1;
        }
        base + lru
    }

    /// Valid ways whose fill has not completed — the full-scan
    /// definition `ways.iter().filter(|w| valid && w.ready_at > now)`
    /// evaluated through the `pending` candidate list (every way with a
    /// future `ready_at` was installed by a prefetch, the only writer of
    /// future ready times, so it has a matching candidate entry).
    fn in_flight(&mut self) -> usize {
        let now = self.cycle;
        let ways = &self.ways;
        self.pending.retain(|&(ready, i)| {
            let w = &ways[i as usize];
            w.tag != INVALID && w.ready_at == ready && ready > now
        });
        self.pending.len()
    }

    /// Write the derived counters: `cycles` is the clock, every fetch
    /// costs one cycle plus its stall, and a fetch that neither missed
    /// nor met a prefetched line was a plain hit.
    fn publish(&mut self) {
        let s = &mut self.stats;
        s.cycles = self.cycle;
        s.fetches = self.cycle - s.stall_cycles;
        s.hits = s.fetches - s.misses - s.late_prefetch_hits - s.prefetch_hits;
    }

    /// One demand fetch of `addr`, then `rest` more fetches inside the
    /// same line with no other access between them. The line is looked
    /// up once: after its first fetch it is valid, filled (a fetch never
    /// leaves `ready_at > cycle`) and MRU, so the rest are plain hits
    /// and only advance the clock.
    fn demand<const A: usize>(&mut self, addr: u32, rest: u64) {
        self.cycle += 1;
        let (set, tag) = self.set_and_tag(addr);
        let i = match self.lookup::<A>(set, tag) {
            Some(i) => {
                let way = &mut self.ways[i];
                if way.ready_at > self.cycle {
                    // Line still filling (late prefetch): partial stall.
                    self.stats.late_prefetch_hits += 1;
                    self.stats.stall_cycles += way.ready_at - self.cycle;
                    self.cycle = way.ready_at;
                } else if way.prefetched {
                    self.stats.prefetch_hits += 1;
                }
                way.prefetched = false;
                i
            }
            None => {
                let stall = u64::from(self.cfg.miss_penalty);
                self.stats.misses += 1;
                self.stats.stall_cycles += stall;
                self.cycle += stall;
                let i = self.victim::<A>(set);
                self.ways[i] = Way {
                    tag,
                    prefetched: false,
                    ready_at: self.cycle,
                    last_used: 0,
                };
                i
            }
        };
        self.cycle += rest;
        self.ways[i].last_used = self.cycle;
    }

    /// `len` sequential fetches from `addr`, one [`demand`](Self::demand)
    /// per line touched.
    fn demand_run<const A: usize>(&mut self, addr: u32, len: u32) {
        let line_bytes = (self.cfg.line_words as u32) << 2;
        let mut addr = addr;
        let mut remaining = len;
        while remaining > 0 {
            let in_line = (line_bytes - (addr & (line_bytes - 1)))
                .div_ceil(4)
                .min(remaining);
            self.demand::<A>(addr, u64::from(in_line - 1));
            remaining -= in_line;
            addr = addr.wrapping_add(in_line << 2);
        }
    }

    /// A prefetch request for `addr`. It moves no derived counter.
    fn request<const A: usize>(&mut self, addr: u32) {
        if !self.cfg.prefetch {
            return;
        }
        let (set, tag) = self.set_and_tag(addr);
        if self.lookup::<A>(set, tag).is_some() {
            self.stats.prefetch_redundant += 1;
            return;
        }
        if self.in_flight() >= self.cfg.prefetch_queue {
            self.stats.prefetch_dropped += 1;
            return;
        }
        self.stats.prefetches += 1;
        let ready = self.cycle + u64::from(self.cfg.miss_penalty);
        let i = self.victim::<A>(set);
        self.ways[i] = Way {
            tag,
            prefetched: true,
            ready_at: ready,
            last_used: self.cycle,
        };
        if ready > self.cycle {
            // Overwriting a way retires its old candidate entry (a
            // direct-mapped set can evict a same-cycle prefetch).
            self.pending.retain(|&(_, j)| j as usize != i);
            self.pending.push((ready, i as u32));
        }
    }

    /// Every event of `trace`, with the associativity fixed at `A`, or
    /// read from the configuration when `A == 0`.
    fn replay_events<const A: usize>(&mut self, trace: &FetchTrace) {
        for ev in trace.events() {
            match ev {
                TraceEvent::FetchRun { addr, len } => self.demand_run::<A>(addr, len),
                TraceEvent::Prefetch { addr } => self.request::<A>(addr),
            }
        }
    }

    /// Simulate `len` sequential fetches starting at `addr` (addresses
    /// `addr, addr+4, …`) — one recorded straight-line extent.
    ///
    /// Identical to calling [`fetch`](ExecHook::fetch) `len` times, but
    /// each cache line the run touches is looked up once: after a line's
    /// first demand fetch, the remaining fetches inside it are plain hits
    /// (the line is valid, its fill is complete — a fetch never returns
    /// with `ready_at > cycle` — it is MRU, and no other access
    /// intervenes within a run), so they only advance the clock. This is
    /// what makes trace replay line-granular rather than
    /// instruction-granular.
    pub fn fetch_run(&mut self, addr: u32, len: u32) {
        self.demand_run::<0>(addr, len);
        self.publish();
    }
}

/// Replay a recorded [`FetchTrace`] through one cache geometry,
/// returning the statistics a live [`ICacheSim`] hook would have
/// collected on the recorded execution — byte-identical, per the replay
/// contract pinned in `crates/torture/tests/replay_properties.rs` —
/// without re-executing the program.
pub fn replay(cfg: CacheConfig, trace: &FetchTrace) -> Result<CacheStats, CacheConfigError> {
    let mut sim = ICacheSim::try_new(cfg)?;
    // The sweeps' associativities get their own instances, whose way
    // scans unroll.
    match cfg.assoc {
        1 => sim.replay_events::<1>(trace),
        2 => sim.replay_events::<2>(trace),
        4 => sim.replay_events::<4>(trace),
        _ => sim.replay_events::<0>(trace),
    }
    sim.publish();
    Ok(sim.stats)
}

impl ExecHook for ICacheSim {
    fn fetch(&mut self, addr: u32) {
        self.demand::<0>(addr, 0);
        self.publish();
    }

    fn prefetch(&mut self, addr: u32) {
        self.request::<0>(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ICacheSim {
        ICacheSim::new(CacheConfig {
            sets: 4,
            assoc: 1,
            line_words: 4,
            miss_penalty: 10,
            prefetch_queue: 2,
            prefetch: true,
        })
    }

    #[test]
    fn capacity_math() {
        assert_eq!(CacheConfig::default().capacity(), 64 * 2 * 4 * 4);
    }

    #[test]
    fn sequential_fetches_hit_within_a_line() {
        let mut c = tiny();
        c.fetch(0x1000); // miss
        c.fetch(0x1004); // hit (same 16-byte line)
        c.fetch(0x1008);
        c.fetch(0x100C);
        c.fetch(0x1010); // next line: miss
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 3);
        assert_eq!(c.stats().stall_cycles, 20);
    }

    #[test]
    fn prefetch_turns_miss_into_hit() {
        // Loop body lives in set 1; the prefetched target in set 0.
        let mut c = tiny();
        c.fetch(0x1010); // warm up, sets cycle
        c.prefetch(0x2000);
        // Execute enough instructions to cover the fill latency.
        for i in 0..12 {
            c.fetch(0x1010 + (i % 4) * 4);
        }
        let before = c.stats().stall_cycles;
        c.fetch(0x2000);
        assert_eq!(c.stats().stall_cycles, before, "fully hidden prefetch");
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn late_prefetch_gives_partial_stall() {
        let mut c = tiny();
        c.fetch(0x1010); // set 1
        c.prefetch(0x2000); // set 0
        c.fetch(0x1014); // 1 cycle passes
        let before = c.stats().stall_cycles;
        c.fetch(0x2000); // fill needs 10 total, ~9 remain
        let stall = c.stats().stall_cycles - before;
        assert!(stall > 0 && stall < 10, "partial stall, got {stall}");
        assert_eq!(c.stats().late_prefetch_hits, 1);
    }

    #[test]
    fn queue_limits_inflight_prefetches() {
        let mut c = tiny();
        c.fetch(0x1000);
        // Distinct sets so the prefetches do not evict each other.
        c.prefetch(0x2000);
        c.prefetch(0x2010);
        c.prefetch(0x2020); // queue (2) full
        assert_eq!(c.stats().prefetches, 2);
        assert_eq!(c.stats().prefetch_dropped, 1);
    }

    #[test]
    fn redundant_prefetch_counted() {
        let mut c = tiny();
        c.fetch(0x1000);
        c.prefetch(0x1000);
        assert_eq!(c.stats().prefetch_redundant, 1);
        assert_eq!(c.stats().prefetches, 0);
    }

    #[test]
    fn pollution_counts_unused_prefetched_lines() {
        let mut c = tiny();
        c.fetch(0x1000);
        // Prefetch a line into set 0, never use it, then force its
        // eviction by a conflicting fetch in the same set.
        c.prefetch(0x2000);
        for _ in 0..12 {
            c.fetch(0x1010); // set 1: let the fill finish
        }
        c.fetch(0x2040); // different tag, same set as 0x2000 → evicts it
        assert_eq!(c.stats().pollution, 1);
    }

    #[test]
    fn prefetch_disabled_is_inert() {
        let mut c = ICacheSim::new(CacheConfig {
            prefetch: false,
            ..CacheConfig::default()
        });
        c.prefetch(0x2000);
        assert_eq!(c.stats().prefetches, 0);
        c.fetch(0x2000);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = ICacheSim::new(CacheConfig {
            sets: 1,
            assoc: 2,
            line_words: 4,
            miss_penalty: 1,
            prefetch_queue: 8,
            prefetch: true,
        });
        c.fetch(0x1000); // way A
        c.fetch(0x2000); // way B
        c.fetch(0x1000); // touch A
        c.fetch(0x3000); // evicts B (LRU)
        c.fetch(0x1000); // still a hit
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = ICacheSim::new(CacheConfig {
            sets: 3,
            ..CacheConfig::default()
        });
    }

    #[test]
    fn validate_rejects_each_bad_axis() {
        let ok = CacheConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(
            CacheConfig { sets: 0, ..ok }.validate(),
            Err(CacheConfigError::ZeroSets)
        );
        assert_eq!(
            CacheConfig { assoc: 0, ..ok }.validate(),
            Err(CacheConfigError::ZeroAssoc)
        );
        assert_eq!(
            CacheConfig {
                line_words: 0,
                ..ok
            }
            .validate(),
            Err(CacheConfigError::ZeroLineWords)
        );
        assert_eq!(
            CacheConfig { sets: 48, ..ok }.validate(),
            Err(CacheConfigError::SetsNotPowerOfTwo(48))
        );
        assert_eq!(
            CacheConfig {
                line_words: 3,
                ..ok
            }
            .validate(),
            Err(CacheConfigError::LineWordsNotPowerOfTwo(3))
        );
        // try_new surfaces the same typed error instead of panicking.
        assert_eq!(
            ICacheSim::try_new(CacheConfig { sets: 0, ..ok }).err(),
            Some(CacheConfigError::ZeroSets)
        );
        assert!(ICacheSim::try_new(ok).is_ok());
    }

    #[test]
    fn error_display_names_the_constraint() {
        assert!(CacheConfigError::SetsNotPowerOfTwo(3)
            .to_string()
            .contains("power of two (got 3)"));
        assert!(CacheConfigError::ZeroSets.to_string().contains("set"));
        assert!(CacheConfigError::ZeroAssoc
            .to_string()
            .contains("associativity"));
        assert!(CacheConfigError::ZeroLineWords.to_string().contains("word"));
    }

    #[test]
    fn for_bregs_sizes_the_queue_to_the_register_file() {
        for n in [2usize, 4, 6, 8] {
            let cfg = CacheConfig::for_bregs(n);
            assert_eq!(cfg.prefetch_queue, n);
            // Everything else is the paper's default geometry.
            assert_eq!(
                CacheConfig {
                    prefetch_queue: 8,
                    ..cfg
                },
                CacheConfig::default()
            );
        }
    }

    #[test]
    fn stats_accumulate_sums_every_field() {
        let mut c = tiny();
        c.fetch(0x1000);
        c.prefetch(0x2000);
        c.fetch(0x2000);
        let one = *c.stats();
        let mut total = one;
        total.accumulate(&one);
        assert_eq!(total.fetches, 2 * one.fetches);
        assert_eq!(total.cycles, 2 * one.cycles);
        assert_eq!(total.stall_cycles, 2 * one.stall_cycles);
        assert_eq!(total.late_prefetch_hits, 2 * one.late_prefetch_hits);
        assert_eq!(total.prefetches, 2 * one.prefetches);
    }

    /// `fetch_run` must be indistinguishable from the per-fetch loop —
    /// full simulator state, not just stats — across runs that start
    /// mid-line, span lines, collide in sets, and interleave with
    /// prefetches.
    #[test]
    fn fetch_run_matches_per_fetch_loop() {
        // Deterministic pseudo-random walk (splitmix-style) producing
        // runs of varied length/alignment plus occasional prefetches.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let geoms = [
            CacheConfig::default(),
            CacheConfig {
                sets: 4,
                assoc: 1,
                line_words: 4,
                miss_penalty: 10,
                prefetch_queue: 2,
                prefetch: true,
            },
            CacheConfig {
                sets: 8,
                assoc: 2,
                line_words: 8,
                miss_penalty: 6,
                prefetch_queue: 4,
                prefetch: true,
            },
        ];
        for cfg in geoms {
            let mut batched = ICacheSim::new(cfg);
            let mut scalar = ICacheSim::new(cfg);
            for _ in 0..400 {
                let r = step();
                if r % 5 == 0 {
                    let addr = ((r >> 8) as u32 & 0xFFFF) << 2;
                    batched.prefetch(addr);
                    scalar.prefetch(addr);
                } else {
                    let addr = ((r >> 8) as u32 & 0xFFFF) << 2;
                    let len = 1 + ((r >> 24) as u32 % 13);
                    batched.fetch_run(addr, len);
                    for i in 0..len {
                        scalar.fetch(addr.wrapping_add(i << 2));
                    }
                }
            }
            assert_eq!(batched.stats(), scalar.stats(), "stats diverged: {cfg:?}");
            assert_eq!(batched.cycle, scalar.cycle, "clock diverged: {cfg:?}");
            for (i, (a, b)) in batched.ways.iter().zip(scalar.ways.iter()).enumerate() {
                assert_eq!(
                    (
                        a.tag != INVALID,
                        a.tag,
                        a.ready_at,
                        a.last_used,
                        a.prefetched
                    ),
                    (
                        b.tag != INVALID,
                        b.tag,
                        b.ready_at,
                        b.last_used,
                        b.prefetched
                    ),
                    "way {i} diverged: {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn fast_placement_matches_config_placement() {
        let geoms = [
            CacheConfig::default(),
            CacheConfig {
                sets: 1,
                assoc: 2,
                line_words: 1,
                ..CacheConfig::default()
            },
            CacheConfig {
                sets: 128,
                assoc: 1,
                line_words: 8,
                ..CacheConfig::default()
            },
        ];
        for cfg in geoms {
            let c = ICacheSim::new(cfg);
            for addr in (0..0x4_0000u32).step_by(4).chain([!3u32, 0x7FFF_FFFC]) {
                assert_eq!(
                    c.set_and_tag(addr),
                    cfg.set_and_tag(addr),
                    "placement diverged at {addr:#x} for {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn pending_in_flight_matches_full_scan() {
        // Stress the candidate list (including same-cycle eviction in a
        // direct-mapped cache) and compare against the full-scan
        // definition after every operation.
        let cfgs = [
            CacheConfig {
                sets: 2,
                assoc: 1,
                line_words: 4,
                miss_penalty: 7,
                prefetch_queue: 4,
                prefetch: true,
            },
            CacheConfig {
                sets: 8,
                assoc: 2,
                line_words: 4,
                miss_penalty: 3,
                prefetch_queue: 2,
                prefetch: true,
            },
        ];
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for cfg in cfgs {
            let mut c = ICacheSim::new(cfg);
            for _ in 0..600 {
                let r = step();
                let addr = ((r >> 4) as u32 & 0xFFF) << 2;
                if r % 3 == 0 {
                    c.prefetch(addr);
                } else {
                    c.fetch(addr);
                }
                let now = c.cycle;
                let scan = c
                    .ways
                    .iter()
                    .filter(|w| w.tag != INVALID && w.ready_at > now)
                    .count();
                assert_eq!(c.in_flight(), scan, "in-flight count diverged: {cfg:?}");
            }
        }
    }

    #[test]
    fn replay_equals_live_hook_on_a_recorded_stream() {
        // Drive the same event sequence through a live sim (as the
        // emulator hook would) and through record → replay.
        let cfg = tiny().cfg;
        let mut live = ICacheSim::new(cfg);
        let mut rec = br_emu::FetchRecorder::new();
        let feed = |live: &mut ICacheSim, rec: &mut br_emu::FetchRecorder| {
            for i in 0..6u32 {
                let a = 0x1000 + i * 4;
                live.fetch(a);
                rec.fetch(a);
            }
            live.prefetch(0x2000);
            rec.prefetch(0x2000);
            for i in 0..12u32 {
                let a = 0x1010 + (i % 4) * 4;
                live.fetch(a);
                rec.fetch(a);
            }
            live.fetch(0x2000);
            rec.fetch(0x2000);
        };
        feed(&mut live, &mut rec);
        let trace = rec.finish(&br_emu::Measurements::new());
        let replayed = replay(cfg, &trace).expect("valid geometry");
        assert_eq!(&replayed, live.stats());
        // And an invalid geometry comes back as the typed error.
        assert_eq!(
            replay(CacheConfig { sets: 0, ..cfg }, &trace),
            Err(CacheConfigError::ZeroSets)
        );
    }
}
