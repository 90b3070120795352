//! Host-speed reference: a fixed piece of work, run between the timed
//! operations, whose time says how fast the host runs at that moment.
//!
//! The benchmark shares a few cores of a host with other tenants, and
//! they slow it by up to about twice over spans of seconds to minutes:
//! longer than one run, so no estimator inside a run filters it out.
//! The reference kernel below — hash-map inserts that grow small
//! vectors, over a working set of about a megabyte, built from the
//! standard library alone — slows with them. Timed between the jobs of
//! `paper_suite` and `compile_fresh` on such a host, its time
//! correlated 0.95–0.97 with theirs at the pass level, where fixed
//! loops, pointer chases, memset and a bytecode interpreter tracked them
//! far less closely.
//!
//! Every timing metric is therefore divided by the host factor: the
//! kernel's mean thread CPU time near the measurement, over
//! [`REFERENCE_S`], its time on a quiet host. Timings read as seconds on
//! that quiet host. The kernel shares no code with the repository, so no
//! change there can move it; it runs outside every timed interval.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::stats::mean;

/// The kernel's thread CPU time, in seconds, on a quiet host: on the
/// 2-vCPU KVM guest the benchmark was built on, with this figure the
/// host-normalized `paper_suite` pass reads 0.91–0.95 s whether the host
/// is busy or not, as the raw pass did in its quietest spells.
pub const REFERENCE_S: f64 = 0.0016;
/// Between two jobs of a pass, the kernel runs again once this much
/// time has passed since it last ran: about one sample per 40 ms of
/// work, a few percent of a run.
const SAMPLE_GAP: Duration = Duration::from_millis(40);
const KEYS: u64 = 32_768;
const INSERTS: u32 = 20_000;

/// CPU time this thread has used, in seconds. Thread CPU time leaves
/// out the time the thread waits for a core, so a sample taken while
/// the workload's own threads are busy measures the core's speed, not
/// the run queue.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The reference kernel. Returns a checksum so the work is kept.
fn kernel() -> u64 {
    let mut map: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % KEYS).or_default().push(i);
    }
    map.values().map(|v| v.len() as u64).sum()
}

/// Run the kernel once; its thread CPU time in seconds.
pub fn sample() -> f64 {
    let t = thread_cpu_s();
    std::hint::black_box(kernel());
    thread_cpu_s() - t
}

/// Host factor of a set of samples: above 1 when the host ran slower
/// than the quiet host, 1 when there are none.
pub fn factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        mean(samples) / REFERENCE_S
    }
}

/// One timed pass of a batch workload: its jobs are timed one by one
/// and the kernel runs between them, outside the pass's time.
pub struct PassClock {
    start: Instant,
    last_sample: Instant,
    /// Wall time spent in the kernel, taken out of the pass's time.
    in_kernel: Duration,
    /// Whether the kernel runs at all; off where only the jobs' results
    /// are used.
    sampling: bool,
    samples: Vec<f64>,
    job_ms: Vec<f64>,
}

/// A finished pass, in host-normalized time.
pub struct Pass {
    /// Wall time of the pass, kernel runs excluded, over the factor.
    pub wall_s: f64,
    /// Each job's latency over the factor.
    pub job_ms: Vec<f64>,
    /// The pass's host factor and raw wall time, for the log.
    pub factor: f64,
    pub raw_wall_s: f64,
}

impl PassClock {
    /// Start a pass after a first kernel run.
    pub fn start() -> PassClock {
        let first = sample();
        let now = Instant::now();
        PassClock {
            start: now,
            last_sample: now,
            in_kernel: Duration::ZERO,
            sampling: true,
            samples: vec![first],
            job_ms: Vec::new(),
        }
    }

    /// A pass that never runs the kernel.
    pub fn unsampled() -> PassClock {
        let now = Instant::now();
        PassClock {
            start: now,
            last_sample: now,
            in_kernel: Duration::ZERO,
            sampling: false,
            samples: Vec::new(),
            job_ms: Vec::new(),
        }
    }

    /// Wall time of the pass so far, kernel runs excluded, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        (self.start.elapsed() - self.in_kernel).as_secs_f64()
    }

    /// Jobs timed so far.
    pub fn jobs(&self) -> usize {
        self.job_ms.len()
    }

    fn sample(&mut self) {
        let t = Instant::now();
        self.samples.push(sample());
        self.last_sample = Instant::now();
        self.in_kernel += self.last_sample - t;
    }

    /// Time one job, after a kernel run if one is due.
    pub fn job<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.sampling && self.last_sample.elapsed() >= SAMPLE_GAP {
            self.sample();
        }
        let t = Instant::now();
        let out = f();
        self.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// End the pass with a last kernel run.
    pub fn finish(mut self) -> Pass {
        let raw_wall_s = self.elapsed_s();
        if self.sampling {
            self.sample();
        }
        let f = factor(&self.samples);
        Pass {
            wall_s: raw_wall_s / f,
            job_ms: self.job_ms.iter().map(|ms| ms / f).collect(),
            factor: f,
            raw_wall_s,
        }
    }
}
